"""Run ``repro serve`` with the benchmark's timing wrappers installed.

    PERFBENCH_SPANS_DIR=DIR python perfbench/serve_traced.py serve --port P ...

The arguments are handed unchanged to the normal CLI entry point.  The
server process records request, store, cache, stream and fleet spans;
pool workers (spawned processes, which re-import this file under the
name ``__mp_main__``) record job execution and analysis-stage spans.
Every process writes its spans to ``DIR`` when it exits.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from spans import SpanRecorder, install_server, install_worker  # noqa: E402


def _dump(rec: SpanRecorder, role: str) -> None:
    out = Path(os.environ["PERFBENCH_SPANS_DIR"]) / f"{role}-{os.getpid()}.json"
    rec.dump(out)


if __name__ == "__mp_main__":  # a spawned pool worker
    require_program()
    _worker_rec = SpanRecorder()
    install_worker(_worker_rec)
    atexit.register(_dump, _worker_rec, "worker")


def main() -> int:
    require_program()
    rec = SpanRecorder()
    install_server(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        _dump(rec, "serve")


if __name__ == "__main__":
    sys.exit(main())
