"""Regenerate the golden report files in this directory.

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/regen.py

Run it only after an *intentional* change to metrics or report
formatting, then review the resulting diff like any other code change.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_golden_reports import (  # noqa: E402
    CASES,
    GOLDEN_DIR,
    SAMPLED_CASES,
    render_case,
    render_sampled_case,
    render_views_case,
    render_whatif_case,
)


def _write(path: pathlib.Path, text: str) -> None:
    changed = not path.exists() or path.read_text() != text
    path.write_text(text)
    print(f"{'updated' if changed else 'unchanged'}  {path}")


def main() -> int:
    for case in sorted(CASES):
        _write(GOLDEN_DIR / f"{case}.txt", render_case(case))
    for case in sorted(CASES):
        _write(GOLDEN_DIR / f"{case}.whatif.txt", render_whatif_case(case))
    for case in sorted(CASES):
        _write(GOLDEN_DIR / f"{case}.views.txt", render_views_case(case))
    for case in sorted(SAMPLED_CASES):
        _write(GOLDEN_DIR / f"{case}.sampled.txt", render_sampled_case(case))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
