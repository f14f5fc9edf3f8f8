"""In-memory span recorder and the timing wrappers the traced runs install.

The program is not modified: a traced run replaces a module attribute or
class attribute with a wrapper that opens a span around the original call
and restores the original afterwards.  Each span records its name, start,
end, parent span and request id; spans opened by the same thread while
another span is open are its children and share its request id.  Spans
stay in memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request)
        self.gauges: dict[str, float] = {}
        self._levels: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, new_request: bool = False):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        request = sid if (parent is None or new_request) else parent[1]
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent[0] if parent else None, request))

    def level(self, name: str, delta: int) -> None:
        """Move a level (such as a queue backlog) and keep its maximum."""
        with self._lock:
            self._levels[name] += delta
            key = f"{name}_max"
            self.gauges[key] = max(self.gauges.get(key, 0), self._levels[name])

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self, owner: Any, attr: str, name: str | Callable[..., str],
        new_request: bool = False, before: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under span ``name``.

        ``name`` may be a function of the call's arguments; ``before`` and
        ``after`` run with the arguments before the call and once it
        returned or raised.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        recorder = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if before is not None:
                before(*args, **kwargs)
            try:
                with recorder.span(label, new_request=new_request):
                    return orig(*args, **kwargs)
            finally:
                if after is not None:
                    after(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": list(self.spans),
            "gauges": dict(self.gauges),
        }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")


def load_spans(paths) -> tuple[list[tuple], dict[str, float]]:
    """Spans and gauges from span files of several processes.

    Span ids are only unique within one process, so each file's ids are
    namespaced by its position in ``paths``.
    """
    spans: list[tuple] = []
    gauges: dict[str, float] = {}
    for i, path in enumerate(paths):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for sid, name, start, end, parent, request in doc["spans"]:
            spans.append(
                ((i, sid), name, start, end,
                 (i, parent) if parent is not None else None, (i, request))
            )
        for key, value in doc["gauges"].items():
            gauges[key] = max(gauges.get(key, 0), value)
    return spans, gauges


def self_times(spans) -> dict[Any, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _req in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _req in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def durations_by_name(spans) -> dict[str, list[float]]:
    out: dict[str, list[float]] = defaultdict(list)
    for _sid, name, start, end, _parent, _req in spans:
        out[name].append(end - start)
    return out


# -- layer wrappers --------------------------------------------------------------


def install_analysis(rec: SpanRecorder) -> None:
    """Stages of one ``analyze`` call: read, validate, columnar core, render."""
    import repro.cli
    import repro.core.analyzer as analyzer
    import repro.trace.reader as reader
    from repro.core.report import AnalysisReport

    rec.wrap(repro.cli, "read_trace", "trace.read")
    rec.wrap(reader, "read_trace", "trace.read")
    rec.wrap(repro.cli, "analyze", "core.analyze")
    rec.wrap(analyzer, "analyze", "core.analyze")
    rec.wrap(analyzer, "validate_trace", "trace.validate")
    rec.wrap(analyzer, "resolve_wakers_columnar", "core.wakers")
    rec.wrap(analyzer, "build_timelines_columnar", "core.timelines")
    rec.wrap(analyzer, "compute_critical_path_columnar", "core.walk")
    rec.wrap(analyzer, "compute_metrics_columnar", "core.metrics")
    rec.wrap(analyzer, "compute_thread_stats_columnar", "core.metrics")
    rec.wrap(AnalysisReport, "render", "core.render")


def _route_name(api, method: str, path: str, *args, **kwargs) -> str:
    parts = [p for p in path.split("/") if p]
    if parts[:1] == ["traces"] and len(parts) == 3:
        resource = parts[2]  # chunks / finalize
    elif parts[:1] == ["streams"] and len(parts) == 3:
        resource = parts[2]  # snapshot
    else:
        resource = parts[0] if parts else "root"
    return f"api.{method.upper()}.{resource}"


def install_server(rec: SpanRecorder) -> None:
    """Request handling, store, cache, stream ingest and fleet ingest."""
    import repro.fleet.ingest as fleet_ingest
    import repro.service.stream as stream
    from repro.core.online import OnlineAnalyzer
    from repro.service.api import ServiceAPI
    from repro.service.cache import ResultCache
    from repro.service.store import TraceStore

    rec.wrap(ServiceAPI, "handle", _route_name, new_request=True)
    rec.wrap(TraceStore, "put_bytes", "service.store_put")
    rec.wrap(TraceStore, "put_trace", "stream.finalize_put")
    rec.wrap(ResultCache, "get", "service.cache_get")
    rec.wrap(stream.StreamStore, "append_chunks", "stream.append")
    rec.wrap(stream, "iter_frames", "trace.frame_decode")
    rec.wrap(stream.StreamStore, "finalize", "stream.finalize_store")
    rec.wrap(OnlineAnalyzer, "observe_batch", "core.online_observe")
    rec.wrap(OnlineAnalyzer, "snapshot", "core.online_snapshot")
    rec.wrap(
        fleet_ingest.FleetIngestor, "enqueue", "fleet.enqueue",
        before=lambda *a, **k: rec.level("fleet.backlog", +1),
    )
    rec.wrap(
        fleet_ingest, "observe_stored_trace", "fleet.ingest",
        after=lambda *a, **k: rec.level("fleet.backlog", -1),
    )


def install_worker(rec: SpanRecorder) -> None:
    """Job execution inside a pool worker, with the analysis stages."""
    import repro.service.pool as pool

    rec.wrap(pool, "execute", "service.execute", new_request=True)
    install_analysis(rec)
