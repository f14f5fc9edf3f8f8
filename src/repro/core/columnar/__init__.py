"""Columnar (numpy) implementation of the analysis hot path.

The object engine (:mod:`repro.core.wakers`, :mod:`repro.core.segments`)
materializes one :class:`~repro.trace.events.Event` per record — three
full passes of Python object construction on a path the trace reader
already hands us as a structured array.  This package keeps the columns:

* :mod:`repro.core.columnar.wakers` resolves every waker with sorted
  searchsorted/argsort passes instead of two dict-driven event loops;
* :mod:`repro.core.columnar.timelines` builds blocked intervals and
  lock-hold intervals as flat arrays (one slot-matching pass per wait
  kind, one LIFO paren-matching pass for holds), with a thin view layer
  that materializes :class:`~repro.core.model.Wait` /
  :class:`~repro.core.model.HoldInterval` objects only where the DAG,
  what-if and viz layers need them;
* :mod:`repro.core.columnar.walk` precomputes every jump of the paper's
  backward walk with one ``searchsorted``, follows them as plain ints
  and returns the path as columns;
* :mod:`repro.core.columnar.metrics` computes the TYPE 1 / TYPE 2 tables
  with per-group ``np.cumsum`` so every float is summed in exactly the
  order the object engine uses — the output is *bit-identical*, which
  the ``engine-equiv`` invariant of ``repro.check`` enforces on every
  fuzzed seed;
* :mod:`repro.core.columnar.online` is the batch kernel behind
  :meth:`repro.core.online.OnlineAnalyzer.observe_batch`.

``analyze(trace)`` runs this pipeline; the object engine survives only
as the test reference :func:`repro.check.reference.reference_analyze`
(see ``docs/algorithm.md``).
"""

from repro.core.columnar.metrics import (
    compute_metrics_columnar,
    compute_thread_stats_columnar,
)
from repro.core.columnar.timelines import ColumnarTimelines, build_timelines_columnar
from repro.core.columnar.wakers import ColumnarWakers, resolve_wakers_columnar
from repro.core.columnar.walk import compute_critical_path_columnar

__all__ = [
    "ColumnarTimelines",
    "ColumnarWakers",
    "build_timelines_columnar",
    "compute_critical_path_columnar",
    "compute_metrics_columnar",
    "compute_thread_stats_columnar",
    "resolve_wakers_columnar",
]
