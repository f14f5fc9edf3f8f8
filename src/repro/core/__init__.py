"""Critical lock analysis — the paper's contribution.

Pipeline (mirrors the paper's analysis module, Fig. 3):

1. :mod:`repro.core.segments` turns a trace into per-thread timelines of
   execution, waits and lock-hold intervals;
2. :mod:`repro.core.wakers` resolves, for every blocking wait, the thread
   and event that ended it (lock releaser / last barrier arriver /
   condition signaller / exiting joinee);
3. :mod:`repro.core.critical_path` runs the backward walk of paper Fig. 2
   to produce the critical path;
4. :mod:`repro.core.metrics` computes TYPE 1 (on-critical-path) and
   TYPE 2 (classical per-thread) lock statistics (paper Table 2);
5. :mod:`repro.core.report` renders them; :mod:`repro.core.dag` provides
   an independent longest-path cross-check and powers
   :mod:`repro.core.whatif` speedup predictions.

Use :func:`repro.core.analyzer.analyze` for the whole pipeline.  It runs
the vectorized numpy twins of steps 1–4 in :mod:`repro.core.columnar`;
the per-event object modules listed above are the readable reference
(:func:`repro.check.reference.reference_analyze`, bit-identical output,
see ``docs/algorithm.md``) and back the DAG and replay layers.
"""

from repro.core.analyzer import AnalysisResult, analyze
from repro.core.columnar import (
    ColumnarTimelines,
    ColumnarWakers,
    build_timelines_columnar,
    resolve_wakers_columnar,
)
from repro.core.attribution import LockAttribution, attribute_lock
from repro.core.blame import BlameReport, compute_blame
from repro.core.compare import ComparisonReport, compare_analyses
from repro.core.critical_path import CriticalPath, compute_critical_path
from repro.core.dag import EventGraph, build_event_graph
from repro.core.estimate import EstimatedReport, LockEstimate, estimate_report
from repro.core.eyerman import CriticalSectionModel, eyerman_speedup, fit_model
from repro.core.forecast import ScalabilityForecast, forecast
from repro.core.lockorder import LockOrderGraph, build_lock_order
from repro.core.online import OnlineAnalyzer
from repro.core.planner import OptimizationPlan, plan_optimizations
from repro.core.metrics import LockMetrics, compute_metrics
from repro.core.model import CPPiece, HoldInterval, ThreadTimeline, Wait, WaitKind
from repro.core.phases import PhaseReport, split_phases
from repro.core.replay_whatif import (
    LockDelta,
    ProtocolForecast,
    forecast_matrix,
    replay_identity,
    replay_whatif,
)
from repro.core.report import AnalysisReport
from repro.core.segments import build_timelines
from repro.core.whatif import WhatIfResult, predict_shrink
from repro.core.windows import WindowedCriticality, windowed_criticality

__all__ = [
    "analyze",
    "AnalysisResult",
    "AnalysisReport",
    "ColumnarTimelines",
    "ColumnarWakers",
    "BlameReport",
    "LockAttribution",
    "ComparisonReport",
    "CriticalPath",
    "CriticalSectionModel",
    "CPPiece",
    "EstimatedReport",
    "EventGraph",
    "HoldInterval",
    "LockDelta",
    "LockEstimate",
    "LockMetrics",
    "LockOrderGraph",
    "OnlineAnalyzer",
    "OptimizationPlan",
    "ProtocolForecast",
    "ScalabilityForecast",
    "PhaseReport",
    "ThreadTimeline",
    "Wait",
    "WaitKind",
    "WhatIfResult",
    "WindowedCriticality",
    "attribute_lock",
    "build_event_graph",
    "build_lock_order",
    "build_timelines",
    "build_timelines_columnar",
    "resolve_wakers_columnar",
    "compare_analyses",
    "compute_blame",
    "compute_critical_path",
    "compute_metrics",
    "estimate_report",
    "eyerman_speedup",
    "fit_model",
    "forecast",
    "forecast_matrix",
    "plan_optimizations",
    "predict_shrink",
    "replay_identity",
    "replay_whatif",
    "split_phases",
    "windowed_criticality",
]
