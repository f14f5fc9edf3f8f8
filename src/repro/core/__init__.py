"""Critical lock analysis — the paper's contribution.

Pipeline (mirrors the paper's analysis module, Fig. 3), all in
:mod:`repro.core.columnar` and run by :func:`repro.core.analyzer.analyze`:

1. waker resolution: for every blocking wait, the thread and event that
   ended it (lock releaser / last barrier arriver / condition signaller
   / exiting joinee);
2. per-thread timelines of execution, waits and lock-hold intervals;
3. the backward walk of paper Fig. 2, producing the critical path;
4. TYPE 1 (on-critical-path) and TYPE 2 (classical per-thread) lock
   statistics (paper Table 2).

:mod:`repro.core.model` holds the result types and
:mod:`repro.core.report` renders them.  :mod:`repro.core.dag` builds the
forward event DAG from the same columns — an independent longest-path
cross-check that powers :mod:`repro.core.whatif` speedup predictions and
:mod:`repro.core.planner`.  The per-event chain is the readable
reference in :mod:`repro.check.reference` (bit-identical output, see
``docs/algorithm.md``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
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
    from repro.core.dag import EventGraph, build_event_graph
    from repro.core.estimate import EstimatedReport, LockEstimate, estimate_report
    from repro.core.eyerman import CriticalSectionModel, eyerman_speedup, fit_model
    from repro.core.forecast import ScalabilityForecast, forecast
    from repro.core.lockorder import LockOrderGraph, build_lock_order
    from repro.core.online import OnlineAnalyzer
    from repro.core.planner import OptimizationPlan, plan_optimizations
    from repro.core.model import (
        CPPiece,
        CriticalPath,
        HoldInterval,
        LockMetrics,
        ThreadTimeline,
        Wait,
        WaitKind,
    )
    from repro.core.phases import PhaseReport, split_phases
    from repro.core.replay_whatif import (
        LockDelta,
        ProtocolForecast,
        forecast_matrix,
        replay_identity,
        replay_whatif,
    )
    from repro.core.report import AnalysisReport
    from repro.core.whatif import WhatIfResult, predict_shrink
    from repro.core.windows import WindowedCriticality, windowed_criticality

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.analyzer": ("AnalysisResult", "analyze"),
    "repro.core.columnar.timelines": ("ColumnarTimelines", "build_timelines_columnar"),
    "repro.core.columnar.wakers": ("ColumnarWakers", "resolve_wakers_columnar"),
    "repro.core.attribution": ("LockAttribution", "attribute_lock"),
    "repro.core.blame": ("BlameReport", "compute_blame"),
    "repro.core.compare": ("ComparisonReport", "compare_analyses"),
    "repro.core.dag": ("EventGraph", "build_event_graph"),
    "repro.core.estimate": ("EstimatedReport", "LockEstimate", "estimate_report"),
    "repro.core.eyerman": ("CriticalSectionModel", "eyerman_speedup", "fit_model"),
    "repro.core.forecast": ("ScalabilityForecast", "forecast"),
    "repro.core.lockorder": ("LockOrderGraph", "build_lock_order"),
    "repro.core.online": ("OnlineAnalyzer",),
    "repro.core.planner": ("OptimizationPlan", "plan_optimizations"),
    "repro.core.model": (
        "CPPiece", "CriticalPath", "HoldInterval", "LockMetrics",
        "ThreadTimeline", "Wait", "WaitKind",
    ),
    "repro.core.phases": ("PhaseReport", "split_phases"),
    "repro.core.replay_whatif": (
        "LockDelta", "ProtocolForecast", "forecast_matrix", "replay_identity",
        "replay_whatif",
    ),
    "repro.core.report": ("AnalysisReport",),
    "repro.core.whatif": ("WhatIfResult", "predict_shrink"),
    "repro.core.windows": ("WindowedCriticality", "windowed_criticality"),
})
