"""Critical lock analysis — SC 2012 reproduction.

A library for diagnosing critical section bottlenecks in multithreaded
applications by identifying the locks on the execution's *critical path*
(critical locks) and quantifying them with contention probability and hot
critical section size, per Chen & Stenström, "Critical Lock Analysis"
(SC 2012).

Top-level convenience imports::

    from repro import Program, analyze

    prog = Program(name="demo")
    ...
    result = prog.run()
    report = analyze(result.trace)
    print(report.report.render())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.analyzer import AnalysisResult, analyze
    from repro.replay import reconstruct
    from repro.sim import Program
    from repro.trace import Trace, TraceBuilder, read_trace, write_trace

__version__ = "1.0.0"

# Nothing is imported until it is used: ``import repro.cli`` must not
# load the simulator (see ``repro._lazy``).
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.analyzer": ("AnalysisResult", "analyze"),
    "repro.replay": ("reconstruct",),
    "repro.sim": ("Program",),
    "repro.trace": ("Trace", "TraceBuilder", "read_trace", "write_trace"),
})
__all__.append("__version__")
