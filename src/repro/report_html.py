"""Self-contained HTML reports.

Bundles everything a performance investigation produces — the summary,
TYPE 1 / TYPE 2 tables, the SVG execution timeline with critical-path
overlay, windowed criticality, what-if predictions and the scalability
forecast — into one dependency-free HTML file you can attach to a bug
report or code review.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

from repro.core.analyzer import AnalysisResult, analyze
from repro.core.forecast import forecast
from repro.errors import AnalysisError
from repro.core.windows import windowed_criticality
from repro.trace.trace import Trace
from repro.units import format_percent
from repro.viz.svg import render_svg

__all__ = ["render_html_report", "write_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 1000px; color: #212121; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; font-size: 0.9em; }
th, td { border: 1px solid #ddd; padding: 4px 10px; text-align: right; }
th { background: #f5f5f5; } td:first-child, th:first-child { text-align: left; }
tr.critical td { background: #FFF3E0; }
.note { color: #616161; font-size: 0.85em; }
svg { max-width: 100%; height: auto; border: 1px solid #eee; }
"""


def _table(headers: list[str], rows: list[list], critical_rows: set[int] = frozenset()) -> str:
    head = "".join(f"<th>{escape(str(h))}</th>" for h in headers)
    body = []
    for i, row in enumerate(rows):
        cls = ' class="critical"' if i in critical_rows else ""
        cells = "".join(f"<td>{escape(str(c))}</td>" for c in row)
        body.append(f"<tr{cls}>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


def render_html_report(
    trace: Trace,
    analysis: AnalysisResult | None = None,
    nwindows: int = 8,
    title: str | None = None,
) -> str:
    """Render the full report as an HTML string."""
    if analysis is None:
        analysis = analyze(trace, validate=False)
    report = analysis.report
    name = title or report.name or "critical lock analysis"
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(name)}</title><style>{_STYLE}</style></head><body>",
        f"<h1>Critical lock analysis — {escape(name)}</h1>",
        f"<p>{report.nthreads} threads · completion time "
        f"{report.duration:.6g} · critical path length "
        f"{analysis.critical_path.length:.6g} "
        f"({analysis.critical_path.piece_count} pieces) · hot critical "
        f"sections cover {format_percent(report.total_cp_lock_fraction)} "
        "of the path</p>",
    ]

    # TYPE 1 table (critical locks highlighted).
    type1_rows = []
    critical = set()
    for i, m in enumerate(report.top_locks(10)):
        if m.is_critical:
            critical.add(i)
        type1_rows.append(
            [
                m.name,
                format_percent(m.cp_fraction),
                m.invocations_on_cp,
                format_percent(m.cont_prob_on_cp),
                f"{m.invocation_increase:.2f}",
                f"{m.size_increase:.2f}",
            ]
        )
    parts.append("<h2>TYPE 1 — along the critical path</h2>")
    parts.append(
        _table(
            ["Lock", "CP Time %", "Invo. # on CP", "Cont. Prob. on CP",
             "Incr. Invo.", "Incr. Size"],
            type1_rows,
            critical,
        )
    )

    parts.append("<h2>TYPE 2 — classical statistics</h2>")
    parts.append(
        _table(
            ["Lock", "Wait Time %", "Avg. Invo. #", "Avg. Cont. Prob",
             "Avg. Hold Time %"],
            [
                [
                    m.name,
                    format_percent(m.avg_wait_fraction),
                    f"{m.avg_invocations:.1f}",
                    format_percent(m.avg_cont_prob),
                    format_percent(m.avg_hold_fraction),
                ]
                for m in report.top_locks(10, by="avg_wait_fraction")
            ],
        )
    )

    parts.append("<h2>Execution timeline</h2>")
    parts.append(render_svg(trace, analysis))

    # Windowed criticality.
    if trace.duration > 0:
        wc = windowed_criticality(analysis, nwindows=nwindows)
        import numpy as np

        order = np.argsort(wc.shares.sum(axis=0))[::-1][:5]
        parts.append("<h2>Criticality over time</h2>")
        parts.append(
            _table(
                ["Window"] + [wc.lock_names[i] for i in order] + ["Dominant"],
                [
                    [f"[{wc.window_edges[w]:.4g}, {wc.window_edges[w + 1]:.4g})"]
                    + [format_percent(wc.shares[w, i]) for i in order]
                    + [wc.dominant_lock(w) or "-"]
                    for w in range(wc.nwindows)
                ],
            )
        )

    # What-if for the top critical locks (both counterfactual modes).
    whatif_rows = []
    for m in report.critical_locks[:3]:
        r = analysis.what_if(m.obj, factor=0.5)
        whatif_rows.append(
            [m.name, "halve critical sections", f"{r.predicted_speedup:.3f}",
             format_percent(r.predicted_gain)]
        )
        r2 = analysis.what_if_no_contention(m.obj)
        whatif_rows.append(
            [m.name, "eliminate contention (ACS/TM)",
             f"{r2.predicted_speedup:.3f}", format_percent(r2.predicted_gain)]
        )
    if whatif_rows:
        parts.append("<h2>What-if predictions</h2>")
        parts.append(
            _table(["Lock", "Change", "Predicted speedup", "Gain"], whatif_rows)
        )

    # Per-thread attribution of the single most critical lock.
    if report.critical_locks:
        from repro.core.attribution import attribute_lock

        top = report.critical_locks[0]
        att = attribute_lock(analysis, top.obj)
        parts.append(f"<h2>Who holds {escape(top.name)} on the path</h2>")
        parts.append(
            _table(
                ["Thread", "Invocations", "On CP", "Cont. on CP", "CP Time %"],
                [
                    [
                        s.thread_name,
                        s.invocations,
                        s.invocations_on_cp,
                        format_percent(s.cont_prob_on_cp),
                        format_percent(
                            s.cp_hold_time / att.cp_length if att.cp_length else 0
                        ),
                    ]
                    for s in att.shares[:8]
                ],
            )
        )

    # Scalability forecast.  Only the documented "no forecast possible"
    # condition is skippable (AnalysisError on zero total execution
    # work); a genuine forecast bug must propagate, not vanish from the
    # report.
    try:
        fc = forecast(analysis)
        parts.append("<h2>Scalability forecast</h2>")
        rows = []
        for lf in fc.locks[:5]:
            n_star = lf.saturation_threads(fc.total_work)
            rows.append(
                [
                    lf.name,
                    lf.invocations,
                    f"{lf.serial_demand:.4g}",
                    "never" if n_star == float("inf") else f"{n_star:.1f}",
                ]
            )
        parts.append(
            _table(["Lock", "Invocations", "Serial demand", "Saturates at N"], rows)
        )
        parts.append(
            "<p class='note'>roofline model: completion ≥ max(work/N, "
            "largest serial lock demand); see docs/extensions.md</p>"
        )
    except AnalysisError:  # zero-work traces have no forecast
        pass

    parts.append("</body></html>")
    return "".join(parts)


def write_html_report(
    trace: Trace,
    path: str | Path,
    analysis: AnalysisResult | None = None,
    nwindows: int = 8,
    title: str | None = None,
) -> Path:
    """Write the HTML report to ``path``."""
    path = Path(path)
    path.write_text(
        render_html_report(trace, analysis, nwindows, title), encoding="utf-8"
    )
    return path
