"""Lock-order analysis: nesting graph and potential-deadlock detection.

A natural companion to critical lock analysis: the same traces that feed
the critical-path walk also record every *nested* acquisition (a thread
obtaining lock B while holding lock A).  The lock-order graph has an
edge A -> B for each such pair; a cycle means two executions could
acquire the locks in opposite orders — a potential deadlock, even if
this particular run got lucky (classic lockdep reasoning).

The analysis is trace-based and therefore sound only for orders actually
exercised; it cannot prove absence of deadlock.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.tables import format_table
from repro.trace.events import EventType
from repro.trace.trace import Trace

__all__ = ["LockOrderGraph", "build_lock_order"]

_OBTAIN = int(EventType.OBTAIN)
_RELEASE = int(EventType.RELEASE)


@dataclass(frozen=True)
class _Edge:
    """One observed nesting: ``inner`` obtained while ``outer`` held."""

    outer: int
    inner: int
    count: int
    example_tid: int


@dataclass
class LockOrderGraph:
    """Observed lock-nesting graph of one trace."""

    trace: Trace
    edges: dict[tuple[int, int], _Edge] = field(default_factory=dict)
    max_depth: int = 0

    @property
    def nesting_pairs(self) -> list[tuple[str, str, int]]:
        """(outer, inner, count) by display name, most frequent first."""
        return sorted(
            (
                (
                    self.trace.object_name(e.outer),
                    self.trace.object_name(e.inner),
                    e.count,
                )
                for e in self.edges.values()
            ),
            key=lambda t: -t[2],
        )

    def cycles(self) -> list[list[str]]:
        """Strongly-connected components with >1 lock (or a self-loop).

        Each returned cycle is a list of lock display names whose members
        were acquired in conflicting orders somewhere in the trace.
        """
        adj: dict[int, set[int]] = defaultdict(set)
        nodes: set[int] = set()
        for outer, inner in self.edges:
            adj[outer].add(inner)
            nodes.update((outer, inner))
        sccs = _tarjan_sccs(nodes, adj)
        out = []
        for scc in sccs:
            if len(scc) > 1 or (len(scc) == 1 and scc[0] in adj[scc[0]]):
                out.append(sorted(self.trace.object_name(o) for o in scc))
        return out

    @property
    def has_potential_deadlock(self) -> bool:
        return bool(self.cycles())

    def render(self, n: int = 15) -> str:
        rows = [
            [outer, inner, count] for outer, inner, count in self.nesting_pairs[:n]
        ]
        table = format_table(
            ["Outer lock", "Inner lock", "Times nested"],
            rows,
            title=f"Lock-order graph (max nesting depth {self.max_depth})",
        )
        cycles = self.cycles()
        if cycles:
            warnings = "\n".join(
                f"POTENTIAL DEADLOCK: conflicting order among {{{', '.join(c)}}}"
                for c in cycles
            )
            return table + "\n" + warnings
        return table + "\nno lock-order cycles observed"


def build_lock_order(trace: Trace) -> LockOrderGraph:
    """Scan a trace for nested acquisitions and build the order graph."""
    graph = LockOrderGraph(trace=trace)
    held: dict[int, list[int]] = defaultdict(list)  # tid -> stack of held objs
    counts: dict[tuple[int, int], int] = defaultdict(int)
    examples: dict[tuple[int, int], int] = {}
    records = trace.records
    rows = records[
        np.isin(records["etype"], (_OBTAIN, _RELEASE))
        & np.isin(records["obj"], [info.obj for info in trace.locks])
    ]

    # Trace order: each edge's example thread is the first one seen.
    for tid, etype, obj in zip(
        rows["tid"].tolist(), rows["etype"].tolist(), rows["obj"].tolist()
    ):
        stack = held[tid]
        if etype == _OBTAIN:
            for outer in stack:
                key = (outer, obj)
                counts[key] += 1
                examples.setdefault(key, tid)
            stack.append(obj)
            graph.max_depth = max(graph.max_depth, len(stack))
        elif obj in stack:
            stack.remove(obj)  # releases may be out of LIFO order

    graph.edges = {
        key: _Edge(outer=key[0], inner=key[1], count=c, example_tid=examples[key])
        for key, c in counts.items()
    }
    return graph


def _tarjan_sccs(nodes: set[int], adj: dict[int, set[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly-connected components."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    sccs: list[list[int]] = []

    for root in sorted(nodes):
        if root in index:
            continue
        work: list[tuple[int, list[int]]] = [(root, sorted(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            while children:
                child = children.pop(0)
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(adj[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
