"""The trace corpus that output pins are computed over.

A pin holds the bytes some function writes for a trace to what an
earlier, independently written version produced, so a rewrite of the
function must leave them alone.  The corpus is the golden cases and the
``repro check`` fuzz programs, each with its seeded ``corrupt_trace``
variants: corruptions leave unmatched RELEASEs, doubled OBTAINs and
foreign object ids, where a rewrite most easily drifts.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

from repro.check import corrupt_trace, generate_spec, run_spec
from repro.trace.trace import Trace
from repro.workloads import get_workload

#: ``corrupt_trace`` seeds applied to each base trace.
CORRUPTIONS = range(8)

#: Fuzz program seeds in the corpus.
FUZZ_SEEDS = range(50)


def golden_trace(case: str) -> Trace:
    from tests.golden.test_golden_reports import CASES

    workload, params, nthreads, seed = CASES[case]
    return get_workload(workload)(**params).run(nthreads=nthreads, seed=seed).trace


def fuzz_trace(seed: int) -> Trace:
    return run_spec(generate_spec(seed)).trace


def with_corruptions(trace: Trace) -> Iterator[Trace]:
    """``trace`` itself, then each of its ``corrupt_trace`` variants."""
    yield trace
    for c in CORRUPTIONS:
        yield corrupt_trace(trace, c)


def digest(blobs: Iterable[bytes | str]) -> str:
    """Short sha256 over a sequence of outputs (length-prefixed, so
    moving bytes between neighbours changes it)."""
    h = hashlib.sha256()
    for blob in blobs:
        if isinstance(blob, str):
            blob = blob.encode()
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()[:16]
