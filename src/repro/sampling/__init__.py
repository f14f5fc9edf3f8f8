"""Sampling capture and its statistical cross-validation.

The capture side (:mod:`repro.sampling.sampler`) keeps a configurable
fraction of lock invocations — whole ACQUIRE/OBTAIN/RELEASE units, with
the blocking chain always intact — and stamps the trace with a sampling
metadata header.  The analysis side lives in :mod:`repro.core.estimate`
(inverse-probability weighting + bootstrap confidence intervals); the
harness in :mod:`repro.sampling.crossval` proves the pair honest against
the exact engine, and powers the ``sample-coverage`` oracle invariant
and the golden cross-validation tests.  See ``docs/sampling.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sampling.crossval import (
        CrossValidation,
        LockCoverage,
        RateValidation,
        cross_validate,
    )
    from repro.sampling.sampler import (
        SAMPLING_STRATEGY,
        EventSampler,
        downsample_trace,
        sampling_meta,
        trace_sample_rate,
        unit_hash,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sampling.crossval": (
        "CrossValidation", "LockCoverage", "RateValidation", "cross_validate",
    ),
    "repro.sampling.sampler": (
        "SAMPLING_STRATEGY", "EventSampler", "downsample_trace",
        "sampling_meta", "trace_sample_rate", "unit_hash",
    ),
})
