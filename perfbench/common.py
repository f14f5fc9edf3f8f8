"""Shared helpers: repository paths, summary statistics and process probes.

Everything here is standard library only, so the harness can decide that
the program under test is missing (and fail) before importing it.
"""

from __future__ import annotations

import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Scratch space for generated inputs, data dirs and span files.
WORK_ROOT = ROOT / ".perfbench_work"

#: Tail metrics need at least this many samples beyond the reported rank.
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def require_program() -> None:
    """Fail fast when the program under test is absent from the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.setdefault("PYTHONHASHSEED", "0")
    return env


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, int, int] | None:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)`` using the nearest-rank
    definition (the p-th percentile is the smallest sample with at least
    p% of the samples at or below it), or ``None`` when there are too few
    samples for any percentile to leave ``beyond`` samples past it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    pct = math.floor(100 * (n - beyond) / n)
    if pct <= 0:
        return None
    rank = max(1, math.ceil(pct * n / 100))  # 1-based nearest rank
    return float(xs[rank - 1]), pct, n


# -- processes ----------------------------------------------------------------


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the host took from this machine between two samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def peak_rss_kb(pid: int) -> int:
    """Peak resident set size (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


def spawned_children(pid: int) -> list[int]:
    """Live ``multiprocessing`` spawn children of ``pid`` (pool workers).

    Helper processes such as the resource tracker are not workers and are
    left out: their command line does not run ``spawn_main``.
    """
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if b"spawn_main" in cmdline:
            out.append(int(entry))
    return sorted(out)


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> int:
    """Interrupt a child (clean shutdown path), then kill if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    return proc.returncode


def wait_until(predicate, timeout: float, interval: float = 0.005, what: str = "condition"):
    """Poll ``predicate`` until it returns a truthy value; return that value."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise BenchError(f"timed out after {timeout:.0f}s waiting for {what}")
        time.sleep(interval)
