"""Shared helpers: sample statistics, failure accounting, checks and
subprocess handling.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
check the checkout layout before the package is importable.
"""

from __future__ import annotations

import math
import os
import resource
import select
import signal
import statistics
import subprocess
import time
from collections import Counter

#: Fidelity an exact (``min_fidelity == 1``) job must reach.
EXACT_FIDELITY = 1.0 - 1e-10

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


#: Iterations of the reference loop :class:`HostSpeed` times.
REFERENCE_LOOPS = 60_000

#: The reference speed: a host on which one reference loop takes this
#: long.  Every time the benchmark reports is scaled to it.
REFERENCE_S = 0.010


def median(values) -> float:
    return float(statistics.median(values))


def _reference_loop() -> int:
    """Fixed pure-Python work that uses no code of the repository."""
    total = 0
    table = {}
    for index in range(REFERENCE_LOOPS):
        total += index * index % 7
        table[index & 1023] = total
    return total


class HostSpeed:
    """The host's speed over one run, from a fixed reference loop timed
    between jobs, outside every timed interval.

    The machine the benchmark was sized on (2 vCPUs) is a share of a
    busy host.  One loop takes about 8 ms or about 13 ms, as other work
    shares the core or not, and the share of slow loops moves from run
    to run; every wall time of a run moves with it.  The mean loop time
    follows that share, and so does a job's time: over six 30 s
    ``cold-dense`` runs, cold_p50_ms spread by 0.29 of its median, and
    by 0.07 once divided by the run's mean loop time (0.11 with the
    median loop time, which jumps between the two modes).  The job
    moves more than the loop (1.6 times as much, on a log scale, over
    another ten runs), so scaling narrows the spread without removing
    it.

    :attr:`scale` is ``REFERENCE_S`` over the mean loop time in the
    run.  A wall time times ``scale`` is that time on a host at the
    reference speed; a rate divided by ``scale`` likewise.  A change to
    the program moves the scaled figures as it moves the wall times,
    since the loop runs none of its code.
    """

    #: :meth:`maybe_sample` samples at most this often.
    EVERY_S = 0.25

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall time the loop took, to be left out of a timed phase.
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        """Time one loop, pinned to the next of the CPUs this process may
        run on, in turn: each vCPU shares its core with different work,
        and the program's processes run on all of them."""
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        os.sched_setaffinity(0, {cpus[len(self.samples) % len(cpus)]})
        try:
            begin = time.perf_counter()
            _reference_loop()
            self.samples.append(time.perf_counter() - begin)
        finally:
            os.sched_setaffinity(0, allowed)
        end = time.perf_counter()
        self.spent += end - start
        self._last = end

    def maybe_sample(self) -> None:
        """Sample when :attr:`EVERY_S` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)

    def as_dict(self) -> dict[str, object]:
        return {
            "scale": self.scale,
            "reference_s": REFERENCE_S,
            "loop_mean_s": statistics.fmean(self.samples),
            "loop_samples": len(self.samples),
        }


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` sorted samples this is the ``n - 10``-th smallest, the
    ``100 * (n - 10) / n`` percentile.  Samples of 10 or fewer have no
    such percentile; their maximum is returned as the 100th.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    rank = len(ordered) - TAIL_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / len(ordered)


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident memory in MiB of this process, or of ``pid``
    (read from ``/proc/<pid>/status`` while the process is alive)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Tally:
    """Attempted / failed job counts with the error code of each
    failure, plus the list of correctness-check violations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.codes: Counter[str] = Counter()
        self.violations: list[str] = []

    def fail(self, code: str) -> None:
        self.failed += 1
        self.codes[code] += 1

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    @property
    def correct(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "failure_codes": dict(self.codes),
            "violations": self.violations[:20],
        }


def check_fidelity(tally: Tally, label: str, fidelity, min_fidelity) -> None:
    """Exact jobs reach :data:`EXACT_FIDELITY`; approximated jobs reach
    their own ``min_fidelity``."""
    floor = EXACT_FIDELITY if min_fidelity >= 1.0 else min_fidelity
    tally.check(
        fidelity is not None and fidelity >= floor,
        f"{label}: fidelity {fidelity} below {floor}",
    )


def metric(value: float, unit: str) -> dict[str, object]:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def read_line(process, prefix: str, timeout: float) -> str:
    """Wait for ``process`` to print a stdout line starting with
    ``prefix``; the pipe must be unbuffered (``bufsize=0``)."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no {prefix!r} line within {timeout}s")
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if ready:
            line = process.stdout.readline().decode()
            if not line:
                raise RuntimeError(
                    f"process exited (code {process.wait()}) before "
                    f"printing {prefix!r}"
                )
            if line.startswith(prefix):
                return line


def stop(process, timeout: float = 30.0) -> None:
    """SIGTERM (the server drains), then SIGKILL; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
