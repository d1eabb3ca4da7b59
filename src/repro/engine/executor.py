"""Execution backends: serial and process-pool parallel.

Both backends expose one method, ``run(worker, items)``, which applies
a picklable ``worker`` to every item and returns the results **in item
order**.  The engine's worker captures per-job exceptions itself and
returns :class:`~repro.engine.results.JobFailure` values, so a backend
only has to deliver results; it never needs per-item error handling.

:class:`ParallelExecutor` dispatches in chunks to amortise
inter-process pickling overhead.  Results are deterministic: the same
batch produces the same result list regardless of backend or worker
count (timing fields aside).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, process
from typing import TypeVar

from repro.exceptions import EngineError

__all__ = [
    "ExecutionBackend",
    "ParallelExecutor",
    "SerialExecutor",
    "as_executor",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class ExecutionBackend:
    """Interface of an execution backend."""

    name = "abstract"

    def run(
        self,
        worker: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
    ) -> list[ResultT]:
        raise NotImplementedError


class SerialExecutor(ExecutionBackend):
    """Run every item in the calling process, one after another."""

    name = "serial"

    def run(self, worker, items):
        return [worker(item) for item in items]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(ExecutionBackend):
    """Run items on a ``ProcessPoolExecutor`` in chunked dispatch.

    Every :meth:`run` starts its own pool and joins it before it
    returns, so each call forks ``min(max_workers, len(items))``
    processes: a server started with ``--workers N`` forks that many
    for every shard batch it compiles.  In ``perfbench``
    ``serve-mixed`` a one-worker pool made per batch took
    ``cold_p50_ms`` from 19.5–23.9 ms to 40.1–46.3 ms (a persistent
    one-worker pool was flat).

    Args:
        max_workers: Worker process count; defaults to the CPU count
            capped at 8 (synthesis jobs are CPU-bound, more workers
            than cores only add overhead).
        chunk_size: Items pickled per dispatch; defaults to spreading
            the batch roughly four chunks per worker so stragglers
            rebalance.

    Raises:
        EngineError: If ``max_workers`` or ``chunk_size`` is < 1.
    """

    name = "parallel"

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ):
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise EngineError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.max_workers = max_workers
        self.chunk_size = chunk_size

    def _resolve_chunk_size(
        self, num_items: int, num_workers: int | None = None
    ) -> int:
        """Chunk size for ``num_items`` spread over ``num_workers``.

        ``run`` clamps the pool to ``min(max_workers, len(items))``
        and passes that *actual* worker count here; the default target
        of roughly four chunks per worker is computed against it, not
        against the configured ``max_workers``, so a pool that is
        effectively smaller than configured gets proportionally larger
        chunks.  ``None`` falls back to the same clamp.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if num_workers is None:
            num_workers = min(self.max_workers, max(num_items, 1))
        return max(1, math.ceil(num_items / (num_workers * 4)))

    def run(self, worker, items):
        items = list(items)
        if not items:
            return []
        workers = min(self.max_workers, len(items))
        chunk_size = self._resolve_chunk_size(len(items), workers)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # ``map`` preserves item order, giving deterministic
                # result ordering independent of completion order.
                return list(
                    pool.map(worker, items, chunksize=chunk_size)
                )
        except process.BrokenProcessPool as error:
            raise EngineError(
                "worker pool died mid-batch (a worker was killed or "
                f"crashed hard): {error}"
            ) from error

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(max_workers={self.max_workers}, "
            f"chunk_size={self.chunk_size})"
        )


def as_executor(
    executor: ExecutionBackend | str | None,
) -> ExecutionBackend:
    """Coerce a backend, backend name, or ``None`` to a backend.

    ``None`` and ``"serial"`` give :class:`SerialExecutor`;
    ``"parallel"`` gives a default :class:`ParallelExecutor`.

    Raises:
        EngineError: For an unknown backend name or type.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, ExecutionBackend):
        return executor
    if executor == "serial":
        return SerialExecutor()
    if executor == "parallel":
        return ParallelExecutor()
    raise EngineError(
        f"unknown executor {executor!r}; expected 'serial', "
        "'parallel', or an ExecutionBackend instance"
    )
