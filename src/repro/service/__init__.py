"""Async, sharded serving layer over the preparation engine.

Built on the :mod:`repro.engine` seam (see ``docs/engine.md``,
"Serving"):

* :mod:`repro.service.batching` — :class:`MicroBatchQueue`, coalescing
  concurrent cache misses into bounded micro-batches,
* :mod:`repro.service.service` — :class:`AsyncPreparationService`,
  the asyncio front end that keys each request once, answers cache
  hits at once and queues each miss for the shard that owns its key;
  one worker per shard sends each micro-batch of its queue to
  ``PreparationEngine.run_batch`` on an executor thread.  Its
  default cache is
  :meth:`repro.cluster.ShardPlacement.local`: content keys
  partitioned across N independent circuit-cache shards with
  aggregated statistics.

The HTTP front end over this layer lives in :mod:`repro.net` (see
``docs/serving.md``).

Outcomes served through this layer are equivalent to a direct serial
``run_batch`` of the same jobs (compare with
:func:`repro.engine.comparable_outcome`); the layer changes *when and
together with what* a job runs, never *what* it computes.
"""

from repro.service.batching import (
    BatchQueueStats,
    MicroBatchQueue,
    QueuedJob,
)
from repro.service.service import AsyncPreparationService, ServiceStats

__all__ = [
    "AsyncPreparationService",
    "BatchQueueStats",
    "MicroBatchQueue",
    "QueuedJob",
    "ServiceStats",
]
