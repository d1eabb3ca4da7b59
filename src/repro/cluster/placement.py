"""Shard placement: which backend owns which content key.

:class:`ShardPlacement` is the routing seam the whole serving stack
stands on.  It holds an ordered fleet of
:class:`~repro.cluster.ShardBackend` instances and answers three
questions:

* ``shard_index(key)`` — which shard owns this content key,
* ``preference(key)`` — the failover chain: owner first, then the
  replicas that take over when the owner is down.
  :class:`~repro.service.AsyncPreparationService` queues each miss
  for its key's owner, whose one worker sends the shard's batches
  (a cluster front end along the chain of each batch's first job),
* the ``CircuitCache`` surface (``get`` / ``put`` / ``stats`` …) —
  valid only for fully *local* placements, which is what lets a
  placement drop straight into ``PreparationEngine(cache=...)``.
  :meth:`ShardPlacement.local` builds exactly such a placement.

Two strategies:

* ``"modulo"`` — sha256(key) mod N, the rule of
  :meth:`ShardPlacement.local`.  Dense and perfectly balanced, but
  adding a shard remaps almost every key; right for fixed-size
  in-process fleets.
* ``"ring"`` — consistent hashing (:class:`~repro.cluster.HashRing`).
  Adding a shard moves only the keys that land on it; right for
  clusters whose membership changes.

Mixed local/remote fleets are rejected: a local shard's cache is
consulted by the in-process engine while a remote shard executes
elsewhere, and one placement cannot honour both contracts for the
same key space.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from dataclasses import replace
from pathlib import Path

from ..engine.cache import CacheEntry, CacheStats, CircuitCache
from ..exceptions import ClusterConfigError, ClusterError, EngineError
from .backends import LocalShard, RemoteShard, ShardBackend
from .ring import DEFAULT_POINTS_PER_NODE, HashRing, modulo_index

__all__ = ["ShardPlacement"]

_STRATEGIES = ("modulo", "ring")


class ShardPlacement:
    """An ordered shard fleet plus the key-routing rule over it.

    Args:
        backends: The fleet, in index order.  Ids must be unique; all
            backends must be local or all remote.
        strategy: ``"modulo"`` or ``"ring"`` (see module docstring).
        replicas: Length of each key's failover chain (owner
            included).  1 disables failover — the historical local
            behavior.  Only meaningful with the ring strategy; modulo
            placements walk ``(index + 1) % N``.
        points_per_node: Ring smoothness (ignored for modulo).
    """

    def __init__(
        self,
        backends: Iterable[ShardBackend],
        *,
        strategy: str = "modulo",
        replicas: int = 1,
        points_per_node: int = DEFAULT_POINTS_PER_NODE,
    ):
        self.backends: tuple[ShardBackend, ...] = tuple(backends)
        if not self.backends:
            raise ClusterConfigError(
                "a placement needs at least one shard backend"
            )
        if strategy not in _STRATEGIES:
            raise ClusterConfigError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        if replicas < 1:
            raise ClusterConfigError(
                f"replicas must be >= 1, got {replicas}"
            )
        ids = [backend.shard_id for backend in self.backends]
        if len(set(ids)) != len(ids):
            raise ClusterConfigError(
                f"duplicate shard ids in placement: {ids}"
            )
        kinds = {backend.is_remote for backend in self.backends}
        if len(kinds) > 1:
            raise ClusterConfigError(
                "a placement cannot mix local and remote shards: the "
                "in-process engine would probe a cache no local shard "
                "owns; run either a fully local or a fully remote fleet"
            )
        self.strategy = strategy
        self.replicas = min(replicas, len(self.backends))
        self._index_by_id = {
            shard_id: index for index, shard_id in enumerate(ids)
        }
        self._ring: HashRing | None = None
        if strategy == "ring":
            self._ring = HashRing(ids, points_per_node=points_per_node)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def local(
        cls,
        num_shards: int = 4,
        capacity: int = 256,
        disk_dir: str | os.PathLike | None = None,
    ) -> "ShardPlacement":
        """``num_shards`` in-process cache shards on modulo routing.

        Args:
            num_shards: Shard count (>= 1).
            capacity: *Total* in-memory entry bound, split as evenly
                as possible across shards (earlier shards get the
                remainder).  A nonzero total gives every shard at
                least one entry — a zero-capacity shard would silently
                never cache the keys routed to it — so for
                ``capacity < num_shards`` the effective total is
                ``num_shards``.  0 disables the memory layer
                everywhere.
            disk_dir: Root of the persistent layer; shard ``shard-NN``
                owns the subdirectory ``disk_dir/shard-NN``.  ``None``
                keeps every shard purely in memory.

        Raises:
            EngineError: If ``num_shards`` < 1 or ``capacity`` < 0.
        """
        if num_shards < 1:
            raise EngineError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if capacity < 0:
            raise EngineError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        root = Path(disk_dir) if disk_dir is not None else None
        base, remainder = divmod(capacity, num_shards)
        shards = []
        for index in range(num_shards):
            shard_id = f"shard-{index:02d}"
            share = base + (1 if index < remainder else 0)
            shards.append(LocalShard(shard_id, CircuitCache(
                capacity=max(1, share) if capacity > 0 else 0,
                disk_dir=root / shard_id if root is not None else None,
            )))
        return cls(shards, strategy="modulo")

    @classmethod
    def over_cache(cls, cache) -> "ShardPlacement":
        """The placement implied by an engine's cache object.

        A placement (e.g. one built by :meth:`local`) is its own
        answer; any other cache becomes a single local shard.
        """
        if isinstance(cache, ShardPlacement):
            return cache
        return cls(
            [LocalShard("shard-00", cache)], strategy="modulo"
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.backends)

    @property
    def is_local(self) -> bool:
        """Whether every shard lives in this process."""
        return not self.backends[0].is_remote

    def backend(self, index: int) -> ShardBackend:
        return self.backends[index]

    def index_of(self, shard_id: str) -> int:
        try:
            return self._index_by_id[shard_id]
        except KeyError:
            raise ClusterConfigError(
                f"unknown shard id: {shard_id!r}"
            )

    def remote_backends(self) -> tuple[RemoteShard, ...]:
        return tuple(
            backend for backend in self.backends
            if isinstance(backend, RemoteShard)
        )

    def describe(self) -> list[dict]:
        """Health rows of every shard, in index order."""
        return [backend.describe() for backend in self.backends]

    async def aclose(self) -> None:
        for backend in self.backends:
            await backend.aclose()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_index(self, key: str) -> int:
        """Index of the shard that owns ``key``."""
        if self._ring is not None:
            return self._index_by_id[self._ring.node_for(key)]
        return modulo_index(key, len(self.backends))

    def backend_for(self, key: str) -> ShardBackend:
        return self.backends[self.shard_index(key)]

    def preference(self, key: str) -> Sequence[int]:
        """Failover chain of ``key``: owner first, then replicas."""
        if self._ring is not None:
            return tuple(
                self._index_by_id[shard_id]
                for shard_id in self._ring.preference(
                    key, self.replicas
                )
            )
        owner = modulo_index(key, len(self.backends))
        return tuple(
            (owner + step) % len(self.backends)
            for step in range(self.replicas)
        )

    # ------------------------------------------------------------------
    # CircuitCache surface (fully local placements only)
    # ------------------------------------------------------------------
    def _local_cache_for(self, key: str) -> CircuitCache:
        return self._local_caches()[self.shard_index(key)]

    def _local_caches(self) -> tuple[CircuitCache, ...]:
        if not self.is_local:
            raise ClusterError(
                "the cache surface is only valid on a fully local "
                "placement; remote shards execute on their own servers"
            )
        return tuple(
            backend.cache  # type: ignore[union-attr]
            for backend in self.backends
        )

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters: the field-wise sum over all shards."""
        total = CacheStats()
        for cache in self._local_caches():
            total = total.merged(cache.stats)
        return total

    def shard_stats(self) -> tuple[CacheStats, ...]:
        """Per-shard counter snapshots, in shard order."""
        return tuple(
            replace(cache.stats) for cache in self._local_caches()
        )

    def shard_for(self, key: str) -> CircuitCache:
        """The local cache shard that owns ``key``."""
        return self._local_cache_for(key)

    def get(self, key: str) -> CacheEntry | None:
        return self._local_cache_for(key).get(key)

    def peek(self, key: str) -> CacheEntry | None:
        return self._local_cache_for(key).peek(key)

    def get_if_present(self, key: str) -> CacheEntry | None:
        return self._local_cache_for(key).get_if_present(key)

    def get_in_memory(self, key: str) -> CacheEntry | None:
        return self._local_cache_for(key).get_in_memory(key)

    def put(self, entry: CacheEntry) -> None:
        self._local_cache_for(entry.key).put(entry)

    def clear(self) -> None:
        for cache in self._local_caches():
            cache.clear()

    def __len__(self) -> int:
        return sum(len(cache) for cache in self._local_caches())

    def __contains__(self, key: str) -> bool:
        return key in self._local_cache_for(key)

    def __repr__(self) -> str:
        kind = "local" if self.is_local else "remote"
        return (
            f"{type(self).__name__}(num_shards={len(self.backends)}, "
            f"strategy={self.strategy!r}, kind={kind})"
        )
