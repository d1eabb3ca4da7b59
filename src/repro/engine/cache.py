"""Content-addressed circuit cache: in-memory LRU plus optional disk.

The cache maps the :func:`~repro.engine.jobs.content_key` of a
(target state, synthesis options) pair to the synthesised circuit and
its report, so repeated requests skip decision-diagram construction
and synthesis entirely.

Layers:

* an in-memory LRU bounded by ``capacity`` entries (evictions are
  counted, least recently used goes first),
* an optional on-disk layer under ``disk_dir`` holding one JSON file
  per key (QDASM circuit text + report fields), which survives process
  restarts and is shared between engines pointed at the same directory.

A disk hit is promoted into memory.  All traffic is counted in
:class:`CacheStats`, which the engine folds into its own statistics.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.circuit import qasm
from repro.circuit.circuit import Circuit
from repro.core.report import SynthesisReport
from repro.exceptions import EngineError

__all__ = ["CacheEntry", "CacheStats", "CircuitCache"]


@dataclass
class CacheStats:
    """Counters of cache traffic.

    The invariant ``hits + misses == lookups`` holds by construction:
    ``lookups`` is the derived sum, not an independent counter, so no
    interleaving of concurrent updates and snapshot reads can tear it.
    Only counted lookups (:meth:`CircuitCache.get` /
    :meth:`CircuitCache.get_if_present` /
    :meth:`CircuitCache.get_in_memory`) touch the counters;
    :meth:`CircuitCache.peek` and ``in`` touch none.

    Attributes:
        hits: Lookups served (memory or disk).
        misses: Lookups that found nothing.
        stores: Entries written.
        evictions: In-memory entries dropped by the LRU bound.
        disk_hits: Subset of ``hits`` served from the disk layer.
        disk_write_errors: Disk stores that failed (the entry stays
            available in memory; the batch is never aborted).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_write_errors: int = 0

    @property
    def lookups(self) -> int:
        """Counted lookups: always exactly ``hits + misses``."""
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        payload = {"lookups": self.lookups}
        payload.update(dataclasses.asdict(self))
        return payload

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Field-wise sum of two counter snapshots."""
        return CacheStats(**{
            spec.name: getattr(self, spec.name) + getattr(other, spec.name)
            for spec in dataclasses.fields(self)
        })


@dataclass(frozen=True)
class CacheEntry:
    """One cached synthesis result."""

    key: str
    circuit: Circuit
    report: SynthesisReport


def _entry_to_json(entry: CacheEntry) -> str:
    """The entry's file: ``json.dumps({"key": ..., "qdasm": ...,
    "report": ...})``, with the circuit's JSON string literal spliced
    in, so its QDASM is written once and never escaped.

    The literal is kept on the circuit
    (:func:`repro.circuit.qasm.literal_once`), so a response that
    sends the stored circuit reuses it instead of writing it again; a
    disk-backed cache thus keeps the literals of the circuits it
    stores in memory, as every cache does for the hits it serves."""
    report = dataclasses.asdict(entry.report)
    report["dims"] = list(report["dims"])
    return (
        '{"key": ' + json.dumps(entry.key)
        + ', "qdasm": ' + qasm.literal_once(entry.circuit).json.decode()
        + ', "report": ' + json.dumps(report) + "}"
    )


def _entry_from_json(text: str) -> CacheEntry:
    payload = json.loads(text)
    report_fields = dict(payload["report"])
    report_fields["dims"] = tuple(report_fields["dims"])
    return CacheEntry(
        key=payload["key"],
        circuit=qasm.loads(payload["qdasm"]),
        report=SynthesisReport(**report_fields),
    )


class CircuitCache:
    """LRU circuit cache with an optional persistent disk layer.

    Thread-safe: all operations (and their stats updates) run under
    the cache's own :attr:`lock`, so concurrent batches may share a
    cache — and a :meth:`~repro.cluster.ShardPlacement.local` placement
    gets per-shard locking for free, each shard being its own
    ``CircuitCache``.

    Args:
        capacity: Maximum number of in-memory entries; 0 disables the
            memory layer (every lookup falls through to disk, if any).
        disk_dir: Directory for the persistent layer; created on
            demand.  ``None`` keeps the cache purely in memory.

    Raises:
        EngineError: If ``capacity`` is negative.
    """

    def __init__(
        self,
        capacity: int = 256,
        disk_dir: str | os.PathLike | None = None,
    ):
        if capacity < 0:
            raise EngineError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self._capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        # Every cache owns its lock, so under a ShardPlacement each
        # *shard* is independently locked: concurrent batches touching
        # disjoint shards never contend, batches sharing a shard
        # serialise only on that shard's operations.
        self.lock = threading.RLock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def disk_dir(self) -> Path | None:
        return self._disk_dir

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``get(key)`` would succeed, without counting.

        Delegates to :meth:`peek`, so a torn or corrupt disk file —
        which ``get`` treats as a miss — is *not* reported as present.
        Consistency costs a full parse for disk-resident entries:
        don't probe membership before a lookup on serving paths — call
        :meth:`get` / :meth:`get_if_present` directly.
        """
        return self.peek(key) is not None

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def peek(self, key: str) -> CacheEntry | None:
        """Uncounted lookup: no stats, no LRU reorder, no promotion.

        Returns exactly what :meth:`get` would return (a disk entry is
        parse-checked, so corruption degrades to ``None`` here too),
        making it safe for membership tests that must not skew the
        hit-rate counters.
        """
        with self.lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry
            return self._read_disk(key)

    def get(self, key: str) -> CacheEntry | None:
        """Return the cached entry for ``key``, counting the lookup."""
        with self.lock:
            entry = self.get_if_present(key)
            if entry is None:
                self.stats.misses += 1
            return entry

    def get_if_present(self, key: str) -> CacheEntry | None:
        """Like :meth:`get`, but an absent key is *not* counted.

        A present entry is a fully counted hit (LRU refresh, disk
        promotion included); an absent one records nothing.  For
        serving paths that fall back to another source — e.g. the
        engine serving an intra-batch duplicate from its primary
        outcome — where a counted miss would misstate the hit rate.
        """
        with self.lock:
            entry = self._memory_hit(key)
            if entry is not None:
                return entry
            entry = self._read_disk(key)
            if entry is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert_memory(entry)
                return entry
            return None

    def get_in_memory(self, key: str) -> CacheEntry | None:
        """:meth:`get_if_present` of the memory layer, without waiting.

        Never reads disk and never blocks: when another thread holds
        :attr:`lock`, this returns ``None`` at once.  A hit is counted
        as in :meth:`get_if_present`; ``None`` counts nothing, so the
        caller can still make its one counted lookup elsewhere.
        """
        if not self.lock.acquire(blocking=False):
            return None
        try:
            return self._memory_hit(key)
        finally:
            self.lock.release()

    def put(self, entry: CacheEntry) -> None:
        """Store an entry in every configured layer.

        The disk file's text is made before the lock is taken, so
        writing a large circuit's QDASM never holds up lookups on this
        cache; the memory insert, the counters and the file write run
        under the lock.

        Raises:
            SerializationError: If the entry's circuit has no QDASM
                form and the cache has a disk layer; nothing is stored.
        """
        text = None if self._disk_dir is None else _entry_to_json(entry)
        with self.lock:
            self.stats.stores += 1
            self._insert_memory(entry)
            self._write_disk(entry.key, text)

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is untouched)."""
        with self.lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Memory layer
    # ------------------------------------------------------------------
    def _memory_hit(self, key: str) -> CacheEntry | None:
        """The memory layer's entry for ``key``, refreshed and counted
        as a hit; ``None`` counts nothing.  Caller holds the lock."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return entry

    def _insert_memory(self, entry: CacheEntry) -> None:
        if self._capacity == 0:
            return
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self._disk_dir is None:
            return None
        path = self._disk_dir / f"{key}.json"
        return path if path.is_file() else None

    def _read_disk(self, key: str) -> CacheEntry | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            entry = _entry_from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError):
            # A torn or stale file is treated as a miss; the entry
            # will be recomputed and rewritten.
            return None
        # A file stored under another key (copied or renamed by hand)
        # holds some other job's circuit: a miss, like a torn file.
        return entry if entry.key == key else None

    def _write_disk(self, key: str, text: str | None) -> None:
        """Write ``text``, an entry's file, under ``key`` (``None``
        without a disk layer).  Caller holds the lock."""
        if text is None:
            return
        try:
            self._disk_dir.mkdir(parents=True, exist_ok=True)
            final = self._disk_dir / f"{key}.json"
            temporary = final.with_name(f"{key}.{os.getpid()}.tmp")
            temporary.write_text(text)
            os.replace(temporary, final)
        except OSError:
            # A full disk or unwritable directory must not abort the
            # batch; the result is still served from memory.
            self.stats.disk_write_errors += 1
