"""Tests for `repro.cluster.placement` — the routing seam.

ShardPlacement is what the local service cache
(`ShardPlacement.local`) and the cluster front end both stand on, so
these tests pin its contract: strategy selection, failover preference
chains, the fully-local CircuitCache surface, and `over_cache`.
"""

import pytest

from repro.cluster import (
    LocalShard,
    RemoteShard,
    ShardPlacement,
    modulo_index,
)
from repro.engine import PreparationEngine, PreparationJob
from repro.engine.cache import CacheEntry, CircuitCache
from repro.exceptions import ClusterConfigError, ClusterError


@pytest.fixture(scope="module")
def entry_factory():
    outcome = PreparationEngine().submit(
        PreparationJob(dims=(2, 2), family="ghz")
    )

    def build(key: str = "k") -> CacheEntry:
        return CacheEntry(
            key=key, circuit=outcome.circuit, report=outcome.report
        )

    return build


def local_fleet(count: int) -> list[LocalShard]:
    return [
        LocalShard(f"shard-{index:02d}", CircuitCache(capacity=8))
        for index in range(count)
    ]


def remote_fleet(count: int) -> list[RemoteShard]:
    # Never connected in these tests — construction is lazy.
    return [
        RemoteShard(f"shard-{index:02d}", "127.0.0.1", 9100 + index)
        for index in range(count)
    ]


class TestConstruction:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ClusterConfigError):
            ShardPlacement([])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ClusterConfigError):
            ShardPlacement(local_fleet(2), strategy="rendezvous")

    def test_rejects_bad_replicas(self):
        with pytest.raises(ClusterConfigError):
            ShardPlacement(local_fleet(2), replicas=0)

    def test_rejects_duplicate_ids(self):
        cache = CircuitCache(capacity=4)
        with pytest.raises(ClusterConfigError):
            ShardPlacement(
                [LocalShard("dup", cache), LocalShard("dup", cache)]
            )

    def test_rejects_mixed_local_and_remote(self):
        backends = [
            LocalShard("a", CircuitCache(capacity=4)),
            RemoteShard("b", "127.0.0.1", 9100),
        ]
        with pytest.raises(ClusterConfigError, match="mix"):
            ShardPlacement(backends)

    def test_replicas_capped_at_fleet_size(self):
        placement = ShardPlacement(
            local_fleet(2), strategy="ring", replicas=5
        )
        assert placement.replicas == 2

    def test_repr_names_kind(self):
        assert "local" in repr(ShardPlacement(local_fleet(2)))
        assert "remote" in repr(
            ShardPlacement(remote_fleet(2), strategy="ring")
        )


class TestRouting:
    def test_modulo_matches_historical_rule(self):
        placement = ShardPlacement(local_fleet(4))
        for index in range(100):
            key = f"key-{index}"
            assert placement.shard_index(key) == modulo_index(key, 4)

    def test_ring_routes_by_node_id_not_position(self):
        # Ring placement depends on shard *ids*: the same ids in a
        # different backend order still route each key to the shard
        # with the same id.
        first = ShardPlacement(local_fleet(4), strategy="ring")
        reordered = ShardPlacement(
            list(reversed(local_fleet(4))), strategy="ring"
        )
        for index in range(100):
            key = f"key-{index}"
            shard = first.backends[first.shard_index(key)]
            other = reordered.backends[reordered.shard_index(key)]
            assert shard.shard_id == other.shard_id

    def test_backend_for_agrees_with_shard_index(self):
        placement = ShardPlacement(local_fleet(3), strategy="ring")
        for index in range(50):
            key = f"key-{index}"
            assert (
                placement.backend_for(key)
                is placement.backends[placement.shard_index(key)]
            )

    def test_index_of(self):
        placement = ShardPlacement(local_fleet(3))
        assert placement.index_of("shard-01") == 1
        with pytest.raises(ClusterConfigError):
            placement.index_of("shard-99")


class TestPreference:
    def test_modulo_chain_walks_neighbours(self):
        placement = ShardPlacement(local_fleet(4), replicas=3)
        for index in range(50):
            key = f"key-{index}"
            owner = placement.shard_index(key)
            assert placement.preference(key) == (
                owner,
                (owner + 1) % 4,
                (owner + 2) % 4,
            )

    def test_ring_chain_distinct_and_owner_first(self):
        placement = ShardPlacement(
            local_fleet(5), strategy="ring", replicas=3
        )
        for index in range(50):
            key = f"key-{index}"
            chain = placement.preference(key)
            assert len(chain) == 3
            assert len(set(chain)) == 3
            assert chain[0] == placement.shard_index(key)

    def test_single_replica_is_owner_only(self):
        placement = ShardPlacement(local_fleet(4), strategy="ring")
        for index in range(20):
            key = f"key-{index}"
            assert placement.preference(key) == (
                placement.shard_index(key),
            )


class TestCacheSurface:
    def test_put_get_routes_to_owner(self, entry_factory):
        placement = ShardPlacement(local_fleet(4))
        keys = [f"key-{index}" for index in range(16)]
        for key in keys:
            placement.put(entry_factory(key))
        assert len(placement) == 16
        for key in keys:
            assert key in placement
            entry = placement.get(key)
            assert entry is not None and entry.key == key
            owner = placement.shard_for(key)
            assert owner.peek(key) is not None

    def test_stats_aggregates_all_shards(self, entry_factory):
        placement = ShardPlacement(local_fleet(4))
        for index in range(12):
            placement.put(entry_factory(f"key-{index}"))
            placement.get(f"key-{index}")
        placement.get("never-stored")
        total = placement.stats
        assert total.stores == 12
        assert total.hits == 12
        assert total.misses == 1
        per_shard = placement.shard_stats()
        assert len(per_shard) == 4
        assert sum(stats.stores for stats in per_shard) == 12

    def test_clear_empties_every_shard(self, entry_factory):
        placement = ShardPlacement(local_fleet(3))
        for index in range(9):
            placement.put(entry_factory(f"key-{index}"))
        placement.clear()
        assert len(placement) == 0

    def test_remote_placement_refuses_cache_surface(self):
        placement = ShardPlacement(remote_fleet(2), strategy="ring")
        with pytest.raises(ClusterError):
            placement.stats
        with pytest.raises(ClusterError):
            placement.get("key")
        with pytest.raises(ClusterError):
            len(placement)


class TestOverCache:
    def test_placement_is_its_own_answer(self):
        placement = ShardPlacement(local_fleet(2))
        assert ShardPlacement.over_cache(placement) is placement
        sharded = ShardPlacement.local(num_shards=3, capacity=9)
        assert ShardPlacement.over_cache(sharded) is sharded

    def test_plain_cache_becomes_single_shard(self):
        cache = CircuitCache(capacity=4)
        placement = ShardPlacement.over_cache(cache)
        assert placement.num_shards == 1
        assert placement.is_local
        assert placement.backends[0].cache is cache
        assert placement.shard_index("anything") == 0


class TestLocalPlacement:
    def test_local_shards_and_backends(self):
        sharded = ShardPlacement.local(num_shards=4, capacity=16)
        assert isinstance(sharded, ShardPlacement)
        assert sharded.num_shards == 4
        assert sharded.is_local
        assert sharded.strategy == "modulo"
        assert sharded.replicas == 1
        assert all(
            isinstance(backend, LocalShard)
            and isinstance(backend.cache, CircuitCache)
            for backend in sharded.backends
        )
        assert [backend.shard_id for backend in sharded.backends] == [
            "shard-00", "shard-01", "shard-02", "shard-03",
        ]

    def test_describe_rows(self):
        sharded = ShardPlacement.local(num_shards=2, capacity=8)
        rows = sharded.describe()
        assert [row["id"] for row in rows] == ["shard-00", "shard-01"]
        assert all(row["healthy"] for row in rows)
        assert all(row["addr"] is None for row in rows)
        assert all(row["inflight"] == 0 for row in rows)
