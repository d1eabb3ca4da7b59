"""Distributed cluster serving: shard placement, backends, front end.

The package splits cleanly in two layers:

* **Placement** (always importable, no serving dependencies):
  :class:`HashRing`, :class:`ShardBackend` / :class:`LocalShard` /
  :class:`RemoteShard`, and :class:`ShardPlacement` — which shard
  owns which content key, and where that shard lives.
  :meth:`ShardPlacement.local` builds the fully local placement an
  in-process service caches in; a cluster is a fully remote one on a
  consistent-hash ring.
* **Serving** (loaded lazily — it imports :mod:`repro.service`, which
  itself builds on the placement layer):
  :class:`ClusterPreparationService` (the routing front end),
  :class:`ClusterConfig` (``cluster.json``), and
  :class:`ShardSupervisor` (spawns and monitors shard-server
  subprocesses).

See ``docs/serving.md`` ("Cluster mode") for topology, failover
semantics, and a runnable walkthrough.
"""

from repro.cluster.backends import (
    FAILOVER_CODES,
    LocalShard,
    RemoteShard,
    ShardBackend,
)
from repro.cluster.placement import ShardPlacement
from repro.cluster.ring import (
    DEFAULT_POINTS_PER_NODE,
    HashRing,
    modulo_index,
)

__all__ = [
    "ClusterConfig",
    "ClusterPreparationService",
    "DEFAULT_POINTS_PER_NODE",
    "FAILOVER_CODES",
    "HashRing",
    "LocalShard",
    "RemoteShard",
    "ShardAddress",
    "ShardBackend",
    "ShardPlacement",
    "ShardSupervisor",
    "modulo_index",
]

#: Lazily resolved exports (PEP 562): these modules import
#: :mod:`repro.service`, which imports this package's placement layer
#: — eager imports here would make that a cycle.
_LAZY = {
    "ClusterConfig": "repro.cluster.config",
    "ShardAddress": "repro.cluster.config",
    "ClusterPreparationService": "repro.cluster.service",
    "ShardSupervisor": "repro.cluster.supervisor",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
