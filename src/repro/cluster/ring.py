"""Consistent-hash ring for shard placement.

The ring maps content keys to shard ids so that adding or removing a
shard only remaps the keys that land on the new/removed shard's arc
(monotone remapping), while the existing shards keep their keys.  Each
shard contributes ``points_per_node`` virtual points derived from
``sha256(node_id + "\\x00" + index)`` so that placement is a pure
function of the topology — stable across process restarts and across
hosts.

Lookup is a binary search over the sorted point array, O(log(n *
points_per_node)) per key.  ``preference`` walks clockwise from the
key's point and yields *distinct* shard ids, which is the failover
chain used by :class:`repro.cluster.ShardPlacement`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Sequence

from ..exceptions import ClusterConfigError

__all__ = ["HashRing", "DEFAULT_POINTS_PER_NODE", "modulo_index"]

#: Virtual points each node contributes to the ring.  1024 keeps the
#: max/min load ratio comfortably under 1.3 for fleets of 4-64 shards
#: (the property-test bound); 256 was observed to brush right against
#: it on unlucky 4-node topologies.  Construction stays cheap: one
#: sha256 per point, paid once per topology change.
DEFAULT_POINTS_PER_NODE = 1024


def _hash64(data: bytes) -> int:
    """First 8 bytes of sha256 as an unsigned 64-bit ring position."""

    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def modulo_index(key: str, num_shards: int) -> int:
    """Stable modulo placement — the rule of ``ShardPlacement.local``.

    sha256 of the key, first 8 bytes, mod N: deterministic across
    processes and Python versions (unlike the salted built-in
    ``hash``), so existing local deployments and their on-disk shard
    directories stay valid.
    """

    return _hash64(key.encode()) % num_shards


class HashRing:
    """Consistent-hash ring over string node ids.

    Parameters
    ----------
    nodes:
        Initial node ids.  Order does not matter: placement depends
        only on the *set* of ids and ``points_per_node``.
    points_per_node:
        Virtual points per node; higher is smoother but slower to
        build.
    """

    __slots__ = ("_points", "_point_nodes", "_nodes", "points_per_node")

    def __init__(
        self,
        nodes: Iterable[str] = (),
        *,
        points_per_node: int = DEFAULT_POINTS_PER_NODE,
    ) -> None:
        if points_per_node < 1:
            raise ClusterConfigError(
                f"points_per_node must be >= 1, got {points_per_node}"
            )
        self.points_per_node = int(points_per_node)
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._point_nodes: list[str] = []
        for node in nodes:
            self.add(node)

    # -- topology ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def _node_points(self, node_id: str) -> list[int]:
        prefix = node_id.encode("utf-8") + b"\x00"
        return [
            _hash64(prefix + str(index).encode("ascii"))
            for index in range(self.points_per_node)
        ]

    def add(self, node_id: str) -> None:
        """Insert ``node_id``; raises if it is already on the ring."""

        if not node_id:
            raise ClusterConfigError("ring node id must be a non-empty string")
        if node_id in self._nodes:
            raise ClusterConfigError(f"duplicate ring node id: {node_id!r}")
        self._nodes.add(node_id)
        for point in self._node_points(node_id):
            index = bisect_right(self._points, point)
            # Ties between distinct nodes are astronomically unlikely
            # (64-bit positions) but must still be deterministic: break
            # them by node id so placement is order-independent.
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._point_nodes[index] < node_id
            ):
                index += 1
            self._points.insert(index, point)
            self._point_nodes.insert(index, node_id)

    def remove(self, node_id: str) -> None:
        """Drop ``node_id``; raises if it is not on the ring."""

        if node_id not in self._nodes:
            raise ClusterConfigError(f"unknown ring node id: {node_id!r}")
        self._nodes.discard(node_id)
        keep = [
            (point, node)
            for point, node in zip(self._points, self._point_nodes)
            if node != node_id
        ]
        self._points = [point for point, _ in keep]
        self._point_nodes = [node for _, node in keep]

    # -- placement -----------------------------------------------------

    def node_for(self, key: bytes | str) -> str:
        """Owning node of ``key`` (first point clockwise of its hash)."""

        if not self._points:
            raise ClusterConfigError("ring has no nodes")
        if isinstance(key, str):
            key = key.encode("utf-8")
        position = _hash64(key)
        index = bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._point_nodes[index]

    def preference(self, key: bytes | str, count: int | None = None) -> Sequence[str]:
        """Failover chain for ``key``: distinct nodes walking clockwise.

        The first entry is :meth:`node_for`'s answer; subsequent
        entries are the next *distinct* nodes around the ring.  At most
        ``count`` ids are returned (all nodes when ``count`` is None or
        exceeds the fleet size).
        """

        if not self._points:
            raise ClusterConfigError("ring has no nodes")
        if isinstance(key, str):
            key = key.encode("utf-8")
        limit = len(self._nodes) if count is None else min(count, len(self._nodes))
        if limit <= 0:
            return ()
        position = _hash64(key)
        start = bisect_right(self._points, position)
        chain: list[str] = []
        seen: set[str] = set()
        total = len(self._points)
        for step in range(total):
            node = self._point_nodes[(start + step) % total]
            if node not in seen:
                seen.add(node)
                chain.append(node)
                if len(chain) == limit:
                    break
        return tuple(chain)
