"""Shard backends: where a placement's shards actually live.

A :class:`ShardBackend` is one cache shard's home.  Two
implementations cover the whole local-to-distributed spectrum:

* :class:`LocalShard` — an in-process
  :class:`~repro.engine.cache.CircuitCache`, one member of
  ``ShardPlacement.local``.  Local shards never run jobs
  themselves; the engine executes against their cache and the shard
  exists so routing, stats, and health speak one vocabulary.
* :class:`RemoteShard` — a shard *server* (another process or host)
  reached over HTTP through two keep-alive
  :class:`~repro.net.ReproClient` connections, one for batches and
  one for probes.  Remote shards run whole micro-batches
  (``run_jobs``), answer health probes, and export their engine
  counters for fleet aggregation.  Reconnection lives in the client;
  this class only tracks health and inflight accounting on top.

Backends are deliberately passive about placement: the ring and the
failover policy live in :class:`repro.cluster.ShardPlacement`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..engine.cache import CircuitCache
from ..engine.jobs import PreparationJob
from ..engine.results import JobOutcome
from ..net.client import ClientError, ReproClient
from ..net.protocol import WireError, outcome_from_wire

__all__ = ["FAILOVER_CODES", "LocalShard", "RemoteShard", "ShardBackend"]

#: Client-error codes meaning "this shard cannot serve right now" —
#: the request should fail over to a replica.  Everything else
#: (``job_spec``, ``bad_request`` …) is a semantic refusal that every
#: replica would repeat, so it becomes a per-job failure instead.
FAILOVER_CODES = frozenset({"transport", "shutting_down", "bad_response"})


class ShardBackend:
    """Common surface of one placed shard.

    Attributes:
        shard_id: Stable identifier; the ring hashes this, so renaming
            a shard remaps its keys.
    """

    shard_id: str

    #: Remote shards run their own engine; local shards are executed
    #: by the fronting engine against their cache.
    is_remote: bool = False

    @property
    def addr(self) -> str | None:
        """``host:port`` for remote shards, ``None`` for local ones."""
        return None

    @property
    def healthy(self) -> bool:
        return True

    @property
    def inflight(self) -> int:
        return 0

    @property
    def consecutive_failures(self) -> int:
        """Failed probes/requests since the last success (0 when
        healthy; local shards never fail)."""
        return 0

    @property
    def last_probe_seconds(self) -> float | None:
        """Seconds since the last completed health probe (``None``
        before any probe, and always for local shards)."""
        return None

    def describe(self) -> dict:
        """Health-endpoint row: ``{id, addr, healthy, inflight,
        last_probe_seconds, consecutive_failures}``."""
        return {
            "id": self.shard_id,
            "addr": self.addr,
            "healthy": self.healthy,
            "inflight": self.inflight,
            "last_probe_seconds": self.last_probe_seconds,
            "consecutive_failures": self.consecutive_failures,
        }

    async def aclose(self) -> None:
        """Release any transport resources (no-op for local shards)."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shard_id={self.shard_id!r}, "
            f"healthy={self.healthy})"
        )


class LocalShard(ShardBackend):
    """An in-process cache shard — a ``ShardPlacement.local`` member.

    Args:
        shard_id: Identifier used for ring placement and stats rows.
        cache: The shard's :class:`~repro.engine.cache.CircuitCache`.
    """

    is_remote = False

    def __init__(self, shard_id: str, cache: CircuitCache):
        self.shard_id = shard_id
        self.cache = cache


class RemoteShard(ShardBackend):
    """A shard server reached over HTTP.

    Batches travel on one keep-alive connection and health probes and
    stats fetches on a second, so a probe never waits behind a long
    batch.  A failed probe still closes both: a batch in flight on a
    black-holed shard then fails over after ``health_timeout``
    instead of ``request_timeout``.

    Args:
        shard_id: Identifier used for ring placement and stats rows.
        host: Shard-server address.
        port: Shard-server port.
        request_timeout: Per-request bound (covers whole remote
            micro-batches, so size it for synthesis, not for RTT).
        connect_timeout: Bound on connection establishment — kept
            small so a black-holed shard fails over fast.
        health_timeout: Bound on one health probe or stats fetch
            round trip.
        fetch_circuits: Whether relayed successes carry the QDASM
            circuit text.  ``False`` keeps duplicate-heavy traffic off
            the wire's largest payloads; front ends that serve
            ``include_circuit`` requests need ``True``.
    """

    is_remote = True

    def __init__(
        self,
        shard_id: str,
        host: str,
        port: int,
        *,
        request_timeout: float | None = 120.0,
        connect_timeout: float | None = 2.0,
        health_timeout: float = 2.0,
        fetch_circuits: bool = True,
    ):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.health_timeout = health_timeout
        self.fetch_circuits = fetch_circuits
        self.client = ReproClient(
            host,
            port,
            timeout=request_timeout,
            connect_timeout=connect_timeout,
        )
        self._probe = ReproClient(
            host,
            port,
            timeout=health_timeout,
            connect_timeout=connect_timeout,
        )
        self._healthy = True
        self._inflight = 0
        self._consecutive_failures = 0
        self._last_probe_at: float | None = None
        #: Exported span subtree the shard shipped back with the most
        #: recent *traced* ``run_jobs`` (``None`` otherwise).  The
        #: cluster front end reads it as soon as ``run_jobs`` returns,
        #: with no ``await`` between, so a concurrent round trip on
        #: this backend (another shard's batch failing over here)
        #: cannot replace it first.
        self.last_remote_trace: dict | None = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def healthy(self) -> bool:
        return self._healthy

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    @property
    def last_probe_seconds(self) -> float | None:
        if self._last_probe_at is None:
            return None
        return round(
            max(0.0, time.monotonic() - self._last_probe_at), 3
        )

    def mark(self, healthy: bool) -> None:
        """Record a passive health observation (request result)."""
        self._healthy = healthy
        if healthy:
            self._consecutive_failures = 0
        else:
            self._consecutive_failures += 1

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def run_jobs(
        self,
        jobs: Sequence[PreparationJob],
        *,
        trace_context: dict | None = None,
    ) -> list[JobOutcome]:
        """Run one micro-batch on the remote shard.

        Returns outcomes in submission order, rebuilt as first-class
        :class:`~repro.engine.JobSuccess` / ``JobFailure`` objects.
        Raises :class:`~repro.net.ClientError` (transport or server
        refusal) — the caller decides whether that means failover.

        ``trace_context`` (:meth:`repro.obs.Trace.context`) propagates
        the caller's trace to the shard; the subtree the shard ships
        back lands in :attr:`last_remote_trace` for grafting.
        """
        self._inflight += 1
        self.last_remote_trace = None
        try:
            response = await self.client.batch(
                [job.describe() for job in jobs],
                include_circuit=self.fetch_circuits,
                trace=trace_context,
            )
            self.last_remote_trace = (
                response.get("trace")
                if trace_context is not None else None
            )
            outcomes = response.get("outcomes")
            if not isinstance(outcomes, list) or len(outcomes) != len(jobs):
                raise ClientError(
                    "bad_response",
                    f"shard {self.shard_id} answered "
                    f"{len(outcomes) if isinstance(outcomes, list) else 0} "
                    f"outcomes for {len(jobs)} jobs",
                )
            try:
                rebuilt = [
                    outcome_from_wire(wire, job)
                    for wire, job in zip(outcomes, jobs)
                ]
            except WireError as error:
                raise ClientError(error.code, str(error))
        except ClientError as error:
            if error.code in FAILOVER_CODES:
                self.mark(False)
            raise
        finally:
            self._inflight -= 1
        self.mark(True)
        return rebuilt

    async def check_health(self) -> bool:
        """Active probe: ``GET /healthz`` under ``health_timeout``.

        A failed probe closes both connections, so an in-flight batch
        fails now and the next request (or probe) reconnects from a
        clean state instead of inheriting a half-dead socket.
        """
        try:
            await self._probe.ping()
        except ClientError:
            self._last_probe_at = time.monotonic()
            self.mark(False)
            await self.aclose()
            return False
        self._last_probe_at = time.monotonic()
        self.mark(True)
        return True

    async def fetch_stats(self) -> dict:
        """The shard server's ``ServiceStats.to_dict()`` snapshot."""
        return await self._probe.stats()

    async def aclose(self) -> None:
        await self.client.aclose()
        await self._probe.aclose()
