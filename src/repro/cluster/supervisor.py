"""Shard-fleet supervisor: spawn, watch, and drain shard servers.

:class:`ShardSupervisor` turns one machine into a small cluster: it
spawns ``num_shards`` subprocesses of ``python -m repro serve
--listen host:port --shards 1`` (each one a single-shard HTTP shard
server), waits until every port accepts connections, optionally
spawns the cluster front end (``serve --cluster``) over them, and
then monitors the fleet — a shard that dies unexpectedly is restarted
on its port, up to a per-shard restart budget.

``terminate()`` is the graceful path: SIGTERM to every child (each
drains its in-flight requests, exactly as a standalone server does),
bounded wait, SIGKILL stragglers.  The CLI front (``python -m repro
cluster supervise``) wires SIGTERM/SIGINT to it and prints ``fleet
drained cleanly`` when every child exited, which the cluster smoke
test greps for.

The supervisor is deliberately synchronous (plain ``subprocess`` +
polling): it has to work from the CLI, from tests, and from CI
runners where an event loop would only add failure modes.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from ..exceptions import ClusterError
from .config import ClusterConfig, ShardAddress

__all__ = ["ShardSupervisor"]


def _free_port(host: str) -> int:
    """An ephemeral port that was free a moment ago."""
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _wait_listening(
    host: str, port: int, deadline: float, process=None
) -> bool:
    while time.monotonic() < deadline:
        if process is not None and process.poll() is not None:
            return False
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return True
        except OSError:
            time.sleep(0.05)
    return False


class _Child:
    """One supervised subprocess and its restart budget."""

    def __init__(self, name: str, argv: list[str]):
        self.name = name
        self.argv = argv
        self.process: subprocess.Popen | None = None
        self.restarts = 0

    def spawn(self) -> None:
        self.process = subprocess.Popen(
            self.argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.poll() is None


class ShardSupervisor:
    """Spawn and monitor a local shard fleet (plus optional front end).

    Args:
        num_shards: Shard-server subprocesses to run.
        host: Interface the shards bind (default loopback).
        base_port: First shard port; shard *i* gets ``base_port + i``.
            0 picks free ephemeral ports.
        front: ``host:port`` to serve a cluster front end on, or
            ``None`` for shards only.
        shard_args: Extra CLI arguments appended to every shard's
            ``serve`` command (e.g. ``["--cache-capacity", "512"]``).
        replicas: Failover-chain length written to the fleet's
            cluster config.
        config_path: Where to write ``cluster.json``; ``None`` keeps
            it in memory only (the front end, if any, then gets a
            temp file next to nothing — pass a path when you want
            one).
        restart_limit: Times one shard may be restarted after dying
            unexpectedly before the supervisor gives up on it.
        startup_timeout: Seconds to wait for each child to accept
            connections.
        python: Interpreter for the children (default: this one).
    """

    def __init__(
        self,
        num_shards: int,
        *,
        host: str = "127.0.0.1",
        base_port: int = 0,
        front: str | None = None,
        shard_args: list[str] | None = None,
        replicas: int = 2,
        config_path: str | os.PathLike | None = None,
        restart_limit: int = 3,
        startup_timeout: float = 30.0,
        python: str | None = None,
    ):
        if num_shards < 1:
            raise ClusterError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.host = host
        self.front = front
        self.replicas = replicas
        self.restart_limit = restart_limit
        self.startup_timeout = startup_timeout
        self._python = python or sys.executable
        self._shard_args = list(shard_args or ())
        self._config_path = (
            Path(config_path) if config_path is not None else None
        )
        ports = [
            base_port + index if base_port else _free_port(host)
            for index in range(num_shards)
        ]
        self.addresses = tuple(
            ShardAddress(f"shard-{index:02d}", host, port)
            for index, port in enumerate(ports)
        )
        self._children = [
            _Child(address.shard_id, self._shard_argv(address))
            for address in self.addresses
        ]
        self._front_child: _Child | None = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            shards=self.addresses, replicas=self.replicas
        )

    def write_config(self) -> Path:
        """Write ``cluster.json`` for this fleet; returns its path."""
        if self._config_path is None:
            raise ClusterError(
                "no config_path was given to the supervisor"
            )
        self._config_path.parent.mkdir(parents=True, exist_ok=True)
        self._config_path.write_text(
            json.dumps(self.cluster_config().to_dict(), indent=2)
            + "\n"
        )
        return self._config_path

    def _shard_argv(self, address: ShardAddress) -> list[str]:
        return [
            self._python, "-m", "repro", "serve",
            "--listen", f"{address.host}:{address.port}",
            "--shards", "1",
            "--shard-id", address.shard_id,
            *self._shard_args,
        ]

    def _front_argv(self, config_path: Path) -> list[str]:
        return [
            self._python, "-m", "repro", "serve",
            "--listen", self.front,
            "--cluster", str(config_path),
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard (and the front end), wait for readiness.

        Raises :class:`~repro.exceptions.ClusterError` — after tearing
        the partial fleet down — if any child fails to listen within
        ``startup_timeout``.
        """
        try:
            for child, address in zip(self._children, self.addresses):
                child.spawn()
            for child, address in zip(self._children, self.addresses):
                deadline = time.monotonic() + self.startup_timeout
                if not _wait_listening(
                    address.host, address.port, deadline, child.process
                ):
                    raise ClusterError(
                        f"shard {address.shard_id} did not listen on "
                        f"{address.addr} within {self.startup_timeout}s"
                    )
            if self.front is not None:
                if self._config_path is None:
                    raise ClusterError(
                        "a front end needs config_path to hand the "
                        "cluster topology to its subprocess"
                    )
                config_path = self.write_config()
                front_host, _, front_port = self.front.rpartition(":")
                self._front_child = _Child(
                    "front", self._front_argv(config_path)
                )
                self._front_child.spawn()
                deadline = time.monotonic() + self.startup_timeout
                if not _wait_listening(
                    front_host, int(front_port), deadline,
                    self._front_child.process,
                ):
                    raise ClusterError(
                        f"front end did not listen on {self.front} "
                        f"within {self.startup_timeout}s"
                    )
        except BaseException:
            self.terminate(timeout=5.0)
            raise

    def poll(self) -> int:
        """One monitoring pass; returns how many children were revived.

        A shard that exited without being asked is restarted on its
        port until its restart budget runs out; a front end is
        restarted likewise.  Children beyond their budget are left
        down (their keys fail over to replicas).
        """
        revived = 0
        fleet = list(self._children)
        if self._front_child is not None:
            fleet.append(self._front_child)
        for child in fleet:
            if child.running or child.process is None:
                continue
            if child.restarts >= self.restart_limit:
                continue
            child.restarts += 1
            child.spawn()
            revived += 1
        return revived

    @property
    def running_children(self) -> int:
        fleet = list(self._children)
        if self._front_child is not None:
            fleet.append(self._front_child)
        return sum(1 for child in fleet if child.running)

    def terminate(self, timeout: float = 30.0) -> bool:
        """SIGTERM the fleet, wait, SIGKILL stragglers.

        Front end first, so it drains its in-flight shard requests
        while the shards still answer.  Returns True when every child
        exited within ``timeout``.
        """
        fleet = []
        if self._front_child is not None:
            fleet.append(self._front_child)
        fleet.extend(self._children)
        for child in fleet:
            if child.running:
                child.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        clean = True
        for child in fleet:
            if child.process is None:
                continue
            remaining = deadline - time.monotonic()
            try:
                child.process.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                clean = False
                child.process.kill()
                child.process.wait()
        return clean

    def __enter__(self) -> "ShardSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()
