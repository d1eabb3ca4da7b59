"""Tests for the shard-fleet supervisor (`repro.cluster.supervisor`)."""

from __future__ import annotations

import json
import signal
import socket
import time

import pytest

from repro.cluster import ClusterConfig, ShardSupervisor
from repro.exceptions import ClusterError
from repro.net import SyncReproClient


def wait_listening(host: str, port: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return True
        except OSError:
            time.sleep(0.05)
    return False


class TestTopology:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ClusterError):
            ShardSupervisor(0)

    def test_addresses_and_config(self):
        supervisor = ShardSupervisor(3, base_port=9100, replicas=2)
        assert [a.shard_id for a in supervisor.addresses] == [
            "shard-00", "shard-01", "shard-02",
        ]
        assert [a.port for a in supervisor.addresses] == [
            9100, 9101, 9102,
        ]
        config = supervisor.cluster_config()
        assert isinstance(config, ClusterConfig)
        assert config.replicas == 2
        assert config.shards == supervisor.addresses

    def test_ephemeral_ports_are_distinct(self):
        supervisor = ShardSupervisor(4)
        ports = [a.port for a in supervisor.addresses]
        assert len(set(ports)) == 4

    def test_write_config_round_trips(self, tmp_path):
        path = tmp_path / "fleet" / "cluster.json"
        supervisor = ShardSupervisor(2, config_path=path)
        written = supervisor.write_config()
        assert written == path
        loaded = ClusterConfig.load(path)
        assert loaded == supervisor.cluster_config()
        # And it is plain indented JSON, reviewable in a PR.
        assert json.loads(path.read_text())["replicas"] == 2

    def test_write_config_requires_a_path(self):
        with pytest.raises(ClusterError, match="config_path"):
            ShardSupervisor(1).write_config()


class TestLifecycle:
    def test_start_poll_restart_terminate(self):
        supervisor = ShardSupervisor(1, restart_limit=1)
        with supervisor:
            address = supervisor.addresses[0]
            assert supervisor.running_children == 1

            # The shard answers the wire protocol.
            with SyncReproClient(address.host, address.port) as client:
                assert client.ping()["status"] == "ok"

            # Crash it; one poll revives it on the same port.
            child = supervisor._children[0]
            child.process.send_signal(signal.SIGKILL)
            child.process.wait()
            assert supervisor.poll() == 1
            assert wait_listening(address.host, address.port, 15.0)

            # Budget exhausted: a second crash stays down.
            child.process.send_signal(signal.SIGKILL)
            child.process.wait()
            assert supervisor.poll() == 0
            assert supervisor.running_children == 0
        assert supervisor.running_children == 0

    def test_terminate_is_clean_and_idempotent(self):
        supervisor = ShardSupervisor(2)
        supervisor.start()
        assert supervisor.running_children == 2
        assert supervisor.terminate(timeout=15.0) is True
        assert supervisor.running_children == 0
        assert supervisor.terminate(timeout=1.0) is True
