"""Tests for the ``python -m repro serve`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


@pytest.fixture
def spec_path(tmp_path) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "jobs": [
            {"family": "ghz", "dims": [3, 6, 2]},
            {"family": "ghz", "dims": [3, 6, 2]},
            {"family": "w", "dims": [2, 2, 2]},
        ],
    }))
    return str(path)


def test_serve_runs_concurrent_clients(spec_path, capsys):
    assert main([
        "serve", spec_path, "--clients", "8", "--check",
    ]) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "8 clients x 3 jobs" in out
    assert "req/s" in out
    # The stats line goes through the structured logger (stderr).
    assert "service_stats" in captured.err
    assert "shard hits:" in out
    assert "determinism check vs serial engine: OK" in out


def test_serve_json_output(spec_path, capsys):
    assert main([
        "serve", spec_path, "--clients", "4", "--shards", "4",
        "--check", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clients"] == 4
    assert payload["jobs_per_client"] == 3
    assert payload["requests"] == 12
    assert payload["failures"] == 0
    assert payload["check"] is True
    engine = payload["engine"]
    assert (
        engine["cache_hits"] + engine["cache_misses"]
        == engine["cache_lookups"]
    )
    # The engine counters appear exactly once, at top level.
    assert "engine" not in payload["service"]
    assert payload["service"]["requests"] == 12
    assert engine["jobs_executed"] == 2     # ghz deduplicated
    assert "disk_write_errors" in engine
    assert len(payload["shards"]) == 4
    shard_hits = sum(s["hits"] for s in payload["shards"])
    assert shard_hits == engine["cache_hits"]


def test_serve_single_shard(spec_path, capsys):
    assert main([
        "serve", spec_path, "--clients", "2", "--shards", "1",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    # One shard is still a placement: one row, carrying every hit.
    assert len(payload["shards"]) == 1
    assert payload["shards"][0]["hits"] == payload["engine"]["cache_hits"]
    assert payload["failures"] == 0


def test_serve_failing_job_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "jobs": [
            {"family": "ghz", "dims": [2, 2]},
            {"family": "ghz", "dims": [2, 2],
             "params": {"levels": 5}, "label": "impossible"},
        ],
    }))
    assert main(["serve", str(path), "--clients", "2"]) == 1
    captured = capsys.readouterr()
    assert "2 request(s) FAILED" in captured.err


def test_serve_invalid_spec_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["serve", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_rejects_zero_clients(spec_path, capsys):
    assert main(["serve", spec_path, "--clients", "0"]) == 2
    assert "--clients" in capsys.readouterr().err


def test_serve_rejects_zero_shards(spec_path, capsys):
    assert main(["serve", spec_path, "--shards", "0"]) == 2
    assert "num_shards" in capsys.readouterr().err


def test_serve_disk_cache_round_trip(spec_path, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main([
        "serve", spec_path, "--clients", "2", "--cache-dir", cache_dir,
    ]) == 0
    capsys.readouterr()
    assert main([
        "serve", spec_path, "--clients", "2", "--cache-dir", cache_dir,
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"]["jobs_executed"] == 0
    assert payload["engine"]["disk_hits"] > 0


def test_serve_mentioned_in_cli_doc(capsys):
    assert main([]) == 0
    assert "serve" in capsys.readouterr().out


class TestListenMode:
    """`serve --listen` subprocess: real sockets, SIGTERM drain."""

    @staticmethod
    def _spawn(spec_path, *extra):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            str(src) + (os.pathsep + existing if existing else "")
        )
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             spec_path, "--listen", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            for _ in range(50):
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(
                        line.split("listening on ", 1)[1]
                        .split(" ")[0]
                        .rsplit(":", 1)[1]
                    )
                    return process, port
            raise AssertionError("server never reported its port")
        except BaseException:
            process.kill()
            raise

    def test_http_listen_serves_and_drains_on_sigterm(self, spec_path):
        import json as json_module
        import signal
        import urllib.request

        process, port = self._spawn(spec_path)
        try:
            health = json_module.loads(urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ).read())
            assert health["result"]["status"] == "ok"
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/prepare",
                data=json_module.dumps(
                    {"family": "ghz", "dims": [3, 6, 2]}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            outcome = json_module.loads(
                urllib.request.urlopen(request, timeout=30).read()
            )
            assert outcome["ok"] is True
            assert outcome["result"]["ok"] is True
            # The warm-up spec already synthesised this circuit.
            assert outcome["result"]["cache_hit"] is True
        finally:
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        assert process.returncode == 0, output[-2000:]
        assert "drained cleanly" in output
        assert "service_stats" in output

    def test_replay_without_spec_rejected(self, capsys):
        assert main(["serve"]) == 2
        assert "replay mode needs a spec" in capsys.readouterr().err
