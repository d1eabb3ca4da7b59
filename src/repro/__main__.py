"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — regenerate Table 1 (forwards flags to the harness),
* ``figures`` — print the reproductions of Figures 1-4,
* ``scaling`` — run the linear-complexity measurement (E7),
* ``tradeoff`` — run the approximation trade-off sweep (E8),
* ``batch`` — run a JSON batch spec through the preparation engine
  (``python -m repro batch spec.json``; see ``batch --help``),
* ``serve`` — replay a batch spec as N concurrent clients through the
  async sharded serving layer (``python -m repro serve spec.json
  --clients 32``), or serve HTTP/1.1 on real sockets with
  ``--listen HOST:PORT`` (add ``--cluster cluster.json`` to route to a
  remote shard fleet — see ``serve --help`` and ``docs/serving.md``),
* ``cluster`` — spawn and monitor a local shard fleet
  (``python -m repro cluster supervise --shards 3``) or check one
  (``cluster status cluster.json``),
* ``trace`` — fetch one stitched request trace from a running server
  (``python -m repro trace req-000001 --addr HOST:PORT``) or, with no
  id, its per-stage critical-path profile over the retained traces.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.analysis import table1
from repro.analysis.figures import figure1, figure2, figure3, figure4
from repro.analysis.rendering import render_table
from repro.analysis.scaling import approximation_tradeoff, synthesis_scaling
from repro.obs import log as obs_log

_LOGGER = obs_log.get_logger("cli")


def _run_figures() -> int:
    for builder in (figure1, figure2, figure3, figure4):
        print(builder())
        print("\n" + "=" * 72 + "\n")
    return 0


def _run_scaling() -> int:
    points = synthesis_scaling()
    rows = [
        [
            "x".join(str(d) for d in p.dims),
            p.visited_nodes,
            p.operations,
            f"{p.synthesis_seconds * 1e3:.2f}",
            f"{p.synthesis_seconds * 1e6 / max(p.visited_nodes, 1):.2f}",
        ]
        for p in points
    ]
    print(
        render_table(
            ["dims", "visited nodes", "operations", "time [ms]",
             "us/node"],
            rows,
            title="Synthesis scaling (linear in DD size; E7)",
        )
    )
    return 0


def _run_tradeoff() -> int:
    points = approximation_tradeoff()
    rows = [
        [
            f"{p.min_fidelity:.2f}",
            f"{p.achieved_fidelity:.4f}",
            p.visited_nodes,
            p.operations,
            p.dag_nodes,
        ]
        for p in points
    ]
    print(
        render_table(
            ["min fidelity", "achieved", "visited nodes", "operations",
             "DAG nodes"],
            rows,
            title="Approximation trade-off sweep (E8)",
        )
    )
    return 0


def _batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        description=(
            "Run a JSON batch spec through the preparation engine "
            "(see docs/engine.md for the spec format)."
        ),
    )
    parser.add_argument("spec", help="path to the batch-spec JSON file")
    parser.add_argument(
        "--executor", choices=("serial", "parallel"), default=None,
        help=(
            "execution backend (default: serial; --workers or "
            "--chunk-size imply parallel)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (implies --executor parallel)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="jobs per dispatch chunk (implies --executor parallel)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the persistent on-disk circuit cache",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256, metavar="N",
        help="in-memory cache entries (default: 256)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="CONFIG.json",
        help=(
            "pipeline-config JSON applied as option defaults for "
            "every job (per-job spec fields still win; see "
            "docs/pipeline.md)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of a table",
    )
    return parser


def _pipeline_defaults(path) -> dict[str, object] | None:
    """Load a ``--pipeline`` config file into spec defaults.

    Only the fields the file actually names are returned, so a config
    of just ``{"transpile": "two_qudit"}`` layers over a spec's
    ``defaults`` without resetting its other option values.
    """
    if path is None:
        return None
    from repro.pipeline import PipelineConfig

    return PipelineConfig.load_overrides(path)


def _engine_stats_json(stats) -> dict[str, object]:
    """Engine counters as emitted by the ``--json`` modes."""
    return stats.to_dict()


def _batch_rows(outcomes) -> list[list[object]]:
    rows = []
    for outcome in outcomes:
        dims = "x".join(str(d) for d in outcome.job.dims)
        if outcome.ok:
            report = outcome.report
            rows.append([
                outcome.job.label, dims, "ok",
                report.operations, report.median_controls,
                f"{report.build_time:.4f}",
                f"{report.synthesis_time:.4f}",
                f"{report.verify_time:.4f}",
                (f"{report.fidelity:.6f}"
                 if report.fidelity is not None else "-"),
                "hit" if outcome.cache_hit else "miss",
            ])
        else:
            rows.append([
                outcome.job.label, dims, "FAILED",
                "-", "-", "-", "-", "-", "-", "-",
            ])
    return rows


def _run_batch(arguments: list[str]) -> int:
    from repro.engine import (
        CircuitCache,
        ParallelExecutor,
        PreparationEngine,
        load_batch_spec,
    )
    from repro.exceptions import EngineError, PipelineConfigError

    options = _batch_parser().parse_args(arguments)
    tuning_given = (
        options.workers is not None or options.chunk_size is not None
    )
    if options.executor is None:
        options.executor = "parallel" if tuning_given else "serial"
    elif options.executor == "serial" and tuning_given:
        print(
            "error: --workers/--chunk-size require the parallel "
            "executor",
            file=sys.stderr,
        )
        return 2
    try:
        jobs = load_batch_spec(
            options.spec,
            defaults_override=_pipeline_defaults(options.pipeline),
        )
        if options.executor == "parallel":
            executor = ParallelExecutor(
                max_workers=options.workers,
                chunk_size=options.chunk_size,
            )
        else:
            executor = "serial"
        engine = PreparationEngine(
            cache=CircuitCache(
                capacity=options.cache_capacity,
                disk_dir=options.cache_dir,
            ),
            executor=executor,
        )
        batch = engine.run_batch(jobs)
    except (EngineError, PipelineConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = engine.stats()

    if options.as_json:
        print(json.dumps({
            "outcomes": [
                {
                    "label": o.job.label,
                    "dims": list(o.job.dims),
                    "ok": o.ok,
                    **(
                        {"report": o.report.row(),
                         "timings": o.report.timings(),
                         "stage_timings": o.stage_timings_dict(),
                         "cache_hit": o.cache_hit}
                        if o.ok
                        else {"error_type": o.error_type,
                              "message": o.message}
                    ),
                }
                for o in batch.outcomes
            ],
            "wall_time": batch.wall_time,
            "stats": _engine_stats_json(stats),
        }, indent=2))
    else:
        print(render_table(
            ["job", "dims", "status", "operations", "controls",
             "build [s]", "synth [s]", "verify [s]", "fidelity",
             "cache"],
            _batch_rows(batch.outcomes),
            title=(
                f"Batch of {len(batch)} jobs "
                f"({engine.executor.name} executor)"
            ),
        ))
        for failure in batch.failures:
            print(
                f"FAILED {failure.job.label}: "
                f"{failure.error_type}: {failure.message}",
                file=sys.stderr,
            )
        print(
            f"\n{len(batch.successes)}/{len(batch)} jobs ok, "
            f"{batch.num_cache_hits} cache hits, "
            f"wall time {batch.wall_time:.3f}s"
        )
        print("engine stats: " + stats.summary())
    return 0 if not batch.failures else 1


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Replay a batch spec as N concurrent clients through the "
            "async serving layer (micro-batching + sharded cache), or "
            "serve real sockets with --listen (see docs/serving.md)."
        ),
    )
    parser.add_argument(
        "spec", nargs="?", default=None,
        help="path to the batch-spec JSON file (required for replay "
             "mode; with --listen it pre-warms the cache)",
    )
    parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve real sockets on this address instead of "
             "replaying the spec (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--cluster", default=None, metavar="CLUSTER.json",
        help="with --listen: serve as a cluster front end routing to "
             "the remote shard fleet described by this config (see "
             "docs/serving.md, Cluster mode)",
    )
    parser.add_argument(
        "--shard-id", default=None, metavar="ID",
        help="with --listen: run as the named shard of a cluster "
             "(labels logs and the startup line; the supervisor "
             "passes this)",
    )
    parser.add_argument(
        "--max-request-bytes", type=int, default=1_000_000, metavar="N",
        help="request body size limit in network mode "
             "(default: 1000000)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="seconds a graceful shutdown waits for in-flight "
             "requests before cancelling them; 0 or negative waits "
             "forever (default: 30)",
    )
    parser.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="concurrent clients, each submitting the whole spec "
             "(default: 8)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="cache shards (default: 4)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=32, metavar="N",
        help="micro-batch size cap (default: 32)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "use a process pool with N workers inside the engine; "
            "each shard batch starts and joins its own pool, forking "
            "up to N processes per batch (slower than the default "
            "serial executor for a server's small batches)"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="root of the persistent sharded disk cache",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256, metavar="N",
        help="total in-memory cache entries across shards "
             "(default: 256)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="CONFIG.json",
        help=(
            "pipeline-config JSON applied as option defaults for "
            "every job (per-job spec fields still win)"
        ),
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify every client's outcomes against a serial "
             "reference engine",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--log-level", default="info", metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="minimum structured-log level on stderr "
             "(debug/info/warning/error; default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured logs as line-JSON instead of the "
             "human-readable rendering",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=256, metavar="N",
        help="recent request traces retained for GET /v1/trace/<id> "
             "in network mode (default: 256)",
    )
    parser.add_argument(
        "--slow-request-ms", type=float, default=None, metavar="MS",
        help="in network mode, log the full span tree of any request "
             "slower than this (warning-level 'slow_request' record; "
             "default: disabled)",
    )
    return parser


async def _serve_clients(service, jobs, num_clients):
    async with service:
        return await asyncio.gather(*(
            service.run_batch(jobs) for _ in range(num_clients)
        ))


def _parse_listen(value: str) -> tuple[str, int]:
    host, separator, port_text = value.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"--listen takes HOST:PORT, got {value!r}"
        )
    return host, int(port_text)


async def _serve_network(
    service, options, jobs, defaults, registry=None, tracer=None
):
    """Run the network front end until SIGTERM/SIGINT, then drain."""
    import signal

    from repro.net import HttpServer

    host, port = _parse_listen(options.listen)
    await service.start()
    if jobs:
        # The spec in network mode is a warm-up workload: its circuits
        # are synthesised into the (possibly persistent) cache before
        # the first remote request lands.
        await service.run_batch(jobs)
        print(f"warmed cache with {len(jobs)} spec jobs", flush=True)
    server = HttpServer(
        service, host, port,
        max_request_bytes=options.max_request_bytes,
        job_defaults=defaults,
        drain_timeout=(
            options.drain_timeout
            if options.drain_timeout > 0
            else None
        ),
        metrics=registry,
        tracer=tracer,
        slow_trace_seconds=(
            options.slow_request_ms / 1000.0
            if getattr(options, "slow_request_ms", None) is not None
            else None
        ),
    )
    try:
        await server.start()
    except OSError:
        # Unbindable address: stop the already-running service
        # cleanly instead of leaving its workers to die with the
        # loop.
        await service.stop()
        raise
    role = ""
    if getattr(options, "cluster", None):
        role = " as cluster front end"
    elif getattr(options, "shard_id", None):
        role = f" as shard {options.shard_id}"
    print(
        f"listening on {server.host}:{server.port} "
        f"(http){role}; SIGTERM drains and exits",
        flush=True,
    )
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signal_number, stop_requested.set
            )
        except (NotImplementedError, ValueError):
            # Platforms/threads without signal support: the server
            # then only stops with the process.
            pass
    await stop_requested.wait()
    print("shutting down: draining in-flight requests", flush=True)
    await server.stop()
    print(
        f"drained cleanly after {server.requests_served} requests",
        flush=True,
    )
    return server.requests_served


def _run_listen(options) -> int:
    from repro.engine import ParallelExecutor, load_batch_spec
    from repro.exceptions import (
        ClusterError,
        EngineError,
        PipelineConfigError,
    )
    from repro.obs import MetricsRegistry, Tracer
    from repro.service import AsyncPreparationService

    try:
        defaults = _pipeline_defaults(options.pipeline)
        jobs = (
            load_batch_spec(options.spec, defaults_override=defaults)
            if options.spec is not None
            else []
        )
        registry = MetricsRegistry()
        tracer = Tracer(capacity=options.trace_capacity)
        if options.cluster is not None:
            from repro.cluster import (
                ClusterConfig,
                ClusterPreparationService,
            )

            service = ClusterPreparationService(
                config=ClusterConfig.load(options.cluster),
                max_batch_size=options.batch_size,
                metrics=registry,
            )
        else:
            executor = (
                ParallelExecutor(max_workers=options.workers)
                if options.workers is not None
                else None
            )
            service = AsyncPreparationService(
                num_shards=options.shards,
                cache_capacity=options.cache_capacity,
                disk_dir=options.cache_dir,
                executor=executor,
                max_batch_size=options.batch_size,
                metrics=registry,
            )
        requests_served = asyncio.run(
            _serve_network(
                service, options, jobs, defaults,
                registry=registry, tracer=tracer,
            )
        )
    except (
        ClusterError, EngineError, PipelineConfigError, ValueError,
        OSError,
    ) as error:
        # OSError covers unbindable addresses (port in use,
        # privileged port, bad interface) — a clean exit, not a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = service.stats()
    if options.as_json:
        print(json.dumps({
            "requests_served": requests_served,
            "service": stats.to_dict(),
            "metrics": registry.snapshot(),
        }, indent=2))
    else:
        _LOGGER.info("service_stats", summary=stats.summary())
    return 0


def _run_serve(arguments: list[str]) -> int:
    from repro.engine import (
        ParallelExecutor,
        PreparationEngine,
        comparable_outcome,
        load_batch_spec,
    )
    from repro.exceptions import EngineError, PipelineConfigError
    from repro.service import AsyncPreparationService

    options = _serve_parser().parse_args(arguments)
    obs_log.configure(options.log_level, json_mode=options.log_json)
    if options.cluster is not None and options.listen is None:
        print("error: --cluster requires --listen", file=sys.stderr)
        return 2
    if options.cluster is not None and options.shard_id is not None:
        print(
            "error: --cluster (front end) and --shard-id (shard "
            "server) are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if options.listen is not None:
        return _run_listen(options)
    if options.spec is None:
        print(
            "error: replay mode needs a spec (or pass --listen)",
            file=sys.stderr,
        )
        return 2
    if options.clients < 1:
        print("error: --clients must be >= 1", file=sys.stderr)
        return 2
    try:
        jobs = load_batch_spec(
            options.spec,
            defaults_override=_pipeline_defaults(options.pipeline),
        )
        executor = (
            ParallelExecutor(max_workers=options.workers)
            if options.workers is not None
            else None
        )
        service = AsyncPreparationService(
            num_shards=options.shards,
            cache_capacity=options.cache_capacity,
            disk_dir=options.cache_dir,
            executor=executor,
            max_batch_size=options.batch_size,
        )
        results = asyncio.run(
            _serve_clients(service, jobs, options.clients)
        )
    except (EngineError, PipelineConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = service.stats()
    wall_time = max(result.wall_time for result in results)
    total_requests = options.clients * len(jobs)
    failures = sum(len(result.failures) for result in results)

    check_ok = None
    if options.check:
        reference = PreparationEngine().run_batch(jobs)
        expected = [
            comparable_outcome(outcome)
            for outcome in reference.outcomes
        ]
        check_ok = all(
            [comparable_outcome(o) for o in result.outcomes]
            == expected
            for result in results
        )

    if options.as_json:
        # The engine counters are emitted once, at top level; the
        # nested copy inside ServiceStats.to_dict() is popped so the
        # two cannot diverge.
        service_json = stats.to_dict()
        engine_json = service_json.pop("engine")
        payload = {
            "clients": options.clients,
            "jobs_per_client": len(jobs),
            "requests": total_requests,
            "failures": failures,
            "wall_time": wall_time,
            "requests_per_second": (
                total_requests / wall_time if wall_time > 0 else None
            ),
            "service": service_json,
            "engine": engine_json,
            "shards": [
                shard_stats.as_dict()
                for shard_stats in service.placement.shard_stats()
            ],
        }
        if check_ok is not None:
            payload["check"] = check_ok
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"served {total_requests} requests "
            f"({options.clients} clients x {len(jobs)} jobs) "
            f"in {wall_time:.3f}s "
            f"= {total_requests / max(wall_time, 1e-9):.1f} req/s"
        )
        _LOGGER.info("service_stats", summary=stats.summary())
        print(
            "shard hits: "
            + " ".join(
                f"[{index}]={shard.hits}"
                for index, shard in enumerate(
                    service.placement.shard_stats()
                )
            )
        )
        if failures:
            print(f"{failures} request(s) FAILED", file=sys.stderr)
        if check_ok is not None:
            print(
                "determinism check vs serial engine: "
                + ("OK" if check_ok else "MISMATCH")
            )
    if check_ok is False:
        return 1
    return 0 if failures == 0 else 1


def _cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description=(
            "Run or inspect a local shard fleet (see docs/serving.md, "
            "Cluster mode)."
        ),
    )
    commands = parser.add_subparsers(dest="cluster_command")
    supervise = commands.add_parser(
        "supervise",
        help="spawn N shard servers (and optionally a front end), "
             "monitor them until SIGTERM, then drain the fleet",
    )
    supervise.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="shard-server subprocesses (default: 3)",
    )
    supervise.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="interface the shards bind (default: 127.0.0.1)",
    )
    supervise.add_argument(
        "--base-port", type=int, default=0, metavar="PORT",
        help="first shard port, shard i gets PORT+i "
             "(default: 0 = pick free ephemeral ports)",
    )
    supervise.add_argument(
        "--front", default=None, metavar="HOST:PORT",
        help="also spawn a cluster front end on this address",
    )
    supervise.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="failover-chain length per key (default: 2)",
    )
    supervise.add_argument(
        "--config-out", default=None, metavar="CLUSTER.json",
        help="write the fleet's cluster config here (required with "
             "--front; default with --front: alongside nothing, so "
             "pass one)",
    )
    supervise.add_argument(
        "--restart-limit", type=int, default=3, metavar="N",
        help="restarts allowed per crashed child (default: 3)",
    )
    supervise.add_argument(
        "--startup-timeout", type=float, default=30.0,
        metavar="SECONDS",
        help="seconds to wait for each child to listen (default: 30)",
    )
    supervise.add_argument(
        "--shard-arg", action="append", default=[], metavar="ARG",
        help="extra argument forwarded to every shard's serve "
             "command (repeatable)",
    )
    status = commands.add_parser(
        "status",
        help="ping every shard of a cluster config and print health",
    )
    status.add_argument(
        "config", metavar="CLUSTER.json",
        help="cluster config describing the fleet",
    )
    status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of text",
    )
    return parser


def _run_cluster_supervise(options) -> int:
    import signal

    from repro.cluster import ShardSupervisor
    from repro.exceptions import ClusterError

    if options.front is not None and options.config_out is None:
        print(
            "error: --front needs --config-out (the front-end "
            "subprocess reads the topology from that file)",
            file=sys.stderr,
        )
        return 2
    try:
        supervisor = ShardSupervisor(
            options.shards,
            host=options.host,
            base_port=options.base_port,
            front=options.front,
            shard_args=options.shard_arg,
            replicas=options.replicas,
            config_path=options.config_out,
            restart_limit=options.restart_limit,
            startup_timeout=options.startup_timeout,
        )
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stop_requested = False

    def _request_stop(signal_number, frame):
        nonlocal stop_requested
        stop_requested = True

    previous_handlers = {
        signal_number: signal.signal(signal_number, _request_stop)
        for signal_number in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        supervisor.start()
        if options.config_out is not None and options.front is None:
            supervisor.write_config()
        for address in supervisor.addresses:
            print(
                f"shard {address.shard_id} listening on "
                f"{address.addr} (http)",
                flush=True,
            )
        if options.front is not None:
            print(
                f"front end listening on {options.front} (http)",
                flush=True,
            )
        if options.config_out is not None:
            print(
                f"cluster config written to {options.config_out}",
                flush=True,
            )
        print(
            f"supervising {options.shards} shard(s); "
            f"SIGTERM drains the fleet",
            flush=True,
        )
        import time as _time

        while not stop_requested:
            revived = supervisor.poll()
            if revived:
                print(
                    f"restarted {revived} crashed child(ren)",
                    flush=True,
                )
            _time.sleep(0.2)
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        supervisor.terminate(timeout=10.0)
        return 2
    finally:
        for signal_number, handler in previous_handlers.items():
            signal.signal(signal_number, handler)
    print("shutting down: draining the fleet", flush=True)
    clean = supervisor.terminate()
    if clean:
        print("fleet drained cleanly", flush=True)
        return 0
    print("fleet shutdown forced after timeout", file=sys.stderr)
    return 1


def _run_cluster_status(options) -> int:
    from repro.cluster import ClusterConfig
    from repro.exceptions import ClusterError
    from repro.net import ClientError, SyncReproClient

    try:
        config = ClusterConfig.load(options.config)
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = []
    for shard in config.shards:
        row: dict[str, object] = {
            "id": shard.shard_id, "addr": shard.addr,
        }
        try:
            with SyncReproClient(
                shard.host, shard.port,
                timeout=config.health_timeout,
                connect_timeout=config.connect_timeout,
            ) as client:
                client.ping()
                stats = client.stats()
            row["healthy"] = True
            row["requests"] = stats.get("requests")
            engine = stats.get("engine", {})
            row["cache_hits"] = engine.get("cache_hits")
        except ClientError as error:
            row["healthy"] = False
            row["error"] = str(error)
        rows.append(row)
    healthy = sum(1 for row in rows if row["healthy"])
    if options.as_json:
        print(json.dumps({
            "num_shards": len(rows),
            "healthy": healthy,
            "shards": rows,
        }, indent=2))
    else:
        for row in rows:
            if row["healthy"]:
                print(
                    f"{row['id']} {row['addr']} healthy "
                    f"requests={row['requests']} "
                    f"cache_hits={row['cache_hits']}"
                )
            else:
                print(
                    f"{row['id']} {row['addr']} DOWN ({row['error']})"
                )
        print(f"{healthy}/{len(rows)} shard(s) healthy")
    return 0 if healthy == len(rows) else 1


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Fetch one stitched request trace from a running server "
            "(GET /v1/trace/<id>), or — with no id — its per-stage "
            "critical-path profile over the retained traces "
            "(GET /v1/traces/summary)."
        ),
    )
    parser.add_argument(
        "trace_id", nargs="?", default=None, metavar="ID",
        help="request/trace id to fetch (omit for the summary "
             "rollup)",
    )
    parser.add_argument(
        "--addr", required=True, metavar="HOST:PORT",
        help="address of the server to query",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-request timeout (default: 10)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw JSON payload instead of the rendering",
    )
    return parser


def _render_trace_spans(node: dict, indent: int, lines: list[str]):
    duration = node.get("duration") or 0.0
    children = node.get("children", [])
    self_seconds = max(
        0.0,
        duration - sum((c.get("duration") or 0.0) for c in children),
    )
    attributes = node.get("attributes") or {}
    attr_text = " ".join(
        f"{name}={value}" for name, value in attributes.items()
    )
    lines.append(
        f"{'  ' * indent}{node.get('name', '?')}"
        f"  {duration * 1e3:.3f}ms"
        f" (self {self_seconds * 1e3:.3f}ms)"
        f"  [{node.get('span_id', '?')}]"
        + (f"  {attr_text}" if attr_text else "")
    )
    for child in children:
        _render_trace_spans(child, indent + 1, lines)


def _run_trace(arguments: list[str]) -> int:
    from repro.net import ClientError, SyncReproClient

    options = _trace_parser().parse_args(arguments)
    try:
        host, port = _parse_listen(options.addr)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        with SyncReproClient(
            host, port, timeout=options.timeout
        ) as client:
            payload = (
                client.traces_summary()
                if options.trace_id is None
                else client.trace(options.trace_id)
            )
    except ClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if options.as_json:
        print(json.dumps(payload, indent=2))
        return 0
    if options.trace_id is None:
        stages = payload.get("stages", {})
        print(render_table(
            ["stage", "count", "total [ms]", "self [ms]", "max [ms]",
             "critical [ms]"],
            [
                [
                    name, row["count"],
                    f"{row['total_seconds'] * 1e3:.3f}",
                    f"{row['self_seconds'] * 1e3:.3f}",
                    f"{row['max_seconds'] * 1e3:.3f}",
                    f"{row['critical_seconds'] * 1e3:.3f}",
                ]
                for name, row in stages.items()
            ],
            title=(
                f"Critical-path profile over "
                f"{payload.get('traces', 0)} trace(s)"
            ),
        ))
        return 0
    lines: list[str] = []
    for root in payload.get("spans", []):
        _render_trace_spans(root, 0, lines)
    pids = set()

    def _collect_pids(node):
        span_id = str(node.get("span_id", ""))
        if "." in span_id:
            pids.add(span_id.split(".", 1)[0])
        for child in node.get("children", []):
            _collect_pids(child)

    for root in payload.get("spans", []):
        _collect_pids(root)
    print(
        f"trace {payload.get('request_id')} "
        f"({payload.get('transport', '?')}, "
        f"{payload.get('duration', 0.0) * 1e3:.3f}ms, "
        f"{len(pids)} process(es))"
    )
    if payload.get("error"):
        error = payload["error"]
        print(
            f"error: {error.get('code')}: {error.get('message')}"
        )
    print("\n".join(lines))
    return 0


def _run_cluster(arguments: list[str]) -> int:
    options = _cluster_parser().parse_args(arguments)
    if options.cluster_command == "supervise":
        return _run_cluster_supervise(options)
    if options.cluster_command == "status":
        return _run_cluster_status(options)
    _cluster_parser().print_help(sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    command, *rest = arguments
    if command == "table1":
        return table1.main(rest)
    if command == "figures":
        return _run_figures()
    if command == "scaling":
        return _run_scaling()
    if command == "tradeoff":
        return _run_tradeoff()
    if command == "batch":
        return _run_batch(rest)
    if command == "serve":
        return _run_serve(rest)
    if command == "cluster":
        return _run_cluster(rest)
    if command == "trace":
        return _run_trace(rest)
    print(f"unknown command {command!r}", file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
