"""Cold-request benchmark of the mixed-dimensional state-preparation stack.

Run from the repository root::

    python3 perfbench/run.py --workload cold-dense --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/workloads.json`` documents each):

* ``cold-dense`` — random states on the Table-1 random registers and
  the 12-qudit mixed register, in process;
* ``structured-wide`` — GHZ, W, embedded W, Dicke and uniform states
  on wide mixed registers, in process;
* ``serve-mixed`` — hot Table-1 repeats plus never-seen random states
  over HTTP against ``python -m repro serve --listen``.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced variant and reports the per-layer metrics.
``--workload all`` runs every workload both ways.  Every
output is checked; a failed check prints ``"correct": false`` with no
metrics and exits 1.  The last stdout line is the JSON result; the
full record (sample counts, tail percentiles, failure codes) and the
spans of a traced run go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import HostSpeed, Tally, metric, read_line, stop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cold-dense", "structured-wide", "serve-mixed")

#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 9


def _arguments(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True,
        help="one workload, or 'all': every workload untraced, then "
             "traced, each in a fresh process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setups(env, seed, count, speed) -> list[float]:
    """Spawn ``count`` fresh in-process set-ups, one after another,
    sampling the host's speed before each."""
    samples = []
    for _ in range(count):
        speed.sample()
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0,
        )
        try:
            read_line(process, "ready", 60.0)
            samples.append(time.perf_counter() - start)
        finally:
            stop(process)
    return samples


def measure(args, env, tally, trace):
    # Every reported time is scaled to the reference host speed.
    speed = HostSpeed()
    if args.workload == "serve-mixed":
        import served

        return served.run(
            ROOT, env, OUT / "server.log", args.seed, args.seconds,
            tally, trace, SETUP_PROBES, speed,
        )
    import inprocess

    if trace is not None:
        return inprocess.measure_traced(
            args.workload, args.seed, args.seconds, tally, trace
        )
    setups = probe_setups(env, args.seed, SETUP_PROBES, speed)
    return inprocess.measure(
        args.workload, args.seed, args.seconds, tally, setups, speed
    )


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process;
    non-zero if any run fails."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= subprocess.call([
                sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ])
    return status


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no package at {SRC / 'repro'}; run the benchmark "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    trace = None
    if args.trace:
        from repro.obs.tracing import Trace

        # One in-memory span ledger for the run, written out at the end.
        trace = Trace(f"perfbench-{args.workload}-seed{args.seed}")
    started = time.perf_counter()
    try:
        metrics, details = measure(args, env, tally, trace)
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    if trace is not None:
        # Zero on a healthy run, so it is a per-layer figure rather than
        # a bounded end-to-end one; the result line carries the counts.
        metrics["failed_share"] = metric(
            tally.failed / tally.attempted, "ratio"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
        "jobs": tally.as_dict(),
        "details": details,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(json.dumps(record, indent=2))
    if trace is not None:
        (OUT / f"spans-{name}.json").write_text(json.dumps(trace.to_dict()))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in tally.as_dict().items():
        print(f"  {key}: {value}")
    for key, value in details.items():
        print(f"  {key}: {value}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value['value']:>14.6g} {value['unit']}")
    correct = tally.correct
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
