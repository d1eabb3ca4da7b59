#!/usr/bin/env python3
"""Prepare a mixed-dimensional GHZ state over the wire.

Starts a real :class:`repro.net.HttpServer` on an ephemeral port,
then talks to it exactly as a remote caller would — through
:class:`repro.net.ReproClient` over a real socket — to prepare the
paper's flagship mixed-dimensional example, the GHZ state on a
(3, 6, 2) qudit register.  Demonstrates that:

* a job travels as plain JSON (the same fields as a batch-spec job)
  and comes back with the full synthesis report, the per-stage
  pipeline timings, and (on request) the QDASM circuit text,
* repeated requests are served from the content-addressed cache,
* the outcome over the wire equals the in-process
  ``prepare_state`` result (modulo wall times).

Run:  python examples/http_client.py
"""

import asyncio

from repro.circuit import qasm
from repro.net import HttpServer, ReproClient
from repro.service import AsyncPreparationService

GHZ_JOB = {"family": "ghz", "dims": [3, 6, 2], "label": "ghz-3x6x2"}


async def main() -> None:
    service = AsyncPreparationService(num_shards=4)
    await service.start()
    async with HttpServer(service) as server:
        print(f"server listening on 127.0.0.1:{server.port}\n")
        async with ReproClient("127.0.0.1", server.port) as client:
            health = await client.ping()
            assert health["status"] == "ok"

            outcome = await client.prepare(
                GHZ_JOB, include_circuit=True
            )
            assert outcome["ok"], outcome
            report = outcome["report"]
            print(f"prepared {outcome['label']} over the wire:")
            print(f"  dims             {report['dims']}")
            print(f"  operations       {report['operations']}")
            print(f"  median controls  {report['median_controls']}")
            print(f"  visited nodes    {report['visited_nodes']}")
            print(f"  fidelity         {report['fidelity']}")
            stage_order = ", ".join(outcome["stage_timings"])
            print(f"  pipeline stages  {stage_order}")

            circuit = qasm.loads(outcome["circuit"])
            print(f"  circuit          {len(circuit)} gates "
                  f"(QDASM round-tripped client-side)")

            again = await client.prepare(GHZ_JOB)
            assert again["cache_hit"], "second request must hit the cache"
            assert again["report"] == report, "cached report must match"
            print("\nsecond request: served from the cache")

            stats = await client.stats()
            engine = stats["engine"]
            print(
                f"server stats: {stats['requests']} requests, "
                f"{engine['cache_hits']} cache hits, "
                f"{engine['jobs_executed']} synthesis runs"
            )
            assert engine["jobs_executed"] == 1


if __name__ == "__main__":
    asyncio.run(main())
    print("\nhttp_client example OK")
