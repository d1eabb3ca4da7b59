"""Seeded inputs of the three workloads.

Every workload is a fixed list of requests in wire-dict job form (the
JSON shape ``job_from_dict`` and ``POST /v1/prepare`` accept), built
from ``--seed`` alone plus the run length: the same seed and length
give the same requests.  The number of requests scales with
``--seconds`` through fixed rates, so the composition of a run (which
registers, which families, how many approximated, how many repeats)
does not depend on how fast the program is.

A request is *cold* when its state has never been served in the
process before, and *warm* when it repeats an earlier request.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

#: Registers of the random-state rows of the paper's Table 1.
TABLE1_RANDOM = (
    (3, 6, 2),
    (9, 5, 6, 3),
    (6, 6, 5, 3, 3),
    (5, 4, 2, 5, 5, 2),
    (4, 7, 4, 4, 3, 5),
)

#: Registers of the structured (Embedded W, GHZ, W) rows of Table 1.
TABLE1_STRUCTURED = ((3, 6, 2), (9, 5, 6, 3), (4, 7, 4, 4, 3, 5))

#: The 12-qudit mixed register: 13,824 amplitudes, 13,221 DD nodes
#: and 27,044 operations for a random state.
DENSE_12 = (2, 3, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2)

#: ``min_fidelity`` of the approximated jobs of ``cold-dense``.  Each
#: round sends every Table-1 random register twice, once exact and once
#: at this floor, so approximated and exact jobs cover the same
#: registers and half of the Table-1 jobs are approximated.
APPROX_FIDELITY = 0.98

#: Qudit multisets of the ``structured-wide`` registers; each round
#: uses a fresh seeded ordering of one of them.
WIDE_MULTISETS = {
    "103680": (2,) * 8 + (3,) * 4 + (5,),
    "138240": (2,) * 6 + (3,) * 3 + (4,) * 2 + (5,),
    "331776": (2,) * 12 + (3,) * 4,
}

STRUCTURED_FAMILIES = (
    ("ghz", {}),
    ("w", {}),
    ("embedded_w", {}),
    ("dicke", {"excitations": 2}),
    ("uniform", {}),
)

#: Register of the throwaway warm-up job; no workload uses it.
WARMUP_DIMS = (2, 3, 2)

#: Requests per distinct state on the in-process workloads: once cold,
#: then ``REQUESTS_PER_STATE - 1`` times warm.  This is the repository's
#: duplicate-heavy mix (each distinct state requested 4 times,
#: ``benchmarks/bench_cluster.py``), so one request in four is cold.
REQUESTS_PER_STATE = 4

#: ``serve-mixed`` block: this many hot-set repeats, then one cold
#: request.  Measured on two cores, a compile is in flight during about
#: 14 % of the warm requests at 1 cold in 15 (``warm_overlapping_cold_share``
#: in each run's record), so the median warm request measures the wire,
#: queue and cache path and the warm tail the head-of-line blocking.
#: At 1 cold in 4 most warm requests overlapped a compile and
#: ``warm_p50_ms`` swung by 0.39 of its median across ten seeds.
SERVE_WARM_PER_COLD = 14

# Plan sizes per second of ``--seconds``.  The cold jobs of cold-dense
# and serve-mixed fall into five cost classes of equal size, one per
# Table-1 random register.  At ``--seconds 30``:
#
# * cold-dense sends 12 rounds, 24 cold jobs per register; a round
#   takes 3-4.5 s on two cores.  The cold median falls in the middle of
#   the (6,6,5,3,3) jobs and the cold tail (the ``n - 10``-th of ``n``)
#   in the middle of the (4,7,4,4,3,5) jobs, not on the edge between
#   two registers, where it would be a class maximum or minimum.  With
#   6 rounds and the 12-qudit job in the timed plan, cold_p50_ms and
#   cold_tail_ms spread by 0.25-0.33 of their medians over ten seeds;
#   with 12 rounds and no 12-qudit job, by 0.13-0.15.
# * serve-mixed sends 14 decks, 14 cold requests per register and
#   1,050 requests in all.  The cold median falls in the middle of the
#   (6,6,5,3,3) requests and the cold tail among the (4,7,4,4,3,5)
#   ones.  At 7 decks warm_tail_ms spread by 0.20-0.23 of its median
#   over seven to ten seeds, scaled to the host's speed or not: the
#   tenth-slowest of 490 warm requests depends on which compiles it
#   met.  At 14 decks, with every time scaled, the end-to-end metrics
#   spread by 0.04-0.10 over ten seeds (unscaled, at 14 decks,
#   cold_tail_ms had spread by 0.29).
_DENSE_ROUNDS_PER_S = 0.4
_WIDE_ROUNDS_PER_S = 0.35
_SERVE_DECKS_PER_S = 14 / 30
#: One 331,776-amplitude structured-wide round per this many seconds of
#: ``--seconds``, at least one.
_LARGE_EVERY_S = 25


@dataclass(frozen=True)
class Request:
    job: dict
    warm: bool


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _random_job(dims, rng: random.Random, min_fidelity=1.0) -> dict:
    job = {
        "family": "random",
        "dims": list(dims),
        "params": {"rng": rng.getrandbits(62)},
    }
    if min_fidelity < 1.0:
        job["min_fidelity"] = min_fidelity
    return job


def warmup_job(seed: int) -> dict:
    """The throwaway job each process runs before timing starts."""
    return _random_job(WARMUP_DIMS, _stream("warmup", seed))


def _interleave(rounds, rng: random.Random, extra_warm=()) -> list[Request]:
    """Flatten rounds of cold jobs into one closed-loop sequence.

    Each cold job comes back ``REQUESTS_PER_STATE - 1`` times as a warm
    request, shuffled into the next round (the last round's repeats
    close the sequence), so every warm request follows its cold
    original.  The repeats of ``extra_warm``, cold requests sent before
    the first round, join the first round.
    """
    repeats = REQUESTS_PER_STATE - 1
    sequence: list[Request] = []
    carried = [
        Request(request.job, True)
        for request in extra_warm
        for _ in range(repeats)
    ]
    for cold in rounds:
        block = [Request(job, False) for job in cold] + carried
        rng.shuffle(block)
        sequence.extend(block)
        carried = [Request(job, True) for job in cold for _ in range(repeats)]
    rng.shuffle(carried)
    return sequence + carried


def cold_dense(
    seed: int, seconds: float, traced: bool = False
) -> list[Request]:
    """Random states on the Table-1 random registers, each exact and at
    :data:`APPROX_FIDELITY`.

    The traced plan opens with one exact random state on
    :data:`DENSE_12` and sends half the rounds.  One dense-12 job takes
    17-19 s on two cores, nearly all of it verify: in the timed plan it
    would be a single sample eating more than half the run, while the
    traced run is where its verify share shows.  Every traced job runs
    twice (plain and traced), so halving the rounds keeps that run near
    ``--seconds`` plus two dense-12 jobs.
    """
    rng = _stream("cold-dense", seed)
    rate = _DENSE_ROUNDS_PER_S / 2 if traced else _DENSE_ROUNDS_PER_S
    rounds = [
        [
            _random_job(dims, rng, min_fidelity)
            for dims in TABLE1_RANDOM
            for min_fidelity in (1.0, APPROX_FIDELITY)
        ]
        for _ in range(max(1, round(seconds * rate)))
    ]
    if not traced:
        return _interleave(rounds, rng)
    dense = [Request(_random_job(DENSE_12, rng), False)]
    return dense + _interleave(rounds, rng, extra_warm=dense)


def structured_wide(seed: int, seconds: float) -> list[Request]:
    """The five structured families on fresh seeded orderings of the
    wide multisets."""
    rng = _stream("structured-wide", seed)
    count = max(2, round(seconds * _WIDE_ROUNDS_PER_S))
    sizes = [("103680", "138240")[index % 2] for index in range(count)]
    for index in rng.sample(
        range(count), max(1, round(seconds / _LARGE_EVERY_S))
    ):
        sizes[index] = "331776"
    seen: set[tuple[int, ...]] = set()
    rounds = []
    for size in sizes:
        dims = list(WIDE_MULTISETS[size])
        rng.shuffle(dims)
        while tuple(dims) in seen:
            rng.shuffle(dims)
        seen.add(tuple(dims))
        rounds.append([
            {"family": family, "dims": dims, "params": dict(params)}
            for family, params in STRUCTURED_FAMILIES
        ])
    return _interleave(rounds, rng)


def hot_set(seed: int) -> list[dict]:
    """The 14 Table-1 rows ``serve-mixed`` keeps repeating."""
    rng = _stream("hot-set", seed)
    rows = [
        {"family": family, "dims": list(dims)}
        for family in ("embedded_w", "ghz", "w")
        for dims in TABLE1_STRUCTURED
    ]
    return rows + [_random_job(dims, rng) for dims in TABLE1_RANDOM]


def serve_mixed(seed: int, seconds: float) -> list[Request]:
    """Blocks of :data:`SERVE_WARM_PER_COLD` hot-set repeats plus one
    never-seen Table-1 random state at a seeded position.

    Hot rows and cold registers are dealt from reshuffled decks, so
    every row and register appears equally often.
    """
    rng = _stream("serve-mixed", seed)
    hot = hot_set(seed)
    hot_deck: list[dict] = []
    cold_deck: list[tuple[int, ...]] = []
    requests: list[Request] = []
    # Whole decks of cold registers: each register is equally often
    # cold, so the cold median does not move with the seed's deal.
    decks = max(1, round(seconds * _SERVE_DECKS_PER_S))
    for _ in range(decks * len(TABLE1_RANDOM)):
        block = []
        for _ in range(SERVE_WARM_PER_COLD):
            if not hot_deck:
                hot_deck = rng.sample(hot, len(hot))
            block.append(Request(hot_deck.pop(), True))
        if not cold_deck:
            cold_deck = rng.sample(TABLE1_RANDOM, len(TABLE1_RANDOM))
        block.insert(
            rng.randrange(len(block) + 1),
            Request(_random_job(cold_deck.pop(), rng), False),
        )
        requests.extend(block)
    return requests


PLANS = {
    "cold-dense": cold_dense,
    "structured-wide": structured_wide,
    "serve-mixed": serve_mixed,
}

#: Plans of the traced in-process runs.
TRACED_PLANS = {
    **PLANS,
    "cold-dense": functools.partial(cold_dense, traced=True),
}
