"""Seeded workload generators for the end-to-end benchmark.

Every input the program under test sees is made here, as a pure
function of the ``--seed`` argument: the same seed gives the same query
texts, the same draws and the same batches.  The seed
varies the *content* of the inputs (list elements, expression shapes,
peg names, shuffles, draw order) but not their *cost profile* (which
query kinds exist, at which sizes and with which popularity), so runs
on different seeds measure the same workload and their spread is
run-to-run noise, not a different mix.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.bench.parallel_service import SERVING_PROGRAMS
from repro.bench.programs import (
    CONCAT, DERIV, HANOI_PURE, NREV, PRI2, QS4, QUEENS, QUERY, SUITE,
    SUITE_ORDER,
)

#: one query: (program name, query text).
Op = Tuple[str, str]


# -- suite_warm --------------------------------------------------------------
#
# Why: the paper's own workload.  All 14 PLM pure queries on warm
# machines, so the interpreter loop does nearly all the work and
# compilation, construction and IPC do none.  Each round runs every
# program once in a seeded order; the benchmark measures whole rounds,
# so every program has the same share of the samples in every run.

def suite_programs() -> Dict[str, str]:
    """The 14 PLM pure-variant sources, keyed by program name."""
    return {name: SUITE[name].source_pure for name in SUITE_ORDER}


def suite_rounds(seed: int) -> Iterator[List[Op]]:
    """Endless rounds, each the 14 pure queries in a seeded shuffle."""
    rng = random.Random(seed)
    while True:
        order = list(SUITE_ORDER)
        rng.shuffle(order)
        yield [(name, SUITE[name].query_pure) for name in order]


# -- adhoc_churn -------------------------------------------------------------
#
# Why: the cold path.  96 distinct (program, query) images drawn
# Zipf(s=1.0).  96 sits between the engine pool's 64 warm machines and
# the image cache's 128 entries, so after first use every image stays
# compiled but the tail keeps missing the machine pool and pays
# Machine() construction plus predecode and superop fusion on a query
# whose warm run is short.  The rank of a query fixes its kind and size
# (rank r is kind r % 7 at size level r // 7); the seed fills in the
# values, so the popular queries cost the same on every seed.  Draws
# are stratified: each block of ZIPF_BLOCK draws holds every rank in
# its exact Zipf share, in seeded order, so the miss count does not
# swing with the luck of the draw.

ADHOC_POOL_SIZE = 96
ZIPF_S = 1.0
ZIPF_BLOCK = 480

ADHOC_PROGRAMS: Dict[str, str] = {
    "nrev": NREV, "concat": CONCAT, "qsort": QS4, "deriv": DERIV,
    "hanoi": HANOI_PURE, "queens": QUEENS, "primes": PRI2,
}
ADHOC_KINDS = tuple(ADHOC_PROGRAMS)


def _int_list(rng: random.Random, length: int) -> str:
    return "[" + ",".join(str(rng.randrange(100)) for _ in range(length)) + "]"


def _expression(rng: random.Random, operators: int) -> str:
    """A random expression in x with exactly ``operators`` operators."""
    if operators == 0:
        return "x" if rng.random() < 0.6 else str(rng.randrange(1, 10))
    unary = rng.random() < 0.2
    if unary:
        inner = _expression(rng, operators - 1)
        form = rng.choice(("log({})", "exp({})", "-({})", "({})^{}"))
        return form.format(inner, rng.randrange(2, 5))
    left = rng.randrange(operators)
    return "({} {} {})".format(_expression(rng, left), rng.choice("+-*/"),
                               _expression(rng, operators - 1 - left))


def _adhoc_query(kind: str, level: int, rng: random.Random) -> str:
    if kind == "nrev":
        return f"nrev({_int_list(rng, 8 + 2 * (level % 8))}, R)"
    if kind == "concat":
        return (f"concat({_int_list(rng, 3 + level % 6)}, "
                f"{_int_list(rng, 2 + level % 4)}, L)")
    if kind == "qsort":
        return f"qsort({_int_list(rng, 10 + 3 * (level % 8))}, R, [])"
    if kind == "deriv":
        return f"d({_expression(rng, 4 + level % 8)}, x, D)"
    if kind == "hanoi":
        pegs = rng.sample(range(1000), 3)
        return "move({}, p{}, p{}, p{})".format(4 + level % 4, *pegs)
    if kind == "queens":
        board = list(range(1, 5 + level % 3))
        rng.shuffle(board)
        return f"queens({board}, [], Qs)".replace(" ", "")
    if kind == "primes":
        return f"primes({20 + 5 * level + rng.randrange(5)}, Ps)"
    raise ValueError(f"unknown ad-hoc kind {kind!r}")


def adhoc_pool(seed: int) -> List[Op]:
    """The 96 distinct ad-hoc queries, most popular first."""
    rng = random.Random(seed)
    pool: List[Op] = []
    seen = set()
    for rank in range(ADHOC_POOL_SIZE):
        kind = ADHOC_KINDS[rank % len(ADHOC_KINDS)]
        query = _adhoc_query(kind, rank // len(ADHOC_KINDS), rng)
        while (kind, query) in seen:
            query = _adhoc_query(kind, rank // len(ADHOC_KINDS), rng)
        seen.add((kind, query))
        pool.append((kind, query))
    return pool


def zipf_block() -> List[int]:
    """One block of ranks (0 = most popular) in exact Zipf(``ZIPF_S``)
    proportion, apportioned by largest remainder."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ADHOC_POOL_SIZE)]
    shares = [ZIPF_BLOCK * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ADHOC_POOL_SIZE),
                          key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[:ZIPF_BLOCK - sum(counts)]:
        counts[rank] += 1
    return [rank for rank, count in enumerate(counts) for _ in range(count)]


def zipf_ranks(seed: int) -> Iterator[int]:
    """Endless stratified Zipf draws of pool ranks."""
    rng = random.Random(seed)
    block = zipf_block()
    while True:
        rng.shuffle(block)
        yield from block


# -- session_stream ----------------------------------------------------------
#
# Why: the session path.  Queries with many cheap answers, streamed one
# solution per step, so each step interprets for microseconds but
# restores, captures and pickles a whole machine checkpoint: the
# checkpoint path dominates, and the interpreter is entered through
# resume rather than run.

SESSION_PROGRAMS: Dict[str, str] = {
    "query": QUERY, "concat": CONCAT, "queens": QUEENS,
}
SESSION_CONCAT_LENGTHS = range(4, 12)


def session_pool(seed: int) -> List[Op]:
    """The distinct session queries: density/2 (25 answers), query/4
    without its fail (5), all-solutions queens6 (4), and one concat/3
    split of a seeded list per length (length + 1 answers)."""
    rng = random.Random(seed)
    pool: List[Op] = [
        ("query", "density(C, D)"),
        ("query", "query(C1, D1, C2, D2)"),
        ("queens", "queens6(Qs)"),
    ]
    for length in SESSION_CONCAT_LENGTHS:
        pool.append(("concat", f"concat(X, Y, {_int_list(rng, length)})"))
    return pool


def session_opens(seed: int, pool: List[Op]) -> Iterator[int]:
    """Endless pool indices for the sessions opened as others finish.

    Stratified like the ad-hoc draws: every block of four opens holds
    each query kind once, and every eight concat opens each length
    once, in seeded order, so the step mix is the same on every seed.
    """
    rng = random.Random(seed)
    concat = [index for index, (program, _) in enumerate(pool)
              if program == "concat"]
    kinds = [index for index in range(len(pool)) if index not in concat]
    kinds.append(None)
    lengths: List[int] = []
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind is not None:
                yield kind
                continue
            if not lengths:
                lengths = list(concat)
                rng.shuffle(lengths)
            yield lengths.pop()


# -- pool_batches ------------------------------------------------------------
#
# Why: the multiprocess data plane, the only workload that crosses
# process boundaries.  One client sends batches of the serving mix of
# the soak and parallel-service benchmarks through ``run_many``, the
# next as soon as the last returns, so both workers stay busy and every
# batch exercises image shipping, micro-batching and the result pipes.
# Each batch holds every program POOL_BATCH_REPEATS times in seeded
# order, so every batch is the same work.

POOL_BATCH_REPEATS = 2


def pool_programs() -> Dict[str, str]:
    """The serving mix's pure-variant sources."""
    return {name: SUITE[name].source_pure for name in SERVING_PROGRAMS}


def pool_batches(seed: int) -> Iterator[List[Op]]:
    """Endless batches, each the serving mix repeated in seeded order."""
    rng = random.Random(seed)
    mix = [(name, SUITE[name].query_pure)
           for name in SERVING_PROGRAMS] * POOL_BATCH_REPEATS
    while True:
        rng.shuffle(mix)
        yield list(mix)
