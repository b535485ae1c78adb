"""Workload generators and the operations they run.

Each workload turns a seed and a run length into a fixed list of operations.
A run is a whole number of blocks, set by `--seconds` alone, never by a
clock.  What the blocks hold does not depend on the seed: the same systems,
the same kinds of query, and m from the same strata.  The seed picks the
operands within those strata and the order.  So a run attempts the same
number of operations whatever the seed, the known `find_roots` failures it
meets are the same in number, and the percentiles of one seed compare with
those of another.

The operands are drawn from finite pools fixed by `POOL_SEED`, so that the
golden digests in golden.json cover every seed.

Nothing here imports linchar at module level: generating inputs must not
warm any cache of the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

POOL_SEED = 161007841  # the source paper's arXiv number; fixes the pools only

# Catalog data the generators need (period, Coxeter number h), copied so that
# generating inputs never calls into the program.
EXCEPTIONAL = {"E6": (6, 12), "E7": (12, 18), "E8": (60, 30), "F4": (12, 12), "G2": (6, 6)}

# The query workloads run at least MIN_QUERIES operations, so that p90 has
# ten samples beyond it.
MIN_QUERIES = 100

# Nominal time of one block on a 2-vCPU x86-64 VM; a run of S seconds does
# round(S / block seconds) blocks (at least the minimum), whatever the
# machine's speed, so that the count of operations never depends on timing.
VERIFY_ALL_SECONDS = 25.0
CLI_BLOCK_SECONDS = 5.0
SWEEP_BLOCK_SECONDS = 5.0

# cli-exceptional: m is log-uniform in 1..CLI_M_MAX, one pooled value per
# log-stratum and system.
CLI_M_MAX = 10**6
CLI_M_PER_SYSTEM = 16
# `oracle modq` enumerates q**rank points with no bound of its own, so the
# generator keeps it on G2 (rank 2 <= 3) with q <= ORACLE_Q_MAX; it also
# needs q > m*h, which bounds m by (ORACLE_Q_MAX - 1) // h = 33.
ORACLE_Q_MAX = 200
ORACLE_POOL = 16
# Per block, each of E6, E7, E8 and F4 gets two exact line checks, one
# single constituent, one full quasi-polynomial, one toy polynomial and one
# catalog query; G2 gets two queries, which over a round of four blocks are
# G2_ROUND in seeded order.  A block of 26 then holds 10 fast queries (under
# 20 ms), 8 E6/F4 builds (25-70 ms), 4 E7 builds and 4 E8 builds (about 1 s
# each, all 60 constituents).  So the median falls inside the E6/F4 builds
# and p90 inside the E8 builds, not at the gap between two classes, where a
# small shift would move the order statistic from one class to the next.
CLI_TEMPLATE = ("check-line", "check-line", "constituent", "full", "toy", "catalog")
G2_ROUND = ("check-line", "constituent", "full", "toy", "catalog", "catalog", "oracle", "oracle")
G2_PER_BLOCK = 2
# Queries that build a quasi-polynomial (all but toy and catalog) cost up to
# 1.5x more on one pooled m than on another.  So in every round of
# CLI_ROUND_BLOCKS blocks, each of E6, E7, E8 and F4 meets each of its
# CLI_M_PER_SYSTEM pooled m once in its building queries, in seeded order,
# and its toy queries take one m from each quarter of the pool.  A round also
# holds as many limit-roots as admissible queries per system.
CLI_ROUND_BLOCKS = 4

# classical-sweep: every block holds one run of SWEEP_RUN consecutive m for
# each of SWEEP_SYSTEMS: mostly A (period 1) with ranks straddling 16, and
# three B/C/D (period 2) of low, middle and high rank.  Block b takes its m
# from decade b mod SWEEP_DECADES of 1..SWEEP_M_MAX: in decade 0 every run
# starts at m = 1, in decade k >= 1 at one of SWEEP_STARTS pooled starts,
# log-uniform in [10**k, 10**(k+1)), which the seed picks.
SWEEP_SYSTEMS = ("A12", "A14", "A16", "A18", "A20", "A24", "A28", "D14", "B16", "C18")
SWEEP_M_MAX = 10**4
SWEEP_RUN = 4
SWEEP_DECADES = 4
SWEEP_STARTS = 2


def blocks_for(seconds: float, block_seconds: float, block_ops: int = 1, min_ops: int = 1) -> int:
    """Blocks in a run of `seconds`: fixed by the arguments, never by a clock."""
    return max(round(seconds / block_seconds), -(-min_ops // block_ops), 1)


def log_uniform_strata(rng: random.Random, hi: int, k: int, lo: int = 1) -> list[int]:
    """k integers in lo..hi, one drawn log-uniformly from each of k equal
    slices of [log lo, log hi]."""
    bottom, top = math.log(lo), math.log(hi)
    step = (top - bottom) / k
    return [
        min(hi, max(lo, round(math.exp(rng.uniform(bottom + i * step, bottom + (i + 1) * step)))))
        for i in range(k)
    ]


def admissible(name: str) -> list[int]:
    """Admissible residues: gcd(d, n) = gcd(d + k*h, n) for every k."""
    n, h = EXCEPTIONAL[name]
    m0 = n // math.gcd(h, n)
    return [d for d in range(n) if all(math.gcd(d, n) == math.gcd((d + k * h) % n, n) for k in range(m0))]


# -- pools ------------------------------------------------------------------------


def cli_pool() -> dict:
    """Per exceptional system: (m, admissible d, any d) triples, m ascending
    by stratum; plus G2 oracle (m, q) pairs."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for name, (period, _h) in EXCEPTIONAL.items():
        adm = admissible(name)
        pool[name] = [
            (m, rng.choice(adm), rng.randrange(period))
            for m in log_uniform_strata(rng, CLI_M_MAX, CLI_M_PER_SYSTEM)
        ]
    h = EXCEPTIONAL["G2"][1]
    oracle = []
    for m in log_uniform_strata(rng, (ORACLE_Q_MAX - 1) // h, ORACLE_POOL):
        oracle.append((m, rng.randint(m * h + 1, ORACLE_Q_MAX)))
    pool["oracle"] = oracle
    return pool


def cli_argv(kind: str, name: str, entry) -> list[str]:
    m, d_adm, d_any = entry
    if kind == "check-line":
        return ["check-line", name, "-m", str(m), "-d", str(d_adm), "--exact", "--json"]
    if kind == "constituent":
        return ["charquasi", name, "-m", str(m), "--constituent", str(d_any), "--json"]
    if kind == "full":
        return ["charquasi", name, "-m", str(m), "--json"]
    if kind == "toy":
        return ["toy", name, "-m", str(m), "--json"]
    raise ValueError(kind)


def all_cli_queries() -> list[list[str]]:
    """Every query the cli-exceptional generator can emit."""
    pool = cli_pool()
    out = []
    for name in EXCEPTIONAL:
        for entry in pool[name]:
            for kind in ("check-line", "constituent", "full", "toy"):
                out.append(cli_argv(kind, name, entry))
        out.append(["limit-roots", name, "--json"])
        out.append(["admissible", name, "--json"])
    for m, q in pool["oracle"]:
        out.append(["oracle", "modq", "G2", "-m", str(m), "-q", str(q), "--json"])
    return out


def sweep_pool() -> dict:
    """Per classical system, per decade of m: the run starts to choose from."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for name in SWEEP_SYSTEMS:
        decades = [[1]]
        for k in range(1, SWEEP_DECADES):
            hi = min(10 ** (k + 1) - 1, SWEEP_M_MAX - SWEEP_RUN + 1)
            decades.append(log_uniform_strata(rng, hi, SWEEP_STARTS, lo=10**k))
        pool[name] = decades
    return pool


def all_sweep_ops() -> list[tuple[str, int]]:
    return sorted({
        (name, start + j)
        for name, decades in sweep_pool().items()
        for starts in decades
        for start in starts
        for j in range(SWEEP_RUN)
    })


# -- streams ------------------------------------------------------------------------


def cli_blocks(seed: int, blocks: int) -> list[list[list[str]]]:
    """The cli-exceptional run: `blocks` blocks of argv lists."""
    pool = cli_pool()
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        if b % CLI_ROUND_BLOCKS == 0:
            g2_kinds = rng.sample(G2_ROUND, len(G2_ROUND))
            builds, toys, catalog = {}, {}, {}
            for name in EXCEPTIONAL:
                builds[name] = rng.sample(pool[name], len(pool[name]))
                quarter = len(pool[name]) // CLI_ROUND_BLOCKS
                toys[name] = rng.sample([rng.choice(pool[name][i:i + quarter])
                                         for i in range(0, len(pool[name]), quarter)], CLI_ROUND_BLOCKS)
                catalog[name] = rng.sample(["limit-roots", "admissible"] * (CLI_ROUND_BLOCKS // 2), CLI_ROUND_BLOCKS)
        block = []
        for name in EXCEPTIONAL:
            kinds = [g2_kinds.pop() for _ in range(G2_PER_BLOCK)] if name == "G2" else CLI_TEMPLATE
            for kind in kinds:
                if kind == "catalog":
                    block.append([catalog[name].pop(), name, "--json"])
                elif kind == "oracle":
                    m, q = rng.choice(pool["oracle"])
                    block.append(["oracle", "modq", name, "-m", str(m), "-q", str(q), "--json"])
                elif kind == "toy":
                    block.append(cli_argv(kind, name, toys[name].pop()))
                else:
                    block.append(cli_argv(kind, name, builds[name].pop()))
        rng.shuffle(block)
        out.append(block)
    return out


def sweep_blocks(seed: int, blocks: int) -> list[list[tuple[str, int]]]:
    """The classical-sweep run: `blocks` blocks of (system, m) pairs, one run
    of consecutive m per system in each, the runs in seeded order."""
    pool = sweep_pool()
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        decade = b % SWEEP_DECADES
        runs = []
        for name in SWEEP_SYSTEMS:
            start = rng.choice(pool[name][decade])
            runs.append([(name, start + j) for j in range(SWEEP_RUN)])
        rng.shuffle(runs)
        out.append([op for run in runs for op in run])
    return out


def cli_run(seed: int, seconds: float) -> list[list[str]]:
    n = blocks_for(seconds, CLI_BLOCK_SECONDS, (len(EXCEPTIONAL) - 1) * len(CLI_TEMPLATE) + G2_PER_BLOCK, MIN_QUERIES)
    return [argv for block in cli_blocks(seed, n) for argv in block]


def sweep_run(seed: int, seconds: float) -> list[tuple[str, int]]:
    n = blocks_for(seconds, SWEEP_BLOCK_SECONDS, len(SWEEP_SYSTEMS) * SWEEP_RUN, MIN_QUERIES)
    return [op for block in sweep_blocks(seed, n) for op in block]


def verify_all_runs(seconds: float) -> int:
    return blocks_for(seconds, VERIFY_ALL_SECONDS)


# -- operations (run inside the measured processes) -----------------------------------


def cli_query(argv: list[str]) -> dict:
    """One `linchar` command, as the console script runs it."""
    from linchar import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def verify_all():
    from linchar import acceptance

    return acceptance.run_all()


def sweep_op(name: str, m: int):
    """char_poly, then the exact line certificate, then numeric roots.
    Returns the raw results; a LincharError from find_roots is returned, not
    raised, because the exact results before it still get checked."""
    from linchar import linial, rootdata, verify
    from linchar.errors import LincharError
    from linchar.rootdata import RootSystemId

    ident = RootSystemId.parse(name)
    h = rootdata.lookup(ident).coxeter_number
    poly = linial.char_poly(ident, m)
    line = verify.check_on_line_exact(poly, m * h)
    try:
        roots = verify.find_roots(poly)
    except LincharError as exc:
        roots = exc
    return poly, line, roots
