"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of cycles.  Cycle k is a list of op
specs that depends only on (workload, seed, k): plain tuples naming
``(kind, n, members, V)`` factors and CLI argument lists.  Nothing here
imports borderqsym, and subsets are enumerated and drawn with this
module's own code, so the inputs share no logic with the library's
enumeration.

Every cycle has the same composition (op types and the total degrees of
their factors); the seed picks subsets, the order and, in some strata,
the left degree.  That keeps the cost of a cycle nearly seed-independent,
so one run's figures stay comparable across seeds.

Factor spec: ``(kind, n, members)`` with ``members`` an ascending tuple.
Op specs, by first element:

* ``("closure", kind, left, right, V)``: multiply, decompose, reconstruct;
* ``("decompose", kind, left, right, V)``: multiply and decompose;
* ``("rational", kind, left, right, V)``: span solve against all columns;
* ``("q3",)``: the degree-1 square with base 3, expected outside the span;
* ``("spreading", left, right, V)``: spreading and relabel checks;
* ``("k1", right, V)``: degree-1 K product against peak sets and case rule;
* ``("cli", argv)``: one ``python -m borderqsym`` request.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("closure", "decompose", "oracles", "cli")

CLOSURE_MAX_EXHAUSTIVE = 5   # every pair up to this total degree, both bases
CLOSURE_SAMPLED_DEGREE = 6
CLOSURE_DRAWS_PER_STRATUM = 6  # per (basis, left degree) at the sampled degree

DECOMPOSE_DEGREE = 7
# K ops outnumber L ops 4:1.  That puts the median op inside the cluster of
# K ops with left degree 1 or 6, rather than on the edge between two
# clusters, where it would jump from seed to seed.
DECOMPOSE_K_PER_LEFT_DEGREE = 8
DECOMPOSE_L_PER_LEFT_DEGREE = 2

RATIONAL_DEGREE = 5
SPREADING_DEGREE = 7
K1_RIGHT_DEGREE = 5
# rational_solve and check_spreading ops cost about the same, 0.2 to 0.6 s,
# and outnumber the cheaper case-rule and q = 3 ops four to one, so the
# median op falls well inside that one broad cluster.
RATIONAL_PER_BASIS = 4
K1_OPS = 3
Q3_OPS = 1

CLI_DECOMPOSE_DEGREES = (4, 5, 6, 7)
CLI_SPREADING_DEGREE = 6
CLI_Q_CHOICES = (-3, -2, -1, 1, 2, 3, 4, 5)


def all_subsets(n: int) -> list[tuple[int, ...]]:
    return [c for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]


def l_nonzero(n: int, members: tuple[int, ...]) -> bool:
    # The L member vanishes exactly when its forced equalities chain
    # position 0 (x0) through to position n+1 (xinf).
    chosen = set(members)
    return any(i not in chosen and i + 1 not in chosen for i in range(n + 1))


def draw_factor(rng: random.Random, kind: str, n: int) -> tuple:
    """A uniform subset of [n]; L factors are redrawn until nonzero."""
    while True:
        members = tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
        if kind == "K" or l_nonzero(n, members):
            return (kind, n, members)


def _closure(rng: random.Random, _: random.Random) -> list[list[tuple]]:
    strata = []
    for d in range(CLOSURE_MAX_EXHAUSTIVE + 1):
        trunc = max(d, 1)
        for kind in "KL":
            strata.append([("closure", kind, (kind, a, lam), (kind, d - a, om), trunc)
                           for a in range(d + 1) for lam in all_subsets(a) for om in all_subsets(d - a)])
    d = CLOSURE_SAMPLED_DEGREE
    for kind in "KL":
        for a in range(d + 1):
            strata.append([("closure", kind, draw_factor(rng, kind, a), draw_factor(rng, kind, d - a), d)
                           for _ in range(CLOSURE_DRAWS_PER_STRATUM)])
    return strata


def _decompose(_: random.Random, rng: random.Random) -> list[list[tuple]]:
    d = DECOMPOSE_DEGREE
    strata = [[("decompose", "K", draw_factor(rng, "K", a), draw_factor(rng, "K", d - a), d)
               for _ in range(DECOMPOSE_K_PER_LEFT_DEGREE)] for a in range(d + 1)]
    strata.append([("decompose", "L", draw_factor(rng, "L", a), draw_factor(rng, "L", d - a), d)
                   for a in range(d + 1) for _ in range(DECOMPOSE_L_PER_LEFT_DEGREE)])
    return strata


def _oracles(rng: random.Random, seed_rng: random.Random) -> list[list[tuple]]:
    def rational(kind):
        a = rng.randrange(RATIONAL_DEGREE + 1)
        return ("rational", kind, draw_factor(rng, kind, a), draw_factor(rng, kind, RATIONAL_DEGREE - a),
                RATIONAL_DEGREE)

    # check_spreading factors come from a pool of two L members per degree,
    # drawn from the seed.  Each cycle has one product per left degree and
    # uses every pool member once, in a fresh pairing: the cache fills in
    # cycle 0, while a run still sees up to four products per left degree.
    pool = [[draw_factor(seed_rng, "L", a) for _ in range(2)] for a in range(SPREADING_DEGREE + 1)]
    for members in pool:
        rng.shuffle(members)
    spreading = [("spreading", pool[a][0], pool[SPREADING_DEGREE - a][1], SPREADING_DEGREE + 1)
                 for a in range(SPREADING_DEGREE + 1)]

    return [
        [rational("K") for _ in range(RATIONAL_PER_BASIS)],
        [rational("L") for _ in range(RATIONAL_PER_BASIS)],
        spreading,
        [("k1", draw_factor(rng, "K", K1_RIGHT_DEGREE), K1_RIGHT_DEGREE + 1) for _ in range(K1_OPS)],
        [("q3",)] * Q3_OPS,
    ]


def factor_text(factor: tuple) -> str:
    kind, n, members = factor
    return f"{kind}:{n}:{','.join(map(str, members))}"


def _cli(rng: random.Random, _: random.Random) -> list[list[tuple]]:
    strata = []
    for basis in "KL":
        for d in CLI_DECOMPOSE_DEGREES:
            a = rng.randrange(1, d)
            left, right = draw_factor(rng, basis, a), draw_factor(rng, basis, d - a)
            strata.append([("cli", ["decompose", "--basis", basis, "--left", factor_text(left),
                                    "--right", factor_text(right), "--json"])])
    left, right = draw_factor(rng, "K", 3), draw_factor(rng, "K", 3)
    strata.append([("cli", ["multiply", "--left", factor_text(left), "--right", factor_text(right), "--json"])])
    spreading = []
    for _ in range(2):
        a = rng.randrange(1, CLI_SPREADING_DEGREE)
        left = draw_factor(rng, "L", a)
        right = draw_factor(rng, "L", CLI_SPREADING_DEGREE - a)
        spreading.append(("cli", ["check-spreading", "--left", factor_text(left),
                                  "--right", factor_text(right), "--json"]))
    strata.append(spreading)
    shuffles = []
    for _ in range(2):
        _, m, members = draw_factor(rng, "K", rng.randrange(4, 8))
        shuffles.append(("cli", ["shuffle-formula", "--m", str(m), "--set", ",".join(map(str, members)), "--json"]))
    strata.append(shuffles)
    strata.append([("cli", ["check-q", "--q", str(rng.choice(CLI_Q_CHOICES)), "--json"]) for _ in range(2)])
    return strata


_STRATA = {"closure": _closure, "decompose": _decompose, "oracles": _oracles, "cli": _cli}


def cycle(workload: str, seed: int, k: int) -> list[tuple]:
    """Op specs of cycle ``k``, every stratum spread evenly through it in a seeded order.

    Each workload draws its inputs with two generators: one seeded by the
    cycle, for draws made afresh every cycle, and one seeded by the seed
    alone, for draws every cycle repeats.  Fresh draws let a run average
    over many inputs instead of repeating the few costly ones a seed may
    hold.  Repeated draws stop the library's family cache, and with it the
    memory high-water mark, from growing with the number of cycles that
    fit in a run.  ``closure`` draws afresh: its families have degree and V
    at most 6, so its cache fills within a cycle anyway.  ``cli`` draws
    afresh: every request is a cold process.  ``oracles`` draws its
    ``rational_solve``, peak-set and case-rule inputs afresh, whose
    families are small, and repeats its ``check_spreading`` products, whose
    degree-7 families at V = 8 would otherwise pile up in the cache;
    ``check_spreading`` itself costs about the same on every product.
    ``decompose`` repeats its draws, so after cycle 0 the cache holds
    everything it builds.

    Any prefix of a cycle holds each stratum in proportion, give or take
    one op, so a run that stops mid-cycle has the same mix of op costs
    whatever the seed.
    """
    strata = _STRATA[workload](random.Random(f"{workload}:{seed}:{k}"), random.Random(f"{workload}:{seed}"))
    rng = random.Random(f"order:{workload}:{seed}:{k}")
    keyed = []
    for stratum in strata:
        rng.shuffle(stratum)
        keyed += [((j + rng.random()) / len(stratum), op) for j, op in enumerate(stratum)]
    keyed.sort(key=lambda key_op: key_op[0])
    return [op for _, op in keyed]
