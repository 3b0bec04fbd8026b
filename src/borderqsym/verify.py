"""Exhaustive small-degree sweeps of the paper's two results.

Each suite returns ``(ok, detail)``: whether the whole sweep held, and
either a count of what it checked or the first case that broke.  The
``selftest`` command of :mod:`borderqsym.cli` runs :data:`SUITES` in
order, and acceptance checks 04, 05, 06 and 10 call :func:`closure`,
:func:`mobius`, :func:`degree1_rule` and :func:`case_rule`, so every
sweep is written once.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .basis import Decomposition, NonzeroResidualError, NotDivisibleError, decompose_k, decompose_l
from .basis import k_from_l, l_from_k, rational_solve, reconstruct
from .core import all_monomials
from .families import SubsetSpec, all_subsets, k_series, k_series_q, l_series
from .oracle import k1_coefficient
from .shuffle import k1_product


# The bound of each sweep, read by its loop and by its name in SUITES.
_CLOSURE_DEGREE = 5  # n + m
_MOBIUS_N = 6
_DEGREE1_M = 4
_CASE_M = 4


def q_square_in_span(q: int) -> bool:
    # whether the square of the degree-1 member spans the degree-2 members, base q
    one = SubsetSpec(1)
    square = k_series_q(one, 2, q) * k_series_q(one, 2, q)
    columns = [k_series_q(spec, 2, q) for spec in all_subsets(2)]
    return rational_solve(columns, square) is not None


def closure() -> tuple[bool, str]:
    count = 0
    for d in range(_CLOSURE_DEGREE + 1):
        trunc = max(d, 1)
        for n in range(d + 1):
            for lam in all_subsets(n):
                for om in all_subsets(d - n):
                    pairs = (
                        (l_series(lam, trunc) * l_series(om, trunc), decompose_l),
                        (k_series(lam, trunc) * k_series(om, trunc), decompose_k),
                    )
                    for target, decompose in pairs:
                        try:
                            dec = decompose(target)
                        except (NotDivisibleError, NonzeroResidualError) as exc:
                            return False, f"{lam!r} x {om!r}: {exc}"
                        if reconstruct(dec, trunc) != target:
                            return False, f"{lam!r} x {om!r}: reconstruction mismatch"
                        count += 1
    return True, f"{count} products decomposed and reconstructed exactly"


def mobius() -> tuple[bool, str]:
    count = 0
    for n in range(_MOBIUS_N + 1):
        for spec in all_subsets(n):
            for outer, inner in ((k_from_l, l_from_k), (l_from_k, k_from_l)):
                acc: dict[SubsetSpec, int] = {}
                for mid, c1 in outer(spec).coeffs.items():
                    for leaf, c2 in inner(mid).coeffs.items():
                        acc[leaf] = acc.get(leaf, 0) + c1 * c2
                if {s: c for s, c in acc.items() if c} != {spec: 1}:
                    return False, f"round trip broke at {spec!r}"
                count += 1
    return True, f"{count} round trips are identities"


def degree1_rule() -> tuple[bool, str]:
    count = 0
    for m in range(_DEGREE1_M + 1):
        trunc = m + 1
        for om in all_subsets(m):
            peaks = Decomposition(m + 1, "K", dict(Counter(k1_product(om))))
            total = reconstruct(peaks, trunc)
            for left in (SubsetSpec(1), SubsetSpec(1, frozenset({1}))):
                if total != k_series(left, trunc) * k_series(om, trunc):
                    return False, f"expansion mismatch at {om!r} (left {left!r})"
                count += 1
    return True, f"{count} products match their peak-set expansions"


def case_rule() -> tuple[bool, str]:
    count = 0
    for m in range(_CASE_M + 1):
        trunc = m + 1
        one = k_series(SubsetSpec(1), trunc)
        for om in all_subsets(m):
            product = one * k_series(om, trunc)
            for mono in all_monomials(m + 1, trunc):
                if k1_coefficient(mono, om) != product.coefficient(mono):
                    return False, f"case rule disagrees at {mono} for {om!r}"
                count += 1
    return True, f"{count} coefficients match the case rule"


def q_rigidity() -> tuple[bool, str]:
    for q, expect_in_span in ((2, True), (3, False)):
        if q_square_in_span(q) != expect_in_span:
            return False, f"unexpected span result for q={q}"
    return True, "q=2 representable, q=3 outside the span"


SUITES: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    (f"closure (n+m <= {_CLOSURE_DEGREE}, both bases)", closure),
    (f"inclusion-exclusion round trips (n <= {_MOBIUS_N})", mobius),
    (f"degree-1 product rule (m <= {_DEGREE1_M})", degree1_rule),
    (f"case-rule coefficients (m <= {_CASE_M})", case_rule),
    ("base-2 rigidity (q = 3 fails, q = 2 works)", q_rigidity),
]
