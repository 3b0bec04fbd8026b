"""Independent verifiers built on local relation patterns of monomials.

A monomial fails the special-monomial predicate through one of three
local patterns in its padded nondecreasing index tuple: an interior
natural pair (a natural variable with exponent exactly 2), a lone x0, or
a lone xinf.  Resolving such a pattern replaces its single equality by a
strict step and takes the minimal representative of the resulting
equality pattern (naturals 1, 2, 3, ..., shared with the families
module); by quasisymmetry in the natural variables this canonical
choice carries the same coefficient as any other realization of the
resolved pattern.

The spreading check asserts that every resolution doubles the
coefficient; L members and their products satisfy it, which is what
makes the elimination in the basis module terminate at zero.  Relations
and resolutions depend only on a monomial's equality pattern, and the
coefficient of a quasisymmetric series only on the monomial's bordered
M-coordinate, so such a series is checked on its 2^(n+1) - 1 equality
patterns, reading each coefficient from the pattern's coordinate,
instead of on every monomial of the slice.
The case-rule coefficient function recomputes degree-1 K product
coefficients per variable, without ever multiplying series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    INF,
    Index,
    Monomial,
    Series,
    TruncationError,
    _coordinates,
    all_monomials,
    is_border,
)
from .families import SubsetSpec, _pattern_key, equality_pattern, pattern_representative


class RelationKind(Enum):
    INTERIOR_SQUARE = "interior_square"
    BORDER_ZERO = "border_zero"
    BORDER_INF = "border_inf"


@dataclass(frozen=True)
class ProblematicRelation:
    """One equality that keeps a monomial from being special.

    ``position`` is the pair index i, 0 <= i <= n, of the equality
    g_i = g_{i+1} in the padded tuple (g_0, ..., g_{n+1}): 0 for a lone
    x0, n for a lone xinf, and the left slot of the equal natural pair
    for an interior square.
    """

    kind: RelationKind
    position: int


def _relations(flags: Sequence[bool]) -> list[tuple[RelationKind, int]]:
    # The relations of every monomial with these equality flags g_i = g_{i+1}
    # (i = 0..n), by position: a lone x0 or xinf is a border block of size
    # 2, an interior square a middle block of size 2.
    n = len(flags) - 1
    if n == 0:
        return []
    out = []
    if flags[0] and not flags[1]:
        out.append((RelationKind.BORDER_ZERO, 0))
    for p in range(1, n):
        if flags[p] and not flags[p - 1] and not flags[p + 1]:
            out.append((RelationKind.INTERIOR_SQUARE, p))
    if flags[n] and not flags[n - 1]:
        out.append((RelationKind.BORDER_INF, n))
    return out


def problematic_relations(m: Monomial) -> tuple[ProblematicRelation, ...]:
    """All problematic relations of m, ordered by position; empty iff special."""
    return tuple(ProblematicRelation(kind, p) for kind, p in _relations(equality_pattern(m)))


def resolve(m: Monomial, relation: ProblematicRelation, trunc: int) -> Monomial:
    """Replace the relation's equality by a strict step and renormalize.

    The result is the minimal representative of m's equality pattern with
    the relation's flag cleared: it keeps every other relation between
    consecutive tuple entries and uses the naturals 1, 2, 3, ... in order.
    It needs at most ``m.degree`` of them, so any trunc >= degree always
    suffices.
    """
    if relation not in problematic_relations(m):
        raise ValueError(f"{relation} is not a problematic relation of {m}")
    pattern = list(equality_pattern(m))
    pattern[relation.position] = False
    out = pattern_representative(pattern)
    if out.max_natural() > trunc:
        raise TruncationError(f"resolution needs {out.max_natural()} naturals, trunc is {trunc}")
    return out


def resolve_all(m: Monomial, trunc: int) -> Monomial:
    """Resolve until no problematic relation remains; each step removes one."""
    while True:
        relations = problematic_relations(m)
        if not relations:
            return m
        m = resolve(m, relations[0], trunc)


def check_spreading(f: Series) -> bool:
    """Whether resolving any problematic relation doubles the coefficient in f.

    Quantifies over every degree-matching monomial of the truncated
    slice, not just the support, so a resolution landing outside the
    support counts as coefficient zero.  Needs trunc >= degree + 1 so
    that a resolution can always spend one fresh natural value.

    A quasisymmetric f is swept by equality pattern instead, without
    building a monomial: the relations come from the pattern's flags, a
    resolution clears one flag, and every coefficient is read from the
    pattern's M-coordinate.  That is exact because a monomial's relations
    and resolutions depend only on its pattern, and its coefficient only
    on its coordinate; with V >= degree + 1 every coordinate has a
    placement, so none reads as zero by mistake.
    """
    if f.trunc < f.degree + 1:
        raise TruncationError(f"need trunc >= degree + 1 = {f.degree + 1}, got {f.trunc}")
    coords = _coordinates(f)
    if coords is None:
        # a resolution is the minimal representative of its pattern
        cases = ((equality_pattern(m), f.coefficient(m)) for m in all_monomials(f.degree, f.trunc))

        def resolved(flags: tuple[bool, ...]) -> int:
            return f.coefficient(pattern_representative(flags))

    else:
        # the all-equal pattern has no coordinate and no relation
        patterns = itertools.product((False, True), repeat=f.degree + 1)
        cases = ((flags, coords.get(_pattern_key(flags), 0)) for flags in patterns)

        def resolved(flags: tuple[bool, ...]) -> int:
            return coords.get(_pattern_key(flags), 0)

    for flags, c in cases:
        for _, p in _relations(flags):
            if 2 * c != resolved((*flags[:p], False, *flags[p + 1:])):
                return False
    return True


def _k_admits(g: tuple[Index, ...], members: Iterable[int]) -> bool:
    # Def of the K family on one tuple, kept local so this verifier does
    # not share code with the series constructors it cross-checks.
    padded = (0, *g, INF)
    return not any(padded[i - 1] == padded[i] == padded[i + 1] for i in members)


def k1_coefficient(mono: Monomial, right: SubsetSpec) -> int:
    """Case-rule coefficient of ``mono`` in the degree-1 empty-set K product.

    Equals the coefficient of ``mono`` in
    ``k_series((1, {})) * k_series(right)`` at any truncation covering
    the monomial.  Each variable of ``mono`` contributes per the case
    table: nothing when removing it leaves the K member's support, M for
    a border or an exponent-1 natural, and 2M for a higher natural
    exponent, where M is 2 to the number of distinct naturals of
    ``mono``.
    """
    if mono.degree != right.n + 1:
        raise ValueError(f"degree mismatch: monomial has {mono.degree}, expected {right.n + 1}")
    big_m = 2 ** mono.distinct_naturals()
    g = mono.indices()
    total = 0
    for i, e in mono.pairs:
        at = g.index(i)
        if not _k_admits(g[:at] + g[at + 1:], right.members):  # the tuple of mono / x_i
            continue
        if is_border(i) or e == 1:
            total += big_m
        else:
            total += 2 * big_m
    return total
