"""Independent verifiers built on local relation patterns of monomials.

A monomial fails the special-monomial predicate through one of three
local patterns in its padded nondecreasing index tuple: an interior
natural pair (a natural variable with exponent exactly 2), a lone x0, or
a lone xinf.  Each is a set bit with both neighbours clear in the
tuple's equality mask (bit i is the flag g_i = g_{i+1}, the families
module's encoding).  Resolving such a pattern clears that bit and takes
the minimal representative of the resulting mask (naturals 1, 2, 3,
..., shared with the families module); by quasisymmetry in the natural
variables this canonical choice carries the same coefficient as any
other realization of the resolved mask.

The spreading check asserts that every resolution doubles the
coefficient; L members and their products satisfy it.  Resolving a lone
bit keeps the mask's forced core and adds one middle block, so spreading
is, one lone bit at a time, the condition that the basis module's
Möbius read tests when it asks each mask's quotient by 2^mid to equal
that of its forced core.  Relations and resolutions depend only on a
monomial's equality mask, and the coefficient of a quasisymmetric series
only on the monomial's bordered M-coordinate, which is that mask, so
such a series is checked on its 2^(n+1) - 1 equality masks, reading each
coefficient at its mask, instead of on every monomial of the slice.

The case-rule coefficient function recomputes degree-1 K product
coefficients per variable, without ever multiplying series.  Its case
table reads only the equalities between adjacent tuple entries and
which entries are borders, so it runs once per (exponent pattern, right
subset): the pattern (e0, natural exponents in index order, e_inf) is
read from the monomial's own pairs, the table is evaluated on the tuple
that places the naturals on 1, 2, 3, ..., and the value is cached.  This
reading is local to the oracle; it shares no codec with the core
module's masks, which the product it cross-checks is keyed by.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .core import (
    INF,
    Index,
    Monomial,
    Series,
    TruncationError,
    _check_trunc,
    _coordinates,
    _Frozen,
    _mask,
    all_monomials,
    is_border,
)
from .families import SubsetSpec, _lone, _representative


class RelationKind(Enum):
    INTERIOR_SQUARE = "interior_square"
    BORDER_ZERO = "border_zero"
    BORDER_INF = "border_inf"


class ProblematicRelation(_Frozen):
    """One equality that keeps a monomial from being special.

    ``position`` is the pair index i, 0 <= i <= n, of the equality
    g_i = g_{i+1} in the padded tuple (g_0, ..., g_{n+1}): 0 for a lone
    x0, n for a lone xinf, and the left slot of the equal natural pair
    for an interior square.  Immutable and hashable.
    """

    __slots__ = ("kind", "position")

    def __init__(self, kind: RelationKind, position: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "position", position)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.position == other.position
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.position))

    def __reduce__(self):
        return ProblematicRelation, (self.kind, self.position)

    def __repr__(self) -> str:
        return f"ProblematicRelation(kind={self.kind!r}, position={self.position!r})"


def _relations(mask: int, n: int) -> list[tuple[RelationKind, int]]:
    # The relations of every degree-n monomial with this equality mask, one
    # per lone bit p: a lone x0 at p = 0, a lone xinf at p = n, else a square.
    lone = _lone(mask, n)
    out = []
    while lone:
        p = (lone & -lone).bit_length() - 1
        lone &= lone - 1
        if p == 0:
            out.append((RelationKind.BORDER_ZERO, p))
        else:
            out.append((RelationKind.BORDER_INF if p == n else RelationKind.INTERIOR_SQUARE, p))
    return out


def problematic_relations(m: Monomial) -> tuple[ProblematicRelation, ...]:
    """All problematic relations of m, ordered by position; empty iff special."""
    return tuple(ProblematicRelation(kind, p) for kind, p in _relations(_mask(m), m.degree))


def resolve(m: Monomial, relation: ProblematicRelation, trunc: int) -> Monomial:
    """Replace the relation's equality by a strict step and renormalize.

    The result is the minimal representative of m's equality mask with
    the relation's bit cleared: it keeps every other relation between
    consecutive tuple entries and uses the naturals 1, 2, 3, ... in order.
    It needs at most ``m.degree`` of them, so any trunc >= degree always
    suffices.
    """
    _check_trunc(trunc)
    if relation not in problematic_relations(m):
        raise ValueError(f"{relation} is not a problematic relation of {m}")
    out = _representative(_mask(m) & ~(1 << relation.position), m.degree)
    if out.max_natural() > trunc:
        raise TruncationError(f"resolution needs {out.max_natural()} naturals, trunc is {trunc}")
    return out


def resolve_all(m: Monomial, trunc: int) -> Monomial:
    """Resolve until no problematic relation remains; each step removes one."""
    _check_trunc(trunc)
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

    A quasisymmetric f is swept by equality mask instead, without
    building a monomial: the relations come from the mask, a resolution
    clears one bit, and every coefficient is read at the mask, which is
    its M-coordinate.  That is exact because a monomial's relations and
    resolutions depend only on its mask, and its coefficient only on its
    coordinate; with V >= degree + 1 every coordinate has a placement, so
    none reads as zero by mistake.
    """
    n = f.degree
    if f.trunc < n + 1:
        raise TruncationError(f"need trunc >= degree + 1 = {n + 1}, got {f.trunc}")
    coords = _coordinates(f)
    if coords is None:
        # a resolution is the minimal representative of its mask
        cases = ((_mask(m), f.coefficient(m)) for m in all_monomials(n, f.trunc))

        def resolved(mask: int) -> int:
            return f.coefficient(_representative(mask, n))

    else:
        # the all-ones mask is no coordinate and has no relation
        cases = ((mask, coords.get(mask, 0)) for mask in range(2 << n))

        def resolved(mask: int) -> int:
            return coords.get(mask, 0)

    for mask, c in cases:
        for _, p in _relations(mask, n):
            if 2 * c != resolved(mask & ~(1 << p)):
                return False
    return True


def _k_admits(g: tuple[Index, ...], members: Iterable[int]) -> bool:
    # Def of the K family on one tuple, kept local so this verifier does
    # not share code with the series constructors it cross-checks.
    padded = (0, *g, INF)
    return not any(padded[i - 1] == padded[i] == padded[i + 1] for i in members)


# Entries of the case-rule cache, one per (exponent pattern, right subset).
# An entry is keyed on the monomial's exponent tuple, whether its first
# pair is x0's and its last xinf's, and the subset's members, which
# k1_coefficient reads without slicing its pairs.  The oracles workload meets 32 right subsets of degree 5 times the 127
# patterns of degree 6, 4,064 entries; at about 240 bytes an entry
# (tracemalloc, degree 7), the full cache holds 3.9 MB.
_CASE_CACHE = 1 << 14


def k1_coefficient(mono: Monomial, right: SubsetSpec) -> int:
    """Case-rule coefficient of ``mono`` in the degree-1 empty-set K product.

    Equals the coefficient of ``mono`` in
    ``k_series((1, {})) * k_series(right)`` at any truncation covering
    the monomial.  Each variable of ``mono`` contributes per the case
    table: nothing when removing it leaves the K member's support, M for
    a border or an exponent-1 natural, and 2M for a higher natural
    exponent, where M is 2 to the number of distinct naturals of
    ``mono``.  The table depends only on the monomial's exponent pattern:
    the exponents of ``mono.pairs`` in index order and whether the first
    is x0's and the last xinf's.  So it runs once per pattern and right
    subset, keyed on those three, read in one pass.
    """
    if mono.degree != right.n + 1:
        raise ValueError(f"degree mismatch: monomial has {mono.degree}, expected {right.n + 1}")
    indices, exponents = zip(*mono.pairs)
    return _k1_case(exponents, indices[0] == 0, indices[-1] == INF, right.members)


@lru_cache(maxsize=_CASE_CACHE)
def _k1_case(exponents: tuple[int, ...], zero: bool, inf: bool, members: frozenset[int]) -> int:
    # The case table on the pattern's tuple, its naturals placed on 1, 2,
    # 3, ...; every monomial of the pattern has the same adjacent
    # equalities and borders, hence the same value.
    naturals = len(exponents) - zero - inf
    indices = (0,) * zero + tuple(range(1, naturals + 1)) + (INF,) * inf
    pairs = list(zip(indices, exponents))
    g = tuple(itertools.chain.from_iterable((i,) * e for i, e in pairs))
    big_m = 2 ** naturals
    total = 0
    for i, e in pairs:
        at = g.index(i)
        if not _k_admits(g[:at] + g[at + 1:], members):  # the tuple of mono / x_i
            continue
        if is_border(i) or e == 1:
            total += big_m
        else:
            total += 2 * big_m
    return total
