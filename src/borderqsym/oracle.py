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
makes the elimination in the basis module terminate at zero.  The
case-rule coefficient function recomputes degree-1 K product
coefficients per variable, without ever multiplying series.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import INF, Index, Monomial, Series, TruncationError, all_monomials, is_border, is_natural
from .families import SubsetSpec, equality_pattern, pattern_representative


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


def problematic_relations(m: Monomial) -> tuple[ProblematicRelation, ...]:
    """All problematic relations of m, ordered by position; empty iff special."""
    t: tuple[Index, ...] = (0, *m.indices(), INF)
    n = m.degree
    out = []
    if m.exponent(0) == 1:
        out.append(ProblematicRelation(RelationKind.BORDER_ZERO, 0))
    for i, e in m.pairs:
        if is_natural(i) and e == 2:
            # both neighbors differ automatically: only two copies of i exist
            position = t.index(i)
            out.append(ProblematicRelation(RelationKind.INTERIOR_SQUARE, position))
    if m.exponent(INF) == 1:
        out.append(ProblematicRelation(RelationKind.BORDER_INF, n))
    return tuple(sorted(out, key=lambda r: r.position))


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
    """
    if f.trunc < f.degree + 1:
        raise TruncationError(f"need trunc >= degree + 1 = {f.degree + 1}, got {f.trunc}")
    for m in all_monomials(f.degree, f.trunc):
        relations = problematic_relations(m)
        if not relations:
            continue
        c = f.coefficient(m)
        for relation in relations:
            if 2 * c != f.coefficient(resolve(m, relation, f.trunc)):
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
    total = 0
    for i, e in mono.pairs:
        quotient = mono.drop_one(i)
        if not _k_admits(quotient.indices(), right.members):
            continue
        if is_border(i) or e == 1:
            total += big_m
        else:
            total += 2 * big_m
    return total
