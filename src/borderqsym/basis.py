"""Change of basis between the K and L families and exact product decomposition.

Inclusion-exclusion over the subset lattice converts either family into
the other.  :func:`decompose_l` expresses a target series as an integer
combination of L members in its minimal form, each distinct member at
most once, or says that the target is outside the span of the family.

It reads the target's V-free M-coordinates (core module).  A
quasisymmetric target is read through its coordinates; any other through
its smallest placements (naturals exactly 1..k), keyed by coordinate.  A
degree-d coordinate is one of the 2^(d+1) - 1 equality masks of a padded
tuple (bit j says g_j = g_{j+1}; the all-ones mask is no coordinate).
The L member of a subset depends only on the subset's forced mask F: it
carries 2^mid(E) at every mask E containing F, where
mid(E) = d - popcount(E) counts E's middle blocks.  Members of distinct
forced masks are independent, and the forced masks are the masks without
a lone bit, so the members of the forced masks below all-ones are a basis
of the span, which the paper shows is closed under products.  A
combination putting G(F) on each forced mask has 2^mid(E) h(E) at E,
where h(E) sums G over the forced masks inside E, and those are exactly
the forced masks inside E's forced core, E without its lone bits: h is h
read at the cores.  The Möbius transform of any h (Rota, "On the
foundations of combinatorial theory I", 1964), d + 1 passes of Yates'
transform, vanishes at every mask with a lone bit exactly when h is h
read at the cores: for a lone bit b of E, the subsets T and T ^ b of E
share a core, so their terms cancel; and the forced masks inside E are
those inside its core.  So the target's coefficient at each mask is
split as 2^mid(E) h(E) + r(E), 0 <= r(E) < 2^mid(E); G is the transform
of h, and the target is in the span exactly when no r is left and G
vanishes off the forced masks.  Each nonzero G(F) goes to F's first
subset, by size and then lexicographically.  A remainder at a forced
mask is a :class:`NotDivisibleError` for the first subset forcing such a
mask; any other leftover is a :class:`NonzeroResidualError` whose
witness is the smallest monomial of the target minus its span part,
2^mid(E) times h at E's core at each mask E (a target that is not
quasisymmetric always leaves one).  These are the errors of
the walk that subtracts L members subset by subset in that order, with
every field but the NotDivisible coefficient, which is the target's own.
:func:`decompose_k` turns the L coefficients into K coefficients by one
signed superset sum over subset bitmasks.  :func:`reconstruct` runs the
same transform forward.  With T(E) = E & E >> 1, whose bit i - 1 says
that position i sits inside an equal triple, the L member of S carries
2^mid(E) at E when bits(S) lies inside T(E), and the K member when
bits(S) lies inside T(E)'s complement in d bits.  So a combination has
2^mid(E) times the subset sum of its coefficients, listed by subset
bitmask, at T(E) (L) or at its complement (K): d passes and one read per
mask, without building a member.  Below degree 8, a combination of a few
members (``_MEMBER_SUM``) sums their cached tables instead.

:func:`rational_solve` is an independent cross-check: it solves the same
reconstruction problem as an exact linear system over the rationals by
fraction-free Gauss-Jordan elimination (each step scales a row by the
pivot, subtracts, and divides out the row's gcd; the answer is one
division per pivot).  It reads one equation per M-coordinate when the
target and every column have coordinates, otherwise one per monomial of
their supports; every placement repeats its coordinate's equation, so
both give the same solution.  A target without coordinates against
columns that all have them is answered None at once: a combination of
quasisymmetric columns is quasisymmetric.  It then keeps one equation per distinct
row up to its content (the gcd of its entries, target included) and one
unknown per distinct column, and eliminates only those.  A family
system collapses this way: with T(E) = E & E >> 1, a member's
coefficient at E is 2^mid(E) times a function of T(E) alone, so at
degree 7 its 255 equations are 64, and the 128 L members are 65 distinct
columns.  Dropping a scaled or repeated equation keeps the solution set,
and a later copy of a column never pivots, so the answer is the one of
the full system.  It shares no elimination code with the decomposition
above, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, compress, repeat
from operator import add, and_, lshift, rshift, sub
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .core import Monomial, Series, TruncationError, _check_int, _check_trunc, _expand, _mask
from .families import SubsetSpec, _forced, _lone, _pattern_coords, _representative, all_subsets

if TYPE_CHECKING:
    from fractions import Fraction


class NotDivisibleError(ArithmeticError):
    """A coefficient at a forced mask is not divisible by the predicted power of two.

    Signals a target outside the span.  ``spec`` is the first subset
    forcing such a mask and ``coefficient`` the target's own at ``monomial``.
    """

    def __init__(self, spec: SubsetSpec, monomial: Monomial, coefficient: int, divisor: int):
        self.spec = spec
        self.monomial = monomial
        self.coefficient = coefficient
        self.divisor = divisor
        super().__init__(
            f"coefficient {coefficient} of {monomial} not divisible by {divisor} while processing {spec!r}"
        )


class NonzeroResidualError(ValueError):
    """Elimination finished with leftovers; the target is outside the span."""

    def __init__(self, witness: Monomial, coefficient: int):
        self.witness = witness
        self.coefficient = coefficient
        super().__init__(f"nonzero residual: coefficient {coefficient} of {witness}")


class Decomposition:
    """An integer combination of same-degree K or L members.

    ``coeffs`` maps each participating subset to its nonzero integer
    coefficient; reconstructing the combination at any V >= degree
    reproduces the decomposed series exactly.  Equal when degree, basis
    and coefficients are; unhashable, since ``coeffs`` is a dict.  The
    constructor validates every key and coefficient once and keeps a copy
    of ``coeffs``, so a later change to the caller's dict is not seen.
    Not frozen: no cache shares a decomposition, so each one is its
    caller's own.
    """

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: Optional[dict[SubsetSpec, int]] = None):
        _check_int(degree, "degree", "nonnegative")
        if basis not in ("K", "L"):
            raise ValueError(f"basis must be 'K' or 'L', got {basis!r}")
        coeffs = {} if coeffs is None else coeffs
        for spec, c in coeffs.items():
            if not isinstance(spec, SubsetSpec) or spec.n != degree:
                raise ValueError(f"{spec!r} does not live in degree {degree}")
            _check_int(c, "coefficient", "nonzero", spec)
        self.degree = degree
        self.basis = basis
        self.coeffs = dict(coeffs)

    @classmethod
    def _trusted(cls, degree: int, basis: str, coeffs: dict[SubsetSpec, int]) -> "Decomposition":
        # For coefficients that are valid by construction: degree-matching
        # specs and nonzero integers.
        dec = object.__new__(cls)
        dec.degree = degree
        dec.basis = basis
        dec.coeffs = coeffs
        return dec

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.degree, self.basis, self.coeffs) == (other.degree, other.basis, other.coeffs)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Decomposition(degree={self.degree!r}, basis={self.basis!r}, coeffs={self.coeffs!r})"

    def sorted_items(self) -> list[tuple[SubsetSpec, int]]:
        return sorted(self.coeffs.items(), key=lambda sc: sc[0].size_lex_key())

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [
                {"set": list(spec.members_sorted()), "coeff": c}
                for spec, c in self.sorted_items()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Decomposition":
        degree = obj["degree"]
        coeffs = {
            SubsetSpec(degree, frozenset(term["set"])): term["coeff"]
            for term in obj["terms"]
        }
        return cls(degree, obj["basis"], coeffs)


def _signed_subsets(spec: SubsetSpec) -> Iterator[tuple[frozenset[int], int]]:
    members = spec.members_sorted()
    for size in range(len(members) + 1):
        for combo in combinations(members, size):
            yield frozenset(combo), (-1) ** size


def k_from_l(spec: SubsetSpec) -> Decomposition:
    """The K member as the signed sum of L members over all subsets of its set."""
    return Decomposition(spec.n, "L", {SubsetSpec(spec.n, sub): sign for sub, sign in _signed_subsets(spec)})


def l_from_k(spec: SubsetSpec) -> Decomposition:
    """The L member as the signed sum of K members; mirror of :func:`k_from_l`."""
    return Decomposition(spec.n, "K", {SubsetSpec(spec.n, sub): sign for sub, sign in _signed_subsets(spec)})


# Entries of the mask table cache, one per degree.  A table holds the 2^d
# subsets by bitmask and the first subset of each forced mask: 3.1 MB at
# degree 12 (the command line's largest decomposition), 13 MB at 14 and
# 54 MB at 16, by tracemalloc; the benchmark decomposes at degrees 0 to 7.
_MASK_TABLE_CACHE = 16


class _MaskTable(NamedTuple):
    """Degree-only data of the decomposition.

    Bit i - 1 of a subset bitmask is the member i; a forced mask is an
    equality mask (bit j is the flag g_j = g_{j+1}).
    """

    reads: tuple       # (first subset's bitmask, forced mask) per forced mask below all-ones, in size-lex order
    specs: tuple       # subset bitmask -> SubsetSpec


@lru_cache(maxsize=_MASK_TABLE_CACHE)
def _mask_table(d: int) -> _MaskTable:
    full = (2 << d) - 1
    specs = [None] * (1 << d)
    firsts = {}
    for spec in all_subsets(d):
        bits = spec._bitmask
        specs[bits] = spec
        firsts.setdefault(_forced(bits), bits)
    firsts.pop(full, None)  # the forced chain joins 0 to inf: the L member is zero
    return _MaskTable(tuple((bits, forced) for forced, bits in firsts.items()), tuple(specs))


def _subset_passes(values: list[int], op) -> list[int]:
    # Yates' transform (1937) of a list of length 2^k: for each bit j < k,
    # each index E with it takes op(values[E], values[E - 2^j]), so add
    # gives subset sums and sub their Möbius inverse.  A pass pairs the
    # neighbours 2i and 2i + 1, which differ in the lowest bit, and moves
    # that bit to the top, so k passes visit every bit and restore the order.
    for _ in range(len(values).bit_length() - 1):
        evens = values[::2]
        values = [*evens, *map(op, values[1::2], evens)]
    return values


def _minimal_l(target: Series) -> tuple[_MaskTable, list[tuple[int, int]]]:
    """The mask table of the target's degree and the target's minimal L form.

    The form is a list of (subset bitmask, coefficient) pairs, one for
    each forced mask with a nonzero coefficient, on its first subset; see
    :func:`decompose_l` for the read and its errors.
    """
    d = target.degree
    if target.trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {target.trunc}")
    table = _mask_table(d)
    coords = target._coords
    read = coords
    if coords is None:
        # one monomial per coordinate: its smallest placement, on the naturals 1..k
        read = {_mask(m): c for m, c in target.terms.items() if m.max_natural() == m.distinct_naturals()}
    h = [0] * (2 << d)  # the all-ones mask, which is no coordinate, keeps 0
    rem: dict[int, int] = {}
    for mask, c in read.items():
        h[mask], r = divmod(c, 1 << d - mask.bit_count())
        if r:
            rem[mask] = r
    if rem:
        for bits, forced in table.reads:
            if forced in rem:
                raise NotDivisibleError(table.specs[bits], _representative(forced, d), read[forced],
                                        1 << d - forced.bit_count())
    g = _subset_passes(h, sub)
    terms = [(bits, c) for bits, forced in table.reads if (c := g[forced])]
    full = len(h) - 1
    # in the span g vanishes off the forced masks, so its nonzeros are the terms and g[full]
    if rem or coords is None or len(g) - g.count(0) != len(terms) + bool(g[full]):
        # what the span does not explain: the target minus h read at each mask's forced core
        span = {mask: h[mask & ~_lone(mask, d)] << d - mask.bit_count() for mask in range(full)}
        rest = target - _expand(d, target.trunc, span)
        rest_coords = rest._coords
        # a coordinate's smallest monomial places its word on 1, 2, ...
        terms_left = rest.terms if rest_coords is None else {_representative(k, d): c for k, c in rest_coords.items()}
        if terms_left:
            witness, c = min(terms_left.items(), key=lambda mc: mc[0].sort_key())
            raise NonzeroResidualError(witness, c)
    return table, terms


def decompose_l(target: Series) -> Decomposition:
    """Decompose a series in the span onto the L family, in its minimal form.

    Each distinct L member appears at most once, on its first subset by
    size and then lexicographically, which makes the output canonical.
    Raises :class:`NotDivisibleError` or :class:`NonzeroResidualError`
    for targets outside the span and :class:`TruncationError` when
    trunc < degree.

    One read (see the module docstring): the coefficient at each mask E
    is split as 2^mid(E) h(E) + r(E), 0 <= r(E) < 2^mid(E).  A nonzero
    r at a forced mask is the :class:`NotDivisibleError`.  The
    coefficients are the Möbius transform of h at the forced masks, and
    the target is in the span exactly when no r is left and the
    transform is zero at every other mask.
    """
    table, terms = _minimal_l(target)
    specs = table.specs
    return Decomposition._trusted(target.degree, "L", {specs[bits]: c for bits, c in terms})


def decompose_k(target: Series) -> Decomposition:
    """Decompose onto the K family: L-decompose, then expand each L member in K.

    L_S is the signed sum of K_T over T within S, sign (-1)^|T|, so the K
    coefficient of T is (-1)^|T| times the sum of the minimal L form's
    coefficients over the supersets of T: one subset sum over the
    complemented subset bitmasks, which is the reversed list, d passes.
    """
    table, terms = _minimal_l(target)
    specs = table.specs
    sums = [0] * len(specs)
    for bits, c in terms:
        sums[bits] = c
    sums = _subset_passes(sums[::-1], add)[::-1]
    return Decomposition._trusted(target.degree, "K", {
        specs[bits]: -c if bits.bit_count() & 1 else c for bits, c in enumerate(sums) if c
    })


# The combinations that reconstruct sums member by member: at most this
# many members of each (basis, degree).  The member sum of the cached
# tables measured faster than the subset sum for up to 6 K members, and
# for every minimal L form (at most 64 members), below degree 8.  No degree
# from 8 on is listed, where one sum could fill the member cache.
_MEMBER_SUM = {**{("K", d): 6 for d in range(8)}, **{("L", d): 64 for d in range(8)}}


def reconstruct(dec: Decomposition, trunc: int) -> Series:
    """Evaluate the combination at truncation V >= degree.

    The coordinate at each mask E is 2^mid(E) times the subset sum of the
    coefficients, by subset bitmask, read at T(E) = E & E >> 1 for L and
    at its complement for K (see the module docstring).  A combination
    that ``_MEMBER_SUM`` lists sums its members' tables instead.
    """
    _check_trunc(trunc)
    d = dec.degree
    if trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {trunc}")
    if len(dec.coeffs) <= _MEMBER_SUM.get((dec.basis, d), 0):
        coords: dict[int, int] = {}
        for spec, c in dec.coeffs.items():
            for key, v in _pattern_coords(dec.basis, spec, 2).items():
                coords[key] = coords.get(key, 0) + c * v
        return _expand(d, trunc, coords)
    sums = [0] * (1 << d)
    for spec, c in dec.coeffs.items():
        sums[spec._bitmask] = c
    sums = _subset_passes(sums, add)
    if dec.basis == "K":
        sums.reverse()  # index (2^d - 1) ^ T reads the sum at T's complement
    masks = range((2 << d) - 1)  # all but the all-ones mask
    on_t = map(sums.__getitem__, map(and_, masks, map(rshift, masks, repeat(1))))
    values = list(map(lshift, on_t, map(sub, repeat(d), map(int.bit_count, masks))))
    return _expand(d, trunc, dict(compress(zip(masks, values), values)))


def rational_solve(columns: Sequence[Series], target: Series) -> Optional[list[Fraction]]:
    """Solve ``sum x_j * columns[j] == target`` exactly over the rationals.

    Returns one solution with free variables at zero, or None when the
    system is inconsistent (so no rational, hence no integer, combination
    exists).  All series must share the target's degree and truncation.

    Each distinct column is one unknown; a later copy of a column could
    never pivot, so it keeps 0.  Each equation is divided by its content
    (the gcd of its entries, target included) and kept once.  Neither
    step changes the solution set or the pivot columns, so the answer is
    the one the full system gives.  A target without coordinates against
    columns that all have them is no combination of them: None at once.
    """
    for col in columns:
        if col.degree != target.degree or col.trunc != target.trunc:
            raise ValueError("columns must match the target's degree and truncation")
    series = (*columns, target)
    tables = [s._coords for s in series]
    if any(t is None for t in tables):
        if tables[-1] is None and None not in tables[:-1]:
            return None  # a combination of quasisymmetric columns is quasisymmetric
        tables = [s.terms for s in series]
    ncols = len(columns)
    by_key: dict = {}
    for j, table in enumerate(tables):
        for key, c in table.items():
            row = by_key.get(key)
            if row is None:
                row = by_key[key] = [0] * (ncols + 1)
            row[j] = c
    # columns equal on every row stay equal once rows are scaled; with no rows every column is empty
    *by_column, rhs = zip(*by_key.values()) if by_key else [()] * (ncols + 1)
    firsts: dict = {}
    for j, entries in enumerate(by_column):
        firsts.setdefault(entries, j)
    kept = list(firsts.values())
    distinct: dict = {}
    for row in zip(*map(by_column.__getitem__, kept), rhs):
        g = math.gcd(*row)
        distinct[tuple([a // g for a in row]) if g > 1 else row] = None
    rows = list(map(list, distinct))
    width = len(kept)
    pivots: list[int] = []
    leads: list[int] = []  # the pivot entry of each pivot row, kept aside
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        pv = pivot[col]
        ahead = pivot[col + 1:]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                # the pivot row is zero before col, so only the entries ahead
                # of it change, and a pivot row's own pivot entry scales by pv
                f = row[col]
                tail = [pv * a - f * b for a, b in zip(row[col + 1:], ahead)]
                if i < r:
                    g = math.gcd(pv * leads[i], *tail)
                    leads[i] = pv * leads[i] // g
                else:
                    g = math.gcd(*tail)
                row[col + 1:] = [a // g for a in tail] if g > 1 else tail
        pivots.append(col)
        leads.append(pv)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][width] != 0:
            return None
    # imported here, so that no request that skips this cross-check loads fractions and decimal
    from fractions import Fraction

    solution = [Fraction(0)] * ncols
    for row, col, lead in zip(rows, pivots, leads):
        solution[kept[col]] = Fraction(row[width], lead)
    return solution
