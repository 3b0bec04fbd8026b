"""Change of basis between the K and L families and exact product decomposition.

Inclusion-exclusion over the subset lattice converts either family into
the other.  :func:`decompose_l` expresses a target series as an integer
combination of L members, defined by a walk: take every subset of
[degree] in increasing size (lexicographic within a size class), read
the residual coefficient of the subset's canonical generic monomial,
check it is divisible by the predicted power of two, and subtract that
multiple of the L member.  A divisibility failure or a nonzero final
residual means the target is outside the span of the family.

The walk is not run; it is emulated on the target's V-free M-coordinates
(core module).  A quasisymmetric target is read through its
coordinates; any other through its smallest placements (naturals
exactly 1..k), keyed by coordinate, which are the only monomials the
walk reads, since generic monomials are smallest placements.  A degree-d
coordinate is one of the 2^(d+1) - 1 equality masks of a padded tuple
(bit j says g_j = g_{j+1}; the all-ones mask is no coordinate), and the
L member of a subset carries 2^mid(E) at every mask E containing the
subset's forced mask F, where mid(E) = d - popcount(E) counts E's
middle blocks.  So the target's coefficient at E, split as
2^mid(E) q(E) + r(E), gives the walk everything it reads once q is
Möbius-transformed over masks into g (Rota 1964): the residual at F is
2^mid(F) times the sum of g over the masks inside F, plus r(F), and
subtracting k times the member lowers g(F) by k and changes nothing
else.  The coefficients, their order and every error field are
therefore the walk's, for any subset order.  The subsets and their
forced masks are built once per degree.  The witness of a nonzero
residual is the smallest monomial of the target minus the
reconstruction of what was found; a target that is not quasisymmetric
always leaves one.
:func:`decompose_k` turns the L coefficients into K coefficients by one
signed superset sum over subset bitmasks, and :func:`reconstruct` sums
member coordinates and expands once.

:func:`rational_solve` is an independent cross-check: it solves the same
reconstruction problem as an exact linear system over the rationals by
fraction-free Gauss-Jordan elimination (each step scales a row by the
pivot, subtracts, and divides out the row's gcd; the answer is one
division per pivot).  It has one equation per M-coordinate when the
target and every column have coordinates, otherwise one per monomial of
their supports; every placement repeats its coordinate's equation, so
both give the same solution.  It shares no elimination code with the
decomposition above, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import Monomial, Series, TruncationError, _coordinates, _expand, _mask
from .families import SubsetSpec, _bits, _forced, _pattern_coords, _representative, all_subsets

if TYPE_CHECKING:
    from fractions import Fraction


class NotDivisibleError(ArithmeticError):
    """A residual coefficient is not divisible by the predicted power of two.

    Signals a target outside the span (or a truncation below the degree).
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
    and coefficients are; unhashable, since ``coeffs`` is a dict.
    """

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: Optional[dict[SubsetSpec, int]] = None):
        self.degree = degree
        self.basis = basis
        self.coeffs = {} if coeffs is None else coeffs
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.degree, int) or isinstance(self.degree, bool) or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        if self.basis not in ("K", "L"):
            raise ValueError(f"basis must be 'K' or 'L', got {self.basis!r}")
        for spec, c in self.coeffs.items():
            if spec.n != self.degree:
                raise ValueError(f"{spec!r} does not live in degree {self.degree}")
            if not isinstance(c, int) or isinstance(c, bool) or c == 0:
                raise ValueError(f"coefficient of {spec!r} must be a nonzero integer, got {c!r}")

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
# subsets, listed in the default order with their forced masks and by
# bitmask: 3.5 MB at degree 12 (the command line's largest
# decomposition) and 14 MB at 14; the benchmark decomposes at degrees 0
# to 7.
_MASK_TABLE_CACHE = 16


class _MaskTable(NamedTuple):
    """Degree-only data of the decomposition: the 2^d subsets of [d].

    Bit i - 1 of a subset bitmask is the member i; the forced mask of a
    subset is an equality mask (bit j is the flag g_j = g_{j+1}).
    """

    order: tuple       # (SubsetSpec, forced mask) in the default subset order
    specs: tuple       # subset bitmask -> the same SubsetSpec


@lru_cache(maxsize=_MASK_TABLE_CACHE)
def _mask_table(d: int) -> _MaskTable:
    order = tuple((spec, _bits(spec.members)) for spec in all_subsets(d))
    specs = [None] * len(order)
    for spec, bits in order:
        specs[bits] = spec
    return _MaskTable(tuple((spec, _forced(bits)) for spec, bits in order), tuple(specs))


def _subset_passes(values: list[int], passes: int, mobius: bool) -> None:
    # In place, for each bit j < passes and each index E without it: the
    # Möbius step values[E | 2^j] -= values[E], or the superset-sum step
    # values[E] += values[E | 2^j].  A pass works on strided or contiguous
    # slices, whichever needs fewer of them.
    size = len(values)
    for j in range(passes):
        h = 1 << j
        if 2 * h * h < size:
            pairs = [(slice(r, None, 2 * h), slice(h + r, None, 2 * h)) for r in range(h)]
        else:
            pairs = [(slice(b, b + h), slice(b + h, b + 2 * h)) for b in range(0, size, 2 * h)]
        for lo, hi in pairs:
            if mobius:
                values[hi] = map(sub, values[hi], values[lo])
            else:
                values[lo] = map(add, values[lo], values[hi])


def _validate_order(order: Sequence[SubsetSpec], degree: int) -> None:
    sizes = [len(s.members) for s in order]
    if sizes != sorted(sizes):
        raise ValueError("subset order must be nondecreasing in size")
    if sorted(s.members_sorted() for s in order) != sorted(s.members_sorted() for s in _mask_table(degree).specs):
        raise ValueError(f"subset order must cover every subset of [{degree}] exactly once")
    if any(s.n != degree for s in order):
        raise ValueError(f"every subset must have n = {degree}")


def decompose_l(target: Series, subset_order: Optional[Iterable[SubsetSpec]] = None) -> Decomposition:
    """Decompose a series in the span onto the L family.

    The order in which same-size subsets are processed only affects which
    of several coinciding L members absorbs a coefficient, never the
    reconstruction; the default order (size, then lexicographic) makes
    the output canonical.  Raises :class:`NotDivisibleError` or
    :class:`NonzeroResidualError` for targets outside the span and
    :class:`TruncationError` when trunc < degree.

    The walk is emulated (see the module docstring).  The coefficient at
    each mask E is split as 2^mid(E) q(E) + r(E), 0 <= r(E) < 2^mid(E),
    and q is Möbius-transformed into g in d + 1 passes.  A subset with
    forced mask F reads s, the sum of the nonzero g(G) over G inside F:
    the walk's residual there is 2^mid(F) s + r(F), so a nonzero r(F) is
    the walk's :class:`NotDivisibleError`, s = 0 its skip, and otherwise
    s is recorded and g(F) lowered by s.  The walk leaves a residual
    exactly when some g off the all-ones mask or some remainder is left.
    """
    d = target.degree
    if target.trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {target.trunc}")
    table = _mask_table(d)
    if subset_order is None:
        order: Sequence[tuple[SubsetSpec, int]] = table.order
    else:
        specs = list(subset_order)
        _validate_order(specs, d)
        order = [(spec, _forced(_bits(spec.members))) for spec in specs]
    coords = _coordinates(target)
    read = coords
    if coords is None:
        # the walk reads only generic monomials, which are smallest placements
        read = {_mask(m): c for m, c in target.terms.items() if m.max_natural() == m.distinct_naturals()}
    full = (1 << (d + 1)) - 1
    g = [0] * (full + 1)
    rem: dict[int, int] = {}
    for mask, c in read.items():
        g[mask], r = divmod(c, 1 << d - mask.bit_count())
        if r:
            rem[mask] = r
    _subset_passes(g, d + 1, mobius=True)
    left = {mask: v for mask, v in enumerate(g) if v and mask != full}
    coeffs: dict[SubsetSpec, int] = {}
    for spec, forced in order:
        if forced == full:
            continue  # the forced chain joins 0 to inf: the L member is zero
        s = sum([v for mask, v in left.items() if mask | forced == forced])
        r = rem.get(forced)
        if r:
            divisor = 1 << d - forced.bit_count()
            raise NotDivisibleError(spec, _representative(forced, d), s * divisor + r, divisor)
        if s:
            coeffs[spec] = s
            v = left.get(forced, 0) - s
            if v:
                left[forced] = v
            else:
                del left[forced]
    found = Decomposition._trusted(d, "L", coeffs)
    if left or rem or coords is None:
        rest = target - reconstruct(found, target.trunc)
        rest_coords = _coordinates(rest)
        # a coordinate's smallest monomial places its word on 1, 2, ...
        terms = rest.terms if rest_coords is None else {_representative(k, d): c for k, c in rest_coords.items()}
        if terms:
            witness, c = min(terms.items(), key=lambda mc: mc[0].sort_key())
            raise NonzeroResidualError(witness, c)
    return found


def decompose_k(target: Series) -> Decomposition:
    """Decompose onto the K family: L-decompose, then expand each L member in K.

    L_S is the signed sum of K_T over T within S, sign (-1)^|T|, so the K
    coefficient of T is (-1)^|T| times the sum of the L coefficients over
    the supersets of T: one superset sum over subset bitmasks, d passes.
    """
    d = target.degree
    by_l = decompose_l(target).coeffs
    specs = _mask_table(d).specs
    sums = [0] * len(specs)
    for spec, c in by_l.items():
        sums[_bits(spec.members)] = c
    _subset_passes(sums, d, mobius=False)
    return Decomposition._trusted(d, "K", {
        specs[bits]: -c if bits.bit_count() & 1 else c for bits, c in enumerate(sums) if c
    })


def reconstruct(dec: Decomposition, trunc: int) -> Series:
    """Evaluate the combination at truncation V >= degree."""
    if trunc < dec.degree:
        raise TruncationError(f"need trunc >= degree {dec.degree}, got {trunc}")
    coords: dict[int, int] = {}
    for spec, c in dec.coeffs.items():
        for key, v in _pattern_coords(dec.basis, spec, 2).items():
            coords[key] = coords.get(key, 0) + c * v
    return _expand(dec.degree, trunc, {key: c for key, c in coords.items() if c})


def rational_solve(columns: Sequence[Series], target: Series) -> Optional[list[Fraction]]:
    """Solve ``sum x_j * columns[j] == target`` exactly over the rationals.

    Returns one solution with free variables at zero, or None when the
    system is inconsistent (so no rational, hence no integer, combination
    exists).  All series must share the target's degree and truncation.
    """
    for col in columns:
        if col.degree != target.degree or col.trunc != target.trunc:
            raise ValueError("columns must match the target's degree and truncation")
    series = (*columns, target)
    tables = [_coordinates(s) for s in series]
    if any(t is None for t in tables):
        tables = [s.terms for s in series]
    rows = [[t.get(key, 0) for t in tables] for key in set(chain(*tables))]
    ncols = len(columns)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        pv = pivot[col]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                f = row[col]
                row = [pv * a - f * b for a, b in zip(row, pivot)]
                g = math.gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    # imported here, so that no request that skips this cross-check loads fractions and decimal
    from fractions import Fraction

    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = Fraction(row[ncols], row[col])
    return solution
