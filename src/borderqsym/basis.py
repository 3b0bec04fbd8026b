"""Change of basis between the K and L families and exact product decomposition.

Inclusion-exclusion over the subset lattice converts either family into
the other.  :func:`decompose_l` expresses a target series as an integer
combination of L members by walking every subset of [degree] in
increasing size (lexicographic within a size class), reading the
residual coefficient of the subset's canonical generic monomial,
checking it is divisible by the predicted power of two, and subtracting
that multiple of the L member.  A divisibility failure or a nonzero
final residual means the target is outside the span of the family.

The walk runs on one key space, the V-free M-coordinates of the core
module, and subtracts V-free L members, so no member is built at V.  A
quasisymmetric target seeds the residual with its coordinates; any other
target with its smallest placements (naturals exactly 1..k), keyed by
coordinate.  Generic monomials are smallest placements, and every L
member carries its coordinate's coefficient there, so the coefficients
and errors are those of a walk on monomials at V.  The witness of a
nonzero residual is the smallest monomial of the target minus the
reconstruction of what was found; a target that is not quasisymmetric
always leaves one.  :func:`reconstruct` sums coordinates, expands once.

:func:`rational_solve` is an independent cross-check: it solves the same
reconstruction problem as an exact linear system over the rationals by
fraction-free Gauss-Jordan elimination (each step scales a row by the
pivot, subtracts, and divides out the row's gcd; the answer is one
division per pivot).  It has one equation per M-coordinate when the
target and every column have coordinates, otherwise one per monomial of
their supports; every placement repeats its coordinate's equation, so
both give the same solution.  It shares no elimination code with the
walk above, so agreement between the two is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence

from .core import Monomial, Series, TruncationError, _coordinates, _expand, _key
from .families import (
    SubsetSpec,
    _forced_equalities,
    _pattern_coords,
    _pattern_key,
    _representative,
    all_subsets,
)


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


@dataclass
class Decomposition:
    """An integer combination of same-degree K or L members.

    ``coeffs`` maps each participating subset to its nonzero integer
    coefficient; reconstructing the combination at any V >= degree
    reproduces the decomposed series exactly.
    """

    degree: int
    basis: str
    coeffs: dict[SubsetSpec, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.basis not in ("K", "L"):
            raise ValueError(f"basis must be 'K' or 'L', got {self.basis!r}")
        for spec, c in self.coeffs.items():
            if spec.n != self.degree:
                raise ValueError(f"{spec!r} does not live in degree {self.degree}")
            if not isinstance(c, int) or c == 0:
                raise ValueError(f"coefficient of {spec!r} must be a nonzero integer, got {c!r}")

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


def _validate_order(order: Sequence[SubsetSpec], degree: int) -> None:
    sizes = [len(s.members) for s in order]
    if sizes != sorted(sizes):
        raise ValueError("subset order must be nondecreasing in size")
    if sorted(s.members_sorted() for s in order) != sorted(s.members_sorted() for s in all_subsets(degree)):
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
    """
    d = target.degree
    if target.trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {target.trunc}")
    if subset_order is None:
        order: Sequence[SubsetSpec] = list(all_subsets(d))
    else:
        order = list(subset_order)
        _validate_order(order, d)
    coords = _coordinates(target)
    if coords is None:
        # the walk reads only generic monomials, which are smallest placements
        residual = {
            _key(m): c for m, c in target.terms.items() if m.max_natural() == m.distinct_naturals()
        }
    else:
        residual = coords.copy()  # a private working copy; the target stays untouched
    coeffs: dict[SubsetSpec, int] = {}
    for spec in order:
        generic = _pattern_key(_forced_equalities(spec))  # the generic monomial's coordinate
        if generic is None:
            continue
        c = residual.get(generic, 0)
        if c == 0:
            continue
        divisor = 2 ** len(generic[1])
        if c % divisor:
            raise NotDivisibleError(spec, _representative(generic), c, divisor)
        k = c // divisor
        for key, lc in _pattern_coords("L", spec, 2).items():
            value = residual.get(key, 0) - k * lc
            if value:
                residual[key] = value
            else:
                residual.pop(key, None)
        coeffs[spec] = k
    found = Decomposition(d, "L", coeffs)
    if residual or coords is None:
        left = target - reconstruct(found, target.trunc)
        if not left.is_zero():
            witness, c = min(left.terms.items(), key=lambda mc: mc[0].sort_key())
            raise NonzeroResidualError(witness, c)
    return found


def decompose_k(target: Series) -> Decomposition:
    """Decompose onto the K family: L-decompose, then expand each L member in K."""
    by_l = decompose_l(target)
    out: dict[frozenset[int], int] = {}
    for spec, c in by_l.coeffs.items():
        for sub, sign in _signed_subsets(spec):
            out[sub] = out.get(sub, 0) + c * sign
    return Decomposition(target.degree, "K", {SubsetSpec(target.degree, sub): c for sub, c in out.items() if c})


def reconstruct(dec: Decomposition, trunc: int) -> Series:
    """Evaluate the combination at truncation V >= degree."""
    if trunc < dec.degree:
        raise TruncationError(f"need trunc >= degree {dec.degree}, got {trunc}")
    coords: dict[tuple, int] = {}
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
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = Fraction(row[ncols], row[col])
    return solution
