"""Change of basis between the K and L families and exact product decomposition.

Inclusion-exclusion over the subset lattice converts either family into
the other.  :func:`decompose_l` expresses a target series as an integer
combination of L members by walking every subset of [degree] in
increasing size (lexicographic within a size class), reading the
residual coefficient of the subset's canonical generic monomial,
checking it is divisible by the predicted power of two, and subtracting
that multiple of the L member.  A divisibility failure or a nonzero
final residual means the target is outside the span of the family.

:func:`rational_solve` is an independent cross-check: it solves the same
reconstruction problem as an exact linear system over the rationals,
one equation per monomial of the truncated slice, by Gauss-Jordan
elimination over ``Fraction``.  It shares nothing with the elimination
walk above, so agreement between the two is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

from .core import Monomial, Series, TruncationError
from .families import SubsetSpec, all_subsets, k_series, l_series, m_generic_monomial


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


def _signed_subsets(spec: SubsetSpec) -> dict[SubsetSpec, int]:
    members = spec.members_sorted()
    out = {}
    for size in range(len(members) + 1):
        for combo in combinations(members, size):
            out[SubsetSpec(spec.n, frozenset(combo))] = (-1) ** size
    return out


def k_from_l(spec: SubsetSpec) -> Decomposition:
    """The K member as the signed sum of L members over all subsets of its set."""
    return Decomposition(spec.n, "L", _signed_subsets(spec))


def l_from_k(spec: SubsetSpec) -> Decomposition:
    """The L member as the signed sum of K members; mirror of :func:`k_from_l`."""
    return Decomposition(spec.n, "K", _signed_subsets(spec))


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
    residual = target.terms.copy()  # private working copy; the target stays untouched
    coeffs: dict[SubsetSpec, int] = {}
    for spec in order:
        w = m_generic_monomial(spec, target.trunc)
        if w is None:
            continue
        c = residual.get(w, 0)
        if c == 0:
            continue
        divisor = 2 ** w.distinct_naturals()
        if c % divisor:
            raise NotDivisibleError(spec, w, c, divisor)
        k = c // divisor
        for m, lc in l_series(spec, target.trunc).terms.items():
            value = residual.get(m, 0) - k * lc
            if value:
                residual[m] = value
            else:
                residual.pop(m, None)
        coeffs[spec] = k
    if residual:
        witness = min(residual, key=Monomial.sort_key)
        raise NonzeroResidualError(witness, residual[witness])
    return Decomposition(d, "L", coeffs)


def decompose_k(target: Series) -> Decomposition:
    """Decompose onto the K family: L-decompose, then expand each L member in K."""
    by_l = decompose_l(target)
    out: dict[SubsetSpec, int] = {}
    for spec, c in by_l.coeffs.items():
        for sub, sign in _signed_subsets(spec).items():
            out[sub] = out.get(sub, 0) + c * sign
    return Decomposition(target.degree, "K", {s: c for s, c in out.items() if c})


def reconstruct(dec: Decomposition, trunc: int) -> Series:
    """Evaluate the combination at truncation V >= degree."""
    if trunc < dec.degree:
        raise TruncationError(f"need trunc >= degree {dec.degree}, got {trunc}")
    build = k_series if dec.basis == "K" else l_series
    total = Series.zero(dec.degree, trunc)
    for spec, c in dec.coeffs.items():
        total = total + build(spec, trunc).scale(c)
    return total


def rational_solve(columns: Sequence[Series], target: Series) -> Optional[list[Fraction]]:
    """Solve ``sum x_j * columns[j] == target`` exactly over the rationals.

    Returns one solution with free variables at zero, or None when the
    system is inconsistent (so no rational, hence no integer, combination
    exists).  All series must share the target's degree and truncation.
    """
    for col in columns:
        if col.degree != target.degree or col.trunc != target.trunc:
            raise ValueError("columns must match the target's degree and truncation")
    monomials = sorted(
        set(chain(target.terms, *(c.terms for c in columns))), key=Monomial.sort_key
    )
    rows = [
        [Fraction(c.coefficient(m)) for c in columns] + [Fraction(target.coefficient(m))]
        for m in monomials
    ]
    ncols = len(columns)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][ncols]
    return solution
