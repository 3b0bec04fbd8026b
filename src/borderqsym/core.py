"""Exact sparse arithmetic for homogeneous power series over a bordered alphabet.

Variables are indexed by the totally ordered set 0 < 1 < 2 < ... < inf.
x0 and xinf are the bordering variables; x1, x2, ... are the natural
variables.  A :class:`Series` is a finite integer combination of
degree-d monomials using natural indices up to a truncation V; all
coefficients are arbitrary-precision integers and every operation is
exact.

Monomial text encoding: factors joined by ``*`` in index order, with the
exponent suffix ``^e`` omitted when e is 1, e.g. ``x0^2*x3*xinf^2``.
The empty monomial encodes as ``1``.

Everything here is immutable after construction, so values can be shared
freely across threads.
"""

from __future__ import annotations

import itertools
import math
import re
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

INF: float = float("inf")

# A variable index: 0, a positive integer, or INF.
Index = Union[int, float]


class TruncationError(ValueError):
    """An operation needs more natural variables than the truncation V allows."""


def is_natural(i: Index) -> bool:
    return i != 0 and i != INF


def is_border(i: Index) -> bool:
    return i == 0 or i == INF


def _check_index(i: Index) -> None:
    if i == INF or (isinstance(i, int) and i >= 0):
        return
    raise ValueError(f"invalid variable index {i!r}")


def index_str(i: Index) -> str:
    return "xinf" if i == INF else f"x{i}"


def alphabet(trunc: int) -> tuple[Index, ...]:
    """All indices available at truncation V, in increasing order."""
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    return (0, *range(1, trunc + 1), INF)


_FACTOR_RE = re.compile(r"^x(0|[1-9][0-9]*|inf)(?:\^([2-9]|[1-9][0-9]+))?$")


class Monomial:
    """A finite multiset of variable indices.

    Stored as a sorted tuple of (index, exponent) pairs with positive
    exponents; the degree (total exponent) is cached.  Equivalent to the
    nondecreasing index tuple returned by :meth:`indices`.
    """

    __slots__ = ("pairs", "degree")

    def __init__(self, exponents: Mapping[Index, int] | Iterable[tuple[Index, int]] = ()):
        items = dict(exponents)
        for i, e in items.items():
            _check_index(i)
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {index_str(i)} must be a nonnegative integer, got {e!r}")
        self.pairs: tuple[tuple[Index, int], ...] = tuple(
            sorted((i, e) for i, e in items.items() if e > 0)
        )
        self.degree: int = sum(e for _, e in self.pairs)

    @classmethod
    def from_indices(cls, g: Iterable[Index]) -> "Monomial":
        """Build from a nondecreasing index tuple (g_1, ..., g_d).

        Rejects input that is not sorted, which always signals a caller
        bug since the nondecreasing form is the canonical one.
        """
        g = tuple(g)
        if any(a > b for a, b in zip(g, g[1:])):
            raise ValueError(f"index tuple {g!r} is not nondecreasing")
        counts: dict[Index, int] = {}
        for i in g:
            counts[i] = counts.get(i, 0) + 1
        return cls(counts)

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Inverse of ``str``; accepts only the canonical encoding."""
        if text == "1":
            return cls()
        exponents: dict[Index, int] = {}
        last: Index = -1
        for factor in text.split("*"):
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise ValueError(f"bad monomial factor {factor!r} in {text!r}")
            i: Index = INF if m.group(1) == "inf" else int(m.group(1))
            if i <= last:
                raise ValueError(f"factors of {text!r} not in increasing index order")
            last = i
            exponents[i] = int(m.group(2)) if m.group(2) else 1
        return cls(exponents)

    def exponent(self, i: Index) -> int:
        for j, e in self.pairs:
            if j == i:
                return e
        return 0

    def indices(self) -> tuple[Index, ...]:
        """The expanded nondecreasing tuple (g_1, ..., g_d)."""
        return tuple(itertools.chain.from_iterable((i,) * e for i, e in self.pairs))

    def support(self) -> tuple[Index, ...]:
        return tuple(i for i, _ in self.pairs)

    def distinct_naturals(self) -> int:
        return sum(1 for i, _ in self.pairs if is_natural(i))

    def max_natural(self) -> int:
        best = 0
        for i, _ in self.pairs:
            if is_natural(i):
                best = int(i) if i > best else best
        return best

    def drop_one(self, i: Index) -> "Monomial":
        """Divide by the variable x_i once; x_i must be present."""
        e = self.exponent(i)
        if e == 0:
            raise ValueError(f"{self} has no factor {index_str(i)}")
        return Monomial({j: (ej - 1 if j == i else ej) for j, ej in self.pairs})

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged = dict(self.pairs)
        for i, e in other.pairs:
            merged[i] = merged.get(i, 0) + e
        return Monomial(merged)

    def sort_key(self) -> tuple:
        return (self.degree, self.indices())

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __str__(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(index_str(i) + (f"^{e}" if e > 1 else "") for i, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


def all_monomials(degree: int, trunc: int) -> Iterator[Monomial]:
    """Every degree-d monomial over the alphabet at truncation V."""
    for g in itertools.combinations_with_replacement(alphabet(trunc), degree):
        yield Monomial.from_indices(g)


class Series:
    """A homogeneous series: a sparse map from degree-d monomials to integers.

    Invariants enforced on construction: every stored monomial has the
    tracked degree, uses natural indices up to ``trunc`` only, and no
    stored coefficient is zero.  A zero series keeps its degree tag.
    ``terms`` is a read-only view, so a shared (cached) series cannot be
    altered through it.
    """

    __slots__ = ("degree", "trunc", "terms")

    def __init__(self, degree: int, trunc: int, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        if not isinstance(trunc, int) or trunc < 1:
            raise ValueError(f"truncation must be a positive integer, got {trunc!r}")
        clean: dict[Monomial, int] = {}
        for m, c in dict(terms).items():
            if not isinstance(c, int):
                raise ValueError(f"coefficient of {m} must be an integer, got {c!r}")
            if c == 0:
                continue
            if m.degree != degree:
                raise ValueError(f"monomial {m} has degree {m.degree}, series is homogeneous of degree {degree}")
            if m.max_natural() > trunc:
                raise ValueError(f"monomial {m} uses a natural index beyond truncation {trunc}")
            clean[m] = c
        self.degree = degree
        self.trunc = trunc
        self.terms = MappingProxyType(clean)

    @classmethod
    def zero(cls, degree: int, trunc: int) -> "Series":
        return cls(degree, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def add(self, other: "Series") -> "Series":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")
        out = self.terms.copy()
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Series(self.degree, self.trunc, out)

    def scale(self, c: int) -> "Series":
        if not isinstance(c, int):
            raise ValueError(f"scale factor must be an integer, got {c!r}")
        return Series(self.degree, self.trunc, {m: c * v for m, v in self.terms.items()})

    def mul(self, other: "Series") -> "Series":
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return Series(self.degree + other.degree, self.trunc, out)

    def restrict(self, trunc: int) -> "Series":
        """Drop every monomial using a natural index beyond the new truncation.

        Setting the extra variables to zero is a ring map, so restricting
        commutes with addition and multiplication.
        """
        if not isinstance(trunc, int) or trunc < 1:
            raise ValueError(f"truncation must be a positive integer, got {trunc!r}")
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {trunc}")
        return Series(self.degree, trunc, {m: c for m, c in self.terms.items() if m.max_natural() <= trunc})

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self.add(other.scale(-1))

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Series):
            return self.mul(other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Series)
            and self.degree == other.degree
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Series(degree={self.degree}, trunc={self.trunc}, nterms={len(self.terms)})"


def relabel_check(series: Series) -> bool:
    """True iff the series is quasisymmetric in the natural variables.

    The coefficient of a monomial may depend on its border exponents and
    on the word of natural exponents read in increasing index order, but
    not on which strictly increasing natural indices carry that word.
    Checked against every index choice within [1..trunc], so absent
    relabelings count as coefficient zero.
    """
    groups: dict[tuple, dict[tuple, int]] = {}
    for m, c in series.terms.items():
        e0 = m.exponent(0)
        einf = m.exponent(INF)
        naturals = [(i, e) for i, e in m.pairs if is_natural(i)]
        word = tuple(e for _, e in naturals)
        supp = tuple(i for i, _ in naturals)
        groups.setdefault((e0, word, einf), {})[supp] = c
    for (e0, word, einf), placements in groups.items():
        expected = math.comb(series.trunc, len(word))
        if len(placements) != expected:
            return False
        coeffs = set(placements.values())
        if len(coeffs) != 1:
            return False
    return True
