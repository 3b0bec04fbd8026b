"""The K and L series families and their generic monomials.

Both families are indexed by a degree n and a subset of the positions
1..n.  A member sums over all nondecreasing index tuples (g_1, ..., g_n)
drawn from the alphabet at truncation V, padded with g_0 = 0 and
g_{n+1} = inf.  The K member keeps exactly the tuples where no selected
position i sits inside an equal triple g_{i-1} = g_i = g_{i+1}; the L
member keeps exactly the tuples where every selected position does.
Each kept tuple contributes its monomial weighted by 2 raised to the
number of distinct natural indices it uses (an arbitrary nonzero base q
replaces the 2 in :func:`k_series_q`).

A padded tuple is fixed by its equality pattern (the n + 1 flags
g_i = g_{i+1}) and one increasing natural per middle block.  The triple
test and the weight depend only on the pattern, so members are built
pattern by pattern; generic monomials and the oracle's resolutions go
through the same :func:`pattern_representative`.

The generic monomials of an L member are those whose only equalities are
the forced ones; they drive the decomposition of products back onto the
L family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .core import INF, Monomial, Series, TruncationError, alphabet, is_natural


@dataclass(frozen=True)
class SubsetSpec:
    """A subset of [n] together with its ambient n."""

    n: int
    members: frozenset[int] = frozenset()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        members = frozenset(self.members)
        for i in members:
            if not isinstance(i, int) or not 1 <= i <= self.n:
                raise ValueError(f"member {i!r} outside 1..{self.n}")
        object.__setattr__(self, "members", members)

    @classmethod
    def parse(cls, n: int, text: str) -> "SubsetSpec":
        """Parse the comma-separated ascending encoding; "" is the empty set."""
        if text == "":
            return cls(n)
        parts = [int(p) for p in text.split(",")]
        if parts != sorted(set(parts)):
            raise ValueError(f"subset text {text!r} is not strictly ascending")
        return cls(n, frozenset(parts))

    def members_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def member_text(self) -> str:
        return ",".join(str(i) for i in self.members_sorted())

    def size_lex_key(self) -> tuple:
        return (len(self.members), self.members_sorted())

    def __lt__(self, other: "SubsetSpec") -> bool:
        return (self.n, *self.size_lex_key()) < (other.n, *other.size_lex_key())

    def __repr__(self) -> str:
        return f"SubsetSpec({self.n}, {{{self.member_text()}}})"


def all_subsets(n: int) -> Iterator[SubsetSpec]:
    """All subsets of [n], in increasing size, lexicographic within a size."""
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            yield SubsetSpec(n, frozenset(combo))


def equality_pattern(m: Monomial) -> tuple[bool, ...]:
    """The flags g_i = g_{i+1}, i = 0..n, of m's padded nondecreasing tuple."""
    g = (0, *m.indices(), INF)
    return tuple(a == b for a, b in zip(g, g[1:]))


def pattern_representative(
    pattern: Sequence[bool], naturals: Optional[Sequence[int]] = None
) -> Optional[Monomial]:
    """The monomial with this equality pattern, or None for the all-equal one.

    The first block of positions 0..n+1 takes 0, the last takes inf and
    the middle blocks take ``naturals`` (default 1, 2, 3, ...).  The
    all-equal pattern would identify 0 with inf, so no tuple has it.
    """
    sizes = [1]
    for equal in pattern:
        if equal:
            sizes[-1] += 1
        else:
            sizes.append(1)
    if len(sizes) == 1:
        return None
    if naturals is None:
        naturals = range(1, len(sizes) - 1)
    exponents = (sizes[0] - 1, *sizes[1:-1], sizes[-1] - 1)
    return Monomial(zip((0, *naturals, INF), exponents, strict=True))


@lru_cache(maxsize=None)
def _family(kind: str, spec: SubsetSpec, trunc: int, q: int) -> Series:
    # every placement of a kept pattern's k middle blocks weighs q^k
    naturals = alphabet(trunc)[1:-1]
    terms = {}
    for pattern in itertools.product((False, True), repeat=spec.n + 1):
        k = pattern.count(False) - 1  # -1 only for the all-equal pattern
        triples = [pattern[i - 1] and pattern[i] for i in spec.members]
        if k < 0 or (any(triples) if kind == "K" else not all(triples)):
            continue
        for placement in itertools.combinations(naturals, k):
            terms[pattern_representative(pattern, placement)] = q ** k
    return Series(spec.n, trunc, terms)


def k_series(spec: SubsetSpec, trunc: int) -> Series:
    """The K family member for ``spec`` at truncation V; homogeneous of degree n."""
    return _family("K", spec, trunc, 2)


def l_series(spec: SubsetSpec, trunc: int) -> Series:
    """The L family member for ``spec`` at truncation V."""
    return _family("L", spec, trunc, 2)


def k_series_q(spec: SubsetSpec, trunc: int, q: int) -> Series:
    """The K member with coefficient base q in place of 2; q must be nonzero."""
    if not isinstance(q, int) or q == 0:
        raise ValueError(f"q must be a nonzero integer, got {q!r}")
    return _family("K", spec, trunc, q)


def is_l_special(m: Monomial) -> bool:
    """No natural exponent equals 2 and no border exponent equals 1.

    Exactly the monomials that appear as a generic monomial of some L
    member.
    """
    for i, e in m.pairs:
        if is_natural(i):
            if e == 2:
                return False
        elif e == 1:
            return False
    return True


def _forced_equalities(spec: SubsetSpec) -> tuple[bool, ...]:
    # Entry i says whether positions i and i+1 (of 0..n+1) are forced equal:
    # a member i merges positions i-1, i and i+1, hence both pairs around it.
    return tuple((i in spec.members) or (i + 1 in spec.members) for i in range(spec.n + 1))


def m_generic_monomial(spec: SubsetSpec, trunc: int) -> Optional[Monomial]:
    """The canonical generic monomial of the L member, or None when there is none.

    The minimal representative of the forced equality pattern; None when
    the forced chain identifies 0 with inf (the L member is then zero).
    It uses at most n naturals, so it always fits once V >= n.
    """
    if trunc < spec.n:
        raise TruncationError(f"need trunc >= {spec.n}, got {trunc}")
    return pattern_representative(_forced_equalities(spec))


def m_membership(m: Monomial, spec: SubsetSpec) -> bool:
    """Whether m is a generic monomial of the L member for ``spec``.

    The nondecreasing tuple of m, padded with the borders, must be equal
    at position pairs exactly where the subset forces equality and strict
    everywhere else.
    """
    if m.degree != spec.n:
        raise ValueError(f"degree mismatch: monomial has {m.degree}, spec has n={spec.n}")
    return equality_pattern(m) == _forced_equalities(spec)
