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

A padded tuple is fixed by its equality pattern and one increasing
natural per middle block.  The pattern is an int bitmask, the one
encoding of the library: bit i is the flag g_i = g_{i+1}, i = 0..n.  A
selected position i is inside an equal triple exactly when bits i - 1
and i are both set, so K keeps a mask E iff E & E >> 1 has no member's
bit, and L keeps E iff E contains the subset's forced mask.  The weight
depends only on the mask, and the mask is itself the bordered
M-coordinate of the core module, which keys every coordinate table.
So each member is first built V-free, as the map from its kept masks to
q^(number of middle blocks), n - popcount(E), and then expanded to its
monomials at V by the core's one placement loop; below V = n only the
masks whose words fit in V are built.  Generic monomials,
the decomposition's mask tables and the oracle's relations and
resolutions read the same mask rules here.

The generic monomials of an L member are those whose only equalities are
the forced ones; they drive the decomposition of products back onto the
L family.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .core import INF, Monomial, Series, TruncationError, _expand, _letters, _mask, _split, is_natural

# Entries of each member cache.  The largest working set of any benchmark
# workload is about 500 members (closure: every K and L member of degree
# up to 6 at one V per degree), so members are never evicted in use.
_MEMBER_CACHE = 1024


class SubsetSpec:
    """A subset of [n] together with its ambient n.

    Immutable and hashable; two specs are equal when n and the members are.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: frozenset[int] = frozenset()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self):
        # bool is an int subclass, but True is not a position
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        members = frozenset(self.members)
        for i in members:
            if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= self.n:
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.n == other.n and self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; slot state would meet __setattr__
        return SubsetSpec, (self.n, self.members)

    def __repr__(self) -> str:
        return f"SubsetSpec({self.n}, {{{self.member_text()}}})"


def all_subsets(n: int) -> Iterator[SubsetSpec]:
    """All subsets of [n], in increasing size, lexicographic within a size."""
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            yield SubsetSpec(n, frozenset(combo))


def _bits(members: Iterable[int]) -> int:
    # bit i - 1 is the member i
    return sum(1 << (i - 1) for i in members)


def _forced(bits: int) -> int:
    # a member i forces the flags i - 1 and i
    return bits | bits << 1


def _representative(mask: int, n: int) -> Monomial:
    # The monomial placing the mask's word on the naturals 1, 2, 3, ...
    e0, word, weight, einf = _split(mask, n)
    letters = _letters(word, weight)
    return Monomial(zip((0, *range(1, len(letters) + 1), INF), (e0, *letters, einf), strict=True))


def _masks(n: int, letters: Optional[int]) -> Iterable[int]:
    # Every mask of degree n but the all-ones one, in numeric order; with
    # letters given, only those of at most that many letters, built from
    # their at most letters + 1 clear bits without visiting the others
    # (K_{20,{}} at V = 1 keeps 231 of 2^21 masks).
    full = (2 << n) - 1
    if letters is None:
        return range(full)
    bits = [1 << b for b in range(n + 1)]
    return sorted(full - sum(clear) for k in range(1, letters + 2) for clear in itertools.combinations(bits, k))


@lru_cache(maxsize=_MEMBER_CACHE)
def _pattern_coords(kind: str, spec: SubsetSpec, q: int, letters: Optional[int] = None) -> Mapping[int, int]:
    # V-free M-coordinates of a member: each kept mask E has coefficient
    # q^k, k = n - popcount(E) its middle blocks, which every placement
    # carries.  K keeps a mask with no member's two flags both set, L one
    # with all of them set; the all-ones mask is no coordinate.  With
    # letters = V < n, only the keys of words that fit in V, in the same
    # order: the others have no placement.
    n, bits = spec.n, _bits(spec.members)
    forced = _forced(bits)
    coords = {}
    for mask in _masks(n, letters):
        if (mask & mask >> 1 & bits) if kind == "K" else (mask & forced != forced):
            continue
        coords[mask] = q ** (n - mask.bit_count())
    return MappingProxyType(coords)


@lru_cache(maxsize=_MEMBER_CACHE, typed=True)
def _family(kind: str, spec: SubsetSpec, trunc: int, q: int) -> Series:
    # _expand builds a trusted series, which skips the constructor's check;
    # the cache is typed, so that V = True misses the entry of V = 1.  At
    # V >= n every key fits, and the table is the one reconstruct reads.
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 1:
        raise ValueError(f"truncation must be a positive integer, got {trunc!r}")
    if trunc < spec.n:
        return _expand(spec.n, trunc, _pattern_coords(kind, spec, q, trunc))
    return _expand(spec.n, trunc, _pattern_coords(kind, spec, q))


def k_series(spec: SubsetSpec, trunc: int) -> Series:
    """The K family member for ``spec`` at truncation V; homogeneous of degree n."""
    return _family("K", spec, trunc, 2)


def l_series(spec: SubsetSpec, trunc: int) -> Series:
    """The L family member for ``spec`` at truncation V."""
    return _family("L", spec, trunc, 2)


def k_series_q(spec: SubsetSpec, trunc: int, q: int) -> Series:
    """The K member with coefficient base q in place of 2; q must be nonzero."""
    if not isinstance(q, int) or isinstance(q, bool) or q == 0:
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


def m_generic_monomial(spec: SubsetSpec, trunc: int) -> Optional[Monomial]:
    """The canonical generic monomial of the L member, or None when there is none.

    The minimal representative of the forced equality pattern; None when
    the forced chain identifies 0 with inf (the L member is then zero).
    It uses at most n naturals, so it always fits once V >= n.
    """
    if trunc < spec.n:
        raise TruncationError(f"need trunc >= {spec.n}, got {trunc}")
    forced = _forced(_bits(spec.members))
    return None if forced == (2 << spec.n) - 1 else _representative(forced, spec.n)


def m_membership(m: Monomial, spec: SubsetSpec) -> bool:
    """Whether m is a generic monomial of the L member for ``spec``.

    The nondecreasing tuple of m, padded with the borders, must be equal
    at position pairs exactly where the subset forces equality and strict
    everywhere else.
    """
    if m.degree != spec.n:
        raise ValueError(f"degree mismatch: monomial has {m.degree}, spec has n={spec.n}")
    return _mask(m) == _forced(_bits(spec.members))
