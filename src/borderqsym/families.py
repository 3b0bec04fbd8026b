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
depends only on the mask, and the mask's runs of 1-bits give its block
sizes, a bordered M-coordinate (e0, word, e_inf) of the core module.  So
each member is first built V-free, as the map from its kept masks'
coordinates to q^(number of middle blocks), and then expanded to its
monomials at V by the core's one placement loop.  Generic monomials,
the decomposition's mask tables and the oracle's relations and
resolutions read the same mask rules here.

The generic monomials of an L member are those whose only equalities are
the forced ones; they drive the decomposition of products back onto the
L family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .core import INF, Monomial, Series, TruncationError, _expand, is_natural

# Entries of each member cache.  The largest working set of any benchmark
# workload is about 500 members (closure: every K and L member of degree
# up to 6 at one V per degree), so members are never evicted in use.
_MEMBER_CACHE = 1024

# Entries of the per-degree mask key cache.  Degree n holds 2^(n+1) keys,
# which the basis module's mask tables share rather than copy.
_MASK_KEY_CACHE = 16


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


def _mask(m: Monomial) -> int:
    # Bit i is the flag g_i = g_{i+1} of m's padded nondecreasing tuple.
    g = (0, *m.indices(), INF)
    return sum(1 << i for i in range(len(g) - 1) if g[i] == g[i + 1])


def _mask_key(mask: int, n: int) -> Optional[tuple]:
    # The M-coordinate (e0, word, e_inf) of a degree-n mask: a run of k
    # 1-bits joins k + 1 positions into one block; the bit above n keeps
    # the high zero bits in the string, which lists bit 0 first.  None for
    # the all-ones mask, which would identify 0 with inf.
    runs = bin(mask | 2 << n)[:2:-1].split("0")
    if len(runs) == 1:
        return None
    return (len(runs[0]), tuple([len(r) + 1 for r in runs[1:-1]]), len(runs[-1]))


@lru_cache(maxsize=_MASK_KEY_CACHE)
def _mask_keys(n: int) -> tuple:
    return tuple(_mask_key(mask, n) for mask in range(2 << n))


def _bits(members: Iterable[int]) -> int:
    # bit i - 1 is the member i
    return sum(1 << (i - 1) for i in members)


def _forced(bits: int) -> int:
    # a member i forces the flags i - 1 and i
    return bits | bits << 1


def _representative(key: tuple) -> Monomial:
    # The monomial placing the key's word on the naturals 1, 2, 3, ...
    e0, word, einf = key
    return Monomial(zip((0, *range(1, len(word) + 1), INF), (e0, *word, einf), strict=True))


@lru_cache(maxsize=_MEMBER_CACHE)
def _pattern_coords(kind: str, spec: SubsetSpec, q: int) -> Mapping[tuple, int]:
    # V-free M-coordinates of a member: the key of each kept mask with k
    # middle blocks has coefficient q^k, which every placement carries.
    # K keeps a mask with no member's two flags both set, L one with all
    # of them set; the all-ones mask has no key.
    n, bits = spec.n, _bits(spec.members)
    forced = _forced(bits)
    coords = {}
    for mask in range((2 << n) - 1):
        if (mask & mask >> 1 & bits) if kind == "K" else (mask & forced != forced):
            continue
        key = _mask_key(mask, n)
        coords[key] = q ** len(key[1])
    return MappingProxyType(coords)


@lru_cache(maxsize=_MEMBER_CACHE)
def _family(kind: str, spec: SubsetSpec, trunc: int, q: int) -> Series:
    return _expand(spec.n, trunc, _pattern_coords(kind, spec, q))


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


def m_generic_monomial(spec: SubsetSpec, trunc: int) -> Optional[Monomial]:
    """The canonical generic monomial of the L member, or None when there is none.

    The minimal representative of the forced equality pattern; None when
    the forced chain identifies 0 with inf (the L member is then zero).
    It uses at most n naturals, so it always fits once V >= n.
    """
    if trunc < spec.n:
        raise TruncationError(f"need trunc >= {spec.n}, got {trunc}")
    key = _mask_key(_forced(_bits(spec.members)), spec.n)
    return None if key is None else _representative(key)


def m_membership(m: Monomial, spec: SubsetSpec) -> bool:
    """Whether m is a generic monomial of the L member for ``spec``.

    The nondecreasing tuple of m, padded with the borders, must be equal
    at position pairs exactly where the subset forces equality and strict
    everywhere else.
    """
    if m.degree != spec.n:
        raise ValueError(f"degree mismatch: monomial has {m.degree}, spec has n={spec.n}")
    return _mask(m) == _forced(_bits(spec.members))
