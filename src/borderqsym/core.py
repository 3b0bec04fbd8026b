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

Bordered M-coordinates.  A series that is quasisymmetric in the natural
variables is fixed by a V-free table from M-coordinates to coefficients:
the border exponents e0 and e_inf and the word of natural exponents read
in increasing index order (Gessel's monomial quasisymmetric basis,
bordered).  A coordinate is keyed by the int equality mask of its padded
index tuple (0, g_1, ..., g_d, inf), bit i the flag g_i = g_{i+1}:
compositions are subsets (Gessel 1984).  The series at V is the sum,
over the table, of the coefficient times every monomial that places the
word on increasing naturals 1..V; a word longer than V has no placement.
Products of such series add border exponents and quasi-shuffle the
words (Hoffman, "Quasi-shuffle products", 2000), so
:meth:`Series.mul` works on coordinates, with one cached plan per pair
of keys (border bits, word shift, quasi-shuffle), and so do addition,
scaling, comparison and restriction when every operand has them.  A
series born from coordinates (a family member, a product, a
reconstruction, a sum) keeps only them: its ``terms`` is a read-only
mapping view that places the words at V when it is iterated or looked
up, and stores no monomial.
Any other series keeps a validated dict of its monomials; its
coordinates, or the finding that it has none, are read once and kept
beside it.  The monomial convolution runs only when a factor is not
quasisymmetric.

A :class:`Series` refuses assignment to its attributes and its ``terms``
is read-only, so a series can be shared freely, across threads and by
the member caches (it keeps its M-coordinates once read; they never
change, so a race only repeats the read).  A :class:`Monomial` is not
frozen: no cache shares one, each caller owns the monomials it gets, and
a series keeps its own copy of every key it is given.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import ItemsView, Mapping
from functools import lru_cache
from itertools import compress, repeat
from operator import sub
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Union

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
    if i == INF or (isinstance(i, int) and not isinstance(i, bool) and i >= 0):
        return
    raise ValueError(f"invalid variable index {i!r}")


def index_str(i: Index) -> str:
    return "xinf" if i == INF else f"x{i}"


def _check_int(value: int, what: str, bound: str = "", of: object = None) -> None:
    """Raise ValueError unless ``value`` is an int within its bound.

    ``bound`` is "" (none), "nonnegative", "positive" or "nonzero", and the
    message names it, as in ``degree must be a nonnegative integer, got
    -1``.  With ``of`` given, the message opens with ``{what} of {of}``,
    formatted only on failure.  A bool is refused: it is an int subclass,
    but True is no degree, count or coefficient.
    """
    if isinstance(value, int) and not isinstance(value, bool) and (
        not bound or (value != 0 if bound == "nonzero" else value >= (1 if bound == "positive" else 0))
    ):
        return
    if of is not None:
        what = f"{what} of {of}"
    raise ValueError(f"{what} must be {'a ' + bound if bound else 'an'} integer, got {value!r}")


def _check_trunc(trunc: int) -> None:
    _check_int(trunc, "truncation", "positive")


class _Frozen:
    """A value whose fields its own constructors set once, through ``object.__setattr__``.

    Assigning or deleting a field raises AttributeError, so a value that a
    cache hands out cannot be changed for the next caller.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def alphabet(trunc: int) -> tuple[Index, ...]:
    """All indices available at truncation V, in increasing order."""
    _check_trunc(trunc)
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
            _check_int(e, "exponent", "nonnegative", index_str(i))
        self.pairs: tuple[tuple[Index, int], ...] = tuple(
            sorted((i, e) for i, e in items.items() if e > 0)
        )
        self.degree: int = sum(e for _, e in self.pairs)

    @classmethod
    def _trusted(cls, pairs: tuple[tuple[Index, int], ...], degree: int) -> "Monomial":
        # For pairs that are valid by construction: sorted, positive, summing to degree.
        m = object.__new__(cls)
        m.pairs = pairs
        m.degree = degree
        return m

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
        # the pairs are sorted: the largest natural is the last index below inf
        for i, _ in reversed(self.pairs):
            if i != INF:
                return i
        return 0

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
    """Every degree-d monomial over the alphabet at truncation V.

    In the order of ``itertools.combinations_with_replacement`` over the
    alphabet: each index takes its exponents in descending order.  The
    monomials come out flat, one ``map`` per run of monomials that share
    their leading pairs: a run ends in a tail of a cached suffix table
    (:func:`_suffix_table`), in one factor on each index of a long
    alphabet, or in a single pair.  The sweep is lazy: beside the tables
    it holds one prefix per degree, whatever the size of its slice.
    """
    _check_int(degree, "degree", "nonnegative")
    _check_trunc(trunc)
    trusted = Monomial._trusted
    last = trunc + 1  # alphabet positions 0..V are the indices 0..V; position V + 1 is INF

    def runs(p: int, left: int, prefix: tuple) -> Iterator[tuple[tuple, Iterable[tuple]]]:
        # (prefix, suffixes): the monomials extending prefix by left factors on positions p..last
        if left == 1 and last - p >= _SUFFIX_TABLE:
            # ((i, 1),) for each index before the one-factor table
            stop = last + 1 - _SUFFIX_TABLE
            yield prefix, zip(zip(range(p, stop), repeat(1)))
            p = stop
        while (count := math.comb(last - p + left, left)) > _SUFFIX_TABLE:  # the suffixes from p on
            yield prefix, (((p, left),),)
            for e in range(left - 1, 0, -1):
                yield from runs(p + 1, left - e, prefix + ((p, e),))
            p += 1
        table = _suffix_table(trunc, left)
        yield prefix, table[len(table) - count:]

    if not degree:
        yield trusted((), 0)
        return
    for prefix, suffixes in runs(0, degree, ()):
        yield from map(trusted, map(prefix.__add__, suffixes), repeat(degree))


# Suffixes in one table of all_monomials, and tables kept.  Building the
# tables afresh for each sweep cost more than the degree-6 sweep at V = 6
# itself, so they are cached.  The seven tables of degrees 1 to 7 at V = 7
# take 53 KB (tracemalloc), so a full cache holds about 0.25 MB.
_SUFFIX_TABLE = 1 << 8
_SUFFIX_TABLES = 1 << 5


@lru_cache(maxsize=_SUFFIX_TABLES)
def _suffix_table(trunc: int, left: int) -> tuple[tuple[tuple[Index, int], ...], ...]:
    """The ways to end a monomial at V with ``left`` factors on the last positions of the alphabet.

    In sweep order, from the first position with at most
    ``_SUFFIX_TABLE`` ways left, so that the ways from any later position
    are a tail of the table.  Built from INF down, one position at a
    time, each position's pairs shared by its suffixes.
    """
    last = trunc + 1
    start = last
    while start and math.comb(last - start + 1 + left, left) <= _SUFFIX_TABLE:
        start -= 1
    after: list[list[tuple]] = [[] for _ in range(left + 1)]  # after[k]: k factors from the next position on
    for p in range(last, start - 1, -1):
        pairs = [(INF if p == last else p, e) for e in range(left + 1)]
        here: list[list[tuple]] = [[]]
        for k in range(1, left + 1):
            out = [(pairs[k],)]
            for e in range(k - 1, 0, -1):
                out += [(pairs[e], *s) for s in after[k - e]]
            here.append(out + after[k])
        after = here
    return tuple(after[left])


class Series(_Frozen):
    """A homogeneous series: a sparse map from degree-d monomials to integers.

    Invariants enforced on construction: every key is a monomial of the
    tracked degree using natural indices up to ``trunc`` only, whatever
    its coefficient, every coefficient is an integer, and no stored
    coefficient is zero.  A zero series keeps its degree tag.  The
    attributes refuse assignment and ``terms`` is a read-only view, so a
    shared (cached) series cannot be altered; ``copy.copy`` returns the
    series itself.  The constructor keeps a validated dict of its own
    copies of the keys behind ``terms``; a series born from M-coordinates
    (see :func:`_expand`) keeps only its coordinates, and its ``terms``
    places them at V on demand.
    """

    __slots__ = ("degree", "trunc", "terms", "_coords")

    def __init__(self, degree: int, trunc: int, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        _check_int(degree, "degree", "nonnegative")
        _check_trunc(trunc)
        clean: dict[Monomial, int] = {}
        for m, c in dict(terms).items():
            if not isinstance(m, Monomial):
                raise ValueError(f"term {m!r} is not a Monomial")
            _check_int(c, "coefficient", of=m)
            if m.degree != degree:
                raise ValueError(f"monomial {m} has degree {m.degree}, series is homogeneous of degree {degree}")
            if m.max_natural() > trunc:
                raise ValueError(f"monomial {m} uses a natural index beyond truncation {trunc}")
            if c:
                # its own copy of the key: a Monomial is not frozen, and the caller keeps theirs
                clean[Monomial._trusted(m.pairs, degree)] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "_coords", None)  # M-coordinates once read; False when there are none

    @classmethod
    def _trusted(cls, degree: int, trunc: int, terms: Mapping[Monomial, int], coords: Mapping[int, int]) -> "Series":
        # For terms that are valid by construction and read-only, with their M-coordinates.
        s = object.__new__(cls)
        object.__setattr__(s, "degree", degree)
        object.__setattr__(s, "trunc", trunc)
        object.__setattr__(s, "terms", terms)
        object.__setattr__(s, "_coords", coords)
        return s

    def __copy__(self) -> "Series":
        return self

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
        a, b = _coordinates(self), _coordinates(other)
        if a is None or b is None:
            out = self.terms.copy()
            for m, c in other.terms.items():
                out[m] = out.get(m, 0) + c
            return Series(self.degree, self.trunc, out)
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) + c
        return _expand(self.degree, self.trunc, out)

    def scale(self, c: int) -> "Series":
        _check_int(c, "scale factor")
        coords = _coordinates(self)
        if coords is None:
            return Series(self.degree, self.trunc, {m: c * v for m, v in self.terms.items()})
        return _expand(self.degree, self.trunc, {key: c * v for key, v in coords.items()})

    def mul(self, other: "Series") -> "Series":
        """The exact product; on M-coordinates when both factors are quasisymmetric."""
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")
        a, b = _coordinates(self), _coordinates(other)
        if a is None or b is None:
            return _convolve(self, other)
        da, db = self.degree, other.degree
        keys, coeffs = tuple(b), tuple(b.values())
        out: dict[int, int] = {}
        # One plan per pair of keys, cached unless the pairs outnumber the
        # cache, where every plan would be evicted before its next use.
        plan = _plan if len(a) * len(b) <= _PLAN_CACHE else _plan.__wrapped__
        for key, ca in a.items():
            plans = map(plan, repeat(key), repeat(da), keys, repeat(db))
            for (border, shift, words), cb in zip(plans, coeffs):
                c = ca * cb
                for w, mult in words:
                    w = border | w << shift
                    out[w] = out.get(w, 0) + c * mult
        return _expand(da + db, self.trunc, out)

    def restrict(self, trunc: int) -> "Series":
        """Drop every monomial using a natural index beyond the new truncation.

        Setting the extra variables to zero is a ring map, so restricting
        commutes with addition and multiplication.
        """
        _check_trunc(trunc)
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {trunc}")
        coords = _coordinates(self)
        if coords is None:
            return Series(self.degree, trunc, {m: c for m, c in self.terms.items() if m.max_natural() <= trunc})
        return _expand(self.degree, trunc, coords)

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
        if not isinstance(other, Series) or (self.degree, self.trunc) != (other.degree, other.trunc):
            return False
        a, b = _coordinates(self), _coordinates(other)
        if a is None or b is None:
            return self.terms == other.terms
        return a == b

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Series(degree={self.degree}, trunc={self.trunc}, nterms={len(self.terms)})"


def _convolve(a: Series, b: Series) -> Series:
    # Monomial by monomial; the only product for a factor that is not quasisymmetric.
    out: dict[Monomial, int] = {}
    right = list(b.terms.items())  # read once: a placement view rebuilds its monomials
    for m1, c1 in a.terms.items():
        for m2, c2 in right:
            m = m1 * m2
            out[m] = out.get(m, 0) + c1 * c2
    return Series(a.degree + b.degree, a.trunc, out)


# Entries of the quasi-shuffle cache.  Every pair of words of total weight
# up to 10 fits (6,144 pairs, 8.4 MB); products of degree 7, the heaviest
# in the benchmark, use at most 576.  A cached plan holds its tuple too,
# so up to _PLAN_CACHE more tuples can outlive their entry here.
_QUASI_SHUFFLE_CACHE = 1 << 13
# Entries of the plan cache, one per pair of keys with their degrees, about
# 200 to 240 bytes each beside the tuple it shares.  The products of degree 7
# have 3,084 pairs of keys over all left degrees, which is the decompose
# workload's working set (closure's is about 2,100); a product of more
# pairs than this computes its plans without the cache.
_PLAN_CACHE = 1 << 12


def _mask(m: Monomial) -> int:
    """The M-coordinate of m: bit i is the flag g_i = g_{i+1} of its padded tuple."""
    return _read_mask(m)[0]


def _read_mask(m: Monomial) -> tuple[int, int]:
    # (the M-coordinate of m, its largest natural or 0), in one pass over its pairs
    mask, pos, top = 0, 1, 0  # pos: the first position after the block of g_0
    for i, e in m.pairs:
        if i == 0:
            mask, pos = (1 << e) - 1, e + 1
        elif i == INF:
            mask |= (1 << e) - 1 << pos
        else:
            mask |= (1 << e - 1) - 1 << pos
            pos += e
            top = i
    return mask, top


def _split(mask: int, degree: int) -> tuple[int, int, int, int]:
    """(e0, word, weight, e_inf) of a mask: the runs of 1-bits at its ends and the bits between.

    The word is a bitmask whose letter k is k - 1 set bits and a clear
    bit; its weight is the sum of its letters.  A mask has
    degree - popcount(mask) letters.  The all-ones mask has no split.
    """
    e0 = (~mask & mask + 1).bit_length() - 1
    top = (((2 << degree) - 1) ^ mask).bit_length() - 1
    return e0, mask >> e0 + 1 & (1 << top - e0) - 1, top - e0, degree - top


def _letters(word: int, weight: int) -> list[int]:
    # bit 0 first, each clear bit closes a letter; the bit at weight is a sentinel
    return [len(run) + 1 for run in bin(word | 1 << weight)[:2:-1].split("0")[:-1]]


def _coordinates(series: Series) -> Optional[Mapping[int, int]]:
    """The series' M-coordinates, or None when it is not quasisymmetric.

    The one place where quasisymmetry is tested; :func:`relabel_check`
    only reports the answer.  A series born from coordinates has them
    already.  Any other series has its terms grouped by coordinate, and
    each group must hold all C(V, letters) placements with one shared
    coefficient.  The answer is kept on the series, ``False`` for one
    without coordinates, so each series is read at most once.
    """
    coords = series._coords
    if coords is None:
        coords = _read_coordinates(series)
        object.__setattr__(series, "_coords", coords)
    return None if coords is False else coords


def _read_coordinates(series: Series) -> Mapping[int, int] | bool:
    # a dict-born series' terms grouped by coordinate, or False
    coords: dict[int, int] = {}
    placements: dict[int, int] = {}
    for m, c in series.terms.items():
        key = _mask(m)
        if coords.setdefault(key, c) != c:
            return False
        placements[key] = placements.get(key, 0) + 1
    if any(n != math.comb(series.trunc, series.degree - key.bit_count()) for key, n in placements.items()):
        return False
    return MappingProxyType(coords)


@lru_cache(maxsize=_QUASI_SHUFFLE_CACHE)
def _quasi_shuffle(u: int, su: int, v: int, sv: int) -> tuple[tuple[int, int], ...]:
    """Hoffman's quasi-shuffle of words u and v of weights su and sv, as (word, multiplicity) pairs.

    Each result word starts with u's first letter, v's first letter, or
    their sum, followed by a quasi-shuffle of what remains.  Words are
    bitmasks as :func:`_split` gives them: a first letter ends at the
    lowest clear bit.
    """
    if not su or not sv:
        return ((u | v << su, 1),)
    a, b = (~u & u + 1).bit_length(), (~v & v + 1).bit_length()
    out: dict[int, int] = {}
    for head, rest in (
        (a, _quasi_shuffle(u >> a, su - a, v, sv)),
        (b, _quasi_shuffle(u, su, v >> b, sv - b)),
        (a + b, _quasi_shuffle(u >> a, su - a, v >> b, sv - b)),
    ):
        bits = (1 << head - 1) - 1
        for w, c in rest:
            w = bits | w << head
            out[w] = out.get(w, 0) + c
    return tuple(out.items())


@lru_cache(maxsize=_PLAN_CACHE)
def _plan(left: int, dl: int, right: int, dr: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """How a key of degree dl times a key of degree dr places its words: (border, shift, words).

    The border bits are the product's x0 and xinf blocks; a word w of the
    quasi-shuffle of the two keys' words lands at ``border | w << shift``.
    ``words`` is the quasi-shuffle cache's own tuple, not a copy.
    """
    a0, u, su, ainf = _split(left, dl)
    b0, v, sv, binf = _split(right, dr)
    e0, einf = a0 + b0, ainf + binf
    border = (1 << e0) - 1 | (1 << einf) - 1 << dl + dr + 1 - einf
    return border, e0 + 1, _quasi_shuffle(u, su, v, sv)


def _expand(degree: int, trunc: int, coords: Mapping[int, int]) -> Series:
    """The series at truncation V with these M-coordinates.

    Every key must have the given degree.  A key with coefficient zero is
    dropped, and so is one whose word, longer than V, has no placement on
    1..V.  The series keeps the other keys in order and no monomial: its
    ``terms`` is a :class:`_Placements` view over them.
    """
    if trunc >= degree:  # every word fits
        kept = MappingProxyType(dict(compress(coords.items(), coords.values())))
    else:
        kept = MappingProxyType({key: c for key, c in coords.items() if c and degree - key.bit_count() <= trunc})
    return Series._trusted(degree, trunc, _Placements(degree, trunc, kept), kept)


class _Placements(Mapping):
    """The monomials of M-coordinates at truncation V, placed on demand.

    A read-only mapping from monomials to coefficients that stores none:
    its length is the number of placements, counted once; a lookup reads
    the monomial's coordinate and its largest natural in one pass over
    its pairs (:func:`_read_mask`, the codec :func:`_mask` is built on),
    and anything but a monomial of the degree with no natural above V
    reads as absent; iteration places each word on increasing
    naturals 1..V, key by key in table order.  Every word must fit in V.
    The monomials of one iteration share their (index, exponent) pairs:
    each pair is one tuple from a per-iteration table, which halves the
    memory of a copy of the terms.
    """

    __slots__ = ("_degree", "_trunc", "_coords", "_len")

    def __init__(self, degree: int, trunc: int, coords: Mapping[int, int]):
        self._degree = degree
        self._trunc = trunc
        self._coords = coords
        self._len = sum(map(math.comb, repeat(trunc), map(sub, repeat(degree), map(int.bit_count, coords))))

    def __len__(self) -> int:
        return self._len

    def get(self, m, default=None):
        if isinstance(m, Monomial) and m.degree == self._degree:
            mask, top = _read_mask(m)
            if top <= self._trunc:
                return self._coords.get(mask, default)
        return default

    def __getitem__(self, m) -> int:
        c = self.get(m)
        if c is None:
            raise KeyError(m)
        return c

    def __iter__(self) -> Iterator[Monomial]:
        return (m for m, _ in self._placements())

    def items(self) -> ItemsView:
        return _PlacementItems(self)

    def copy(self) -> dict[Monomial, int]:
        # a plain dict of the terms, as ``copy`` of a dict-backed ``terms`` gives
        return dict(self._placements())

    def _placements(self) -> Iterator[tuple[Monomial, int]]:
        degree = self._degree
        naturals = range(1, self._trunc + 1)
        trusted = Monomial._trusted
        # cells[e] holds (i, e) for i = 0, 1, ..., V and then (INF, e)
        cells = [[*((i, e) for i in range(self._trunc + 1)), (INF, e)] for e in range(degree + 1)]
        for key, c in self._coords.items():
            e0, word, weight, einf = _split(key, degree)
            head = (cells[e0][0],) if e0 else ()
            tail = (cells[einf][-1],) if einf else ()
            columns = [cells[e] for e in _letters(word, weight)]
            for placement in itertools.combinations(naturals, len(columns)):
                yield trusted((*head, *map(list.__getitem__, columns, placement), *tail), degree), c


class _PlacementItems(ItemsView):
    # (monomial, coefficient) pairs in one pass, without a lookup per monomial
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return self._mapping._placements()


def relabel_check(series: Series) -> bool:
    """True iff the series is quasisymmetric in the natural variables.

    The coefficient of a monomial may depend on its border exponents and
    on the word of natural exponents read in increasing index order, but
    not on which strictly increasing natural indices carry that word.
    Checked against every index choice within [1..trunc], so absent
    relabelings count as coefficient zero.  This is the public face of
    the M-coordinate read: the series is quasisymmetric exactly when it
    has coordinates.
    """
    return _coordinates(series) is not None
