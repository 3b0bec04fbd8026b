"""The bitmask encoding of equality patterns against the bool-tuple one, kept here.

The library encodes the equality pattern of a padded index tuple as an
int (bit i is the flag g_i = g_{i+1}), keys every M-coordinate table by
it, and writes each rule on it once: the split of a mask into border
runs and word, the forced mask of a subset, which masks a K or L member
keeps, and a mask's problematic relations.  This file keeps the
tuple-of-bools helpers those rules replaced, and the tuple coordinate
(e0, word, e_inf) of a pattern, as references, and checks the library
against them exhaustively on small degrees: the split of every mask to
degree 12, the masks and relations of every monomial to degree 6, the
coordinates of every member to degree 9, and the spreading check on
both of its branches against the flags sweep.
"""

import functools
import itertools

from borderqsym import (
    INF,
    Monomial,
    Series,
    all_monomials,
    all_subsets,
    check_spreading,
    k_series,
    l_series,
    problematic_relations,
)
from borderqsym import core, families, oracle
from conftest import BASES, perturbations, spec

def reference_equality_pattern(m):
    """The flags g_i = g_{i+1}, i = 0..n, of m's padded nondecreasing tuple."""
    g = (0, *m.indices(), INF)
    return tuple(a == b for a, b in zip(g, g[1:]))


def reference_pattern_key(pattern):
    """The M-coordinate (e0, word, e_inf) of the pattern's block sizes; None if all equal."""
    sizes = [1]
    for equal in pattern:
        if equal:
            sizes[-1] += 1
        else:
            sizes.append(1)
    if len(sizes) == 1:
        return None
    return (sizes[0] - 1, tuple(sizes[1:-1]), sizes[-1] - 1)


def flags_of(mask, n):
    return tuple(mask >> i & 1 == 1 for i in range(n + 1))


def tuple_keyed(coords, n):
    """Degree-n coordinates keyed by mask, rekeyed by the tuple coordinate of each mask's flags."""
    return {reference_pattern_key(flags_of(mask, n)): c for mask, c in coords.items()}


def reference_forced_equalities(s):
    """Entry i: positions i and i+1 are forced equal, as a member i merges i-1, i, i+1."""
    return tuple((i in s.members) or (i + 1 in s.members) for i in range(s.n + 1))


@functools.lru_cache(maxsize=16)
def reference_patterns(n):
    """Every pattern of flags of degree n that has a key, with its key."""
    patterns = itertools.product((False, True), repeat=n + 1)
    return [(pattern, key) for pattern in patterns if (key := reference_pattern_key(pattern)) is not None]


def reference_member_coords(kind, s, q):
    """A member's V-free M-coordinates by looping over every pattern of flags."""
    coords = {}
    for pattern, key in reference_patterns(s.n):
        triples = [pattern[i - 1] and pattern[i] for i in s.members]
        if any(triples) if kind == "K" else not all(triples):
            continue
        coords[key] = q ** len(key[1])
    return coords


def reference_relations(flags):
    """(kind, position) of each relation: a border or middle block of size 2."""
    n = len(flags) - 1
    if n == 0:
        return []
    out = []
    if flags[0] and not flags[1]:
        out.append(("border_zero", 0))
    for p in range(1, n):
        if flags[p] and not flags[p - 1] and not flags[p + 1]:
            out.append(("interior_square", p))
    if flags[n] and not flags[n - 1]:
        out.append(("border_inf", n))
    return out


def reference_representative(flags):
    """The monomial of these flags placing its middle blocks on 1, 2, 3, ..."""
    g, value = [0], 0
    for equal in flags:
        if not equal:
            value += 1
        g.append(value)
    return Monomial.from_indices(INF if v == value else v for v in g[1:-1])


def reference_spreading(f):
    """The flags sweep: by pattern on coordinates, else by monomial of the slice."""
    coords = core._coordinates(f)
    if coords is None:
        cases = ((reference_equality_pattern(m), f.coefficient(m)) for m in all_monomials(f.degree, f.trunc))

        def resolved(flags):
            return f.coefficient(reference_representative(flags))

    else:
        keyed = tuple_keyed(coords, f.degree)
        patterns = itertools.product((False, True), repeat=f.degree + 1)
        cases = ((flags, keyed.get(reference_pattern_key(flags), 0)) for flags in patterns)

        def resolved(flags):
            return keyed.get(reference_pattern_key(flags), 0)

    for flags, c in cases:
        for _, p in reference_relations(flags):
            if 2 * c != resolved((*flags[:p], False, *flags[p + 1:])):
                return False
    return True


def test_keys_of_every_mask_to_degree_12():
    # the split of every mask but the all-ones one, which has no key, and
    # the split's round trip: border runs at both ends around the word
    for n in range(13):
        full = (2 << n) - 1
        assert reference_pattern_key(flags_of(full, n)) is None
        for mask in range(full):
            e0, word, weight, einf = core._split(mask, n)
            letters = core._letters(word, weight)
            assert (e0, tuple(letters), einf) == reference_pattern_key(flags_of(mask, n)), (mask, n)
            assert (e0 + weight + einf, len(letters)) == (n, n - mask.bit_count())
            assert (1 << e0) - 1 | word << e0 + 1 | (1 << einf) - 1 << n + 1 - einf == mask


def test_relations_of_every_mask_to_degree_12():
    for n in range(13):
        for mask in range(2 << n):
            got = [(kind.value, p) for kind, p in oracle._relations(mask, n)]
            assert got == reference_relations(flags_of(mask, n)), (mask, n)


def test_forced_masks_and_representatives():
    for n in range(9):
        for s in all_subsets(n):
            forced = families._forced(families._bits(s.members))
            assert flags_of(forced, n) == reference_forced_equalities(s)
            full = forced == (2 << n) - 1
            assert full == (reference_pattern_key(flags_of(forced, n)) is None)
            if not full:
                assert families._representative(forced, n) == reference_representative(flags_of(forced, n))


def test_masks_and_relations_of_every_monomial_to_degree_6():
    for d in range(7):
        for m in all_monomials(d, d + 1):
            flags = reference_equality_pattern(m)
            assert flags_of(core._mask(m), d) == flags
            got = [(r.kind.value, r.position) for r in problematic_relations(m)]
            assert got == reference_relations(flags)


def test_member_coordinates_to_degree_9():
    # compared as mappings: the library visits masks in numeric order,
    # the reference in the order of itertools.product; the cache is
    # bypassed so that these 4,000 members evict nothing
    build = families._pattern_coords.__wrapped__
    for n in range(10):
        for s in all_subsets(n):
            for kind, q in BASES.items():
                assert tuple_keyed(build(kind[0], s, q), n) == reference_member_coords(kind[0], s, q), (kind, s)


def test_an_l_member_reads_one_key_per_kept_mask(monkeypatch):
    # each kept mask is its own key: building a member splits none
    def refuse(*args):
        raise AssertionError("mask split")

    monkeypatch.setattr(families, "_split", refuse)
    monkeypatch.setattr(families, "_letters", refuse)
    s = spec(10, 2, 5, 9)
    coords = families._pattern_coords.__wrapped__("L", s, 2)
    forced = families._forced(families._bits(s.members))
    # the all-ones mask contains the forced mask but has no key
    assert len(coords) == 2 ** (11 - forced.bit_count()) - 1
    assert all(mask & forced == forced for mask in coords)
    assert all(c == 2 ** (10 - mask.bit_count()) for mask, c in coords.items())


def test_spreading_matches_the_flags_sweep():
    # every K and L product to degree 5 at V = d + 1, and perturbed
    # copies of every fourth below degree 5, some of which are not
    # quasisymmetric and so take the monomial branch
    answers, branches = set(), set()
    for build in (k_series, l_series):
        for d in range(6):
            factors = [s for n in range(d + 1) for s in all_subsets(n)]
            pairs = [(a, b) for i, a in enumerate(factors) for b in factors[i:] if a.n + b.n == d]
            for count, (a, b) in enumerate(pairs):
                product = build(a, d + 1) * build(b, d + 1)
                cases = [product, *perturbations(product)] if d < 5 and count % 4 == 0 else [product]
                for f in cases:
                    expected = reference_spreading(f)
                    assert check_spreading(f) == expected
                    answers.add(expected)
                    branches.add(core._coordinates(f) is None)
    square_sum = Series(2, 3, {Monomial.parse(t): 1 for t in ("x1^2", "x2^2", "x3^2")})
    assert check_spreading(square_sum) is reference_spreading(square_sum) is False
    assert answers == {True, False} and branches == {True, False}
