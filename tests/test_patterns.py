"""The bitmask encoding of equality patterns against the bool-tuple one.

The library encodes the equality pattern of a padded index tuple as an
int (bit i is the flag g_i = g_{i+1}), keys every M-coordinate table by
it, and writes each rule on it once: the split of a mask into border
runs and word, the forced mask of a subset, which masks a K or L member
keeps, and a mask's lone bits, which are its problematic relations.
The tuple-of-bools helpers those rules replaced, and the flags sweep of
``check_spreading``, are references in ``reference.py``.  This file
checks the library against them exhaustively on small degrees: the
split, lone bits and relations of every mask to degree 12 (one corpus,
``reference.mask_cases``), the mask and relations of every monomial to
degree 6, the coordinates of every member to degree 9, and
``check_spreading`` on the products of ``reference.spreading_cases``.
"""

from borderqsym import all_subsets, check_spreading, problematic_relations
from borderqsym import core, families, oracle
from conftest import BASES, spec
from reference import (
    flags_of,
    mask_cases,
    reference_equality_pattern,
    reference_flag_relations,
    reference_flags_spreading,
    reference_forced_equalities,
    reference_member_coords,
    reference_pattern_key,
    reference_representative,
    small_monomials,
    spreading_cases,
    tuple_keyed,
)


def test_keys_of_every_mask_to_degree_12():
    # the split of every mask but the all-ones one, which has no key, and
    # the split's round trip: border runs at both ends around the word
    for n, mask, key, _ in mask_cases():
        if mask == (2 << n) - 1:
            assert key is None
            continue
        e0, word, weight, einf = core._split(mask, n)
        letters = core._letters(word, weight)
        assert (e0, tuple(letters), einf) == key, (mask, n)
        assert (e0 + weight + einf, len(letters)) == (n, n - mask.bit_count())
        assert (1 << e0) - 1 | word << e0 + 1 | (1 << einf) - 1 << n + 1 - einf == mask


def test_relations_of_every_mask_to_degree_12():
    for n, mask, _, relations in mask_cases():
        assert [(kind.value, p) for kind, p in oracle._relations(mask, n)] == relations, (mask, n)
        assert families._lone(mask, n) == sum(1 << p for _, p in relations), (mask, n)


def test_forced_masks_and_representatives():
    for n in range(9):
        for s in all_subsets(n):
            forced = families._forced(families._bits(s.members))
            assert flags_of(forced, n) == reference_forced_equalities(s)
            full = forced == (2 << n) - 1
            assert full == (reference_pattern_key(flags_of(forced, n)) is None)
            if not full:
                assert families._representative(forced, n) == reference_representative(flags_of(forced, n))
    # the forced masks below all-ones are exactly the masks with no lone
    # bit, which is why the span of degree d has dimension w(d + 1) - 1
    for d in range(13):
        full = (2 << d) - 1
        forced = {families._forced(families._bits(s.members)) for s in all_subsets(d)} - {full}
        assert forced == {mask for mask in range(full) if not families._lone(mask, d)}, d


def test_masks_and_relations_of_every_monomial_to_degree_6():
    for m in small_monomials():
        flags = reference_equality_pattern(m)
        assert flags_of(core._mask(m), m.degree) == flags, m
        assert [(r.kind.value, r.position) for r in problematic_relations(m)] == reference_flag_relations(flags), m


def test_spreading_matches_the_flags_sweep():
    # against the sweep by pattern, or by monomial where the series is not
    # quasisymmetric, on the corpus of reference.spreading_cases
    answers, branches = set(), set()
    for f, _ in spreading_cases():
        expected = reference_flags_spreading(f)
        assert check_spreading(f) == expected, f
        answers.add(expected)
        branches.add(core._coordinates(f) is None)
    assert answers == branches == {True, False}


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
