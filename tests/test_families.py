"""The K and L constructors, generic monomials, and the special-monomial predicate.

The members are checked against the definition read literally, the
tuple filter of ``reference.py``.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderqsym import (
    Monomial,
    Series,
    SubsetSpec,
    TruncationError,
    all_monomials,
    all_subsets,
    is_l_special,
    k_series,
    k_series_q,
    l_series,
    m_generic_monomial,
    m_membership,
)
from borderqsym import families
from conftest import mono, spec
from reference import reference_forced_equalities, reference_member


class TestSubsetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetSpec(2, frozenset({3}))
        with pytest.raises(ValueError):
            SubsetSpec(2, frozenset({0}))
        with pytest.raises(ValueError):
            SubsetSpec(-1)
        # bool is an int subclass, but no position
        with pytest.raises(ValueError, match="n must be a nonnegative integer, got True"):
            SubsetSpec(True)
        with pytest.raises(ValueError, match=r"member True outside 1\.\.2"):
            SubsetSpec(2, frozenset({True}))
        with pytest.raises(ValueError, match=r"member False outside 1\.\.2"):
            SubsetSpec(2, frozenset({False}))

    def test_parse_round_trip(self):
        s = SubsetSpec.parse(5, "1,2,4")
        assert s == spec(5, 1, 2, 4)
        assert s.member_text() == "1,2,4"
        assert SubsetSpec.parse(3, "") == spec(3)

    def test_parse_rejects_disorder(self):
        with pytest.raises(ValueError):
            SubsetSpec.parse(5, "2,1")
        with pytest.raises(ValueError):
            SubsetSpec.parse(5, "1,1")

    def test_an_immutable_hashable_value(self):
        s = spec(4, 1, 3)
        assert s == SubsetSpec(4, frozenset({3, 1})) and hash(s) == hash(spec(4, 3, 1))
        assert s != spec(4, 1) and s != spec(5, 1, 3) and s != (4, frozenset({1, 3}))
        assert repr(s) == "SubsetSpec(4, {1,3})"
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            s.n = 5
        with pytest.raises(AttributeError, match="cannot delete field 'members'"):
            del s.members
        assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)
        # members given as any iterable are stored as a frozenset
        assert SubsetSpec(4, [3, 1]).members == frozenset({1, 3})

    def test_all_subsets_size_then_lex(self):
        got = [s.members_sorted() for s in all_subsets(3)]
        assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


class TestKSeries:
    def test_degree_two_single_member_expansion(self):
        # every nondecreasing pair except (0, 0) survives; each term weighs
        # 2 to its count of distinct naturals
        out = k_series(spec(2, 1), 2)
        assert {str(m): c for m, c in out.terms.items()} == {
            "x0*x1": 2,
            "x0*x2": 2,
            "x0*xinf": 1,
            "x1^2": 2,
            "x1*x2": 4,
            "x1*xinf": 2,
            "x2^2": 2,
            "x2*xinf": 2,
            "xinf^2": 1,
        }

    def test_degree_zero_is_unit(self):
        out = k_series(spec(0), 1)
        assert out == Series(0, 1, {Monomial(): 1})

    @pytest.mark.parametrize("trunc", [0, -3, True])
    def test_truncation_below_one_rejected(self, trunc):
        # True equals 1, but must not reach the cached member of V = 1
        k_series(spec(2), 1), l_series(spec(2), 1)
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            k_series(spec(2), trunc)
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            l_series(spec(2), trunc)

    def test_degree_one_sets_coincide(self):
        for v in (1, 3):
            assert k_series(spec(1), v) == k_series(spec(1, 1), v)

    def test_weights_are_powers_of_two(self):
        for n in range(5):
            v = max(n, 1)
            for s in all_subsets(n):
                for m, c in k_series(s, v).terms.items():
                    assert c == 2 ** m.distinct_naturals()
                for m, c in l_series(s, v).terms.items():
                    assert c == 2 ** m.distinct_naturals()


class TestSharedResults:
    def test_cached_member_cannot_be_mutated(self):
        out = k_series(spec(1), 1)
        with pytest.raises(AttributeError):
            out.terms.clear()
        with pytest.raises(TypeError):
            out.terms[mono("x0")] = 5
        fresh = k_series(spec(1), 1)
        assert {str(m): c for m, c in fresh.terms.items()} == {"x0": 1, "x1": 2, "xinf": 1}


def _assert_matches_reference(s, trunc):
    assert k_series(s, trunc) == reference_member("K", s, trunc, 2)
    assert l_series(s, trunc) == reference_member("L", s, trunc, 2)
    assert k_series_q(s, trunc, 3) == reference_member("K", s, trunc, 3)


class TestAgainstTupleFilter:
    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_small_degrees(self, n):
        for trunc in sorted({max(n, 1), n + 2}):
            for s in all_subsets(n):
                _assert_matches_reference(s, trunc)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_random_members(self, data):
        n = data.draw(st.integers(0, 7))
        trunc = data.draw(st.integers(max(n, 1), n + 2))
        members = data.draw(st.sets(st.integers(1, n))) if n else set()
        _assert_matches_reference(spec(n, *members), trunc)


class TestBelowTheDegree:
    # at V < n a member builds only the masks whose words fit in V
    def test_tables_are_the_filtered_full_table(self):
        # in the full table's order; the cache is bypassed, so that these
        # 6,138 tables evict nothing
        build = families._pattern_coords.__wrapped__
        for n in range(10):
            for s in all_subsets(n):
                for kind in "KL":
                    for q in (2, 3, -2):
                        full = list(build(kind, s, q).items())
                        for v in range(1, n):
                            fitting = [(mask, c) for mask, c in full if n - mask.bit_count() <= v]
                            assert list(build(kind, s, q, v).items()) == fitting, (kind, s, q, v)

    def test_members_match_the_tuple_filter(self):
        for n in range(2, 6):
            for trunc in range(1, n):
                for s in all_subsets(n):
                    _assert_matches_reference(s, trunc)

    def test_a_member_at_v_n_reads_the_table_of_reconstruct(self):
        s = spec(11, 4, 8)
        families._family.__wrapped__("K", s, 11, 2)
        before = families._pattern_coords.cache_info()
        families._pattern_coords("K", s, 2)
        assert families._pattern_coords.cache_info().hits == before.hits + 1


class TestLSeries:
    def test_degree_three_single_member_expansion(self):
        out = l_series(spec(3, 1), 2)
        assert {str(m): c for m, c in out.terms.items()} == {
            "x0^3": 1,
            "x0^2*x1": 2,
            "x0^2*x2": 2,
            "x0^2*xinf": 1,
        }

    def test_full_set_collapses(self):
        for n in range(1, 5):
            assert l_series(spec(n, *range(1, n + 1)), max(n, 1)).is_zero()
        assert l_series(spec(0), 1) == Series(0, 1, {Monomial(): 1})

    def test_empty_set_equals_k(self):
        for n in range(5):
            v = max(n, 1)
            assert l_series(spec(n), v) == k_series(spec(n), v)

    def test_zero_exactly_when_no_generic_monomial(self):
        for n in range(6):
            v = max(n, 1)
            for s in all_subsets(n):
                assert l_series(s, v).is_zero() == (m_generic_monomial(s, max(v, n)) is None)


class TestKSeriesQ:
    def test_base_two_specializes(self):
        for s in [spec(2, 1), spec(3, 2), spec(1)]:
            assert k_series_q(s, 3, 2) == k_series(s, 3)

    @pytest.mark.parametrize("q", [3, 5, -2])
    def test_square_coefficients(self, q):
        one = k_series_q(spec(1), 2, q)
        square = one * one
        assert square.coefficient(mono("x1^2")) == q * q
        assert square.coefficient(mono("x0*x1")) == 2 * q

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            k_series_q(spec(1), 1, 0)
        # bool is an int subclass, but True would build the member of q = 1
        with pytest.raises(ValueError, match="q must be a nonzero integer, got True"):
            k_series_q(spec(1), 1, True)


class TestLSpecial:
    def test_examples(self):
        assert is_l_special(mono("x0^3*x1^3*x4*x6^5*xinf^2"))
        assert not is_l_special(mono("x0^2*x1^2*x2"))  # x1 has exponent 2
        assert not is_l_special(mono("x0*x2^3"))  # lone border
        assert is_l_special(Monomial())


class TestGenericMonomials:
    def test_canonical_representative(self):
        out = m_generic_monomial(spec(14, 1, 2, 5, 9, 11, 14), 14)
        assert out == mono("x0^3*x1^3*x2*x3^5*xinf^2")

    def test_equivalent_sets_share_the_representative(self):
        a = m_generic_monomial(spec(14, 1, 2, 5, 9, 10, 11, 14), 14)
        b = m_generic_monomial(spec(14, 1, 2, 5, 9, 11, 14), 14)
        assert a == b

    def test_full_set_has_no_representative(self):
        for n in range(1, 6):
            assert m_generic_monomial(spec(n, *range(1, n + 1)), n) is None

    def test_empty_set_forces_strict_chain(self):
        assert m_generic_monomial(spec(2), 2) == mono("x1*x2")

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            m_generic_monomial(spec(3), 2)

    def test_membership_examples(self):
        assert m_membership(mono("x0^3*x1^3*x2*x3^5*xinf^2"), spec(14, 1, 2, 5, 9, 11, 14))
        assert not m_membership(mono("x1*x2"), spec(2, 1))
        assert m_membership(mono("x0^2"), spec(2, 1))
        with pytest.raises(ValueError):
            m_membership(mono("x1"), spec(2, 1))

    def test_members_are_l_special(self):
        for n in range(6):
            v = max(n, 1)
            for m in all_monomials(n, v):
                for s in all_subsets(n):
                    if m_membership(m, s):
                        assert is_l_special(m)

    def test_partition_of_l_special_monomials(self):
        # every special monomial belongs to at least one generic family, the
        # containing subsets form one class of equal L members, and equal L
        # members contain exactly the same generic monomials
        for n in range(6):
            v = max(n, 1)
            series = {s: l_series(s, v) for s in all_subsets(n)}
            for m in all_monomials(n, v):
                owners = [s for s in series if m_membership(m, s)]
                if not is_l_special(m):
                    assert owners == []
                    continue
                assert owners, f"{m} belongs to no generic family"
                base = series[owners[0]]
                assert all(series[s] == base for s in owners)
                for s, other in series.items():
                    if other == base:
                        assert s in owners

    def test_containment_law(self):
        # an L member hits a generic monomial of another subset exactly when
        # that subset's pattern forces every triple the L member requires
        # (and the other subset has generic monomials at all)
        for n in range(5):
            v = max(n, 1)
            monos = list(all_monomials(n, v))
            for lam in all_subsets(n):
                ls = l_series(lam, v)
                for om in all_subsets(n):
                    hit = any(
                        m_membership(m, om) and ls.coefficient(m) != 0 for m in monos
                    )
                    nonempty = m_generic_monomial(om, max(v, n)) is not None
                    forced = reference_forced_equalities(om)
                    assert hit == (nonempty and all(forced[i - 1] and forced[i] for i in lam.members)), (lam, om)
                    # member containment and series equality each suffice
                    if nonempty and (lam.members <= om.members or ls == l_series(om, v)):
                        assert hit, (lam, om)

    def test_containment_needs_patterns_not_members(self):
        # member containment is not necessary: {2,3} forces the chain
        # g1 = g2 = g3 = g4, so its L member holds x0^4, the lone generic
        # monomial of {1,3}, although {2,3} is not a subset of {1,3} and the
        # two series differ
        lam, om = spec(4, 2, 3), spec(4, 1, 3)
        ls = l_series(lam, 4)
        witness = mono("x0^4")
        assert m_membership(witness, om)
        assert ls.coefficient(witness) == 1
        assert not lam.members <= om.members
        assert ls != l_series(om, 4)
