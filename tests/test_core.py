"""Core arithmetic: monomials, series, text encoding, quasisymmetry."""

import collections
import copy
import itertools
import math
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderqsym import (
    INF,
    Decomposition,
    Monomial,
    Series,
    SubsetSpec,
    all_monomials,
    alphabet,
    k_series,
    k_series_q,
    l_series,
    relabel_check,
)
from borderqsym import core
from conftest import mono, spec
from reference import monomials_st


class TestMonomial:
    def test_from_indices_follows_subscript_convention(self):
        m = Monomial.from_indices([0, 0, 5, 5, 5])
        assert str(m) == "x0^2*x5^3"
        assert m.degree == 5
        assert m.indices() == (0, 0, 5, 5, 5)

    def test_empty_monomial(self):
        m = Monomial.from_indices([])
        assert m.degree == 0
        assert str(m) == "1"
        assert m == Monomial()

    def test_border_factors(self):
        m = Monomial.from_indices([1, INF])
        assert str(m) == "x1*xinf"
        assert m.degree == 2
        assert m.exponent(INF) == 1

    def test_from_indices_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Monomial.from_indices([5, 0])
        with pytest.raises(ValueError):
            Monomial.from_indices([INF, 1])

    def test_constructor_rejects_bad_exponents_and_indices(self):
        with pytest.raises(ValueError):
            Monomial({1: -1})
        with pytest.raises(ValueError):
            Monomial({-3: 1})
        with pytest.raises(ValueError):
            Monomial({1.5: 1})
        # bool is an int subclass, but no index or exponent: xTrue^2 would not parse back
        with pytest.raises(ValueError, match="invalid variable index True"):
            Monomial({True: 2})
        with pytest.raises(ValueError, match="invalid variable index False"):
            Monomial({False: 1})
        with pytest.raises(ValueError, match="exponent of x1 must be a nonnegative integer, got True"):
            Monomial({1: True})

    def test_zero_exponents_are_dropped(self):
        assert Monomial({1: 0, 2: 3}) == Monomial({2: 3})

    def test_mul_merges_exponents(self):
        assert mono("x0*x1") * mono("x1^2*xinf") == mono("x0*x1^3*xinf")

    def test_drop_one(self):
        assert mono("x0^2*x3").drop_one(0) == mono("x0*x3")
        assert mono("x3").drop_one(3) == Monomial()
        with pytest.raises(ValueError):
            mono("x3").drop_one(1)

    def test_distinct_naturals_ignores_borders(self):
        assert mono("x0^2*x1*x4^3*xinf").distinct_naturals() == 2
        assert mono("x0^2*xinf").distinct_naturals() == 0

    def test_parse_round_trip(self):
        for text in ["1", "x0", "xinf^2", "x0^2*x3*xinf^2", "x1*x2*x3"]:
            assert str(Monomial.parse(text)) == text

    @pytest.mark.parametrize(
        "bad", ["", "x1*x0", "x1*x1", "x1^1", "x1^0", "y2", "x1^-1", "x01", "X1", "xinf*x1"]
    )
    def test_parse_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            Monomial.parse(bad)


class TestSeriesBasics:
    def test_add_cancels_to_zero(self):
        a = Series(2, 1, {mono("x0*x1"): 2})
        b = Series(2, 1, {mono("x0*x1"): -2})
        out = a + b
        assert out.is_zero()
        assert out.degree == 2  # the zero series keeps its degree tag

    def test_add_disjoint_supports(self):
        out = Series(2, 1, {mono("xinf^2"): 1}) + Series(2, 1, {mono("x0^2"): 1})
        assert out.terms == {mono("xinf^2"): 1, mono("x0^2"): 1}

    def test_add_zero_identity(self):
        a = Series(2, 2, {mono("x1*x2"): 4})
        assert a + Series.zero(2, 2) == a

    def test_add_mismatches_rejected(self):
        with pytest.raises(ValueError):
            Series(1, 1) + Series(2, 1)
        with pytest.raises(ValueError):
            Series(1, 1) + Series(1, 2)

    def test_scale(self):
        a = k_series(spec(2, 1), 2)
        assert a.scale(1) == a
        assert a.scale(0).is_zero()
        x0sq = Series(2, 1, {mono("x0^2"): 1})
        assert (x0sq.scale(-1) + x0sq).is_zero()
        assert 3 * x0sq == x0sq.scale(3)

    def test_scale_refuses_a_bool(self):
        a = k_series(spec(2, 1), 2)
        for scaled in (lambda: a.scale(True), lambda: a * True, lambda: True * a):
            with pytest.raises(ValueError, match="scale factor must be an integer, got True"):
                scaled()

    def test_mul_worked_product(self):
        a = Series(2, 1, {mono("x0^2"): 1})
        b = Series(3, 1, {mono("x0^3"): 1, mono("x1^3"): 2, mono("xinf^3"): 1})
        out = a * b
        assert out == Series(
            5, 1, {mono("x0^5"): 1, mono("x0^2*x1^3"): 2, mono("x0^2*xinf^3"): 1}
        )

    def test_mul_unit(self):
        unit = Series(0, 2, {Monomial(): 1})
        a = k_series(spec(2, 1), 2)
        assert unit * a == a
        assert a * unit == a

    def test_mul_single_variables(self):
        x1 = Series(1, 1, {mono("x1"): 1})
        assert x1 * x1 == Series(2, 1, {mono("x1^2"): 1})

    def test_mul_truncation_mismatch(self):
        with pytest.raises(ValueError):
            Series(1, 1) * Series(1, 2)

    def test_constructor_invariants(self):
        with pytest.raises(ValueError):
            Series(2, 1, {mono("x1"): 1})  # degree mismatch
        with pytest.raises(ValueError):
            Series(1, 1, {mono("x2"): 1})  # natural beyond truncation
        with pytest.raises(ValueError):
            Series(1, 1, {mono("x1"): "2"})  # non-integer coefficient
        with pytest.raises(ValueError):
            Series(-1, 1)
        with pytest.raises(ValueError):
            Series(0, 0)
        # bool is an int subclass, but no degree, V or coefficient
        with pytest.raises(ValueError, match="degree must be a nonnegative integer, got True"):
            Series(True, 1)
        with pytest.raises(ValueError, match="truncation must be a positive integer, got True"):
            Series(1, True)
        with pytest.raises(ValueError, match="coefficient of x1 must be an integer, got True"):
            Series(1, 1, {mono("x1"): True})
        with pytest.raises(ValueError, match="truncation must be a positive integer, got True"):
            k_series(spec(2, 1), 3).restrict(True)
        assert Series(1, 1, {mono("x1"): 0}).is_zero()  # zero coefficients dropped

    def test_every_key_is_checked_whatever_its_coefficient(self):
        with pytest.raises(ValueError, match="^term 'x1' is not a Monomial$"):
            Series(1, 1, {"x1": 1})
        with pytest.raises(ValueError, match="^monomial x1 has degree 1, series is homogeneous of degree 2$"):
            Series(2, 2, {mono("x1"): 0})
        with pytest.raises(ValueError, match="^monomial x2 uses a natural index beyond truncation 1$"):
            Series(1, 1, {mono("x2"): 0})

    def test_attributes_refuse_assignment(self):
        s = Series(1, 1, {mono("x1"): 1})
        for name in ("degree", "trunc", "terms", "_coords"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(s, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(s, name)
        assert (s.degree, s.trunc, dict(s.terms)) == (1, 1, {mono("x1"): 1})

    def test_a_series_keeps_its_own_keys(self):
        # a Monomial is not frozen: changing the caller's key afterwards
        # must not change the series
        key = mono("x1")
        s = Series(1, 1, {key: 1})
        key.pairs = ((5, 1),)
        assert str(s) == "1*x1"
        assert s.coefficient(mono("x1")) == 1 and s.coefficient(mono("x5")) == 0
        assert all(m is not key for m in s.terms)

    def test_a_copy_is_the_series_itself(self):
        for s in (Series(1, 1, {mono("x1"): 1}), k_series(spec(2, 1), 2)):
            assert copy.copy(s) is s

    def test_coefficient_lookup(self):
        a = k_series(spec(2, 1), 2)
        assert a.coefficient(mono("x0*x1")) == 2
        assert a.coefficient(mono("x0^2")) == 0
        assert a.coefficient(mono("x1*x2")) == 4
        assert a.coefficient(mono("x1")) == 0  # degree mismatch reads as 0

    def test_placement_lookups_agree_with_a_dict_born_copy(self):
        # every monomial of degree <= 6 at V = d + 1, and keys that are no
        # term: no Monomial, the wrong degree, a natural above V
        for d in range(7):
            trunc = d + 1
            for n in range(d + 1):
                view = k_series(spec(n, *range(1, n + 1, 2)), trunc) * l_series(spec(d - n, *range(2, d - n + 1, 2)), trunc)
                assert isinstance(view.terms, core._Placements)
                born = Series(d, trunc, dict(view.terms.items()))
                assert not isinstance(born.terms, core._Placements)
                above = [m for m in all_monomials(d, trunc + 2) if m.max_natural() > trunc]
                borders = [Monomial({0: e, INF: d - e}) for e in range(d + 1)]
                wrong = [*all_monomials(d + 1, trunc), *(all_monomials(d - 1, trunc) if d else ())]
                others = ["x1", str(borders[0]), borders[0].pairs, 0, None, 2.5]
                for m in [*all_monomials(d, trunc), *borders, *above, *wrong, *others]:
                    assert view.coefficient(m) == born.coefficient(m), (d, n, m)
                    assert view.terms.get(m, "none") == born.terms.get(m, "none"), (d, n, m)
                    assert (m in view.terms) == (m in born.terms), (d, n, m)
                for m in [*above, *wrong, *others]:
                    assert view.coefficient(m) == 0
                    with pytest.raises(KeyError):
                        view.terms[m]

    def test_restrict_drops_high_naturals(self):
        a = k_series(spec(2, 1), 3)
        assert a.restrict(2) == k_series(spec(2, 1), 2)
        with pytest.raises(ValueError):
            a.restrict(4)
        with pytest.raises(ValueError):
            a.restrict(0)

    def test_sorted_terms_follow_index_order(self):
        a = Series(2, 2, {mono("xinf^2"): 1, mono("x0*x1"): 2, mono("x1^2"): 3})
        assert [str(m) for m, _ in a.sorted_terms()] == ["x0*x1", "x1^2", "xinf^2"]

    def test_str(self):
        assert str(Series.zero(3, 1)) == "0"
        assert str(Series(2, 1, {mono("x0*x1"): 2})) == "2*x0*x1"


def test_all_monomials_counts():
    # multisets of size d over an alphabet of V + 2 indices
    for d, v in [(0, 1), (2, 2), (3, 2), (4, 3)]:
        assert len(list(all_monomials(d, v))) == math.comb(v + 1 + d, d)
    assert len(set(all_monomials(3, 2))) == math.comb(6, 3)


@pytest.mark.parametrize("degree", [-1, 2.0, True])
def test_all_monomials_refuses_a_degree_that_is_no_nonnegative_integer(degree):
    with pytest.raises(ValueError, match=f"^degree must be a nonnegative integer, got {degree!r}$"):
        list(all_monomials(degree, 2))


# One call per integer rule, with its whole message: every rule is
# core._check_int, and each message reads as it did before.
INTEGER_RULES = [
    (lambda: Monomial({1: -1}), "exponent of x1 must be a nonnegative integer, got -1"),
    (lambda: Series(-1, 1), "degree must be a nonnegative integer, got -1"),
    (lambda: Series(1, 0), "truncation must be a positive integer, got 0"),
    (lambda: Series(1, 1, {mono("x1"): 1.0}), "coefficient of x1 must be an integer, got 1.0"),
    (lambda: Series(1, 1).scale(True), "scale factor must be an integer, got True"),
    (lambda: SubsetSpec(-2), "n must be a nonnegative integer, got -2"),
    (lambda: k_series_q(spec(1), 1, 0), "q must be a nonzero integer, got 0"),
    (lambda: Decomposition("1", "K"), "degree must be a nonnegative integer, got '1'"),
    (lambda: Decomposition(1, "K", {spec(1): 0}), "coefficient of SubsetSpec(1, {}) must be a nonzero integer, got 0"),
]


@pytest.mark.parametrize("call, message", INTEGER_RULES, ids=[message for _, message in INTEGER_RULES])
def test_each_integer_rule_keeps_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_max_natural():
    assert mono("x0*x3^2*x5*xinf").max_natural() == 5
    assert mono("x2^3").max_natural() == 2
    assert mono("x0^2*xinf").max_natural() == 0
    assert Monomial().max_natural() == 0


def grouped_pairs(degree, trunc):
    # the pairs of every index tuple of combinations_with_replacement, in its order
    return [
        tuple((i, len(list(run))) for i, run in itertools.groupby(g))
        for g in itertools.combinations_with_replacement(alphabet(trunc), degree)
    ]


def test_all_monomials_match_their_index_tuples():
    # every run boundary of the sweep at small V: the suffix tables cover whole alphabets
    for d in range(8):
        for v in range(1, 9):
            out = list(all_monomials(d, v))
            assert [m.pairs for m in out] == grouped_pairs(d, v), (d, v)
            assert all(m.degree == d for m in out)


@pytest.mark.parametrize("degree, trunc", [(1, 600), (2, 300), (3, 40), (4, 14)])
def test_all_monomials_past_the_suffix_tables(degree, trunc):
    # long alphabets: lone pairs, columns of one factor, then table tails
    assert [m.pairs for m in all_monomials(degree, trunc)] == grouped_pairs(degree, trunc)


@pytest.mark.parametrize("degree, trunc", [(1, 10**6 - 2), (3, 178)])
def test_a_sweep_of_a_million_monomials_keeps_a_fixed_peak(degree, trunc):
    # the sweep is lazy and keeps no copy of its slice: its traced peak,
    # suffix tables included, stays far below one monomial per entry
    # (an O(V) table of pairs at V = 10^6 would hold over 200 MB)
    assert math.comb(trunc + degree + 1, degree) in range(980_000, 1_000_001)
    core._suffix_table.cache_clear()
    tracemalloc.start()
    try:
        collections.deque(all_monomials(degree, trunc), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_all_monomials_at_degree_7_and_0():
    # the pairs built directly against the index tuples, in their order
    for d, v in ((7, 7), (0, 1), (0, 4)):
        expected = [Monomial.from_indices(g) for g in itertools.combinations_with_replacement(alphabet(v), d)]
        out = list(all_monomials(d, v))
        assert [(m.pairs, m.degree) for m in out] == [(m.pairs, m.degree) for m in expected]
        assert len(out) == math.comb(v + 1 + d, d)


def test_alphabet_order():
    assert alphabet(3) == (0, 1, 2, 3, INF)
    with pytest.raises(ValueError):
        alphabet(0)


@pytest.mark.parametrize("trunc", [True, 2.5])
def test_alphabet_refuses_a_truncation_that_is_no_positive_integer(trunc):
    with pytest.raises(ValueError, match=f"truncation must be a positive integer, got {trunc!r}"):
        alphabet(trunc)


class TestRelabelCheck:
    def test_family_series_pass(self):
        assert relabel_check(k_series(spec(2, 1), 3))

    def test_lopsided_series_fails(self):
        assert not relabel_check(Series(1, 2, {mono("x1"): 1, mono("x2"): 2}))

    def test_zero_series_passes(self):
        assert relabel_check(Series.zero(4, 3))

    def test_missing_relabeling_fails(self):
        # x1^2 present but x2^2 absent at V = 2
        assert not relabel_check(Series(2, 2, {mono("x1^2"): 1}))

    def test_products_pass(self):
        a = k_series(spec(1), 3) * k_series(spec(2, 1, 2), 3)
        b = l_series(spec(2, 1), 3) * l_series(spec(1, 1), 3)
        assert relabel_check(a)
        assert relabel_check(b)


# hypothesis material: small random series over a shared truncation

@st.composite
def series_st(draw, trunc, degree=None):
    d = draw(st.integers(0, 3)) if degree is None else degree
    pairs = draw(st.lists(st.tuples(monomials_st(d, trunc), st.integers(-9, 9)), max_size=6))
    terms = {}
    for m, c in pairs:
        terms[m] = terms.get(m, 0) + c
    return Series(d, trunc, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_laws(data):
    trunc = data.draw(st.integers(1, 3))
    a = data.draw(series_st(trunc))
    b = data.draw(series_st(trunc))
    c = data.draw(series_st(trunc))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    d = data.draw(series_st(trunc, degree=b.degree))
    assert a * (b + d) == a * b + a * d


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_laws_and_homogeneity(data):
    trunc = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 3))
    a = data.draw(series_st(trunc, degree=degree))
    b = data.draw(series_st(trunc, degree=degree))
    assert a + b == b + a
    assert (a + b) - b == a
    prod = a * b
    assert prod.degree == a.degree + b.degree
    assert all(m.degree == prod.degree for m in prod.terms)


@settings(max_examples=40, deadline=None)
@given(monomials_st(3, 3))
def test_monomial_text_round_trip(m):
    assert Monomial.parse(str(m)) == m


def test_truncation_compatibility():
    # dropping the variables beyond V is a ring map, so building with more
    # naturals and then restricting equals building at V directly
    for s in [spec(2, 1), spec(3), spec(3, 1, 3), spec(4, 2)]:
        assert k_series(s, s.n + 2).restrict(s.n) == k_series(s, s.n)
        assert l_series(s, s.n + 2).restrict(s.n) == l_series(s, s.n)
    big = k_series(spec(1), 4) * k_series(spec(2, 2), 4)
    small = k_series(spec(1), 3) * k_series(spec(2, 2), 3)
    assert big.restrict(3) == small


class _CountedTerms(Mapping):
    """A series' terms that count the passes over their items."""

    def __init__(self, terms):
        self.terms = terms
        self.passes = 0

    def __getitem__(self, m):
        return self.terms[m]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        self.passes += 1
        return self.terms.items()

    def copy(self):
        return dict(self.terms)

    def __eq__(self, other):
        return self.terms == other


def test_a_series_without_coordinates_is_read_once():
    series = Series(2, 3, {mono("x1*x2"): 1, mono("x0*xinf"): 2})
    other = Series(2, 3, {mono("x1^2"): 1})
    counted = _CountedTerms(series.terms)
    object.__setattr__(series, "terms", counted)
    for _ in range(3):
        assert core._coordinates(series) is None
        assert not relabel_check(series)
        assert series == series and series != other
        assert (series + other).coefficient(mono("x1^2")) == 1
    assert counted.passes == 1
