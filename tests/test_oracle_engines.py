"""The oracles on M-coordinates against their monomial forms in ``reference.py``.

``check_spreading`` sweeps equality patterns, and ``rational_solve`` has
one equation per M-coordinate, whenever their inputs are quasisymmetric.
They must answer as the sweep of the whole slice (``test_patterns.py``
checks the flags sweep on the same products), and as the ``Fraction``
solver with one equation per monomial, on products, combinations of
members and perturbed copies, quasisymmetric or not; the problematic
relations of every small monomial must follow the exponent rule.  The
case rule, evaluated once per exponent pattern, must give every
monomial the value of its per-monomial form.  This file also pins that
the coordinate paths are taken and build no monomial, and that an
expanded series shares its (index, exponent) pairs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderqsym import (
    INF,
    Monomial,
    NonzeroResidualError,
    NotDivisibleError,
    Series,
    SubsetSpec,
    all_monomials,
    all_subsets,
    check_spreading,
    decompose_l,
    k1_coefficient,
    k_series,
    k_series_q,
    l_series,
    problematic_relations,
    rational_solve,
)
from borderqsym import core, oracle
from conftest import BASES, member, mono, perturbations, spec
from reference import (
    compositions,
    member_product,
    reference_exponent_relations,
    reference_flags_spreading,
    reference_k1_coefficient,
    reference_rational_solve,
    reference_slice_spreading,
    small_monomials,
    spreading_cases,
)


def check_spreading_agrees(series):
    expected = reference_slice_spreading(series)
    assert check_spreading(series) == reference_flags_spreading(series) == expected
    return expected


def check_solve_agrees(columns, target):
    expected = reference_rational_solve(columns, target)
    assert rational_solve(columns, target) == expected
    return expected


def test_relations_match_the_exponent_rule():
    for m in small_monomials():
        assert [(r.kind.value, r.position) for r in problematic_relations(m)] == reference_exponent_relations(m), m


class TestSpreadingAgainstTheSweep:
    def test_products_and_their_perturbations(self):
        # against the sweep of the whole slice; perturbed copies that are
        # not quasisymmetric take the monomial branch of the library
        answers = {False: set(), True: set()}
        for f, perturbed in spreading_cases():
            expected = reference_slice_spreading(f)
            assert check_spreading(f) == expected, f
            answers[perturbed].add(expected)
        assert answers == {False: {True}, True: {True, False}}

    def test_quasisymmetric_violation_and_zero(self):
        square_sum = Series(2, 3, {mono(t): 1 for t in ("x1^2", "x2^2", "x3^2")})
        assert check_spreading_agrees(square_sum) is False
        assert check_spreading_agrees(Series.zero(3, 4)) is True


class TestRationalSolveAgainstTheFractionSolver:
    def test_family_columns(self):
        # every product to degree 3 and every 20th at degree 4, where the
        # Fraction reference takes about 60 ms a system
        outcomes = set()
        for kind in BASES:
            for d in range(5):
                for trunc in sorted({max(d, 1), d + 1}):
                    columns = [member(kind, s, trunc) for s in all_subsets(d)]
                    pairs = [(a, b) for n in range(d + 1) for a in all_subsets(n) for b in all_subsets(d - n)]
                    targets = [member_product(kind, a, kind, b, trunc) for a, b in pairs[:: 20 if d == 4 else 1]]
                    targets += [Series.zero(d, trunc), *perturbations(targets[-1])]
                    for target in targets:
                        outcomes.add(check_solve_agrees(columns, target) is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_edge_systems(self, kind):
        # a zero target, no columns, and a zero column: the L member of the
        # full set, whose forced mask is all ones; with no rows, no column
        # can pivot
        for d in range(1, 5):
            columns = [member(kind, s, d) for s in all_subsets(d)]
            product = member_product(kind, spec(1), kind, next(all_subsets(d - 1)), d)
            assert check_solve_agrees(columns, Series.zero(d, d)) == [0] * len(columns)
            assert check_solve_agrees([], Series.zero(d, d)) == []
            assert check_solve_agrees([], product) is None
            zero = l_series(spec(d, *range(1, d + 1)), d)
            assert zero.is_zero()
            solution = check_solve_agrees([zero, *columns, zero], product)
            assert (solution is None) == (BASES[kind] != 2 and d > 1)
            assert solution is None or solution[0] == solution[-1] == 0
            assert check_solve_agrees([zero], product) is None
            assert check_solve_agrees([zero, zero], Series.zero(d, d)) == [0, 0]

    @pytest.mark.parametrize("kind", ["K", "L"])
    def test_perturbed_products_to_degree_6(self, kind, monkeypatch):
        # Every product of degree 2 and 3 and a seeded 4 at each degree 4 to
        # 6, at V = d, with their perturbations (at V = 1 every series is
        # quasisymmetric).  A combination of quasisymmetric columns is
        # quasisymmetric, so a target without coordinates is None at once,
        # placing no column's words, as its monomial system says: the
        # Fraction solver below degree 4, the Möbius read above.
        def refuse(*args):
            raise AssertionError("a column's words placed")

        rng = random.Random(6)
        placements = core._Placements._placements
        outcomes = []
        for d in range(2, 7):
            columns = [member(kind, s, d) for s in all_subsets(d)]
            pairs = [(a, b) for n in range(d + 1) for a in all_subsets(n) for b in all_subsets(d - n)]
            for a, b in pairs if d <= 3 else rng.sample(pairs, 4):
                for target in perturbations(member_product(kind, a, kind, b, d)):
                    if target._coords is not None:
                        continue
                    monkeypatch.setattr(core._Placements, "_placements", refuse)
                    assert rational_solve(columns, target) is None
                    monkeypatch.setattr(core._Placements, "_placements", placements)
                    if d <= 3:
                        assert reference_rational_solve(columns, target) is None
                    else:
                        with pytest.raises((NotDivisibleError, NonzeroResidualError)):
                            decompose_l(target)
                    outcomes.append(d)
        assert [outcomes.count(d) for d in range(2, 7)] == {"K": [16, 92, 12, 12, 12], "L": [12, 60, 8, 12, 10]}[kind]

    @pytest.mark.parametrize("q", [-3, -2, 2, 3, 5])
    def test_q_squares(self, q):
        one = k_series_q(spec(1), 2, q)
        columns = [k_series_q(s, 2, q) for s in all_subsets(2)]
        assert (check_solve_agrees(columns, one * one) is None) == (q != 2)


@st.composite
def systems(draw):
    d = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(sorted(BASES)))
    trunc = draw(st.integers(max(d - 1, 1), d + 1))

    def subsets(k):
        return st.sets(st.integers(1, max(k, 1)), max_size=k).map(lambda m: SubsetSpec(k, frozenset(m)))

    columns = [member(kind, s, trunc) for s in draw(st.lists(subsets(d), min_size=1, max_size=8))]
    # repeated columns, which the solver keeps as one unknown, and scaled ones
    columns += draw(st.lists(st.sampled_from(columns), max_size=3))
    columns += [c.scale(2) for c in draw(st.lists(st.sampled_from(columns), max_size=1))]
    columns = draw(st.permutations(columns))
    n = draw(st.integers(0, d))
    a, b = draw(subsets(n)), draw(subsets(d - n))
    target = member_product(kind, a, kind, b, trunc)
    for column in columns:
        target = target + column.scale(draw(st.integers(-2, 2)))
    shape = draw(st.sampled_from(["as is", "quasisymmetric", "not quasisymmetric"]))
    if shape != "as is":
        target = perturbations(target)[0 if shape == "quasisymmetric" else -1]
    return columns, target


@settings(max_examples=40, deadline=None)
@given(systems())
def test_random_systems_agree_with_the_fraction_solver(system):
    check_solve_agrees(*system)


@st.composite
def pattern_pairs(draw):
    """Two monomials of one exponent pattern, each on its own naturals of 1..9, and a right subset."""
    d = draw(st.integers(1, 8))
    e0 = draw(st.integers(0, d))
    einf = draw(st.integers(0, d - e0))
    word = draw(st.sampled_from(compositions(d - e0 - einf)))
    placements = st.lists(st.integers(1, 9), min_size=len(word), max_size=len(word), unique=True).map(sorted)
    a, b = (Monomial(zip((0, *draw(placements), INF), (e0, *word, einf))) for _ in range(2))
    members = draw(st.sets(st.integers(1, d - 1))) if d > 1 else set()
    return a, b, SubsetSpec(d - 1, frozenset(members))


class TestCaseRuleAgainstTheMonomialForm:
    def test_every_monomial_to_degree_7(self):
        # every monomial of degree d at V = d + 1, against every right subset
        for d in range(1, 8):
            rights = list(all_subsets(d - 1))
            for m in all_monomials(d, d + 1):
                assert [k1_coefficient(m, r) for r in rights] == [reference_k1_coefficient(m, r) for r in rights], m

    @settings(max_examples=200, deadline=None)
    @given(pattern_pairs())
    def test_one_pattern_on_sparse_naturals_is_one_entry(self, case):
        # e.g. x2*x7^2 and x1*x4^2: the second call hits the entry of the first
        a, b, right = case
        assert k1_coefficient(a, right) == reference_k1_coefficient(a, right)
        before = oracle._k1_case.cache_info()
        assert k1_coefficient(b, right) == reference_k1_coefficient(b, right)
        after = oracle._k1_case.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_the_cache_is_bounded(self):
        maxsize = oracle._k1_case.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize == oracle._CASE_CACHE


class TestCoordinatePathsAreTaken:
    # a silent fall back to monomials would fail these
    @pytest.fixture
    def no_slice_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("slice swept monomial by monomial")

        monkeypatch.setattr(oracle, "all_monomials", refuse)

    def test_degree_7_product_spreads(self, no_slice_sweep):
        assert check_spreading(l_series(spec(4, 2), 8) * l_series(spec(3, 1, 3), 8))

    def test_quasisymmetric_violation(self, no_slice_sweep):
        assert not check_spreading(Series(2, 3, {mono(t): 1 for t in ("x1^2", "x2^2", "x3^2")}))

    def test_pattern_sweep_builds_no_monomial(self, no_slice_sweep, monkeypatch):
        product = l_series(spec(4, 2), 8) * l_series(spec(3, 1, 3), 8)
        violation = Series(2, 3, {mono(t): 1 for t in ("x1^2", "x2^2", "x3^2")})

        def refuse(*args):
            raise AssertionError("monomial built")

        monkeypatch.setattr(Monomial, "__init__", refuse)
        monkeypatch.setattr(Monomial, "_trusted", refuse)
        monkeypatch.setattr(oracle, "resolve", refuse)
        assert check_spreading(product)
        assert not check_spreading(violation)

    def test_rank_deficient_key_rows(self):
        # a duplicated column leaves a free variable, which stays at zero;
        # the copies solved here show only their coordinates
        class Sealed(dict):
            def _refuse(self, *args):
                raise AssertionError("monomials read")

            __getitem__ = __iter__ = __len__ = get = keys = items = values = _refuse

        def sealed(series):
            return core.Series._trusted(series.degree, series.trunc, Sealed(), series._coords)

        columns = [k_series(s, 4) for s in all_subsets(3)]
        columns.insert(2, columns[1])
        target = k_series(spec(1), 4) * k_series(spec(2, 1), 4)
        expected = reference_rational_solve(columns, target)
        assert expected is not None and expected[2] == 0
        assert rational_solve([sealed(c) for c in columns], sealed(target)) == expected


def test_expanded_pairs_are_shared():
    # equal (index, exponent) pairs of a member are one tuple object
    seen = {}
    for m in k_series(spec(4, 2), 5).terms:
        for pair in m.pairs:
            assert seen.setdefault(pair, pair) is pair
