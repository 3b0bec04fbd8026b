"""The oracles on M-coordinates against their monomial forms, kept here.

``check_spreading`` sweeps equality patterns and ``rational_solve`` has
one equation per M-coordinate whenever their inputs are quasisymmetric.
This file keeps the monomial sweep over the whole truncated slice and
the ``Fraction`` Gauss-Jordan solver with one equation per monomial as
references, and requires equal answers on family products, on
combinations of members, and on perturbed copies that are and are not
quasisymmetric.  It also pins that the coordinate paths are taken and
build no monomial, that an expanded series shares its (index, exponent)
pairs, and that the relation rule, now read off equality masks, agrees
with the rule read off exponents.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderqsym import (
    INF,
    Monomial,
    Series,
    SubsetSpec,
    all_monomials,
    all_subsets,
    check_spreading,
    k_series,
    k_series_q,
    l_series,
    problematic_relations,
    rational_solve,
    resolve,
)
from borderqsym import core, oracle
from conftest import mono, spec

BASES = {"K": 2, "L": 2, "K3": 3, "K-2": -2}


def member(kind, s, trunc):
    if kind == "L":
        return l_series(s, trunc)
    return k_series(s, trunc) if kind == "K" else k_series_q(s, trunc, BASES[kind])


@functools.lru_cache(maxsize=16)
def slice_resolutions(degree, trunc):
    """Each monomial of the slice that has problematic relations, with its resolutions."""
    out = []
    for m in all_monomials(degree, trunc):
        relations = problematic_relations(m)
        if relations:
            out.append((m, [resolve(m, relation, trunc) for relation in relations]))
    return out


def reference_spreading(f):
    """Every monomial of the slice: each resolution must double its coefficient."""
    return all(
        2 * f.coefficient(m) == f.coefficient(resolved)
        for m, resolutions in slice_resolutions(f.degree, f.trunc)
        for resolved in resolutions
    )


def reference_rational_solve(columns, target):
    """Gauss-Jordan over Fraction, one equation per monomial; free variables at zero."""
    monomials = sorted(set(itertools.chain(target.terms, *(c.terms for c in columns))), key=Monomial.sort_key)
    rows = [
        [Fraction(c.coefficient(m)) for c in columns] + [Fraction(target.coefficient(m))]
        for m in monomials
    ]
    ncols = len(columns)
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    if any(row[ncols] != 0 for row in rows[r:]):
        return None
    solution = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        solution[col] = rows[row_idx][ncols]
    return solution


def group(degree, trunc, key, c):
    """Every placement of one M-coordinate on the naturals 1..V, coefficient c."""
    e0, word, einf = key
    return Series(degree, trunc, {
        Monomial(zip((0, *placement, INF), (e0, *word, einf))): c
        for placement in itertools.combinations(range(1, trunc + 1), len(word))
    })


def perturbations(series):
    """Copies that stay quasisymmetric (scaled, one M-group added) and copies that do not."""
    d, trunc = series.degree, series.trunc
    out = [series.scale(3), series + group(d, trunc, (d, (), 0), 1)]
    if d >= 2:
        out.append(series + group(d, trunc, (0, (d - 1,), 1), -2))
    terms = series.sorted_terms()
    if terms:
        m, c = terms[len(terms) // 2]
        out.append(Series(d, trunc, {**series.terms, m: c + 1}))
        out.append(Series(d, trunc, {k: v for k, v in terms if k != m}))
    out.append(series + Series(d, trunc, {Monomial.from_indices((1,) * d): 1}))
    return out


def check_spreading_agrees(series):
    expected = reference_spreading(series)
    assert check_spreading(series) == expected
    return expected


def check_solve_agrees(columns, target):
    expected = reference_rational_solve(columns, target)
    assert rational_solve(columns, target) == expected
    return expected


class TestSpreadingAgainstTheSweep:
    def test_products_and_their_perturbations(self):
        # Products commute, so each unordered pair once.  Perturbed copies
        # that are not quasisymmetric take the library's monomial sweep,
        # about 30 ms each at degree 5, so every fourth product is perturbed
        # below that degree and every 16th at it.
        products, perturbed = set(), set()
        for build in (k_series, l_series):
            for d in range(6):
                factors = [s for n in range(d + 1) for s in all_subsets(n)]
                pairs = [(a, b) for i, a in enumerate(factors) for b in factors[i:] if a.n + b.n == d]
                for count, (a, b) in enumerate(pairs):
                    product = build(a, d + 1) * build(b, d + 1)
                    products.add(check_spreading_agrees(product))
                    if count % (4 if d < 5 else 16) == 0:
                        perturbed.update(map(check_spreading_agrees, perturbations(product)))
        assert products == {True} and perturbed == {True, False}

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
                    products = [member(kind, a, trunc) * member(kind, b, trunc)
                                for n in range(d + 1) for a in all_subsets(n) for b in all_subsets(d - n)]
                    targets = products[:: 20 if d == 4 else 1]
                    targets += [Series.zero(d, trunc), *perturbations(targets[-1])]
                    for target in targets:
                        outcomes.add(check_solve_agrees(columns, target) is None)
        assert outcomes == {True, False}

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
    n = draw(st.integers(0, d))
    a, b = draw(subsets(n)), draw(subsets(d - n))
    target = member(kind, a, trunc) * member(kind, b, trunc)
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
            return core.Series._trusted(series.degree, series.trunc, Sealed(), core._coordinates(series))

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


def reference_relations(m):
    """The relation rule read off exponents: a lone border, a natural squared."""
    t = (0, *m.indices(), INF)
    out = []
    if m.exponent(0) == 1:
        out.append(("border_zero", 0))
    for i, e in m.pairs:
        if i != 0 and i != INF and e == 2:
            out.append(("interior_square", t.index(i)))
    if m.exponent(INF) == 1:
        out.append(("border_inf", m.degree))
    return sorted(out, key=lambda r: r[1])


def test_relations_match_the_exponent_rule():
    for d in range(7):
        for m in all_monomials(d, d + 1):
            assert [(r.kind.value, r.position) for r in problematic_relations(m)] == reference_relations(m)
