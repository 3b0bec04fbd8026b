"""The M-coordinate engine against monomial references written here.

``Series.mul`` works on bordered M-coordinates when its factors are
quasisymmetric; ``decompose_l`` and ``reconstruct`` always do.  This
file keeps three references of its own, sharing no code with that
engine: a monomial convolution over packed exponent vectors, the L walk
on monomials at V, and the group-and-count quasisymmetry test.
Products must equal the convolution, decompositions of any target,
quasisymmetric or not, must equal the walk (errors included), and
``relabel_check`` and the coordinate read must agree with the test.  It
also pins the errors of out-of-span targets, checks that family products
never reach the library's own convolution and that decomposing and
reconstructing build no member at V, and that every library cache is
bounded.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borderqsym
from borderqsym import (
    INF,
    Monomial,
    NonzeroResidualError,
    NotDivisibleError,
    Series,
    SubsetSpec,
    all_subsets,
    alphabet,
    decompose_k,
    decompose_l,
    k_series,
    k_series_q,
    l_series,
    reconstruct,
    relabel_check,
)
from borderqsym import basis, cli, core
from conftest import mono, spec

BASES = {"K": 2, "L": 2, "K3": 3, "K-2": -2}


def member(kind, s, trunc):
    if kind == "L":
        return l_series(s, trunc)
    return k_series(s, trunc) if kind == "K" else k_series_q(s, trunc, BASES[kind])


def packed_terms(series):
    """Terms keyed by the exponent vector over the alphabet, 8 bits a variable."""
    shift = {i: 8 * p for p, i in enumerate(alphabet(series.trunc))}
    return {sum(e << shift[i] for i, e in m.pairs): c for m, c in series.terms.items()}


def reference_product(a, b):
    """The product by monomial convolution: exponent vectors add."""
    right = packed_terms(b).items()
    out = {}
    for x, c1 in packed_terms(a).items():
        for y, c2 in right:
            out[x + y] = out.get(x + y, 0) + c1 * c2
    return {g: c for g, c in out.items() if c}


def reference_walk(target):
    """The L walk on monomials: ("ok", coeffs) or the failure's fields."""
    d, trunc = target.degree, target.trunc
    residual = dict(target.terms)
    coeffs = {}
    for size in range(d + 1):
        for members in itertools.combinations(range(1, d + 1), size):
            # block numbers of padded positions 0..d+1, equal exactly where forced
            blocks = [0]
            for i in range(1, d + 2):
                blocks.append(blocks[-1] + (i - 1 not in members and i not in members))
            if blocks[-1] == 0:
                continue
            s = SubsetSpec(d, frozenset(members))
            w = Monomial.from_indices(INF if b == blocks[-1] else b for b in blocks[1:-1])
            c, divisor = residual.get(w, 0), 2 ** (blocks[-1] - 1)
            if c % divisor:
                return ("not divisible", s, w, c, divisor)
            if c:
                coeffs[s] = c // divisor
                for m, v in l_series(s, trunc).terms.items():
                    residual[m] = residual.get(m, 0) - coeffs[s] * v
    left = {m: c for m, c in residual.items() if c}
    if left:
        w = min(left, key=lambda m: (m.degree, m.indices()))
        return ("residual", w, left[w])
    return ("ok", coeffs)


def reference_relabel(series):
    """Quasisymmetry by grouping monomials on (e0, word, e_inf) and counting placements."""
    groups = {}
    for m, c in series.terms.items():
        naturals = [(i, e) for i, e in m.pairs if i != 0 and i != INF]
        key = (m.exponent(0), tuple(e for _, e in naturals), m.exponent(INF))
        groups.setdefault(key, {})[tuple(i for i, _ in naturals)] = c
    return all(
        len(placements) == math.comb(series.trunc, len(word)) and len(set(placements.values())) == 1
        for (_, word, _), placements in groups.items()
    )


def library_walk(target):
    try:
        return ("ok", decompose_l(target).coeffs)
    except NotDivisibleError as err:
        return ("not divisible", err.spec, err.monomial, err.coefficient, err.divisor)
    except NonzeroResidualError as err:
        return ("residual", err.witness, err.coefficient)


def in_k_basis(l_coeffs):
    # L_S is the signed sum of K_T over T within S, sign (-1)^|T|
    out = {}
    for s, c in l_coeffs.items():
        for size in range(len(s.members) + 1):
            for t in itertools.combinations(sorted(s.members), size):
                key = SubsetSpec(s.n, frozenset(t))
                out[key] = out.get(key, 0) + (-1) ** size * c
    return {t: c for t, c in out.items() if c}


def check_product(a, b):
    product = a * b
    assert (product.degree, product.trunc) == (a.degree + b.degree, a.trunc)
    assert packed_terms(product) == reference_product(a, b)
    return product


def check_decompositions(target):
    """Whether the target is in the span, after checking both walks agree."""
    expected = reference_walk(target)
    assert library_walk(target) == expected
    if expected[0] == "ok":
        assert decompose_k(target).coeffs == in_k_basis(expected[1])
    return expected[0] == "ok"


def check_relabel_agreement(series):
    expected = reference_relabel(series)
    assert relabel_check(series) == expected
    assert (core._coordinates(series) is not None) == expected


def check_kept_coordinates(series):
    # the coordinates a member or product keeps are those its terms give
    fresh = Series(series.degree, series.trunc, series.terms)
    assert dict(core._coordinates(fresh)) == dict(core._coordinates(series))


def factors(max_n):
    return [(kind, s) for n in range(max_n + 1) for s in all_subsets(n) for kind in BASES]


class TestExhaustive:
    # Truncations 1..6 below, at and above the degree, with V + d <= 9 so
    # that the convolution takes a few seconds.  Decompositions run at V = d.
    FACTORS = factors(4)

    def pairs(self, max_degree):
        for i, (ka, a) in enumerate(self.FACTORS):
            for kb, b in self.FACTORS[i:]:
                if a.n + b.n <= max_degree:
                    yield (ka, a), (kb, b)

    def test_products_match_the_convolution(self):
        count = 0
        for (ka, a), (kb, b) in self.pairs(6):
            for trunc in range(1, min(6, 9 - a.n - b.n) + 1):
                check_product(member(ka, a, trunc), member(kb, b, trunc))
                count += 1
        assert count > 10_000

    def test_decompositions_match_the_walk(self):
        for (ka, a), (kb, b) in self.pairs(5):
            trunc = max(a.n + b.n, 1)
            product = member(ka, a, trunc) * member(kb, b, trunc)
            check_decompositions(product)
            check_relabel_agreement(product)
            check_kept_coordinates(product)

    def test_relabel_agrees_on_members_and_perturbations(self):
        for kind, s in self.FACTORS:
            for trunc in (1, s.n + 1):
                series = member(kind, s, trunc)
                check_relabel_agreement(series)
                check_kept_coordinates(series)
                for perturbed in perturbations(series):
                    check_relabel_agreement(perturbed)
                    if trunc >= s.n:
                        check_decompositions(perturbed)


def perturbations(series):
    """Copies with one coefficient bumped, one term dropped, or one term added."""
    terms = series.sorted_terms()
    out = []
    if terms:
        m, c = terms[len(terms) // 2]
        out.append(Series(series.degree, series.trunc, {**series.terms, m: c + 1}))
        out.append(Series(series.degree, series.trunc, {k: v for k, v in terms if k != m}))
    extra = Monomial.from_indices((1,) * series.degree)
    out.append(series + Series(series.degree, series.trunc, {extra: 1}))
    return out


@st.composite
def products(draw):
    d = draw(st.integers(0, 7))
    n = draw(st.integers(0, d))
    trunc = draw(st.integers(max(d - 1, 1), d + 2))
    kinds = draw(st.sampled_from([("K", "K"), ("K", "L"), ("L", "L"), ("K3", "K3"), ("K-2", "K-2")]))
    subsets = [draw(st.sets(st.integers(1, k), max_size=k)) if k else set() for k in (n, d - n)]
    return [member(kind, SubsetSpec(k, frozenset(sub)), trunc)
            for kind, k, sub in zip(kinds, (n, d - n), subsets)]


@settings(max_examples=20, deadline=None)
@given(products())
def test_random_products_agree_with_the_references(pair):
    a, b = pair
    product = check_product(a, b)
    check_relabel_agreement(product)
    for perturbed in perturbations(product):
        check_relabel_agreement(perturbed)
        if product.trunc >= product.degree:
            check_decompositions(perturbed)
    if product.trunc >= product.degree and check_decompositions(product):
        assert reconstruct(decompose_l(product), product.trunc) == product
        assert reconstruct(decompose_k(product), product.trunc) == product


@st.composite
def sparse_series(draw):
    """A few random monomials with small coefficients; rarely quasisymmetric."""
    d = draw(st.integers(0, 5))
    trunc = draw(st.integers(max(d, 1), d + 2))
    index = st.sampled_from(alphabet(trunc))
    monomials = st.lists(index, min_size=d, max_size=d).map(lambda g: Monomial.from_indices(sorted(g)))
    coefficient = st.sampled_from([1, -1, 2, -2, 3, 4, -8, 12])
    return Series(d, trunc, draw(st.dictionaries(monomials, coefficient, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(sparse_series())
def test_random_series_agree_with_the_walk(series):
    check_relabel_agreement(series)
    if check_decompositions(series):
        assert reconstruct(decompose_l(series), series.trunc) == series


def test_residual_without_smallest_placements():
    # x2^3 places its word on 2, not 1, so the walk never reads it
    with pytest.raises(NonzeroResidualError) as err:
        decompose_l(Series(3, 4, {mono("x2^3"): 1}))
    assert (err.value.witness, err.value.coefficient) == (mono("x2^3"), 1)


@pytest.fixture
def no_monomial_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomial engine reached")

    monkeypatch.setattr(core, "_convolve", refuse)


@pytest.mark.usefixtures("no_monomial_engine")
class TestOutOfSpanErrors:
    """Fields pinned from the monomial walk for quasisymmetric targets outside the span."""

    @staticmethod
    def group(degree, trunc, key, c):
        # every placement of one M-coordinate on the naturals 1..V
        e0, word, einf = key
        return Series(degree, trunc, {
            Monomial(zip((0, *placement, INF), (e0, *word, einf))): c
            for placement in itertools.combinations(range(1, trunc + 1), len(word))
        })

    def test_q3_square_is_not_divisible(self):
        one = k_series_q(spec(1), 2, 3)
        square = one * one
        with pytest.raises(NotDivisibleError) as err:
            decompose_l(square)
        e = err.value
        assert (e.spec, e.monomial, e.coefficient, e.divisor) == (spec(2), mono("x1*x2"), 18, 4)

    @pytest.mark.parametrize("trunc", [3, 4])
    def test_odd_group_leaves_a_residual(self, trunc):
        # the witness is the group's placement on 1, 2, ..., not any other
        target = k_series(spec(1), trunc) * k_series(spec(2, 1), trunc)
        target = target + self.group(3, trunc, (0, (2,), 1), 3)
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2*xinf"), 3)

    def test_witness_is_the_smallest_representative(self):
        # (0, (2,), 1) is the smaller coordinate, but x0*x1^2 < x1^2*xinf
        target = k_series(spec(1), 3) * k_series(spec(2, 1), 3)
        target = target + self.group(3, 3, (0, (2,), 1), 3) + self.group(3, 3, (1, (2,), 0), 5)
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x0*x1^2"), 5)


class TestCoordinatePathIsTaken:
    # a silent fall back to the monomial engine would fail these
    def test_family_products_and_decompositions(self, no_monomial_engine):
        for left, right in [(spec(2, 1), spec(3, 2)), (spec(1), spec(4, 1, 3))]:
            for build in (k_series, l_series):
                product = build(left, 5) * build(right, 5)
                assert decompose_k(product).coeffs
                assert decompose_l(product).coeffs

    def test_cli_decompose(self, no_monomial_engine, capsys):
        assert cli.main(["decompose", "--basis", "K", "--left", "K:2:1", "--right", "K:3:2", "--json"]) == 0
        assert '"basis": "K"' in capsys.readouterr().out

    def test_no_member_is_built_at_v(self, monkeypatch):
        products = [build(left, 5) * build(right, 5)
                    for left, right in [(spec(2, 1), spec(3, 2)), (spec(1), spec(4, 1, 3))]
                    for build in (k_series, l_series)]
        outside = Series(2, 3, {mono("x1*x2"): 4})

        def refuse(*args):
            raise AssertionError("member built at V")

        monkeypatch.setattr(borderqsym.families, "_family", refuse)
        for product in products:
            for decompose in (decompose_l, decompose_k):
                assert reconstruct(decompose(product), 5) == product
        with pytest.raises(NonzeroResidualError):
            decompose_l(outside)

    def test_other_input_reaches_the_convolution(self, no_monomial_engine):
        x1 = Series(1, 2, {mono("x1"): 1})
        with pytest.raises(AssertionError, match="monomial engine reached"):
            x1 * x1


def test_library_caches_are_bounded():
    caches = {
        f"{module.__name__}.{name}": value
        for module in (core, borderqsym.families, basis, borderqsym.oracle, borderqsym.shuffle, cli)
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters") and value.__module__ == module.__name__
    }
    assert len(caches) >= 3
    for name, fn in caches.items():
        assert fn.cache_parameters()["maxsize"] is not None, f"{name} is unbounded"
