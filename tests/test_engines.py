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

``decompose_l`` runs a Möbius transform and emulates the walk on it; the
walk it replaced, on M-coordinates against whole V-free L members, is
kept here as a fifth reference, which every decomposition must match in
coefficients, their order and every error field, for any subset order.

A series born from coordinates keeps no monomials: its ``terms`` places
them on demand.  The eager expansion that used to build them is kept
here as a fourth reference; the view must list the same monomials in the
same order, and every operation on such a series must answer as it does
on a copy built from its monomials.

Coordinate tables are keyed by equality mask, and the product
quasi-shuffles words written as bitmasks.  The tuple coordinate
(e0, word, e_inf) of a monomial and the quasi-shuffle of tuple words
they replaced are kept here as references: the codec must agree with
the one on every monomial to degree 6, and the bit-word quasi-shuffle
with the other on every pair of words of total weight up to 10.  The
references above read the library's tables through the tuple keys.
"""

import functools
import itertools
import math
import random

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
    TruncationError,
    all_subsets,
    all_monomials,
    alphabet,
    decompose_k,
    decompose_l,
    k_series,
    k_series_q,
    l_series,
    reconstruct,
    relabel_check,
)
from borderqsym import basis, cli, core, families
from conftest import BASES, group, member, mono, perturbations, spec
from test_patterns import reference_forced_equalities, reference_pattern_key, reference_representative, tuple_keyed

def reference_key(m):
    """The tuple M-coordinate of m: (e0, word of natural exponents, e_inf)."""
    pairs = m.pairs
    e0 = pairs[0][1] if pairs and pairs[0][0] == 0 else 0
    einf = pairs[-1][1] if pairs and pairs[-1][0] == INF else 0
    return (e0, tuple([e for _, e in pairs[e0 > 0:len(pairs) - (einf > 0)]]), einf)


def reference_mask(key):
    """The equality mask of a tuple coordinate: a block of size b sets b - 1 flags, then one clear."""
    e0, word, einf = key
    flags = []
    for size in (e0 + 1, *word, einf + 1):
        flags += [True] * (size - 1) + [False]
    return sum(1 << i for i, equal in enumerate(flags[:-1]) if equal)


def word_bits(word):
    """A tuple word as the library's bit-word: letter k is k - 1 set bits, then a clear bit."""
    bits, pos = 0, 0
    for k in word:
        bits |= (1 << k - 1) - 1 << pos
        pos += k
    return bits


@functools.lru_cache(maxsize=None)
def reference_quasi_shuffle(u, v):
    """Hoffman's quasi-shuffle of two tuple words, as (word, multiplicity) pairs."""
    if not u or not v:
        return ((u + v, 1),)
    out = {}
    for head, rest in (
        (u[0], reference_quasi_shuffle(u[1:], v)),
        (v[0], reference_quasi_shuffle(u, v[1:])),
        (u[0] + v[0], reference_quasi_shuffle(u[1:], v[1:])),
    ):
        for w, c in rest:
            w = (head, *w)
            out[w] = out.get(w, 0) + c
    return tuple(out.items())


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


def reference_coordinate_walk(target, subset_order=None):
    """The L walk on M-coordinates, subset by subset: a Decomposition, or the walk's error.

    Reads the residual at the key of the subset's forced pattern, checks
    it is divisible by 2^(middle blocks), and subtracts that multiple of
    the whole V-free L member from the residual.  The library's
    decomposition must answer exactly as this does, for any valid order.
    """
    d = target.degree
    if target.trunc < d:
        raise TruncationError(f"need trunc >= degree {d}, got {target.trunc}")
    order = list(all_subsets(d)) if subset_order is None else list(subset_order)
    coords = core._coordinates(target)
    if coords is None:
        residual = {reference_key(m): c for m, c in target.terms.items() if m.max_natural() == m.distinct_naturals()}
    else:
        residual = tuple_keyed(coords, d)
    coeffs = {}
    for s in order:
        forced = reference_forced_equalities(s)
        generic = reference_pattern_key(forced)
        if generic is None:
            continue
        c = residual.get(generic, 0)
        if c == 0:
            continue
        divisor = 2 ** len(generic[1])
        if c % divisor:
            raise NotDivisibleError(s, reference_representative(forced), c, divisor)
        k = c // divisor
        for key, lc in tuple_keyed(families._pattern_coords("L", s, 2), d).items():
            value = residual.get(key, 0) - k * lc
            if value:
                residual[key] = value
            else:
                residual.pop(key, None)
        coeffs[s] = k
    found = basis.Decomposition(d, "L", coeffs)
    if residual or coords is None:
        left = target - reconstruct(found, target.trunc)
        if not left.is_zero():
            witness, c = min(left.terms.items(), key=lambda mc: mc[0].sort_key())
            raise NonzeroResidualError(witness, c)
    return found


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
        target = target + group(3, trunc, (0, (2,), 1), 3)
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2*xinf"), 3)

    def test_witness_is_the_smallest_representative(self):
        # (0, (2,), 1) is the smaller coordinate, but x0*x1^2 < x1^2*xinf
        target = k_series(spec(1), 3) * k_series(spec(2, 1), 3)
        target = target + group(3, 3, (0, (2,), 1), 3) + group(3, 3, (1, (2,), 0), 5)
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


def reference_expand(degree, trunc, coords):
    """The eager expansion: every placement of every word that fits, key by key."""
    terms = {}
    naturals = range(1, trunc + 1)
    trusted = Monomial._trusted
    # cells[e] holds (i, e) for i = 0, 1, ..., V and then (INF, e)
    cells = [[*((i, e) for i in range(trunc + 1)), (INF, e)] for e in range(degree + 1)]
    for key, c in tuple_keyed(coords, degree).items():
        e0, word, einf = key
        if len(word) > trunc:
            continue
        head = (cells[e0][0],) if e0 else ()
        tail = (cells[einf][-1],) if einf else ()
        columns = [cells[e] for e in word]
        for placement in itertools.combinations(naturals, len(word)):
            terms[trusted((*head, *map(list.__getitem__, columns, placement), *tail), degree)] = c
    return terms


def check_view(series, coords):
    """The series' terms against the eager expansion of these coordinates."""
    terms = series.terms
    expected = reference_expand(series.degree, series.trunc, coords)
    assert list(terms.items()) == list(expected.items())
    assert len(terms) == len(expected)
    assert all(m in terms and terms.get(m) == c for m, c in expected.items())
    assert terms == expected


def dict_born(series):
    """A copy that keeps its monomials, as any series not born from coordinates."""
    return Series(series.degree, series.trunc, dict(series.terms.items()))


class TestTermsView:
    def test_members_match_the_eager_expansion(self):
        # V = d - 1 drops the keys whose word does not fit.  At degree 6,
        # K_3 and K_-2 would repeat the keys of K with other coefficients,
        # which the view passes through; they are left out to save time.
        for kind, q in BASES.items():
            for n in range(7 if kind in "KL" else 6):
                for s in all_subsets(n):
                    coords = families._pattern_coords(kind[0], s, q)
                    for trunc in sorted({max(n - 1, 1), max(n, 1), n + 1}):
                        series = member(kind, s, trunc)
                        assert type(series.terms) is core._Placements
                        check_view(series, coords)

    def test_products_match_the_eager_expansion(self):
        # every product to degree 4; every 16th pair at degree 5 and every
        # 128th at degree 6, which keeps the file within seconds
        nonconstant = [(kind, s) for kind, s in factors(5) if s.n]
        seen = set()
        for i, (ka, a) in enumerate(nonconstant):
            for j, (kb, b) in enumerate(nonconstant[i:]):
                d = a.n + b.n
                if d > 6 or j % {5: 16, 6: 128}.get(d, 1):
                    continue
                for trunc in (d, d + 1):
                    product = member(ka, a, trunc) * member(kb, b, trunc)
                    coords = core._coordinates(product)
                    if (d, trunc, tuple(coords.items())) in seen:
                        continue
                    seen.add((d, trunc, tuple(coords.items())))
                    check_view(product, coords)
                    if d <= 3:
                        # absent monomials too, x_{V+1} included
                        keyed = tuple_keyed(coords, d)
                        assert {m: product.terms.get(m) for m in all_monomials(d, trunc + 1)} == {
                            m: keyed.get(reference_key(m)) if m.max_natural() <= trunc else None
                            for m in all_monomials(d, trunc + 1)
                        }
        assert len(seen) > 500

    def test_lookups_outside_the_slice(self):
        series = k_series(spec(2, 1), 3)
        assert series.coefficient(mono("x1*x2")) == 4
        # a coordinate the member does not have: x0^2 is an equal triple at 1
        assert series.coefficient(mono("x0^2")) == 0
        # the same coordinate, placed beyond V
        assert series.coefficient(mono("x1*x4")) == 0
        assert mono("x1*x4") not in series.terms
        with pytest.raises(KeyError):
            series.terms[mono("x1*x4")]
        assert series.terms.get(mono("x1")) is None
        assert series.terms.get("x1") is None
        assert "x1" not in series.terms

    def test_equality_on_coordinates(self):
        series = k_series(spec(2, 1), 3)
        assert series + series == series.scale(2) != series
        # the coordinates alone do not fix V
        assert k_series(spec(2, 1), 3) != k_series(spec(2, 1), 4)
        assert k_series(spec(0), 1) != k_series(spec(0), 2)
        x0_squared = reference_mask((2, (), 0))
        border = core._expand(2, 2, {x0_squared: 1})
        assert border.terms == core._expand(2, 3, {x0_squared: 1}).terms
        assert border != core._expand(2, 3, {x0_squared: 1})


@st.composite
def small_products(draw):
    d = draw(st.integers(0, 5))
    n = draw(st.integers(0, d))
    trunc = draw(st.integers(max(d - 1, 1), d + 1))
    kinds = draw(st.sampled_from([("K", "K"), ("K", "L"), ("L", "L"), ("K3", "K3"), ("K-2", "K-2")]))
    subsets = [draw(st.sets(st.integers(1, k), max_size=k)) if k else set() for k in (n, d - n)]
    a, b = (member(kind, SubsetSpec(k, frozenset(sub)), trunc) for kind, k, sub in zip(kinds, (n, d - n), subsets))
    return a * b


@settings(max_examples=25, deadline=None)
@given(small_products(), st.sampled_from([0, 1, -1, 3]))
def test_coordinate_born_series_answer_like_dict_born_copies(product, c):
    born = [product, *perturbations(product)]
    copies = [dict_born(x) for x in born]
    slice_ = list(all_monomials(product.degree, product.trunc + 1))
    for x, dx in zip(born, copies):
        assert str(x) == str(dx)
        assert x.is_zero() == dx.is_zero()
        assert [x.coefficient(m) for m in slice_] == [dx.coefficient(m) for m in slice_]
        assert str(x.scale(c)) == str(dx.scale(c))
        for trunc in range(1, product.trunc + 1):
            assert str(x.restrict(trunc)) == str(dx.restrict(trunc))
        for y, dy in zip(born, copies):
            assert (x == y) == (dx == dy) == (x == dy) == (dx == y)
            assert str(x + y) == str(dx + dy) and x + y == dx + dy
            assert str(x - y) == str(dx - dy) and x - y == dx - dy


class TestNoMonomialIsBuilt:
    def test_coordinate_operations(self, monkeypatch):
        a, b = k_series(spec(2, 1), 6), l_series(spec(3, 2), 6)
        expected = reference_product(a, b)

        def refuse(*args):
            raise AssertionError("monomial built")

        monkeypatch.setattr(Monomial, "_trusted", refuse)
        product = a * b
        size = len(product.terms)
        assert reconstruct(decompose_k(product), 6) == product
        twice = product + product
        assert twice == product.scale(2)
        thrice = product.scale(3)
        restricted = product.restrict(5)
        total = Series.zero(2, 6) + a
        assert total == a
        monkeypatch.undo()
        assert size == len(expected)
        assert packed_terms(product) == expected
        assert packed_terms(twice) == {g: 2 * c for g, c in expected.items()}
        assert packed_terms(thrice) == {g: 3 * c for g, c in expected.items()}
        assert dict(restricted.terms.items()) == {m: c for m, c in product.terms.items() if m.max_natural() <= 5}
        assert dict(total.terms.items()) == dict(a.terms.items())

    def test_convolution_reads_a_view_once(self, monkeypatch):
        left = Series(1, 3, {mono("x0"): 2, mono("x1"): 1, mono("x3"): -1})
        right = k_series(spec(2, 1), 3)
        expected = reference_product(left, right)
        reads = []
        placements = core._Placements._placements

        def counted(view):
            reads.append(view)
            return placements(view)

        monkeypatch.setattr(core._Placements, "_placements", counted)
        product = core._convolve(left, right)
        assert len(reads) == 1 and reads[0] is right.terms
        monkeypatch.undo()
        assert packed_terms(product) == expected


def walk_outcome(decompose, target, *order):
    """The coefficients in insertion order, or the error's type and every field."""
    try:
        dec = decompose(target, *order)
    except NotDivisibleError as err:
        return ("not divisible", err.spec, err.monomial, err.coefficient, err.divisor, str(err))
    except NonzeroResidualError as err:
        return ("residual", err.witness, err.coefficient, str(err))
    except TruncationError as err:
        return ("truncation", str(err))
    return ("ok", list(dec.coeffs.items()))


def check_coordinate_walk(target, *order):
    """decompose_l against the coordinate walk, and decompose_k against its K expansion."""
    expected = walk_outcome(reference_coordinate_walk, target, *order)
    assert walk_outcome(decompose_l, target, *order) == expected
    if expected[0] == "ok" and not order:
        assert decompose_k(target).coeffs == in_k_basis(dict(expected[1]))
    return expected


KIND_PAIRS = [("K", "K"), ("K", "L"), ("L", "L"), ("K3", "K3"), ("K-2", "K-2")]


def kind_products(degree, every=1):
    """Every product (or every n-th) of two members of total degree d at V = d, for each pair of kinds."""
    trunc = max(degree, 1)
    pairs = ((ka, left, kb, right)
             for a in range(degree + 1) for left in all_subsets(a) for right in all_subsets(degree - a)
             for ka, kb in KIND_PAIRS)
    for ka, left, kb, right in itertools.islice(pairs, None, None, every):
        yield member(ka, left, trunc) * member(kb, right, trunc)


class TestCoordinateWalkParity:
    def test_every_product_to_degree_6_and_every_7th_at_7(self):
        outcomes = set()
        for degree, every in [*((d, 1) for d in range(7)), (7, 7)]:
            for product in kind_products(degree, every):
                outcomes.add(check_coordinate_walk(product)[0])
        assert outcomes == {"ok", "not divisible", "residual"}

    def test_shuffled_orders_to_degree_5(self):
        rng = random.Random(7)
        for degree in range(6):
            for product in kind_products(degree, 3):
                order = sorted(all_subsets(degree), key=lambda s: (len(s.members), rng.random()))
                check_coordinate_walk(product, order)

    @pytest.mark.parametrize("n", [4, 5])
    def test_dense_pairs(self, n):
        product = k_series(spec(n), 2 * n) * k_series(spec(n, 1), 2 * n)
        assert check_coordinate_walk(product)[0] == "ok"


def compositions(total):
    """Every word of positive letters summing to total."""
    if total == 0:
        return [()]
    return [(head, *rest) for head in range(1, total + 1) for rest in compositions(total - head)]


@st.composite
def perturbed_products(draw):
    """A product of degree <= 7 with one monomial, or one M-coordinate's placements, added."""
    a, b = draw(products())
    product = a * b
    d, trunc = product.degree, product.trunc
    c = draw(st.sampled_from([1, 2, 3, -2]))
    if draw(st.booleans()):
        g = draw(st.lists(st.sampled_from(alphabet(trunc)), min_size=d, max_size=d))
        return product + Series(d, trunc, {Monomial.from_indices(sorted(g)): c})
    e0 = draw(st.integers(0, d))
    einf = draw(st.integers(0, d - e0))
    word = draw(st.sampled_from(compositions(d - e0 - einf)))
    return product + c * core._expand(d, trunc, {reference_mask((e0, word, einf)): 1})


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_series(), perturbed_products()))
def test_random_targets_match_the_coordinate_walk(target):
    check_coordinate_walk(target)


class TestWalkEmulationPins:
    def test_not_divisible_after_earlier_subtractions(self):
        # x1^3 has coordinate 3 in the target; L_{} takes 2 of it first
        x1_cubed = reference_mask((0, (3,), 0))
        target = k_series(spec(3), 3) + core._expand(3, 3, {x1_cubed: 1})
        assert core._coordinates(target)[x1_cubed] == 3
        with pytest.raises(NotDivisibleError) as err:
            decompose_l(target)
        e = err.value
        assert (e.spec, e.monomial, e.coefficient, e.divisor) == (spec(3, 2), mono("x1^3"), 1, 2)
        assert str(e) == "coefficient 1 of x1^3 not divisible by 2 while processing SubsetSpec(3, {2})"
        assert check_coordinate_walk(target)[0] == "not divisible"

    def test_residual_left_off_the_forced_masks(self):
        # every coefficient is divisible, but the Möbius transform is
        # nonzero at the mask of x1^2, which no subset forces
        target = Series(2, 2, {mono("x1^2"): 2, mono("x2^2"): 2})
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2"), 2)
        assert check_coordinate_walk(target)[0] == "residual"

    def test_remainder_left_off_the_forced_masks(self):
        # g vanishes, but x1^2 leaves 1 mod 2 at a mask no subset forces
        target = Series(2, 2, {mono("x1^2"): 1, mono("x2^2"): 1})
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2"), 1)
        assert check_coordinate_walk(target)[0] == "residual"

    def test_warm_decomposition_builds_no_degree_data(self, monkeypatch):
        products = [member(kind, spec(3, 1), 7) * member(kind, spec(4, 2, 3), 7) for kind in ("K", "L")]
        expected = [(decompose_l(p).coeffs, decompose_k(p).coeffs) for p in products]

        def refuse(*args):
            raise AssertionError("degree data rebuilt")

        monkeypatch.setattr(SubsetSpec, "__post_init__", refuse)
        for module in (families, basis):
            for name in ("_forced", "_split", "_pattern_coords", "all_subsets"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert [(decompose_l(p).coeffs, decompose_k(p).coeffs) for p in products] == expected

    def test_mask_tables_are_a_bounded_cache(self):
        assert basis._mask_table.cache_parameters()["maxsize"] is not None


class TestMaskCodec:
    """The mask keys and bit-words against the tuple coordinate and tuple words."""

    def test_mask_and_split_match_the_tuple_key_to_degree_6(self):
        for d in range(7):
            for m in all_monomials(d, d + 1):
                e0, word, einf = reference_key(m)
                mask = core._mask(m)
                assert mask == reference_mask((e0, word, einf)), m
                assert core._split(mask, d) == (e0, word_bits(word), sum(word), einf), m
                assert core._letters(word_bits(word), sum(word)) == list(word)

    def test_bit_word_quasi_shuffle_to_total_weight_10(self):
        # the output order is the tuple one's, so products list their
        # coordinates in the same order
        count = 0
        for total in range(11):
            for su in range(total + 1):
                for u, v in itertools.product(compositions(su), compositions(total - su)):
                    expected = [(word_bits(w), c) for w, c in reference_quasi_shuffle(u, v)]
                    assert list(core._quasi_shuffle(word_bits(u), su, word_bits(v), total - su)) == expected
                    count += 1
        assert count == 6144

    def test_degree_44_products_build_no_degree_table(self):
        # two degree-22 factors at V = 1, as ``multiply --vars 1`` admits;
        # a table of 2^(d+1) entries per output degree would not fit
        keys = [(22, (), 0), (0, (), 22), (3, (19,), 0), (0, (1,), 21), (10, (2,), 10)]
        a = core._expand(22, 1, {reference_mask(key): c for c, key in enumerate(keys, 1)})
        b = core._expand(22, 1, {reference_mask(key): 1 for key in keys[::2]})
        product = check_product(a, b)
        assert product.degree == 44 and len(product.terms) == len(reference_product(a, b)) > 10
