"""The M-coordinate engine against the references of ``reference.py``.

``Series.mul`` works on bordered M-coordinates when its factors are
quasisymmetric; ``decompose_l`` and ``reconstruct`` always do.  Products
must equal the monomial convolution; decompositions of any target must
give the verdict and the error fields of both L walks, on monomials at V
and on M-coordinates (the NotDivisible coefficient being the target's
own), and in span the coefficients, in their order, of the minimal read;
``relabel_check`` and the coordinate read must agree with the
group-and-count test; a coordinate-born series must list the monomials
of the eager expansion in order and answer every operation as a copy
built from its monomials does; the mask, split and letters of every
monomial to degree 6 must match its tuple key; and the bit-word
quasi-shuffle must equal the tuple one on every pair of words of total
weight up to 10.  Products, each pair of keys read through one cached
plan, must give the coordinates of the pair loop without plans, in its
order; reconstructions by the subset sum must give the coordinates of
the member sum, and build no member table.  This
file also pins the errors of out-of-span targets, checks that family
products never reach the library's own convolution and that decomposing
and reconstructing build no member at V, and that every library cache
is bounded.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borderqsym
from borderqsym import (
    Decomposition,
    Monomial,
    NonzeroResidualError,
    NotDivisibleError,
    Series,
    SubsetSpec,
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
from reference import (
    KIND_PAIRS,
    compositions,
    factor_pairs,
    factors,
    in_k_basis,
    kind_products,
    member_product,
    monomials_st,
    packed_terms,
    product_keys,
    reference_coordinate_walk,
    reference_expand,
    reference_key,
    reference_mask,
    reference_member_sum,
    reference_minimal_read,
    reference_pair_loop,
    reference_product,
    reference_quasi_shuffle,
    reference_relabel,
    reference_walk,
    small_monomials,
    tuple_keyed,
    walk_outcome,
    word_bits,
)


def check_product(kind_a, a, kind_b, b, trunc):
    """The corpus product of two members against the convolution of their terms."""
    left, right = member(kind_a, a, trunc), member(kind_b, b, trunc)
    product = member_product(kind_a, a, kind_b, b, trunc)
    assert (product.degree, product.trunc) == (a.n + b.n, trunc)
    assert packed_terms(product) == reference_product(left, right)
    return product


def check_walk(reference, target):
    """decompose_l against a reference walk in its verdict and errors, and against the minimal read in its answer.

    A NotDivisibleError carries the target's own coefficient at its
    monomial, where the walk carries its running residual; every other
    error field is the walk's.  decompose_k must give the K expansion of
    the minimal read.
    """
    expected = walk_outcome(reference, target)
    if expected[0] == "ok":
        minimal = reference_minimal_read(target)
        assert minimal is not None
        assert decompose_k(target).coeffs == in_k_basis(dict(minimal))
        expected = ("ok", minimal)
    elif expected[0] != "truncation":
        assert reference_minimal_read(target) is None
    if expected[0] == "not divisible":
        _, s, m, _, divisor, _ = expected
        err = NotDivisibleError(s, m, target.coefficient(m), divisor)
        expected = ("not divisible", s, m, err.coefficient, divisor, str(err))
    assert walk_outcome(decompose_l, target) == expected
    return expected[0]


def check_relabel_agreement(series):
    expected = reference_relabel(series)
    assert relabel_check(series) == expected
    assert (series._coords is not None) == expected


def check_kept_coordinates(series):
    # the coordinates a member or product keeps are those its terms give
    fresh = Series(series.degree, series.trunc, series.terms)
    assert dict(fresh._coords) == dict(series._coords)


class TestExhaustive:
    # Truncations 1..6 below, at and above the degree, with V + d <= 9 so
    # that the convolution takes a few seconds.  Decompositions run at V = d.
    FACTORS = factors(4)

    def test_products_match_the_convolution(self):
        count = 0
        for ka, a, kb, b in factor_pairs(self.FACTORS, range(7)):
            for trunc in range(1, min(6, 9 - a.n - b.n) + 1):
                check_product(ka, a, kb, b, trunc)
                count += 1
        assert count > 10_000

    def test_decompositions_match_the_walk(self):
        for ka, a, kb, b in factor_pairs(self.FACTORS, range(6)):
            product = member_product(ka, a, kb, b, max(a.n + b.n, 1))
            check_walk(reference_walk, product)
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
                        check_walk(reference_walk, perturbed)


@settings(max_examples=20, deadline=None)
@given(product_keys(7, 2))
def test_random_products_agree_with_the_references(key):
    product = check_product(*key)
    check_relabel_agreement(product)
    for perturbed in perturbations(product):
        check_relabel_agreement(perturbed)
        if product.trunc >= product.degree:
            check_walk(reference_walk, perturbed)
    if product.trunc >= product.degree and check_walk(reference_walk, product) == "ok":
        assert reconstruct(decompose_l(product), product.trunc) == product
        assert reconstruct(decompose_k(product), product.trunc) == product


@st.composite
def sparse_series(draw):
    """A few random monomials with small coefficients; rarely quasisymmetric."""
    d = draw(st.integers(0, 5))
    trunc = draw(st.integers(max(d, 1), d + 2))
    coefficient = st.sampled_from([1, -1, 2, -2, 3, 4, -8, 12])
    return Series(d, trunc, draw(st.dictionaries(monomials_st(d, trunc), coefficient, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(sparse_series())
def test_random_series_agree_with_the_walk(series):
    check_relabel_agreement(series)
    if check_walk(reference_walk, series) == "ok":
        assert reconstruct(decompose_l(series), series.trunc) == series


def test_residual_without_smallest_placements():
    # x2^3 places its word on 2, not 1, so the read skips it
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


def check_view(series, coords):
    """The series' terms against the eager expansion of these coordinates."""
    terms = series.terms
    expected = reference_expand(series.degree, series.trunc, coords)
    assert list(terms.items()) == list(expected.items())
    assert len(terms) == len(expected)
    assert all(m in terms and terms.get(m) == c for m, c in expected.items())
    assert terms == expected


def hand_built(series):
    """A copy built from the series' monomials, as a caller builds a series by hand."""
    return Series(series.degree, series.trunc, dict(series.terms.items()))


def plain_sum(a, b, sign):
    """a + sign * b on plain dicts of terms, zeros dropped."""
    total = {m: a.get(m, 0) + sign * b.get(m, 0) for m in {**a, **b}}
    return {m: c for m, c in total.items() if c}


def plain_str(terms):
    """The text of a series with these terms, as ``Series.__str__`` writes it."""
    return " + ".join(f"{c}*{m}" for m, c in sorted(terms.items(), key=lambda mc: mc[0].sort_key())) or "0"


class TestBirth:
    def test_a_hand_built_product_keeps_its_table(self):
        # every K x K, K x L and L x L product of degree <= 6 at V = max(d, 1)
        count = 0
        for degree in range(7):
            for product in kind_products(degree, pairs=KIND_PAIRS[:3]):
                copy = hand_built(product)
                assert type(copy.terms) is core._Placements and copy == product
                assert list(copy._coords.items()) == list(product._coords.items())
                count += 1
        assert count == sum(3 * 2**d * (d + 1) for d in range(7))

    def test_relabel_check_reports_the_representation(self):
        # members, products to degree 6, their sums, scalings and
        # restrictions, perturbations, zeros and hand-built copies of all of
        # these: a series keeps a table exactly when it is quasisymmetric
        corpus = [member(kind, s, trunc) for kind, s in factors(3) for trunc in {max(s.n, 1), s.n + 1}]
        # plain dicts handed to the constructor: each hand-built series keeps these terms
        plains = []
        for degree in range(7):
            products = list(kind_products(degree, {4: 7, 5: 37, 6: 227}.get(degree, 1)))
            for p, q in zip(products, products[1:] + products[:1]):
                corpus += [p, p + q, p - p, p.scale(-3), p.restrict(max(degree - 1, 1)), *perturbations(p)]
                terms = dict(p.terms.items())
                for m in itertools.islice(terms, 1):  # none for a zero product
                    plains += [(p, {**terms, m: terms[m] + 1}), (p, {k: c for k, c in terms.items() if k != m})]
        corpus += [Series.zero(d, trunc) for d in range(4) for trunc in range(1, 4)]
        plains += [(x, dict(x.terms.items())) for x in corpus]
        for x, terms in plains:
            copy = Series(x.degree, x.trunc, terms)
            assert dict(copy.terms.items()) == terms
            corpus.append(copy)
        tables = 0
        for series in corpus:
            assert relabel_check(series) == (type(series.terms) is core._Placements) == reference_relabel(series)
            tables += relabel_check(series)
        assert 1000 < tables < len(corpus)


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
                    product = member_product(ka, a, kb, b, trunc)
                    coords = product._coords
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

    def test_zero_coefficients_are_dropped_at_birth(self):
        series = core._expand(2, 2, {0b001: 0, 0b010: 3})
        assert dict(series._coords) == {0b010: 3}
        # x1^2 and x2^2: the placements of x0*x_i are not counted
        assert len(series.terms) == 2
        assert dict(series.terms.items()) == {mono("x1^2"): 3, mono("x2^2"): 3}
        p = k_series(spec(2, 1), 3)
        for zero in (p - p, p.scale(0)):
            assert dict(zero._coords) == {} and len(zero.terms) == 0 and zero.is_zero()


@settings(max_examples=25, deadline=None)
@given(product_keys(5, 1), st.sampled_from([0, 1, -1, 3]))
def test_coordinate_born_series_answer_like_dict_born_copies(key, c):
    # A hand-built copy keeps the same table in the same order, or the same
    # monomials.  Each answer of both is checked against plain dicts of the
    # terms computed here, so the checks hold whichever way a series is kept.
    product = member_product(*key)
    born = [product, *perturbations(product)]
    copies = [hand_built(x) for x in born]
    plains = [dict(x.terms.items()) for x in born]
    slice_ = list(all_monomials(product.degree, product.trunc + 1))
    for x, dx, px in zip(born, copies, plains):
        assert x == dx and type(x.terms) is type(dx.terms)
        assert (x._coords is None) == (dx._coords is None)
        assert x._coords is None or list(x._coords.items()) == list(dx._coords.items())
        for s in (x, dx):
            assert str(s) == plain_str(px)
            assert s.is_zero() == (not px)
            assert [s.coefficient(m) for m in slice_] == [px.get(m, 0) for m in slice_]
            assert dict(s.scale(c).terms.items()) == {m: c * v for m, v in px.items() if c * v}
            for trunc in range(1, product.trunc + 1):
                assert dict(s.restrict(trunc).terms.items()) == {m: v for m, v in px.items() if m.max_natural() <= trunc}
        for y, dy, py in zip(born, copies, plains):
            assert (x == y) == (dx == dy) == (x == dy) == (dx == y) == (px == py)
            for sign in (1, -1):
                expected = plain_sum(px, py, sign)
                for s in (x + y, dx + dy, x + dy) if sign == 1 else (x - y, dx - dy, dx - y):
                    assert dict(s.terms.items()) == expected and str(s) == plain_str(expected)


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


class TestCoordinateWalkParity:
    def test_every_product_to_degree_6_and_every_7th_at_7(self):
        outcomes = set()
        for degree, every in [*((d, 1) for d in range(7)), (7, 7)]:
            for product in kind_products(degree, every):
                outcomes.add(check_walk(reference_coordinate_walk, product))
        assert outcomes == {"ok", "not divisible", "residual"}

    @pytest.mark.parametrize("n", [4, 5])
    def test_dense_pairs(self, n):
        product = member_product("K", spec(n), "K", spec(n, 1), 2 * n)
        assert check_walk(reference_coordinate_walk, product) == "ok"


@st.composite
def perturbed_products(draw):
    """A product of degree <= 7 with one monomial, or one M-coordinate's placements, added."""
    product = member_product(*draw(product_keys(7, 2)))
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
    check_walk(reference_coordinate_walk, target)


class TestWalkEmulationPins:
    def test_not_divisible_after_earlier_subtractions(self):
        # x1^3 has coordinate 3 in the target; the walk's L_{} takes 2 of
        # it first, and the error gives the target's own 3
        x1_cubed = reference_mask((0, (3,), 0))
        target = k_series(spec(3), 3) + core._expand(3, 3, {x1_cubed: 1})
        assert target._coords[x1_cubed] == 3
        with pytest.raises(NotDivisibleError) as err:
            decompose_l(target)
        e = err.value
        assert (e.spec, e.monomial, e.coefficient, e.divisor) == (spec(3, 2), mono("x1^3"), 3, 2)
        assert str(e) == "coefficient 3 of x1^3 not divisible by 2 while processing SubsetSpec(3, {2})"
        assert check_walk(reference_coordinate_walk, target) == "not divisible"

    def test_residual_left_off_the_forced_masks(self):
        # every coefficient is divisible, but the Möbius transform is
        # nonzero at the mask of x1^2, which no subset forces
        target = Series(2, 2, {mono("x1^2"): 2, mono("x2^2"): 2})
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2"), 2)
        assert check_walk(reference_coordinate_walk, target) == "residual"

    def test_remainder_left_off_the_forced_masks(self):
        # g vanishes, but x1^2 leaves 1 mod 2 at a mask no subset forces
        target = Series(2, 2, {mono("x1^2"): 1, mono("x2^2"): 1})
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(target)
        assert (err.value.witness, err.value.coefficient) == (mono("x1^2"), 1)
        assert check_walk(reference_coordinate_walk, target) == "residual"

    def test_warm_decomposition_builds_no_degree_data(self, monkeypatch):
        products = [member(kind, spec(3, 1), 7) * member(kind, spec(4, 2, 3), 7) for kind in ("K", "L")]
        expected = [(decompose_l(p).coeffs, decompose_k(p).coeffs) for p in products]

        def refuse(*args):
            raise AssertionError("degree data rebuilt")

        monkeypatch.setattr(SubsetSpec, "__init__", refuse)
        for module in (families, basis):
            for name in ("_forced", "_lone", "_split", "_pattern_coords", "all_subsets", "reconstruct"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert [(decompose_l(p).coeffs, decompose_k(p).coeffs) for p in products] == expected

    def test_mask_tables_are_a_bounded_cache(self):
        assert basis._mask_table.cache_parameters()["maxsize"] is not None


class TestMaskCodec:
    """The mask keys and bit-words against the tuple coordinate and tuple words."""

    def test_mask_and_split_match_the_tuple_key_to_degree_6(self):
        for m in small_monomials():
            e0, word, einf = reference_key(m)
            mask = core._mask(m)
            assert mask == reference_mask((e0, word, einf)), m
            assert core._split(mask, m.degree) == (e0, word_bits(word), sum(word), einf), m
            assert core._letters(word_bits(word), sum(word)) == list(word), m

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
        product, expected = a * b, reference_product(a, b)
        assert (product.degree, product.trunc) == (44, 1) and packed_terms(product) == expected
        assert len(product.terms) == len(expected) > 10


def plan_pairs():
    """Every pair of members to degree 4, over every ordered pair of kinds, and a seeded 60 at each degree 5 to 7."""
    rng = random.Random(27)
    kinds = sorted(BASES)
    for d in range(8):
        keys = [(ka, a, kb, b) for n in range(d + 1) for a in all_subsets(n) for b in all_subsets(d - n)
                for ka in kinds for kb in kinds]
        yield from keys if d <= 4 else rng.sample(keys, 60)


class TestProductPlans:
    # q = 2, 3 and -2, mixed kinds, at V = d and (one below) V = d - 1
    @pytest.mark.parametrize("plan_cache", ["cached", "uncached"])
    def test_products_match_the_pair_loop(self, monkeypatch, plan_cache):
        if plan_cache == "uncached":
            # a product of more pairs than the cache holds leaves it as it was
            monkeypatch.setattr(core, "_PLAN_CACHE", 0)
        before = core._plan.cache_info()
        count = 0
        for ka, a, kb, b in plan_pairs():
            d = a.n + b.n
            for trunc in sorted({max(d - 1, 1), max(d, 1)}):
                left, right = member(ka, a, trunc), member(kb, b, trunc)
                expected = list(reference_pair_loop(left, right).items())
                assert list((left * right)._coords.items()) == expected, (ka, a, kb, b, trunc)
                count += 1
        assert count > 3000
        assert (core._plan.cache_info() == before) == (plan_cache == "uncached")

    def test_dict_born_factors(self):
        # a factor built by hand from a member's monomials keeps the
        # member's table in its order, so its products follow the pair
        # loop's order too; the monomial convolution of the members, which
        # reads their placements, gives that table
        for ka, a, kb, b in itertools.islice(plan_pairs(), 0, None, 7):
            trunc = max(a.n + b.n, 1)
            left, right = member(ka, a, trunc), member(kb, b, trunc)
            expected = list(reference_pair_loop(left, right).items())
            for x, y in ((hand_built(left), right), (left, hand_built(right)), (hand_built(left), hand_built(right))):
                assert type(x.terms) is type(y.terms) is core._Placements
                assert list((x * y)._coords.items()) == expected, (ka, a, kb, b)
            assert dict(core._convolve(left, right)._coords) == dict(expected), (ka, a, kb, b)

    def test_a_plan_holds_the_cached_quasi_shuffle(self):
        # (1, (2, 1), 0) of degree 4 times (0, (1, 3), 2) of degree 6: the
        # product has x0^1 and xinf^2, so its border is bit 0 and bits 9, 10
        left, right = reference_mask((1, (2, 1), 0)), reference_mask((0, (1, 3), 2))
        border, shift, words = core._plan(left, 4, right, 6)
        assert (border, shift) == (0b11000000001, 2)
        assert words is core._quasi_shuffle(word_bits((2, 1)), 3, word_bits((1, 3)), 4)


def check_reconstruct(dec, trunc):
    """reconstruct against the member sum at V, as listed in _MEMBER_SUM and by the subset sum alone."""
    expected = reference_member_sum(dec)
    series = reconstruct(dec, trunc)
    assert dict(series._coords) == expected
    assert series == core._expand(dec.degree, trunc, expected)
    listed = basis._MEMBER_SUM
    try:
        basis._MEMBER_SUM = {}
        assert dict(reconstruct(dec, trunc)._coords) == expected
    finally:
        basis._MEMBER_SUM = listed


class TestSubsetSumReconstruct:
    def test_every_decomposition_of_every_product_to_degree_7(self):
        # each unordered pair of K and L members once, at V = d
        count = 0
        for ka, a, kb, b in factor_pairs(factors(7, ("K", "L")), range(8)):
            product = member_product(ka, a, kb, b, max(a.n + b.n, 1))
            for decompose in (decompose_k, decompose_l):
                check_reconstruct(decompose(product), product.trunc)
                count += 1
        assert count == 2 * 3601

    def test_members_of_degree_10_build_no_member_table(self):
        # many members, and a few, which below degree 8 would be summed
        rng = random.Random(10)
        for kind, size in itertools.product("KL", (3, 200)):
            chosen = rng.sample(list(all_subsets(10)), size)
            dec = Decomposition(10, kind, {s: rng.choice([-3, -1, 1, 2]) for s in chosen})
            before = families._pattern_coords.cache_info()
            reconstruct(dec, 12)
            assert families._pattern_coords.cache_info() == before
            check_reconstruct(dec, 12)


@st.composite
def combinations(draw):
    """A K or L combination of degree d <= 10, with subsets that share a forced mask, and V = d or d + 2.

    Filling the gap i + 1 between two members i and i + 2 keeps the
    forced mask, so each drawn subset may bring such a twin along.
    """
    d = draw(st.integers(0, 10))
    kind = draw(st.sampled_from("KL"))
    subsets = st.sets(st.integers(1, d), max_size=d) if d else st.just(set())
    coeffs = {}
    for members in draw(st.lists(subsets, max_size=draw(st.sampled_from([3, 12, 70])))):
        coeffs[spec(d, *members)] = draw(st.sampled_from([1, -1, 2, -4, 5]))
        gaps = sorted(i + 1 for i in members if i + 2 in members and i + 1 not in members)
        if gaps:
            twin = members | set(draw(st.lists(st.sampled_from(gaps), min_size=1, unique=True)))
            coeffs[spec(d, *twin)] = draw(st.sampled_from([1, -1, 3]))
    return Decomposition(d, kind, coeffs), draw(st.sampled_from([max(d, 1), d + 2]))


@settings(max_examples=60, deadline=None)
@given(combinations())
def test_random_combinations_match_the_member_sum(combination):
    check_reconstruct(*combination)
