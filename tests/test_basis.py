"""Change of basis, product decomposition, and the exact linear-solve cross-check."""

import random
from fractions import Fraction

import pytest

from borderqsym import (
    Decomposition,
    NonzeroResidualError,
    NotDivisibleError,
    Series,
    TruncationError,
    all_subsets,
    decompose_k,
    decompose_l,
    k_from_l,
    k_series,
    k_series_q,
    l_from_k,
    l_series,
    rational_solve,
    reconstruct,
)
from borderqsym import basis
from conftest import mono, spec


class TestInclusionExclusion:
    def test_k_from_l_examples(self):
        assert k_from_l(spec(3)).coeffs == {spec(3): 1}
        assert k_from_l(spec(2, 1)).coeffs == {spec(2): 1, spec(2, 1): -1}
        assert k_from_l(spec(2, 1, 2)).coeffs == {
            spec(2): 1,
            spec(2, 1): -1,
            spec(2, 2): -1,
            spec(2, 1, 2): 1,
        }
        assert k_from_l(spec(2, 1)).basis == "L"

    def test_l_from_k_examples(self):
        assert l_from_k(spec(3, 2)).coeffs == {spec(3): 1, spec(3, 2): -1}
        assert l_from_k(spec(3, 2)).basis == "K"

    def test_expansions_hold_as_series(self):
        for s in [spec(2, 1), spec(3, 1, 3), spec(4, 2)]:
            v = s.n
            assert reconstruct(k_from_l(s), v) == k_series(s, v)
            assert reconstruct(l_from_k(s), v) == l_series(s, v)


class TestDecomposeL:
    def test_worked_product_is_a_single_member(self):
        product = l_series(spec(2, 1), 5) * l_series(spec(3, 2), 5)
        dec = decompose_l(product)
        assert dec.coeffs == {spec(5, 1, 4): 1}
        assert reconstruct(dec, 5) == product
        # cross-check with the independent exact solver: the system is
        # solvable and any solution reconstructs the same series
        columns = [l_series(s, 5) for s in all_subsets(5)]
        solution = rational_solve(columns, product)
        assert solution is not None
        total = {}
        for x, col in zip(solution, columns):
            for m, c in col.terms.items():
                total[m] = total.get(m, 0) + x * c
        assert {m: c for m, c in total.items() if c} == {
            m: Fraction(c) for m, c in product.terms.items()
        }
        # negative control: adding the two border classes on top of {1,4}
        # double-counts x0^5 and x0^2*xinf^3
        three = Decomposition(5, "L", {spec(5, 1, 4): 1, spec(5, 1, 2, 4): 1, spec(5, 1, 4, 5): 1})
        assert reconstruct(three, 5) != product

    def test_single_members_reconstruct(self):
        # decomposing a single L member always reconstructs it; through
        # degree 3 the map is the single first-processed spec of the
        # member's equality class
        for n in range(5):
            v = max(n, 1)
            for s in all_subsets(n):
                target = l_series(s, v)
                dec = decompose_l(target)
                assert reconstruct(dec, v) == target
                if target.is_zero():
                    assert dec.coeffs == {}
                elif n <= 3:
                    first = next(o for o in all_subsets(n) if l_series(o, v) == target)
                    assert dec.coeffs == {first: 1}

    def test_single_member_maps_can_have_several_terms(self):
        # {2,3} forces one long chain, so its member contains x0^4, the
        # generic monomial of the earlier-processed {1,3}; the canonical
        # walk then works off that overshoot through the size-3 class.
        # The map is still exact, just not a single term.
        dec = decompose_l(l_series(spec(4, 2, 3), 4))
        assert dec.coeffs == {
            spec(4, 1, 3): 1,
            spec(4, 2, 3): 1,
            spec(4, 1, 2, 3): -1,
        }
        assert reconstruct(dec, 4) == l_series(spec(4, 2, 3), 4)
        dec = decompose_l(l_series(spec(4, 3, 4), 4))
        assert dec.coeffs == {
            spec(4, 2, 4): 1,
            spec(4, 3, 4): 1,
            spec(4, 2, 3, 4): -1,
        }
        assert reconstruct(dec, 4) == l_series(spec(4, 3, 4), 4)

    def test_zero_series_decomposes_empty(self):
        dec = decompose_l(Series.zero(3, 3))
        assert dec.coeffs == {}
        assert dec.degree == 3

    def test_not_divisible_detected(self):
        bad = Series(1, 1, {mono("x1"): 1})
        with pytest.raises(NotDivisibleError) as err:
            decompose_l(bad)
        assert err.value.monomial == mono("x1")
        assert err.value.divisor == 2

    def test_nonzero_residual_detected(self):
        bad = Series(2, 2, {mono("x1^2"): 2})
        with pytest.raises(NonzeroResidualError) as err:
            decompose_l(bad)
        assert err.value.witness == mono("x1^2")

    def test_truncation_guard(self):
        target = l_series(spec(2, 1), 4) * l_series(spec(3, 2), 4)
        assert target.trunc < target.degree
        with pytest.raises(TruncationError):
            decompose_l(target)

    def test_order_within_a_size_does_not_change_the_series(self):
        product = l_series(spec(2, 1), 4) * l_series(spec(2), 4)
        canonical = reconstruct(decompose_l(product), 4)
        rng = random.Random(7)
        for _ in range(3):
            order = []
            for size in range(5):
                block = [s for s in all_subsets(4) if len(s.members) == size]
                rng.shuffle(block)
                order.extend(block)
            shuffled = decompose_l(product, subset_order=order)
            assert reconstruct(shuffled, 4) == canonical == product

    def test_bad_subset_orders_rejected(self):
        product = l_series(spec(1), 2) * l_series(spec(1), 2)
        descending = sorted(all_subsets(2), key=lambda s: -len(s.members))
        with pytest.raises(ValueError):
            decompose_l(product, subset_order=descending)
        with pytest.raises(ValueError):
            decompose_l(product, subset_order=list(all_subsets(2))[:-1])
        with pytest.raises(ValueError):
            decompose_l(product, subset_order=list(all_subsets(3)))


class TestDecomposeK:
    def test_unit_factor(self):
        for s in [spec(2, 1), spec(3, 1, 2)]:
            target = k_series(spec(0), s.n) * k_series(s, s.n)
            dec = decompose_k(target)
            assert reconstruct(dec, s.n) == k_series(s, s.n)

    def test_degree_one_square(self):
        square = k_series(spec(1), 2) * k_series(spec(1), 2)
        dec = decompose_k(square)
        out = reconstruct(dec, 2)
        assert out == square
        assert out.coefficient(mono("x1^2")) == 4
        assert out.coefficient(mono("x0*x1")) == 4

    def test_signed_expansion_identity(self):
        # the classic signed eight-term expansion of a degree-4 product
        product = k_series(spec(2), 4) * k_series(spec(2, 1, 2), 4)
        combo = Series.zero(4, 4)
        for members, sign in [
            ((1,), 1), ((2,), 1), ((3,), 1), ((4,), 1),
            ((1, 3), 1), ((1, 4), 1), ((2, 4), 1), ((), -1),
        ]:
            combo = combo + k_series(spec(4, *members), 4).scale(sign)
        assert combo == product
        assert reconstruct(decompose_k(product), 4) == product

    def test_truncation_checked_before_degree_data(self, monkeypatch):
        def refuse(d):
            raise AssertionError(f"degree {d} data built")

        monkeypatch.setattr(basis, "_mask_table", refuse)
        with pytest.raises(TruncationError):
            decompose_k(Series.zero(13, 1))


class TestDecompositionObject:
    def test_json_round_trip_and_ordering(self):
        dec = Decomposition(4, "K", {spec(4, 2, 4): -3, spec(4, 1): 2, spec(4): 1})
        obj = dec.to_json_obj()
        assert obj == {
            "degree": 4,
            "basis": "K",
            "terms": [
                {"set": [], "coeff": 1},
                {"set": [1], "coeff": 2},
                {"set": [2, 4], "coeff": -3},
            ],
        }
        assert Decomposition.from_json_obj(obj) == dec

    def test_an_unhashable_value(self):
        dec = Decomposition(2, "L", {spec(2, 1): -2})
        assert dec == Decomposition(2, "L", {spec(2, 1): -2}) != Decomposition(2, "K", {spec(2, 1): -2})
        assert Decomposition(3, "K") == Decomposition(3, "K", {})
        assert repr(dec) == "Decomposition(degree=2, basis='L', coeffs={SubsetSpec(2, {1}): -2})"
        with pytest.raises(TypeError):
            hash(dec)

    def test_validation(self):
        with pytest.raises(ValueError):
            Decomposition(2, "M", {})
        with pytest.raises(ValueError):
            Decomposition(2, "K", {spec(3): 1})
        with pytest.raises(ValueError):
            Decomposition(2, "K", {spec(2): 0})
        with pytest.raises(ValueError, match="degree must be a nonnegative integer, got -1"):
            Decomposition(-1, "L", {})
        # bool is an int subclass, but no degree or coefficient: to_json_obj would emit true
        with pytest.raises(ValueError, match="degree must be a nonnegative integer, got True"):
            Decomposition(True, "K", {spec(1): 2})
        with pytest.raises(ValueError, match="must be a nonzero integer, got True"):
            Decomposition(1, "K", {spec(1): True})
        with pytest.raises(ValueError, match="must be a nonzero integer, got True"):
            Decomposition.from_json_obj({"degree": 1, "basis": "K", "terms": [{"set": [1], "coeff": True}]})

    def test_library_results_are_not_revalidated(self, monkeypatch):
        product = k_series(spec(3, 1), 7) * k_series(spec(4, 2, 3), 7)
        expected = (decompose_l(product), decompose_k(product))

        def refuse(self):
            raise AssertionError("coefficients revalidated")

        monkeypatch.setattr(Decomposition, "__post_init__", refuse)
        assert (decompose_l(product), decompose_k(product)) == expected
        monkeypatch.undo()
        with pytest.raises(ValueError):
            Decomposition(2, "K", {spec(3): 1})

    def test_reconstruct_basics(self):
        assert reconstruct(Decomposition(3, "L", {spec(3): 1}), 3) == l_series(spec(3), 3)
        with pytest.raises(TruncationError):
            reconstruct(Decomposition(3, "L", {spec(3): 1}), 2)


class TestRationalSolve:
    def test_small_system(self):
        columns = [Series(1, 1, {mono("x0"): 1}), Series(1, 1, {mono("x1"): 2})]
        target = Series(1, 1, {mono("x0"): 3, mono("x1"): 4})
        assert rational_solve(columns, target) == [Fraction(3), Fraction(2)]

    def test_inconsistent_system(self):
        columns = [Series(1, 1, {mono("x0"): 1})]
        target = Series(1, 1, {mono("x1"): 1})
        assert rational_solve(columns, target) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rational_solve([Series.zero(1, 1)], Series.zero(2, 1))

    def test_base_two_rigidity(self):
        # with base 3 the degree-1 square leaves the degree-2 span; with the
        # true base 2 it does not
        for q, solvable in [(3, False), (2, True), (5, False)]:
            one = k_series_q(spec(1), 2, q)
            square = one * one
            columns = [k_series_q(s, 2, q) for s in all_subsets(2)]
            solution = rational_solve(columns, square)
            assert (solution is not None) == solvable
