"""Change of basis, product decomposition, and the exact linear-solve cross-check."""

import itertools
import random
from fractions import Fraction
from operator import add, sub

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
from borderqsym import basis, core
from conftest import group, mono, spec
from reference import kind_products, reference_coordinate_walk, reference_forced_equalities, spreading_cases


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
        # degree 3 the map is the first spec, by size and then
        # lexicographically, whose member equals it
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

    def test_single_members_map_to_one_term(self):
        # {2,3} forces one long chain, so its member contains x0^4, the
        # generic monomial of the earlier {1,3}; the minimal form keeps it
        # a single term.  {1,2,3} forces what {1,3} forces, so its member
        # is that one and goes to the first of the two.
        dec = decompose_l(l_series(spec(4, 2, 3), 4))
        assert dec.coeffs == {spec(4, 2, 3): 1}
        assert reconstruct(dec, 4) == l_series(spec(4, 2, 3), 4)
        dec = decompose_l(l_series(spec(4, 1, 2, 3), 4))
        assert dec.coeffs == {spec(4, 1, 3): 1}
        assert reconstruct(dec, 4) == l_series(spec(4, 1, 2, 3), 4)

    def test_every_member_to_degree_8_maps_to_the_first_subset_of_its_forced_mask(self):
        for n in range(9):
            first = {}
            for s in all_subsets(n):
                forced = reference_forced_equalities(s)
                first.setdefault(forced, s)
                expected = {} if all(forced) else {first[forced]: 1}
                assert decompose_l(l_series(s, max(n, 1))).coeffs == expected, s

    def test_no_decomposition_to_degree_7_repeats_a_forced_mask(self):
        # every product to degree 6 and every 7th at 7
        count = 0
        for degree, every in [*((d, 1) for d in range(7)), (7, 7)]:
            for product in kind_products(degree, every):
                try:
                    dec = decompose_l(product)
                except (NotDivisibleError, NonzeroResidualError):
                    continue
                masks = [reference_forced_equalities(s) for s in dec.coeffs]
                assert len(set(masks)) == len(masks), dec
                count += 1
        assert count == 2749

    def test_in_span_verdict_agrees_with_rational_solve(self):
        # products to degree 5 and perturbed copies, some not quasisymmetric
        verdicts = []
        for series, _ in spreading_cases():
            columns = [l_series(s, series.trunc) for s in all_subsets(series.degree)]
            try:
                decompose_l(series)
            except (NotDivisibleError, NonzeroResidualError):
                in_span = False
            else:
                in_span = True
            assert in_span == (rational_solve(columns, series) is not None), series
            verdicts.append(in_span)
        assert (verdicts.count(True), verdicts.count(False)) == (436, 176)

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
        # the reference walk, each size class shuffled, fails exactly where
        # the library fails and otherwise rebuilds the same product
        rng = random.Random(7)
        outcomes = []
        for degree in range(6):
            for product in kind_products(degree, 3):
                order = sorted(all_subsets(degree), key=lambda s: (len(s.members), rng.random()))
                try:
                    dec = decompose_l(product)
                except (NotDivisibleError, NonzeroResidualError):
                    with pytest.raises((NotDivisibleError, NonzeroResidualError)):
                        reference_coordinate_walk(product, order)
                    outcomes.append("raised")
                else:
                    assert reconstruct(dec, product.trunc) == product
                    assert reconstruct(reference_coordinate_walk(product, order), product.trunc) == product
                    outcomes.append("ok")
        assert (len(outcomes), outcomes.count("raised")) == (537, 215)

    def test_span_dimension_counts_words_without_an_isolated_one(self):
        # w(n): binary words of length n with no isolated 1 (OEIS A005251),
        # each word padded with a 0 at both ends
        def w(n):
            return sum(
                not any(p[j] and not p[j - 1] and not p[j + 1] for j in range(1, n + 1))
                for word in itertools.product((0, 1), repeat=n)
                for p in ((0, *word, 0),)
            )

        def forced_masks(d):
            full = (1 << (d + 1)) - 1
            reads = basis._mask_table(d).reads
            assert full not in {forced for _, forced in reads}
            return len(reads)

        assert [forced_masks(d) for d in range(1, 13)] == [w(d + 1) - 1 for d in range(1, 13)] == [
            1, 3, 6, 11, 20, 36, 64, 113, 199, 350, 615, 1080
        ]
        for d in range(7):
            tables = {frozenset(core._coordinates(l_series(s, max(d, 1))).items()) for s in all_subsets(d)}
            assert len(tables - {frozenset()}) == forced_masks(d)
        assert forced_masks(0) == 1


def test_mask_table_reads_and_cores_to_degree_8():
    for d in range(9):
        full = (2 << d) - 1
        table = basis._mask_table(d)
        # brute force: each forced mask below all-ones with its first subset
        first = {}
        for s in all_subsets(d):
            first.setdefault(sum(1 << j for j in {i - 1 for i in s.members} | s.members), s)
        first.pop(full, None)
        assert [(table.specs[bits], forced) for bits, forced in table.reads] == [(s, f) for f, s in first.items()]
        assert all(bits == sum(1 << i - 1 for i in table.specs[bits].members) for bits, _ in table.reads)
        for mask in range(full):
            inside = [forced for forced in first if forced & mask == forced]
            assert table.cores[mask] in inside
            assert all(forced & table.cores[mask] == forced for forced in inside)


def test_yates_passes_match_naive_subset_and_moebius_sums():
    rng = random.Random(11)
    for k in range(9):
        size = 1 << k
        values = [rng.randint(-9, 9) for _ in range(size)]
        copy = list(values)
        inside = [[f for f in range(size) if f & e == f] for e in range(size)]
        assert basis._subset_passes(values, add) == [sum(values[f] for f in fs) for fs in inside]
        assert basis._subset_passes(values, sub) == [
            sum((-1) ** (e ^ f).bit_count() * values[f] for f in fs) for e, fs in enumerate(inside)
        ]
        assert values == copy


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

    def test_the_callers_dict_is_copied(self):
        coeffs = {spec(1): 1}
        dec = Decomposition(1, "K", coeffs)
        coeffs[spec(1)] = 0
        assert dec.coeffs == {spec(1): 1}
        assert reconstruct(dec, 1) == k_series(spec(1), 1)
        # the library's own results are valid by construction and not copied
        assert Decomposition._trusted(1, "K", coeffs).coeffs is coeffs

    def test_library_results_are_not_revalidated(self, monkeypatch):
        product = k_series(spec(3, 1), 7) * k_series(spec(4, 2, 3), 7)
        expected = (decompose_l(product), decompose_k(product))

        def refuse(*args):
            raise AssertionError("coefficients revalidated")

        monkeypatch.setattr(Decomposition, "__init__", refuse)
        assert (decompose_l(product), decompose_k(product)) == expected
        monkeypatch.undo()
        with pytest.raises(ValueError):
            Decomposition(2, "K", {spec(3): 1})

    def test_reconstruct_basics(self):
        assert reconstruct(Decomposition(3, "L", {spec(3): 1}), 3) == l_series(spec(3), 3)
        with pytest.raises(TruncationError):
            reconstruct(Decomposition(3, "L", {spec(3): 1}), 2)

    def test_reconstruct_refuses_truncation_zero_at_degree_zero(self):
        with pytest.raises(ValueError, match="truncation must be a positive integer, got 0"):
            reconstruct(Decomposition(0, "L", {spec(0): 1}), 0)

    @pytest.mark.parametrize("trunc", ["5", 1.5, 0])
    def test_reconstruct_checks_the_truncation_before_comparing_it(self, trunc):
        with pytest.raises(ValueError, match=f"^truncation must be a positive integer, got {trunc!r}$"):
            reconstruct(Decomposition(2, "L", {spec(2): 1}), trunc)

    def test_a_key_that_is_no_subset_is_refused(self):
        with pytest.raises(ValueError, match="^'a' does not live in degree 2$"):
            Decomposition(2, "K", {"a": 1})

    def test_reconstruct_refuses_a_bool_truncation(self):
        with pytest.raises(ValueError, match="truncation must be a positive integer, got True"):
            reconstruct(decompose_l(l_series(spec(1), 1)), True)


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

    def test_a_column_without_coordinates(self):
        # at V = 2, x1 alone is not quasisymmetric; the system is read on monomials
        x1 = Series(1, 2, {mono("x1"): 1})
        k = k_series(spec(1), 2)
        assert rational_solve([k, x1], x1.scale(2)) == [Fraction(0), Fraction(2)]
        assert rational_solve([x1, k], k.scale(-3) + x1) == [Fraction(1), Fraction(-3)]
        assert rational_solve([x1], k) is None

    def test_a_repeated_column_keeps_zero(self):
        a, b = l_series(spec(2), 2), l_series(spec(2, 1), 2)
        target = a.scale(3) + b.scale(2)
        assert rational_solve([a, a, b], target) == [Fraction(3), Fraction(0), Fraction(2)]

    @pytest.mark.parametrize("kind", ["K", "L"])
    def test_degree_7_products_against_every_member(self, kind):
        # a seeded handful of the 1,024 products of degree 7 at V = 7, each
        # solved against all 128 columns: the solution multiplies out to the
        # product on coordinates, the Möbius read agrees, and one unit more at
        # mask 1 (a lone x0), which shares its paired flags with mask 0,
        # breaks the proportion between the two rows and leaves the span
        family = l_series if kind == "L" else k_series
        columns = [family(s, 7) for s in all_subsets(7)]
        tables = [core._coordinates(c) for c in columns]
        pairs = [(a, b) for n in range(8) for a in all_subsets(n) for b in all_subsets(7 - n)]
        for a, b in random.Random(7).sample(pairs, 4):
            product = family(a, 7) * family(b, 7)
            solution = rational_solve(columns, product)
            assert solution is not None, (a, b)
            total = {}
            for x, table in zip(solution, tables):
                for key, c in table.items():
                    total[key] = total.get(key, 0) + x * c
            assert {k: c for k, c in total.items() if c} == dict(core._coordinates(product)), (a, b)
            assert reconstruct(decompose_l(product), 7) == product
            perturbed = product + group(7, 7, (1, (1,) * 6, 0), 1)
            assert rational_solve(columns, perturbed) is None, (a, b)
            with pytest.raises((NotDivisibleError, NonzeroResidualError)):
                decompose_l(perturbed)

    def test_base_two_rigidity(self):
        # with base 3 the degree-1 square leaves the degree-2 span; with the
        # true base 2 it does not
        for q, solvable in [(3, False), (2, True), (5, False)]:
            one = k_series_q(spec(1), 2, q)
            square = one * one
            columns = [k_series_q(s, 2, q) for s in all_subsets(2)]
            solution = rational_solve(columns, square)
            assert (solution is not None) == solvable
