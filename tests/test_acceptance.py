"""Release acceptance checks, one test per numbered check.

Each test prints a single verdict line (run with ``-s`` to see them all)
and enforces its runtime budget.  Checks 04, 05, 06 and 10 run the
exhaustive sweeps of ``borderqsym.verify``, the same suites as
``borderqsym selftest``; check 06 also pins the worked multiset.

Check 01 keeps a reference coefficient table verbatim from the project
requirements.  The table omits the x0*xinf term that the defining
summation necessarily produces (weight 2^0 = 1, and required by checks
04, 06, 07, 08 and 10), so check 01 fails and is expected to keep
failing; check 01b pins the full definitional expansion, whose other
eight coefficients agree with the table entry by entry.
"""

import math
import time
from collections import Counter
from fractions import Fraction

from borderqsym import (
    Decomposition,
    Series,
    all_monomials,
    all_subsets,
    check_spreading,
    decompose_l,
    is_l_special,
    k1_product,
    k_series,
    k_series_q,
    l_series,
    m_membership,
    rational_solve,
    reconstruct,
    relabel_check,
    shuffles,
)
from borderqsym import verify
from conftest import mono, spec


def _report(num, ok, elapsed, budget=None, detail=""):
    verdict = "PASS" if ok else "FAIL"
    budget_text = f" / budget {budget:.0f}s" if budget else ""
    suffix = f": {detail}" if detail else ""
    print(f"acceptance {num}: {verdict} ({elapsed:.2f}s{budget_text}){suffix}")


def test_check_01_reference_table():
    t0 = time.perf_counter()
    series = k_series(spec(2, 1), 2)
    reference = {
        "x0*x1": 2,
        "x0*x2": 2,
        "x1*xinf": 2,
        "x2*xinf": 2,
        "x1^2": 2,
        "x2^2": 2,
        "x1*x2": 4,
        "xinf^2": 1,
    }
    actual = {str(m): c for m, c in series.terms.items()}
    elapsed = time.perf_counter() - t0
    ok = actual == reference and elapsed < 1.0
    _report("01", ok, elapsed, 1.0, "reference table omits x0*xinf, see check 01b")
    assert elapsed < 1.0
    assert actual == reference, (
        "the defining summation admits the pair (0, inf), so x0*xinf carries "
        "coefficient 1; the reference table has no such entry (see check 01b)"
    )


def test_check_01b_definitional_expansion():
    t0 = time.perf_counter()
    series = k_series(spec(2, 1), 2)
    expected = {
        "x0*x1": 2,
        "x0*x2": 2,
        "x0*xinf": 1,
        "x1*xinf": 2,
        "x2*xinf": 2,
        "x1^2": 2,
        "x2^2": 2,
        "x1*x2": 4,
        "xinf^2": 1,
    }
    actual = {str(m): c for m, c in series.terms.items()}
    elapsed = time.perf_counter() - t0
    _report("01b", actual == expected, elapsed, 1.0)
    assert elapsed < 1.0
    assert actual == expected


def test_check_02_l_series_golden():
    t0 = time.perf_counter()
    series = l_series(spec(3, 1), 2)
    expected = {"x0^3": 1, "x0^2*x1": 2, "x0^2*x2": 2, "x0^2*xinf": 1}
    actual = {str(m): c for m, c in series.terms.items()}
    elapsed = time.perf_counter() - t0
    _report("02", actual == expected, elapsed, 1.0)
    assert elapsed < 1.0
    assert actual == expected


def test_check_03_worked_decomposition():
    t0 = time.perf_counter()
    product = l_series(spec(2, 1), 5) * l_series(spec(3, 2), 5)
    dec = decompose_l(product)

    # the coefficient map reconstructs the product exactly
    assert reconstruct(dec, 5) == product

    # support stays within the stated classes: {1,4}, {1,4,5}, and the
    # subsets whose L member is exactly x0^5
    x0_fifth = Series(5, 5, {mono("x0^5"): 1})
    allowed = {spec(5, 1, 4), spec(5, 1, 4, 5)} | {
        s for s in all_subsets(5) if l_series(s, 5) == x0_fifth
    }
    assert set(dec.coeffs) <= allowed

    # frozen value derived from the exact linear-solve cross-check: the
    # product already equals the single member for {1,4}
    assert dec.coeffs == {spec(5, 1, 4): 1}
    assert product == l_series(spec(5, 1, 4), 5)

    # the solver agrees that a solution exists and reconstructs identically
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

    # negative control: piling the two border classes on top of {1,4}
    # double-counts x0^5 and x0^2*xinf^3 and does not reconstruct
    three = Decomposition(
        5, "L", {spec(5, 1, 4): 1, spec(5, 1, 2, 4): 1, spec(5, 1, 4, 5): 1}
    )
    assert reconstruct(three, 5) != product

    elapsed = time.perf_counter() - t0
    _report("03", True, elapsed, 1.0, "canonical map is {{1,4}: 1}")
    assert elapsed < 1.0


def test_check_04_closure_sweep():
    t0 = time.perf_counter()
    ok, detail = verify.closure()
    elapsed = time.perf_counter() - t0
    _report("04", ok, elapsed, 60.0, detail)
    assert ok, detail
    assert elapsed < 60.0


def test_check_05_inclusion_exclusion_round_trips():
    t0 = time.perf_counter()
    ok, detail = verify.mobius()
    elapsed = time.perf_counter() - t0
    _report("05", ok, elapsed, 5.0, detail)
    assert ok, detail
    assert elapsed < 5.0


def test_check_06_degree_one_product_rule():
    t0 = time.perf_counter()
    ok, detail = verify.degree1_rule()
    multiset = Counter(s.members_sorted() for s in k1_product(spec(5, 1, 2, 4)))
    elapsed = time.perf_counter() - t0
    _report("06", ok, elapsed, 10.0, f"{detail}; includes the duplicated {{1,3,5}}")
    assert ok, detail
    assert multiset == Counter(
        {(2, 5): 1, (1, 2, 4): 1, (1, 2, 5): 1, (1, 3, 5): 2, (1, 2, 4, 6): 1}
    )
    assert elapsed < 10.0


def test_check_07_signed_expansion_identity():
    t0 = time.perf_counter()
    product = k_series(spec(2), 4) * k_series(spec(2, 1, 2), 4)
    combo = Series.zero(4, 4)
    for members, sign in [
        ((1,), 1), ((2,), 1), ((3,), 1), ((4,), 1),
        ((1, 3), 1), ((1, 4), 1), ((2, 4), 1), ((), -1),
    ]:
        combo = combo + k_series(spec(4, *members), 4).scale(sign)
    elapsed = time.perf_counter() - t0
    _report("07", combo == product, elapsed)
    assert combo == product


def test_check_08_base_two_rigidity():
    t0 = time.perf_counter()
    for q, solvable in ((3, False), (2, True)):
        one = k_series_q(spec(1), 2, q)
        square = one * one
        columns = [k_series_q(s, 2, q) for s in all_subsets(2)]
        solution = rational_solve(columns, square)
        assert (solution is not None) == solvable
        if solution is not None:
            total = {}
            for x, col in zip(solution, columns):
                for m, c in col.terms.items():
                    total[m] = total.get(m, 0) + x * c
            assert {m: c for m, c in total.items() if c} == {
                m: Fraction(c) for m, c in square.terms.items()
            }
    elapsed = time.perf_counter() - t0
    _report("08", True, elapsed, 1.0, "q=3 outside the span, q=2 inside")
    assert elapsed < 1.0


def test_check_09_spreading():
    t0 = time.perf_counter()
    for d in range(5):
        trunc = d + 1
        for n in range(d + 1):
            for lam in all_subsets(n):
                for om in all_subsets(d - n):
                    assert check_spreading(l_series(lam, trunc) * l_series(om, trunc))
        for s in all_subsets(d):
            assert check_spreading(l_series(s, trunc))
    assert not check_spreading(Series(2, 3, {mono("x1^2"): 1}))
    elapsed = time.perf_counter() - t0
    _report("09", True, elapsed, 30.0)
    assert elapsed < 30.0


def test_check_10_case_rule_equivalence():
    t0 = time.perf_counter()
    ok, detail = verify.case_rule()
    elapsed = time.perf_counter() - t0
    _report("10", ok, elapsed, 30.0, detail)
    assert ok, detail
    assert elapsed < 30.0


def test_check_11_property_suites():
    t0 = time.perf_counter()
    # quasisymmetry in the natural variables for every family member
    for n in range(5):
        trunc = max(n, 1) + 1
        for s in all_subsets(n):
            assert relabel_check(k_series(s, trunc))
            assert relabel_check(l_series(s, trunc))
    for n in range(3):
        trunc = 4
        for lam in all_subsets(n):
            for om in all_subsets(3 - n):
                assert relabel_check(k_series(lam, trunc) * k_series(om, trunc))

    # generic monomials are special, and the special monomials partition
    # into classes of equal L members
    for n in range(6):
        trunc = max(n, 1)
        series = {s: l_series(s, trunc) for s in all_subsets(n)}
        for monomial in all_monomials(n, trunc):
            owners = [s for s in series if m_membership(monomial, s)]
            for s in owners:
                assert is_l_special(monomial)
            if is_l_special(monomial):
                assert owners
                base = series[owners[0]]
                assert all(series[s] == base for s in owners)

    # shuffle cardinality
    for total in range(9):
        for n in range(total + 1):
            for lam in all_subsets(n):
                for om in all_subsets(total - n):
                    assert len(shuffles(lam, om)) == math.comb(total, n)

    elapsed = time.perf_counter() - t0
    _report("11", True, elapsed)
