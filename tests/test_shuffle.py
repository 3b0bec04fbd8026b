"""String forms, shuffles, peak sets, and the degree-1 product expansion."""

import math
from collections import Counter

import pytest

from borderqsym import (
    all_subsets,
    gp,
    k1_product,
    multiset_counts,
    multiset_json_obj,
    shuffles,
    string_form,
)
from conftest import spec


class TestStringForm:
    def test_examples(self):
        assert string_form(spec(5, 1, 4, 5), ("X", "Y")) == "XYYXX"
        assert string_form(spec(4), ("A", "B")) == "BBBB"
        assert string_form(spec(3, 2, 3), ("C", "D")) == "DCC"
        assert string_form(spec(0)) == ""

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            string_form(spec(2, 1), ("A", "A"))
        with pytest.raises(ValueError):
            string_form(spec(2, 1), ("AB", "C"))


class TestShuffles:
    def test_worked_example(self):
        out = shuffles(spec(2, 1), spec(3, 2, 3))
        assert len(out) == 10
        assert "ABDCC" in out
        assert "DCACB" in out
        for s in out:
            assert "".join(ch for ch in s if ch in "AB") == "AB"
            assert "".join(ch for ch in s if ch in "CD") == "DCC"

    def test_empty_left_factor(self):
        assert shuffles(spec(0), spec(3, 2, 3)) == ["DCC"]

    def test_single_letter_count(self):
        assert len(shuffles(spec(1), spec(5, 1, 2, 4))) == 6

    def test_cardinality_is_binomial(self):
        for total in range(9):
            for n in range(total + 1):
                m = total - n
                for lam in all_subsets(n):
                    for om in all_subsets(m):
                        assert len(shuffles(lam, om)) == math.comb(total, n)

    def test_letter_counts(self):
        for n, m in [(2, 3), (3, 2), (0, 4)]:
            for lam in all_subsets(n):
                for om in all_subsets(m):
                    a = len(lam.members)
                    c = len(om.members)
                    for s in shuffles(lam, om):
                        counts = Counter(s)
                        assert counts["A"] == a
                        assert counts["B"] == n - a
                        assert counts["C"] == c
                        assert counts["D"] == m - c


class TestGp:
    def test_worked_example(self):
        out = gp("BCACDD")
        assert out == spec(6, 1, 3)
        assert 6 not in out.members  # D at the end never qualifies

    def test_all_maximal_letters(self):
        assert gp("AAAA") == spec(4, 1, 2, 3, 4)

    def test_empty_string(self):
        assert gp("") == spec(0)

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            gp("ABE")


class TestK1Product:
    def test_worked_multiset(self):
        got = Counter(s.members_sorted() for s in k1_product(spec(5, 1, 2, 4)))
        assert got == Counter(
            {
                (2, 5): 1,
                (1, 2, 4): 1,
                (1, 2, 5): 1,
                (1, 3, 5): 2,
                (1, 2, 4, 6): 1,
            }
        )

    def test_empty_right_factor(self):
        assert k1_product(spec(0)) == [spec(1, 1)]

    def test_degree_one_right_factor(self):
        got = sorted(s.members_sorted() for s in k1_product(spec(1)))
        assert got == [(1,), (2,)]

    def test_multiset_helpers(self):
        specs = k1_product(spec(5, 1, 2, 4))
        counts = multiset_counts(specs)
        assert sum(k for _, k in counts) == 6
        assert (spec(6, 1, 3, 5), 2) in counts
        obj = multiset_json_obj(specs)
        assert {"set": [1, 3, 5], "multiplicity": 2} in obj
        sizes = [(len(t["set"]), t["set"]) for t in obj]
        assert sizes == sorted(sizes)
