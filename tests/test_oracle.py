"""Relation analysis, resolutions, the spreading check, and the case-rule coefficients."""

import pickle
import random

import pytest

from borderqsym import (
    ProblematicRelation,
    RelationKind,
    Series,
    TruncationError,
    all_monomials,
    all_subsets,
    check_spreading,
    is_l_special,
    k1_coefficient,
    k_series,
    l_series,
    problematic_relations,
    resolve,
    resolve_all,
)
from conftest import mono, spec


class TestProblematicRelations:
    def test_interior_square(self):
        out = problematic_relations(mono("x0^2*x1^2*x2"))
        assert out == (ProblematicRelation(RelationKind.INTERIOR_SQUARE, 3),)

    def test_lone_border_zero(self):
        out = problematic_relations(mono("x0*x2^3"))
        assert out == (ProblematicRelation(RelationKind.BORDER_ZERO, 0),)

    def test_an_immutable_hashable_value(self):
        r = ProblematicRelation(RelationKind.BORDER_INF, 4)
        assert r == ProblematicRelation(RelationKind.BORDER_INF, 4) != ProblematicRelation(RelationKind.BORDER_INF, 3)
        assert hash(r) == hash(ProblematicRelation(RelationKind.BORDER_INF, 4))
        assert repr(r) == "ProblematicRelation(kind=<RelationKind.BORDER_INF: 'border_inf'>, position=4)"
        with pytest.raises(AttributeError, match="cannot assign to field 'position'"):
            r.position = 0
        assert pickle.loads(pickle.dumps(r)) == r

    def test_special_monomial_has_none(self):
        assert problematic_relations(mono("x0^3*x1^3*x4*x6^5*xinf^2")) == ()

    def test_all_three_kinds_together(self):
        out = problematic_relations(mono("x0*x1^2*xinf"))
        assert [r.kind for r in out] == [
            RelationKind.BORDER_ZERO,
            RelationKind.INTERIOR_SQUARE,
            RelationKind.BORDER_INF,
        ]
        assert [r.position for r in out] == [0, 2, 4]

    def test_empty_relations_iff_special(self):
        for d in range(7):
            for m in all_monomials(d, 6):
                assert (problematic_relations(m) == ()) == is_l_special(m)


class TestResolve:
    def test_interior_square_resolution(self):
        m = mono("x0^2*x1^2*x2")
        (relation,) = problematic_relations(m)
        assert resolve(m, relation, 5) == mono("x0^2*x1*x2*x3")

    def test_border_resolution_renormalizes(self):
        m = mono("x0*x1")
        (relation,) = problematic_relations(m)
        assert resolve(m, relation, 2) == mono("x1*x2")

    def test_border_inf_resolution(self):
        m = mono("x1*xinf")
        (relation,) = problematic_relations(m)
        assert relation.kind is RelationKind.BORDER_INF
        assert resolve(m, relation, 2) == mono("x1*x2")

    def test_resolving_special_monomial_is_a_noop(self):
        m = mono("x0^2*x3^3*xinf^2")
        assert problematic_relations(m) == ()
        assert resolve_all(m, 5) == m

    def test_missing_relation_rejected(self):
        with pytest.raises(ValueError):
            resolve(mono("x1^2"), ProblematicRelation(RelationKind.BORDER_ZERO, 0), 3)

    def test_truncation_guard(self):
        m = mono("x1^2")
        (relation,) = problematic_relations(m)
        with pytest.raises(TruncationError):
            resolve(m, relation, 1)
        assert resolve(m, relation, 2) == mono("x1*x2")

    def test_resolve_all_removes_one_relation_per_step(self):
        m = mono("x0*x1^2*xinf")
        count = len(problematic_relations(m))
        assert count == 3
        for _ in range(count):
            relations = problematic_relations(m)
            m = resolve(m, relations[0], 6)
            assert len(problematic_relations(m)) == len(relations) - 1
        assert is_l_special(m)


class TestSpreading:
    def test_constructed_violation(self):
        assert not check_spreading(Series(2, 3, {mono("x1^2"): 1}))

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            check_spreading(Series.zero(3, 3))

    def test_full_resolution_scales_by_a_power_of_two(self):
        # on any combination of L members, resolving all N relations of a
        # monomial multiplies its coefficient by 2^N
        rng = random.Random(21)
        for d in range(1, 5):
            v = d + 1
            members = list(all_subsets(d))
            for _ in range(3):
                f = Series.zero(d, v)
                for s in members:
                    f = f + l_series(s, v).scale(rng.randint(-3, 3))
                for m in all_monomials(d, v):
                    relations = problematic_relations(m)
                    if not relations:
                        continue
                    resolved = resolve_all(m, v)
                    assert f.coefficient(resolved) == 2 ** len(relations) * f.coefficient(m)


class TestCaseRuleCoefficient:
    def test_hand_expanded_example(self):
        # [x0*x1] of the squared degree-1 member: both removals stay in the
        # degree-1 support, each worth 2
        assert k1_coefficient(mono("x0*x1"), spec(1)) == 4

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            k1_coefficient(mono("x0*x1"), spec(3))

    def test_blocked_removal_contributes_nothing(self):
        # removing xinf from x0*xinf^2 leaves x0*xinf, whose padded tuple
        # has the forbidden triple at position 2 for the subset {2}
        assert k1_coefficient(mono("x0*xinf^2"), spec(2, 2)) == \
            k_series(spec(1), 2).mul(k_series(spec(2, 2), 2)).coefficient(mono("x0*xinf^2"))
