"""Stock uniform families and the path-4 impossibility arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugraph.betweenness import betweenness_exact, is_betweenness_uniform
from bugraph.blowup import BlowupSpec, PartDescriptor, blow_up
from bugraph.constructions import (
    P4InfeasibilityReport,
    P4SizeTuple,
    _p4_slacks,
    p2_clique_spec,
    p3_independent_spec,
    p4_infeasibility_check,
    p4_mixed_spec,
    star_spec,
)
from bugraph.graphs import generate, is_isomorphic

sizes = st.integers(min_value=1, max_value=30)
large_sizes = st.integers(min_value=1, max_value=10**9)
any_size = sizes | large_sizes


class TestP2Family:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_uniform_at_zero(self, m):
        g = blow_up(p2_clique_spec(m)).graph
        verdict = is_betweenness_uniform(g)
        assert verdict.uniform and verdict.common == 0
        assert is_isomorphic(g, generate("complete", 2 * m))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            p2_clique_spec(0)


class TestP3Family:
    @pytest.mark.parametrize("a", range(1, 5))
    @pytest.mark.parametrize("b", range(1, 5))
    def test_uniform(self, a, b):
        spec = p3_independent_spec(a, b)
        assert [p.label() for p in spec.parts] == [f"I{a}", f"I{a + b}", f"I{b}"]
        assert is_betweenness_uniform(blow_up(spec).graph).uniform

    def test_wrong_middle_size_not_uniform(self):
        spoiled = BlowupSpec(
            base=generate("path", 3),
            parts=(
                PartDescriptor.independent(2),
                PartDescriptor.independent(4),
                PartDescriptor.independent(3),
            ),
        )
        assert not is_betweenness_uniform(blow_up(spoiled).graph).uniform

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            p3_independent_spec(0, 2)


class TestStarFamily:
    @pytest.mark.parametrize(
        "leaf_sizes", [(1,), (3,), (1, 1), (2, 3), (1, 2, 3), (4, 4, 4, 4)]
    )
    def test_uniform(self, leaf_sizes):
        spec = star_spec(leaf_sizes)
        assert spec.parts[-1].size == sum(leaf_sizes)
        verdict = is_betweenness_uniform(blow_up(spec).graph)
        assert verdict.uniform
        # every vertex covers the same share: (total-1)/2
        total = sum(leaf_sizes)
        assert verdict.common == Fraction(total - 1, 2)

    def test_perturbed_center_not_uniform(self):
        sizes = (2, 3)
        for center in (4, 6):
            spoiled = BlowupSpec(
                base=generate("star", 2),
                parts=(
                    PartDescriptor.independent(2),
                    PartDescriptor.independent(3),
                    PartDescriptor.independent(center),
                ),
            )
            assert not is_betweenness_uniform(blow_up(spoiled).graph).uniform

    def test_rejects_empty_or_bad(self):
        with pytest.raises(ValueError):
            star_spec(())
        with pytest.raises(ValueError):
            star_spec((2, 0))

    def test_rejects_non_integer_sizes(self):
        # never truncated to BW[I1,I2,I3]
        with pytest.raises(ValueError, match="part size"):
            star_spec([1.5, 2.9])


class TestP4Mixed:
    def test_part_layout(self):
        spec = p4_mixed_spec(2, 3, 4, 5)
        assert [p.label() for p in spec.parts] == ["K2", "I3", "I4", "K5"]
        assert spec.base == generate("path", 4)

    @pytest.mark.parametrize("a", (1, 2, 3))
    @pytest.mark.parametrize("b", (1, 2, 3))
    @pytest.mark.parametrize("c", (1, 3))
    @pytest.mark.parametrize("d", (1, 3))
    def test_failing_inequality_means_strict_drop(self, a, b, c, d):
        # uniformity would need both end inequalities; whichever fails
        # pins a strict betweenness gap at that end of the path
        rep = p4_infeasibility_check(P4SizeTuple(a, b, c, d))
        bg = blow_up(p4_mixed_spec(a, b, c, d))
        profile = betweenness_exact(bg.graph)
        assert not (rep.ineq1_holds and rep.ineq2_holds)
        if not rep.ineq1_holds:
            assert profile[bg.part_vertices[0][0]] < profile[bg.part_vertices[1][0]]
        if not rep.ineq2_holds:
            assert profile[bg.part_vertices[3][0]] < profile[bg.part_vertices[2][0]]
        assert not is_betweenness_uniform(bg.graph).uniform


def _fraction_gaps(a: int, b: int, c: int, d: int) -> tuple[Fraction, Fraction]:
    # lhs - rhs of both inequalities, direct rational evaluation with no
    # denominator clearing; an inequality holds when its gap is >= 0
    lhs1 = Fraction(comb(b, 2), a + c)
    rhs1 = Fraction(a * (c + d), b) + Fraction(comb(c, 2), b + d)
    lhs2 = Fraction(comb(c, 2), b + d)
    rhs2 = Fraction(d * (a + b), c) + Fraction(comb(b, 2), a + c)
    return lhs1 - rhs1, lhs2 - rhs2


def _chain_sides(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    # c*s1, b*s2 and the right-hand side of c*s1 + b*s2 == rhs
    s1, s2 = _p4_slacks(a, b, c, d)
    return c * s1, b * s2, -(a + c) * (b + d) * (a * c * (c + d) + b * d * (a + b))


class TestP4Infeasibility:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^all four sizes must be positive integers$"):
            P4SizeTuple(1, 0, 1, 1)

    # each size comes from either strategy about half the time, so 600
    # examples still give the small sizes about 300
    @given(any_size, any_size, any_size, any_size)
    @settings(max_examples=600)
    def test_always_violated(self, a, b, c, d):
        rep = p4_infeasibility_check(P4SizeTuple(a, b, c, d))
        assert rep.combined_violated
        assert not (rep.ineq1_holds and rep.ineq2_holds)

    @given(sizes, sizes, sizes, sizes)
    @settings(max_examples=200)
    def test_flags_match_rational_arithmetic(self, a, b, c, d):
        rep = p4_infeasibility_check(P4SizeTuple(a, b, c, d))
        g1, g2 = _fraction_gaps(a, b, c, d)
        assert rep.ineq1_holds == (g1 >= 0)
        assert rep.ineq2_holds == (g2 >= 0)

    @given(any_size, any_size, any_size, any_size)
    @settings(max_examples=200)
    def test_slacks_are_the_cleared_inequalities(self, a, b, c, d):
        s1, s2 = _p4_slacks(a, b, c, d)
        g1, g2 = _fraction_gaps(a, b, c, d)
        assert s1 == g1 * (a + c) * b * (b + d)
        assert s2 == g2 * (b + d) * c * (a + c)

    def test_chain_has_degree_at_most_4_in_each_size(self):
        # a 5th forward difference of zero along every axis pins the
        # degree bound that lets acceptance criterion 9 prove the chain
        # from the box {1..5}^4 alone
        rng = random.Random(0)
        for _ in range(50):
            point = [rng.randint(1, 10**6) for _ in range(4)]
            for axis in range(4):
                line = []
                for step in range(6):
                    moved = list(point)
                    moved[axis] += step
                    line.append(_chain_sides(*moved))
                for side in range(3):
                    fifth = sum(
                        (-1) ** (5 - k) * comb(5, k) * line[k][side] for k in range(6)
                    )
                    assert fifth == 0, (point, axis, side)

    def test_report_carries_tuple(self):
        t = P4SizeTuple(2, 3, 4, 5)
        rep = p4_infeasibility_check(t)
        assert isinstance(rep, P4InfeasibilityReport)
        assert rep.tuple == t
