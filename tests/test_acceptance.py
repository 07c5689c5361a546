"""Acceptance gate: the numbered verification suite must fully pass.

The suite runs once (full level) and each test prints its criterion's
verdict line so a plain pytest run shows the whole table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import pytest

import bugraph.acceptance as acceptance
import bugraph.search as search
from bugraph.acceptance import CRITERIA, _corpus_specs, _Registry, run_suite
from bugraph.betweenness import betweenness_exact, profile_uniformity
from bugraph.blowup import blow_up
from bugraph.cli import _criterion_line
from bugraph.constructions import (
    _p4_slacks,
    p2_clique_spec,
    p3_independent_spec,
    p4_mixed_spec,
    star_spec,
)
from bugraph.graphs import enumerate_graphs, generate, is_connected, parse_graph6
from bugraph.search import FAMILY_ALL, FAMILY_IK, SearchBudget, SearchReport

C6_PASS = "identity and part-by-part values exact at all 1948 vertices of 200 random specs"
C7_PASS = (
    "global share at 1948, neighbor shares at 1948 and own share at 1948 "
    "vertices of 200 random specs all exact"
)

C9_PASS = (
    "the path4 inequalities never hold together at any positive sizes: their "
    "cleared slacks satisfy c*s1 + b*s2 = -(a+c)(b+d)(ac(c+d) + bd(a+b)), "
    "an identity of degree <= 4 checked on {1..5}^4; "
    "path4 search (sizes <= 6) exhausted 12100 specs, none uniform"
)
_C9 = {number: fn for number, _, fn in CRITERIA}[9]


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_suite(level="full")}


@pytest.mark.parametrize("number", [c[0] for c in CRITERIA])
def test_criterion(results, number, capsys):
    r = results[number]
    with capsys.disabled():
        print(_criterion_line(r))
    assert r.passed, r.detail


def test_every_criterion_has_a_result(results):
    assert sorted(results) == [c[0] for c in CRITERIA]


def test_corpus_and_lemma_details(results):
    assert results[1].detail == "both algorithms agree on all 1253 classes with <= 7 vertices"
    assert results[6].detail == C6_PASS
    assert results[7].detail == C7_PASS
    assert results[8].detail == (
        "both extremal-part lemmas hold for m <= 4 over the full 27-point grids"
    )
    assert results[9].detail == C9_PASS


def test_criterion_9_detail_is_the_same_every_run():
    assert _C9(_Registry(), "full", 1) == _C9(_Registry(), "full", 1) == (True, C9_PASS)


def _p4_bumped(a, b, c, d):
    # a slack mutant: s1 off by one at (2, 3, 4, 5)
    s1, s2 = _p4_slacks(a, b, c, d)
    return s1 + ((a, b, c, d) == (2, 3, 4, 5)), s2


def _p4_half_square(a, b, c, d):
    # a slack mutant: C(b,2) read as b^2//2 in both slacks
    s1, s2 = _p4_slacks(a, b, c, d)
    extra = b * b // 2 - comb(b, 2)
    return s1 + extra * b * (b + d), s2 - extra * c * (b + d)


class TestCriterion9Mutants:
    """Criterion 9 proves the path-4 chain from ``_p4_slacks``: a slack
    that is wrong at one tuple of the box, or that uses the wrong
    binomial, fails it and the detail names the first such tuple."""

    def test_slack_off_by_one_breaks_the_identity(self, monkeypatch):
        monkeypatch.setattr(acceptance, "_p4_slacks", _p4_bumped)
        assert _C9(_Registry(), "full", 1) == (
            False,
            "c*s1 + b*s2 is not -(a+c)(b+d)(ac(c+d) + bd(a+b)) at (2, 3, 4, 5)",
        )

    def test_wrong_binomial_is_caught(self, monkeypatch):
        # C(b,2) cancels in c*s1 + b*s2, so the identity alone would pass
        # this; the tie to the rational inequalities catches it at b = 2
        monkeypatch.setattr(acceptance, "_p4_slacks", _p4_half_square)
        assert _C9(_Registry(), "full", 1) == (
            False,
            "slacks are not the cleared path4 inequalities at (1, 2, 1, 1)",
        )


def _p4_fraction_verdict(slacks, a, b, c, d) -> str | None:
    """Criterion 9's check of one size tuple, stated in ``Fraction``s:
    each slack over its cleared denominators is its inequality's gap."""
    s1, s2 = slacks(a, b, c, d)
    if c * s1 + b * s2 != -(a + c) * (b + d) * (a * c * (c + d) + b * d * (a + b)):
        return f"c*s1 + b*s2 is not -(a+c)(b+d)(ac(c+d) + bd(a+b)) at {(a, b, c, d)}"
    cb, cc = Fraction(comb(b, 2), a + c), Fraction(comb(c, 2), b + d)
    if Fraction(s1, (a + c) * b * (b + d)) != cb - cc - Fraction(a * (c + d), b) or (
        Fraction(s2, (b + d) * c * (a + c)) != cc - cb - Fraction(d * (a + b), c)
    ):
        return f"slacks are not the cleared path4 inequalities at {(a, b, c, d)}"
    return None


@pytest.mark.parametrize(
    "slacks, faults",
    [(_p4_slacks, 0), (_p4_bumped, 1), (_p4_half_square, 502)],
    ids=["real", "bumped", "half-square"],
)
def test_p4_chain_check_agrees_with_the_fraction_statement(monkeypatch, slacks, faults):
    # _p4_chain_fault run on one size tuple at a time, against the
    # Fraction form of its two checks, on the box and near 10^9; the
    # half-square mutant fails at every tuple with b >= 2
    monkeypatch.setattr(acceptance, "_p4_slacks", slacks)
    big = [(10**9, 10**9 + 7, 999_999_937, 10**9 - 1), (999_999_929, 2, 10**9 + 9, 3)]
    seen = 0
    for t in [*product(range(1, 6), repeat=4), *big]:
        monkeypatch.setattr(acceptance, "product", lambda *_, repeat=1, t=t: iter([t]))
        want = _p4_fraction_verdict(slacks, *t)
        assert acceptance._p4_chain_fault() == want
        seen += want is not None
    assert seen == faults


def test_criterion_1_names_an_incomplete_enumeration(monkeypatch):
    # a class missing on 6 vertices fails criterion 1 before any engine
    # runs on that n, and the detail names the n
    real = acceptance.enumerate_graphs
    monkeypatch.setattr(acceptance, "enumerate_graphs", lambda n: real(n)[1:] if n == 6 else real(n))
    c1 = {number: fn for number, _, fn in CRITERIA}[1]
    assert c1(_Registry(), "full", 1) == (False, "155 graph classes on 6 vertices, expected 156")


def test_run_suite_prints_nothing(capsys):
    results = run_suite(level="quick")
    assert [r.number for r in results] == sorted(c[0] for c in CRITERIA)
    assert capsys.readouterr().out == ""


class TestRegistry:
    """Only connected uniform graphs enter the registry.  Blow-ups of
    connected bases are connected, so the registry takes them as they
    come; criterion 1, which meets whole graph classes, filters."""

    def test_blowup_criteria_need_no_connectivity_check(self, monkeypatch):
        def refuse(g):
            raise AssertionError("connectivity checked on a blow-up")

        monkeypatch.setattr(acceptance, "is_connected", refuse)
        reg = _Registry()
        for number, _, fn in CRITERIA:
            if 2 <= number <= 5:
                assert fn(reg, "full", 1)[0], number
        assert len(reg.uniform_graphs) > 0

    def test_criterion_1_keeps_disconnected_classes_out(self):
        reg = _Registry()
        c1 = {number: fn for number, _, fn in CRITERIA}[1]
        assert c1(reg, "full", 1)[0]
        # such as three isolated vertices, or K2 plus an isolated vertex
        disconnected = {
            g
            for n in range(3, 8)
            for g in enumerate_graphs(n)
            if not is_connected(g) and profile_uniformity(betweenness_exact(g)).uniform
        }
        assert len(disconnected) == 36
        assert reg.uniform_graphs and all(map(is_connected, reg.uniform_graphs))
        assert not disconnected & reg.uniform_graphs.keys()


def _corpus_criteria() -> tuple[tuple[bool, str], tuple[bool, str]]:
    # criteria 6 and 7 as run_suite calls them, on one fresh registry
    by_number = {number: fn for number, _, fn in CRITERIA}
    reg = _Registry()
    return by_number[6](reg, "full", 1), by_number[7](reg, "full", 1)


class TestCorpusPass:
    """Criteria 6 and 7 read one corpus pass, yet each keeps its own
    verdict: a fault that only one of them checks fails that one alone."""

    SPEC = _corpus_specs()[3]

    def _bump_profile(self, monkeypatch, v: int) -> None:
        # the exact profile of SPEC's blow-up gains 1 at vertex v
        target = blow_up(self.SPEC).graph
        exact = acceptance._exact_numerators

        def bumped(g):
            den, profile = exact(g)
            if g == target:
                profile[v] += den
            return den, profile

        monkeypatch.setattr(acceptance, "_exact_numerators", bumped)

    def test_shifted_share_fails_only_criterion_7(self, monkeypatch):
        # move 1 from the share of the pairs inside part 0's neighbor
        # part j to the global share of part 0: j has no other neighbor,
        # so the sums stay right, the split does not
        specs_numerators = acceptance._specs_numerators

        def shifted(specs):
            out = specs_numerators(specs)
            for e, spec in enumerate(specs):
                if spec == self.SPEC:
                    d, glob, local = out[e]
                    (j,) = spec.base.adjacency[0]
                    assert spec.base.adjacency[j] == (0,)
                    glob = [glob[0] + d, *glob[1:]]
                    local = [
                        (x - d, own) if k == j else (x, own) for k, (x, own) in enumerate(local)
                    ]
                    out[e] = d, glob, local
            return out

        monkeypatch.setattr(acceptance, "_specs_numerators", shifted)
        c6, c7 = _corpus_criteria()
        assert c6 == (True, C6_PASS)
        assert c7 == (False, f"global share of part 0 of {self.SPEC.label()} disagrees at vertex 0")

    def test_wrong_profile_fails_only_criterion_6(self, monkeypatch):
        self._bump_profile(monkeypatch, 0)
        c6, c7 = _corpus_criteria()
        assert c6 == (
            False,
            f"part-by-part values differ from the exact profile of {self.SPEC.label()}",
        )
        assert c7 == (True, C7_PASS)

    def test_decomposition_mismatch_fails_only_criterion_6(self, monkeypatch):
        # the part-by-part values follow the bumped profile, so the
        # decomposition identity is the first check to see it
        v = 2
        self._bump_profile(monkeypatch, v)
        by_part = acceptance._part_numerators

        def following(spec, numerators):
            d, offset = numerators[0], 0
            for values in by_part(spec, numerators):
                if spec == self.SPEC and offset <= v < offset + len(values):
                    values = tuple(x + d * (i == v - offset) for i, x in enumerate(values))
                offset += len(values)
                yield values

        monkeypatch.setattr(acceptance, "_part_numerators", following)
        c6, c7 = _corpus_criteria()
        assert c6 == (False, f"decomposition mismatch at vertex {v} of {self.SPEC.label()}")
        assert c7 == (True, C7_PASS)

    def test_each_run_recomputes_the_pass(self, monkeypatch):
        calls = []
        real = acceptance.blow_up
        monkeypatch.setattr(acceptance, "blow_up", lambda spec: calls.append(spec) or real(spec))
        monkeypatch.setattr(acceptance, "CRITERIA", [c for c in CRITERIA if c[0] in (6, 7)])
        for run in (1, 2):
            results = run_suite(level="quick")
            assert [(r.number, r.passed, r.detail) for r in results] == [
                (6, True, C6_PASS),
                (7, True, C7_PASS),
            ]
            # one blow-up per corpus spec per run, shared by both criteria
            assert len(calls) == 200 * run


_BY_NUMBER = {number: fn for number, _, fn in CRITERIA}


def _bump_profile_of(monkeypatch, spec) -> None:
    # the exact profile of spec's blow-up gains 1 at vertex 0
    target = blow_up(spec).graph
    exact = acceptance.betweenness_exact

    def bumped(g):
        profile = exact(g)
        if g == target:
            profile[0] += 1
        return profile

    monkeypatch.setattr(acceptance, "betweenness_exact", bumped)


class TestFamilyFailures:
    """Criteria 3, 4 and 5 name the first blow-up whose exact profile
    is not what the family promises."""

    def test_criterion_3_names_the_spec(self, monkeypatch):
        _bump_profile_of(monkeypatch, p3_independent_spec(2, 3))
        assert _BY_NUMBER[3](_Registry(), "full", 1) == (False, "Bg[I2,I5,I3] not uniform")

    def test_criterion_4_names_the_family_spec(self, monkeypatch):
        # every star blow-up of leaf total 3 is K_{3,3}, first met as A_[I3,I3]
        _bump_profile_of(monkeypatch, star_spec((1, 2)))
        assert _BY_NUMBER[4](_Registry(), "full", 1) == (False, "A_[I3,I3] not uniform")

    def test_criterion_4_decides_each_distinct_graph_once(self, monkeypatch):
        # the 340 star blow-ups are K_{t,t} for t = 1..16: each is built
        # and registered, but only the 16 graphs and the 10 negative
        # controls are decided
        decided, built = [], []
        exact, real_blow_up = acceptance.betweenness_exact, acceptance.blow_up

        def deciding(g):
            decided.append(g)
            return exact(g)

        monkeypatch.setattr(acceptance, "betweenness_exact", deciding)
        monkeypatch.setattr(acceptance, "blow_up", lambda s: built.append(s) or real_blow_up(s))
        reg = _Registry()
        assert _BY_NUMBER[4](reg, "full", 1) == (
            True,
            "340 star blow-ups uniform; 10 perturbed centers all non-uniform",
        )
        assert len(decided) == 26 and len(set(decided[:16])) == 16
        assert len(built) == 350
        assert sorted(g.n for g in reg.uniform_graphs) == [2 * t for t in range(1, 17)]

    def test_criterion_4_names_a_uniform_negative_control(self, monkeypatch):
        # every profile flat: the family passes, the first control fails
        monkeypatch.setattr(acceptance, "betweenness_exact", lambda g: [Fraction(0)] * g.n)
        assert _BY_NUMBER[4](_Registry(), "full", 1) == (
            False,
            "negative control BW[I1,I1,I1] is uniform",
        )

    def test_criterion_5_names_the_spec_and_verdict(self, monkeypatch):
        _bump_profile_of(monkeypatch, p2_clique_spec(4))
        assert _BY_NUMBER[5](_Registry(), "full", 1) == (
            False,
            "A_[K4,K4]: UniformityResult(uniform=False, common=None)",
        )

    def test_criterion_5_wants_zero(self, monkeypatch):
        monkeypatch.setattr(acceptance, "betweenness_exact", lambda g: [Fraction(1)] * g.n)
        assert _BY_NUMBER[5](_Registry(), "full", 1) == (
            False,
            "A_[K1,K1]: UniformityResult(uniform=True, common=Fraction(1, 1))",
        )


class TestCriterion8Mutants:
    """A table whose lemma winner falls below the maximum at one grid
    point fails criterion 8, and the detail names that point."""

    @staticmethod
    def _sink(monkeypatch, slot, m, context) -> None:
        real = search._lemma_tables

        def sunk(s, size, contexts):
            tables = real(s, size, contexts)
            for i, ctx in enumerate(contexts):
                if (s, size, ctx) == (slot, m, context):
                    want = 0 if slot == "second" else m * (m - 1) // 2
                    tables[i] = [(h, v - 1 if h.edge_count == want else v) for h, v in tables[i]]
            return tables

        monkeypatch.setattr(search, "_lemma_tables", sunk)

    def test_independent_part_lemma(self, monkeypatch):
        self._sink(monkeypatch, "second", 3, (2, 3, 1))
        assert _BY_NUMBER[8](_Registry(), "full", 1) == (
            False,
            "independent-part lemma fails at m=3, (a,c,d)=(2,3,1)",
        )

    def test_clique_part_lemma(self, monkeypatch):
        self._sink(monkeypatch, "first", 2, (3, 1, 2))
        assert _BY_NUMBER[8](_Registry(), "full", 1) == (
            False,
            "clique-part lemma fails at m=2, (b,c,d)=(3,1,2)",
        )


class TestSearchClaimFailures:
    """A search that finds a blow-up or stops early fails criteria 9
    and 10 with its found count and its exhausted flag."""

    def test_criterion_9_unexhausted_search(self, monkeypatch):
        real = acceptance.search_blowups
        monkeypatch.setattr(
            acceptance,
            "search_blowups",
            lambda base, budget, jobs=1: real(base, budget, jobs=jobs)._replace(exhausted=False),
        )
        assert _BY_NUMBER[9](_Registry(), "quick", 1) == (
            False,
            "path4 search: found=0, exhausted=False",
        )

    def test_criterion_9_hit(self, monkeypatch):
        real = acceptance.search_blowups
        hit = (p4_mixed_spec(1, 2, 2, 1),)
        monkeypatch.setattr(
            acceptance,
            "search_blowups",
            lambda base, budget, jobs=1: real(base, budget, jobs=jobs)._replace(found=hit),
        )
        assert _BY_NUMBER[9](_Registry(), "quick", 1) == (
            False,
            "path4 search: found=1, exhausted=True",
        )

    @staticmethod
    def _spoil_sweep(monkeypatch, family, index, **change) -> None:
        # the index-th tree of the sweep over ``family`` parts gets its
        # search report changed
        real = acceptance.census

        def spoiled(kind, n_max, budget, jobs=1):
            out = real(kind, n_max, budget, jobs=jobs)
            if budget.part_family == family:
                out[index] = out[index]._replace(**change)
            return out

        monkeypatch.setattr(acceptance, "census", spoiled)

    def test_criterion_10_ik_sweep(self, monkeypatch):
        self._spoil_sweep(monkeypatch, FAMILY_IK, 1, exhausted=False)
        assert _BY_NUMBER[10](_Registry(), "full", 1) == (
            False,
            "tree DC[ I/K sweep: found=0, exhausted=False",
        )

    def test_criterion_10_all_parts_sweep(self, monkeypatch):
        self._spoil_sweep(monkeypatch, FAMILY_ALL, 0, found=(star_spec((1, 1)),))
        assert _BY_NUMBER[10](_Registry(), "full", 1) == (
            False,
            "tree CL all-parts sweep: found=1, exhausted=True",
        )


class TestOtherCriterionFailures:
    """Criteria 1, 2, 11 and 12 name what they found at fault."""

    def test_criterion_1_names_a_disagreement(self, monkeypatch):
        # the oracle gains 1 at vertex 0 of the 4-path's class only
        target = parse_graph6("CL")
        split = acceptance._split_numerators

        def bumped(g, part_of):
            den, cross, inside = split(g, part_of)
            if g == target:
                cross[0] += den
            return den, cross, inside

        monkeypatch.setattr(acceptance, "_split_numerators", bumped)
        assert _BY_NUMBER[1](_Registry(), "full", 1) == (False, "algorithms disagree on CL")

    def test_criterion_2_wants_the_4_cycle(self, monkeypatch):
        monkeypatch.setattr(acceptance, "is_isomorphic", lambda g, h: False)
        assert _BY_NUMBER[2](_Registry(), "full", 1) == (False, "Bg[K1,I2,K1] is not the 4-cycle")

    def test_criterion_2_wants_one_half(self, monkeypatch):
        monkeypatch.setattr(acceptance, "betweenness_oracle", lambda g: [Fraction(1)] * g.n)
        assert _BY_NUMBER[2](_Registry(), "full", 1) == (
            False,
            "Bg[K1,I2,K1] profile wrong: UniformityResult(uniform=True, common=Fraction(1, 1))",
        )

    @staticmethod
    def _spoil_cut_sweep(monkeypatch, index, **change) -> None:
        real = acceptance.census

        def spoiled(kind, n_max, budget, jobs=1):
            out = real(kind, n_max, budget, jobs=jobs)
            out[index] = out[index]._replace(**change)
            return out

        monkeypatch.setattr(acceptance, "census", spoiled)

    def test_criterion_12_unexhausted_search(self, monkeypatch):
        self._spoil_cut_sweep(monkeypatch, 1, exhausted=False)
        assert _BY_NUMBER[12](_Registry(), "full", 1) == (False, "search on DBk not exhausted")

    def test_criterion_12_reports_counterexamples(self, monkeypatch):
        # a hit is news about the paper's question, not a library fault
        hits = (p4_mixed_spec(1, 2, 2, 1), p4_mixed_spec(2, 1, 1, 2))
        self._spoil_cut_sweep(monkeypatch, 0, found=hits)
        assert _BY_NUMBER[12](_Registry(), "full", 1) == (
            True,
            "COUNTEREXAMPLES to the cut-vertex expectation: Ch[K1,I2,I2,K1], Ch[K2,I1,I1,K2]",
        )

    def test_criterion_11_names_a_uniform_graph_with_a_cut_vertex(self):
        reg = _Registry()
        reg.add_uniform(generate("cycle", 4), "a cycle")
        reg.add_uniform(generate("path", 3), "a planted path")
        assert _BY_NUMBER[11](reg, "full", 1) == (
            False,
            "uniform graph Bg from a planted path is not two-connected",
        )

    def test_criterion_11_names_an_unexhausted_claim(self):
        reg = _Registry()
        budget = SearchBudget(part_family=FAMILY_IK, max_part_size=2)
        reg.add_claim("a stopped search", SearchReport(generate("path", 4), budget, [], False, 3))
        assert _BY_NUMBER[11](reg, "full", 1) == (
            False,
            "empty claim from a stopped search was not exhausted",
        )


def test_run_suite_refuses_an_unknown_level():
    with pytest.raises(ValueError, match=r"^unknown level 'medium'$"):
        run_suite(level="medium")


def test_a_crashing_criterion_fails_with_its_exception(monkeypatch):
    def crash(reg, level, jobs):
        raise RuntimeError("boom")

    sanity = (11, "sanity", _BY_NUMBER[11])
    monkeypatch.setattr(acceptance, "CRITERIA", [(3, "crashes", crash), sanity])
    results = run_suite(level="quick")
    assert [(r.number, r.name, r.passed, r.detail) for r in results] == [
        (3, "crashes", False, "crashed: RuntimeError: boom"),
        (
            11,
            "sanity",
            True,
            "0 distinct uniform graphs all two-connected; 0 empty-search claims all exhausted",
        ),
    ]
