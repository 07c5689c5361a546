"""Search screen soundness, budgets, pruning, determinism, sweeps."""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb, inf, prod
from operator import itemgetter

import pytest
from hypothesis import given, settings

from bugraph.betweenness import betweenness_exact, is_betweenness_uniform
from bugraph.blowup import (
    BlowupSpec,
    GeodesicPlan,
    PartDescriptor,
    _part_numerators,
    _spec_numerators,
    blow_up,
    delta_extremal,
)
from bugraph.graphs import (
    Graph,
    automorphisms,
    cut_vertices,
    diameter,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_isomorphic,
    orbit,
    parse_graph6,
    serialize_graph6,
)
import bugraph.search
from bugraph.search import (
    SearchBudget,
    _scan_task,
    _size_orbits,
    candidate_parts,
    census,
    lemma_grid,
    lemma_table,
    search_blowups,
)

from test_blowup import blowup_specs


def _every_tuple(cand_lists):
    # every size tuple in product order, each standing for itself alone
    sizes = [list(dict.fromkeys(c.size for c in cands)) for cands in cand_lists]
    return [(t, 1) for t in product(*sizes)]


def _moves(base):
    # the generators of Aut(base) as maps on tuples, as search_blowups
    # builds them
    return [itemgetter(*p) for p in automorphisms(base)[1]]


def _orbit_reps(base, cand_lists):
    # one size tuple per orbit of Aut(base), as search_blowups lists them
    sizes = [list(dict.fromkeys(c.size for c in cands)) for cands in cand_lists]
    return list(_size_orbits(sizes, _moves(base), None))


def _uniform_assignments(base, cand_lists):
    # brute force: the index tuples of every uniform assignment, in
    # assignment order
    return [
        hit
        for hit in product(*(range(len(cands)) for cands in cand_lists))
        if is_betweenness_uniform(
            blow_up(BlowupSpec(base, tuple(c[i] for c, i in zip(cand_lists, hit)))).graph
        ).uniform
    ]


def _images(hits, moves):
    # every image of the screened hits under the group, in assignment order
    return sorted({image for hit in hits for image in orbit(hit, moves)})


def _closed_form_values(spec: BlowupSpec) -> list[Fraction]:
    # every blown-up vertex's value from the closed form, in blow_up order
    numerators = _spec_numerators(spec)
    d = numerators[0]
    return [Fraction(x, d) for part in _part_numerators(spec, numerators) for x in part]


def _sweep_bases():
    # the six bases of the benchmark sweep at their budgets
    return [
        (parse_graph6(g6), SearchBudget(part_family=family, max_part_size=m))
        for g6, family, m in [
            ("Bg", "ik", 6),
            ("CF", "ik", 4),
            ("Dhc", "ik", 4),
            ("Ch", "ik", 6),
            ("DC[", "ik", 4),
            ("DKK", "all", 3),
        ]
    ]


class TestScreen:
    @given(blowup_specs(max_base=4, max_part=3))
    @settings(max_examples=60, deadline=None)
    def test_vertex_values_match_exact(self, spec):
        values = _closed_form_values(spec)
        assert values == betweenness_exact(blow_up(spec).graph)

    @given(blowup_specs(max_base=4, max_part=3))
    @settings(max_examples=60, deadline=None)
    def test_uniform_verdict_matches_exact(self, spec):
        want = is_betweenness_uniform(blow_up(spec).graph).uniform
        sizes = tuple(p.size for p in spec.parts)
        _, found, _ = _scan_task((spec.base, [(p,) for p in spec.parts], [(sizes, 1)], None))
        assert bool(found) == want

    @pytest.mark.parametrize(
        "graph6, family, max_size",
        [("Dhc", "ik", 2), ("CF", "ik", 3), ("DKK", "all", 2), ("Bg", "all", 3), ("Bw", "all", 3)],
    )
    def test_verdict_matches_exact_on_every_spec(self, graph6, family, max_size):
        # every assignment, cut vertices included, in the screen's own
        # order; the two "all" bases with size-3 parts bring explicit
        # parts whose own shares differ.  Screening every size tuple must
        # give the verdicts, and screening one per orbit of Aut(base) must
        # give them once its hits are closed under the group.
        base = parse_graph6(graph6)
        cands = candidate_parts(SearchBudget(part_family=family, max_part_size=max_size))
        cand_lists = (cands,) * base.n
        want = _uniform_assignments(base, cand_lists)
        examined, found, completed = _scan_task((base, cand_lists, _every_tuple(cand_lists), None))
        assert completed and examined == len(cands) ** base.n
        assert sorted(found) == want
        examined, found, completed = _scan_task(
            (base, cand_lists, _orbit_reps(base, cand_lists), None)
        )
        assert completed and examined == len(cands) ** base.n
        assert _images(found, _moves(base)) == want

    def test_specs_sharing_a_size_tuple_get_their_own_verdicts(self):
        # (2, 1, 1) on the triangle: K2 in the first part blows up to K_4,
        # which is uniform, and I2 to K_4 minus an edge, which is not
        rep = search_blowups(generate("cycle", 3), SearchBudget(part_family="ik", max_part_size=2))
        labels = {s.label() for s in rep.found}
        assert "Bw[K2,I1,I1]" in labels
        assert "Bw[I2,I1,I1]" not in labels
        # the same pair met in the other order within one scan
        i1, i2, k2 = candidate_parts(SearchBudget(part_family="ik", max_part_size=2))
        job = (generate("cycle", 3), ((k2, i2), (i1,), (i1,)), [((2, 1, 1), 1)], None)
        _, found, _ = _scan_task(job)
        assert found == [(0, 0, 0)]

    def test_chunks_line_up_with_the_odometer(self):
        # one scan over all 27 size tuples, or over the 10 orbits of the
        # triangle's symmetric group, finds and examines what one-tuple
        # scans do, once their hits are merged and sorted; closed under
        # the group, either set of hits is every uniform assignment
        base = generate("cycle", 3)
        cands = candidate_parts(SearchBudget(part_family="all", max_part_size=3))
        cand_lists = (cands,) * 3
        want = _uniform_assignments(base, cand_lists)
        for moves, reps, count in (
            ([], _every_tuple(cand_lists), 27),
            (_moves(base), _orbit_reps(base, cand_lists), 10),
        ):
            assert len(reps) == count
            examined, whole, _ = _scan_task((base, cand_lists, reps, None))
            pieces = [_scan_task((base, cand_lists, [r], None)) for r in reps]
            assert examined == sum(e for e, _, _ in pieces) == len(cands) ** 3
            assert whole and sorted(hit for _, hits, _ in pieces for hit in hits) == sorted(whole)
            assert _images(whole, moves) == want
        assert _scan_task((base, cand_lists, [], None)) == (0, [], True)

    @pytest.mark.parametrize(
        "base, budget",
        _sweep_bases(),
        ids=lambda x: serialize_graph6(x) if isinstance(x, Graph) else x.part_family,
    )
    def test_batches_of_one_scan_alike(self, monkeypatch, base, budget):
        # the orbits one serial search screens, in numerators batches of
        # the default size and of one tuple each
        cands = candidate_parts(budget)
        cuts = set(cut_vertices(base))
        cand_lists = [
            tuple(c for c in cands if c.size > 1) if v in cuts else cands for v in range(base.n)
        ]
        job = (base, cand_lists, _orbit_reps(base, cand_lists), None)
        batched = _scan_task(job)
        monkeypatch.setattr(bugraph.search, "_SCAN_CHUNK", 1)
        assert _scan_task(job) == batched
        assert batched[2] and batched[0] == search_blowups(base, budget).specs_examined

    def test_deadline_inside_one_size_tuple(self):
        # the 34 classes on five vertices at every vertex of K_7: one size
        # tuple of 34**7 assignments, where no vertex closes before the
        # last one is assigned, so it must still stop on time
        cands = tuple(PartDescriptor.for_graph(h) for h in enumerate_graphs(5))
        assert len(cands) == 34
        base = generate("complete", 7)
        reps = [((5,) * 7, 1)]
        job = (base, (cands,) * 7, reps, time.monotonic() + 0.05)
        examined, _, completed = _scan_task(job)
        assert not completed and 0 < examined < 34**7

    def test_deadline_counts_only_decided_specs(self, monkeypatch):
        # a clock that passes the deadline at its (k + 1)-th reading: the
        # partial count grows with k, the partial hits are full-run hits,
        # and once k passes the node count the tuple is finished
        cands = tuple(PartDescriptor.for_graph(h) for h in enumerate_graphs(5))
        job = (generate("complete", 3), (cands,) * 3, [((5,) * 3, 1)], 1.0)
        readings = []

        def clock(k):
            def monotonic():
                readings.append(None)
                return 0.0 if len(readings) <= k else 2.0

            readings.clear()
            monkeypatch.setattr(bugraph.search.time, "monotonic", monotonic)

        clock(inf)
        examined, full, completed = _scan_task(job)
        nodes = len(readings)
        assert completed and examined == 34**3 and full
        counts = []
        for k in range(nodes + 2):
            clock(k)
            examined, hits, completed = _scan_task(job)
            assert completed == (k >= nodes)
            assert set(hits) <= set(full)
            counts.append(examined)
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[nodes - 1] < 34**3 == counts[nodes]

    # bases whose BFS order from vertex 0 closes vertices at different
    # levels: the 4-cycle closes three at its last level, the paw two at
    # each of its last two, the path and the claw one at each level
    # before the last; the size-3 parts include the path P3, whose own
    # numerators differ, so the filter drops candidates too
    @pytest.mark.parametrize("graph6", ["Cl", "Ch", "CF", "Cx"], ids=["C4", "P4", "claw", "paw"])
    def test_matches_brute_force_on_every_size_tuple(self, graph6):
        base = parse_graph6(graph6)
        cands = candidate_parts(SearchBudget(part_family="all", max_part_size=3))
        cand_lists = (cands,) * base.n
        want: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for hit in _uniform_assignments(base, cand_lists):
            want.setdefault(tuple(cands[i].size for i in hit), []).append(hit)
        for sizes, _ in _every_tuple(cand_lists):
            examined, found, completed = _scan_task((base, cand_lists, [(sizes, 3)], None))
            assert completed and sorted(found) == want.get(sizes, [])
            assert examined == 3 * prod(sum(c.size == s for c in cands) for s in sizes)

    def test_large_parts_on_long_path(self):
        # 40**12 geodesics join two vertices of the end parts, past any
        # 64-bit integer.  Betweenness sums to the sum of d(u, v) - 1
        # over all pairs: 40**2 * (d - 1) per pair of parts at base
        # distance d, and 1 per pair inside a part.
        spec = BlowupSpec(
            base=generate("path", 14),
            parts=tuple(PartDescriptor.independent(40) for _ in range(14)),
        )
        values = _closed_form_values(spec)
        assert len(values) == 560
        cross = sum(j - i - 1 for i in range(14) for j in range(i + 1, 14))
        assert sum(values) == 40**2 * cross + 14 * comb(40, 2)


def _criterion_bases():
    # the bases of verify-paper criteria 10 (trees of diameter >= 3, I/K
    # parts on <= 6 vertices, all parts on <= 5) and 12 (cut-vertex bases
    # of diameter >= 3 on <= 5 vertices), with their budgets
    ik4 = SearchBudget(part_family="ik", max_part_size=4)
    all3 = SearchBudget(part_family="all", max_part_size=3)
    trees = [t for n in range(4, 7) for t in enumerate_trees(n) if diameter(t) >= 3]
    cut = [
        g
        for n in range(4, 6)
        for g in enumerate_graphs(n)
        if is_connected(g) and cut_vertices(g) and diameter(g) >= 3
    ]
    return (
        [(t, ik4) for t in trees]
        + [(t, all3) for t in trees if t.n <= 5]
        + [(g, ik4) for g in cut]
    )


def _search_both_ways(monkeypatch, base, budget, jobs=1):
    # the search as it runs, and with Aut(base) taken as the identity
    reduced = search_blowups(base, budget, jobs=jobs)
    with monkeypatch.context() as m:
        m.setattr(bugraph.search, "automorphisms", lambda g: (1, ()))
        full = search_blowups(base, budget, jobs=jobs)
    return reduced, full


class TestOrbitScreen:
    @pytest.mark.parametrize(
        "base, budget",
        _criterion_bases(),
        ids=lambda x: serialize_graph6(x) if isinstance(x, Graph) else x.part_family,
    )
    def test_matches_unreduced_search_on_criterion_bases(self, monkeypatch, base, budget):
        reduced, full = _search_both_ways(monkeypatch, base, budget)
        assert reduced.exhausted and full.exhausted
        assert reduced.specs_examined == full.specs_examined
        assert reduced.found == full.found == []

    # bases with hits, so the hits' images under Aut(base) are checked
    # too; CF and Dhc also run through the pool
    @pytest.mark.parametrize(
        "graph6, family, max_size, jobs, hits",
        [
            ("Bg", "ik", 6, 1, 15),
            ("CF", "ik", 4, 2, 4),
            ("Dhc", "ik", 4, 2, 7),
            ("Dhc", "all", 2, 1, 3),
            ("Bw", "all", 3, 1, 30),
            ("C~", "ik", 3, 1, 83),
        ],
    )
    def test_matches_unreduced_search_with_hits(
        self, monkeypatch, graph6, family, max_size, jobs, hits
    ):
        budget = SearchBudget(part_family=family, max_part_size=max_size)
        reduced, full = _search_both_ways(monkeypatch, parse_graph6(graph6), budget, jobs)
        assert reduced.exhausted and full.exhausted
        assert reduced.specs_examined == full.specs_examined
        assert reduced.found == full.found
        assert len(reduced.found) == hits

    # one verification per orbit of hits under Aut(base): most of path3's
    # hits pair up under the reversal, each of the 5-cycle's constant
    # hits is its own orbit, and the 4-clique's 83 hits fall into 17
    # orbits of its symmetric group.  On the 4-cycle the screen itself
    # meets 69 hits, some of them images of one another within one size
    # tuple, in 56 orbits.
    @pytest.mark.parametrize(
        "graph6, max_size, jobs, hits, verified",
        [
            ("Bg", 6, 1, 15, 9),
            ("CF", 4, 1, 4, 2),
            ("CF", 4, 2, 4, 2),
            ("Dhc", 4, 1, 7, 7),
            ("C~", 3, 1, 83, 17),
            ("Cr", 5, 1, 221, 56),
        ],
    )
    def test_one_hit_verified_per_orbit(self, monkeypatch, graph6, max_size, jobs, hits, verified):
        calls = []
        verify = bugraph.search._verify_hit
        monkeypatch.setattr(bugraph.search, "_verify_hit", lambda spec: calls.append(verify(spec)))
        budget = SearchBudget(part_family="ik", max_part_size=max_size)
        rep = search_blowups(parse_graph6(graph6), budget, jobs=jobs)
        assert (len(rep.found), len(calls)) == (hits, verified)

    def test_every_base_is_reduced_past_a_quarter_million_size_tuples(self):
        # 4 * 5**11 assignments over 2 * 3**11 = 354,294 size tuples, and
        # 2 * C(13, 2) orbits under the symmetric group on the 11 leaves;
        # a tuple-by-tuple screen decides about 12 million of them in 30 s
        base = generate("star", 11)
        budget = SearchBudget(part_family="ik", max_part_size=3, time_limit=30)
        rep = search_blowups(base, budget)
        assert rep.exhausted and rep.found == []
        assert rep.specs_examined == 195_312_500

    def test_star_screens_one_size_tuple_per_orbit(self):
        # 4 * 5**8 assignments over 2 * 3**8 size tuples; the symmetric
        # group on the 8 leaves leaves 2 * C(10, 2) orbits to screen
        # (the every-tuple screen took about 5 s on a 2-core host, the
        # orbit screen about 0.1 s)
        base = generate("star", 8)
        budget = SearchBudget(part_family="ik", max_part_size=3)
        sizes = [[1, 2, 3]] * 8 + [[2, 3]]
        reps = list(_size_orbits(sizes, _moves(base), None))
        assert len(reps) == 90
        assert sum(w for _, w in reps) == 2 * 3**8
        start = time.perf_counter()
        rep = search_blowups(base, budget)
        assert time.perf_counter() - start < 2.5
        assert rep.exhausted and rep.found == []
        assert rep.specs_examined == 4 * 5**8

    def test_over_size_orbits_are_skipped_whole(self):
        sizes = [[1, 2, 3]] * 3
        reps = list(_size_orbits(sizes, _moves(generate("cycle", 3)), 5))
        assert [t for t, _ in reps] == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2)]
        assert [w for _, w in reps] == [1, 3, 3, 3]


def _listing_bases():
    # every tree on 2..7 vertices with I/K parts of size <= 4, and the six
    # bases of the benchmark sweep at their budgets
    ik4 = SearchBudget(part_family="ik", max_part_size=4)
    trees = [(t, ik4) for n in range(2, 8) for t in enumerate_trees(n)]
    return trees + _sweep_bases()


def _brute_force_orbits(base, sizes, max_total):
    # the whole group, as every vertex permutation that keeps the edge
    # set; each orbit once, as its least member and its size, in product
    # order
    edges = {frozenset(e) for e in base.edges}
    group = [
        p for p in permutations(range(base.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in base.edges)
    ]
    tuples = [t for t in product(*sizes) if max_total is None or sum(t) <= max_total]
    rank = {t: i for i, t in enumerate(tuples)}
    seen: set = set()
    out = []
    for t in tuples:
        if t not in seen:
            members = {tuple(t[v] for v in p) for p in group}
            seen |= members
            out.append((min(members), len(members)))
    return sorted(out, key=lambda rep: rank[rep[0]])


class TestSizeOrbits:
    @pytest.mark.parametrize(
        "base, budget",
        _listing_bases(),
        ids=lambda x: serialize_graph6(x) if isinstance(x, Graph) else x.part_family,
    )
    def test_matches_brute_force_listing(self, base, budget):
        # the sizes search_blowups lists: a cut vertex takes no size 1
        cuts = set(cut_vertices(base))
        sizes = [
            sorted({c.size for c in candidate_parts(budget) if c.size > 1 or v not in cuts})
            for v in range(base.n)
        ]
        for max_total in (None, 2 * base.n):
            assert list(_size_orbits(sizes, _moves(base), max_total)) == _brute_force_orbits(
                base, sizes, max_total
            )


class TestCandidates:
    def test_ik_order_and_dedup(self):
        b = SearchBudget(part_family="ik", max_part_size=3)
        assert [c.label() for c in candidate_parts(b)] == ["I1", "I2", "K2", "I3", "K3"]

    def test_budgets_share_one_candidate_tuple(self):
        a = candidate_parts(SearchBudget(part_family="all", max_part_size=3))
        b = candidate_parts(SearchBudget(part_family="all", max_part_size=3, time_limit=5))
        assert a is b
        assert candidate_parts(SearchBudget(part_family="ik", max_part_size=3)) is not a

    def test_all_family_covers_every_class(self):
        b = SearchBudget(part_family="all", max_part_size=3)
        labels = [c.label() for c in candidate_parts(b)]
        assert len(labels) == 1 + 2 + 4
        assert labels[0] == "I1"
        assert sum(1 for s in labels if s.startswith("X")) == 2

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="^unknown part family 'weird'$"):
            SearchBudget(part_family="weird")
        with pytest.raises(ValueError, match="^max_part_size must be >= 1$"):
            SearchBudget(max_part_size=0)
        with pytest.raises(ValueError, match="^family 'all' supports max_part_size <= 5$"):
            SearchBudget(part_family="all", max_part_size=6)
        for limit in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^time_limit must be positive and finite$"):
                SearchBudget(time_limit=limit)
        with pytest.raises(ValueError, match="^max_total_vertices must be >= 2$"):
            SearchBudget(max_total_vertices=1)

    @pytest.mark.parametrize("limit", [True, "1", [1]])
    def test_budget_time_limit_must_be_a_number(self, limit):
        with pytest.raises(ValueError, match="^time_limit must be a number of seconds, not "):
            SearchBudget(time_limit=limit)

    @pytest.mark.parametrize("bound", [2.5, 4.0, True, "4", None])
    def test_budget_sizes_must_be_ints(self, bound):
        with pytest.raises(ValueError, match="^max_part_size must be an integer"):
            SearchBudget(max_part_size=bound)
        if bound is not None:
            with pytest.raises(ValueError, match="^max_total_vertices must be an integer"):
                SearchBudget(max_total_vertices=bound)


class TestSearch:
    def test_path3_family_found(self):
        rep = search_blowups(generate("path", 3), SearchBudget(part_family="ik", max_part_size=4))
        labels = {s.label() for s in rep.found}
        assert "Bg[I1,I2,I1]" in labels
        assert "Bg[I2,I4,I2]" in labels
        assert rep.exhausted
        # nothing outside the independent-set family shows up
        assert all("K" not in lab.split("[")[1] for lab in labels)

    def test_edge_base_finds_balanced_pairs(self):
        # in assignment order, which here differs from size-tuple order:
        # (I2, I2) comes before (K2, I1), whose size tuple (2, 1) is
        # screened first
        rep = search_blowups(generate("path", 2), SearchBudget(part_family="ik", max_part_size=3))
        assert [s.label() for s in rep.found] == [
            "A_[I1,I1]",
            "A_[I1,K2]",
            "A_[I1,K3]",
            "A_[I2,I2]",
            "A_[K2,I1]",
            "A_[K2,K2]",
            "A_[K2,K3]",
            "A_[I3,I3]",
            "A_[K3,I1]",
            "A_[K3,K2]",
            "A_[K3,K3]",
        ]

    def test_path4_empty_and_exhausted(self):
        rep = search_blowups(generate("path", 4), SearchBudget(part_family="ik", max_part_size=3))
        assert rep.found == [] and rep.exhausted
        assert rep.specs_examined == 5 * 4 * 4 * 5

    @pytest.mark.parametrize("base", [generate("path", 2), generate("path", 3), generate("cycle", 3)])
    def test_pruning_changes_nothing_found(self, monkeypatch, base):
        b = SearchBudget(part_family="ik", max_part_size=3)
        pruned = search_blowups(base, b)
        # with no cut vertices known, unit parts stay on every vertex
        monkeypatch.setattr(bugraph.search, "cut_vertices", lambda g: [])
        full = search_blowups(base, b)
        assert [s.label() for s in pruned.found] == [s.label() for s in full.found]
        assert pruned.specs_examined <= full.specs_examined

    def test_triangle_base_keeps_unit_parts(self):
        # no cut vertices on a cycle, so unit parts stay; K_4 arises as
        # the (2,1,1) mixed blow-up and must be reported
        rep = search_blowups(generate("cycle", 3), SearchBudget(part_family="ik", max_part_size=2))
        assert "Bw[K2,I1,I1]" in {s.label() for s in rep.found}

    # 1764 and 294 specs over 144 and 18 size tuples, which the reversal
    # folds into 78 and 12 orbits; in slices of 5 and 1 orbits the pool
    # gets 16 and 12 tasks; the path3 budget has hits.  With
    # parts of size 1 only, the cut vertex of path3 has no candidate, so
    # the space is empty and must still read as exhausted.
    @pytest.mark.parametrize(
        "base, family, max_size, examined, hits",
        [
            (generate("path", 4), "ik", 4, 1764, 0),
            (generate("path", 3), "all", 3, 294, 5),
            (generate("path", 3), "ik", 1, 0, 0),
        ],
        ids=["path4-ik", "path3-all", "path3-empty"],
    )
    def test_jobs_do_not_change_output(self, base, family, max_size, examined, hits):
        b = SearchBudget(part_family=family, max_part_size=max_size)
        r1 = search_blowups(base, b, jobs=1)
        r2 = search_blowups(base, b, jobs=2)
        for r in (r1, r2):
            assert r.exhausted
            assert (r.specs_examined, len(r.found)) == (examined, hits)
        assert r1 == r2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cycle5_explicit_parts_to_five(self, jobs):
        # 52**5 specs over every class on at most five vertices; the hit
        # labels are those the unpruned screen reported
        rep = search_blowups(parse_graph6("Dhc"), SearchBudget("all", 5), jobs=jobs)
        assert rep.exhausted and rep.specs_examined == 380_204_032
        assert [s.label() for s in rep.found] == [
            "Dhc[I1,I1,I1,I1,I1]",
            "Dhc[I2,I2,I2,I2,I2]",
            "Dhc[K2,K2,K2,K2,K2]",
            "Dhc[I3,I3,I3,I3,I3]",
            "Dhc[X(BG),X(BG),X(BG),X(BG),X(BG)]",
            "Dhc[K3,K3,K3,K3,K3]",
            "Dhc[I4,I4,I4,I4,I4]",
            "Dhc[X(C@),X(C@),X(C@),X(C@),X(C@)]",
            "Dhc[X(CJ),X(CJ),X(CJ),X(CJ),X(CJ)]",
            "Dhc[X(CK),X(CK),X(CK),X(CK),X(CK)]",
            "Dhc[X(C]),X(C]),X(C]),X(C]),X(C])]",
            "Dhc[K4,K4,K4,K4,K4]",
            "Dhc[K4,K4,K5,I5,K5]",
            "Dhc[K4,K5,I5,K5,K4]",
            "Dhc[I5,I5,I5,I5,I5]",
            "Dhc[I5,K5,K4,K4,K5]",
            "Dhc[X(D?C),X(D?C),X(D?C),X(D?C),X(D?C)]",
            "Dhc[X(D@K),X(D@K),X(D@K),X(D@K),X(D@K)]",
            "Dhc[X(D@O),X(D@O),X(D@O),X(D@O),X(D@O)]",
            "Dhc[X(DJ[),X(DJ[),X(DJ[),X(DJ[),X(DJ[)]",
            "Dhc[X(DLo),X(DLo),X(DLo),X(DLo),X(DLo)]",
            "Dhc[X(D`K),X(D`K),X(D`K),X(D`K),X(D`K)]",
            "Dhc[K5,K4,K4,K5,I5]",
            "Dhc[K5,I5,K5,K4,K4]",
            "Dhc[K5,K5,K5,K5,K5]",
        ]

    def test_time_limit_partial(self):
        # through the pool too, where the deadline passes before any
        # task is sent, so no task can report it
        budget = SearchBudget(part_family="ik", max_part_size=4, time_limit=1e-9)
        for jobs in (1, 2):
            rep = search_blowups(generate("path", 4), budget, jobs=jobs)
            assert not rep.exhausted

    def test_max_total_vertices(self):
        b_all = SearchBudget(part_family="ik", max_part_size=4)
        b_cap = SearchBudget(part_family="ik", max_part_size=4, max_total_vertices=6)
        full = search_blowups(generate("path", 3), b_all)
        capped = search_blowups(generate("path", 3), b_cap)
        assert capped.specs_examined < full.specs_examined
        assert all(s.total_vertices <= 6 for s in capped.found)
        assert {s.label() for s in capped.found} == {
            s.label() for s in full.found if s.total_vertices <= 6
        }

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            search_blowups(Graph(1), SearchBudget())
        with pytest.raises(ValueError):
            search_blowups(Graph(3, ((0, 1),)), SearchBudget())

    def test_all_family_on_edge_base(self):
        rep = search_blowups(generate("path", 2), SearchBudget(part_family="all", max_part_size=2))
        assert {s.label() for s in rep.found} == {
            "A_[I1,I1]",
            "A_[I1,K2]",
            "A_[K2,I1]",
            "A_[I2,I2]",
            "A_[K2,K2]",
        }


def _holds(slot: str, m: int, grid_max: int) -> dict:
    return {context: holds for context, _, _, holds in lemma_grid(slot, m, grid_max)}


class TestLemmas:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_independent_maximizer(self, m):
        holds = _holds("second", m, 2)
        assert holds[(1, 1, 1)] and holds[(2, 1, 2)]
        assert all(holds.values())

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_clique_maximizer(self, m):
        holds = _holds("first", m, 2)
        assert holds[(1, 1, 1)] and holds[(2, 2, 1)]
        assert all(holds.values())

    @pytest.mark.parametrize("slot", ("first", "second"))
    def test_grid_reads_the_tables_in_product_order(self, slot):
        grid = list(lemma_grid(slot, 3, 2))
        assert [context for context, _, _, _ in grid] == list(product((1, 2), repeat=3))
        for context, rows, best, _ in grid:
            assert rows == lemma_table(slot, 3, context)
            assert best == max(v for _, v in rows)

    def test_grid_flags_a_lost_maximum(self, monkeypatch):
        # the complete class sinks below the edgeless one at one point
        real = bugraph.search._lemma_tables

        def sunk(slot, m, contexts):
            tables = real(slot, m, contexts)
            for i, context in enumerate(contexts):
                if context == (2, 1, 2):
                    tables[i] = [(h, v - 1 if h.edge_count == 3 else v) for h, v in tables[i]]
            return tables

        monkeypatch.setattr(bugraph.search, "_lemma_tables", sunk)
        holds = _holds("first", 3, 2)
        assert [ctx for ctx, ok in holds.items() if not ok] == [(2, 1, 2)]

    def test_clique_table_is_monotone_like(self):
        rows = lemma_table("first", 3, (1, 1, 1))
        by_edges = {h.edge_count: v for h, v in rows}
        assert by_edges[3] == max(v for _, v in rows)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            lemma_grid("second", 6, 1)

    # the grid is a list, so each check fires at the call, not at a read
    @pytest.mark.parametrize(
        "slot, m, grid_max", [("bogus", 9, 2), ("middle", 2, 2), ("second", 0, 2), ("first", 2, 0)]
    )
    def test_bad_grid_arguments_raise_at_the_call(self, slot, m, grid_max):
        with pytest.raises(ValueError):
            lemma_grid(slot, m, grid_max)

    @pytest.mark.parametrize("slot", ("first", "second"))
    def test_table_matches_delta_extremal(self, slot):
        # the per-class route: one spec and one delta_extremal per row
        path4 = generate("path", 4)
        cases = [(m, ctx) for m in range(1, 5) for ctx in product((1, 2, 3), repeat=3)]
        cases += [(5, ctx) for ctx in ((1, 1, 1), (3, 2, 1), (2, 3, 3))]
        for m, (x, c, d) in cases:
            want = []
            for h in enumerate_graphs(m):
                part = PartDescriptor.for_graph(h)
                if slot == "first":
                    head = (part, PartDescriptor.independent(x))
                else:
                    head = (PartDescriptor.clique(x), part)
                parts = head + (PartDescriptor.independent(c), PartDescriptor.clique(d))
                want.append((h, delta_extremal(BlowupSpec(path4, parts)).value))
            assert lemma_table(slot, m, (x, c, d)) == want, (m, (x, c, d))

    def test_one_numerators_call_per_table(self, monkeypatch):
        # each call logs the slot count of every entry of its batch
        calls = []
        numerators = GeodesicPlan.numerators

        def counted(plan, batch):
            calls.append([len(slots) for slots in batch])
            return numerators(plan, batch)

        monkeypatch.setattr(GeodesicPlan, "numerators", counted)
        for slot, m in (("first", 1), ("second", 4), ("first", 5)):
            calls.clear()
            lemma_table(slot, m, (2, 1, 3))
            assert calls == [[4]]
            calls.clear()
            lemma_grid(slot, m, 3)
            assert calls == [[4] * 27]

    @pytest.mark.parametrize(
        "slot, context", [("middle", (1, 1, 1)), ("first", (1, 1)), ("second", (1, 0, 1))]
    )
    def test_bad_slot_or_context(self, slot, context):
        with pytest.raises(ValueError):
            lemma_table(slot, 3, context)

    # True would read as 1 if the bounds were not checked, and 2.0 would
    # reach range() as a float
    @pytest.mark.parametrize("m", [2.0, 2.5, True, "3", None])
    def test_table_size_must_be_an_int(self, m):
        with pytest.raises(ValueError, match="^lemma verification needs an integer m, not "):
            lemma_table("first", m, (1, 1, 1))

    @pytest.mark.parametrize("grid_max", [2.0, 2.5, True, "3", None])
    def test_grid_bound_must_be_an_int(self, grid_max):
        with pytest.raises(ValueError, match="^lemma grid needs an integer grid_max, not "):
            lemma_grid("second", 2, grid_max)


class TestSweeps:
    # part size 1 leaves every cut vertex without candidates, so each
    # search is empty and instant, and only the base listing is tested
    EMPTY = SearchBudget(part_family="ik", max_part_size=1)

    def test_tree_theorem_small(self):
        (report,) = census("trees", 4, SearchBudget(part_family="ik", max_part_size=3))
        assert diameter(report.base) == 3
        assert report.found == [] and report.exhausted

    @pytest.mark.parametrize("kind", ["trees", "cut-vertex"])
    def test_base_counts(self, kind):
        want = {"trees": {4: 1, 5: 2, 6: 5, 7: 10}, "cut-vertex": {4: 1, 5: 6, 6: 43, 7: 341}}
        assert Counter(r.base.n for r in census(kind, 7, self.EMPTY)) == want[kind]

    def test_tree_bases_are_the_long_trees(self):
        trees = [r.base for r in census("trees", 7, self.EMPTY)]
        long_trees = [t for n in range(1, 8) for t in enumerate_trees(n) if diameter(t) >= 3]
        cut = [r.base for r in census("cut-vertex", 7, self.EMPTY)]
        assert trees == long_trees == [g for g in cut if g.edge_count == g.n - 1]

    def test_tree_theorem_cap(self):
        for n_max in (0, 8):
            with pytest.raises(ValueError, match=r"^census needs an integer 1 <= n_max <= 7, not "):
                census("trees", n_max, SearchBudget())

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown census kind 'graphs'$"):
            census("graphs", 4, SearchBudget())

    @pytest.mark.parametrize("n_max", [2.0, 2.5, True, "3", None])
    def test_tree_theorem_bound_must_be_an_int(self, n_max):
        with pytest.raises(ValueError, match=r"^census needs an integer 1 <= n_max <= 7, not "):
            census("trees", n_max, SearchBudget(part_family="ik", max_part_size=3))

    @pytest.mark.parametrize("n_max", [2.0, 2.5, True, "3", None])
    def test_cut_conjecture_bound_must_be_an_int(self, n_max):
        with pytest.raises(ValueError, match=r"^census needs an integer 1 <= n_max <= 7, not "):
            census("cut-vertex", n_max, SearchBudget(part_family="ik", max_part_size=3))

    def test_cut_conjecture_smallest(self):
        reports = census("cut-vertex", 4, SearchBudget(part_family="ik", max_part_size=3))
        assert len(reports) == 1  # only the 4-path qualifies
        assert is_isomorphic(reports[0].base, generate("path", 4))
        assert reports[0].found == []
