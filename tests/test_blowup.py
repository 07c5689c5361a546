"""Blow-up construction, decomposition, closed forms, ratio tooling."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bugraph.blowup
import bugraph.graphs
from bugraph.acceptance import _corpus_specs
from bugraph.betweenness import _exact_numerators, betweenness_exact
from bugraph.constructions import p3_independent_spec
from bugraph.blowup import (
    BlownGraph,
    BlowupSpec,
    DeltaResult,
    DeltaUndefinedError,
    PartDescriptor,
    Decomposition,
    _decomposition_numerators,
    _part_numerators,
    _spec_numerators,
    blow_up,
    decompose_betweenness,
    delta_extremal,
    shares_by_part,
    spec_from_json,
    spec_to_json,
)
from bugraph.graphs import (
    Graph,
    bfs_distances,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_isomorphic,
)

from conftest import connected_graphs


@st.composite
def blowup_specs(
    draw, min_base: int = 2, max_base: int = 4, max_part: int = 3, trees: bool = False
):
    if trees:
        pool = [t for n in range(min_base, max_base + 1) for t in enumerate_trees(n)]
        base = draw(st.sampled_from(pool))
    else:
        base = draw(connected_graphs(min_n=min_base, max_n=max_base))
    pool = [g for s in range(1, max_part + 1) for g in enumerate_graphs(s)]
    parts = tuple(
        PartDescriptor.for_graph(draw(st.sampled_from(pool))) for _ in range(base.n)
    )
    return BlowupSpec(base=base, parts=parts)


def _part_graph(p: PartDescriptor) -> Graph:
    if p.kind == "I":
        return generate("empty", p.size)
    if p.kind == "K":
        return generate("complete", p.size)
    return p.graph


def _rebuilt_edges(spec: BlowupSpec) -> set[tuple[int, int]]:
    # reconstruct the expected edge set from scratch
    offs = [0]
    for p in spec.parts:
        offs.append(offs[-1] + p.size)
    edges: set[tuple[int, int]] = set()
    for i, p in enumerate(spec.parts):
        for u, v in _part_graph(p).edges:
            edges.add((offs[i] + u, offs[i] + v))
    for i, j in spec.base.edges:
        for u in range(offs[i], offs[i + 1]):
            for v in range(offs[j], offs[j + 1]):
                edges.add(tuple(sorted((u, v))))
    return edges


def _neighbor_share(spec: BlowupSpec, i: int, j: int) -> Fraction:
    """What the pairs inside part j give each vertex of base neighbor part i."""
    return list(shares_by_part(spec))[i][1][j]


def _assert_equals_validated(g: Graph) -> None:
    """g, however it was built, is what ``Graph``'s validation makes of
    its edges: equal, with the same hash and the same edge tuple."""
    v = Graph(g.n, g.edges)
    assert type(g) is Graph
    assert g == v
    assert hash(g) == hash(v)
    assert g.edges == v.edges


class TestConstruction:
    @given(blowup_specs(max_base=4, max_part=3))
    @settings(max_examples=60, deadline=None)
    def test_trusted_build_equals_validated(self, spec):
        _assert_equals_validated(blow_up(spec).graph)

    def test_trusted_build_equals_validated_on_every_part_class(self):
        # each connected base on 2-4 vertices, each class on <= 3 vertices
        # in every slot: I, K and explicit parts next to one another
        pool = [PartDescriptor.for_graph(h) for s in (1, 2, 3) for h in enumerate_graphs(s)]
        assert {p.kind for p in pool} == {"I", "K", "X"}
        for base in (g for n in (2, 3, 4) for g in enumerate_graphs(n) if is_connected(g)):
            for k in range(len(pool)):
                parts = tuple(pool[(k + i) % len(pool)] for i in range(base.n))
                _assert_equals_validated(blow_up(BlowupSpec(base, parts)).graph)

    @given(blowup_specs())
    @settings(max_examples=40, deadline=None)
    def test_edge_count_without_building(self, spec):
        assert spec.edge_count == blow_up(spec).graph.edge_count

    @given(blowup_specs())
    @settings(max_examples=50)
    def test_edge_set_matches_reconstruction(self, spec):
        bg = blow_up(spec)
        assert set(bg.graph.edges) == _rebuilt_edges(spec)

    @given(blowup_specs())
    @settings(max_examples=25)
    def test_vertex_numbering_contiguous(self, spec):
        bg = blow_up(spec)
        expect = 0
        for i, p in enumerate(spec.parts):
            vs = bg.part_vertices[i]
            assert vs == tuple(range(expect, expect + p.size))
            assert all(bg.part_of[v] == i for v in vs)
            expect += p.size

    @pytest.mark.parametrize("size", [2.5, 2.0, True, "2", None])
    @pytest.mark.parametrize("kind", ["I", "K"])
    def test_part_size_must_be_an_int(self, kind, size):
        with pytest.raises(ValueError, match="part size"):
            PartDescriptor(kind, size)

    def test_rejects_single_vertex_base(self):
        with pytest.raises(ValueError, match="^blow-up base needs at least two vertices$"):
            BlowupSpec(base=Graph(1), parts=(PartDescriptor.independent(2),))

    def test_rejects_disconnected_base(self):
        with pytest.raises(ValueError, match="^blow-up base must be connected$"):
            BlowupSpec(
                base=Graph(2, ()),
                parts=(PartDescriptor.independent(1), PartDescriptor.independent(1)),
            )

    def test_connectivity_check_reuses_base_distances(self, monkeypatch):
        # the search screen builds one spec per part assignment on a
        # fixed base; checking connectivity must not run a BFS each time
        calls = []
        bfs = bugraph.graphs.bfs_distances

        def counting_bfs(g, source):
            calls.append(source)
            return bfs(g, source)

        monkeypatch.setattr(bugraph.graphs, "bfs_distances", counting_bfs)
        base = generate("cycle", 5)
        for s in range(100):
            parts = tuple(PartDescriptor.independent(1 + s % 4) for _ in range(5))
            BlowupSpec(base=base, parts=parts)
        assert len(calls) <= base.n

    def test_rejects_wrong_part_count(self):
        with pytest.raises(ValueError, match="^need one part per base vertex: 3 != 1$"):
            BlowupSpec(base=generate("path", 3), parts=(PartDescriptor.clique(2),))

    def test_known_small_blowup(self):
        spec = BlowupSpec(
            base=generate("path", 3),
            parts=(
                PartDescriptor.independent(2),
                PartDescriptor.independent(3),
                PartDescriptor.independent(1),
            ),
        )
        g = blow_up(spec).graph
        assert g.n == 6
        assert g.edge_count == 2 * 3 + 3 * 1

    def test_joined_cliques_complete(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.clique(3), PartDescriptor.clique(3)),
        )
        g = blow_up(spec).graph
        assert g.edge_count == 15
        assert is_isomorphic(g, generate("complete", 6))


def _all_geodesics(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    du = bfs_distances(g, u)
    out: list[tuple[int, ...]] = []

    def walk(path):
        head = path[-1]
        if head == u:
            out.append(tuple(reversed(path)))
            return
        for w in g.adjacency[head]:
            if du[w] == du[head] - 1:
                walk(path + [w])

    if du[v] > 0:
        walk([v])
    return out


class TestMetricStructure:
    @given(blowup_specs(max_base=3, max_part=2))
    @settings(max_examples=30)
    def test_same_part_distance_at_most_two(self, spec):
        bg = blow_up(spec)
        for i, vs in enumerate(bg.part_vertices):
            for u in vs:
                du = bfs_distances(bg.graph, u)
                for v in vs:
                    if v != u:
                        assert 1 <= du[v] <= 2

    @given(blowup_specs(max_base=3, max_part=2))
    @settings(max_examples=30)
    def test_cross_part_distance_is_base_distance(self, spec):
        bg = blow_up(spec)
        base_dist = [bfs_distances(spec.base, i) for i in range(spec.base.n)]
        for u in range(bg.graph.n):
            du = bfs_distances(bg.graph, u)
            for v in range(bg.graph.n):
                pu, pv = bg.part_of[u], bg.part_of[v]
                if pu != pv:
                    assert du[v] == base_dist[pu][pv]

    @given(blowup_specs(max_base=3, max_part=2))
    @settings(max_examples=20)
    def test_geodesics_visit_each_part_once(self, spec):
        bg = blow_up(spec)
        for u, v in combinations(range(bg.graph.n), 2):
            if bg.part_of[u] == bg.part_of[v]:
                continue
            for path in _all_geodesics(bg.graph, u, v):
                parts = [bg.part_of[w] for w in path]
                assert len(parts) == len(set(parts))


class TestSigmaWithin:
    """A non-adjacent pair inside part j has c + mass(j) geodesics, c of
    them through common neighbors inside the part and the rest through
    the parts on base neighbors of j; the neighbor share that
    ``shares_by_part`` gives reads c off the part graph."""

    def test_clique_adjacent_pair(self):
        # adjacent pairs have the edge as their only geodesic
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.clique(3), PartDescriptor.independent(1)),
        )
        assert _neighbor_share(spec, 1, 0) == 0

    def test_independent_pair_counts_inside_common_neighbors(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.independent(2), PartDescriptor.independent(3)),
        )
        assert _neighbor_share(spec, 1, 0) == Fraction(1, 0 + 3)

    def test_explicit_path_endpoints(self):
        p3 = generate("path", 3)
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.explicit(p3), PartDescriptor.independent(2)),
        )
        # one length-2 route through the part's own middle vertex
        assert _neighbor_share(spec, 1, 0) == Fraction(1, 1 + 2)

    def test_neighbor_mass_sums_adjacent_parts(self):
        # the center part 3 is I5, so that its pairs' share shows mass(3)
        spec = BlowupSpec(
            base=generate("star", 3),
            parts=(
                PartDescriptor.independent(2),
                PartDescriptor.independent(3),
                PartDescriptor.independent(4),
                PartDescriptor.independent(5),
            ),
        )
        # mass(3) = 2 + 3 + 4 and mass(0) = 5
        assert _neighbor_share(spec, 0, 3) == Fraction(5 * 4 // 2, 9)
        assert _neighbor_share(spec, 3, 0) == Fraction(2 * 1 // 2, 5)


def _total(dec: Decomposition) -> Fraction:
    # the betweenness a decomposition splits: the sum of its shares
    return dec.global_part + dec.own_local + sum(dec.neighbor_locals.values())


class TestDecomposition:
    @given(blowup_specs())
    @settings(max_examples=40, deadline=None)
    def test_identity_every_vertex(self, spec):
        bg = blow_up(spec)
        profile = betweenness_exact(bg.graph)
        for v in range(bg.graph.n):
            dec = decompose_betweenness(bg, v)
            assert _total(dec) == profile[v]

    @given(blowup_specs(max_base=3))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_every_vertex(self, spec):
        bg = blow_up(spec)
        shares = list(shares_by_part(spec))
        for i, j in spec.base.edges:
            for pi, pj in ((i, j), (j, i)):
                want = shares[pi][1][pj]
                for x in bg.part_vertices[pi]:
                    dec = decompose_betweenness(bg, x)
                    assert dec.neighbor_locals[pj] == want
                    # the oracle reads the neighbor parts off the built graph
                    assert list(dec.neighbor_locals) == sorted(spec.base.adjacency[pi])

    def test_pair_split_computed_once_per_blowup(self, monkeypatch):
        # decomposing every vertex and reading the integer split share
        # one per-pair oracle pass
        calls = []
        split = bugraph.blowup._split_numerators

        def counting_split(g, part_of):
            calls.append(g)
            return split(g, part_of)

        monkeypatch.setattr(bugraph.blowup, "_split_numerators", counting_split)
        spec = BlowupSpec(
            base=generate("path", 4),
            parts=tuple(PartDescriptor.independent(2) for _ in range(4)),
        )
        bg = blow_up(spec)
        for v in range(bg.graph.n):
            decompose_betweenness(bg, v)
        bg.pair_numerators
        assert bg.graph.n == 8
        assert len(calls) == 1

    # True would read as vertex 1, and 1.0 would index a tuple as a float
    @pytest.mark.parametrize("v", [True, 1.0, "1", None])
    def test_vertex_must_be_an_int(self, v):
        bg = blow_up(p3_independent_spec(2, 3))
        with pytest.raises(ValueError, match="^vertex must be an integer, not "):
            decompose_betweenness(bg, v)

    def test_pair_inside_a_non_neighbor_part_is_rejected(self):
        # path 0-1-2-3-4 with parts {0, 4}, {1, 3}, {2}: the pair 0, 4 of
        # part 0 routes through vertex 2, whose part has no edge to part 0
        g = generate("path", 5)
        bg = BlownGraph(graph=g, part_of=(0, 1, 2, 1, 0), part_vertices=((0, 4), (1, 3), (2,)))
        with pytest.raises(AssertionError, match="pair inside part 0 routed through part 2"):
            decompose_betweenness(bg, 2)
        # vertex 1 neighbors part 0, so the same pair is a neighbor share
        dec = decompose_betweenness(bg, 1)
        assert dec.neighbor_locals == {0: Fraction(1), 2: Fraction(0)}
        assert _total(dec) == betweenness_exact(g)[1]

    def test_pair_loop_runs_once_per_explicit_part(self, monkeypatch):
        # each part's pairs feed its neighbor share and its own share
        # alike, and its descriptor caches them, so they are listed once
        # per distinct descriptor, not once per base neighbor or per slot
        calls = []
        common = bugraph.blowup._common_neighbors

        def counting_common(h):
            calls.append(h)
            return common(h)

        monkeypatch.setattr(bugraph.blowup, "_common_neighbors", counting_common)
        p3 = PartDescriptor.explicit(generate("path", 3))
        spec = BlowupSpec(base=generate("path", 3), parts=(p3, p3, p3))
        list(shares_by_part(spec))
        list(shares_by_part(spec))
        assert len(calls) == 1
        p3_again = PartDescriptor.explicit(generate("path", 3))
        list(shares_by_part(BlowupSpec(base=spec.base, parts=(p3, p3_again, p3))))
        assert len(calls) == 2

    def test_equality_compares_neighbor_locals(self):
        one = Decomposition(0, Fraction(1), Fraction(0), {1: Fraction(1)})
        assert one == Decomposition(0, Fraction(1), Fraction(0), {1: Fraction(1)})
        assert one != Decomposition(0, Fraction(1), Fraction(0), {1: Fraction(5), 2: Fraction(7)})

    def test_clique_neighbor_contributes_nothing(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.independent(3), PartDescriptor.clique(4)),
        )
        assert _neighbor_share(spec, 0, 1) == 0

    def test_middle_part_share_closed_form(self):
        # path3 with independent parts a, a+b, b: the middle part hands
        # each outer vertex C(a+b,2)/(a+b) of local weight
        a, b = 2, 3
        spec = BlowupSpec(
            base=generate("path", 3),
            parts=(
                PartDescriptor.independent(a),
                PartDescriptor.independent(a + b),
                PartDescriptor.independent(b),
            ),
        )
        m = a + b
        assert _neighbor_share(spec, 0, 1) == Fraction(
            m * (m - 1) // 2, m
        )

    def test_leaf_part_vertices_have_no_global_share(self):
        spec = BlowupSpec(
            base=generate("path", 4),
            parts=(
                PartDescriptor.clique(2),
                PartDescriptor.independent(2),
                PartDescriptor.independent(2),
                PartDescriptor.clique(2),
            ),
        )
        bg = blow_up(spec)
        for v in bg.part_vertices[0]:
            assert decompose_betweenness(bg, v).global_part == 0


class TestFractionViews:
    """The acceptance suite reads the integer forms of the closed form,
    of the oracle's decomposition and of the exact engine; the public
    ``Fraction`` views must equal them at every vertex of every corpus
    blow-up."""

    def test_every_corpus_vertex(self):
        for spec in _corpus_specs():
            bg = blow_up(spec)
            d, glob, local = numerators = _spec_numerators(spec)
            den, profile = _exact_numerators(bg.graph)
            values = []
            for k, (g, nbr, own) in enumerate(shares_by_part(spec)):
                assert g == Fraction(glob[k], d)
                assert nbr == {j: Fraction(local[j][0], d) for j in spec.base.adjacency[k]}
                want = local[k][1]
                assert own == (None if want is None else tuple(Fraction(o, d) for o in want))
                # each vertex's value is the sum of its part's three shares
                value = g + sum(nbr.values())
                values += [value + o for o in own] if own else [value] * spec.parts[k].size
            sums = [x for part in _part_numerators(spec, numerators) for x in part]
            assert values == [Fraction(x, d) for x in sums]
            assert values == [Fraction(x, den) for x in profile]
            assert all(type(x) is Fraction for x in values)
            split_den, cross, inside = bg.pair_numerators
            for v in range(bg.graph.n):
                dec = decompose_betweenness(bg, v)
                d_den, d_glob, d_own, d_nbr = _decomposition_numerators(bg, v)
                assert d_den == split_den and d_glob == cross[v]
                assert sum(d_nbr.values()) + d_own == sum(inside[v].values())
                assert dec == (
                    v,
                    Fraction(d_glob, d_den),
                    Fraction(d_own, d_den),
                    {j: Fraction(x, d_den) for j, x in d_nbr.items()},
                )
                assert list(dec.neighbor_locals) == list(d_nbr)
                assert _total(dec) == Fraction(profile[v], den)


def _random_batch(rng, base: Graph, entries: int) -> list[list[list[PartDescriptor]]]:
    # even entries are I/K only, so they have no mass + c term; odd ones
    # draw from every class of their slot's size, and one of their slots
    # holds at least one explicit part
    batch = []
    for e in range(entries):
        slots = []
        forced = rng.randrange(base.n) if e % 2 else -1
        for j in range(base.n):
            s = rng.randint(3 if j == forced else 1, 5)
            pool = [PartDescriptor.for_graph(h) for h in enumerate_graphs(s)]
            if e % 2 == 0:
                pool = [p for p in pool if p.kind != "X"]
            slot = rng.sample(pool, rng.randint(1, len(pool)))
            if j == forced and all(p.kind != "X" for p in slot):
                slot.append(rng.choice([p for p in pool if p.kind == "X"]))
            slots.append(slot)
        batch.append(slots)
    return batch


class TestBatchedNumerators:
    """One ``GeodesicPlan.numerators`` call over a batch gives, entry by
    entry, what a batch of that entry alone gives."""

    @pytest.mark.parametrize(
        "base",
        [
            generate("cycle", 5),
            Graph(5, tuple((i, j) for i in range(2) for j in range(2, 5))),
            generate("path", 4),
            enumerate_trees(7)[5],
        ],
        ids=["C5", "K23", "P4", "tree7"],
    )
    def test_batch_equals_batches_of_one(self, base):
        assert is_connected(base)
        rng = random.Random(20261021)
        plan = bugraph.blowup.geodesic_plan(base)
        for size in (1, 2, 7, 30):
            batch = _random_batch(rng, base, size)
            for e, slots in enumerate(batch):
                assert any(p.kind == "X" for slot in slots for p in slot) == (e % 2 == 1)
            got = plan.numerators(batch)
            assert len(got) == size
            assert got == [plan.numerators([slots])[0] for slots in batch]
        assert plan.numerators([]) == []


class TestLeafGlobalFormula:
    def test_path4_value(self):
        spec = BlowupSpec(
            base=generate("path", 4),
            parts=(
                PartDescriptor.clique(2),
                PartDescriptor.independent(3),
                PartDescriptor.independent(2),
                PartDescriptor.clique(2),
            ),
        )
        bg = blow_up(spec)
        y = bg.part_vertices[1][0]
        want = Fraction(2 * (9 - 2 - 3), 3)
        glob, _, _ = list(shares_by_part(spec))[1]
        assert glob == want
        assert decompose_betweenness(bg, y).global_part == want

    @given(blowup_specs(max_base=6, trees=True))
    @settings(max_examples=60)
    def test_leaf_formula_on_trees(self, spec):
        # the paper's leaf formula: next to a leaf part, a part of base
        # degree <= 2 routes only pairs from the leaf to the rest
        base = spec.base
        shares = list(shares_by_part(spec))
        for leaf in range(base.n):
            if len(base.adjacency[leaf]) != 1:
                continue
            (j,) = base.adjacency[leaf]
            if len(base.adjacency[j]) > 2:
                continue
            n1, n2 = spec.parts[leaf].size, spec.parts[j].size
            want = Fraction(n1 * (spec.total_vertices - n1 - n2), n2)
            assert shares[j][0] == want


def _reference_delta(spec: BlowupSpec, leaf_part: int = 0) -> DeltaResult:
    """The extremal ratio from first principles on the built blow-up."""
    bg = blow_up(spec)
    nbrs = spec.base.adjacency[leaf_part]
    assert len(nbrs) == 1
    px, py = leaf_part, nbrs[0]
    profile = betweenness_exact(bg.graph)
    x = max(bg.part_vertices[px], key=lambda v: (profile[v], -v))
    y = min(bg.part_vertices[py], key=lambda v: (profile[v], v))
    dx = decompose_betweenness(bg, x)
    dy = decompose_betweenness(bg, y)
    numer = dx.neighbor_locals[py] - dy.own_local
    denom = dy.global_part + (dy.neighbor_locals[px] - dx.own_local)
    for j, val in dy.neighbor_locals.items():
        if j != px:
            denom += val
    if denom == 0:
        raise DeltaUndefinedError("reference denominator vanished")
    return DeltaResult(value=numer / denom, x=x, y=y)


def _assert_matches_reference(spec: BlowupSpec, leaf_part: int = 0) -> None:
    try:
        want = _reference_delta(spec, leaf_part)
    except DeltaUndefinedError:
        with pytest.raises(DeltaUndefinedError):
            delta_extremal(spec, leaf_part=leaf_part)
        return
    assert delta_extremal(spec, leaf_part=leaf_part) == want


def _lemma_specs():
    """Every spec of the extremal-part lemmas: m <= 4 on both grids."""
    base = generate("path", 4)
    for h in (h for m in range(1, 5) for h in enumerate_graphs(m)):
        cand = PartDescriptor.for_graph(h)
        for a, c, d in product((1, 2, 3), repeat=3):
            yield BlowupSpec(base=base, parts=(
                PartDescriptor.clique(a), cand,
                PartDescriptor.independent(c), PartDescriptor.clique(d),
            ))
            yield BlowupSpec(base=base, parts=(
                cand, PartDescriptor.independent(a),
                PartDescriptor.independent(c), PartDescriptor.clique(d),
            ))


def _fraction_delta(spec: BlowupSpec, shares, x: int, y: int) -> Fraction:
    """The leaf-part ratio summed from the ``Fraction`` shares of
    ``shares_by_part``, for x in part 0 and y in part 1."""
    ix, iy = x, y - spec.parts[0].size
    _, nbr_x, own_x = shares[0]
    glob_y, nbr_y, own_y = shares[1]
    own_x = own_x[ix] if own_x else 0
    own_y = own_y[iy] if own_y else 0
    numer = nbr_x[1] - own_y
    denom = glob_y + (nbr_y[0] - own_x) + sum(v for j, v in nbr_y.items() if j != 0)
    return numer / denom


class TestDelta:
    def test_equals_one_iff_profiles_match(self):
        uniform_spec = BlowupSpec(
            base=generate("path", 3),
            parts=(
                PartDescriptor.independent(1),
                PartDescriptor.independent(3),
                PartDescriptor.independent(2),
            ),
        )
        res = delta_extremal(uniform_spec)
        assert res.value == 1

    def test_path4_mixed_below_one(self):
        spec = BlowupSpec(
            base=generate("path", 4),
            parts=(
                PartDescriptor.clique(2),
                PartDescriptor.independent(2),
                PartDescriptor.independent(2),
                PartDescriptor.clique(2),
            ),
        )
        res = delta_extremal(spec)
        assert 0 < res.value < 1
        bg = blow_up(spec)
        profile = betweenness_exact(bg.graph)
        assert profile[res.x] < profile[res.y]

    def test_undefined_on_two_cliques(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.clique(2), PartDescriptor.clique(2)),
        )
        with pytest.raises(DeltaUndefinedError):
            delta_extremal(spec)

    def test_requires_leaf_context(self):
        spec = BlowupSpec(
            base=generate("cycle", 3),
            parts=tuple(PartDescriptor.independent(2) for _ in range(3)),
        )
        with pytest.raises(ValueError, match="is not a leaf part"):
            delta_extremal(spec, leaf_part=0)

    # 2.0 would index the adjacency as a float, False would read as part 0
    @pytest.mark.parametrize("leaf_part", [2.0, False, True, "0", None])
    def test_leaf_part_must_be_an_int(self, leaf_part):
        with pytest.raises(ValueError, match="^leaf part must be an integer, not "):
            delta_extremal(p3_independent_spec(2, 3), leaf_part=leaf_part)

    def test_lemma_specs_match_reference(self):
        cases = 0
        for spec in _lemma_specs():
            _assert_matches_reference(spec)
            cases += 1
        assert cases == 972

    def test_lemma_specs_match_fraction_shares(self):
        # the integer ratio against the same formula over the Fraction
        # shares, at the extremal pair
        cases = 0
        for spec in _lemma_specs():
            shares = list(shares_by_part(spec))
            res = delta_extremal(spec)
            own_x, own_y = shares[0][2], shares[1][2]
            ix = max(range(len(own_x)), key=own_x.__getitem__) if own_x else 0
            iy = min(range(len(own_y)), key=own_y.__getitem__) if own_y else 0
            y0 = spec.parts[0].size
            assert (res.x, res.y) == (ix, y0 + iy)
            assert res.value == _fraction_delta(spec, shares, res.x, res.y)
            assert type(res.value) is Fraction
            cases += 1
        assert cases == 972

    def test_undefined_message_on_edge_base(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.clique(2), PartDescriptor.independent(3)),
        )
        msg = "denominator of the x/y betweenness ratio vanished (x=0, y=2)"
        with pytest.raises(DeltaUndefinedError, match=re.escape(msg)):
            delta_extremal(spec)

    @given(blowup_specs(max_base=5, trees=True))
    @settings(max_examples=60, deadline=None)
    def test_tree_leaf_parts_match_reference(self, spec):
        for leaf in range(spec.base.n):
            if len(spec.base.adjacency[leaf]) == 1:
                _assert_matches_reference(spec, leaf)


class TestSerialization:
    @given(blowup_specs())
    @settings(max_examples=30)
    def test_spec_json_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_spec_json_shape(self):
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.independent(2), PartDescriptor.clique(3)),
        )
        obj = spec_to_json(spec)
        assert obj["base"] == "A_"
        assert obj["parts"] == [{"kind": "I", "size": 2}, {"kind": "K", "size": 3}]

    def test_explicit_part_round_trips_by_graph6(self):
        h = generate("path", 3)
        spec = BlowupSpec(
            base=generate("path", 2),
            parts=(PartDescriptor.explicit(h), PartDescriptor.independent(1)),
        )
        again = spec_from_json(spec_to_json(spec))
        assert again.parts[0].graph == h
