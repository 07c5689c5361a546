"""Exact betweenness: two independent algorithms and the profile tools."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugraph.acceptance import _corpus_specs
from bugraph.betweenness import (
    _counting_bfs,
    _exact_numerators,
    _split_numerators,
    betweenness_exact,
    betweenness_oracle,
    is_betweenness_uniform,
    profile_uniformity,
)
from bugraph.blowup import PART_EXPLICIT, BlowupSpec, PartDescriptor, blow_up
from bugraph.graphs import (
    Graph,
    _twin_classes,
    bfs_distances,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_two_connected,
)

from conftest import graphs
from test_blowup import blowup_specs


class TestAgreement:
    @pytest.mark.parametrize("n", range(7))
    def test_exact_equals_oracle_on_all_classes(self, n):
        for g in enumerate_graphs(n):
            assert betweenness_exact(g) == betweenness_oracle(g)

    @given(graphs(min_n=1, max_n=7))
    @settings(max_examples=60)
    def test_exact_equals_oracle_random(self, g):
        assert betweenness_exact(g) == betweenness_oracle(g)

    @given(graphs(min_n=1, max_n=7), st.data())
    @settings(max_examples=60)
    def test_split_sums_to_oracle(self, g, data):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        cross, inside = _as_fractions(*_split_numerators(g, labels))
        for v, value in enumerate(betweenness_oracle(g)):
            assert cross[v] + sum(inside[v].values()) == value
            assert all(labels.count(p) >= 2 for p in inside[v])


def _reference_split(g: Graph, part_of) -> tuple[list[Fraction], list[dict]]:
    """``_split_numerators`` as a plain per-pair loop that adds one
    ``Fraction`` per pair and interior vertex, with geodesic counts from
    ``g.distances``."""
    n, dist, adj = g.n, g.distances, g.adjacency
    sigma = [[0] * n for _ in range(n)]
    for u in range(n):
        sigma[u][u] = 1
        for v in sorted((v for v in range(n) if dist[u][v] > 0), key=dist[u].__getitem__):
            sigma[u][v] = sum(sigma[u][w] for w in adj[v] if dist[u][w] == dist[u][v] - 1)
    cross = [Fraction(0)] * n
    by_label: dict = {}
    for u, v in combinations(range(n), 2):
        d = dist[u][v]
        if d < 2:
            continue
        vals = cross if part_of[u] != part_of[v] else by_label.setdefault(part_of[u], [0] * n)
        for x in range(n):
            if x not in (u, v) and -1 not in (dist[u][x], dist[x][v]):
                if dist[u][x] + dist[x][v] == d:
                    vals[x] += Fraction(sigma[u][x] * sigma[x][v], sigma[u][v])
    inside = [{p: share[x] for p, share in by_label.items() if share[x]} for x in range(n)]
    return cross, inside


def _typed(split):
    # values with their types, and each inside dict's keys in order
    cross, inside = split
    return (
        [(type(v), v) for v in cross],
        [[(p, type(v), v) for p, v in shares.items()] for shares in inside],
    )


def _as_fractions(den: int, cross, inside) -> tuple[list[Fraction], list[dict]]:
    # a _split_numerators result as Fraction shares, keys in its order
    return (
        [Fraction(x, den) for x in cross],
        [{p: Fraction(x, den) for p, x in shares.items()} for shares in inside],
    )


def _split(g: Graph, part_of):
    # the oracle's split as typed Fraction shares
    return _typed(_as_fractions(*_split_numerators(g, part_of)))


class TestOracleReference:
    """``_split_numerators`` sums integers per geodesic count and scales
    them to one denominator at the end; a plain ``Fraction`` loop must
    give the same shares, in the same key order."""

    def test_all_small_classes(self):
        rng = random.Random(20261018)
        for g in (g for n in range(7) for g in enumerate_graphs(n)):
            for labels in (range(g.n), [rng.randrange(3) for _ in range(g.n)]):
                assert _split(g, labels) == _typed(_reference_split(g, labels))
            assert betweenness_oracle(g) == _reference_split(g, range(g.n))[0]

    def test_disconnected_graphs(self):
        rng = random.Random(1018)
        seen = 0
        for _ in range(40):
            n = rng.randint(4, 10)
            edges = tuple(p for p in combinations(range(n), 2) if rng.random() < 0.25)
            g = Graph(n, edges)
            seen += not is_connected(g)
            labels = [rng.randrange(4) for _ in range(n)]
            assert _split(g, labels) == _typed(_reference_split(g, labels))
        assert seen >= 20

    @pytest.mark.parametrize("n", [12, 13, 16, 20])
    def test_long_geodesics(self, n):
        # paths and cycles: pairs up to n - 1 apart, with many vertices
        # nearer to one end than the other
        rng = random.Random(n)
        for g in (generate("path", n), generate("cycle", n)):
            for labels in (range(n), [rng.randrange(3) for _ in range(n)]):
                assert _split(g, labels) == _typed(_reference_split(g, labels))

    def test_isolated_vertices(self):
        # unreachable pairs count nothing, and an isolated vertex lies on
        # no geodesic
        rng = random.Random(1020)
        for base in (generate("path", 5), generate("cycle", 6), generate("star", 3)):
            for isolated in (1, 3):
                g = _disjoint_union(base, generate("empty", isolated))
                h = _disjoint_union(generate("empty", isolated), base)
                for graph in (g, h):
                    for labels in (range(graph.n), [rng.randrange(2) for _ in range(graph.n)]):
                        want = _typed(_reference_split(graph, labels))
                        assert _split(graph, labels) == want

    def test_corpus_blowups_by_part(self):
        for spec in _corpus_specs():
            bg = blow_up(spec)
            want = _typed(_reference_split(bg.graph, bg.part_of))
            assert _typed(_as_fractions(*bg.pair_numerators)) == want


class TestIntegerCores:
    """The public engines are ``Fraction`` views of integer cores that
    the acceptance suite reads directly: each must equal its core's
    numerators over its denominator, on every graph class with <= 7
    vertices and on every corpus blow-up.  The oracle's split by part
    must also sum to its values there."""

    @staticmethod
    def _cases():
        yield from ((g, range(g.n)) for n in range(8) for g in enumerate_graphs(n))
        yield from ((bg.graph, bg.part_of) for bg in map(blow_up, _corpus_specs()))

    def test_exact_engine(self):
        for g, _ in self._cases():
            den, nums = _exact_numerators(g)
            assert len(nums) == g.n
            assert betweenness_exact(g) == [Fraction(x, den) for x in nums]

    def test_oracle(self):
        for g, labels in self._cases():
            den, cross, _ = _split_numerators(g, range(g.n))
            want = [Fraction(x, den) for x in cross]
            assert betweenness_oracle(g) == want
            den, cross, inside = _split_numerators(g, labels)
            assert [Fraction(c + sum(i.values()), den) for c, i in zip(cross, inside)] == want


def _disjoint_union(*parts: Graph) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges.extend((offset + u, offset + v) for u, v in g.edges)
        offset += g.n
    return Graph(offset, tuple(edges))


def _grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph(rows * cols, tuple(edges))


class TestIntegerEngine:
    """betweenness_exact runs one source per twin class, scales each
    source by an lcm of path counts weighted by class sizes, and keeps
    one running denominator; these inputs make that denominator grow
    and change from source to source, and give classes of many sizes."""

    def test_path_blowup_with_prime_parts(self):
        # geodesic counts are products of distinct primes
        spec = BlowupSpec(
            base=generate("path", 7),
            parts=tuple(PartDescriptor.independent(p) for p in (2, 3, 5, 7, 11, 13, 17)),
        )
        g = blow_up(spec).graph
        assert betweenness_exact(g) == betweenness_oracle(g)

    def test_cycle_blowup_alternating_parts(self):
        spec = BlowupSpec(
            base=generate("cycle", 6),
            parts=tuple(
                PartDescriptor.independent(12) if i % 2 else PartDescriptor.clique(12)
                for i in range(6)
            ),
        )
        g = blow_up(spec).graph
        assert betweenness_exact(g) == betweenness_oracle(g)

    def test_disconnected_components_with_different_counts(self, petersen):
        g = _disjoint_union(
            _grid(3, 4),
            generate("cycle", 6),
            petersen,
            generate("path", 4),
            Graph(1),
            generate("star", 3),
        )
        assert betweenness_exact(g) == betweenness_oracle(g)

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs(self, n):
        assert betweenness_exact(Graph(n)) == betweenness_oracle(Graph(n)) == [0] * n

    @given(blowup_specs())
    @settings(max_examples=40, deadline=None)
    def test_blowups_match_oracle(self, spec):
        g = blow_up(spec).graph
        assert betweenness_exact(g) == betweenness_oracle(g)


class TestTwinClasses:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (generate("complete", 5), [[0, 1, 2, 3, 4]]),  # one clique class
            (Graph(4), [[0, 1, 2, 3]]),  # one independent class
            (generate("cycle", 4), [[0, 2], [1, 3]]),
            (generate("path", 4), [[0], [1], [2], [3]]),
            (generate("star", 4), [[0, 1, 2, 3], [4]]),  # leaves, then the centre
            (Graph(5, tuple((u, v) for u in (0, 1) for v in (2, 3, 4))), [[0, 1], [2, 3, 4]]),
            (Graph(6, ((0, 1), (1, 2))), [[0, 2], [1], [3, 4, 5]]),  # isolated vertices
            (Graph(5, ((0, 1), (1, 2), (1, 3), (2, 3))), [[0], [1], [2, 3], [4]]),
        ],
        ids=["K5", "empty", "C4", "P4", "star", "K23", "isolated", "paw"],
    )
    def test_partition(self, g, expected):
        assert _twin_classes(g) == expected

    def test_star_blowup_leaf_parts_merge(self):
        # I parts on the leaves share one open neighbourhood, the centre part
        spec = BlowupSpec(
            base=generate("star", 3),
            parts=(
                PartDescriptor.independent(2),
                PartDescriptor.independent(3),
                PartDescriptor.independent(1),
                PartDescriptor.clique(2),
            ),
        )
        assert _twin_classes(blow_up(spec).graph) == [[0, 1, 2, 3, 4, 5], [6, 7]]


_EXPLICIT_PARTS = [g for n in (2, 3, 4) for g in enumerate_graphs(n)]


def _random_blowup(rng: random.Random) -> tuple[Graph, int]:
    """A seeded I/K/explicit blow-up of a connected base with at most 5
    vertices and parts of at most 8, relabelled by a seeded permutation
    so that no part is contiguous; with it, the number of parts plus
    explicit-part vertices, which bounds its twin-class count."""
    n = rng.randint(2, 5)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    parts, bound = [], 0
    for _ in range(n):
        r = rng.random()
        if r < 0.4:
            parts.append(PartDescriptor.independent(rng.randint(1, 8)))
        elif r < 0.8:
            parts.append(PartDescriptor.clique(rng.randint(1, 8)))
        else:
            parts.append(PartDescriptor.for_graph(rng.choice(_EXPLICIT_PARTS)))
        bound += parts[-1].size if parts[-1].kind == PART_EXPLICIT else 1
    g = blow_up(BlowupSpec(base=Graph(n, tuple(edges)), parts=tuple(parts))).graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm), bound


def _twin_class_kinds(g: Graph) -> set[str]:
    kinds = set()
    for members in _twin_classes(g):
        if len(members) > 1 and g.adjacency[members[0]]:
            kinds.add("K" if members[1] in g.adjacency[members[0]] else "I")
    return kinds


class TestTwinQuotient:
    """The engine runs on the twin quotient: one source per class, class
    sizes as multiplicities.  Each check also bounds the class count, so
    a quotient that fails to merge twins shows even though it would
    still give right values."""

    def test_shuffled_blowups_match_oracle(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(60):
            g, bound = _random_blowup(rng)
            assert len(_twin_classes(g)) <= bound
            assert betweenness_exact(g) == betweenness_oracle(g)
            kinds |= _twin_class_kinds(g)
        assert kinds == {"I", "K"}  # both class kinds occur, with neighbours

    def test_unions_with_isolated_vertices_match_oracle(self):
        rng = random.Random(1018)
        kinds = set()
        for _ in range(20):
            pieces = [_random_blowup(rng) for _ in range(rng.randint(1, 3))]
            isolated = rng.randint(0, 3)
            g = _disjoint_union(*(p for p, _ in pieces), Graph(isolated))
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = g.relabel(perm)
            assert len(_twin_classes(g)) <= sum(b for _, b in pieces) + min(isolated, 1)
            assert betweenness_exact(g) == betweenness_oracle(g)
            kinds |= _twin_class_kinds(g)
        assert kinds == {"I", "K"}


class TestKnownValues:
    def test_four_cycle(self):
        assert betweenness_exact(generate("cycle", 4)) == [Fraction(1, 2)] * 4

    def test_four_path(self):
        assert betweenness_exact(generate("path", 4)) == [0, 2, 2, 0]

    def test_petersen_uniform_at_three(self, petersen):
        verdict = is_betweenness_uniform(petersen)
        assert verdict.uniform
        assert verdict.common == 3

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles_uniform(self, n):
        assert is_betweenness_uniform(generate("cycle", n)).uniform

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cliques_uniform_at_zero(self, n):
        verdict = is_betweenness_uniform(generate("complete", n))
        assert verdict.uniform and verdict.common == 0

    def test_star_center_dominates(self):
        g = generate("star", 4)
        prof = betweenness_exact(g)
        assert prof[4] == 6  # center covers all leaf pairs
        assert prof[:4] == [0, 0, 0, 0]


class TestProfileStructure:
    @given(graphs(min_n=1, max_n=7))
    @settings(max_examples=60)
    def test_total_weight_counts_interior_vertices(self, g):
        # each reachable pair spreads exactly d(u,v)-1 units of weight
        total = sum(betweenness_exact(g), Fraction(0))
        expected = 0
        for u in range(g.n):
            du = bfs_distances(g, u)
            expected += sum(d - 1 for v, d in enumerate(du) if v > u and d > 0)
        assert total == expected

    def test_tree_leaves_zero_internals_positive(self):
        for tree in enumerate_trees(6):
            prof = betweenness_exact(tree)
            for v in range(tree.n):
                if len(tree.adjacency[v]) == 1:
                    assert prof[v] == 0
                else:
                    assert prof[v] > 0

    def test_uniform_connected_implies_two_connected(self):
        for n in range(3, 8):
            for g in enumerate_graphs(n):
                if is_connected(g) and is_betweenness_uniform(g).uniform:
                    assert is_two_connected(g)

    def test_counting_bfs_symmetry(self, petersen):
        rows = [_counting_bfs(petersen.adjacency, 10, s) for s in range(10)]
        dist = [row[0] for row in rows]
        sigma = [row[1] for row in rows]
        for u in range(10):
            for v in range(10):
                assert dist[u][v] == dist[v][u]
                assert sigma[u][v] == sigma[v][u]
        assert all(sigma[u][u] == 1 for u in range(10))


class TestUniformity:
    def test_empty_profile(self):
        assert profile_uniformity([]) == (True, None)

    def test_single_vertex(self):
        verdict = is_betweenness_uniform(Graph(1))
        assert verdict.uniform and verdict.common == 0

    def test_disconnected_zero_profile(self):
        assert is_betweenness_uniform(Graph(3, ())).uniform


class TestSerialization:
    """JSON output writes each rational with ``str``: "p/q" in lowest
    terms, or "p" for an integer, and ``Fraction`` reads it back."""

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(3), Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_round_trip(self, x):
        assert Fraction(str(x)) == x
