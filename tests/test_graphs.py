"""Core graph type, graph6 codec, structure predicates, enumeration."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bugraph
from bugraph.graphs import (
    GRAPH_ENUM_CAP,
    TREE_ENUM_CAP,
    Graph,
    Graph6Error,
    _g6_decode_n,
    automorphisms,
    bfs_distances,
    canonical_form,
    canonical_relabel,
    cut_vertices,
    diameter,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_isomorphic,
    is_two_connected,
    parse_graph6,
    serialize_graph6,
)

from conftest import connected_graphs, graphs


def _is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count == g.n - 1 and is_connected(g)


class TestGraphType:
    def test_edges_normalized(self):
        g = Graph(4, ((3, 1), (0, 2)))
        assert g.edges == ((0, 2), (1, 3))
        assert g.edge_count == 2

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="^duplicate edge in edge list$"):
            Graph(4, ((3, 1), (0, 2), (1, 3)))

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="^loop at vertex 1 not allowed$"):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            Graph(3, ((0, 3),))
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1, ())

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match="^vertex count must be an integer, not "):
            Graph(n, ())

    def test_adjacency_and_degree(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert g.adjacency[1] == (0, 2, 3)
        assert len(g.adjacency[1]) == 3
        assert g.adjacency_bits == (0b10, 0b1101, 0b10, 0b10)

    def test_distances_rows(self):
        # a path plus an isolated vertex: -1 marks unreachable pairs
        g = Graph(4, ((0, 1), (1, 2)))
        assert g.distances == ((0, 1, 2, -1), (1, 0, 1, -1), (2, 1, 0, -1), (-1, -1, -1, 0))
        assert g.distances is g.distances

    def test_relabel_reverses(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        perm = (2, 0, 3, 1)
        h = g.relabel(perm)
        back = h.relabel(tuple(perm.index(i) for i in range(4)))
        assert back == g


# hand-decoded byte-level cases pin the codec down
G6_CASES = [
    ("A_", Graph(2, ((0, 1),))),
    ("A?", Graph(2, ())),
    ("Bw", generate("complete", 3)),
    ("BW", Graph(3, ((0, 2), (1, 2)))),
    ("C~", generate("complete", 4)),
    ("D?{", Graph(5, ((0, 4), (1, 4), (2, 4), (3, 4)))),
]


class TestGraph6:
    @pytest.mark.parametrize("text,expected", G6_CASES)
    def test_known_decodings(self, text, expected):
        assert parse_graph6(text) == expected

    @pytest.mark.parametrize("text,expected", G6_CASES)
    def test_known_encodings(self, text, expected):
        assert serialize_graph6(expected) == text

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, ((0, 1),))

    def test_truncated_reports_offset(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D?")
        assert exc.value.offset is not None

    def test_trailing_bytes_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A_A_")

    def test_bad_byte_rejected(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("A" + chr(20))
        assert exc.value.offset == 1

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("", "empty graph6 string", 0),
            (">>graph6<<", "empty graph6 string", 10),
            ("~??", "truncated vertex-count field", 3),
            ("~?!?", "byte 33 outside graph6 range", 2),
            ("~~???~?!", "byte 33 outside graph6 range", 7),
            ("A\u00e9", "non-ascii byte", 1),
            (">>graph6<<A\u00e9", "non-ascii byte", 11),
        ],
    )
    def test_header_faults_name_their_offset(self, text, message, offset):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"{message} (byte offset {offset})"

    def test_eight_byte_vertex_count(self):
        # "~~" opens the 8-byte form: six 6-bit groups 0,0,0,63,0,0 give
        # n = 63 * 64^2 = 258,048.  The body such an n needs (about 33
        # billion bits) is missing, and that is found before any edge
        # is decoded or any body allocated.
        assert _g6_decode_n(b"~~???~??", 0) == (258048, 8)
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("~~???~??")
        assert exc.value.offset == 8
        assert str(exc.value) == "truncated edge data (byte offset 8)"

    def test_large_n_form(self):
        g = generate("path", 80)
        assert parse_graph6(serialize_graph6(g)) == g

    @given(graphs(min_n=1, max_n=7))
    def test_round_trip(self, g):
        assert parse_graph6(serialize_graph6(g)) == g

    def test_round_trip_empty_graph(self):
        assert parse_graph6(serialize_graph6(Graph(0))) == Graph(0)

    def test_padding_bits_ignored(self):
        # K3 has three body bits; the last group's three padding bits
        # decode as zeros whatever they hold
        assert parse_graph6("B~") == parse_graph6("Bw") == generate("complete", 3)

    @pytest.mark.parametrize("n", [62, 63, 64])
    def test_round_trip_at_header_boundary(self, n):
        # n <= 62 takes a one-byte vertex count, n >= 63 a four-byte one
        rng = random.Random(n)
        for p in (0.1, 0.5, 0.9):
            g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
            text = serialize_graph6(g)
            assert len(text) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(text) == g

    def test_parse_allocates_no_pair_table(self):
        # 179,700 vertex pairs at n = 600: a table of them alone would
        # take about 14 MB, while the 599 edges take a few kB
        text = serialize_graph6(generate("path", 600))
        tracemalloc.start()
        try:
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == generate("path", 600)
        assert peak < 2_000_000

    def test_decode_equals_validated_build(self):
        # every atlas line goes through parse_graph6's trusted build
        atlas = [g for n in range(GRAPH_ENUM_CAP + 1) for g in enumerate_graphs(n)]
        atlas += [t for n in range(1, TREE_ENUM_CAP + 1) for t in enumerate_trees(n)]
        for g in atlas:
            h = parse_graph6(serialize_graph6(g))
            v = Graph(h.n, h.edges)
            assert type(h) is Graph
            assert h == v == g and hash(h) == hash(v) and h.edges == v.edges


class TestGenerate:
    def test_path(self):
        g = generate("path", 4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = generate("cycle", 4)
        assert g.edge_count == 4
        assert all(len(g.adjacency[v]) == 2 for v in range(4))
        with pytest.raises(ValueError):
            generate("cycle", 2)

    def test_complete_and_empty(self):
        assert generate("complete", 5).edge_count == 10
        assert generate("empty", 5).edge_count == 0

    def test_star_center_is_last(self):
        g = generate("star", 3)
        assert g.n == 4
        assert len(g.adjacency[3]) == 3
        assert all(len(g.adjacency[v]) == 1 for v in range(3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("torus", 3)

    @pytest.mark.parametrize(
        "kind, n",
        [("path", 1), ("path", 5), ("cycle", 6), ("complete", 4), ("empty", 3), ("star", 4)],
    )
    def test_repeat_calls_share_one_graph(self, kind, n):
        g = generate(kind, n)
        assert generate(kind, n) is g
        fresh = generate.__wrapped__(kind, n)
        assert fresh is not g
        assert fresh == g and hash(fresh) == hash(g) and fresh.edges == g.edges

    @pytest.mark.parametrize(
        "kind, n",
        [
            ("cycle", 2),
            ("torus", 3),
            ("path", 0),
            ("star", -1),
            ("path", True),
            ("empty", 2.5),
            ("path", 3.0),
            ("star", 2.0),
        ],
    )
    def test_bad_arguments_raise_on_every_call(self, kind, n):
        for _ in range(3):
            with pytest.raises(ValueError):
                generate(kind, n)

    def test_float_size_is_not_served_from_the_cache(self):
        generate("path", 3)
        for _ in range(2):
            with pytest.raises(ValueError):
                generate("path", 3.0)


def _brute_diameter(g: Graph) -> int:
    return max(max(bfs_distances(g, v)) for v in range(g.n))


def _brute_cut_vertices(g: Graph) -> list[int]:
    # v is a cut vertex iff deleting it raises the component count
    def components(vertices, edges):
        vs = list(vertices)
        parent = {v: v for v in vs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, w in edges:
            parent[find(u)] = find(w)
        return len({find(v) for v in vs})

    base = components(range(g.n), g.edges)
    out = []
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        kept = [e for e in g.edges if v not in e]
        if rest and components(rest, kept) > base:
            out.append(v)
    return out


class TestPredicates:
    @given(connected_graphs(min_n=1, max_n=6))
    def test_diameter_matches_bfs(self, g):
        assert diameter(g) == _brute_diameter(g)

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(ValueError):
            diameter(Graph(2, ()))

    @given(graphs(min_n=1, max_n=6))
    def test_cut_vertices_match_deletion(self, g):
        assert cut_vertices(g) == _brute_cut_vertices(g)

    @given(graphs(min_n=1, max_n=6))
    def test_two_connected_definition(self, g):
        expected = g.n >= 3 and is_connected(g) and not cut_vertices(g)
        assert is_two_connected(g) == expected

    def test_tree_predicate(self):
        assert _is_tree(generate("path", 5))
        assert _is_tree(generate("star", 4))
        assert not _is_tree(generate("cycle", 4))
        assert not _is_tree(Graph(2, ()))

    def test_cut_vertices_of_path(self):
        assert cut_vertices(generate("path", 5)) == [1, 2, 3]

    # True would run from vertex 1, and 1.0 would index a list as a float
    @pytest.mark.parametrize("source", [True, 1.0, "1", None])
    def test_bfs_source_must_be_an_int(self, source):
        with pytest.raises(ValueError, match="^source must be an integer, not "):
            bfs_distances(generate("path", 3), source)


class TestCanonical:
    @given(graphs(min_n=1, max_n=6), st.randoms())
    def test_form_is_invariant_under_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(tuple(perm)))

    @given(graphs(min_n=1, max_n=6))
    def test_relabel_is_isomorphic_and_fixed(self, g):
        c = canonical_relabel(g)
        assert is_isomorphic(g, c)
        assert canonical_relabel(c) == c

    def test_distinguishes_same_degree_sequence(self):
        # C6 and two triangles share the degree sequence (all 2s)
        c6 = generate("cycle", 6)
        two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        assert not is_isomorphic(c6, two_triangles)

    def test_different_sizes_are_not_isomorphic(self):
        assert not is_isomorphic(generate("path", 4), generate("path", 5))
        assert not is_isomorphic(Graph(0, ()), Graph(1, ()))
        assert not is_isomorphic(generate("path", 4), generate("cycle", 4))
        assert not is_isomorphic(generate("empty", 3), Graph(3, ((0, 1),)))

    def test_different_edge_counts_are_rejected_before_searching(self):
        # the canonical search on the 18-cycle takes over 30 s, so the
        # edge counts must answer first
        start = time.perf_counter()
        assert not is_isomorphic(generate("cycle", 18), generate("path", 18))
        assert time.perf_counter() - start < 1.0


def _generated_group(n: int, gens) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    frontier = list(group)
    for x in frontier:
        for p in gens:
            y = tuple(p[v] for v in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(7))
    def test_group_matches_brute_force(self, n):
        # every class, the class with its vertices reversed, and a seeded
        # shuffle that interleaves components in vertex order, so the
        # search's vertex order is not always a BFS order from vertex 0
        rng = random.Random(n)
        for c in enumerate_graphs(n):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for g in (c, c.relabel(tuple(reversed(range(n)))), c.relabel(tuple(shuffled))):
                edges = set(g.edges)
                brute = {
                    p
                    for p in permutations(range(n))
                    if all(tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges)
                }
                order, gens = automorphisms(g)
                assert order == len(brute)
                assert len(gens) <= n * (n - 1) // 2
                assert _generated_group(n, gens) == brute

    def test_large_group_from_few_generators(self):
        # the symmetric group on the 8 leaves, never listed element by element
        order, gens = automorphisms(generate("star", 8))
        assert order == 40320
        assert 0 < len(gens) <= 8 * 7 // 2
        assert all(p[8] == 8 for p in gens)

    def test_cached_per_graph(self):
        g = generate("cycle", 6)
        assert automorphisms(g) is automorphisms(Graph(6, g.edges))
        assert automorphisms(g)[0] == 12


def _brute_classes(n: int) -> list[Graph]:
    pairs = list(combinations(range(n), 2))
    reps: list[Graph] = []
    for bits in product((0, 1), repeat=len(pairs)):
        g = Graph(n, tuple(p for p, b in zip(pairs, bits) if b))
        if not any(_brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def _brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    hset = set(h.edges)
    for perm in permutations(range(g.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in hset for u, v in g.edges):
            return True
    return False


def _prufer_tree(seq: tuple[int, ...]) -> Graph:
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, tuple(edges))


def _assert_canonical_and_ascending(n: int, classes: list[Graph]) -> None:
    assert all(g.n == n and canonical_relabel(g) == g for g in classes)
    forms = [canonical_form(g) for g in classes]
    assert all(a < b for a, b in zip(forms, forms[1:]))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)])
    def test_graph_counts(self, n, count):
        assert len(enumerate_graphs(n)) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47), (10, 106)])
    def test_tree_counts(self, n, count):
        assert len(enumerate_trees(n)) == count

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classes_match_brute_force(self, n):
        ours = enumerate_graphs(n)
        brute = _brute_classes(n)
        assert len(ours) == len(brute)
        for g in ours:
            assert sum(1 for r in brute if _brute_isomorphic(g, r)) == 1

    @pytest.mark.parametrize("n", [5, 6])
    def test_classes_are_relabelings_of_every_labeled_graph(self, n):
        # Every labeled graph's canonical relabeling, in canonical-form
        # order: the atlas lists each class once and misses none.
        pairs = list(combinations(range(n), 2))
        reps = {
            canonical_relabel(Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1)))
            for mask in range(1 << len(pairs))
        }
        assert enumerate_graphs(n) == sorted(reps, key=canonical_form)

    @pytest.mark.parametrize("n", range(8))
    def test_classes_closed_under_complement(self, n):
        ours = enumerate_graphs(n)
        pairs = set(combinations(range(n), 2))
        complements = {canonical_form(Graph(n, tuple(sorted(pairs - set(g.edges))))) for g in ours}
        assert complements == {canonical_form(g) for g in ours}

    @pytest.mark.parametrize("n", [4, 5])
    def test_trees_cover_prufer_space(self, n):
        ours = enumerate_trees(n)
        assert all(_is_tree(t) and t.n == n for t in ours)
        seen = set()
        for seq in product(range(n), repeat=n - 2):
            t = _prufer_tree(seq)
            assert _is_tree(t)
            seen.add(canonical_form(t))
        assert seen == {canonical_form(t) for t in ours}

    @pytest.mark.parametrize("n", range(GRAPH_ENUM_CAP + 1))
    def test_graph_classes_are_canonical_and_ascending(self, n):
        # With the counts, this proves the atlas complete and free of
        # repeats: distinct forms are distinct classes.
        _assert_canonical_and_ascending(n, enumerate_graphs(n))

    @pytest.mark.parametrize("n", range(1, TREE_ENUM_CAP + 1))
    def test_tree_classes_are_canonical_and_ascending(self, n):
        trees = enumerate_trees(n)
        assert all(map(_is_tree, trees))
        _assert_canonical_and_ascending(n, trees)

    def test_atlas_covers_exactly_the_caps(self):
        from bugraph import _atlas

        assert sorted(_atlas.GRAPHS) == list(range(GRAPH_ENUM_CAP + 1))
        assert sorted(_atlas.TREES) == list(range(1, TREE_ENUM_CAP + 1))

    def test_cli_start_does_not_load_the_atlas(self):
        # enumeration imports the atlas on first use, so a cold start
        # of a command that never enumerates does not read it
        src = str(Path(bugraph.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, bugraph, bugraph.cli; print('bugraph._atlas' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_enumeration_is_deterministic(self):
        a = [serialize_graph6(g) for g in enumerate_graphs(5)]
        b = [serialize_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            enumerate_graphs(8)
        with pytest.raises(ValueError):
            enumerate_trees(11)

    # True would read as 1 and 2.0 as 2 if the counts were not checked
    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3", None])
    def test_graph_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="^graph enumeration needs an integer n, not "):
            enumerate_graphs(n)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "3", None])
    def test_tree_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match="^tree enumeration needs an integer n, not "):
            enumerate_trees(n)
