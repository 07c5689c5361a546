"""Simple undirected graphs with dense integer vertices.

Everything downstream builds on this module: ``Graph``, an immutable
named tuple ``(n, edges)``, graph6 I/O, the classic generator
families, structural predicates (connectivity, diameter,
2-connectedness), exact isomorphism testing via canonical forms, and
the isomorphism classes of small graphs and trees, read from a stored
atlas of graph6 lines (``_atlas``).

Vertices are always 0..n-1.  Edges are stored as sorted ``(u, v)``
pairs with ``u < v``; parallel edges and loops are rejected outright.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property, lru_cache
from itertools import combinations
from operator import eq

__all__ = [
    "GRAPH_ENUM_CAP",
    "TREE_ENUM_CAP",
    "Graph",
    "Graph6Error",
    "automorphisms",
    "bfs_distances",
    "canonical_form",
    "canonical_relabel",
    "cut_vertices",
    "diameter",
    "enumerate_graphs",
    "enumerate_trees",
    "generate",
    "is_connected",
    "is_isomorphic",
    "is_two_connected",
    "orbit",
    "parse_graph6",
    "serialize_graph6",
]

# Hard caps for whole-isomorphism-class enumeration: the sizes the stored
# atlas covers.  Class counts grow fast enough past them that anything
# larger deserves specialist tooling.
GRAPH_ENUM_CAP = 7
TREE_ENUM_CAP = 10

_G6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph(namedtuple("Graph", "n edges")):
    """Immutable simple undirected graph on vertices ``0..n-1``.

    The constructor normalizes edge tuples (sorted endpoints, sorted
    edge list) so structurally equal graphs compare and hash equal.
    Like every record of this package, a graph is a named tuple; it
    keeps an instance ``__dict__`` for its cached properties.  Code in
    this package that already holds a valid sorted edge tuple builds
    through ``Graph._make((n, edges))``, which skips the check.
    """

    def __new__(cls, n: int, edges: tuple[tuple[int, int], ...] = ()):
        # type(), not isinstance(): True must not pass for 1
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, not {n!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for e in edges:
            u, v = e
            if u > v:
                u, v = v, u
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if u < 0 or v >= n:
                raise ValueError(f"edge {e!r} out of range for n={n}")
            norm.append((u, v))
        norm.sort()
        # sorted, a duplicate sits next to its twin; map keeps the scan in C
        if any(map(eq, norm, norm[1:])):
            raise ValueError("duplicate edge in edge list")
        return super().__new__(cls, n, tuple(norm))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, tuple((int(u), int(v)) for u, v in edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        # edges are sorted pairs u < v, so each row fills in ascending order
        return tuple(map(tuple, nbrs))

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        # Row bitmasks; bit v of row u is set iff uv is an edge.
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        # All-pairs distances; row s is bfs_distances(self, s).
        return tuple(tuple(bfs_distances(self, s)) for s in range(self.n))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def relabel(self, new_of_old) -> "Graph":
        """Return the graph with vertex ``v`` renamed ``new_of_old[v]``."""
        if sorted(new_of_old) != list(range(self.n)):
            raise ValueError("relabeling is not a permutation")
        return Graph(self.n, tuple((new_of_old[u], new_of_old[v]) for u, v in self.edges))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges)!r})"


# ---------------------------------------------------------------------------
# traversal and structural predicates


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from ``source``; unreachable vertices get -1."""
    if type(source) is not int:
        raise ValueError(f"source must be an integer, not {source!r}")
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    adj = g.adjacency
    while q:
        v = q.popleft()
        dv = dist[v]
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dv + 1
                q.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return -1 not in bfs_distances(g, 0)


def diameter(g: Graph) -> int:
    """Largest pairwise distance.  Disconnected input is an error."""
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    dist = g.distances
    if -1 in dist[0]:
        raise ValueError("diameter undefined for disconnected graph")
    return max(map(max, dist))


def cut_vertices(g: Graph) -> list[int]:
    """Articulation points, via iterative DFS lowpoints."""
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                p = parent[v]
                if p != -1:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if p != root and low[v] >= disc[p]:
                        is_cut[p] = True
        if root_children >= 2:
            is_cut[root] = True
    return [v for v in range(n) if is_cut[v]]


def is_two_connected(g: Graph) -> bool:
    """Connected, at least three vertices, and no articulation point."""
    return g.n >= 3 and is_connected(g) and not cut_vertices(g)


# ---------------------------------------------------------------------------
# generators


# typed: a float or bool size must not be served a graph cached for an int
@lru_cache(maxsize=128, typed=True)
def generate(kind: str, n: int) -> Graph:
    """Build one of the classic families.

    kind: ``path`` | ``cycle`` | ``complete`` | ``empty`` | ``star``.
    For ``star`` the parameter is the number of leaves k; the result has
    k+1 vertices with the center last (index k).  Graphs are immutable,
    so repeat calls share one graph and its cached distances.
    """
    # type(), not isinstance(): True must not pass for 1, nor 3.0 for 3
    if type(n) is not int:
        raise ValueError(f"{kind} generator needs an integer size, not {n!r}")
    if n < 1:
        raise ValueError(f"{kind} generator needs n >= 1")
    if kind == "path":
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    if kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))
    if kind == "complete":
        return Graph(n, tuple(combinations(range(n), 2)))
    if kind == "empty":
        return Graph(n, ())
    if kind == "star":
        return Graph(n + 1, tuple((i, n) for i in range(n)))
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# graph6 codec
#
# Standard layout: optional ">>graph6<<" header, then N(n), then the upper
# triangle of the adjacency matrix in column order (x01, x02, x12, x03, ...)
# packed into 6-bit groups, each stored as byte value group+63.  Bit
# j(j-1)/2 + i of that body is x_ij (i < j), the first bit of a group being
# its high bit; the zero padding of the last group is not read back.


# the graph6 byte of each 6-bit group, keyed by the group's ASCII digits
_G6_BYTE = {format(group, "06b").encode(): group + 63 for group in range(64)}


def _g6_decode_n(data: bytes, base: int) -> tuple[int, int]:
    """Return (n, bytes consumed).  ``base`` is the absolute offset of data[0]."""
    if not data:
        raise Graph6Error("empty graph6 string", base)
    b0 = data[0]
    if b0 < 63 or b0 > 126:
        raise Graph6Error(f"byte {b0} outside graph6 range", base)
    if b0 != 126:
        return b0 - 63, 1
    if len(data) >= 2 and data[1] == 126:
        need, start = 8, 2
    else:
        need, start = 4, 1
    if len(data) < need:
        raise Graph6Error("truncated vertex-count field", base + len(data))
    n = 0
    for k in range(start, need):
        b = data[k]
        if b < 63 or b > 126:
            raise Graph6Error(f"byte {b} outside graph6 range", base + k)
        n = (n << 6) | (b - 63)
    return n, need


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.  Errors carry the offending byte offset."""
    s = text.rstrip("\r\n \t")
    base = 0
    if s.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        s = s[base:]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as e:
        raise Graph6Error("non-ascii byte", base + e.start) from None
    n, consumed = _g6_decode_n(data, base)
    body = data[consumed:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error("truncated edge data", base + len(data))
    if len(body) > nbytes:
        raise Graph6Error("trailing data after edge bits", base + consumed + nbytes)
    edges = []
    i, j = 0, 1  # the pair of the next bit, in x01, x02, x12, x03, ... order
    for bi, b in enumerate(body):
        if b < 63 or b > 126:
            raise Graph6Error(f"byte {b} outside graph6 range", base + consumed + bi)
        group = b - 63
        for shift in range(5, -1, -1):
            if j >= n:
                break
            if (group >> shift) & 1:
                edges.append((i, j))
            i += 1
            if i == j:
                i = 0
                j += 1
    # the decoded pairs are valid and distinct, in column order
    edges.sort()
    return Graph._make((n, tuple(edges)))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError("graph too large for graph6")
    # one ASCII digit per body bit, zero-padded to whole 6-bit groups
    groups = -(-(n * (n - 1) // 2) // 6)
    bits = bytearray(b"0" * (6 * groups))
    for i, j in g.edges:  # i < j
        bits[j * (j - 1) // 2 + i] = 49  # "1"
    body = bytes(bits)
    out = head + [_G6_BYTE[body[k : k + 6]] for k in range(0, len(body), 6)]
    return bytes(out).decode("ascii")


# ---------------------------------------------------------------------------
# canonical forms and isomorphism
#
# Canonical form = lexicographically smallest adjacency bit string over all
# vertex orders that respect the refined color classes.  Color refinement is
# the usual iterated (color, sorted neighbor colors) splitting; at each slot
# the search tries one candidate per twin class (``_twin_classes``): by the
# lemma there, two vertices share a class exactly when they are open or
# closed twins, and swapping twins is an automorphism, so the skipped
# branches repeat a tried one.  That keeps highly symmetric graphs (stars,
# cliques, independent sets, blow-up parts) from exploding the branch count.


def _twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes of ``g``, each an ascending vertex list, in
    order of least member.

    Vertices with one open neighbourhood form an independent class.
    The vertices left alone there are grouped by closed neighbourhood
    into clique classes.  A vertex v with a false twin u has no true
    twin w: w would lie in N(v) = N(u), so u would lie in N[w] = N[v].
    The exact betweenness engine runs on the quotient by these classes.
    """
    adj = g.adjacency
    by_open: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(adj):
        by_open.setdefault(nbrs, []).append(v)
    classes = []
    by_closed: dict[tuple[int, ...], list[int]] = {}
    for members in by_open.values():
        if len(members) > 1:
            classes.append(members)
        else:
            v = members[0]
            by_closed.setdefault(tuple(sorted(adj[v] + (v,))), []).append(v)
    classes += by_closed.values()
    classes.sort()
    return classes


def _color_classes(g: Graph) -> list[int]:
    nbrs = g.adjacency
    colors = [len(a) for a in nbrs]
    nclasses = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted([colors[u] for u in a]))) for v, a in enumerate(nbrs)]
        uniq = sorted(set(keys))
        rank = {key: i for i, key in enumerate(uniq)}
        colors = [rank[key] for key in keys]
        if len(uniq) == nclasses:
            return colors
        nclasses = len(uniq)


def _canonical_search(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (perm, form) for g: perm[slot] = original vertex, form =
    bit groups.

    ``form[k]`` packs the adjacency of slot k against slots 0..k-1, most
    significant bit first, so comparing tuples compares bit strings.
    """
    n = g.n
    if n == 0:
        return (), ()
    bits = g.adjacency_bits
    colors = _color_classes(g)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    slot_color: list[int] = []
    for c in sorted(members):
        slot_color.extend([c] * len(members[c]))
    twin = [0] * n
    for i, cls in enumerate(_twin_classes(g)):
        for v in cls:
            twin[v] = i

    best: list[int | None] = [None] * n
    best_perm: list[tuple[int, ...]] = [()]
    used = bytearray(n)
    assigned: list[int] = []

    def rec(k: int) -> None:
        if k == n:
            best_perm[0] = tuple(assigned)
            return
        tried: set[int] = set()
        for v in members[slot_color[k]]:
            if used[v] or twin[v] in tried:
                continue
            tried.add(twin[v])
            bv = bits[v]
            w = 0
            for a in assigned:
                w = (w << 1) | ((bv >> a) & 1)
            bk = best[k]
            if bk is not None and w > bk:
                continue
            if bk is None or w < bk:
                best[k] = w
                for t in range(k + 1, n):
                    best[t] = None
            used[v] = 1
            assigned.append(v)
            rec(k + 1)
            assigned.pop()
            used[v] = 0

    rec(0)
    return best_perm[0], tuple(best)  # type: ignore[arg-type]


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Label-invariant encoding: equal forms iff isomorphic graphs."""
    _, form = _canonical_search(g)
    return (g.n,) + form


def canonical_relabel(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    perm, _ = _canonical_search(g)
    new_of_old = [0] * g.n
    for slot, old in enumerate(perm):
        new_of_old[old] = slot
    return g.relabel(new_of_old)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test; intended for the small graphs used here."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# automorphism groups
#
# A stabilizer chain over the vertices in the order b_0, b_1, ... that sorts
# them by component (its least vertex r) and then by distance from r: level
# k holds one automorphism that fixes b_0..b_{k-1} and maps b_k to v, for
# each v that the automorphisms already found (all of which fix
# b_0..b_{k-1}) do not map b_k to.  Levels run from the last vertex back, so
# at every level the generators found so far generate the whole pointwise
# stabilizer below it, and |Aut| is the product over levels of the orbit
# size of b_k.  Each automorphism comes from a backtracking search that
# keeps refined colors and adjacency to the vertices already mapped; in
# this order every vertex but a component's first comes after one of its
# neighbours, so its image must neighbor the image of an earlier vertex.


def _extend_automorphism(bits, colors, order, k: int, t: int) -> tuple[int, ...] | None:
    """An automorphism that fixes order[:k] and maps order[k] to t, as a
    tuple p with p[v] the image of v, or None if there is none."""
    n = len(order)
    perm = list(range(n))
    fixed = sum(1 << v for v in order[:k])

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in (t,) if i == k else range(n):
            if used >> w & 1 or colors[w] != colors[v] or bits[v] & fixed != bits[w] & fixed:
                continue
            if any((bits[v] >> u & 1) != (bits[w] >> perm[u] & 1) for u in order[k:i]):
                continue
            perm[v] = w
            if rec(i + 1, used | 1 << w):
                return True
        return False

    return tuple(perm) if rec(k, fixed) else None


def orbit(x, moves) -> list:
    """x first, then every other image of x under the group that the
    functions ``moves`` generate, each image once."""
    out = [x]
    seen = {x}
    for y in out:
        for move in moves:
            z = move(y)
            if z not in seen:
                seen.add(z)
                out.append(z)
    return out


@lru_cache(maxsize=128)
def automorphisms(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(order, generators)`` of the automorphism group of g.

    Each generator is a tuple p with p[v] the image of vertex v.  There
    are at most n(n-1)/2 of them, and the work does not grow with the
    group's order.
    """
    bits = g.adjacency_bits
    colors = _color_classes(g)
    dist = g.distances
    # the least u that v reaches is its component's least vertex, d their distance
    order = sorted(range(g.n), key=lambda v: min((u, d) for u, d in enumerate(dist[v]) if d >= 0))
    gens: list[tuple[int, ...]] = []
    size = 1
    for k in reversed(range(g.n)):
        b = order[k]
        reach = set(orbit(b, [p.__getitem__ for p in gens]))
        for t in order[k + 1 :]:
            if t in reach or colors[t] != colors[b]:
                continue
            perm = _extend_automorphism(bits, colors, order, k, t)
            if perm is not None:
                gens.append(perm)
                reach = set(orbit(b, [p.__getitem__ for p in gens]))
        size *= len(reach)
    return size, tuple(gens)


# ---------------------------------------------------------------------------
# enumeration up to isomorphism
#
# The classes are read from the stored atlas (``_atlas``), one n at a time.
# It is imported inside the functions, so that commands which never
# enumerate do not load it.


@lru_cache(maxsize=None)
def _parse_classes(lines: str) -> tuple[Graph, ...]:
    return tuple(map(parse_graph6, lines.split()))


def enumerate_graphs(n: int) -> list[Graph]:
    """All isomorphism classes of simple graphs on n vertices.

    Deterministic canonical-form order.  Capped at GRAPH_ENUM_CAP.
    """
    if type(n) is not int:
        raise ValueError(f"graph enumeration needs an integer n, not {n!r}")
    if not (0 <= n <= GRAPH_ENUM_CAP):
        raise ValueError(f"graph enumeration supports 0 <= n <= {GRAPH_ENUM_CAP}, got {n}")
    from ._atlas import GRAPHS

    return list(_parse_classes(GRAPHS[n]))


def enumerate_trees(n: int) -> list[Graph]:
    """All isomorphism classes of trees on n vertices (cap TREE_ENUM_CAP)."""
    if type(n) is not int:
        raise ValueError(f"tree enumeration needs an integer n, not {n!r}")
    if not (1 <= n <= TREE_ENUM_CAP):
        raise ValueError(f"tree enumeration supports 1 <= n <= {TREE_ENUM_CAP}, got {n}")
    from ._atlas import TREES

    return list(_parse_classes(TREES[n]))
