"""Graph blow-ups and the exact decomposition of their betweenness.

A blow-up replaces each vertex i of a connected base graph by a part
graph H_i and joins every vertex of H_i to every vertex of H_j exactly
when ij is a base edge.  Distances between parts equal base distances,
two vertices inside one part are at distance at most two, and a
geodesic never visits a part twice.  Those facts make the betweenness
of a blown-up vertex split cleanly into

* a global share: pairs whose endpoints lie in two different parts,
* an own-part share: pairs inside the vertex's own part, and
* one share per base-neighbor part: pairs inside that part.

The closed form is the one production route, and it evaluates all
three shares from the base graph and the parts alone, without
building the blow-up.  Its size-independent half is a
``GeodesicPlan``, built once per base graph: BFS orders with
predecessor lists, and for each base vertex the pairs whose geodesics
pass through it.  ``GeodesicPlan.numerators`` takes a batch of
entries, each giving candidate parts of one size per base vertex, and
returns for each entry one common denominator d and the integer
numerators over d of every part's global share and of each
candidate's shares inside parts.  It runs the size-dependent half
column by column, one list per quantity over the whole batch, so the
interpreter's overhead per operation is paid once per batch.  The
search screen compares these integers directly, one batch per chunk
of size tuples.  The leaf-part ratio of ``delta_extremal`` is one
``Fraction`` of two sums of them, as d cancels; it passes one entry
with one candidate per vertex, while ``search.lemma_grid`` passes one
entry per context, with every graph class in one slot, and reads each
class's ratio from the same call.  ``shares_by_part`` is the
``Fraction`` view of the one-candidate entry (``_spec_numerators``),
and ``bugraph decompose`` prints one part's entry;
``_part_numerators`` sums its shares per vertex, in integers.
``_specs_numerators`` batches many specs, one call per base, for the
acceptance corpus.
``blow_up`` writes each edge of the built graph once and valid, so it
sorts them and skips ``Graph``'s validation.
``decompose_betweenness`` is only the reference: it reads the same
split off the built graph (``blow_up``) from the per-pair counting
pass behind ``betweenness_oracle``, with each vertex labelled by its
part, so the two routes can be compared exactly.  Its integer form,
``_decomposition_numerators``, and the two integer forms above are
what the acceptance suite compares, by cross-multiplication.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import add, floordiv, mul

from .betweenness import _split_numerators
from .graphs import Graph, parse_graph6, serialize_graph6

__all__ = [
    "BlownGraph",
    "BlowupSpec",
    "Decomposition",
    "DeltaResult",
    "DeltaUndefinedError",
    "GeodesicPlan",
    "PartDescriptor",
    "blow_up",
    "decompose_betweenness",
    "delta_extremal",
    "geodesic_plan",
    "shares_by_part",
    "spec_from_json",
    "spec_to_json",
]

PART_INDEPENDENT = "I"
PART_CLIQUE = "K"
PART_EXPLICIT = "X"


class PartDescriptor(namedtuple("PartDescriptor", "kind size graph")):
    """One part of a blow-up: an independent set, a clique, or any graph.

    An explicit part takes its size from its graph.
    """

    def __new__(cls, kind: str, size: int = 0, graph: Graph | None = None):
        if kind in (PART_INDEPENDENT, PART_CLIQUE):
            if graph is not None:
                raise ValueError("I/K parts are given by size, not by graph")
            # type(), not isinstance(): True must not read as 1
            if type(size) is not int:
                raise ValueError(f"part size must be an integer, not {size!r}")
            if size < 1:
                raise ValueError("part needs at least one vertex")
        elif kind == PART_EXPLICIT:
            if graph is None:
                raise ValueError("explicit part needs a graph")
            if graph.n < 1:
                raise ValueError("part needs at least one vertex")
            size = graph.n
        else:
            raise ValueError(f"unknown part kind {kind!r}")
        return super().__new__(cls, kind, size, graph)

    @classmethod
    def independent(cls, m: int) -> "PartDescriptor":
        return cls(PART_INDEPENDENT, m)

    @classmethod
    def clique(cls, m: int) -> "PartDescriptor":
        return cls(PART_CLIQUE, m)

    @classmethod
    def explicit(cls, g: Graph) -> "PartDescriptor":
        return cls(PART_EXPLICIT, graph=g)

    @classmethod
    def for_graph(cls, g: Graph) -> "PartDescriptor":
        """Descriptor for any graph, recognizing I/K parts by edge count."""
        if g.edge_count == 0:
            return cls.independent(g.n)
        if g.edge_count == g.n * (g.n - 1) // 2:
            return cls.clique(g.n)
        return cls.explicit(g)

    def label(self) -> str:
        if self.kind == PART_EXPLICIT:
            return f"X({serialize_graph6(self.graph)})"
        return f"{self.kind}{self.size}"

    @cached_property
    def _nonedges(self) -> tuple[tuple[int, int], ...]:
        """``_common_neighbors`` of an explicit part's graph; none for I and K."""
        return tuple(_common_neighbors(self.graph)) if self.kind == PART_EXPLICIT else ()


class BlowupSpec(namedtuple("BlowupSpec", "base parts")):
    """A base graph plus one part descriptor per base vertex."""

    __slots__ = ()

    def __new__(cls, base: Graph, parts: tuple[PartDescriptor, ...]):
        if base.n < 2:
            raise ValueError("blow-up base needs at least two vertices")
        if -1 in base.distances[0]:
            raise ValueError("blow-up base must be connected")
        if len(parts) != base.n:
            raise ValueError(f"need one part per base vertex: {base.n} != {len(parts)}")
        return super().__new__(cls, base, tuple(parts))

    @property
    def total_vertices(self) -> int:
        return sum(p.size for p in self.parts)

    @property
    def edge_count(self) -> int:
        """Edges of the blow-up, counted without building it."""
        edges = sum(self.parts[i].size * self.parts[j].size for i, j in self.base.edges)
        for p in self.parts:
            if p.kind == PART_CLIQUE:
                edges += p.size * (p.size - 1) // 2
            elif p.kind == PART_EXPLICIT:
                edges += p.graph.edge_count
        return edges

    def label(self) -> str:
        inner = ",".join(p.label() for p in self.parts)
        return f"{serialize_graph6(self.base)}[{inner}]"


class BlownGraph(namedtuple("BlownGraph", "graph part_of part_vertices")):
    """The blown-up graph with its part provenance.

    Vertices are numbered contiguously part by part, in base-vertex
    order: vertex v lies in part ``part_of[v]``, and part i occupies
    ``part_vertices[i]``.
    """

    @cached_property
    def pair_numerators(self) -> tuple[int, list[int], list[dict[int, int]]]:
        """The per-pair oracle pass of the blown-up graph by part, in
        integers (``betweenness._split_numerators``), computed once."""
        return _split_numerators(self.graph, self.part_of)


def blow_up(spec: BlowupSpec) -> BlownGraph:
    """Materialize the blow-up described by ``spec``.

    Every edge is written once, as (u, w) with u < w < n, so after one
    sort the graph is built without re-validation.
    """
    starts = [0]
    for p in spec.parts:
        starts.append(starts[-1] + p.size)
    edges: list[tuple[int, int]] = []
    part_of: list[int] = []
    part_vertices = []
    for i, part in enumerate(spec.parts):
        lo, hi = starts[i], starts[i + 1]
        part_vertices.append(tuple(range(lo, hi)))
        part_of += [i] * part.size
        if part.kind == PART_CLIQUE:
            edges += combinations(range(lo, hi), 2)
        elif part.kind == PART_EXPLICIT:
            edges += [(lo + u, lo + w) for u, w in part.graph.edges]
    for i, j in spec.base.edges:
        edges += product(part_vertices[i], part_vertices[j])
    edges.sort()
    return BlownGraph(
        graph=Graph._make((starts[-1], tuple(edges))),
        part_of=tuple(part_of),
        part_vertices=tuple(part_vertices),
    )


class Decomposition(namedtuple("Decomposition", "vertex global_part own_local neighbor_locals")):
    """Betweenness of one blown-up vertex, split by pair location:
    ``Fraction`` shares, ``neighbor_locals`` keyed by part."""

    __slots__ = ()


def decompose_betweenness(bg: BlownGraph, v: int) -> Decomposition:
    """Split B(v) into global / own-part / per-neighbor-part shares.

    Read from first principles off ``bg.pair_numerators``, the per-pair
    oracle pass run once per blow-up with each vertex labelled by its
    part; neither the spec nor a closed form is consulted.  Keys of
    ``neighbor_locals`` are the parts of v's neighbors other than its
    own, in ascending order: v is joined to every vertex of each
    base-neighbor part and to no other part.  A pair inside any other
    part can never route through v; one that does raises
    ``AssertionError``.  This is the ``Fraction`` view of
    ``_decomposition_numerators``.
    """
    den, glob, own, nbr = _decomposition_numerators(bg, v)
    return Decomposition(
        vertex=v,
        global_part=Fraction(glob, den),
        own_local=Fraction(own, den),
        neighbor_locals={j: Fraction(x, den) for j, x in nbr.items()},
    )


def _decomposition_numerators(bg: BlownGraph, v: int) -> tuple[int, int, int, dict[int, int]]:
    """``decompose_betweenness`` in integers: ``(den, global, own,
    neighbor)``, each share a numerator over den."""
    g = bg.graph
    if type(v) is not int:
        raise ValueError(f"vertex must be an integer, not {v!r}")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    pv = bg.part_of[v]
    den, cross, inside = bg.pair_numerators
    shares = dict(inside[v])
    own = shares.pop(pv, 0)
    nbr_parts = sorted({bg.part_of[w] for w in g.adjacency[v]} - {pv})
    nbr = {j: shares.pop(j, 0) for j in nbr_parts}
    if shares:
        raise AssertionError(
            f"pair inside part {min(shares)} routed through part {pv}, "
            "which is not a base neighbor"
        )
    return den, cross[v], own, nbr


def _common_neighbors(h: Graph) -> Iterator[tuple[int, int]]:
    """Number and bitmask of the common neighbors of each non-adjacent
    pair of h."""
    bits = h.adjacency_bits
    for u, w in combinations(range(h.n), 2):
        if not bits[u] >> w & 1:
            common = bits[u] & bits[w]
            yield common.bit_count(), common


class GeodesicPlan:
    """The part of the closed form that depends on the base graph alone.

    For each source i it holds the other base vertices in BFS order,
    each with its predecessors, and for each base vertex k the
    non-adjacent pairs (i, j), i < j, that have k inside an i,j-geodesic.
    ``geodesic_plan`` builds it once per base graph.
    """

    def __init__(self, base: Graph):
        n = base.n
        adj = base.adjacency
        dist = base.distances
        self.adjacency = adj
        self.orders = tuple(
            tuple(
                (v, tuple(u for u in adj[v] if di[u] == di[v] - 1))
                for v in sorted(range(n), key=di.__getitem__)[1:]
            )
            for di in dist
        )
        self.far = tuple((i, j) for i, j in combinations(range(n), 2) if dist[i][j] >= 2)
        self.through = tuple(
            tuple(
                (p, i, j)
                for p, (i, j) in enumerate(self.far)
                if k != i and k != j and dist[i][k] + dist[k][j] == dist[i][j]
            )
            for k in range(n)
        )

    def numerators(self, batch) -> list[tuple[int, list[int], list[list[tuple]]]]:
        """The closed form in integers, for a batch of size tuples at once.

        Each entry of ``batch`` is a list of slots: ``slots[j]`` lists
        candidate parts for base vertex j, all of one size s_j.  Returns
        one ``(d, glob, local)`` per entry: part k's global share is
        ``glob[k] / d``, and ``local[j][c]`` holds, over d, the neighbor
        numerator of candidate c of slot j and its own numerators, or
        ``None`` for an I or K part.  With mass(j) the total size of the
        parts on the base neighbors of j, d is the lcm of W(i, j) over the
        non-adjacent pairs, of every mass(j), and of mass(j) + c for each
        common-neighbor count c of an explicit candidate of slot j, so
        every local share is an integer over d as well.  None of these
        terms grows in number with the size of an I or K part.

        The W recurrence, mass, d and the global numerators run column
        by column: each quantity is one list over the batch, so the
        interpreter's cost per operation is paid once per batch.  Only
        the mass(j) + c terms and the shares inside parts are evaluated
        entry by entry.
        """
        if not batch:
            return []
        n = len(self.orders)
        # cols[v]: the size of part v in each entry
        cols = list(zip(*[[slot[0].size for slot in slots] for slots in batch]))
        ones = [1] * len(batch)
        w = []
        for i, order in enumerate(self.orders):
            wi = [ones] * n
            # acc[u]: the weight u passes on, W(i, u) times u's own size
            acc = [ones] * n
            for v, preds in order:
                x = acc[preds[0]]
                for u in preds[1:]:
                    x = list(map(add, x, acc[u]))
                wi[v] = x
                acc[v] = list(map(mul, x, cols[v]))
            w.append(wi)
        mass = []
        for nbrs in self.adjacency:
            m = cols[nbrs[0]]
            for u in nbrs[1:]:
                m = list(map(add, m, cols[u]))
            mass.append(m)
        far_w = [w[i][j] for i, j in self.far]
        d = list(map(lcm, *far_w, *mass))
        masses = list(zip(*mass))
        for e, (slots, me) in enumerate(zip(batch, masses)):
            extra = {m + c for m, slot in zip(me, slots) for p in slot for c, _ in p._nonedges}
            if extra:
                d[e] = lcm(d[e], *extra)
        q = [
            list(map(mul, map(mul, cols[i], cols[j]), map(floordiv, d, wij)))
            for (i, j), wij in zip(self.far, far_w)
        ]
        glob = []
        for k, pairs in enumerate(self.through):
            g = [0] * len(batch)
            for p, i, j in pairs:
                g = list(map(add, g, map(mul, map(mul, q[p], w[i][k]), w[k][j])))
            glob.append(g)
        # d // mass(j), one column per base vertex, for the I_m parts
        per_pair = zip(*[map(floordiv, d, m) for m in mass])
        return [
            (de, list(ge), [_local_numerators(*a, de) for a in zip(slots, me, pe)])
            for slots, de, ge, me, pe in zip(batch, d, zip(*glob), masses, per_pair)
        ]


@lru_cache(maxsize=128)
def geodesic_plan(base: Graph) -> GeodesicPlan:
    """The ``GeodesicPlan`` of a base graph, built once per graph."""
    return GeodesicPlan(base)


def _local_numerators(
    slot, mass: int, per_pair: int, d: int
) -> list[tuple[int, tuple[int, ...] | None]]:
    """Each part's neighbor share and own shares as numerators over d,
    which ``GeodesicPlan.numerators`` makes a multiple of every
    denominator; the parts of ``slot`` sit on one base vertex, whose
    neighbor parts hold ``mass`` vertices, and ``per_pair`` is
    d // mass, what each pair inside an I part gives."""
    out = []
    for part in slot:
        if part.kind == PART_INDEPENDENT:
            out.append((part.size * (part.size - 1) // 2 * per_pair, None))
        elif part.kind == PART_CLIQUE:
            out.append((0, None))
        else:
            total = 0
            own = [0] * part.size
            for count, common in part._nonedges:
                share = d // (count + mass)
                total += share
                for v in range(part.size):
                    if common >> v & 1:
                        own[v] += share
            out.append((total, tuple(own)))
    return out


def _specs_numerators(specs) -> list[tuple[int, list[int], list[tuple]]]:
    """``GeodesicPlan.numerators`` with each spec's parts as its only
    candidates, one batch per base graph: per spec, in order, d, the
    global numerators, and each part's (neighbor numerator, own
    numerators or None)."""
    by_base: dict[Graph, list[int]] = {}
    for e, spec in enumerate(specs):
        by_base.setdefault(spec.base, []).append(e)
    out: list = [None] * len(specs)
    for base, entries in by_base.items():
        batch = [[(p,) for p in specs[e].parts] for e in entries]
        for e, (d, glob, local) in zip(entries, geodesic_plan(base).numerators(batch)):
            out[e] = d, glob, [slot[0] for slot in local]
    return out


def _spec_numerators(spec: BlowupSpec) -> tuple[int, list[int], list[tuple]]:
    """``_specs_numerators`` of the one spec."""
    return _specs_numerators([spec])[0]


def shares_by_part(
    spec: BlowupSpec,
) -> Iterator[tuple[Fraction, dict[int, Fraction], tuple[Fraction, ...] | None]]:
    """The three betweenness shares of each part, without building the blow-up.

    Yields one ``(global, neighbor, own)`` triple per base vertex k; they
    equal the fields of ``decompose_betweenness`` at every vertex of
    part k:

    * global: s_i * s_j * W(i, k) * W(k, j) / W(i, j) summed over base
      pairs i < j, both other than k, with k on an i,j-geodesic.  s_i
      is the size of part i, and W(i, j) counts the base i,j-geodesics,
      each weighted by the product of the sizes of its interior parts;
    * neighbor: for each base neighbor j of k, keyed by j, the share
      of the pairs inside part j.  A non-adjacent pair x, y of H_j sits
      at distance two, and its geodesics run through the c(x, y) common
      neighbors of x and y inside H_j and through every vertex of the
      parts on base neighbors of j, whose total size is mass(j).  So
      every vertex of part k gets 1 / (c(x, y) + mass(j)) summed over
      the non-adjacent pairs: C(m, 2) / mass(j) for I_m, zero for K_m;
    * own: for an explicit part, the share of each of its vertices v in
      ``blow_up`` order, 1 / (c(x, y) + mass(k)) summed over the
      non-adjacent pairs x, y of H_k that both neighbor v.  It is
      ``None`` for I and K parts, whose own share is zero.

    This is the ``Fraction`` view of the integer route the search screen
    uses: ``GeodesicPlan.numerators`` on a batch of one entry, with one
    candidate per base vertex.
    The work depends on the base and on explicit part graphs, never on
    the sizes of I and K parts; the pairs inside each explicit part are
    listed once per descriptor, for its neighbor and own shares alike.
    """
    d, glob, local = _spec_numerators(spec)
    for k, nbrs in enumerate(spec.base.adjacency):
        own = local[k][1]
        yield (
            Fraction(glob[k], d),
            {j: Fraction(local[j][0], d) for j in nbrs},
            None if own is None else tuple(Fraction(o, d) for o in own),
        )


def _part_numerators(spec: BlowupSpec, numerators) -> Iterator[tuple[int, ...]]:
    """Exact betweenness of the blow-up, part by part, in integers and
    without building it.

    Reads ``numerators``, the spec's ``_spec_numerators``, and yields
    one tuple per base vertex k: the values of part k's vertices in
    ``blow_up`` order as numerators over its d, each the sum of the
    global, neighbor and own shares that ``shares_by_part`` gives.
    """
    _, glob, local = numerators
    for k, (part, nbrs) in enumerate(zip(spec.parts, spec.base.adjacency)):
        value = glob[k] + sum(local[j][0] for j in nbrs)
        own = local[k][1]
        yield (value,) * part.size if own is None else tuple(value + o for o in own)


class DeltaUndefinedError(ValueError):
    """The betweenness-ratio denominator vanished (e.g. a two-vertex base)."""


class DeltaResult(namedtuple("DeltaResult", "value x y")):
    """``delta_extremal``'s ratio with the vertices x and y it compares."""

    __slots__ = ()


def _delta(adj, sizes, glob, local, px: int, py: int) -> DeltaResult:
    """``delta_extremal``'s ratio for leaf part px and its base neighbor
    py, from the integer numerators of ``GeodesicPlan.numerators``:
    ``glob`` and ``local`` hold one entry per base vertex, and ``adj``
    and ``sizes`` describe the base and the parts."""
    # local[j][0]: what the pairs inside part j give each neighbor-part vertex
    pairs_x, own_x = local[px]
    pairs_y, own_y = local[py]
    # max and min return the first extremum, which is the lowest index
    ix = max(range(len(own_x)), key=own_x.__getitem__) if own_x else 0
    iy = min(range(len(own_y)), key=own_y.__getitem__) if own_y else 0
    x = sum(sizes[:px]) + ix
    y = sum(sizes[:py]) + iy
    numer = pairs_y - (own_y[iy] if own_y else 0)
    denom = glob[py] + pairs_x - (own_x[ix] if own_x else 0)
    denom += sum(local[j][0] for j in adj[py] if j != px)
    if denom == 0:
        raise DeltaUndefinedError(
            f"denominator of the x/y betweenness ratio vanished (x={x}, y={y})"
        )
    return DeltaResult(value=Fraction(numer, denom), x=x, y=y)


def delta_extremal(spec: BlowupSpec, *, leaf_part: int = 0) -> DeltaResult:
    """Ratio comparing B(x) to B(y) across a leaf part boundary.

    x lives in part ``leaf_part``, which must be a leaf of the base, and
    y in that leaf's unique neighbor part; both are numbered as in
    ``blow_up``.  x maximizes betweenness over its part and y minimizes
    it over its part, lowest index on ties: inside a part only the own
    share varies, so it decides.  The ratio is (B_own(x)-share y lacks)
    over (everything B(y) has that B(x) lacks); it equals 1 exactly
    when B(x) = B(y), and is < 1 when B(x) < B(y).  Numerator and
    denominator are sums of the integer numerators of
    ``GeodesicPlan.numerators`` over one common denominator, which
    cancels.  Raises DeltaUndefinedError when the denominator is 0,
    which happens for degenerate bases like a single edge.
    """
    # type(), not isinstance(): False must not pass for part 0
    if type(leaf_part) is not int:
        raise ValueError(f"leaf part must be an integer, not {leaf_part!r}")
    adj = spec.base.adjacency
    nbrs = adj[leaf_part] if 0 <= leaf_part < spec.base.n else ()
    if len(nbrs) != 1:
        raise ValueError(f"part {leaf_part} is not a leaf part of the base")
    _, glob, local = _spec_numerators(spec)
    sizes = [p.size for p in spec.parts]
    return _delta(adj, sizes, glob, local, leaf_part, nbrs[0])


# ---------------------------------------------------------------------------
# the spec-file codec


def _part_to_json(p: PartDescriptor) -> dict:
    if p.kind == PART_EXPLICIT:
        return {"kind": PART_EXPLICIT, "graph6": serialize_graph6(p.graph)}
    return {"kind": p.kind, "size": p.size}


def _graph_from_json(text) -> Graph:
    if not isinstance(text, str):
        raise ValueError(f"graph6 must be a JSON string, not {text!r}")
    return parse_graph6(text)


def _part_from_json(obj: dict) -> PartDescriptor:
    if not isinstance(obj, dict):
        raise ValueError(f"a part must be a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == PART_EXPLICIT:
        return PartDescriptor.explicit(_graph_from_json(obj["graph6"]))
    if kind in (PART_INDEPENDENT, PART_CLIQUE):
        return PartDescriptor(kind, obj["size"])
    raise ValueError(f"unknown part kind {kind!r}")


def spec_to_json(spec: BlowupSpec) -> dict:
    return {
        "base": serialize_graph6(spec.base),
        "parts": [_part_to_json(p) for p in spec.parts],
    }


def spec_from_json(obj: dict) -> BlowupSpec:
    if not isinstance(obj, dict) or "base" not in obj or "parts" not in obj:
        raise ValueError("blow-up spec JSON needs 'base' and 'parts'")
    base = _graph_from_json(obj["base"])
    parts = tuple(_part_from_json(p) for p in obj["parts"])
    return BlowupSpec(base=base, parts=parts)
