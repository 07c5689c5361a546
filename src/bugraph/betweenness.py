"""Exact betweenness centrality.

The betweenness of x is the sum over unordered vertex pairs {u, v} not
containing x of the fraction of shortest u,v-paths passing through x.
All arithmetic is exact, in ints and ``fractions.Fraction``; nothing
here ever touches a float, so "uniform" below means literal equality
of rationals.

Two algorithms are provided on purpose:

* ``betweenness_exact`` - dependency accumulation (Brandes 2001) on
  the twin quotient, in integers only.  Vertices with equal open
  neighbourhoods (an independent class) or equal closed neighbourhoods
  (a clique class) have equal betweenness, so the engine runs one BFS
  per twin class on the class graph, with class sizes as
  multiplicities (the source-class reduction of Puzis et al. 2015).
  The classes come from ``graphs._twin_classes``, the routine whose
  classes also prune the canonical-form search.
  A blow-up's parts are twin classes, so a blow-up costs about what
  its base costs; on a twin-free graph every class is one vertex and
  this is plain Brandes.  Each source's dependencies are scaled by the
  lcm of its geodesic counts, all sources share one running
  denominator, and each distinct value becomes a single ``Fraction``
  at the end.  ``_exact_numerators`` is that engine in integers: one
  numerator per vertex over one denominator.
* ``betweenness_oracle`` - per-pair path counting on the graph
  itself: sigma_{u,v}(x) = sigma(u,x) * sigma(x,v) whenever x sits on
  a u,v-geodesic.  These integers are summed per geodesic count
  sigma(u,v), and each vertex's sums become one ``Fraction`` at the
  end.

The oracle's per-pair loop lives in ``_split_numerators(g, part_of)``:
for any vertex labels it returns, as integers over one denominator,
each vertex's share from pairs with different labels and, per label,
its share from pairs inside it.  ``betweenness_oracle`` reads it with
every vertex its own label, and ``blowup.decompose_betweenness`` with
blow-up parts as labels.  The acceptance suite compares the two
engines' integers by cross-multiplication and builds no ``Fraction``.

The two routes share no shortest-path code, and the oracle knows
nothing of twins or blow-ups (this module imports nothing from
``blowup``); labels only sort each pair's contribution and never
change which pairs count.  So agreement is a real check of the
quotient and of the closed form, not a tautology.  Disconnected input
is fine; pairs in different components contribute nothing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .graphs import Graph, _twin_classes

__all__ = [
    "UniformityResult",
    "betweenness_exact",
    "betweenness_oracle",
    "is_betweenness_uniform",
    "profile_uniformity",
]


def betweenness_exact(g: Graph) -> list[Fraction]:
    """Betweenness of every vertex, by dependency accumulation on the
    twin quotient: ``_exact_numerators`` with one ``Fraction`` per
    distinct value."""
    return _fractions(*_exact_numerators(g))


def _exact_numerators(g: Graph) -> tuple[int, list[int]]:
    """``(den, num)``: the betweenness of vertex v is ``num[v] / den``.

    Twins have equal betweenness, and a geodesic between vertices of
    two different classes meets every class at most once.  So one
    source per class suffices, run on the class graph with the class
    sizes c as multiplicities.  sigma(w) counts the geodesics from the
    c(s) vertices of the source class s to one vertex of class w: the
    sum of c(p) * sigma(p) over the predecessor classes p, with
    sigma(s) = 1.  That scales every sigma of one source vertex by c(s)
    and leaves their ratios alone, so delta_s(v) = sum over successor
    classes w of c(w) * (sigma_sv / sigma_sw) * (1 + delta_s(w)) is the
    dependency of each vertex of the source class, counted c(s) times.
    Summing over sources counts every unordered pair twice, hence the
    halving in the returned denominator.  Pairs inside an independent
    class of c vertices meet only at distance 2, through each of the
    ``mass`` vertices of the neighbouring classes alike: C(c, 2) / mass
    to each of those.

    The recurrence runs on the integers t(v) = L * delta_s(v) / sigma_sv,
    where L (``scale``) is the lcm of the sigma_sw over the classes w
    reached from s: t(v) = sum over successors w of c(w) * (L / sigma_sw
    + t(w)).  Each c(s) * delta_s(w) = c(s) * sigma_sw * t(w) / L is
    added to an integer numerator over one running denominator D
    (``den``), kept a multiple of every L and every mass; the returned
    denominator is 2D.
    """
    adj = g.adjacency
    classes = _twin_classes(g)
    m = len(classes)
    size = [len(members) for members in classes]
    # Class graph: each neighbouring class once, through its least member.
    lead = [-1] * g.n
    for i, members in enumerate(classes):
        lead[members[0]] = i
    cadj = [[lead[w] for w in adj[members[0]] if lead[w] >= 0] for members in classes]
    # (class, size, mass) of each independent class with pairs and neighbours
    inner = []
    for i, members in enumerate(classes):
        if len(members) > 1 and members[1] not in adj[members[0]] and cadj[i]:
            inner.append((i, len(members), sum(size[j] for j in cadj[i])))
    num = [0] * m
    den = lcm(*[mass for _, _, mass in inner])
    for s in range(m):
        dist = [-1] * m
        sigma = [0] * m
        preds: list[list[int]] = [[] for _ in range(m)]
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        for v in order:  # the BFS queue: iteration reaches appended classes
            dv1 = dist[v] + 1
            sv = sigma[v] * size[v]
            for w in cadj[v]:
                if dist[w] == -1:
                    dist[w] = dv1
                    order.append(w)
                if dist[w] == dv1:
                    sigma[w] += sv
                    preds[w].append(v)
        scale = lcm(*[sigma[w] for w in order])
        if den % scale:
            k = scale // gcd(den, scale)
            num = [x * k for x in num]
            den *= k
        factor = den // scale * size[s]
        t = [0] * m
        for w in reversed(order[1:]):  # the source itself gains nothing
            tw = t[w]
            c = (scale // sigma[w] + tw) * size[w]
            for v in preds[w]:
                t[v] += c
            if tw:
                num[w] += sigma[w] * tw * factor
    for i, c, mass in inner:
        x = c * (c - 1) * (den // mass)
        for j in cadj[i]:
            num[j] += x
    out = [0] * g.n
    for members, x in zip(classes, num):
        for v in members:
            out[v] = x
    return 2 * den, out


def _fractions(den: int, nums) -> list[Fraction]:
    # Equal values share one Fraction, so a uniform profile holds one.
    values = {x: Fraction(x, den) for x in set(nums)}
    return [values[x] for x in nums]


def _counting_bfs(adj, n: int, s: int) -> tuple[list[int], list[int], list[int]]:
    """BFS with geodesic counting; private to the oracle side.  Returns
    (dist, sigma, order): dist is -1 off the component of s, and order
    lists that component by distance from s, s first."""
    dist = [-1] * n
    sigma = [0] * n
    dist[s] = 0
    sigma[s] = 1
    order = [s]
    for v in order:  # the BFS queue: iteration reaches appended vertices
        dv1 = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dv1
                order.append(w)
            if dist[w] == dv1:
                sigma[w] += sv
    return dist, sigma, order


def _split_numerators(g: Graph, part_of) -> tuple[int, list[int], list[dict]]:
    """Betweenness by direct per-pair counting, split by pair labels.

    ``part_of[v]`` is any hashable label of vertex v.  Returns
    ``(den, cross, inside)`` in integers over one denominator:
    ``cross[x] / den`` is the share of x from pairs whose endpoints
    carry different labels, and ``inside[x][p] / den`` its share from
    pairs inside label p.  ``inside[x]`` lists only the labels that have
    a pair with a geodesic through x.

    A pair u, v at distance d adds the integer sigma(u,x) * sigma(x,v) at
    each interior vertex x of its geodesics, into the bucket of its
    target (the cross share or its label) and of its geodesic count
    sigma(u,v).  An interior vertex is nearer to u than d, so the scan of
    u's BFS order stops at its first vertex at distance d.  At the end
    every bucket is scaled to den, the lcm of all geodesic counts seen.
    """
    n = g.n
    adj = g.adjacency
    bfs = [_counting_bfs(adj, n, s) for s in range(n)]
    dist = [b[0] for b in bfs]
    sigma = [b[1] for b in bfs]
    cross_acc: dict[int, list[int]] = {}  # sigma(u,v) -> per-vertex numerators
    by_label: dict = {}  # label -> the same buckets, for pairs inside it
    for u in range(n):
        du, su, order = bfs[u]
        others = order[1:]  # u's component without u, where dist[v] >= 0
        pu = part_of[u]
        for v in range(u + 1, n):
            d = du[v]
            if d < 2:  # adjacent (1) or unreachable (-1): no interior vertex
                continue
            acc = cross_acc if part_of[v] != pu else by_label.setdefault(pu, {})
            vals = acc.get(su[v])
            if vals is None:
                vals = acc[su[v]] = [0] * n
            dv = dist[v]
            sv = sigma[v]
            for x in others:
                dx = du[x]
                if dx == d:  # order is by distance: no nearer vertex is left
                    break
                if dx + dv[x] == d:
                    vals[x] += su[x] * sv[x]
    den = lcm(*cross_acc, *[s for acc in by_label.values() for s in acc])
    cross = _bucket_sums(cross_acc, n, den)
    shares = {p: _bucket_sums(acc, n, den) for p, acc in by_label.items()}
    inside = [{p: share[x] for p, share in shares.items() if share[x]} for x in range(n)]
    return den, cross, inside


def _bucket_sums(acc: dict[int, list[int]], n: int, den: int) -> list[int]:
    # den times the sum over geodesic counts s of acc[s][x] / s, per vertex x
    nums = [0] * n
    for s, vals in acc.items():
        k = den // s
        nums = [a + k * b for a, b in zip(nums, vals)]
    return nums


def betweenness_oracle(g: Graph) -> list[Fraction]:
    """Betweenness by direct per-pair counting (the cross-check route):
    ``_split_numerators`` with every vertex its own label, and one
    ``Fraction`` per distinct value."""
    den, cross, _ = _split_numerators(g, range(g.n))
    return _fractions(den, cross)


class UniformityResult(namedtuple("UniformityResult", "uniform common")):
    """Whether all values are equal, and that value (``None`` when they
    differ or there are none)."""

    __slots__ = ()


def profile_uniformity(values) -> UniformityResult:
    """Whether all profile entries are exactly equal (empty: trivially so)."""
    vals = list(values)
    if not vals:
        return UniformityResult(True, None)
    first = vals[0]
    if all(v == first for v in vals[1:]):
        return UniformityResult(True, first)
    return UniformityResult(False, None)


def is_betweenness_uniform(g: Graph) -> UniformityResult:
    return profile_uniformity(betweenness_exact(g))
