"""Exact betweenness centrality.

The betweenness of x is the sum over unordered vertex pairs {u, v} not
containing x of the fraction of shortest u,v-paths passing through x.
All arithmetic is exact, in ints and ``fractions.Fraction``; nothing
here ever touches a float, so "uniform" below means literal equality
of rationals.

Two algorithms are provided on purpose:

* ``betweenness_exact`` - one BFS per source with dependency
  accumulation (Brandes 2001) in integers only: each source's
  dependencies are scaled by the lcm of its geodesic counts, all
  sources share one running denominator, and each vertex gets a single
  ``Fraction`` at the end.
* ``betweenness_oracle`` - per-pair path counting over ``Fraction``:
  sigma_{u,v}(x) = sigma(u,x) * sigma(x,v) whenever x sits on a
  u,v-geodesic.

They share no shortest-path code, so agreement between them is a real
check rather than a tautology.  Disconnected input is fine; pairs in
different components contribute nothing.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .graphs import Graph

__all__ = [
    "UniformityResult",
    "betweenness_exact",
    "betweenness_oracle",
    "format_rational",
    "is_betweenness_uniform",
    "profile_json",
    "profile_uniformity",
    "shortest_path_data",
]


def betweenness_exact(g: Graph) -> list[Fraction]:
    """Betweenness of every vertex, by dependency accumulation.

    Each source contributes delta_s(v) = sum over successors w of
    (sigma_sv / sigma_sw) * (1 + delta_s(w)); summing over sources
    counts every unordered pair twice, hence the final halving.

    The recurrence runs on the integers t(v) = L * delta_s(v) / sigma_sv,
    where L (``scale``) is the lcm of the sigma_sw over the vertices w
    reached from s: t(v) = sum over successors w of (L / sigma_sw + t(w)).
    Each delta_s(w) = sigma_sw * t(w) / L is added to an integer
    numerator over one running denominator D (``den``), kept a multiple
    of every L seen so far.
    """
    n = g.n
    adj = g.adjacency
    num = [0] * n
    den = 1
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            dv1 = dist[v] + 1
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = dv1
                    q.append(w)
                if dist[w] == dv1:
                    sigma[w] += sv
                    preds[w].append(v)
        scale = lcm(*[sigma[w] for w in order])
        if den % scale:
            k = scale // gcd(den, scale)
            num = [x * k for x in num]
            den *= k
        factor = den // scale
        t = [0] * n
        for w in reversed(order[1:]):  # the source itself gains nothing
            tw = t[w]
            c = scale // sigma[w] + tw
            for v in preds[w]:
                t[v] += c
            if tw:
                num[w] += sigma[w] * tw * factor
    # Equal values share one Fraction, so a uniform profile holds one.
    values = {x: Fraction(x, 2 * den) for x in set(num)}
    return [values[x] for x in num]


def _counting_bfs(adj, n: int, s: int) -> tuple[list[int], list[int]]:
    # Level-by-level BFS with geodesic counting; private to the oracle side.
    dist = [-1] * n
    sigma = [0] * n
    dist[s] = 0
    sigma[s] = 1
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
                if dist[w] == d:
                    sigma[w] += sv
        frontier = nxt
    return dist, sigma


def shortest_path_data(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """All-pairs (distance, geodesic count) matrices; -1 marks unreachable."""
    adj = g.adjacency
    n = g.n
    dist: list[list[int]] = []
    sigma: list[list[int]] = []
    for s in range(n):
        d, sg = _counting_bfs(adj, n, s)
        dist.append(d)
        sigma.append(sg)
    return dist, sigma


def betweenness_oracle(g: Graph) -> list[Fraction]:
    """Betweenness by direct per-pair counting (the cross-check route)."""
    n = g.n
    dist, sigma = shortest_path_data(g)
    vals = [Fraction(0)] * n
    for u in range(n):
        du = dist[u]
        su = sigma[u]
        for v in range(u + 1, n):
            d = du[v]
            if d < 2:  # adjacent (1) or unreachable (-1): no interior vertex
                continue
            dv = dist[v]
            sv = sigma[v]
            denom = su[v]
            for x in range(n):
                if x == u or x == v:
                    continue
                if du[x] != -1 and dv[x] != -1 and du[x] + dv[x] == d:
                    vals[x] += Fraction(su[x] * sv[x], denom)
    return vals


class UniformityResult(NamedTuple):
    uniform: bool
    common: Fraction | None


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


# ---------------------------------------------------------------------------
# rendering


def format_rational(x: Fraction) -> str:
    """Lowest-terms decimal-free rendering: "p/q", or "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def profile_json(values) -> dict:
    """JSON-ready profile: n, values, and the uniformity verdict."""
    vals = list(values)
    u = profile_uniformity(vals)
    return {
        "n": len(vals),
        "values": [format_rational(v) for v in vals],
        "uniform": u.uniform,
        "common": format_rational(u.common) if u.uniform and u.common is not None else None,
    }
