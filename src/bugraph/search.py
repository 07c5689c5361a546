"""Bounded exhaustive searches for betweenness-uniform blow-ups.

``search_blowups`` walks every assignment of candidate parts to the
base vertices within a budget and tests each blow-up for uniform
betweenness.  The screen never builds the blown-up graph.  It reads the
closed form of ``blowup.shares_by_part`` in integers: for a tuple of
part sizes, one entry of a ``GeodesicPlan.numerators`` batch on the
base's plan takes every candidate of those sizes and gets one common
denominator, the numerators of every part's global share, and each
candidate's numerators of the shares inside parts.  The blow-up is
uniform iff every vertex gets the same numerator.  The screen first
drops each candidate whose own numerators differ, then assigns the
base vertices in BFS order from vertex 0 and abandons a branch as soon
as a *closed* vertex, one assigned together with all of its neighbors,
gets a value other than the vertices closed before it (forward
checking, as in Haralick and Elliott, "Increasing tree search
efficiency for constraint satisfaction problems", 1980).  Every
assignment a dropped candidate or an abandoned branch rules out still
counts as decided.

Symmetry: an automorphism pi of the base maps an assignment A to
A o pi, which is uniform iff A is, with an isomorphic blow-up, and it
maps the candidate lists onto themselves.  So the search lists one size
tuple per orbit of Aut(base), its least member, with the orbit's size
as its weight; the listing holds nothing between tuples, so every base
is reduced.  A scan task makes one ``numerators`` call per chunk of
at most ``_SCAN_CHUNK`` listed size tuples, which evaluates the closed
form column by column over them, and decides every assignment of each
tuple's candidates, so I_m and K_m candidates, and all explicit classes
of one size, share one entry.  Each decided assignment counts as
``weight`` examined specs, and a task returns its hits as bare tuples
of candidate indices.
Only ``search_blowups`` knows the group: it verifies one hit per orbit,
twice over, with the two independent betweenness algorithms on the
built graph, and reports every image in assignment order, last base
vertex fastest.  The group comes from ``graphs.automorphisms`` as a few
generators, and orbits are closed under those, so the work does not
grow with the group's order.  The work per assignment does not grow
with part sizes.  A serial search is one scan task run inline; a
parallel one hands slices of the listed size tuples to a process pool.

Pruning: a size-1 part on a base *cut vertex* leaves a cut vertex in
the blown-up graph, and no uniform graph on three or more vertices has
one, so those assignments are skipped.  (Degree alone is not enough:
on a triangle base the middle sizes (2,1,1) blow up to K_4, which is
uniform, so only genuine cut vertices are pruned.)

Reported searches are deterministic: identical inputs give identical
reports regardless of the worker count.  A time limit yields a partial
report with ``exhausted=False``, never a silently truncated one.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import inf, prod
from operator import getitem, itemgetter

from .betweenness import betweenness_exact, betweenness_oracle, profile_uniformity
from .blowup import (
    BlowupSpec,
    PartDescriptor,
    _delta,
    blow_up,
    geodesic_plan,
)
from .graphs import (
    GRAPH_ENUM_CAP,
    Graph,
    automorphisms,
    cut_vertices,
    diameter,
    enumerate_graphs,
    generate,
    is_connected,
    orbit,
)

__all__ = [
    "FAMILY_ALL",
    "FAMILY_IK",
    "SearchBudget",
    "SearchReport",
    "candidate_parts",
    "census",
    "lemma_grid",
    "lemma_table",
    "search_blowups",
]

FAMILY_IK = "ik"
FAMILY_ALL = "all"

_ALL_FAMILY_SIZE_CAP = 5
_LEMMA_SIZE_CAP = 5
# orbits per pool task, at most: what the pool holds at once stays small
_POOL_SLICE_CAP = 1024
# size tuples per ``numerators`` batch in a scan task
_SCAN_CHUNK = 64


class SearchBudget(
    namedtuple("SearchBudget", "part_family max_part_size max_total_vertices time_limit")
):
    """Bounds on the assignment space a search is allowed to cover."""

    __slots__ = ()

    def __new__(
        cls,
        part_family: str = FAMILY_IK,
        max_part_size: int = 4,
        max_total_vertices: int | None = None,
        time_limit: float | None = None,
    ):
        if part_family not in (FAMILY_IK, FAMILY_ALL):
            raise ValueError(f"unknown part family {part_family!r}")
        # type(), not isinstance(): True must not pass for 1
        if type(max_part_size) is not int:
            raise ValueError(f"max_part_size must be an integer, not {max_part_size!r}")
        if max_part_size < 1:
            raise ValueError("max_part_size must be >= 1")
        if part_family == FAMILY_ALL and max_part_size > _ALL_FAMILY_SIZE_CAP:
            raise ValueError(
                f"family {FAMILY_ALL!r} supports max_part_size <= {_ALL_FAMILY_SIZE_CAP}"
            )
        if max_total_vertices is not None and type(max_total_vertices) is not int:
            raise ValueError(f"max_total_vertices must be an integer, not {max_total_vertices!r}")
        if max_total_vertices is not None and max_total_vertices < 2:
            raise ValueError("max_total_vertices must be >= 2")
        if time_limit is not None and type(time_limit) not in (int, float):
            raise ValueError(f"time_limit must be a number of seconds, not {time_limit!r}")
        # written so that NaN, which compares false, is rejected too;
        # infinity would pass through to the report, where JSON has no
        # spelling for it
        if time_limit is not None and not 0 < time_limit < inf:
            raise ValueError("time_limit must be positive and finite")
        return super().__new__(cls, part_family, max_part_size, max_total_vertices, time_limit)


class SearchReport(namedtuple("SearchReport", "base budget found exhausted specs_examined")):
    """Outcome of one exhaustive scan over a base graph."""

    __slots__ = ()


def candidate_parts(budget: SearchBudget) -> tuple[PartDescriptor, ...]:
    """The deterministic candidate list one base vertex ranges over.

    Budgets with the same family and part size cap share one tuple, so
    every search reuses its descriptors and their cached common-neighbor
    lists.
    """
    return _candidates(budget.part_family, budget.max_part_size)


@lru_cache(maxsize=16)
def _candidates(family: str, max_size: int) -> tuple[PartDescriptor, ...]:
    if family == FAMILY_IK:
        out = [PartDescriptor.independent(1)]
        for s in range(2, max_size + 1):
            out.append(PartDescriptor.independent(s))
            out.append(PartDescriptor.clique(s))
        return tuple(out)
    out = []
    for s in range(1, max_size + 1):
        out.extend(PartDescriptor.for_graph(g) for g in enumerate_graphs(s))
    return tuple(out)


# ---------------------------------------------------------------------------
# the screen: exact uniformity decision without building the blow-up


def _verify_hit(spec: BlowupSpec) -> None:
    # Screen positives must survive both full algorithms; a mismatch is a
    # bug in this module and is raised, never swallowed.
    bg = blow_up(spec)
    exact = betweenness_exact(bg.graph)
    if not profile_uniformity(exact).uniform:
        raise RuntimeError(f"screen accepted non-uniform spec {spec.label()}")
    if betweenness_oracle(bg.graph) != exact:
        raise RuntimeError(f"betweenness algorithms disagree on {spec.label()}")


def _size_orbits(sizes, moves, max_total):
    """Yield ``(sizes, weight)``: the least size tuple of each orbit of
    Aut(base) in ``itertools.product`` order over ``sizes``, with the
    orbit's size.

    ``moves`` generate the group: ``itemgetter(*p)`` for a generator p
    maps a tuple t to ``t[p[0]], t[p[1]], ...``.  Each list in ``sizes``
    ascends, so product order is lexicographic and an orbit's least
    member is the first that it reaches; nothing is held between
    tuples.  Tuples over ``max_total`` are skipped; the total is the
    same on a whole orbit.
    """
    for t in product(*sizes):
        if max_total is not None and sum(t) > max_total:
            continue
        for move in moves:
            if move(t) < t:  # a generator maps t below itself
                break
        else:
            members = orbit(t, moves)
            if min(members) == t:
                yield t, len(members)


def _scan_task(args) -> tuple[int, list[tuple[int, ...]], bool]:
    """Screen the size tuples ``reps`` lists.

    ``args`` is ``(base, cand_lists, reps, deadline)``: ``base`` is
    connected and ``reps`` yields ``(sizes, weight)`` pairs.  They are
    read ``_SCAN_CHUNK`` at a time, and each chunk is one ``numerators``
    batch with one entry per tuple.  An assignment of a tuple's
    candidates is uniform iff every vertex of its blow-up gets the same
    numerator over the tuple's common denominator, which the screen
    decides in two steps:

    - the filter drops from each row every candidate whose own
      numerators differ, as no assignment with it is uniform;
    - the walk assigns the base vertices in BFS order from vertex 0.
      Base vertex k is *closed* once it and all of its neighbors are
      assigned, and its value ``glob[k] + own[k] + sum(nbr[j] for j in
      adj[k])`` is fixed then; the walk abandons a branch at the first
      closed value that differs from the common value of the vertices
      closed before it.

    Each assignment decided adds ``weight`` to the examined count: a
    node of the walk adds those under its dropped and rejected
    candidates, and a leaf, which is a hit, its own, so a finished tuple
    adds ``weight`` times the product of its row lengths.  The deadline
    is checked at every node, so a partial count is a true one too.  A
    hit is the tuple of its candidates' indices in ``cand_lists``,
    indexed by base vertex.
    """
    base, cand_lists, reps, deadline = args
    plan = geodesic_plan(base)
    adj = base.adjacency
    order = [0]
    for v in order:
        order += [u for u in adj[v] if u not in order]
    last = len(order) - 1
    level = {v: i for i, v in enumerate(order)}
    # vertex k closes at the level of the last of k and its neighbors to
    # be assigned: closes_self[i] when that is order[i] itself, and
    # otherwise closes_nbr[i] holds (k, k's other neighbors)
    closes_self = [False] * len(order)
    closes_nbr: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for k, nbrs in enumerate(adj):
        i = max(level[k], *map(level.__getitem__, nbrs))
        if order[i] == k:
            closes_self[i] = True
        else:
            closes_nbr[i].append((k, tuple(j for j in nbrs if j != order[i])))
    # slots[j][s]: vertex j's candidates of size s, and their indices in
    # cand_lists[j]
    slots = []
    for cands in cand_lists:
        slot: dict[int, tuple[list[PartDescriptor], list[int]]] = {}
        for ci, cand in enumerate(cands):
            parts, indices = slot.setdefault(cand.size, ([], []))
            parts.append(cand)
            indices.append(ci)
        slots.append(slot)
    # at[v]: the row entry assigned to v so far
    at: list = [None] * len(order)
    examined = 0
    hits: list[tuple[int, ...]] = []

    def walk(i, common, space):
        # every assignment that extends the one on order[:i], which
        # stands for ``space`` specs; ``common`` is the value of the
        # vertices closed so far, None before the first closes.  False
        # once the deadline has passed
        nonlocal examined
        if deadline is not None and time.monotonic() > deadline:
            return False
        v = order[i]
        row = rows[v]
        width = len(groups[v][0])
        step = space // width
        # every neighbor of v that closes here gains v's neighbor
        # numerator, so they must agree before it is added
        pn = None
        for k, rest in closes_nbr[i]:
            p = glob[k] + at[k][1]
            for j in rest:
                p += at[j][0]
            if pn is None:
                pn = p
            elif p != pn:
                examined += space
                return True
        po = None
        if closes_self[i]:
            po = glob[v]
            for j in adj[v]:
                po += at[j][0]
        examined += (width - len(row)) * step
        for c in row:
            t = common
            if pn is not None:
                if t is None:
                    t = pn + c[0]
                elif pn + c[0] != t:
                    examined += step
                    continue
            if po is not None:
                if t is None:
                    t = po + c[1]
                elif po + c[1] != t:
                    examined += step
                    continue
            at[v] = c
            if i == last:
                examined += step
                hits.append(tuple([a[2] for a in at]))
            elif not walk(i + 1, t, step):
                return False
        return True

    reps = iter(reps)
    for chunk in iter(lambda: list(islice(reps, _SCAN_CHUNK)), []):
        chunk_groups = [[slot[s] for slot, s in zip(slots, sizes)] for sizes, _ in chunk]
        batch = [[parts for parts, _ in groups] for groups in chunk_groups]
        for (_, weight), groups, (_, glob, local) in zip(
            chunk, chunk_groups, plan.numerators(batch)
        ):
            # per candidate: neighbor numerator, the own numerator every
            # vertex of the part shares, and its index in cand_lists; the
            # filter drops the candidates whose own numerators differ
            rows = [
                [
                    (nbr, 0 if own is None else own[0], ci)
                    for ci, (nbr, own) in zip(indices, cands)
                    if own is None or len(set(own)) == 1
                ]
                for (_, indices), cands in zip(groups, local)
            ]
            if not walk(0, None, weight * prod(len(parts) for parts, _ in groups)):
                return examined, hits, False
    return examined, hits, True


def _run_pool(tasks, jobs: int, deadline: float | None) -> tuple[list, bool]:
    """Run ``_scan_task`` on each of ``tasks`` in a process pool.

    Returns the results in task order, and whether every task was sent.
    About two tasks per worker wait at once, so ``tasks`` is drawn as
    the pool frees up, and none is sent once the deadline has passed.
    """
    # Imported here: the pool pulls in multiprocessing, which only
    # parallel searches need.
    from concurrent.futures import ProcessPoolExecutor

    results = []
    waiting: deque = deque()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for task in tasks:
            if deadline is not None and time.monotonic() > deadline:
                sent = False
                break
            waiting.append(pool.submit(_scan_task, task))
            if len(waiting) > 2 * jobs:
                results.append(waiting.popleft().result())
        else:
            sent = True
        results.extend(f.result() for f in waiting)
    return results, sent


# ---------------------------------------------------------------------------
# the search proper


def search_blowups(base: Graph, budget: SearchBudget, *, jobs: int = 1) -> SearchReport:
    """Test every in-budget part assignment on ``base`` for uniformity.

    ``specs_examined`` counts the assignments decided: those the screen
    decides, whether it reaches them or rules them out by a dropped
    candidate or an abandoned branch, and those decided with them by
    symmetry, one per screened assignment in every other size tuple of
    its size tuple's orbit under Aut(base).  Assignments with a size-1
    part on a cut vertex, and over-size ones, are outside the budgeted
    space.  A finished search has decided every assignment in the space
    exactly once.  ``exhausted`` is True iff the whole space was covered,
    so an empty ``found`` with ``exhausted=True`` is a proof within the
    budget.
    ``found`` lists every hit in assignment order; one per orbit of
    Aut(base) is verified, as its images have isomorphic blow-ups.
    """
    if base.n < 2:
        raise ValueError("search base needs at least two vertices")
    if not is_connected(base):
        raise ValueError("search base must be connected")
    cands = candidate_parts(budget)
    cuts = set(cut_vertices(base))
    cand_lists = []
    for v in range(base.n):
        if v in cuts:
            cand_lists.append(tuple(c for c in cands if c.size > 1))
        else:
            cand_lists.append(cands)
    space = prod(len(c) for c in cand_lists)
    sizes = [list(dict.fromkeys(c.size for c in cands)) for cands in cand_lists]
    tuples = prod(map(len, sizes))
    # An automorphism maps cut vertices to cut vertices, so it maps
    # cand_lists onto itself.
    order, gens = automorphisms(base)
    moves = [itemgetter(*p) for p in gens]
    reps = _size_orbits(sizes, moves, budget.max_total_vertices)
    # CLOCK_MONOTONIC is system-wide, so workers can compare against a
    # deadline taken here, and a wall-clock step cannot move it.
    deadline = time.monotonic() + budget.time_limit if budget.time_limit is not None else None

    # one task run inline, or slices of the orbits for a process pool;
    # there are at least tuples / order orbits, so a slice is at most an
    # eighth of a worker's share.  Either way the orbits are listed as
    # the screen needs them.
    if jobs <= 1 or space < 256:
        results = [_scan_task((base, cand_lists, reps, deadline))]
        listed = True
    else:
        size = min(_POOL_SLICE_CAP, -(-tuples // (order * jobs * 8)))
        slices = iter(lambda: list(islice(reps, size)), [])
        tasks = ((base, cand_lists, piece, deadline) for piece in slices)
        results, listed = _run_pool(tasks, jobs, deadline)
    # each orbit's first screened hit is verified, and all of its images
    # are listed; sorted index tuples are in assignment order
    images: set[tuple[int, ...]] = set()
    for _, hits, _ in results:
        for hit in hits:
            if hit not in images:
                _verify_hit(BlowupSpec(base, tuple(map(getitem, cand_lists, hit))))
                images.update(orbit(hit, moves))
    found = [BlowupSpec(base, tuple(map(getitem, cand_lists, hit))) for hit in sorted(images)]
    return SearchReport(
        base=base,
        budget=budget,
        found=found,
        exhausted=listed and all(completed for _, _, completed in results),
        specs_examined=sum(examined for examined, _, _ in results),
    )


# ---------------------------------------------------------------------------
# lemma verification: which middle/end part maximizes the x/y ratio


# the part class each slot's lemma says maximizes the ratio
_LEMMA_WINNERS = {"first": "complete", "second": "edgeless"}


def lemma_table(
    slot: str, m: int, context: tuple[int, int, int]
) -> list[tuple[Graph, Fraction]]:
    """Ratio value for every class H on m vertices placed in ``slot`` of
    path4, extremal-pair convention.

    Slot "second" is path4[K_a, H, I_c, K_d] with context (a, c, d);
    slot "first" is path4[H, I_b, I_c, K_d] with context (b, c, d).
    The table is a batch of one for ``_lemma_tables``: one
    ``GeodesicPlan.numerators`` entry in which the slot lists every
    class and the other three slots their one part, and each row is
    ``delta_extremal``'s ratio read off the entry's global numerators
    and that class's shares inside parts.
    """
    return _lemma_tables(slot, m, [context])[0]


def _lemma_tables(slot: str, m: int, contexts) -> list[list[tuple[Graph, Fraction]]]:
    """``lemma_table`` for each of ``contexts``, from one
    ``GeodesicPlan.numerators`` call with one entry per context."""
    if slot not in _LEMMA_WINNERS:
        raise ValueError(f"unknown lemma slot {slot!r}")
    if type(m) is not int:
        raise ValueError(f"lemma verification needs an integer m, not {m!r}")
    if not (1 <= m <= _LEMMA_SIZE_CAP):
        raise ValueError(f"lemma verification supports 1 <= m <= {_LEMMA_SIZE_CAP}")
    classes = enumerate_graphs(m)
    # the cached all-family candidates, so every table of one m shares
    # the descriptors and their common-neighbor lists
    varying = [p for p in _candidates(FAMILY_ALL, m) if p.size == m]
    v = 0 if slot == "first" else 1
    batch = []
    for context in contexts:
        x, c, d = context
        if min(context) < 1:
            raise ValueError("context part sizes must be positive")
        if slot == "first":
            head = [varying, (PartDescriptor.independent(x),)]
        else:
            head = [(PartDescriptor.clique(x),), varying]
        batch.append(head + [(PartDescriptor.independent(c),), (PartDescriptor.clique(d),)])
    base = generate("path", 4)
    tables = []
    for slots, (_, glob, local) in zip(batch, geodesic_plan(base).numerators(batch)):
        sizes = [s[0].size for s in slots]
        fixed = [loc[0] for loc in local]
        rows = []
        for h, cand in zip(classes, local[v]):
            fixed[v] = cand
            rows.append((h, _delta(base.adjacency, sizes, glob, fixed, 0, 1).value))
        tables.append(rows)
    return tables


def lemma_grid(slot: str, m: int, grid_max: int) -> list:
    """``(context, rows, best, holds)`` for every context in
    {1..grid_max}^3, in product order: the context's ``lemma_table``
    rows, their maximum ratio, and whether the class the slot's lemma
    names (edgeless second, complete first) attains that maximum.
    The whole grid is one ``_lemma_tables`` batch."""
    if type(grid_max) is not int:
        raise ValueError(f"lemma grid needs an integer grid_max, not {grid_max!r}")
    if grid_max < 1:
        raise ValueError("lemma grid needs grid_max >= 1")
    contexts = list(product(range(1, grid_max + 1), repeat=3))
    tables = _lemma_tables(slot, m, contexts)  # checks slot and m first
    want = 0 if _LEMMA_WINNERS[slot] == "edgeless" else m * (m - 1) // 2
    grid = []
    for context, rows in zip(contexts, tables):
        best = max(v for _, v in rows)
        grid.append((context, rows, best, any(v == best for h, v in rows if h.edge_count == want)))
    return grid


# ---------------------------------------------------------------------------
# the census: one exhaustive search per small base


def census(kind: str, n_max: int, budget: SearchBudget, *, jobs: int = 1) -> list[SearchReport]:
    """Search every base of ``kind`` on up to ``n_max`` vertices.

    The bases are the classes of ``enumerate_graphs`` that are
    connected, have a cut vertex and have diameter >= 3, in its order;
    ``"trees"`` keeps those with n - 1 edges.  Every tree on three or
    more vertices has a cut vertex, so these are all the trees of
    diameter >= 3, and an empty ``found`` on each is the paper's theorem
    within the budget.  A non-empty ``found`` on any base would be a
    counterexample to the expectation that no cut-vertex base has a
    uniform blow-up.
    """
    if kind not in ("trees", "cut-vertex"):
        raise ValueError(f"unknown census kind {kind!r}")
    # type(), not isinstance(): True must not pass for 1
    if type(n_max) is not int or not 1 <= n_max <= GRAPH_ENUM_CAP:
        raise ValueError(f"census needs an integer 1 <= n_max <= {GRAPH_ENUM_CAP}, not {n_max!r}")
    return [
        search_blowups(g, budget, jobs=jobs)
        for n in range(1, n_max + 1)
        for g in enumerate_graphs(n)
        if (kind == "cut-vertex" or g.edge_count == n - 1)
        and is_connected(g)
        and cut_vertices(g)
        and diameter(g) >= 3
    ]
