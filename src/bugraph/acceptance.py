"""End-to-end verification suite.

Twelve numbered checks cover the whole library: agreement of the two
betweenness algorithms over every small graph class, uniformity of the
stock blow-up families (with negative controls), the exact
decomposition identity, the part-by-part values the search screens
with, and the closed forms on a seeded random corpus,
the extremal-part lemmas on full grids, the path-4 impossibility, the
tree sweeps, and a cut-vertex exploration.  A registry collects every
betweenness-uniform graph the run produces and every claimed-empty
search so the final sanity check can audit them in one place.
It also holds the one corpus pass that criteria 6 and 7 share, built
afresh by each ``run_suite`` when the first of the two runs.
Two drivers carry the repeated checks: ``_uniform_blowups`` builds,
decides and registers the stock families of criteria 3-5, and
``_record_search`` registers a search and words the fault of a claimed
empty search that found something or stopped early (criteria 9, 10).
``run_suite`` returns the results and prints nothing; the
``verify-paper`` command prints their verdict lines and the summary.

The path-4 impossibility is proved for every size tuple, not sampled.
The integer slacks s1, s2 of the two inequalities that uniformity of
K_a, I_b, I_c, K_d would force satisfy

    c*s1 + b*s2 == -(a+c)*(b+d)*(a*c*(c+d) + b*d*(a+b)),

whose right side is negative for positive sizes, and each slack equals
its inequality's rational gap times the cleared denominators.  Every
side of these equations has degree <= 4 in each size, so checking them
on the box {1..5}^4 proves them for all sizes (a polynomial of degree
<= k in each variable that vanishes on S^4 with |S| > k is zero).  An
exhausted search over I/K blow-ups of the 4-path backs it up.

``level`` widens the path-4 search budget: "quick" scans part sizes up
to 4, "full" up to 6.  Results are deterministic for either level and
any job count.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb

from .betweenness import (
    UniformityResult,
    _exact_numerators,
    _split_numerators,
    betweenness_exact,
    betweenness_oracle,
    profile_uniformity,
)
from .blowup import (
    BlowupSpec,
    PartDescriptor,
    _decomposition_numerators,
    _part_numerators,
    _specs_numerators,
    blow_up,
)
from .constructions import (
    _p4_slacks,
    p2_clique_spec,
    p3_independent_spec,
    star_spec,
)
from .graphs import (
    Graph,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_isomorphic,
    is_two_connected,
    serialize_graph6,
)
from .search import (
    FAMILY_ALL,
    FAMILY_IK,
    SearchBudget,
    SearchReport,
    census,
    lemma_grid,
    search_blowups,
)

__all__ = ["CriterionResult", "run_suite", "CRITERIA"]

_CORPUS_SEED = 20260819
_CORPUS_SIZE = 200
# Graph classes on n = 0..7 vertices (OEIS A000088): criterion 1 checks
# that the enumeration it runs both engines over is complete.
_GRAPH_CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)


class CriterionResult(namedtuple("CriterionResult", "number name passed detail seconds")):
    """One criterion's verdict, its detail line and its run time."""

    __slots__ = ()


class _Registry:
    """Everything later audited by the sanity criterion, and the corpus
    pass that criteria 6 and 7 share, built by whichever runs first."""

    def __init__(self):
        self.uniform_graphs: dict[Graph, str] = {}  # graph -> source
        self.empty_claims: list[tuple[str, SearchReport]] = []

    @cached_property
    def corpus_verdicts(self) -> tuple[tuple[bool, str], tuple[bool, str]]:
        return _corpus_pass()

    def add_uniform(self, g: Graph, source: str) -> None:
        # only connected graphs may enter: the two-connectivity fact is
        # about connected uniform graphs.  Every blow-up of a connected
        # base is connected; criterion 1 filters its graph classes itself.
        self.uniform_graphs.setdefault(g, source)

    def add_claim(self, source: str, report: SearchReport) -> None:
        if not report.found:
            self.empty_claims.append((source, report))


def _record_search(reg: _Registry, source: str, report: SearchReport) -> str | None:
    """Register the search's hits and its claim; return the fault of a
    search that found something or was not exhausted, else None."""
    for spec in report.found:
        reg.add_uniform(blow_up(spec).graph, source)
    reg.add_claim(source, report)
    if report.found or not report.exhausted:
        return f"{source}: found={len(report.found)}, exhausted={report.exhausted}"
    return None


def _uniform_blowups(reg: _Registry, source: str, specs, common=None):
    """Blow up, decide exactly and register each spec while it is
    uniform (at ``common``, when given); return the first spec that is
    not, with its verdict, or None.  Specs that blow up to one graph
    share one decision."""
    verdicts: dict[Graph, UniformityResult] = {}
    for spec in specs:
        g = blow_up(spec).graph
        uni = verdicts.get(g)
        if uni is None:
            uni = verdicts[g] = profile_uniformity(betweenness_exact(g))
        if not uni.uniform or (common is not None and uni.common != common):
            return spec, uni
        reg.add_uniform(g, source)
    return None


def _same_values(den_a: int, a, den_b: int, b) -> bool:
    """Whether the numerators ``a`` over ``den_a`` and ``b`` over
    ``den_b`` are the same rationals, entry by entry."""
    return len(a) == len(b) and all(x * den_b == y * den_a for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# criteria


def _c1_oracle_equivalence(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    checked = 0
    for n, expected in enumerate(_GRAPH_CLASS_COUNTS):
        classes = enumerate_graphs(n)
        if len(classes) != expected:
            return False, f"{len(classes)} graph classes on {n} vertices, expected {expected}"
        for g in classes:
            den, exact = _exact_numerators(g)
            oracle_den, oracle, _ = _split_numerators(g, range(g.n))
            if not _same_values(den, exact, oracle_den, oracle):
                return False, f"algorithms disagree on {serialize_graph6(g)}"
            checked += 1
            # uniform exactly when every numerator over den is the same
            if g.n >= 3 and len(set(exact)) == 1 and is_connected(g):
                reg.add_uniform(g, "enumeration")
    return True, f"both algorithms agree on all {checked} classes with <= 7 vertices"


def _c2_c4_blowup(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    spec = BlowupSpec(
        base=generate("path", 3),
        parts=(
            PartDescriptor.clique(1),
            PartDescriptor.independent(2),
            PartDescriptor.clique(1),
        ),
    )
    g = blow_up(spec).graph
    if not is_isomorphic(g, generate("cycle", 4)):
        return False, f"{spec.label()} is not the 4-cycle"
    uni = profile_uniformity(betweenness_oracle(g))
    if not (uni.uniform and uni.common == Fraction(1, 2)):
        return False, f"{spec.label()} profile wrong: {uni}"
    reg.add_uniform(g, "path3 unit blow-up")
    return True, f"{spec.label()} is the 4-cycle, uniform at 1/2"


def _c3_p3_family(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    specs = (p3_independent_spec(a, b) for a in range(1, 7) for b in range(1, 7))
    fault = _uniform_blowups(reg, "path3 family", specs)
    if fault:
        return False, f"{fault[0].label()} not uniform"
    return True, "all 36 path3 independent-set blow-ups uniform (sizes 1..6)"


def _c4_star_family(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    specs = [star_spec(sizes) for k in range(1, 5) for sizes in product(range(1, 5), repeat=k)]
    fault = _uniform_blowups(reg, "star family", specs)
    if fault:
        return False, f"{fault[0].label()} not uniform"
    # negative controls: a center of the wrong size must break uniformity
    controls = 0
    for sizes in ((1, 1), (2, 1), (2, 2, 2), (1, 2, 3), (4, 4, 4, 4)):
        total = sum(sizes)
        for center in (total - 1, total + 1):
            if center < 1:
                continue
            spoiled = BlowupSpec(
                base=generate("star", len(sizes)),
                parts=tuple(PartDescriptor.independent(s) for s in sizes)
                + (PartDescriptor.independent(center),),
            )
            uni = profile_uniformity(betweenness_exact(blow_up(spoiled).graph))
            if uni.uniform:
                return False, f"negative control {spoiled.label()} is uniform"
            controls += 1
    return True, f"{len(specs)} star blow-ups uniform; {controls} perturbed centers all non-uniform"


def _c5_p2_family(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    specs = (p2_clique_spec(m) for m in range(1, 9))
    fault = _uniform_blowups(reg, "path2 clique family", specs, common=0)
    if fault:
        spec, uni = fault
        return False, f"{spec.label()}: {uni}"
    return True, "path2 clique blow-ups uniform at 0 for sizes 1..8"


def _corpus_specs() -> list[BlowupSpec]:
    rng = random.Random(_CORPUS_SEED)
    bases = [t for n in range(2, 6) for t in enumerate_trees(n)]
    pool = [g for s in (1, 2, 3) for g in enumerate_graphs(s)]
    specs = []
    for _ in range(_CORPUS_SIZE):
        base = rng.choice(bases)
        parts = tuple(PartDescriptor.for_graph(rng.choice(pool)) for _ in range(base.n))
        specs.append(BlowupSpec(base=base, parts=parts))
    return specs


def _corpus_pass() -> tuple[tuple[bool, str], tuple[bool, str]]:
    """The verdicts of criteria 6 and 7, from one pass over the corpus.

    Per spec: one ``blow_up``, one exact profile, one closed form and
    one per-pair oracle split, read by both checks; the closed forms
    come from ``_specs_numerators``, one batch per corpus base.  Each
    is a list of integer numerators over its own denominator, and the
    checks compare them by cross-multiplication:
    the closed form's per-vertex sums and the oracle's decomposition
    totals against the exact profile (criterion 6), and the closed
    form's global, neighbor and own shares against the oracle's
    (criterion 7).  Each check keeps its first failure, and the pass
    stops once both have failed.  A passing check has seen every corpus
    vertex, so both pass messages read one vertex count.  An exception
    inside the pass is not cached, so each criterion reports it as its
    own crash.
    """
    c6 = c7 = None  # first failure message of each
    vertices = 0
    specs = _corpus_specs()
    for spec, numerators in zip(specs, _specs_numerators(specs)):
        bg = blow_up(spec)
        vertices += bg.graph.n
        den, profile = _exact_numerators(bg.graph)
        d, glob, local = numerators
        if c6 is None:
            values = [x for vals in _part_numerators(spec, numerators) for x in vals]
            if not _same_values(d, values, den, profile):
                c6 = f"part-by-part values differ from the exact profile of {spec.label()}"
        for v in range(bg.graph.n):
            split_den, split_glob, split_own, split_nbr = _decomposition_numerators(bg, v)
            total = split_glob + split_own + sum(split_nbr.values())
            if c6 is None and total * den != profile[v] * split_den:
                c6 = f"decomposition mismatch at vertex {v} of {spec.label()}"
            if c7 is None:
                k = bg.part_of[v]
                nbrs = spec.base.adjacency[k]
                own = local[k][1]
                i = v - bg.part_vertices[k][0]
                for share, differs in (
                    ("global", glob[k] * split_den != split_glob * d),
                    (
                        "neighbor",
                        split_nbr.keys() != set(nbrs)
                        or any(local[j][0] * split_den != split_nbr[j] * d for j in nbrs),
                    ),
                    ("own", (own[i] if own else 0) * split_den != split_own * d),
                ):
                    if differs:
                        c7 = f"{share} share of part {k} of {spec.label()} disagrees at vertex {v}"
                        break
        if c6 is not None and c7 is not None:
            break
    c6_pass = True, (
        f"identity and part-by-part values exact at all {vertices} vertices "
        f"of {_CORPUS_SIZE} random specs"
    )
    c7_pass = True, (
        f"global share at {vertices}, neighbor shares at "
        f"{vertices} and own share at {vertices} vertices "
        f"of {_CORPUS_SIZE} random specs all exact"
    )
    return ((False, c6) if c6 else c6_pass), ((False, c7) if c7 else c7_pass)


def _c6_decomposition(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    return reg.corpus_verdicts[0]


def _c7_closed_forms(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    return reg.corpus_verdicts[1]


def _c8_lemmas(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    for m in range(1, 5):
        for slot, lemma, names in (
            ("second", "independent", "a,c,d"),
            ("first", "clique", "b,c,d"),
        ):
            for context, _, _, holds in lemma_grid(slot, m, 3):
                if not holds:
                    at = ",".join(map(str, context))
                    return False, f"{lemma}-part lemma fails at m={m}, ({names})=({at})"
    return True, "both extremal-part lemmas hold for m <= 4 over the full 27-point grids"


def _p4_chain_fault() -> str | None:
    """Where the path-4 inequality chain fails on the box {1..5}^4, or
    None.  Both equations have degree <= 4 in each size, so holding on
    the box proves them for every positive size tuple."""
    for a, b, c, d in product(range(1, 6), repeat=4):
        s1, s2 = _p4_slacks(a, b, c, d)
        if c * s1 + b * s2 != -(a + c) * (b + d) * (a * c * (c + d) + b * d * (a + b)):
            return f"c*s1 + b*s2 is not -(a+c)(b+d)(ac(c+d) + bd(a+b)) at {(a, b, c, d)}"
        # the identity holds whatever C(b,2) and C(c,2) are, since they
        # cancel in the sum: tie each slack to the paper's inequality,
        #   s1 / ((a+c)b(b+d)) = C(b,2)/(a+c) - C(c,2)/(b+d) - a(c+d)/b,
        #   s2 / ((b+d)c(a+c)) = C(c,2)/(b+d) - C(b,2)/(a+c) - d(a+b)/c,
        # each cross-multiplied by its positive denominator
        cb, cc = comb(b, 2), comb(c, 2)
        if s1 != cb * b * (b + d) - cc * (a + c) * b - a * (c + d) * (a + c) * (b + d) or (
            s2 != cc * c * (a + c) - cb * (b + d) * c - d * (a + b) * (b + d) * (a + c)
        ):
            return f"slacks are not the cleared path4 inequalities at {(a, b, c, d)}"
    return None


def _c9_p4_infeasible(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    fault = _p4_chain_fault()
    if fault:
        return False, fault
    max_size = 6 if level == "full" else 4
    budget = SearchBudget(part_family=FAMILY_IK, max_part_size=max_size)
    report = search_blowups(generate("path", 4), budget, jobs=jobs)
    fault = _record_search(reg, "path4 search", report)
    if fault:
        return False, fault
    return True, (
        "the path4 inequalities never hold together at any positive sizes: their "
        "cleared slacks satisfy c*s1 + b*s2 = -(a+c)(b+d)(ac(c+d) + bd(a+b)), "
        "an identity of degree <= 4 checked on {1..5}^4; "
        f"path4 search (sizes <= {max_size}) exhausted {report.specs_examined} specs, none uniform"
    )


def _c10_tree_sweeps(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    searched = 0
    for n_max, budget, sweep in (
        (6, SearchBudget(part_family=FAMILY_IK, max_part_size=4), "I/K sweep"),
        (5, SearchBudget(part_family=FAMILY_ALL, max_part_size=3), "all-parts sweep"),
    ):
        for report in census("trees", n_max, budget, jobs=jobs):
            fault = _record_search(reg, f"tree {serialize_graph6(report.base)} {sweep}", report)
            if fault:
                return False, fault
            searched += 1
    return True, (
        f"{searched} exhaustive tree-base searches all empty "
        "(long trees <= 6 with I/K parts <= 4; <= 5 with arbitrary parts <= 3)"
    )


def _c12_cut_conjecture(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    budget = SearchBudget(part_family=FAMILY_IK, max_part_size=4)
    reports = census("cut-vertex", 5, budget, jobs=jobs)
    hits = []
    for report in reports:
        _record_search(reg, f"cut-vertex base {serialize_graph6(report.base)}", report)
        hits.extend(report.found)
        if not report.exhausted:
            return False, f"search on {serialize_graph6(report.base)} not exhausted"
    if hits:
        # a uniform blow-up of a cut-vertex base would be a counterexample
        # worth reporting loudly, not a defect in this library
        labels = ", ".join(s.label() for s in hits)
        return True, f"COUNTEREXAMPLES to the cut-vertex expectation: {labels}"
    return True, f"no uniform blow-ups over {len(reports)} cut-vertex bases (sizes <= 4)"


def _c11_sanity(reg: _Registry, level: str, jobs: int) -> tuple[bool, str]:
    for g, source in reg.uniform_graphs.items():
        if g.n >= 3 and not is_two_connected(g):
            return False, f"uniform graph {serialize_graph6(g)} from {source} is not two-connected"
    for source, report in reg.empty_claims:
        if not report.exhausted:
            return False, f"empty claim from {source} was not exhausted"
    return True, (
        f"{len(reg.uniform_graphs)} distinct uniform graphs all two-connected; "
        f"{len(reg.empty_claims)} empty-search claims all exhausted"
    )


CRITERIA = [
    (1, "dual-algorithm agreement on every small graph", _c1_oracle_equivalence),
    (2, "unit path3 blow-up is the uniform 4-cycle", _c2_c4_blowup),
    (3, "path3 independent-set family uniform", _c3_p3_family),
    (4, "star family uniform with negative controls", _c4_star_family),
    (5, "path2 clique family uniform at zero", _c5_p2_family),
    (6, "decomposition identity and part-by-part values on random corpus", _c6_decomposition),
    (7, "closed-form shares match first-principles decomposition at every vertex", _c7_closed_forms),
    (8, "extremal-part lemmas on full grids", _c8_lemmas),
    (9, "path4 infeasibility: inequalities and search", _c9_p4_infeasible),
    (10, "tree sweeps: no uniform blow-up of a long tree", _c10_tree_sweeps),
    (11, "sanity: uniform graphs two-connected, claims exhausted", _c11_sanity),
    (12, "cut-vertex bases: exploratory search", _c12_cut_conjecture),
]


def run_suite(level: str = "quick", jobs: int = 1) -> list[CriterionResult]:
    """Run all criteria and return their results; nothing is printed.

    The sanity audit (11) runs last so it sees everything the other
    criteria produced, but results are returned in numeric order.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    reg = _Registry()
    results = []
    ordered = [c for c in CRITERIA if c[0] != 11] + [c for c in CRITERIA if c[0] == 11]
    for number, name, fn in ordered:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(reg, level, jobs)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
            passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, passed, detail, time.perf_counter() - t0))
    results.sort(key=lambda r: r.number)
    return results
