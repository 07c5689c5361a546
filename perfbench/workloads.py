"""The four workloads: inputs built from a seed, one pass of public
bugraph calls, and the correctness gate that counts failed calls.

Every search runs with ``jobs=1``: the target machine has two shared
cores, so parallel scaling is not what this benchmark measures.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import deque
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import bugraph
import bugraph.search
from bugraph.blowup import BlowupSpec, PartDescriptor

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def child_env() -> dict:
    """Environment for fresh interpreters: the checkout's ``src`` first,
    and no BUGRAPH_JOBS so every search stays sequential."""
    env = dict(os.environ)
    env.pop("BUGRAPH_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# small independent graph helpers used by the gates


def _bfs(adj, s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def geodesic_interior_total(g) -> int:
    """Sum over unordered reachable pairs of d(u, v) - 1.

    Every geodesic between u and v has d(u, v) - 1 interior vertices,
    so this is exactly the sum of all betweenness values.
    """
    total = 0
    for s in range(g.n):
        total += sum(d - 1 for d in _bfs(g.adjacency, s) if d > 0)
    return total // 2


def _tree_code(g) -> str:
    """Canonical string of a tree (AHU encoding rooted at its centre)."""
    adj = g.adjacency
    degree = [len(a) for a in adj]
    leaves = [v for v in range(g.n) if degree[v] <= 1]
    left = g.n
    while left > 2:
        left -= len(leaves)
        nxt = []
        for v in leaves:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        leaves = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in leaves)


def random_connected(n: int, m: int, rng: random.Random):
    """A random spanning tree plus random extra edges, m edges in all."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return bugraph.Graph.from_edges(n, sorted(edges))


def grid(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return bugraph.Graph.from_edges(rows * cols, edges)


def _safe(fn, *args):
    """Result of fn(*args), or the exception it raised (counted as a miss)."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed call
        return exc


class Workload(NamedTuple):
    setup: Callable  # seed -> inputs
    run_pass: Callable  # (inputs, recorder) -> outcomes of one pass
    check: Callable  # (inputs, [outcomes per pass]) -> (attempted, failed)
    rss_of_children: bool  # peak RSS is that of child interpreters


# ---------------------------------------------------------------------------
# sweep: exhaustive search_blowups on fixed bases and budgets


class SweepBase(NamedTuple):
    name: str
    graph6: str
    family: str
    max_size: int
    examined: int  # recorded specs_examined
    hits: tuple[str, ...]  # recorded hit labels, in report order


# Each base sends the screen down a different path: I/K vs explicit
# parts, cut-vertex pruning vs none, hits vs none, symmetric vs not.
SWEEP = (
    SweepBase("path3", "Bg", "ik", 6, 1210, tuple(
        f"Bg[I{a},I{a + b},I{b}]" for a in range(1, 6) for b in range(1, 7 - a)
    )),
    SweepBase("claw", "CF", "ik", 4, 2058, (
        "CF[I1,I1,I1,I3]", "CF[I1,I1,I2,I4]", "CF[I1,I2,I1,I4]", "CF[I2,I1,I1,I4]",
    )),
    SweepBase("cycle5", "Dhc", "ik", 4, 16807, (
        "Dhc[I1,I1,I1,I1,I1]", "Dhc[I2,I2,I2,I2,I2]", "Dhc[K2,K2,K2,K2,K2]",
        "Dhc[I3,I3,I3,I3,I3]", "Dhc[K3,K3,K3,K3,K3]", "Dhc[I4,I4,I4,I4,I4]",
        "Dhc[K4,K4,K4,K4,K4]",
    )),
    SweepBase("path4", "Ch", "ik", 6, 12100, ()),
    SweepBase("chair5", "DC[", "ik", 4, 12348, ()),
    SweepBase("path5_all", "DKK", "all", 3, 10584, ()),
)

# Graph classes on k = 1..5 vertices (OEIS A000088), for the size of
# the "all" family's candidate list.
_CLASSES_ON = (1, 2, 4, 11, 34)


def sweep_space(b: SweepBase) -> int:
    """Size of the unreduced assignment space: candidates ** base order.

    No pruning or symmetry reduction changes it, so it is the fixed
    denominator for ``specs_examined``.
    """
    if b.family == "ik":
        cands = 2 * b.max_size - 1
    else:
        cands = sum(_CLASSES_ON[: b.max_size])
    return cands ** len(bugraph.parse_graph6(b.graph6).adjacency)


def sweep_setup(seed: int):
    order = list(SWEEP)
    random.Random(seed).shuffle(order)
    return [
        (b, bugraph.parse_graph6(b.graph6), bugraph.SearchBudget(part_family=b.family, max_part_size=b.max_size))
        for b in order
    ]


_VERIFY_CALLS = ("blow_up", "betweenness_exact", "betweenness_oracle")


@contextmanager
def _verify_spans(rec):
    """In a traced run, rebind the calls bugraph.search makes to verify
    hits, so hit verification shows as child spans of each search."""
    mod = bugraph.search
    saved = {n: getattr(mod, n) for n in _VERIFY_CALLS if hasattr(mod, n)}
    try:
        for n, fn in saved.items():
            setattr(mod, n, rec.wrap(fn, "search.verify." + n))
        yield
    finally:
        for n, fn in saved.items():
            setattr(mod, n, fn)


def sweep_pass(inputs, rec):
    out = []
    with _verify_spans(rec) if rec.traced else nullcontext():
        for b, base, budget in inputs:
            with rec.call("search_blowups", base=b.name) as span:
                report = _safe(lambda: bugraph.search_blowups(base, budget, jobs=1))
            if span is not None and not isinstance(report, Exception):
                span["specs_examined"] = report.specs_examined
                span["hits"] = len(report.found)
                span["space"] = sweep_space(b)
            out.append((b, report))
    return out


def sweep_check(inputs, passes):
    attempted = failed = 0
    for outcomes in passes:
        for b, report in outcomes:
            attempted += 1
            ok = (
                not isinstance(report, Exception)
                and report.exhausted
                and report.specs_examined == b.examined
                and tuple(s.label() for s in report.found) == b.hits
            )
            failed += not ok
    return attempted, failed


# ---------------------------------------------------------------------------
# exact-bc: betweenness_exact on mid-size graphs; search is bypassed


def bc_setup(seed: int):
    rng = random.Random(seed)
    graphs = [("grid14x14", grid(14, 14))]
    for n in (100, 200, 400):
        graphs.append((f"rand{n}", random_connected(n, 3 * n, rng)))
    # dense blow-ups: geodesic counts and their lcm grow with part sizes
    path7 = BlowupSpec(
        base=bugraph.generate("path", 7),
        parts=tuple(PartDescriptor.independent(s) for s in (2, 3, 5, 7, 4, 6, 3)),
    )
    cycle6 = BlowupSpec(
        base=bugraph.generate("cycle", 6),
        parts=tuple(
            PartDescriptor.independent(12) if i % 2 else PartDescriptor.clique(12)
            for i in range(6)
        ),
    )
    graphs.append(("path7_blowup", bugraph.blow_up(path7).graph))
    graphs.append(("cycle6_blowup", bugraph.blow_up(cycle6).graph))
    return graphs


def bc_pass(inputs, rec):
    out = []
    for name, g in inputs:
        with rec.call("betweenness_exact", graph=name):
            profile = _safe(bugraph.betweenness_exact, g)
        out.append((name, profile))
    return out


def bc_check(inputs, passes):
    """Each profile must sum to the geodesic-interior total and equal
    the oracle's profile; the oracle runs once per graph."""
    want = {}
    for name, g in inputs:
        want[name] = (geodesic_interior_total(g), bugraph.betweenness_oracle(g))
    attempted = failed = 0
    for outcomes in passes:
        for name, profile in outcomes:
            attempted += 1
            total, oracle = want[name]
            ok = (
                not isinstance(profile, Exception)
                and sum(profile, Fraction(0)) == total
                and profile == oracle
            )
            failed += not ok
    return attempted, failed


# ---------------------------------------------------------------------------
# suite: acceptance criteria at full level, each pass in a fresh interpreter

# Criteria 10 and 12 are sweeps, which the sweep workload covers.  The
# sanity audit (11) runs last because it audits what the others recorded.
SUITE_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)


def suite_setup(seed: int):
    # The criteria carry their own fixed corpus seed; nothing to build.
    return SUITE_CRITERIA


def run_child(*args: str, timeout: float = 150) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def suite_pass(inputs, rec):
    with rec.span("suite.interpreter"):
        proc = run_child("suite", *map(str, inputs))
        if proc.returncode != 0:
            return RuntimeError(f"suite child exited {proc.returncode}: {proc.stderr[-500:]}")
        spans = json.loads(proc.stdout.splitlines()[-1])
        rec.adopt(spans)
    return [s for s in spans if s["name"] == "criterion"]


def suite_check(inputs, passes):
    attempted = failed = 0
    for outcome in passes:
        attempted += len(inputs)
        if isinstance(outcome, Exception) or [s["number"] for s in outcome] != list(inputs):
            failed += len(inputs)
        else:
            failed += sum(not s["passed"] for s in outcome)
    return attempted, failed


# ---------------------------------------------------------------------------
# cli: sequential cold launches, one at a time

LAUNCH = "import sys; from bugraph.cli import main; sys.exit(main(sys.argv[1:]))"

SEARCH_LINE = "Ch\t400\t0\ttrue"  # recorded: 5 * 4 * 4 * 5 specs, no hit
TREES_ON_8 = 23


def cli_setup(seed: int):
    rng = random.Random(seed)
    while True:
        g = random_connected(30, 60, rng)
        if not bugraph.is_betweenness_uniform(g).uniform:
            break
    irregular = bugraph.serialize_graph6(g)
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    uniform = bugraph.serialize_graph6(bugraph.blow_up(bugraph.p3_independent_spec(a, b)).graph)
    return [
        ("bc", ["bc", "-g", irregular, "--literal"]),
        ("uniform_ok", ["uniform", "-g", uniform, "--literal"]),
        ("uniform_not", ["uniform", "-g", irregular, "--literal"]),
        ("construct", ["construct", "star", "1", "2", "3"]),
        ("search", ["search", "-g", "Ch", "--literal", "--max-size", "3", "--tsv"]),
        ("enum", ["enum", "trees", "-n", "8"]),
    ]


def launch(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", LAUNCH, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )


def cli_pass(inputs, rec):
    out = []
    for label, argv in inputs:
        with rec.call("cli", command=label):
            proc = _safe(launch, argv)
        out.append((label, proc))
    return out


def _cli_valid(label: str, argv: list[str], rc: int, stdout: str) -> bool:
    """Exit code and output of one command checked from first principles."""
    if label == "search":
        return rc == 0 and stdout.strip() == SEARCH_LINE
    if label == "enum":
        trees = [bugraph.parse_graph6(line) for line in stdout.split()]
        return (
            rc == 0
            and len(trees) == TREES_ON_8
            and all(t.n == 8 and len(t.edges) == 7 and -1 not in _bfs(t.adjacency, 0) for t in trees)
            and len({_tree_code(t) for t in trees}) == TREES_ON_8
        )
    obj = json.loads(stdout)
    if label == "construct":
        g = bugraph.parse_graph6(obj["graph6"])
        common = Fraction(obj["verification"]["common"])
        return (
            rc == 0
            and g.n == 12
            and obj["verification"]["uniform"] is True
            and bugraph.betweenness_oracle(g) == [common] * g.n
        )
    oracle = bugraph.betweenness_oracle(bugraph.parse_graph6(argv[2]))
    if label == "bc":
        return rc == 0 and obj["n"] == len(oracle) and [Fraction(v) for v in obj["values"]] == oracle
    if label == "uniform_ok":
        return rc == 0 and obj["uniform"] is True and [Fraction(obj["common"])] * len(oracle) == oracle
    if label == "uniform_not":
        return rc == 10 and obj["uniform"] is False and len(set(oracle)) > 1
    raise ValueError(label)


def cli_check(inputs, passes):
    """The first output of each command is checked from first principles;
    every later launch of it must repeat that output exactly."""
    argv_of = dict(inputs)
    valid: dict[str, tuple[int, str] | None] = {}
    attempted = failed = 0
    for outcomes in passes:
        for label, proc in outcomes:
            attempted += 1
            if isinstance(proc, Exception):
                failed += 1
                continue
            got = (proc.returncode, proc.stdout)
            if label not in valid:
                ok = _safe(_cli_valid, label, argv_of[label], *got)
                valid[label] = got if ok is True else None
            failed += valid[label] != got
    return attempted, failed


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_pass, sweep_check, False),
    "exact-bc": Workload(bc_setup, bc_pass, bc_check, False),
    "suite": Workload(suite_setup, suite_pass, suite_check, True),
    "cli": Workload(cli_setup, cli_pass, cli_check, True),
}
