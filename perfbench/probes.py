"""Layer probes of the traced run: public calls that no workload pass
times on its own (small graphs, blow-up helpers, CLI start-up pieces,
cold enumeration).  Each returns per-layer metrics as {name: (value, unit)}.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import product
from statistics import median
from time import perf_counter

import bugraph
from bugraph.blowup import BlowupSpec, PartDescriptor
from bugraph.graphs import canonical_relabel
from workloads import ROOT, child_env, run_child

# A probe repeats its call list until this much time has passed, so
# that sub-millisecond calls are timed over enough repetitions.
MIN_PROBE_SECONDS = 0.3


def _per_call(rec, name: str, fn, items) -> float:
    """Mean scaled seconds per call of ``fn`` over ``items``."""
    reps = 0
    with rec.call("probe." + name, calls=len(items)) as span:
        t0 = perf_counter()
        while True:
            for x in items:
                fn(x)
            reps += 1
            if perf_counter() - t0 >= MIN_PROBE_SECONDS:
                break
        span["reps"] = reps
    return rec.calls[-1][1] / (reps * len(items))


def _blowup_corpus(rng: random.Random, size: int) -> list[BlowupSpec]:
    """Random small blow-ups: tree bases on 2..5 vertices, parts drawn
    from every graph class on 1..3 vertices."""
    bases = [t for n in range(2, 6) for t in bugraph.enumerate_trees(n)]
    pool = [g for s in (1, 2, 3) for g in bugraph.enumerate_graphs(s)]
    specs = []
    for _ in range(size):
        base = rng.choice(bases)
        parts = tuple(PartDescriptor.for_graph(rng.choice(pool)) for _ in range(base.n))
        specs.append(BlowupSpec(base=base, parts=parts))
    return specs


def library_probes(rec, seed: int) -> dict:
    rng = random.Random(seed)
    classes = [g for n in range(8) for g in bugraph.enumerate_graphs(n)]
    shuffled = []
    for g in classes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled.append(g.relabel(perm))
    strings = [bugraph.serialize_graph6(g) for g in classes]
    specs = _blowup_corpus(rng, 200)
    vertices = [(bg, v) for bg in map(bugraph.blow_up, specs[:40]) for v in range(bg.graph.n)]
    path4 = bugraph.generate("path", 4)
    lemma_specs = [
        BlowupSpec(
            base=path4,
            parts=(
                PartDescriptor.clique(a),
                PartDescriptor.for_graph(h),
                PartDescriptor.independent(c),
                PartDescriptor.clique(d),
            ),
        )
        for h in [g for m in (1, 2, 3) for g in bugraph.enumerate_graphs(m)]
        for a, c, d in product((1, 2), repeat=3)
    ]
    tuples = [bugraph.P4SizeTuple(*t) for t in product(range(1, 11), repeat=4)]
    return {
        "graphs.canonical_relabel_us": (1e6 * _per_call(rec, "canonical_relabel", canonical_relabel, shuffled), "us"),
        "graphs.parse_graph6_us": (1e6 * _per_call(rec, "parse_graph6", bugraph.parse_graph6, strings), "us"),
        "betweenness.exact_small_us": (1e6 * _per_call(rec, "exact_small", bugraph.betweenness_exact, classes), "us"),
        "betweenness.oracle_small_us": (1e6 * _per_call(rec, "oracle_small", bugraph.betweenness_oracle, classes), "us"),
        "blowup.blow_up_us": (1e6 * _per_call(rec, "blow_up", bugraph.blow_up, specs), "us"),
        "blowup.decompose_us": (
            1e6 * _per_call(rec, "decompose", lambda job: bugraph.decompose_betweenness(*job), vertices),
            "us",
        ),
        "blowup.delta_extremal_ms": (1e3 * _per_call(rec, "delta_extremal", bugraph.delta_extremal, lemma_specs), "ms"),
        "constructions.p4_check_us": (
            1e6 * _per_call(rec, "p4_check", bugraph.p4_infeasibility_check, tuples),
            "us",
        ),
    }


def _child_calls(rec, *args: str) -> list[float]:
    """Scaled seconds of each call a child interpreter timed."""
    first = len(rec.calls)
    with rec.span("probe." + args[0]):
        proc = run_child(*args)
        if proc.returncode != 0:
            raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-500:]}")
        rec.adopt(json.loads(proc.stdout.splitlines()[-1]))
    return [scaled for _, scaled, _ in rec.calls[first:]]


def startup_probes(rec, rounds: int) -> dict:
    """Bare interpreter launch-to-exit, and cold ``import bugraph`` timed
    inside a fresh interpreter."""
    bare, imports = [], []
    for _ in range(rounds):
        with rec.call("probe.bare_python"):
            subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True, timeout=60)
        bare.append(rec.calls[-1][1])
        imports.extend(_child_calls(rec, "import"))
    return {
        "cli.bare_python_ms": (1e3 * median(bare), "ms"),
        "cli.import_ms": (1e3 * median(imports), "ms"),
    }


def enumeration_probe(rec) -> dict:
    graphs, trees = _child_calls(rec, "enum")
    return {
        "graphs.enumerate_graphs_s": (graphs, "s"),
        "graphs.enumerate_trees_s": (trees, "s"),
    }
