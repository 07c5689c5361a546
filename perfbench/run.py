"""The bugraph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it times the package under ``src``
from outside, through its public functions.  With ``--trace 0`` it
repeats passes over the workload for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it makes one traced pass of
every workload plus the layer probes and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md in this
directory says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import subprocess
import sys
from collections import defaultdict
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("sweep", "exact-bc", "suite", "cli")
SETUP_REPEATS = 7
LADDER = (75, 90, 95, 99, 99.9)
CLI_TRACED_ROUNDS = 3
# What the generic end-to-end metrics are called on each workload.
ALIASES = {
    "sweep": {"wall_s": "sweep_s"},
    "exact-bc": {"wall_s": "bc_s"},
    "suite": {"wall_s": "suite_s"},
    "cli": {"call_p50_ms": "cli_p50_ms", "call_tail_ms": "cli_tail_ms"},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def tail(passes: list[list[float]]) -> tuple[float, float]:
    """(percentile, value) of the call times of all passes: the highest
    rung of LADDER with at least ten calls beyond it, by nearest rank.
    With under 40 calls no rung has; the tail is then the median over
    passes of each pass's slowest call (reported as percentile 100)."""
    xs = sorted(x for p in passes for x in p)
    n = len(xs)
    best = (100, median(max(p) for p in passes))
    for p in LADDER:
        rank = ceil(p * n / 100)
        if n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Scaled launch-to-exit seconds of fresh interpreters that import
    bugraph and build the workload's inputs; work moved into set-up
    shows here."""
    from tracing import Recorder
    from workloads import run_child

    rec = Recorder(traced=False)
    for _ in range(SETUP_REPEATS):
        with rec.call("setup"):
            proc = run_child("setup", workload, str(seed))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    return [scaled for _, scaled, _ in rec.calls]


def timed_pass(workload, inputs, rec):
    """One pass: its outcome, and the (name, scaled s, raw s) of its calls.
    The pass's time is the sum of its calls' times, which leaves out
    the reference samples between them."""
    first = len(rec.calls)
    outcome = workload.run_pass(inputs, rec)
    return outcome, rec.calls[first:]


def untraced_run(workload, inputs, seconds: float):
    """Repeat passes for about ``seconds``; medians over passes.

    A pass starts only if, at the mean pass length so far, at least half
    of it fits before the deadline, so a run overshoots by at most half
    a pass."""
    from tracing import Recorder

    rec = Recorder(traced=False)
    outcomes, passes = [], []
    start = perf_counter()
    while True:
        outcome, timed = timed_pass(workload, inputs, rec)
        outcomes.append(outcome)
        passes.append(timed)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    rss = peak_rss_mb(workload.rss_of_children)
    attempted, failed = workload.check(inputs, outcomes)
    scaled = [[c[1] for c in p] for p in passes]
    pct, tail_s = tail(scaled)
    metrics = {
        "wall_s": (median(map(sum, scaled)), "s"),
        "call_p50_ms": (1e3 * median(map(median, scaled)), "ms"),
        "call_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    calls = len(rec.calls)
    samples = {"wall_s": len(passes), "call_p50_ms": calls, "call_tail_ms": calls, "peak_rss_mb": 1}
    notes = {
        "call_tail_percentile": pct,
        "raw_wall_s": median(sum(c[2] for c in p) for p in passes),
        "raw_call_p50_ms": 1e3 * median(median(c[2] for c in p) for p in passes),
    }
    return metrics, samples, notes, attempted, failed, None


def traced_run(home: str, seed: int):
    """One traced pass of every workload (the home one first), with the
    home pass also run untraced to measure the tracing overhead."""
    import probes
    from tracing import Recorder
    from workloads import WORKLOADS

    inputs = {w: WORKLOADS[w].setup(seed) for w in WORKLOAD_NAMES}
    plain, timed = timed_pass(WORKLOADS[home], inputs[home], Recorder(traced=False))
    untraced = sum(c[1] for c in timed)

    rec = Recorder(traced=True)
    passes = defaultdict(list)
    traced = None
    for w in (home,) + tuple(x for x in WORKLOAD_NAMES if x != home):
        for _ in range(CLI_TRACED_ROUNDS if w == "cli" else 1):
            with rec.span("pass", workload=w):
                outcome, timed = timed_pass(WORKLOADS[w], inputs[w], rec)
            passes[w].append(outcome)
            if traced is None:
                traced = sum(c[1] for c in timed)
    passes[home].append(plain)

    metrics = {}
    metrics.update(probes.startup_probes(rec, CLI_TRACED_ROUNDS))
    metrics.update(probes.enumeration_probe(rec))
    metrics.update(probes.library_probes(rec, seed))
    metrics.update(layer_metrics(rec))
    metrics["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%")

    attempted = failed = 0
    for w, ps in passes.items():
        a, f = WORKLOADS[w].check(inputs[w], ps)
        attempted += a
        failed += f
    samples = {name: 1 for name in metrics}
    for name in metrics:
        if name.startswith("cli.") and name.endswith("_ms"):
            samples[name] = CLI_TRACED_ROUNDS
    return metrics, samples, {}, attempted, failed, rec


def layer_metrics(rec) -> dict:
    """Per-layer metrics read off the span tree of the traced passes."""
    m = {}
    selfs = rec.self_times()
    screen_s = verify_s = examined = space = hits = 0
    cli = defaultdict(list)
    for s in rec.spans:
        if s["name"] == "search_blowups" and "specs_examined" in s:
            m[f"search.s.{s['base']}"] = (rec.scaled(s), "s")
            screen_s += selfs[s["id"]] * rec.scale_of(s)
            examined += s["specs_examined"]
            space += s["space"]
            hits += s["hits"]
        elif s["name"].startswith("search.verify."):
            verify_s += rec.scaled(s)
        elif s["name"] == "betweenness_exact":
            m[f"betweenness.exact_s.{s['graph']}"] = (rec.scaled(s), "s")
        elif s["name"] == "criterion":
            m[f"acceptance.c{s['number']}_s"] = (rec.scaled(s), "s")
        elif s["name"] == "cli":
            cli[s["command"]].append(rec.scaled(s))
    m["betweenness.verify_s"] = (verify_s, "s")
    if examined:
        m["search.screen_us_per_spec"] = (1e6 * screen_s / examined, "us")
    m["search.space"] = (space, "count")
    m["search.specs_examined"] = (examined, "count")
    m["search.hits"] = (hits, "count")
    for command, durs in cli.items():
        m[f"cli.{command}_ms"] = (1e3 * median(durs), "ms")
    return m


def provenance(args, samples: dict, notes: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - absent or unreadable: report none
        numpy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "samples": samples,
        **notes,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bugraph" / "__init__.py").is_file():
        print(f"error: no bugraph package under {SRC}; run from the root of a bugraph checkout", file=sys.stderr)
        return 2
    # One CPU for the whole run, children included: the reference loop
    # then measures the core the timed work runs on (see tracing.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    # The build step: byte-compile once, so that the first run's cold
    # imports cost what every later run's do.
    compileall.compile_dir(str(SRC / "bugraph"), quiet=1)
    import bugraph
    from workloads import WORKLOADS

    if not Path(bugraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bugraph from {bugraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, samples, notes, attempted, failed, rec = traced_run(args.workload, args.seed)
    else:
        setup = measure_setup(args.workload, args.seed)
        workload = WORKLOADS[args.workload]
        inputs = workload.setup(args.seed)
        metrics, samples, notes, attempted, failed, rec = untraced_run(workload, inputs, args.seconds)
        metrics["setup_s"] = (median(setup), "s")
        samples["setup_s"] = len(setup)

    prov = provenance(args, samples, notes)
    aliases = {} if args.trace else ALIASES[args.workload]
    for name, (value, unit) in sorted(metrics.items()):
        label = f"{name} = {aliases[name]}" if name in aliases else name
        print(f"{label:36s} {value:14.6g} {unit:6s} n={samples[name]}")
    print(f"{'fail_ratio':36s} {failed / max(attempted, 1):14.6g} {'ratio':6s} ({failed} failed / {attempted} attempted)")
    print("provenance " + json.dumps(prov))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1)
    if rec is not None:
        rec.dump(OUT / f"{stem}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
