"""Command-line front end.

This module renders every output; the library modules return records
and print nothing.  Every subcommand prints deterministic, scriptable
output (JSON except where noted) so runs can be diffed and piped.
``census`` prints JSON lines, one object per base in enumeration
order; ``lemma-table`` prints a tab-separated table, ``search --tsv``
one tab-separated line, and ``verify-paper`` one verdict line per
criterion.  ``bc``, ``uniform`` and ``construct`` word the uniformity
verdict alike, and a non-uniform one names its witness.  Exit codes
separate the kinds of failure a pipeline may want to branch on:

    0   success
    2   usage error (bad flags, unknown subcommand)
    3   malformed input (unparsable graph6, bad JSON, bad sizes) or an
        out-of-range value
    10  the graph is not betweenness-uniform (``uniform`` only)
    1   a failed check (``verify-paper``, ``lemma-table``) or an
        unexpected internal failure
    141 stdout was closed before all output was written (a pipe into
        ``head``); nothing is printed, and 141 = 128 + SIGPIPE is what
        a shell reports for a command that SIGPIPE stopped

Graphs are given either inline as graph6 or as a path to a file whose
first non-blank line is graph6; an existing file wins, ``--literal``
forces the inline reading.  ``--jobs`` defaults to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .betweenness import betweenness_exact, profile_uniformity
from .blowup import blow_up, shares_by_part, spec_from_json, spec_to_json
from .constructions import (
    p2_clique_spec,
    p3_independent_spec,
    p4_mixed_spec,
    star_spec,
)
from .graphs import (
    Graph,
    Graph6Error,
    enumerate_graphs,
    enumerate_trees,
    parse_graph6,
    serialize_graph6,
)
from .search import (
    _LEMMA_WINNERS,
    SearchBudget,
    census,
    lemma_grid,
    search_blowups,
)

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_NOT_UNIFORM = 10
EXIT_INTERNAL = 1
EXIT_BROKEN_PIPE = 141

# ``blowup`` and ``construct`` build the whole graph in memory, and
# ``construct`` also runs the exact engine on it; larger specs are
# refused as bad input before anything is built.
MAX_BLOWUP_EDGES = 1_000_000


class _InputError(Exception):
    """Anything wrong with user-supplied data (exit code 3)."""


def _load_graph(arg: str, literal: bool) -> Graph:
    text = arg
    if not literal and os.path.exists(arg):
        try:
            with open(arg, encoding="ascii") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read {arg}: {exc}") from exc
        lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
        if not lines:
            raise _InputError(f"{arg}: empty file")
        text = lines[0]
    try:
        return parse_graph6(text)
    except Graph6Error as exc:
        raise _InputError(f"bad graph6 {text!r}: {exc}") from exc


def _load_spec(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return spec_from_json(obj)
    except (KeyError, TypeError, ValueError, Graph6Error) as exc:
        raise _InputError(f"{path}: invalid blow-up spec: {exc}") from exc


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _verdict_json(values, part_of=None) -> dict:
    """The uniformity verdict on a betweenness profile.  A non-uniform
    one names its witness: vertex 0 and the first vertex whose value
    differs from it, their values and, given ``part_of``, their parts.
    A rational is written as ``str`` writes a ``Fraction``: "p/q" in
    lowest terms, or "p" for an integer."""
    verdict = profile_uniformity(values)
    out = {
        "uniform": verdict.uniform,
        "common": None if verdict.common is None else str(verdict.common),
    }
    if not verdict.uniform:
        v = next(v for v, x in enumerate(values) if x != values[0])
        out["witness"] = {
            "vertices": [0, v],
            "values": [str(values[0]), str(values[v])],
        }
        if part_of is not None:
            out["witness"]["parts"] = [part_of[0], part_of[v]]
    return out


def _cmd_bc(args) -> int:
    g = _load_graph(args.graph, args.literal)
    values = betweenness_exact(g)
    _emit({"n": g.n, "values": [str(v) for v in values], **_verdict_json(values)})
    return EXIT_OK


def _cmd_uniform(args) -> int:
    g = _load_graph(args.graph, args.literal)
    out = _verdict_json(betweenness_exact(g))
    _emit(out)
    return EXIT_OK if out["uniform"] else EXIT_NOT_UNIFORM


def _blow_up_checked(spec):
    edges = spec.edge_count
    if edges > MAX_BLOWUP_EDGES:
        raise _InputError(
            f"the blow-up {spec.label()} would have {edges} edges, "
            f"more than the {MAX_BLOWUP_EDGES} this command builds"
        )
    return blow_up(spec)


def _cmd_blowup(args) -> int:
    spec = _load_spec(args.spec)
    bg = _blow_up_checked(spec)
    _emit(
        {
            "graph6": serialize_graph6(bg.graph),
            "n": bg.graph.n,
            "edges": bg.graph.edge_count,
            "part_of": list(bg.part_of),
            "spec": spec_to_json(spec),
        }
    )
    return EXIT_OK


def _cmd_decompose(args) -> int:
    # Read off the closed-form shares: the blow-up is never built.
    spec = _load_spec(args.spec)
    n = spec.total_vertices
    if not (0 <= args.vertex < n):
        raise _InputError(f"vertex {args.vertex} out of range for a {n}-vertex blow-up")
    k, i = 0, args.vertex  # its part, and its index inside that part
    while i >= spec.parts[k].size:
        i -= spec.parts[k].size
        k += 1
    glob, nbr, own = next(islice(shares_by_part(spec), k, None))
    _emit(
        {
            "vertex": args.vertex,
            "global_part": str(glob),
            "own_local": str(own[i]) if own else "0",
            "neighbor_locals": {str(j): str(nbr[j]) for j in sorted(nbr)},
        }
    )
    return EXIT_OK


def _build_family_spec(family: str, sizes: list[int]):
    try:
        if family == "p2":
            if len(sizes) != 1:
                raise _InputError("construct p2 takes one size")
            return p2_clique_spec(sizes[0])
        if family == "p3":
            if len(sizes) != 2:
                raise _InputError("construct p3 takes two sizes")
            return p3_independent_spec(sizes[0], sizes[1])
        if family == "star":
            return star_spec(sizes)
        # p4, the one family left among argparse's choices
        if len(sizes) != 4:
            raise _InputError("construct p4 takes four sizes")
        return p4_mixed_spec(*sizes)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _cmd_construct(args) -> int:
    spec = _build_family_spec(args.family, args.sizes)
    bg = _blow_up_checked(spec)
    _emit(
        {
            "spec": spec_to_json(spec),
            "graph6": serialize_graph6(bg.graph),
            "verification": _verdict_json(betweenness_exact(bg.graph), bg.part_of),
        }
    )
    return EXIT_OK


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise _InputError("--jobs must be >= 1")


def _budget(args) -> SearchBudget:
    _check_jobs(args)
    try:
        return SearchBudget(
            part_family=args.family,
            max_part_size=args.max_size,
            max_total_vertices=args.max_total,
            time_limit=args.time_limit,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _cmd_search(args) -> int:
    base = _load_graph(args.graph, args.literal)
    budget = _budget(args)
    try:
        report = search_blowups(base, budget, jobs=args.jobs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.tsv:
        # base graph6, specs examined, hits, exhausted
        exhausted = "true" if report.exhausted else "false"
        g6 = serialize_graph6(report.base)
        print(g6, report.specs_examined, len(report.found), exhausted, sep="\t")
    else:
        _emit(_report_json(report))
    return EXIT_OK


def _report_json(report) -> dict:
    return {
        "base": serialize_graph6(report.base),
        "budget": report.budget._asdict(),
        "specs_examined": report.specs_examined,
        "exhausted": report.exhausted,
        "found": [spec_to_json(s) for s in report.found],
    }


def _cmd_census(args) -> int:
    budget = _budget(args)
    try:
        searches = census(args.kind, args.n_max, budget, jobs=args.jobs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    for r in searches:
        print(json.dumps({"base": serialize_graph6(r.base), "search": _report_json(r)}))
    hits = [s.label() for r in searches for s in r.found]
    if hits:
        print(f"COUNTEREXAMPLES: {', '.join(hits)}", file=sys.stderr)
    else:
        complete = all(r.exhausted for r in searches)
        note = "every search exhausted" if complete else "some searches hit the time limit"
        print(f"# no uniform blow-ups over {len(searches)} bases; {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_lemma_table(args) -> int:
    try:
        grid = lemma_grid(args.slot, args.m, args.grid_max)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    expected = _LEMMA_WINNERS[args.slot]
    print("context\tclass\tedges\tratio\tmax")
    violations = 0
    for ctx, rows, best, holds in grid:
        for h, v in rows:
            mark = "*" if v == best else ""
            print(f"{ctx}\t{serialize_graph6(h)}\t{h.edge_count}\t{v}\t{mark}")
        if not holds:
            violations += 1
            print(f"violation at {ctx}: {expected} class not maximal", file=sys.stderr)
    if violations:
        print(f"{violations} grid points violate the expectation", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"# {expected} class maximal at every grid point", file=sys.stderr)
    return EXIT_OK


def _criterion_line(r) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    return f"[{r.number:2d}] {verdict}  {r.name} ({r.seconds:.1f}s): {r.detail}"


def _cmd_verify(args) -> int:
    _check_jobs(args)
    from .acceptance import run_suite

    results = run_suite(level=args.level, jobs=args.jobs)
    for r in results:
        print(_criterion_line(r))
    passed = all(r.passed for r in results)
    verdict = "ALL PASS" if passed else "FAILURES PRESENT"
    print(f"== {verdict} ({sum(r.seconds for r in results):.1f}s total, level={args.level}) ==")
    return EXIT_OK if passed else EXIT_INTERNAL


def _cmd_enum(args) -> int:
    try:
        items = enumerate_trees(args.n) if args.kind == "trees" else enumerate_graphs(args.n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    for g in items:
        print(serialize_graph6(g))
    return EXIT_OK


def _add_budget_args(sub) -> None:
    sub.add_argument("--family", choices=("ik", "all"), default="ik")
    sub.add_argument("--max-size", type=int, default=4, help="largest part size")
    sub.add_argument("--max-total", type=int, default=None, help="cap on blow-up vertices")
    sub.add_argument("--time-limit", type=float, default=None, help="seconds before a partial report")
    sub.add_argument("--jobs", type=int, default=1)


def _add_graph_arg(sub) -> None:
    sub.add_argument("-g", "--graph", required=True, help="graph6 string or file path")
    sub.add_argument(
        "--literal",
        action="store_true",
        help="treat the -g value as graph6 even if a file of that name exists",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bugraph",
        description="Exact betweenness centrality, blow-up constructions, and "
        "bounded searches for betweenness-uniform graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bc", help="exact betweenness profile of a graph")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_bc)

    p = sub.add_parser("uniform", help="test betweenness-uniformity (exit 10 if not)")
    _add_graph_arg(p)
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("blowup", help="realize a blow-up spec as a concrete graph")
    p.add_argument("-s", "--spec", required=True, help="path to a blow-up spec JSON file")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("decompose", help="global/local betweenness split at one vertex")
    p.add_argument("-s", "--spec", required=True, help="path to a blow-up spec JSON file")
    p.add_argument("-v", "--vertex", required=True, type=int, help="vertex of the blow-up")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "construct", help="emit a stock uniform-family spec and verify it"
    )
    p.add_argument("family", choices=("p2", "p3", "star", "p4"))
    p.add_argument("sizes", nargs="+", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="exhaustive in-budget scan for uniform blow-ups")
    _add_graph_arg(p)
    _add_budget_args(p)
    p.add_argument("--tsv", action="store_true", help="one-line summary instead of JSON")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "census", help="search every small tree or cut-vertex base, one JSON line each"
    )
    p.add_argument("kind", choices=("trees", "cut-vertex"))
    p.add_argument(
        "--n-max", required=True, type=int,
        help="largest base size (<= 7)",
    )
    _add_budget_args(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "lemma-table", help="tabulate the extremal-part ratio over a grid of contexts"
    )
    p.add_argument(
        "--slot", choices=("first", "second"), default="second",
        help="which path4 part the candidate class occupies",
    )
    p.add_argument("--m", type=int, default=3, help="candidate part size (<= 5)")
    p.add_argument("--grid-max", type=int, default=2, help="context sizes range over 1..this")
    p.set_defaults(func=_cmd_lemma_table)

    p = sub.add_parser("verify-paper", help="run the acceptance checks, print a PASS/FAIL table")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enum", help="stream non-isomorphic graphs as graph6 lines")
    p.add_argument("kind", choices=("trees", "graphs"))
    p.add_argument("-n", required=True, type=int, help="vertex count")
    p.set_defaults(func=_cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at shutdown
        return code
    except BrokenPipeError:
        # so that the flush at shutdown finds no broken pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())
