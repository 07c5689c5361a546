"""Work that must start in a fresh interpreter, so that imports and the
enumeration memo are as cold as they are for a user's command.

    python perfbench/child.py setup <workload> <seed>
    python perfbench/child.py suite <criterion number>...
    python perfbench/child.py enum
    python perfbench/child.py import

``src`` of the checkout must be on PYTHONPATH.  Except for ``setup``,
the last line of stdout is a JSON list of the spans of the timed calls,
each with the reference-loop samples around it (see ``tracing``).
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from tracing import reference


class _Log:
    def __init__(self):
        self.spans: list[dict] = []
        self.refs = [reference()]

    def timed(self, name: str, fn, **attrs):
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self.refs.append(reference())
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": None,
                "name": name,
                "start": start,
                "end": end,
                "ref_before": self.refs[-2],
                "ref_after": self.refs[-1],
                **attrs,
            }
        )
        return result


def _criterion(fn, registry) -> tuple[bool, str]:
    try:
        passed, detail = fn(registry, "full", 1)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
        return False, f"crashed: {type(exc).__name__}: {exc}"
    return passed is True, detail


def _suite(log: _Log, numbers: list[str]) -> None:
    """The chosen acceptance criteria at full level, in order, with one
    shared registry as ``run_suite`` keeps."""
    acceptance = log.timed("import", lambda: importlib.import_module("bugraph.acceptance"))
    registry = acceptance._Registry()
    by_number = {c[0]: c[2] for c in acceptance.CRITERIA}
    for k in map(int, numbers):
        passed, detail = log.timed("criterion", lambda: _criterion(by_number[k], registry), number=k)
        log.spans[-1].update(passed=passed, detail=detail)


def _enum(log: _Log) -> None:
    """Cold enumeration: every graph class on n <= 7 vertices, then every
    tree on n <= 10 vertices (the two memos are independent)."""
    bugraph = importlib.import_module("bugraph")
    log.timed("enumerate_graphs", lambda: [bugraph.enumerate_graphs(n) for n in range(8)])
    log.timed("enumerate_trees", lambda: [bugraph.enumerate_trees(n) for n in range(1, 11)])


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        from workloads import WORKLOADS

        WORKLOADS[rest[0]].setup(int(rest[1]))
        return 0
    log = _Log()
    if mode == "suite":
        _suite(log, rest)
    elif mode == "enum":
        _enum(log)
    elif mode == "import":
        log.timed("import", lambda: importlib.import_module("bugraph"))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(log.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
