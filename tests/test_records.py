"""The package's records: validated, immutable named tuples."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from bugraph.acceptance import CriterionResult
from bugraph.betweenness import UniformityResult
from bugraph.blowup import (
    BlownGraph,
    BlowupSpec,
    Decomposition,
    DeltaResult,
    PartDescriptor,
    geodesic_plan,
)
from bugraph.constructions import P4InfeasibilityReport, P4SizeTuple
from bugraph.graphs import Graph, generate
from bugraph.search import SearchBudget, SearchReport

P3 = generate("path", 3)
I2 = PartDescriptor("I", 2)
SPEC = BlowupSpec(P3, (I2, I2, I2))
BUDGET = SearchBudget("ik", 3, 10, 5.0)

# every record with one value of each field, in field order
RECORDS = [
    (Graph, {"n": 3, "edges": ((0, 1), (1, 2))}),
    (PartDescriptor, {"kind": "X", "size": 3, "graph": P3}),
    (BlowupSpec, {"base": P3, "parts": (I2, I2, I2)}),
    (BlownGraph, {"graph": P3, "part_of": (0, 1, 2), "part_vertices": ((0,), (1,), (2,))}),
    (
        Decomposition,
        {"vertex": 1, "global_part": Fraction(1), "own_local": Fraction(0), "neighbor_locals": {}},
    ),
    (DeltaResult, {"value": Fraction(1, 2), "x": 0, "y": 2}),
    (P4SizeTuple, {"a": 1, "b": 2, "c": 3, "d": 4}),
    (
        P4InfeasibilityReport,
        {
            "tuple": P4SizeTuple(1, 2, 3, 4),
            "ineq1_holds": False,
            "ineq2_holds": False,
            "combined_violated": True,
        },
    ),
    (
        SearchBudget,
        {"part_family": "ik", "max_part_size": 3, "max_total_vertices": 10, "time_limit": 5.0},
    ),
    (
        SearchReport,
        {"base": P3, "budget": BUDGET, "found": [SPEC], "exhausted": True, "specs_examined": 7},
    ),
    (
        CriterionResult,
        {"number": 1, "name": "oracle", "passed": True, "detail": "ok", "seconds": 0.5},
    ),
    (UniformityResult, {"uniform": True, "common": Fraction(1, 2)}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# records that hold a cached_property, and so an instance __dict__
CACHING = (Graph, PartDescriptor, BlownGraph)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    rec = cls(**fields)
    assert cls(*fields.values()) == rec
    assert cls._fields == tuple(fields)
    assert all(getattr(rec, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, fields):
    rec = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[name])
    # only the records with cached properties carry an instance __dict__
    assert hasattr(rec, "__dict__") == (cls in CACHING)


def test_defaults():
    assert SearchBudget() == SearchBudget("ik", 4, None, None)
    assert Graph(2).edges == ()


def test_explicit_part_takes_its_size_from_its_graph():
    assert PartDescriptor("X", graph=P3).size == 3
    assert PartDescriptor("X", 7, P3) == PartDescriptor.explicit(P3)


@pytest.mark.parametrize(
    "args, message",
    [
        (("I", 2, P3), "I/K parts are given by size, not by graph"),
        (("K", 0), "part needs at least one vertex"),
        (("X",), "explicit part needs a graph"),
        (("X", 1, Graph(0)), "part needs at least one vertex"),
        (("Z", 1), "unknown part kind 'Z'"),
    ],
)
def test_part_descriptor_validation(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PartDescriptor(*args)


def _round_trip(rec):
    return pickle.loads(pickle.dumps(rec, pickle.HIGHEST_PROTOCOL))


def test_pickle_round_trips():
    # the --jobs pool pickles graphs, parts, specs and reports
    g = generate("cycle", 5)
    g.adjacency, g.adjacency_bits, g.distances  # fill the cached properties
    copy = _round_trip(g)
    assert copy == g and type(copy) is Graph
    assert (copy.adjacency, copy.adjacency_bits, copy.distances) == (
        g.adjacency,
        g.adjacency_bits,
        g.distances,
    )
    part = PartDescriptor.explicit(P3)
    assert part._nonedges == ((1, 2),)
    part_copy = _round_trip(part)
    assert part_copy == part and part_copy._nonedges == part._nonedges
    assert _round_trip(SPEC) == SPEC
    report = SearchReport(P3, BUDGET, [SPEC], True, 7)
    assert _round_trip(report) == report


def test_plan_cache_hits_for_an_equal_graph():
    path = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    plan = geodesic_plan(path)
    hits = geodesic_plan.cache_info().hits
    assert geodesic_plan(Graph(5, ((3, 4), (2, 1), (1, 0), (3, 2)))) is plan
    assert geodesic_plan.cache_info().hits == hits + 1
