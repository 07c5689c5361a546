"""Exact betweenness centrality and betweenness-uniform blow-ups.

Graphs, blow-up specs, reports and the other records are immutable
named tuples, read by field name; vertices are 0..n-1, and every
centrality value is a fractions.Fraction, so equality questions ("is
this graph betweenness-uniform?") are decided exactly, never
numerically.
"""

from .betweenness import (
    UniformityResult,
    betweenness_exact,
    betweenness_oracle,
    is_betweenness_uniform,
    profile_uniformity,
)
from .blowup import (
    BlownGraph,
    BlowupSpec,
    PartDescriptor,
    blow_up,
    decompose_betweenness,
    delta_extremal,
    spec_from_json,
    spec_to_json,
)
from .constructions import (
    P4SizeTuple,
    p2_clique_spec,
    p3_independent_spec,
    p4_infeasibility_check,
    p4_mixed_spec,
    star_spec,
)
from .graphs import (
    Graph,
    Graph6Error,
    diameter,
    enumerate_graphs,
    enumerate_trees,
    generate,
    is_connected,
    is_isomorphic,
    is_two_connected,
    parse_graph6,
    serialize_graph6,
)
from .search import (
    SearchBudget,
    SearchReport,
    census,
    lemma_grid,
    lemma_table,
    search_blowups,
)

__version__ = "0.1.0"

__all__ = [
    "BlownGraph",
    "BlowupSpec",
    "Graph",
    "Graph6Error",
    "P4SizeTuple",
    "PartDescriptor",
    "SearchBudget",
    "SearchReport",
    "UniformityResult",
    "betweenness_exact",
    "betweenness_oracle",
    "blow_up",
    "census",
    "decompose_betweenness",
    "delta_extremal",
    "diameter",
    "enumerate_graphs",
    "enumerate_trees",
    "generate",
    "is_betweenness_uniform",
    "is_connected",
    "is_isomorphic",
    "is_two_connected",
    "lemma_grid",
    "lemma_table",
    "p2_clique_spec",
    "p3_independent_spec",
    "p4_infeasibility_check",
    "p4_mixed_spec",
    "parse_graph6",
    "profile_uniformity",
    "search_blowups",
    "serialize_graph6",
    "spec_from_json",
    "spec_to_json",
    "star_spec",
]
