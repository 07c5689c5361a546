"""The known betweenness-uniform blow-up families, and the size-tuple
arithmetic showing no blow-up of the 4-vertex path can be uniform.

Families (all verifiable with ``is_betweenness_uniform``):

* two cliques of equal size joined completely (an edge blown up),
* a path of three independent sets with the middle as big as the two
  ends together,
* a star of independent sets whose center matches the leaf total.

The infeasibility check works on a tuple (a, b, c, d) of part sizes
for the blow-up K_a, I_b, I_c, K_d of the 4-vertex path.  Uniformity
would force two betweenness inequalities,

    C(b,2)/(a+c) >= a(c+d)/b + C(c,2)/(b+d),
    C(c,2)/(b+d) >= d(a+b)/c + C(b,2)/(a+c).

Cleared of their positive denominators they read s1 >= 0 and s2 >= 0,
with integer slacks s1, s2 (``_p4_slacks``).  The C(b,2) and C(c,2)
terms cancel in the weighted sum, which is the identity

    c*s1 + b*s2 == -(a+c)*(b+d)*(a*c*(c+d) + b*d*(a+b)),

negative for positive sizes, so the two never hold together.  Each
side has degree <= 4 in every size, so agreement on the box {1..5}^4
proves the identity for all sizes: a polynomial of degree <= k in each
variable that vanishes on S^4 with |S| > k is zero (Alon,
Combinatorial Nullstellensatz, 1999).  Acceptance criterion 9 checks
it there.  Everything here is integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple

from .blowup import BlowupSpec, PartDescriptor
from .graphs import generate

__all__ = [
    "P4InfeasibilityReport",
    "P4SizeTuple",
    "p2_clique_spec",
    "p3_independent_spec",
    "p4_infeasibility_check",
    "p4_mixed_spec",
    "star_spec",
]


def p2_clique_spec(m: int) -> BlowupSpec:
    """An edge blown up into two m-cliques; the result is K_{2m}."""
    if m < 1:
        raise ValueError("clique size must be positive")
    return BlowupSpec(
        base=generate("path", 2),
        parts=(PartDescriptor.clique(m), PartDescriptor.clique(m)),
    )


def p3_independent_spec(a: int, b: int) -> BlowupSpec:
    """Three independent sets I_a, I_{a+b}, I_b along a path."""
    if a < 1 or b < 1:
        raise ValueError("end sizes must be positive")
    return BlowupSpec(
        base=generate("path", 3),
        parts=(
            PartDescriptor.independent(a),
            PartDescriptor.independent(a + b),
            PartDescriptor.independent(b),
        ),
    )


def star_spec(sizes) -> BlowupSpec:
    """Independent sets I_{s_1}..I_{s_k} on the leaves of a star, with
    the center part of size sum(s_i).  The center is the last base
    vertex, matching the star generator."""
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("need at least one leaf part")
    if any(s < 1 for s in sizes):
        raise ValueError("leaf sizes must be positive")
    parts = tuple(PartDescriptor.independent(s) for s in sizes) + (
        PartDescriptor.independent(sum(sizes)),
    )
    return BlowupSpec(base=generate("star", len(sizes)), parts=parts)


def p4_mixed_spec(a: int, b: int, c: int, d: int) -> BlowupSpec:
    """The natural uniformity candidate on the 4-path: K_a, I_b, I_c, K_d."""
    if min(a, b, c, d) < 1:
        raise ValueError("part sizes must be positive")
    return BlowupSpec(
        base=generate("path", 4),
        parts=(
            PartDescriptor.clique(a),
            PartDescriptor.independent(b),
            PartDescriptor.independent(c),
            PartDescriptor.clique(d),
        ),
    )


class P4SizeTuple(namedtuple("P4SizeTuple", "a b c d")):
    """Part sizes (a, b, c, d) for a blow-up of the 4-vertex path."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if min(a, b, c, d) < 1:
            raise ValueError("all four sizes must be positive integers")
        return super().__new__(cls, a, b, c, d)


class P4InfeasibilityReport(
    namedtuple("P4InfeasibilityReport", "tuple ineq1_holds ineq2_holds combined_violated")
):
    """Outcome of the two uniformity inequalities for one size tuple.

    ``ineq1_holds``: C(b,2)/(a+c) >= a(c+d)/b + C(c,2)/(b+d)
    ``ineq2_holds``: C(c,2)/(b+d) >= d(a+b)/c + C(b,2)/(a+c)
    ``combined_violated``: a*c*(c+d) + b*d*(a+b) > 0, the contradiction
    obtained by adding the two, so uniformity is impossible.
    ``tuple`` is the ``P4SizeTuple`` checked.
    """

    __slots__ = ()


def p4_infeasibility_check(t: P4SizeTuple) -> P4InfeasibilityReport:
    """Evaluate both uniformity inequalities exactly.

    Denominators are cleared against the positive quantities (a+c), b,
    (b+d), c so only integer comparisons remain.  The two inequalities
    can never hold together (their sum reads 0 >= positive), which is
    asserted on every call.
    """
    a, b, c, d = t
    s1, s2 = _p4_slacks(a, b, c, d)
    if s1 >= 0 and s2 >= 0:
        raise AssertionError(
            f"both uniformity inequalities held for sizes {(a, b, c, d)}; "
            "they are mutually exclusive"
        )
    return P4InfeasibilityReport(
        tuple=t,
        ineq1_holds=s1 >= 0,
        ineq2_holds=s2 >= 0,
        combined_violated=a * c * (c + d) + b * d * (a + b) > 0,
    )


def _p4_slacks(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The slacks (s1, s2) of the two uniformity inequalities, cleared
    of denominators: inequality k holds exactly when s_k >= 0."""
    ab, ac, bd, cd = a + b, a + c, b + d, c + d
    cb, cc = b * (b - 1) // 2, c * (c - 1) // 2  # C(b,2), C(c,2)
    # C(b,2)/(a+c) - a(c+d)/b - C(c,2)/(b+d), times (a+c)*b*(b+d):
    s1 = cb * b * bd - a * cd * ac * bd - cc * b * ac
    # C(c,2)/(b+d) - d(a+b)/c - C(b,2)/(a+c), times (b+d)*c*(a+c):
    s2 = cc * c * ac - d * ab * bd * ac - cb * c * bd
    return s1, s2
