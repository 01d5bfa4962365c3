"""Matching systems: polynomial equations for crossing ordinates.

A periodic orbit that crosses the switching lines transversally pins its
boundary ordinates to common level curves of the per-zone first integrals.
This module turns a two- or three-zone system into the corresponding
polynomial system.  Every equation comes from one formula, whatever the
zone's family: the zone's integral N/D restricted to the line x = c
(``systems.restriction``), with denominators cleared,

* a level pair on one line, N(a) D(b) - N(b) D(a), divided exactly by the
  coincident-point factor a - b,
* a transport across a strip, N1(a) D2(b) - N2(b) D1(a), from the
  restrictions to its two edges,

and the ordinates of a zone whose restricted denominator is not constant
(the global center's y^2) recorded as excluded from 0, because clearing it
adds the spurious root y = 0.  So the module reads zones only through
``restriction`` and names no family.  ``to_sum_diff`` rewrites a three-zone
system in the sum/difference variables of the three-zone elimination and
returns its four equations.  It reads the image of each monomial
``y_a^i y_b^j`` in ``(u, v, w, z)`` from a bounded module-level cache
(``_image``, an ``lru_cache``): few monomials occur, whatever the
coefficients, so each binomial expansion is made once per process.

Ordinates on each boundary are stored canonically as (lower, upper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .algebra import MultiPoly, RatLike, rat
from .systems import PiecewiseSystem, Zone, restriction


class MatchError(ValueError):
    """Raised when a matching system cannot be built as requested."""


@dataclass
class MatchingSystem:
    """Square polynomial system in the crossing ordinates.

    ``orderings`` lists (lower, upper) variable pairs that must satisfy a
    strict inequality; ``nonzero`` lists variables excluded from 0 (cleared
    rational denominators).
    """

    unknowns: tuple[str, ...]
    equations: list[MultiPoly]
    topology: str
    orderings: list[tuple[str, str]]
    nonzero: tuple[str, ...] = ()
    degenerate_family: bool = False


# ---------------------------------------------------------------------------
# equation builders
# ---------------------------------------------------------------------------


def _in_pair(va: str, vb: str, ints: dict[tuple[int, int], int], n: int, d: int) -> MultiPoly:
    """n / d times the polynomial with integer terms {(i, j): c} meaning
    c * va^i * vb^j."""
    if vb < va:
        ints = {(j, i): c for (i, j), c in ints.items()}
    return MultiPoly.from_ints(sorted((va, vb)), ints, n, d)


def pair_equation(zone: Zone, c: RatLike, va: str, vb: str) -> MultiPoly:
    """Level equality N(a)/D(a) = N(b)/D(b) of the zone's integral on x = c,
    cleared of denominators and divided exactly by (a - b):

        sum_{i>j} (n_i d_j - n_j d_i) (ab)^j P_{i-j}(a, b),
        P_k = sum_{l<k} a^l b^(k-1-l).

    For a polynomial integral (D = 1) this is sum_i n_i P_i(a, b).  It is
    summed over the integer parts of N and D, times their contents."""
    n, d, _, _ = restriction(zone, rat(c))
    top = max(len(n.ints), len(d.ints))
    ns, ds = (p.ints + (0,) * (top - len(p.ints)) for p in (n, d))
    terms: dict[tuple[int, int], int] = {}
    for i in range(1, top):
        for j in range(i):
            w = ns[i] * ds[j] - ns[j] * ds[i]
            if w:
                for l in range(i - j):
                    key = (j + l, i - 1 - l)
                    terms[key] = terms.get(key, 0) + w
    return _in_pair(va, vb, terms, *(n.content * d.content).as_integer_ratio())


def transport_equation(zone: Zone, c_from: RatLike, c_to: RatLike,
                       v_from: str, v_to: str) -> MultiPoly:
    """Level equality across the zone's strip, H(c_from, a) = H(c_to, b),
    cleared of denominators: N1(a) D2(b) - N2(b) D1(a), summed on the
    integer parts over one content: with an/ad and bn/bd the contents of
    the two products, (an bd N1 D2 - bn ad N2 D1) / (ad bd)."""
    n1, d1, _, _ = restriction(zone, rat(c_from))
    n2, d2, _, _ = restriction(zone, rat(c_to))
    (an, ad), (bn, bd) = ((p.content * q.content).as_integer_ratio()
                          for p, q in ((n1, d2), (n2, d1)))
    ka, kb = an * bd, bn * ad
    terms: dict[tuple[int, int], int] = {}
    for i, x in enumerate(n1.ints):
        for j, y in enumerate(d2.ints):
            if x and y:
                terms[i, j] = ka * x * y
    for j, y in enumerate(n2.ints):
        for i, x in enumerate(d1.ints):
            if x and y:
                terms[i, j] = terms.get((i, j), 0) - kb * x * y
    return _in_pair(v_from, v_to, terms, 1, ad * bd)


def _nonzero(*uses: tuple[Zone, RatLike, tuple[str, ...]]) -> tuple[str, ...]:
    """The ordinates excluded from 0: those of each (zone, c, names) use
    whose restricted integral has a non-constant denominator."""
    out: list[str] = []
    for zone, c, names in uses:
        if restriction(zone, c)[1].degree > 0:
            out += [v for v in names if v not in out]
    return tuple(out)


# ---------------------------------------------------------------------------
# topology builders
# ---------------------------------------------------------------------------


def build_two_zone(left: Zone, right: Zone, c: RatLike) -> MatchingSystem:
    """Matching system for a cycle crossing the single line x = c twice.

    Unknowns (y1, y2) are the lower and upper crossing ordinates.  When the
    two level-pair equations are proportional the system is a one-parameter
    family (continuous same-integral case) and is flagged as degenerate.
    """
    c = rat(c)
    return _two_zone(pair_equation(left, c, "y1", "y2"), left, right, c)


def _two_zone(e1: MultiPoly, left: Zone, right: Zone, c: RatLike) -> MatchingSystem:
    """``build_two_zone`` with the left pair equation e1 built: the
    three-zone system's, in the same unknowns, serves ``two_zone@0``."""
    e2 = pair_equation(right, c, "y1", "y2")
    degenerate = e1.is_proportional_to(e2) or e1.is_zero or e2.is_zero
    return MatchingSystem(
        unknowns=("y1", "y2"),
        equations=[e1, e2],
        topology="two_zone",
        orderings=[("y1", "y2")],
        nonzero=_nonzero((left, c, ("y1", "y2")), (right, c, ("y1", "y2"))),
        degenerate_family=degenerate,
    )


def build_three_zone(left: Zone, mid: Zone, right: Zone,
                     c1: RatLike, c2: RatLike) -> MatchingSystem:
    """Matching system for a cycle crossing x = c1 and x = c2 once each way.

    Unknowns (y1, y2) on x = c1 and (y3, y4) on x = c2, each pair stored as
    (lower, upper).  Middle-zone arcs cannot cross each other, so the lower
    pair and the upper pair each share a level curve of the middle integral.
    """
    c1, c2 = rat(c1), rat(c2)
    if c1 >= c2:
        raise MatchError("boundaries must satisfy c1 < c2")
    e1 = pair_equation(left, c1, "y1", "y2")
    e2 = transport_equation(mid, c1, c2, "y1", "y3")
    e3 = transport_equation(mid, c1, c2, "y2", "y4")
    e4 = pair_equation(right, c2, "y3", "y4")
    return MatchingSystem(
        unknowns=("y1", "y2", "y3", "y4"),
        equations=[e1, e2, e3, e4],
        topology="three_zone",
        orderings=[("y1", "y2"), ("y3", "y4")],
        nonzero=_nonzero((left, c1, ("y1", "y2")), (mid, c1, ("y1", "y2")),
                         (mid, c2, ("y3", "y4")), (right, c2, ("y3", "y4"))),
        degenerate_family=e1.is_zero or e4.is_zero,
    )


# ---------------------------------------------------------------------------
# sum/difference substitution
# ---------------------------------------------------------------------------


# y1, y2 = (u -+ v)/2 and y3, y4 = (w -+ z)/2: each ordinate's pair-sum
# position in (u, v, w, z) (its spread is the next one) and spread sign
_SUM_DIFF = {"y1": (0, -1), "y2": (0, 1), "y3": (2, -1), "y4": (2, 1)}
_UVWZ = ("u", "v", "w", "z")


@lru_cache(maxsize=256)
def _image(names: tuple[str, ...], exps: tuple[int, ...]
           ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The integer terms of prod (S -+ D)^k, (y, k) in zip(names, exps), in
    (u, v, w, z), each factor expanded by the binomial theorem: 2^(K - 1)
    times the image of 2 prod y^k, K the monomial's degree."""
    terms = {(0, 0, 0, 0): 1}
    for y, k in zip(names, exps):
        if not k:
            continue
        at, sign = _SUM_DIFF[y]
        out: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            for l in range(k + 1):
                f = list(e)
                f[at] += k - l
                f[at + 1] += l
                t = tuple(f)
                out[t] = out.get(t, 0) + c * comb(k, l) * sign**l
        terms = {e: c for e, c in out.items() if c}
    return tuple(terms.items())


def to_sum_diff(ms: MatchingSystem) -> list[MultiPoly]:
    """Rewrite a three-zone system in u = y1+y2, v = y2-y1, w = y3+y4,
    z = y4-y3, as the equations [s1, s_diff, s_sum, s4]: the left pair, the
    transported pair's difference and sum, and the right pair, each doubled
    to clear halves.  The outer equations are even in (v, z), which is what
    collapses the elimination to a quartic in the swap-invariant u; crossing
    solutions need v > 0 and z > 0 (v = z = 0 is the coincident-point locus
    that the pair division removed).

    Each equation is rewritten once (``_in_uvwz``), its monomials' images
    read from the bounded ``_image`` cache, and the transported pair's
    difference and sum are taken from the two rewritten transports."""
    if ms.topology != "three_zone":
        raise MatchError("sum/difference form applies to three-zone systems")
    s1, img2, img3, s4 = map(_in_uvwz, ms.equations)
    return [s1, img3 - img2, img2 + img3, s4]


def _in_uvwz(eq: MultiPoly) -> MultiPoly:
    """2 eq in (u, v, w, z): each monomial's integer ``_image`` times
    2^(K_max - K), so that they share the factor 2^(1 - K_max)."""
    top = max((sum(e) for e in eq.ints), default=0)
    acc: dict[tuple[int, ...], int] = {}
    for e, c in eq.ints.items():
        c <<= top - sum(e)
        for t, b in _image(eq.vars, e):
            acc[t] = acc.get(t, 0) + c * b
    return MultiPoly.from_ints(_UVWZ, acc, eq.content * 2 / (1 << top))


def matching_systems_for(ps: PiecewiseSystem
                         ) -> list[tuple[str, tuple[int, ...], MatchingSystem]]:
    """All crossing-cycle topologies of a system as (tag, boundary indices,
    matching system): the full multi-zone one plus, for three-zone systems,
    the two adjacent-pair topologies ``two_zone@i`` on boundary i (cycles
    that cross only one of the lines; their middle arc must stay inside the
    strip, which the verifier enforces)."""
    z, c = ps.zones, ps.boundaries
    if len(z) == 2:
        return [("two_zone", (0,), build_two_zone(z[0], z[1], c[0]))]
    if len(z) == 3:
        three = build_three_zone(*z, c[0], c[1])
        return [("three_zone", (0, 1), three),
                ("two_zone@0", (0,), _two_zone(three.equations[0], z[0], z[1], c[0])),
                ("two_zone@1", (1,), build_two_zone(z[1], z[2], c[1]))]
    raise MatchError(f"unsupported zone count {len(ps.zones)}")
