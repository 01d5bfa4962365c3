"""Elimination pipeline: matching system to screened candidate cycles.

Elimination runs one step per unknown (``_eliminate_step``): the equation
of lowest degree in the unknown, the first one on a tie, is the pivot; a
pivot linear in it with constant coefficients is solved and substituted,
any other is paired with every other equation that contains the unknown in
a resultant.  The gcd of what is left is the eliminant.  Two-zone systems
take one step, in y2, down to the lower ordinate y1 (``eliminate``).

A three-zone system is rewritten in sum/difference variables u = y1 + y2,
v = y2 - y1, w = y3 + y4 and z = y4 - y3, and eliminated in three steps:

1. step w, with the right-hand pair equation listed first so that it is the
   pivot: it is linear in w with constant coefficients, so w is a constant;
2. step z: one resultant of the transported pair's difference and sum;
3. what is left is even in v once an odd factor v is divided out (v = 0 is
   the excluded coincident-pair locus); halved to V = v^2 it is linear in V
   for the covered families, and step V leaves the eliminant in the
   swap-invariant u, of degree at most four -- exactly the shape behind the
   "at most four" counts.

A spread z or V that no equation contains is free along a curve of
solutions wherever the eliminant has a root: the system is
positive-dimensional.  The route applies when the right-hand pair equation
is free of z and at most linear in w, and after step w the difference
equation is at most linear and the sum equation at most quadratic in z.
Every other three-zone system is eliminated directly in (y4, y3, y2), route
"direct".  The three steps do not need that shape, but they cost far more
without it: on the 66 of 80 random three-zone systems with a family drawn
per zone that take the fallback, they found the same tuples and flags as
the direct route (one root's multiplicity differed) in 22 times its time
(29.4 s against 1.35 s on a 2-core VM; 0.5 to 141 times per system, median
11), so the direct route stays.

Every eliminant root is refined by exact bisection and extended one unknown
at a time (``_extend``), each from the equation of lowest degree among
those univariate in it, a linear one solved exactly; the sum/difference
route takes each unknown from the equations its own step consumed.
Extensions are screened: ordering constraints, distinctness, excluded
singular ordinates, and residuals of the original equations; on either
route a root that extends to no screened tuple counts as extraneous.
Surviving candidates are handed to the dynamics oracle for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import algebra, dynamics
from .algebra import (
    AlgebraError,
    MultiPoly,
    RatLike,
    UniPoly,
    isolate_real_roots,
    rat,
    real_roots,
    refine_root,
    sturm_chain,
    sturm_count,
)
# not called here: bench/spans.py traces the isolation kernels under the
# solver's names as well as the algebra module's
from .algebra import squarefree, sturm_isolate  # noqa: F401
from .matcher import (
    MatchError,
    MatchingSystem,
    matching_systems_for,
    to_sum_diff,
)
from .systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    PiecewiseSystem,
    Zone,
    is_continuous,
    mirror,
)

INTERNAL_REFINE = Fraction(1, 10**18)
LINEAR_BITS = 60
RESIDUAL_RTOL = 1e-9


class PositiveDimensionalError(Exception):
    """An elimination step collapsed: the solution set is not discrete."""


class NotCoveredError(Exception):
    """The system falls outside every configuration the pipeline handles."""


class InvariantViolation(AssertionError):
    """A verified count exceeded a numeric theorem bound."""


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


@dataclass
class CandidateCycle:
    """A crossing tuple produced by the algebra.

    ``ordinates`` holds (boundary_index, value) pairs in canonical order:
    (lower, upper) per boundary, lower boundary first.  ``status`` is
    ``unverified``, ``verified`` or ``rejected``; rejected candidates keep
    the reason.
    """

    topology: str
    ordinates: tuple[tuple[int, Fraction], ...]
    multiplicity: int = 1
    status: str = "unverified"
    reason: str = ""

    def ordinates_on(self, boundary_index: int) -> list[Fraction]:
        return [v for b, v in self.ordinates if b == boundary_index]


@dataclass
class BoundInfo:
    """Cycle-count statement from the matched case of the theorem table."""

    kind: str  # at_most | annulus | no_limit_cycle | no_periodic_solution | not_covered
    count: Optional[int]
    case: str
    note: str = ""

    @property
    def numeric(self) -> bool:
        return self.kind == "at_most" and self.count is not None


@dataclass
class SolveReport:
    continuous: bool
    bound: BoundInfo
    candidates: list[CandidateCycle]
    eliminant: UniPoly
    eliminant_var: str
    positive_dimensional: bool
    annulus: bool
    diagnostics: dict
    # the verifier's and the annulus scan's machine, kept for a caller that
    # runs more orbits of the same system; not part of the answer
    machine: dynamics.FlowMachine = field(compare=False, repr=False)

    def verified(self, topology: str | None = None) -> list[CandidateCycle]:
        return [c for c in self.candidates if c.status == "verified"
                and (topology is None or c.topology == topology)]

    def main_topology(self) -> str:
        return "three_zone" if any(c.topology == "three_zone" for c in self.candidates) \
            or self.eliminant_var == "u" else "two_zone"


# ---------------------------------------------------------------------------
# elimination steps and back-substitution
# ---------------------------------------------------------------------------


def default_order(ms: MatchingSystem) -> tuple[str, ...]:
    """Innermost boundary variables first, surviving variable y1."""
    if ms.topology == "three_zone":
        return ("y4", "y3", "y2")
    return ("y2",)


def _eliminate_step(eqs: list[MultiPoly], v: str) -> list[MultiPoly]:
    """Remove v from a list of equations.

    The pivot is the equation of lowest degree in v, the first one on a tie.
    A pivot linear in v with constant coefficients is solved and substituted
    into the other equations that contain v; any other pivot is paired with
    each of them in a resultant.  The equations free of v come first, in
    their order.  Raises PositiveDimensionalError when a result vanishes.
    """
    keep, active = [], []
    for e in eqs:
        (active if e.degree(v) > 0 else keep).append(e)
    if not active:
        return keep
    pivot = min(active, key=lambda e: e.degree(v))
    others = [e for e in active if e is not pivot]
    c = pivot.coeffs_in(v)
    if len(c) == 2 and not (c[0].actual_vars() or c[1].actual_vars()):
        root = -c[0].eval({}) / c[1].eval({})
        new = [e.subs({v: root}) for e in others]
    else:
        # looked up at call time: bench/spans.py traces algebra.resultant
        new = [algebra.resultant(pivot, e, v) for e in others]
    if any(r.is_zero for r in new):
        raise PositiveDimensionalError(f"resultant in {v} vanished")
    return keep + new


def _common_factor(eqs: list[MultiPoly], var: str) -> UniPoly:
    """Primitive gcd of the equations left after elimination, all in var;
    raises PositiveDimensionalError when every one of them vanished."""
    polys = [e.as_unipoly(var) for e in eqs if not e.is_zero]
    if not polys:
        raise PositiveDimensionalError("all equations vanished during elimination")
    out = polys[0]
    for p in polys[1:]:
        out = out.gcd(p).primitive()
    return out.primitive()


def eliminate(ms: MatchingSystem, order: Sequence[str] | None = None) -> UniPoly:
    """One elimination step per variable of the given order, then the gcd.

    Returns a univariate polynomial in the surviving unknown whose real
    roots contain every crossing ordinate (plus possible extraneous roots
    from vanishing leading coefficients, screened by back-substitution).
    Raises PositiveDimensionalError when an intermediate resultant of a
    nonzero system vanishes identically.
    """
    if order is None:
        order = default_order(ms)
    survivor = [v for v in ms.unknowns if v not in order]
    if len(survivor) != 1:
        raise MatchError(f"elimination order must leave one unknown, left {survivor}")
    eqs = list(ms.equations)
    for v in order:
        eqs = _eliminate_step(eqs, v)
    return _common_factor(eqs, survivor[0])


def _residual(eq: MultiPoly, point: dict[str, Fraction]) -> tuple[float, float]:
    """(eq at the point, the sum of its terms' moduli), in floats, in one
    pass over the terms: each term's coefficient (``floats``) times the
    integer powers of the coordinates, and its modulus by ``abs``, the same
    float as the term made from the moduli, since rounding a product or an
    integer power is symmetric in sign."""
    fpt = {k: float(v) for k, v in point.items()}
    value = size = 0.0
    for e, t in eq.floats().items():
        for v, k in zip(eq.vars, e):
            if k:
                t *= fpt[v] ** k
        value += t
        size += abs(t)
    return value, size


def _residual_ok(eq: MultiPoly, point: dict[str, Fraction]) -> bool:
    """|eq| at the point, in floats, within RESIDUAL_RTOL of 1 plus the sum
    of its terms' moduli, the scale of their rounding."""
    value, size = _residual(eq, point)
    return abs(value) <= RESIDUAL_RTOL * (1.0 + size)


def _root_values(p: UniPoly, tol: Fraction) -> list[tuple[Fraction, int]]:
    """Distinct real roots with exact multiplicities, refined to tol.

    With g_1 = gcd(p, p') and g_{k+1} = gcd(g_k, g_k'), a root's multiplicity
    is 1 plus the number of the squarefree parts g_k / g_{k+1} that vanish at
    it, each decided by a Sturm count on the root's isolating interval.
    """
    if p.is_zero:
        raise PositiveDimensionalError("zero polynomial has a continuum of roots")
    sf, ivs = isolate_real_roots(p)
    g = p.exact_div(sf)  # gcd(p, p') up to a constant factor
    parts = []
    while g.degree >= 1:
        h = g.gcd(g.deriv())
        part = g.exact_div(h)
        parts.append((part, sturm_chain(part)))
        g = h
    out = []
    for iv in ivs:
        r = refine_root(sf, iv, tol)
        mult = 1 + sum(1 for q, chain in parts if sturm_count(q, iv.lo, iv.hi, chain))
        out.append((r, mult))
    return out


def _extend(eqs: Sequence[MultiPoly], assign: dict[str, Fraction],
            names: Iterable[str]) -> list[dict[str, Fraction]]:
    """Every extension of assign to the unknowns in names, one at a time.

    Each unknown takes the real roots of the equation of lowest degree in it
    (the first on a tie) among those univariate in it once the values found
    so far are substituted: a linear one is solved exactly and rounded to a
    multiple of 2^-LINEAR_BITS (only float screens and verification read
    it, and the exact quotient can carry hundreds of bits), any other is
    refined to INTERNAL_REFINE.  A branch that no equation fixes ends.
    """
    live = [(eq, eq.actual_vars()) for eq in eqs]
    partial = [assign]
    for v in names:
        nxt = []
        for a in partial:
            best: Optional[UniPoly] = None
            for eq, vs in live:
                if [w for w in vs if w not in a] != [v]:
                    continue
                p = eq.univariate({k: x for k, x in a.items() if k in eq.vars}, v)
                if p.degree >= 1 and (best is None or p.degree < best.degree):
                    best = p
            if best is None:
                continue
            if best.degree == 1:
                q = -best.coeffs[0] / best.coeffs[1]
                roots = [Fraction(round(q * 2**LINEAR_BITS), 2**LINEAR_BITS)]
            else:
                roots = real_roots(best, INTERNAL_REFINE)
            nxt += [{**a, v: x} for x in roots]
        partial = nxt
    return partial


def back_substitute(root: RatLike, ms: MatchingSystem,
                    order: Sequence[str] | None = None,
                    ordered: bool = True) -> list[tuple[Fraction, ...]]:
    """Extend an eliminant root to full ordinate tuples.

    Solves the equations for the eliminated unknowns in reverse elimination
    order (``_extend``) and discards assignments that fail any original
    equation, an ordering constraint, a distinctness check, or an
    excluded-ordinate screen.  An empty result means the root was
    extraneous.
    """
    if order is None:
        order = default_order(ms)
    survivor = [v for v in ms.unknowns if v not in order][0]
    return [tuple(a[v] for v in ms.unknowns)
            for a in _extend(ms.equations, {survivor: rat(root)}, reversed(order))
            if _screens_pass(ms, a, ordered=ordered)]


COINCIDENCE_GAP = Fraction(1, 10**12)


def _screens_pass(ms: MatchingSystem, assign: dict[str, Fraction],
                  ordered: bool = True) -> bool:
    if ordered:
        for lo, hi in ms.orderings:
            if not assign[hi] - assign[lo] > COINCIDENCE_GAP:
                return False
    for v in ms.nonzero:
        if abs(assign[v]) < Fraction(1, 10**9):
            return False
    point = {v: assign[v] for v in ms.unknowns}
    return all(_residual_ok(eq, point) for eq in ms.equations)


# ---------------------------------------------------------------------------
# rational square root
# ---------------------------------------------------------------------------

_SQRT_SHIFT = 96


def rat_sqrt(v: Fraction) -> Fraction:
    """Rational approximation of sqrt(v) with absolute error well below the
    internal refinement scale.  Requires v >= 0."""
    if v < 0:
        raise AlgebraError("square root of a negative rational")
    if v == 0:
        return Fraction(0)
    n, d = v.numerator, v.denominator
    scaled = math.isqrt((n * d) << (2 * _SQRT_SHIFT))
    return Fraction(scaled, d << _SQRT_SHIFT)


# ---------------------------------------------------------------------------
# core solvers per topology
# ---------------------------------------------------------------------------


@dataclass
class _CoreResult:
    eliminant: UniPoly
    var: str
    tuples: list[tuple[tuple[Fraction, ...], int]]  # (ordinates, multiplicity)
    positive_dimensional: bool
    diagnostics: dict


def _direct_core(ms: MatchingSystem) -> _CoreResult:
    """Plain resultant elimination in ``default_order(ms)`` down to y1; every
    eliminant root is back-substituted, and a root that extends to no tuple
    counts as extraneous.  The route of two-zone systems, and the fallback
    for three-zone structures outside the sum/difference shape."""
    diag: dict = {"extraneous_roots": 0}
    if ms.topology == "three_zone":
        diag["route"] = "direct"
    posdim = _CoreResult(UniPoly.zero("y1"), "y1", [], True, diag)
    if ms.degenerate_family:
        return posdim
    try:
        elim = eliminate(ms)
    except PositiveDimensionalError:
        return posdim
    tuples: list[tuple[tuple[Fraction, ...], int]] = []
    for r, mult in _root_values(elim, INTERNAL_REFINE):
        exts = back_substitute(r, ms)
        if not exts:
            diag["extraneous_roots"] += 1
        for t in exts:
            tuples.append((t, mult))
    return _CoreResult(elim, "y1", _dedupe(tuples), False, diag)


def _halve(p: MultiPoly, var: str, newvar: str) -> MultiPoly:
    """p as a polynomial in newvar = var^2, after dividing out the factor var
    once when every term is odd in var (var = 0 is the excluded
    coincident-pair locus).  Raises MatchError when p is not even in var
    after that."""
    if var not in p.vars:
        return p
    i = p.vars.index(var)
    odd = all(e[i] % 2 for e in p.ints)
    if any((e[i] - odd) % 2 for e in p.ints):
        raise MatchError("loss of pair-swap symmetry")
    names = p.vars[:i] + (newvar,) + p.vars[i + 1:]
    perm = sorted(range(len(names)), key=names.__getitem__)
    return MultiPoly.from_ints(tuple(names[j] for j in perm),
                               {tuple((e[j] - odd) // 2 if j == i else e[j] for j in perm): c
                                for e, c in p.ints.items()}, p.content)


def _three_zone_core(ms: MatchingSystem) -> _CoreResult:
    """Sum/difference elimination: step w by the right pair equation, step
    z, strip the odd factor v and halve to V = v^2, step V, and take the gcd
    in u of what is left (see the module docstring).  A spread z or V that no
    equation contains leaves a curve of solutions wherever the eliminant has
    a root.  Raises MatchError when the system is outside the shape.

    A root of u takes V from the halved equations (``_candidate_V``), z from
    the equations step w left, in which w is exact, and w from the pivot s4;
    a root that extends to no screened tuple counts as extraneous."""
    diag: dict = {"extraneous_roots": 0, "route": "sum_diff"}
    s1, sdiff, ssum, s4 = to_sum_diff(ms)
    if s4.degree("z") > 0 or s4.degree("w") > 1:
        raise MatchError("right zone restriction is not linear in the pair sum")
    posdim = _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    if ms.degenerate_family:
        return posdim
    if s4.degree("w") == 0:  # a nonzero constant: no pair shares a level
        return _CoreResult(UniPoly.const(1, "u"), "u", [], False, diag)
    try:
        eqs = _eliminate_step([s4, s1, sdiff, ssum], "w")  # s4 first: the pivot
        _, diff, total = eqs  # s1 has no w and comes first
        if diff.degree("z") > 1 or total.degree("z") > 2:
            raise MatchError("middle zone restriction is not quadratic")
        free = not any(e.degree("z") > 0 for e in eqs)
        halved = [_halve(e, "v", "V") for e in _eliminate_step(eqs, "z")]
        free = free or not any(e.degree("V") > 0 for e in halved)
        elim = _common_factor(_eliminate_step(halved, "V"), "u")
    except PositiveDimensionalError:
        return posdim
    if free and elim.degree >= 1:
        return posdim

    tuples: list[tuple[tuple[Fraction, ...], int]] = []
    # u is refined far below the coincidence gap so that a pair spread of
    # exactly zero cannot masquerade as a tiny positive V
    for u_hat, mult in _root_values(elim, Fraction(1, 10**40)):
        found = len(tuples)
        for V_hat in _candidate_V(halved, u_hat):
            for a in _extend([*eqs, s4], {"u": u_hat, "v": rat_sqrt(V_hat)}, ("z", "w")):
                t = ((a["u"] - a["v"]) / 2, (a["u"] + a["v"]) / 2,
                     (a["w"] - a["z"]) / 2, (a["w"] + a["z"]) / 2)
                if _screens_pass(ms, dict(zip(ms.unknowns, t))):
                    tuples.append((t, mult))
        if len(tuples) == found:
            diag["extraneous_roots"] += 1
    return _CoreResult(elim, "u", _dedupe(tuples), False, diag)


def _candidate_V(eqs: list[MultiPoly], u_hat: Fraction) -> list[Fraction]:
    """The roots V >= 0 of the first halved equation that contains V at
    u = u_hat, refined to 1e-34, far below the coincidence gap squared
    (1e-24): a V = 0 (a coincident pair) refined above zero gives a spread
    v that the ordering screen drops, whichever side it landed on."""
    for p in eqs:
        q = p.univariate({"u": u_hat}, "V")
        if q.degree >= 1:
            return [V for V in real_roots(q, Fraction(1, 10**34)) if V >= 0]
    return []


DEDUPE_GAP = Fraction(1, 10**9)


def _dedupe(tuples: list[tuple[tuple[Fraction, ...], int]]) -> list:
    out: list[tuple[tuple[Fraction, ...], int]] = []
    for t, m in tuples:
        if any(all(abs(a - b) < DEDUPE_GAP for a, b in zip(t, s)) for s, _ in out):
            continue
        out.append((t, m))
    return out


# ---------------------------------------------------------------------------
# theorem bound table
# ---------------------------------------------------------------------------


def _sgn(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def theorem_bound(ps: PiecewiseSystem, continuous: bool | None = None) -> BoundInfo:
    """Upper bound (or annulus / nonexistence statement) for the matched
    configuration.  Configurations with the nonlinear zone on the right are
    reduced by mirror symmetry; anything else is reported as not covered.
    ``continuous`` is the system's ``is_continuous`` flag when the caller
    has it already; otherwise it is computed where a bound needs it."""
    if len(ps.zones) == 2:
        return _bound_two_zone(ps, continuous)
    if len(ps.zones) == 3:
        return _bound_three_zone(ps)
    return BoundInfo("not_covered", None, f"{len(ps.zones)}-zone system")


def _is_sad(z: Zone) -> bool:
    return isinstance(z.payload, LinearSaddle)


def _bound_two_zone(ps: PiecewiseSystem, cont: bool | None) -> BoundInfo:
    a, b = ps.zones
    if _is_sad(a) and not _is_sad(b):
        return _bound_two_zone(mirror(ps), cont)  # mirroring keeps continuity
    if not _is_sad(b):
        return BoundInfo("not_covered", None, f"{ps.kinds[0]}+{ps.kinds[1]}")
    sad: LinearSaddle = b.payload
    if cont is None:
        cont, _ = is_continuous(ps)
    if isinstance(a.payload, DoubleCenter):
        dc = a.payload
        if cont:
            return BoundInfo("no_limit_cycle", 0, "double-center/saddle, continuous",
                             "continuous band of periodic solutions")
        note = ""
        if dc.n != 0 and sad.delta != 0:
            disc = Fraction(12) * sad.mu / (dc.n * sad.delta**2) * (sad.delta - dc.n * sad.mu)
            note = f"existence predicted iff discriminant > 0; here sign {_sgn(disc)}"
        return BoundInfo("at_most", 1, "double-center/saddle, discontinuous", note)
    if isinstance(a.payload, GlobalCenter):
        if cont:
            return BoundInfo("no_periodic_solution", 0, "global-center/saddle, continuous",
                             "matched saddle sits on the separation line")
        note = ""
        if sad.delta != 0:
            s = a.payload
            ratio = sad.mu / sad.delta
            cond = _sgn(sad.mu * sad.delta * (2 * s.xi + ratio)) > 0 and _sgn(s.xi * ratio) < 0
            note = ("printed existence condition holds" if cond
                    else "printed existence condition fails (advisory; eliminant decides)")
        return BoundInfo("at_most", 1, "global-center/saddle, discontinuous", note)
    if isinstance(a.payload, CubicCenter):
        g = a.payload
        if cont:
            return BoundInfo("no_limit_cycle", 0, "general-center/saddle, continuous",
                             "continuum of periodic solutions")
        theta = 2 * g.b * sad.delta * sad.mu * g.q - 3 * sad.mu**2 * g.q**2
        note = f"sign condition 2*b*delta*mu*q - 3*mu^2*q^2 = {theta}"
        return BoundInfo("at_most", 2, "general-center/saddle, discontinuous", note)
    return BoundInfo("not_covered", None, f"{ps.kinds[0]}+{ps.kinds[1]}")  # pragma: no cover


def _bound_three_zone(ps: PiecewiseSystem) -> BoundInfo:
    zl, zm, zr = ps.zones
    nonlin = [not _is_sad(z) for z in ps.zones]
    if sum(nonlin) != 1 or not (_is_sad(zm) and _is_sad(zr)):
        if sum(nonlin) == 1 and nonlin[2] and _is_sad(zl) and _is_sad(zm):
            return _bound_three_zone(mirror(ps))
        return BoundInfo("not_covered", None, "+".join(ps.kinds))
    m: LinearSaddle = zm.payload
    r: LinearSaddle = zr.payload
    d1, d2, g1 = m.delta, r.delta, m.gamma
    if isinstance(zl.payload, DoubleCenter):
        n = zl.payload.n
        case = "double-center/saddle/saddle"
        if d1 != 0 and d2 != 0 and n != 0:
            return BoundInfo("at_most", 4, case, "generic: delta1*delta2*n != 0")
        if d1 == 0 and d2 != 0 and n != 0:
            return BoundInfo("at_most", 2, case, "delta1 = 0")
        if d1 == 0 and n == 0:
            cond = (m.mu + m.beta) * (2 * d2 * g1 + (r.mu - r.beta) * (m.mu - m.beta))
            if cond == 0:
                return BoundInfo("annulus", None, case, "degenerate transport chain")
            return BoundInfo("no_periodic_solution", 0, case, "delta1 = n = 0, nondegenerate")
        return BoundInfo("not_covered", None, case, "sub-case outside the table")
    if isinstance(zl.payload, GlobalCenter):
        case = "global-center/saddle/saddle"
        if d1 == 0 or d2 == 0:
            return BoundInfo("not_covered", None, case, "delta1*delta2 = 0 outside the table")
        l1 = -(m.beta + m.mu)
        xi = zl.payload.xi
        if l1 != 0 and xi != 0:
            return BoundInfo("at_most", 4, case, "l1 * xi != 0")
        if l1 != 0:
            return BoundInfo("at_most", 3, case, "xi = 0")  # unreachable: xi > 0 enforced
        if xi != 0:
            return BoundInfo("at_most", 2, case, "l1 = 0")
        return BoundInfo("no_periodic_solution", 0, case, "l1 = xi = 0")  # pragma: no cover
    if isinstance(zl.payload, CubicCenter):
        g = zl.payload
        case = "general-center/saddle/saddle"
        if d1 == 0 and (m.beta**2 - m.mu**2) * d2 == 0 and \
                8 * d2 * g1 + 4 * (m.beta - m.mu) * (r.beta - r.mu) == 0:
            return BoundInfo("annulus", None, case, "degenerate chain with delta1 = 0")
        if d1 == 0 and d2 != 0:
            exact = (m.beta**2 - m.mu**2) * g.q != 0
            return BoundInfo("at_most", 1, case,
                             "exactly one claimed" if exact else "at most one")
        if d1 != 0 and d2 != 0 and g.b * d1 - 6 * (m.beta + m.mu) * g.q == 0:
            return BoundInfo("at_most", 2, case, "b*delta1 = 6*(beta1+mu1)*q")
        if g.q == 0 and g.b != 0 and d1 != 0 and d2 != 0:
            return BoundInfo("at_most", 3, case, "q = 0")
        if d1 != 0 and d2 != 0 and g.q != 0:
            return BoundInfo("at_most", 4, case, "generic: delta1*delta2*q != 0")
        return BoundInfo("not_covered", None, case, "sub-case outside the table")
    return BoundInfo("not_covered", None, "+".join(ps.kinds))  # pragma: no cover


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


_ANNULUS_SCHEDULE = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3, 0.6, 1.2, 2.5)


def annulus_check(machine, boundaries: Sequence[int]) -> bool:
    """True iff the flow of ``machine``, a ``dynamics.FlowMachine``,
    exhibits at least two distinct closed orbits through one of the given
    boundaries, those of the crossing topologies whose solution set the
    algebra found not discrete.

    Magnitudes m are sampled in the order of ``_ANNULUS_SCHEDULE``, from
    the inside out: about doubling from 0.0025 up to 2.5, since bands of
    closed orbits hug the matched center.  Each is probed at +m, then -m,
    in either crossing direction; one oval meets the line twice, so a
    magnitude counts once when either point closes, and the scan stops at
    the second closed magnitude.  The scan runs on the machine's budget as
    given, as the verifier does; each arc ends on its own decision as any
    arc does (``dynamics.integrate_arc``), and a window in the budget only
    bounds the arcs, with their escape proofs off.

    The order decides where the scan stops, never the flag: the flag says
    that some boundary has at least two closing magnitudes in the
    schedule, a property of the set of magnitudes, and whether m closes
    does not depend on what ran before it, because
    ``FlowMachine.displacement`` is a pure function of (boundary, y,
    direction) for one machine (its arc plans, reach polynomials and
    compiled code are deterministic caches)."""
    for b in boundaries:
        closed = 0
        for m in _ANNULUS_SCHEDULE:
            closed += any(d is not None and abs(d) < dynamics.CLOSURE_TOL
                          for d in (machine.displacement(b, y, direction)
                                    for y in (m, -m) for direction in (1, -1)))
            if closed >= 2:
                return True
    return False


def solve(ps: PiecewiseSystem, verify: bool = True, cfg=None) -> SolveReport:
    """Full pipeline: continuity, theorem bound, matching systems for every
    crossing topology, elimination, isolation, refinement, screening, and
    (optionally) dynamic verification of every candidate."""
    cont, _ = is_continuous(ps)
    bound = theorem_bound(ps, cont)
    try:
        mss = matching_systems_for(ps)
    except MatchError as e:
        raise NotCoveredError(str(e)) from e

    diagnostics: dict = {"topologies": {}}
    candidates: list[CandidateCycle] = []
    posdim_boundaries: list[int] = []
    main_elim = UniPoly.zero("y1")
    main_var = "y1"

    for k, (tag, bidx, ms) in enumerate(mss):
        try:
            core = _three_zone_core(ms) if ms.topology == "three_zone" else _direct_core(ms)
        except MatchError:
            core = _direct_core(ms)
        diagnostics["topologies"][tag] = core.diagnostics
        if k == 0:
            main_elim, main_var = core.eliminant, core.var
        if core.positive_dimensional and bidx[0] not in posdim_boundaries:
            posdim_boundaries.append(bidx[0])
        for t, mult in core.tuples:
            # (lower, upper) per boundary, lower boundary first
            ords = tuple((bidx[i // 2], v) for i, v in enumerate(t))
            candidates.append(CandidateCycle(tag, ords, mult))

    machine = dynamics.FlowMachine(ps, cfg)
    if verify:
        for c in candidates:
            status, reason = machine.verify_candidate(c)
            c.status, c.reason = status, reason
    annulus = annulus_check(machine, posdim_boundaries)

    report = SolveReport(
        continuous=cont,
        bound=bound,
        candidates=candidates,
        eliminant=main_elim,
        eliminant_var=main_var,
        positive_dimensional=bool(posdim_boundaries),
        annulus=annulus,
        diagnostics=diagnostics,
        machine=machine,
    )
    if verify and bound.numeric:
        main_tag = "three_zone" if len(ps.zones) == 3 else "two_zone"
        n_main = len(report.verified(main_tag))
        if n_main > bound.count:
            raise InvariantViolation(
                f"{n_main} verified cycles exceed the bound {bound.count} "
                f"({bound.case})")
    return report
