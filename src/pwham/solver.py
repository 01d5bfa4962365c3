"""Elimination pipeline: matching system to screened candidate cycles.

The route for a three-zone system works in sum/difference variables: the
right-hand level pair fixes w, the transported pair is reduced by one
resultant to a polynomial that is even in v, and the substitution V = v^2
leaves two polynomials that are (for the covered families) linear in V, so
the final eliminant in the swap-invariant u has degree at most four --
exactly the shape behind the "at most four" counts.  Two-zone systems are
eliminated directly to a univariate polynomial in the lower ordinate.

Every eliminant root is refined by exact bisection, back-substituted through
the remaining equations, and screened: ordering constraints, distinctness,
excluded singular ordinates, and residuals of the original equations.
Surviving candidates are handed to the dynamics oracle for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    AlgebraError,
    MultiPoly,
    RatLike,
    RootInterval,
    UniPoly,
    rat,
    real_roots,
    refine_root,
    squarefree,
    sturm_chain,
    sturm_count,
    sturm_isolate,
)
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
    zone_indices: tuple[int, ...]
    boundary_indices: tuple[int, ...]
    boundary_xs: tuple[Fraction, ...]
    ordinates: tuple[tuple[int, Fraction], ...]
    multiplicity: int = 1
    screens: dict = dc_field(default_factory=dict)
    status: str = "unverified"
    reason: str = ""

    def ordinates_on(self, boundary_index: int) -> list[Fraction]:
        return [v for b, v in self.ordinates if b == boundary_index]

    def floats(self) -> list[float]:
        return [float(v) for _, v in self.ordinates]


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
    continuity_mismatches: list
    bound: BoundInfo
    candidates: list[CandidateCycle]
    eliminant: UniPoly
    eliminant_var: str
    positive_dimensional: bool
    annulus: bool
    diagnostics: dict

    def verified(self, topology: str | None = None) -> list[CandidateCycle]:
        return [c for c in self.candidates if c.status == "verified"
                and (topology is None or c.topology == topology)]

    def main_topology(self) -> str:
        return "three_zone" if any(c.topology == "three_zone" for c in self.candidates) \
            or self.eliminant_var == "u" else "two_zone"


# ---------------------------------------------------------------------------
# generic elimination (configurable order) and back-substitution
# ---------------------------------------------------------------------------


def default_order(ms: MatchingSystem) -> tuple[str, ...]:
    """Innermost boundary variables first, surviving variable y1."""
    if ms.topology == "three_zone":
        return ("y4", "y3", "y2")
    return ("y2",)


def eliminate(ms: MatchingSystem, order: Sequence[str] | None = None) -> UniPoly:
    """Successive Sylvester resultants over the given elimination order.

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
    eqs = [e for e in ms.equations]
    for v in order:
        keep, active = [], []
        for e in eqs:
            (active if e.degree(v) > 0 else keep).append(e)
        if not active:
            continue
        pivot = min(active, key=lambda e: e.degree(v))
        for e in active:
            if e is pivot:
                continue
            r = resultant_or_flag(pivot, e, v)
            if r is None:
                raise PositiveDimensionalError(f"resultant in {v} vanished")
            keep.append(r)
        eqs = keep
    out = UniPoly.zero(survivor[0])
    got = False
    for e in eqs:
        if e.is_zero:
            continue
        u = e.as_unipoly(survivor[0])
        out = u if not got else out.gcd(u).primitive()
        got = True
    if not got:
        raise PositiveDimensionalError("all equations vanished during elimination")
    return out.primitive() if not out.is_zero else out


def resultant_or_flag(p: MultiPoly, q: MultiPoly, v: str) -> Optional[MultiPoly]:
    from .algebra import resultant

    r = resultant(p, q, v)
    return None if r.is_zero else r


def _residual_ok(eq: MultiPoly, point: dict[str, Fraction], rtol: float = RESIDUAL_RTOL) -> bool:
    fpt = {k: float(v) for k, v in point.items()}
    total = 0.0
    for e, c in eq.terms.items():
        t = abs(float(c))
        for var, k in zip(eq.vars, e):
            if k:
                t *= abs(fpt[var]) ** k
        total += t
    val = abs(eq.eval_float(fpt))
    return val <= rtol * (1.0 + total)


def _isolate(p: UniPoly) -> tuple[UniPoly, list[RootInterval]]:
    """The primitive squarefree part of p and the isolating intervals of its
    real roots, one per distinct real root of p."""
    sf = squarefree(p).primitive()
    if sf.degree < 1:
        return sf, []
    b = sf.cauchy_bound()
    return sf, sturm_isolate(sf, -b, b)


def _root_values(p: UniPoly, tol: Fraction) -> list[tuple[Fraction, int]]:
    """Distinct real roots with exact multiplicities, refined to tol.

    With g_1 = gcd(p, p') and g_{k+1} = gcd(g_k, g_k'), a root's multiplicity
    is 1 plus the number of the squarefree parts g_k / g_{k+1} that vanish at
    it, each decided by a Sturm count on the root's isolating interval.
    """
    if p.is_zero:
        raise PositiveDimensionalError("zero polynomial has a continuum of roots")
    sf, ivs = _isolate(p)
    g = p.divmod(sf)[0]  # gcd(p, p') up to a constant factor
    parts = []
    while g.degree >= 1:
        h = g.gcd(g.deriv())
        part = g.divmod(h)[0]
        parts.append((part, sturm_chain(part)))
        g = h
    out = []
    for iv in ivs:
        r = refine_root(sf, iv, tol)
        mult = 1 + sum(1 for q, chain in parts if sturm_count(q, iv.lo, iv.hi, chain))
        out.append((r, mult))
    return out


def back_substitute(root: RatLike, ms: MatchingSystem,
                    order: Sequence[str] | None = None,
                    tol: Fraction = INTERNAL_REFINE,
                    ordered: bool = True) -> list[tuple[Fraction, ...]]:
    """Extend an eliminant root to full ordinate tuples.

    Solves the remaining equations one unknown at a time (each becomes
    univariate after substituting the values found so far, taken in reverse
    elimination order), keeps real solutions only, and discards assignments
    that fail any original equation, an ordering constraint, a distinctness
    check, or an excluded-ordinate screen.  An empty result means the root
    was extraneous.
    """
    if order is None:
        order = default_order(ms)
    survivor = [v for v in ms.unknowns if v not in order][0]
    partial: list[dict[str, Fraction]] = [{survivor: rat(root)}]
    for v in reversed(list(order)):
        nxt: list[dict[str, Fraction]] = []
        for assign in partial:
            cands = _solve_one_unknown(ms, assign, v, tol)
            for val in cands:
                d = dict(assign)
                d[v] = val
                nxt.append(d)
        partial = nxt
    out = []
    for assign in partial:
        if _screens_pass(ms, assign, ordered=ordered):
            out.append(tuple(assign[v] for v in ms.unknowns))
    return out


def _solve_one_unknown(ms: MatchingSystem, assign: dict[str, Fraction],
                       v: str, tol: Fraction) -> list[Fraction]:
    best: Optional[UniPoly] = None
    for eq in ms.equations:
        live = [w for w in eq.actual_vars() if w not in assign]
        if live != [v]:
            continue
        u = eq.subs({k: val for k, val in assign.items() if k in eq.vars}).as_unipoly(v)
        if u.is_zero:
            continue
        if u.degree == 0:
            continue
        if best is None or u.degree < best.degree:
            best = u
    if best is None:
        return []
    return real_roots(best, tol)


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
    if ms.degenerate_family:
        return _CoreResult(UniPoly.zero("y1"), "y1", [], True, diag)
    try:
        elim = eliminate(ms)
    except PositiveDimensionalError:
        return _CoreResult(UniPoly.zero("y1"), "y1", [], True, diag)
    tuples: list[tuple[tuple[Fraction, ...], int]] = []
    if elim.degree >= 1:
        for r, mult in _root_values(elim, INTERNAL_REFINE):
            exts = back_substitute(r, ms)
            if not exts:
                diag["extraneous_roots"] += 1
            for t in exts:
                tuples.append((t, mult))
    return _CoreResult(elim, "y1", _dedupe(tuples), False, diag)


def _even_in(p: MultiPoly, var: str) -> bool:
    if var not in p.vars:
        return True
    i = p.vars.index(var)
    return all(e[i] % 2 == 0 for e in p.terms)


def _strip_odd_factor(p: MultiPoly, var: str) -> MultiPoly:
    """If every term has odd degree in var, divide the factor var out once
    (var = 0 is the excluded coincident-pair locus)."""
    if p.is_zero or var not in p.vars:
        return p
    i = p.vars.index(var)
    if all(e[i] % 2 == 1 for e in p.terms):
        return p.exact_div(MultiPoly.var(var))
    return p


def _halve_even(p: MultiPoly, var: str, newvar: str) -> MultiPoly:
    """Rewrite an even polynomial in var as a polynomial in newvar = var^2."""
    if var not in p.vars:
        return p
    i = p.vars.index(var)
    out = MultiPoly.zero()
    nv = MultiPoly.var(newvar)
    for e, c in p.terms.items():
        mono = MultiPoly.const(c)
        for j, (vname, k) in enumerate(zip(p.vars, e)):
            if k == 0:
                continue
            mono = mono * (nv ** (k // 2) if j == i else MultiPoly.var(vname) ** k)
        out = out + mono
    return out


def _three_zone_core(ms: MatchingSystem) -> _CoreResult:
    """Sum/difference elimination; requires the middle and right zones to
    restrict to polynomials of degree <= 2 on the boundaries (true for every
    covered configuration once a lone nonlinear outer zone sits on the
    left).  Raises MatchError when the structure does not apply."""
    diag: dict = {"extraneous_roots": 0, "route": "sum_diff"}
    sd = to_sum_diff(ms)
    s1, sdiff, ssum, s4 = sd.equations

    if s4.degree("z") > 0 or s4.degree("w") > 1:
        raise MatchError("right zone restriction is not linear in the pair sum")
    if ms.degenerate_family:
        return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)

    # stage 1: the right-hand pair sum
    if s4.is_zero:
        return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    if s4.degree("w") == 0:
        return _CoreResult(UniPoly.const(1, "u"), "u", [], False, diag)  # inconsistent
    wc = s4.coeffs_in("w")
    if wc[1].actual_vars() or wc[0].actual_vars():
        raise MatchError("pair-sum coefficient is not constant")
    w0 = -wc[0].eval({}) / wc[1].eval({})
    diag["w0"] = w0
    sdiff2 = sdiff.subs({"w": w0})
    ssum2 = ssum.subs({"w": w0})
    if sdiff2.degree("z") > 1 or ssum2.degree("z") > 2:
        raise MatchError("middle zone restriction is not quadratic")

    # stage 2: eliminate the right-hand pair spread z
    dz_d, dz_s = sdiff2.degree("z"), ssum2.degree("z")
    if dz_d >= 1 and dz_s >= 1:
        r_uv = resultant_or_flag(sdiff2, ssum2, "z")
        if r_uv is None:
            return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    elif dz_d >= 1:
        r_uv = ssum2  # z-free already
    elif dz_s >= 1:
        r_uv = sdiff2
    else:
        # neither equation constrains z: if both hold on a curve, the spread
        # is free -> not a discrete candidate set
        if sdiff2.is_zero and ssum2.is_zero:
            return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
        r_uv = sdiff2 if not sdiff2.is_zero else ssum2

    r_uv = _strip_odd_factor(r_uv, "v")
    if not (_even_in(r_uv, "v") and _even_in(s1, "v")):
        raise MatchError("loss of pair-swap symmetry")  # pragma: no cover
    s1_uV = _halve_even(s1, "v", "V")
    r_uV = _halve_even(r_uv, "v", "V")

    # stage 3: eliminate V = v^2
    d1, d2 = s1_uV.degree("V"), r_uV.degree("V")
    if d1 >= 1 and d2 >= 1:
        elim_mp = resultant_or_flag(s1_uV, r_uV, "V")
        if elim_mp is None:
            return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    elif d1 == 0 and d2 == 0:
        a = s1_uV.as_unipoly("u") if not s1_uV.is_zero else UniPoly.zero("u")
        b = r_uV.as_unipoly("u") if not r_uV.is_zero else UniPoly.zero("u")
        if a.is_zero and b.is_zero:
            return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
        g = a.gcd(b) if not (a.is_zero or b.is_zero) else (a if b.is_zero else b)
        if g.degree >= 1:
            # u constrained but the pair spread v is free
            return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
        return _CoreResult(UniPoly.const(1, "u"), "u", [], False, diag)
    else:
        elim_mp = s1_uV if d1 == 0 else r_uV

    if elim_mp.is_zero:
        return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    elim = elim_mp.as_unipoly("u").primitive() if elim_mp.degree("u") >= 0 else UniPoly.zero("u")
    if elim.is_zero or elim.degree < 0:
        return _CoreResult(UniPoly.zero("u"), "u", [], True, diag)
    if elim.degree == 0:
        return _CoreResult(elim, "u", [], False, diag)

    tuples: list[tuple[tuple[Fraction, ...], int]] = []
    # u is refined far below the coincidence gap so that a pair spread of
    # exactly zero cannot masquerade as a tiny positive V
    for u_hat, mult in _root_values(elim, Fraction(1, 10**40)):
        vs = _candidate_V(s1_uV, r_uV, u_hat)
        if not vs:
            diag["extraneous_roots"] += 1
        for V_hat in vs:
            if V_hat < V_NOISE_FLOOR:
                continue  # below the uncertainty induced by the refinements
            v_hat = rat_sqrt(V_hat)
            for z_hat in _candidate_z(sdiff2, ssum2, u_hat, v_hat):
                t = (
                    (u_hat - v_hat) / 2,
                    (u_hat + v_hat) / 2,
                    (w0 - z_hat) / 2,
                    (w0 + z_hat) / 2,
                )
                assign = dict(zip(ms.unknowns, t))
                if _screens_pass(ms, assign):
                    tuples.append((t, mult))
    return _CoreResult(elim, "u", _dedupe(tuples), False, diag)


V_NOISE_FLOOR = Fraction(1, 10**30)


def _candidate_V(s1_uV: MultiPoly, r_uV: MultiPoly, u_hat: Fraction) -> list[Fraction]:
    """Positive V values consistent with both reduced equations at u = u_hat.

    V roots are refined far below the noise floor so that an exact V = 0
    (a coincident pair) cannot surface as a tiny positive value."""
    polys = []
    for p in (s1_uV, r_uV):
        q = p.subs({"u": u_hat})
        if q.degree("V") >= 1:
            polys.append(q.as_unipoly("V"))
    if not polys:
        return []
    roots = real_roots(polys[0], V_NOISE_FLOOR / 10**4)
    out = []
    for V in roots:
        if V <= 0:
            continue
        ok = all(_residual_ok(p, {"u": u_hat, "V": V}) for p in (s1_uV, r_uV))
        if ok:
            out.append(V)
    return out


def _candidate_z(sdiff2: MultiPoly, ssum2: MultiPoly,
                 u_hat: Fraction, v_hat: Fraction) -> list[Fraction]:
    at = {"u": u_hat, "v": v_hat}
    lin = sdiff2.subs(at)
    if lin.degree("z") == 1:
        c = lin.coeffs_in("z")
        c1 = c[1].eval({})
        if c1 != 0:
            z = -c[0].eval({}) / c1
            return [z]
    quad = ssum2.subs(at)
    if quad.degree("z") >= 1:
        return [z for z in real_roots(quad.as_unipoly("z"), INTERNAL_REFINE)]
    return []


def _dedupe(tuples: list[tuple[tuple[Fraction, ...], int]],
            tol: Fraction = Fraction(1, 10**9)) -> list:
    out: list[tuple[tuple[Fraction, ...], int]] = []
    for t, m in tuples:
        if any(all(abs(a - b) < tol for a, b in zip(t, s)) for s, _ in out):
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


_ANNULUS_SCHEDULE = (0.6, -0.6, 0.3, -0.3, 0.15, -0.15, 0.08, -0.08,
                     0.04, -0.04, 0.02, -0.02, 0.01, -0.01, 0.005, -0.005,
                     0.0025, -0.0025, 1.2, -1.2, 2.5, -2.5)


def annulus_check(ps: PiecewiseSystem, positive_dimensional: bool,
                  cfg=None, samples=_ANNULUS_SCHEDULE) -> bool:
    """True iff the algebra reported a non-discrete solution set AND the flow
    exhibits at least two distinct closed orbits through the first boundary.

    Ordinates are sampled inside-out (bands of closed orbits hug the matched
    center) and the scan stops at the second confirmation."""
    if not positive_dimensional:
        return False
    from . import dynamics

    base = cfg or dynamics.IntegratorConfig()
    quick = replace(base, max_time=min(base.max_time, 60.0), window=60.0)
    machine = dynamics.FlowMachine(ps, quick)
    closed: list[float] = []
    for y in samples:
        for direction in (1, -1):
            try:
                y2, _ = machine.return_map(0, y, direction)
            except dynamics.DynamicsError:
                continue
            if abs(y2 - y) < 1e-6:
                closed.append(y)
                break
        # one oval meets the line twice; distinct magnitudes indicate
        # genuinely different orbits of the band
        if len({round(abs(v), 3) for v in closed}) >= 2:
            return True
    return False


def _candidate_from_tuple(ms: MatchingSystem, topo_tag: str, zone_indices,
                          boundary_indices, t, mult) -> CandidateCycle:
    if len(t) == 2:
        ords = ((boundary_indices[0], t[0]), (boundary_indices[0], t[1]))
    else:
        ords = ((boundary_indices[0], t[0]), (boundary_indices[0], t[1]),
                (boundary_indices[1], t[2]), (boundary_indices[1], t[3]))
    return CandidateCycle(
        topology=topo_tag,
        zone_indices=zone_indices,
        boundary_indices=boundary_indices,
        boundary_xs=ms.boundaries,
        ordinates=ords,
        multiplicity=mult,
        screens={"ordering": True, "distinct": True, "residual": True},
    )


def solve(ps: PiecewiseSystem, verify: bool = True, cfg=None) -> SolveReport:
    """Full pipeline: continuity, theorem bound, matching systems for every
    crossing topology, elimination, isolation, refinement, screening, and
    (optionally) dynamic verification of every candidate."""
    cont, mism = is_continuous(ps)
    bound = theorem_bound(ps, cont)
    try:
        mss = matching_systems_for(ps)
    except MatchError as e:
        raise NotCoveredError(str(e)) from e

    diagnostics: dict = {"topologies": {}}
    candidates: list[CandidateCycle] = []
    posdim_any = False
    main_elim = UniPoly.zero("y1")
    main_var = "y1"

    for k, ms in enumerate(mss):
        if ms.topology == "three_zone":
            tag = "three_zone"
            zidx = (0, 1, 2)
            bidx = (0, 1)
            try:
                core = _three_zone_core(ms)
            except MatchError:
                core = _direct_core(ms)
        else:
            if len(mss) == 1:
                tag, zidx, bidx = "two_zone", (0, 1), (0,)
            else:
                i = k - 1
                tag, zidx, bidx = f"two_zone@{i}", (i, i + 1), (i,)
            core = _direct_core(ms)
        diagnostics["topologies"][tag] = core.diagnostics
        if k == 0:
            main_elim, main_var = core.eliminant, core.var
        posdim_any = posdim_any or core.positive_dimensional
        for t, mult in core.tuples:
            candidates.append(_candidate_from_tuple(ms, tag, zidx, bidx, t, mult))

    if verify:
        from . import dynamics

        machine = dynamics.FlowMachine(ps, cfg or dynamics.IntegratorConfig())
        for c in candidates:
            status, reason = machine.verify_candidate(c)
            c.status, c.reason = status, reason
    annulus = annulus_check(ps, posdim_any, cfg=cfg) if posdim_any else False

    report = SolveReport(
        continuous=cont,
        continuity_mismatches=mism,
        bound=bound,
        candidates=candidates,
        eliminant=main_elim,
        eliminant_var=main_var,
        positive_dimensional=posdim_any,
        annulus=annulus,
        diagnostics=diagnostics,
    )
    if verify and bound.numeric:
        main_tag = "three_zone" if len(ps.zones) == 3 else "two_zone"
        n_main = len(report.verified(main_tag))
        if n_main > bound.count:
            raise InvariantViolation(
                f"{n_main} verified cycles exceed the bound {bound.count} "
                f"({bound.case})")
    return report
