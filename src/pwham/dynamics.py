"""Numerical ground truth for the piecewise flow.

Independent of the algebra, arcs inside each strip run event-driven until
they reach a strip edge.  Only transversal Filippov crossings are followed
(sliding or tangential boundary contact aborts with a typed error -- sliding
segments are detected, never simulated).

* A ``linear`` zone's arc is the exact flow of its field A u + b.  Because
  trace A = 0, A^2 = e I, and u(t) = u0 + S1(t) f0 + S2(t) A f0 with
  S1 = sinh(rt)/r, S2 = 2 sinh(rt/2)^2/e (r^2 = e, read as sin for e < 0
  and as t, t^2/2 for e = 0).  A hit of x = c is a root of one quadratic
  in s = 2 tanh(rt/2)/r, polished by Newton in t; the arc then lands at
  exactly x = c.  Where no hit is resolved, ``_escapes`` reads where the
  arc's growth leads x to decide that it crosses no edge at all.  It
  takes no integration step.
* Every other zone runs the embedded Dormand-Prince 8(5,3) integrator
  (DOP853) with FSAL (the field value at the end of an accepted step is the
  first stage of the next) and scipy's error norm, which damps the
  fifth-order estimate by the third-order one.  The step is generated code
  with the zone's field inlined in its 13 evaluations, compiled once per
  distinct monomial support (``_zone_code``).  A boundary hit is localized
  by false position (Illinois) on the length of a real step from the last
  accepted point; the landing then moves along the field onto x = c, so it
  stays on the level curve to second order in the localization error,
  except at a tangency, where it keeps the step's ordinate.  The landed
  step takes the place of the accepted one, and both end the same way.  A
  step that ends inside the strip but turns x around is checked for an
  excursion across an edge by the cubic Hermite of x on the step.  An arc
  that moves away from y = 0 past every root of its zone's reach
  polynomials (``reach``) is proven never to land, and ends there; so
  does one whose step collapses, as at a blow-up, which ends every branch
  that runs off in x with y bounded (dx/dt grows like X^2 there).

Either arc reports the strip edge it ends on (``Trajectory.edge``).  One
orbit walk, ``FlowMachine._walk``, runs the arcs hop by hop and checks that
each landing is a crossing.  The boundary return map, a grid-scan shooting
oracle whose displacement zeros are refined by the same false position, and
the candidate verifier, which accepts an algebraic cycle only when the walk
reproduces its crossing ordinates and closes, all read that walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .reach import beyond_every_root, edge_levels, turning_points
from .systems import PiecewiseSystem, Zone, linear_part, local_forms


class DynamicsError(Exception):
    """Base for integration / return-map failures."""


class NotEntryPoint(DynamicsError):
    pass


class SlidingPoint(DynamicsError):
    """Boundary point where the adjacent fields disagree in sign: sliding or
    tangential contact, not a crossing."""


class NonReturning(DynamicsError):
    pass


# DOP853 error control: relative and absolute tolerance per step
RTOL = 1e-11
ATOL = 1e-13
EVENT_TOL = 1e-10    # landing distance from an edge; an edge start within it
MAX_STEP = 0.2       # longest integration step and recorded exact piece
TANGENT_TOL = 1e-9   # normal velocity below TANGENT_TOL * (1 + |y|): tangency
MATCH_TOL = 1e-5     # a boundary hit this close matches a declared ordinate
CLOSURE_TOL = 1e-6   # a loop or return closer than this is closed
DRIFT_TOL = 1e-8     # relative first-integral drift an accepted arc may have
MAX_HOPS = 12        # crossings a return map follows before giving up


@dataclass
class IntegratorConfig:
    """The budgets of one arc: time, the window |x|, |y| <= window, and
    accepted plus rejected steps.  With ``window=None``, the default, an
    arc has no window: it ends when it can land on no edge again (an exact
    arc that crosses no edge and leaves every bounded set, an integrated
    one by ``ArcPlan.escaped``, at every level).  A number is a bound read
    after each exact piece or DOP853 step: an arc whose piece or step ends
    beyond it ends there, a landing included, and it proves no escape."""

    max_time: float = 400.0
    window: float | None = None
    max_steps: int = 400_000

    def __post_init__(self):
        # written as `not v > 0`, so that NaN is refused too
        if not self.max_time > 0:
            raise ValueError("max_time must be positive")
        if self.window is not None and not self.window > 0:
            raise ValueError("window must be positive")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Trajectory:
    """One arc: its samples, the one strip edge it ends on, why it ended."""

    samples: list  # (t, x, y)
    edge: str | None  # "lo" | "hi" for a reached-boundary arc, else None
    status: str    # reached-boundary | reached-time-limit | hit-equilibrium | step-limit
                   # (DOP853 only: cfg.max_steps used up) | left-window (beyond the window,
                   # proven never to land, or a DOP853 step that overflowed or collapsed)
    end: tuple
    drift: float   # relative first-integral drift (see integrate_arc)
    steps: int        # accepted steps
    rejected: int     # steps rejected by the error control
    event_steps: int  # extra steps that localized the boundary hit or probed an excursion


# ---------------------------------------------------------------------------
# generated float code: fields, first integrals and DOP853 steps
# ---------------------------------------------------------------------------


# Dormand-Prince 8(5,3) tableau (DOP853; Hairer, Norsett & Wanner, Solving
# ODEs I, II.10), digits as in scipy's dop853_coefficients.py.  Row i of _A
# builds stage i + 1 from stages 1..i; a 0.0 marks a stage the row skips.
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
# eighth-order weights
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
# fifth-order error weights
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
# third-order error weights: _B minus a third-order rule on stages 1, 9, 12
_E3 = tuple(b - w for b, w in zip(_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))


def _poly_code(exps, coeffs, names=("x", "y")) -> str:
    """Straight-line float code for sum coeffs[i] * x^i y^j over the
    exponents (i, j), left to right in the given (descending) order."""
    terms = []
    for (i, j), c in zip(exps, coeffs):
        mono = "*".join([names[0]] * i + [names[1]] * j)
        terms.append(f"{c}*{mono}" if mono else c)
    return " + ".join(terms) or "0.0"


def _params(support) -> tuple[str, list[list[str]]]:
    """The parameter list ``o, c0, c1, ...`` of a maker and the coefficient
    names of each polynomial of the support."""
    names, k = [], 0
    for exps in support:
        names.append([f"c{k + i}" for i in range(len(exps))])
        k += len(exps)
    return ", ".join(["o"] + [c for cs in names for c in cs]), names


def _field_source(support) -> str:
    params, (cx, cy) = _params(support)
    fxs, fys = support
    return (f"def make({params}):\n"
            "    def field(x, y):\n"
            "        x = x + o\n"
            f"        return {_poly_code(fxs, cx)}, {_poly_code(fys, cy)}\n"
            "    return field\n")


def _integral_source(support) -> str:
    """The first integral num / den, math.inf where den is 0."""
    params, (cn, cd) = _params(support)
    nums, dens = support
    expr = _poly_code(nums, cn)
    if any(e != (0, 0) for e in dens):
        expr = f"({expr}) / d if (d := {_poly_code(dens, cd)}) else math.inf"
    return (f"def make({params}):\n"
            "    def integral(x, y):\n"
            "        x = x + o\n"
            f"        return {expr}\n"
            "    return integral\n")


def _step_source(support) -> str:
    """One DOP853 step with the field inlined in all 13 evaluations:
    ``step(x, y, h, k1) -> (xn, yn, err, kn)`` for a step of length h > 0
    from (x, y) with k1 = f(x, y): the eighth-order end point, the error
    norm of scipy's DOP853 (the fifth-order estimate, damped by the
    third-order one, scaled by ATOL + RTOL * |coordinate|; the step passes
    at err <= 1), and kn = f(xn, yn), the next step's k1.  The tableau is
    written as literals and each row skips its zero entries; the field is
    the one of ``_field_source``, so the step does the float operations of
    the generic step on that field, in the same order.  ATOL and RTOL are
    read when the step runs."""
    params, (cx, cy) = _params(support)
    fxs, fys = support
    ind = "        "

    def evaluate(px, py, k):
        return [f"{ind}X = {px} + o", f"{ind}Y = {py}",
                f"{ind}{k}x = {_poly_code(fxs, cx, ('X', 'Y'))}",
                f"{ind}{k}y = {_poly_code(fys, cy, ('X', 'Y'))}"]

    def combo(weights, v):
        return " + ".join(f"{w!r} * k{j + 1}{v}" for j, w in enumerate(weights) if w)

    def norm(e):
        return f"((({combo(e, 'x')}) / sx) ** 2 + (({combo(e, 'y')}) / sy) ** 2)"

    lines = [f"def make({params}):", "    def step(x, y, h, k1):", f"{ind}k1x, k1y = k1"]
    for i in range(1, len(_A)):
        if i == 1:
            px, py = (f"{v} + h * {_A[1][0]!r} * k1{v}" for v in "xy")
        else:
            px, py = (f"{v} + h * ({combo(_A[i], v)})" for v in "xy")
        lines += evaluate(px, py, f"k{i + 1}")
    lines += [f"{ind}xn = x + h * ({combo(_B, 'x')})", f"{ind}yn = y + h * ({combo(_B, 'y')})"]
    lines += evaluate("xn", "yn", "kn")
    lines += [f"{ind}sx = ATOL + RTOL * max(abs(x), abs(xn))",
              f"{ind}sy = ATOL + RTOL * max(abs(y), abs(yn))",
              f"{ind}e5 = {norm(_E5)}",
              f"{ind}if not e5:",
              f"{ind}    return xn, yn, 0.0, (knx, kny)",
              f"{ind}e3 = {norm(_E3)}",
              f"{ind}return xn, yn, h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)), (knx, kny)",
              "    return step", ""]
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _maker(source, support):
    """The ``make(offset, *coefficients)`` that ``source`` generates for a
    monomial support, one tuple of exponents per polynomial; compiled once
    per distinct (source, support)."""
    namespace: dict = {}
    exec(compile(source(support), "<zone>", "exec"), globals(), namespace)
    return namespace["make"]


def _zone_code(zone: Zone, part: str, source, sign: int):
    """The zone's function generated by ``source`` for the zone's own
    monomials of ``part``, "field" (fx, fy) or "integral" (num, den), called
    with the zone's offset and its coefficients times ``sign``.

    The polynomials are those of ``local_forms``, evaluated in the local
    frame X = x + offset (bound to the name x), so that a distant zone
    loses no precision to cancellation between expanded monomials in x."""
    num, den, fx, fy = local_forms(zone.payload)
    polys = (fx, fy) if part == "field" else (num, den)
    support = tuple(tuple(sorted(p.ints, reverse=True)) for p in polys)
    return _maker(source, support)(float(zone.payload.offset),
                                   *[cs[e] for cs, exps in zip((p.floats(sign) for p in polys),
                                                               support) for e in exps])


def zone_field_fn(zone: Zone):
    """Float field (dx/dt, dy/dt) of the zone, reversal applied."""
    return _zone_code(zone, "field", _field_source, -1 if zone.reverse else 1)


def zone_integral_fn(zone: Zone):
    """Float first integral (value of the conserved quantity)."""
    return _zone_code(zone, "integral", _integral_source, 1)


def zone_step_fn(zone: Zone, forward: bool):
    """The zone's DOP853 step (``_step_source``) forward or backward in
    time; reversal and direction are folded into the signs of the field's
    coefficients."""
    return _zone_code(zone, "field", _step_source, 1 if forward != zone.reverse else -1)


def _hermite_peak(x0, x1, d0, d1):
    """(theta, p(theta)) at the extremum in (0, 1) of the cubic Hermite p
    with p(0) = x0, p(1) = x1, p'(0) = d0, p'(1) = d1, where d0 and d1
    differ in sign, so that p' has exactly one root in (0, 1)."""
    a = d0 + d1 - 2.0 * (x1 - x0)  # p = x0 + d0 t + b t^2 + a t^3
    b = x1 - x0 - d0 - a
    if a == 0.0:
        theta = -0.5 * d0 / b
    else:  # the roots of p' = d0 + 2b t + 3a t^2 are q / 3a and d0 / q
        q = -(b + math.copysign(math.sqrt(max(0.0, b * b - 3.0 * a * d0)), b))
        theta = q / (3.0 * a)
        if not 0.0 < theta < 1.0:
            theta = d0 / q
    theta = min(max(theta, 0.0), 1.0)
    return theta, x0 + theta * (d0 + theta * (b + theta * a))


def _false_position(g, a, ga, b, gb, done, cap):
    """Illinois false position for a zero of g in the bracket a < b, where
    ga = g(a) and gb = g(b) have opposite signs.

    Each of at most ``cap`` evaluations takes the secant point of the
    bracket ends, or the midpoint when that point is not strictly inside;
    an end kept twice in a row has its value halved, so both ends close in
    superlinearly.  Stops when g returns None or ``done(g_t, b - a)`` holds
    for the new value and bracket.  Returns (t, g(t)) of the last
    evaluation."""
    kept = 0  # +1 when a was kept last, -1 when b was
    for _ in range(cap):
        t = b - gb * (b - a) / (gb - ga)
        if not a < t < b:
            t = 0.5 * (a + b)
        gt = g(t)
        if gt is None:
            break
        if (gt > 0) == (ga > 0):
            a, ga = t, gt
            if kept < 0:
                gb *= 0.5
            kept = -1
        else:
            b, gb = t, gt
            if kept > 0:
                ga *= 0.5
            kept = 1
        if done(gt, b - a):
            break
    return t, gt


def _land(step, x, y, k1, h, xn, yn, kn, c):
    """Land on the edge x = c, crossed outward by the step of length h from
    (x, y) to (xn, yn) with kn the field at (xn, yn), with a real ``step``
    from (x, y) whose length is found by false position on the miss
    x(s) - c; a step that starts on the edge (it turned back before getting
    inside) counts its start as EVENT_TOL inside.  The step's end (xm, ym)
    then moves along its field onto x = c: y = ym + (c - xm) * fy / fx,
    unless |fx| there is below TANGENT_TOL * (1 + |ym|): at a tangency that
    move is unbounded, and the step's ordinate stays.  Returns (step length,
    ordinate reached, number of extra steps taken)."""
    s, miss, n = h, xn - c, 0
    ym, km = yn, kn
    if abs(miss) > EVENT_TOL:
        def step_miss(s):
            nonlocal ym, km, n
            n += 1
            xs, ym, _, km = step(x, y, s, k1)
            return xs - c

        inside = x - c if (x - c) * (xn - c) < 0 else math.copysign(EVENT_TOL, c - xn)
        s, miss = _false_position(step_miss, 0.0, inside, h, xn - c,
                                  lambda r, _: abs(r) <= EVENT_TOL, 80)
    if abs(km[0]) >= TANGENT_TOL * (1.0 + abs(ym)):
        ym = ym - miss * km[1] / km[0]
    return s, ym, n


class ArcPlan:
    """What every hop through one zone reads, prepared once: the strip as
    floats, its finite ``edges`` as (level, outward sign, name), the zone's
    reach polynomials (``reach``: its edges' level polynomials and its
    turning points, for ``escaped``, built on first use), the float field
    (reversal applied) and first integral, and either the exact linear
    part (a ``linear`` zone) or the zone's DOP853 step in each direction
    of time (``zone_step_fn``), built on its first use.  A plan is the one
    home of a zone's floats: the functions that build them cache nothing,
    so a caller that runs many arcs through one zone keeps its plan."""

    __slots__ = ("zone", "lo", "hi", "edges", "field", "integral", "linear", "_steps",
                 "_reach")

    def __init__(self, zone: Zone):
        self.zone = zone
        self.lo = float(zone.x_lo) if zone.x_lo is not None else -math.inf
        self.hi = float(zone.x_hi) if zone.x_hi is not None else math.inf
        self.edges = tuple((c, out, side) for c, out, side in
                           ((self.lo, -1, "lo"), (self.hi, 1, "hi")) if math.isfinite(c))
        self.field = zone_field_fn(zone)
        self.integral = zone_integral_fn(zone)
        self.linear = _linear_parts(zone) if zone.kind == "linear" else None
        self._steps = [None, None]
        self._reach = None

    def escaped(self, y: float, h: float) -> bool:
        """True when an arc on the level h at the ordinate y, moving away
        from y = 0, can land on no edge again: |y| lies beyond every real
        root on y's side (``reach.beyond_every_root``) of each finite
        edge's N(c, y) - h D(c, y), so y meets no landing, and of Ty, the
        turning points' eliminant, if there is one, so y moves on outward.
        It refuses an infinite h: it never runs on D = 0, and next to it,
        where h overflowed, the edges' roots in y lie at the arc's scale,
        which no limit in h holds."""
        if not math.isfinite(h):
            return False
        if self._reach is None:
            self._reach = [edge_levels(self.zone), False]  # False: Ty not built yet
        for rows in self._reach[0]:
            if not beyond_every_root(rows, y, h):
                return False
        if self._reach[1] is False:
            self._reach[1] = turning_points(self.zone)
        rows = self._reach[1]
        return rows is None or beyond_every_root(rows, y, h)  # None: y is monotone

    def step(self, forward: bool):
        """The zone's DOP853 step forward or backward in time."""
        if self._steps[forward] is None:
            self._steps[forward] = zone_step_fn(self.zone, forward)
        return self._steps[forward]


def integrate_arc(zone: Zone | ArcPlan, start: tuple, cfg: IntegratorConfig | None = None,
                  record: bool = True, forward: bool = True) -> Trajectory:
    """Run the zone's flow from ``start`` until the trajectory reaches a
    strip edge, the time limit, or an equilibrium, or ends beyond the
    window, or until it is decided that it can land on no edge again
    (status ``left-window``).

    ``zone`` is a Zone or its ArcPlan.  A ``linear`` zone takes its exact
    flow (no integration step); every other zone takes DOP853 steps.  A
    start on a strip edge must cross it inward, or NotEntryPoint is raised.
    ``drift`` is the relative first-integral difference from the start: at
    the end of an exact arc, and the largest over the accepted steps and the
    landing of an integrated one.
    """
    plan = zone if isinstance(zone, ArcPlan) else ArcPlan(zone)
    cfg = cfg or IntegratorConfig()
    if plan.linear is not None:
        return _linear_arc(plan, start, cfg, record, forward)
    return _dop853_arc(plan, start, cfg, record, forward)


def _check_entry(x, y, fx, lo, hi):
    """A start within EVENT_TOL of an edge must cross it inward; an inward
    velocity below TANGENT_TOL * (1 + |y|) is a tangency, as it is for
    FlowMachine.crossing_direction."""
    slack = TANGENT_TOL * (1.0 + abs(y))
    for name, c, inward in (("lower", lo, fx), ("upper", hi, -fx)):
        if abs(x - c) <= EVENT_TOL and inward < slack:
            how = "outward" if inward <= 0 else "tangential"
            raise NotEntryPoint(f"start on the {name} edge with {how} velocity")


def _dop853_arc(plan, start, cfg, record, forward) -> Trajectory:
    """Dormand-Prince 8(5,3) arc: stops at a strip edge (localized to
    EVENT_TOL), the time limit, after a step that ends beyond the window
    (a landing included) or, without one, at an escape proof
    (``ArcPlan.escaped`` at the level of the step's end: for an arc moving
    away from y = 0, tried at its first such step and each time |y|
    doubled since), where the float range ends (a start whose field
    overflows, a step or a landing search step whose error norm does, a
    landing at an infinite ordinate), where the step collapses (``left-window`` for all
    of these), at an equilibrium (speed below 1e-12 at the start or
    for ten accepted steps), or after ``cfg.max_steps`` accepted and
    rejected steps (status ``step-limit``).
    A step passes only at an error norm err <= 1, so a NaN norm is
    rejected.  The step collapses when the error control's step falls
    below 2^-40 t, so that t converges, as at a finite-time blow-up (read
    before the step is cut to the time left, so that a short last step
    ends on the time limit), or when a rejected step is cut so short that
    u + h f(u) rounds to u, as where every error norm is NaN.  An accepted step whose end lies inside the strip but whose
    x-velocity changes sign may have crossed an edge and come back: when
    the cubic Hermite of x on the step (end points and end slopes, no extra
    field evaluation) peaks beyond an edge, a real step to that peak
    decides, and lands on the edge when it is beyond too.  The drift is
    measured from a start where the first integral is finite, and a point
    where it divides by zero is left out of it."""
    step = plan.step(forward)
    hfun = plan.integral
    lo, hi = plan.lo, plan.hi
    max_time, window, max_step = cfg.max_time, cfg.window, MAX_STEP
    isfinite, hypot = math.isfinite, math.hypot
    x, y = float(start[0]), float(start[1])

    k1 = plan.field(x, y)
    if not forward:
        k1 = (-k1[0], -k1[1])
    _check_entry(x, y, k1[0], lo, hi)

    h0 = hfun(x, y)
    monitor = isfinite(h0)
    # |y| at which to try an escape proof (with no window)
    tried = 0.0 if window is None else math.inf
    window = math.inf if window is None else window
    scale_h = max(1.0, abs(h0)) if monitor else 1.0
    drift = 0.0
    t = 0.0
    h = min(max_step, 1e-3)
    samples = [(t, x, y)] if record else []
    edge = None
    slow = steps = rejected = event_steps = 0
    # a start at speed below 1e-12 is at the equilibrium, as the exact arc
    # decides after its first piece; no walk starts there (``_check_entry``).
    # One whose speed overflows (or is NaN) lies beyond the float range.
    speed = hypot(k1[0], k1[1])

    for _ in range(cfg.max_steps if 1e-12 <= speed < math.inf else 0):
        if t >= max_time:
            status = "reached-time-limit"
            break
        if h < 2.0 ** -40 * t:  # the step collapsed: t converges
            status = "left-window"
            break
        h = min(h, max_step, max_time - t + 1e-9)
        try:
            xn, yn, err, kn = step(x, y, h, k1)
        except OverflowError:  # the error norm squared a stage beyond 1e154
            status = "left-window"
            break
        if not err <= 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.125)
            if x + h * k1[0] == x and y + h * k1[1] == y:  # the step collapsed
                status = "left-window"
                break
            continue
        # accepted; a boundary hit replaces it with the step that lands
        steps += 1
        if xn <= lo and xn < x:
            edge = "lo"
        elif xn >= hi and xn > x:
            edge = "hi"
        elif k1[0] * kn[0] < 0:  # x turns within the step
            side, c = ("hi", hi) if k1[0] > 0 else ("lo", lo)
            theta, peak = _hermite_peak(x, xn, h * k1[0], h * kn[0])
            if (peak - c) * k1[0] >= 0:
                xs, ys, _, ks = step(x, y, theta * h, k1)
                event_steps += 1
                if (xs - c) * k1[0] >= 0:
                    edge, h, xn, yn, kn = side, theta * h, xs, ys, ks
        if edge is not None:
            c = lo if edge == "lo" else hi
            try:
                h, yn, n = _land(step, x, y, k1, h, xn, yn, kn, c)
            except OverflowError:  # a search step's error norm, as above
                status, edge = "left-window", None
                break
            xn = c
            event_steps += n
        t += h
        x, y, k1 = xn, yn, kn
        if record:
            samples.append((t, x, y))
        hv = hfun(x, y)
        if monitor and isfinite(hv):
            drift = max(drift, abs(hv - h0) / scale_h)
        if abs(x) > window or abs(y) > window:  # a landing beyond it left it first
            status, edge = "left-window", None
            break
        if edge is not None:
            if isfinite(y):
                status = "reached-boundary"
            else:  # a landing beyond the float range
                status, edge = "left-window", None
            break
        if y * k1[1] > 0 and abs(y) >= tried:
            if plan.escaped(y, hv):
                status = "left-window"
                break
            tried = 2.0 * abs(y)
        if hypot(k1[0], k1[1]) < 1e-12:
            slow += 1
            if slow >= 10:
                status = "hit-equilibrium"
                break
        else:
            slow = 0
        h *= min(5.0, max(0.2, 0.9 * err ** -0.125 if err > 0 else 5.0))
    else:
        status = ("hit-equilibrium" if speed < 1e-12 else
                  "step-limit" if speed < math.inf else "left-window")

    return Trajectory(samples, edge, status, (x, y), drift, steps, rejected, event_steps)


# -- exact arcs of linear zones ------------------------------------------------


def _linear_parts(zone: Zone) -> tuple:
    """(A, b, e): floats of ``systems.linear_part``, reversal applied.  e
    is exact before the float conversion, so its sign (saddle, center, or
    A^2 = 0) is decided exactly.  Reversal negates the exact coefficients,
    so a zero coefficient stays +0.0."""
    s = -1 if zone.reverse else 1
    A, b, e = linear_part(zone.payload)
    return (tuple(tuple(float(s * v) for v in row) for row in A),
            tuple(float(s * v) for v in b), float(e))


def _s12(e: float, t: float) -> tuple[float, float]:
    """S1(t) and S2(t) of the flow u0 + S1 f0 + S2 A f0 with A^2 = e I;
    the velocity is then (1 + e S2) f0 + S1 A f0."""
    if e > 0:
        r = math.sqrt(e)
        h = math.sinh(0.5 * r * t)
        return math.sinh(r * t) / r, 2.0 * h * h / e
    if e < 0:
        r = math.sqrt(-e)
        h = math.sin(0.5 * r * t)
        return math.sin(r * t) / r, -2.0 * h * h / e
    return t, 0.5 * t * t


def _first_crossing(e: float, u: float, f: float, g: float, level: float,
                    outward: int) -> float:
    """Least t > 0 at which the coordinate u + S1(t) f + S2(t) g crosses
    ``level`` moving with the sign ``outward``; math.inf when it does not,
    or too late for tanh(rt/2) of a saddle to tell from 1 (a later piece
    finds it).  OverflowError when the quadratic overflows.

    With s = 2 tanh(rt/2)/r (e = r^2 > 0), s = 2 tan(rt/2)/r (e = -r^2) or
    s = t (e = 0), S1 = s/D and S2 = s^2/(2D) for D = 1 - e s^2/4 > 0, so
    the crossings are the roots of (g/2 - e c0/4) s^2 + f s + c0 with
    c0 = u - level, and the coordinate's velocity there has the sign of
    the quadratic's slope.  The two roots have opposite slopes, so one of
    them is the outward crossing."""
    c0 = u - level
    a2 = 0.5 * g - 0.25 * e * c0
    disc = f * f - 4.0 * a2 * c0
    if not math.isfinite(disc):
        raise OverflowError("the crossing quadratic overflows")
    if disc <= 0:
        return math.inf  # no crossing, or a tangency
    sg = math.copysign(1.0, f)
    q = -0.5 * (f + sg * math.sqrt(disc))
    # roots c0/q (slope sign sg) and q/a2 (slope sign -sg), as num/den
    num, den = (c0, q) if sg == outward else (q, a2)
    if e < 0:
        r = math.sqrt(-e)
        theta = 2.0 * math.atan2(r * num if den > 0 else -r * num, 2.0 * abs(den))
        return (theta if theta > 0 else theta + 2.0 * math.pi) / r
    if den == 0:
        return math.inf
    if e > 0:
        r = math.sqrt(e)
        half = 0.5 * r * num / den  # tanh(rt/2)
        return 2.0 * math.atanh(half) / r if 0 < half < 1 else math.inf
    s = num / den
    return s if s > 0 else math.inf


def _escapes(e: float, x: float, f0: float, f1: float, g0: float, g1: float,
             edges: tuple) -> bool:
    """True when the exact flow from abscissa x, with velocity f and rate
    g = A f, and with no crossing of ``edges`` resolved, leaves every
    bounded set and lands on no edge.  For a saddle (e = r^2 > 0) each
    coordinate is P + Q e^(rt) + W e^(-rt), P = u - g/e, 2Q = f/r + g/e:
    it is unbounded when a 2Q exceeds 1e-9 of the terms |f/r| + |g/e| of
    both coordinates, which covers their rounding, and x then runs to the
    side of its Q, or to its P when that Q is below 1e-9 of y's; it lands
    on no edge when that limit lies on the strip's side of each.  For
    e = 0 it escapes when not at rest (speed 1e-12 or more), never for a
    center."""
    if e <= 0:
        return e == 0 and math.hypot(f0, f1) >= 1e-12
    r = math.sqrt(e)
    a0, b0, a1, b1 = f0 / r, g0 / e, f1 / r, g1 / e
    grow_x, grow_y = abs(a0 + b0), abs(a1 + b1)
    if max(grow_x, grow_y) <= 1e-9 * (abs(a0) + abs(b0) + abs(a1) + abs(b1)):
        return False  # bounded: it goes on toward the equilibrium
    limit = x - b0 if grow_x <= 1e-9 * grow_y else math.copysign(math.inf, a0 + b0)
    return all(out * (limit - level) <= 0 for level, out, _ in edges)


def _linear_arc(plan, start, cfg, record, forward) -> Trajectory:
    """Exact arc of a linear zone, in pieces of at most two e-foldings for
    a saddle (so that rounding in u0 + S1 f0 + S2 A f0 grows at most
    e^2-fold per piece).  A recorded arc has a sample at the end of every
    piece, and its pieces last at most MAX_STEP and 1/(16 |A|) (|A| the
    Frobenius norm): the velocity f, whose rate of change is A f, then
    changes by about 1/16 of itself at most between samples.  Each piece
    takes the least crossing time of the finite strip edges
    (``ArcPlan.edges``) from its start; a hit is polished by Newton on
    x(t) - c and lands at exactly x = c.  A piece that ends at speed below
    1e-12 ends the arc at the equilibrium it approaches.  A piece that ends
    beyond the window, if ``cfg`` sets one, ends the arc there as
    ``left-window``, whatever else it reached, as does a start, a piece
    or a landing beyond the float range.  Without a window, a piece that
    starts where no crossing is resolved ends the arc there as
    ``left-window`` when ``_escapes`` decides that it lands on no edge."""
    ((a11, a12), (a21, a22)), (b1, b2), e = plan.linear
    hfun = plan.integral
    sign = 1.0 if forward else -1.0
    edges, max_time = plan.edges, cfg.max_time
    window = math.inf if cfg.window is None else cfg.window
    x, y = float(start[0]), float(start[1])
    # the velocity f at (x, y); its rate A f is (g0, g1)
    f0, f1 = sign * (a11 * x + a12 * y + b1), sign * (a21 * x + a22 * y + b2)

    _check_entry(x, y, f0, plan.lo, plan.hi)
    h0 = hfun(x, y)
    piece = 2.0 / math.sqrt(e) if e > 0 else math.inf
    if record:
        norm = math.hypot(a11, a12, a21, a22)
        piece = min(piece, MAX_STEP, 0.0625 / norm if norm else math.inf)
    t = 0.0
    samples = [(t, x, y)] if record else []
    edge = None
    status = None if math.isfinite(math.hypot(f0, f1)) else "left-window"
    while status is None:
        g0, g1 = sign * (a11 * f0 + a12 * f1), sign * (a21 * f0 + a22 * f1)
        rest = max_time - t
        span = piece if piece < rest else rest
        # the least crossing time; the first of equal times wins
        th = math.inf
        try:
            for level, out, name in edges:
                tk = _first_crossing(e, x, f0, g0, level, out)
                if tk < th:
                    th, c, side = tk, level, name
        except OverflowError:  # an orbit beyond the float range
            status = "left-window"
            break
        if cfg.window is None and th == math.inf and _escapes(e, x, f0, f1, g0, g1, edges):
            status = "left-window"
            break
        hit = th <= span * (1 + 1e-9)
        if hit:  # Newton on x(t) - c from the quadratic's root
            for _ in range(3):
                s1, s2 = _s12(e, th)
                miss = x + s1 * f0 + s2 * g0 - c
                rate = (1.0 + e * s2) * f0 + s1 * g0
                if miss == 0 or rate == 0 or not 0 < th - miss / rate <= span * (1 + 1e-9):
                    break
                th -= miss / rate
        dt = th if hit else span
        s1, s2 = _s12(e, dt)
        x, y = x + s1 * f0 + s2 * g0, y + s1 * f1 + s2 * g1
        t += dt
        if hit:
            x, edge, status = c, side, "reached-boundary"
        else:
            f0, f1 = sign * (a11 * x + a12 * y + b1), sign * (a21 * x + a22 * y + b2)
            if math.hypot(f0, f1) < 1e-12:
                status = "hit-equilibrium"
            elif span == rest:
                status = "reached-time-limit"
        if abs(x) > window or abs(y) > window or not math.isfinite(math.hypot(x, y, f0, f1)):
            status, edge = "left-window", None
        if record:
            samples.append((t, x, y))
    drift = abs(hfun(x, y) - h0) / max(1.0, abs(h0))
    return Trajectory(samples, edge, status, (x, y), drift, 0, 0, 0)


# ---------------------------------------------------------------------------
# piecewise flow machinery
# ---------------------------------------------------------------------------


class FlowMachine:
    """The boundary maps of one system: the return map, the displacement,
    the shooting oracle and the candidate verifier.

    Every orbit runs through one walk (``_walk``), one hop per zone it
    crosses.  Each zone gets an ArcPlan on first use, so that the walk reads
    floats and compiled code only: no lookup keyed on a Zone, no Fraction
    compared or converted.  The field, the first integral and the DOP853
    step that a plan holds are generated for the zone's own monomials and
    compiled once per distinct support (see ``_zone_code``); the step has
    the field inlined in its 13 evaluations.  An arc that cannot land
    again ends on a decision read from its own zone, not on a window, so
    that moving or scaling a system moves or scales every arc with it."""

    def __init__(self, ps: PiecewiseSystem, cfg: IntegratorConfig | None = None):
        self.ps = ps
        self.cfg = cfg or IntegratorConfig()
        self._plans: list = [None] * len(ps.zones)
        self.bxs = [float(b) for b in ps.boundaries]

    def plan(self, zone_index: int) -> ArcPlan:
        """Zone ``zone_index``'s ArcPlan, built on first use and kept."""
        plan = self._plans[zone_index]
        if plan is None:
            plan = self._plans[zone_index] = ArcPlan(self.ps.zones[zone_index])
        return plan

    def crossing_direction(self, bindex: int, y: float) -> int:
        """+1 / -1 for a transversal crossing at (x_b, y); raises
        SlidingPoint when the two adjacent normal velocities disagree in
        sign or one of them vanishes (Filippov sliding / tangency)."""
        c = self.bxs[bindex]
        fxl = self.plan(bindex).field(c, y)[0]
        fxr = self.plan(bindex + 1).field(c, y)[0]
        scale = 1.0 + abs(y)
        if abs(fxl) < TANGENT_TOL * scale or abs(fxr) < TANGENT_TOL * scale:
            raise SlidingPoint(f"tangential contact at boundary {bindex}, y={y:.9g}")
        if (fxl > 0) != (fxr > 0):
            raise SlidingPoint(f"sliding point at boundary {bindex}, y={y:.9g}")
        return 1 if fxl > 0 else -1

    def _hop(self, zone_index: int, state: tuple, record: bool = False):
        """The arc from ``state`` through zone ``zone_index``: (boundary
        index, ordinate, direction, trajectory) of its landing.  Zone i lies
        between boundaries i - 1 and i, and an arc that ends on its upper
        edge crosses it upward."""
        traj = integrate_arc(self.plan(zone_index), state, self.cfg, record=record)
        if traj.status != "reached-boundary":
            raise NonReturning(f"arc in zone {zone_index} ended with {traj.status}")
        if traj.edge == "hi":
            return zone_index, traj.end[1], 1, traj
        return zone_index - 1, traj.end[1], -1, traj

    def _walk(self, bindex: int, y: float, direction: int, record: bool = False):
        """The orbit from (x_b, y) crossing boundary ``bindex`` with
        ``direction``, one hop at a time: each hop runs through the zone
        the crossing enters, and its landing must be a crossing in the
        direction the arc arrived with.  Yields (boundary index, ordinate,
        direction, trajectory) per landing; raises NonReturning after
        MAX_HOPS hops."""
        for _ in range(MAX_HOPS):
            zone = bindex + 1 if direction > 0 else bindex
            bindex, y, direction, traj = self._hop(zone, (self.bxs[bindex], y), record)
            if self.crossing_direction(bindex, y) != direction:  # pragma: no cover
                raise SlidingPoint(f"inconsistent crossing at boundary {bindex}")
            yield bindex, y, direction, traj
        raise NonReturning("no return within the hop limit")

    def return_map(self, bindex: int, y: float, direction: int, record: bool = False):
        """First return to boundary ``bindex`` with the same crossing
        direction.  Returns (ordinate, crossing log); the log holds
        (boundary index, ordinate, direction, trajectory?) per crossing."""
        d0 = self.crossing_direction(bindex, y)
        if d0 != direction:
            raise SlidingPoint(
                f"crossing at boundary {bindex}, y={y:.9g} runs opposite to requested")
        log = []
        for bhit, yhit, dhit, traj in self._walk(bindex, y, direction, record):
            log.append((bhit, yhit, dhit, traj))
            if bhit == bindex and dhit == direction:
                return yhit, log

    def displacement(self, bindex: int, y: float, direction: int):
        try:
            y2, _ = self.return_map(bindex, y, direction)
        except DynamicsError:
            return None
        return y2 - y

    def oracle(self, y_range: tuple, grid: int) -> dict[int, list[float]]:
        """The shooting oracle: {boundary index: sorted fixed ordinates in
        the window ``y_range``}, over every boundary.

        A crossing cycle crosses each line it meets once upward (the
        two-crossing lemma), so each boundary's return map is scanned in
        direction +1 only, for exact zeros and sign changes on the grid,
        and each sign change is refined by false position.  Undefined
        ordinates (sliding starts, escapes) are skipped.  A fixed point
        that the scan accepts brings its whole cycle: itself and every
        other crossing that its closing walk logs, on every boundary, that
        lies in the window.  Points within 1e-7 on one boundary count once.

        A sign change is refined only when one of its ends is at least
        CLOSURE_TOL from closing: between two nodes that both close, the
        map is the identity at the verifier's resolution, a band of closed
        orbits (which ``solver.annulus_check`` reports) whose displacement
        signs are integration noise.  A refinement stops when the
        displacement is undefined, below 1e-12, or bracketed within 1e-10,
        after at most 60 evaluations; its last point is a fixed point when
        the displacement there is below CLOSURE_TOL.
        """
        if grid < 16:
            raise ValueError("oracle grid must be at least 16")
        lo, hi = float(y_range[0]), float(y_range[1])
        ys = [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]
        found: dict[int, list[float]] = {b: [] for b in range(len(self.bxs))}
        for bindex in found:
            walks: dict[float, list] = {}

            def gap(y):
                try:
                    y2, walks[y] = self.return_map(bindex, y, 1)
                except DynamicsError:
                    return None
                return y2 - y

            ds = [gap(y) for y in ys]
            fixed = [y for y, d in zip(ys, ds) if d == 0.0]
            for i in range(grid - 1):
                d1, d2 = ds[i], ds[i + 1]
                if (d1 is not None and d2 is not None and d1 * d2 < 0
                        and max(abs(d1), abs(d2)) >= CLOSURE_TOL):
                    y_star, d_star = _false_position(
                        gap, ys[i], d1, ys[i + 1], d2,
                        lambda d, width: abs(d) < 1e-12 or width < 1e-10, 60)
                    if d_star is not None and abs(d_star) < CLOSURE_TOL:
                        fixed.append(y_star)
            for y in fixed:
                found[bindex].append(y)
                # the log's last entry is the return to y itself
                for bhit, yhit, _, _ in walks[y][:-1]:
                    if lo <= yhit <= hi:
                        found[bhit].append(yhit)
        for bindex, points in found.items():
            out = found[bindex] = []
            for y in sorted(points):
                if not out or y - out[-1] > 1e-7:
                    out.append(y)
        return found

    # -- candidate verification ---------------------------------------------

    def verify_candidate(self, cand) -> tuple[str, str]:
        """Walk the declared loop from its least ordinate: 'verified' only when
        every declared ordinate is a crossing, every arc keeps to its strip
        and its first integral, every landing matches a declared ordinate and
        the loop closes after all its crossings, not before; else a rejection."""
        expected: dict[int, list[float]] = {}
        for b, v in cand.ordinates:
            expected.setdefault(b, []).append(float(v))
        b0, y0v = min(cand.ordinates, key=lambda bv: bv[1])
        y0 = float(y0v)
        where = "start"
        try:
            direction = self.crossing_direction(b0, y0)
            where = "declared ordinate"
            for b, v in cand.ordinates:
                self.crossing_direction(b, float(v))
        except SlidingPoint as e:
            return "rejected", f"{where} not a crossing point: {e}"
        n_cross = len(cand.ordinates)
        try:
            for hits, (bhit, yhit, dhit, traj) in enumerate(self._walk(b0, y0, direction), 1):
                if traj.drift > DRIFT_TOL:
                    return "rejected", f"first-integral drift {traj.drift:.2e}"
                match = min((abs(yhit - e) for e in expected.get(bhit, [])),
                            default=math.inf)
                if match > MATCH_TOL:
                    return "rejected", (
                        f"arc reached boundary {bhit} at y={yhit:.9f}, "
                        "not a declared crossing ordinate")
                if hits == n_cross:
                    break
                if bhit == b0 and dhit == direction:
                    return "rejected", f"loop closed after {hits} of {n_cross} crossings"
        except SlidingPoint as e:
            return "rejected", f"sliding obstruction: {e}"
        except NotEntryPoint as e:
            return "rejected", f"arc leaves zone: {e}"
        except NonReturning as e:
            return "rejected", f"arc did not return: {e}"
        if bhit != b0 or dhit != direction:
            return "rejected", "loop ended on the wrong boundary or direction"
        if abs(yhit - y0) > CLOSURE_TOL:
            return "rejected", f"loop failed to close: gap {abs(yhit - y0):.2e}"
        return "verified", ""


def oracle_window(report) -> tuple:
    """Scan window: candidate bounding box inflated by two, else (-10, 10)."""
    ys = [float(v) for c in report.candidates for _, v in c.ordinates]
    if not ys:
        return (-10.0, 10.0)
    lo, hi = min(ys), max(ys)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = max(half, 0.5)
    return (mid - 2 * half, mid + 2 * half)
