"""Numerical ground truth for the piecewise flow.

Independent of the algebra: an embedded Dormand-Prince 4(5) integrator with
PI step control drives event-driven arcs inside each strip.  The integrator
is FSAL: the field value at the end of an accepted step is the first stage
of the next.  A boundary hit is localized by false position (Illinois) on
the length of a real step from the last accepted point, and only
transversal Filippov crossings are followed (sliding or tangential boundary
contact aborts with a typed error -- sliding segments are detected, never
simulated).

On top of the arc integrator sit the boundary return map, a grid-scan
shooting oracle whose displacement zeros are refined by the same false
position, and the candidate verifier that accepts an algebraic cycle only
when the integrated loop reproduces its crossing ordinates and closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import MultiPoly
from .systems import GlobalCenter, PiecewiseSystem, Zone, local_forms


class DynamicsError(Exception):
    """Base for integration / return-map failures."""


class NotEntryPoint(DynamicsError):
    pass


class SlidingPoint(DynamicsError):
    """Boundary point where the adjacent fields disagree in sign: sliding or
    tangential contact, not a crossing."""


class NonReturning(DynamicsError):
    pass


@dataclass
class IntegratorConfig:
    rtol: float = 1e-11
    atol: float = 1e-13
    event_tol: float = 1e-10
    max_time: float = 400.0
    window: float = 1e3
    max_step: float = 0.2
    max_steps: int = 400_000
    match_tol: float = 1e-5
    closure_tol: float = 1e-6
    tangent_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rtol", "atol", "event_tol", "max_time", "window",
                     "max_step", "match_tol", "closure_tol", "tangent_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Trajectory:
    samples: list  # (t, x, y)
    events: list   # (t, edge, direction) with edge in {"lo", "hi"}
    status: str    # reached-boundary | reached-time-limit | hit-equilibrium | left-window
    end: tuple
    drift: float   # max relative first-integral drift along the arc
    steps: int        # accepted steps
    rejected: int     # steps rejected by the error control
    event_steps: int  # extra steps that localized the boundary hit


# ---------------------------------------------------------------------------
# compiled field / integral closures
# ---------------------------------------------------------------------------


def _float_expr(p: MultiPoly, sign: int = 1) -> str:
    """Straight-line float code for sign * p in the variables x and y; zero
    coefficients are absent from a MultiPoly, so they cost nothing."""
    terms = []
    for e, c in sorted(p.terms.items(), reverse=True):
        c = sign * float(c)
        mono = "*".join(v for v, k in zip(p.vars, e) for _ in range(k))
        if not mono:
            terms.append(repr(c))
        elif abs(c) == 1.0:
            terms.append(mono if c > 0 else "-" + mono)
        else:
            terms.append(f"{c!r}*{mono}")
    return " + ".join(terms) or "0.0"


def _compile(offset: Fraction, expr: str):
    """A function (x, y) -> expr, with expr evaluated in the local frame
    X = x + offset (bound to the name x): a distant zone then loses no
    precision to cancellation between expanded monomials in x."""
    shift = f"    x = x + {float(offset)!r}\n" if offset else ""
    namespace: dict = {}
    exec(compile(f"def f(x, y):\n{shift}    return {expr}\n", "<zone>", "exec"),
         namespace)
    return namespace["f"]


@lru_cache(maxsize=8)
def zone_field_fn(zone: Zone):
    """Float field (dx/dt, dy/dt) of the zone, reversal applied."""
    _, _, fx, fy = local_forms(zone.payload)
    s = -1 if zone.reverse else 1
    return _compile(zone.payload.offset, f"{_float_expr(fx, s)}, {_float_expr(fy, s)}")


@lru_cache(maxsize=8)
def zone_integral_fn(zone: Zone):
    """Float first integral (value of the conserved quantity)."""
    num, den, _, _ = local_forms(zone.payload)
    expr = _float_expr(num)
    if den.degree() > 0:
        expr = f"({expr}) / ({_float_expr(den)})"
    return _compile(zone.payload.offset, expr)


# Dormand-Prince 4(5) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _rk45_step(f, x, y, h, k1):
    """One Dormand-Prince step from (x, y) with k1 = f(x, y); returns
    (x5, y5, err_x, err_y, k7) where k7 = f(x5, y5) is the next step's k1."""
    k1x, k1y = k1
    k2x, k2y = f(x + h * _A[1][0] * k1x, y + h * _A[1][0] * k1y)
    a = _A[2]
    k3x, k3y = f(x + h * (a[0] * k1x + a[1] * k2x), y + h * (a[0] * k1y + a[1] * k2y))
    a = _A[3]
    k4x, k4y = f(x + h * (a[0] * k1x + a[1] * k2x + a[2] * k3x),
                 y + h * (a[0] * k1y + a[1] * k2y + a[2] * k3y))
    a = _A[4]
    k5x, k5y = f(x + h * (a[0] * k1x + a[1] * k2x + a[2] * k3x + a[3] * k4x),
                 y + h * (a[0] * k1y + a[1] * k2y + a[2] * k3y + a[3] * k4y))
    a = _A[5]
    k6x, k6y = f(x + h * (a[0] * k1x + a[1] * k2x + a[2] * k3x + a[3] * k4x + a[4] * k5x),
                 y + h * (a[0] * k1y + a[1] * k2y + a[2] * k3y + a[3] * k4y + a[4] * k5y))
    b = _B5
    x5 = x + h * (b[0] * k1x + b[2] * k3x + b[3] * k4x + b[4] * k5x + b[5] * k6x)
    y5 = y + h * (b[0] * k1y + b[2] * k3y + b[3] * k4y + b[4] * k5y + b[5] * k6y)
    k7 = k7x, k7y = f(x5, y5)
    b = _B4
    x4 = x + h * (b[0] * k1x + b[2] * k3x + b[3] * k4x + b[4] * k5x + b[5] * k6x + b[6] * k7x)
    y4 = y + h * (b[0] * k1y + b[2] * k3y + b[3] * k4y + b[4] * k5y + b[5] * k6y + b[6] * k7y)
    return x5, y5, x5 - x4, y5 - y4, k7


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


def _land(f, x, y, k1, h, x5, y5, c, tol):
    """Land on the edge x = c, crossed by the accepted step of length h from
    (x, y) to (x5, y5), with a real step from (x, y) whose length is found by
    false position on the miss x(s) - c.  Returns (step length, ordinate
    reached, number of extra steps taken)."""
    if abs(x5 - c) <= tol:
        return h, y5, 0
    ym, n = y5, 0

    def miss(s):
        nonlocal ym, n
        n += 1
        xs, ym, _, _, _ = _rk45_step(f, x, y, s, k1)
        return xs - c

    s, _ = _false_position(miss, 0.0, x - c, h, x5 - c, lambda r, _: abs(r) <= tol, 80)
    return s, ym, n


def integrate_arc(zone: Zone, start: tuple, cfg: IntegratorConfig | None = None,
                  record: bool = True, forward: bool = True) -> Trajectory:
    """Integrate the zone's field from ``start`` until the trajectory reaches
    a strip edge (localized to cfg.event_tol), the time limit, the spatial
    window, or an equilibrium (speed below 1e-12 for ten accepted steps).

    A start on the boundary must have inward velocity.  The conserved
    quantity's maximal relative drift along the arc is reported.
    """
    cfg = cfg or IntegratorConfig()
    f0 = zone_field_fn(zone)
    f = f0 if forward else (lambda x, y: tuple(-v for v in f0(x, y)))
    hfun = zone_integral_fn(zone)
    lo = float(zone.x_lo) if zone.x_lo is not None else -math.inf
    hi = float(zone.x_hi) if zone.x_hi is not None else math.inf
    x, y = float(start[0]), float(start[1])

    k1 = f(x, y)
    if abs(x - lo) <= cfg.event_tol and k1[0] <= 0:
        raise NotEntryPoint("start on the lower edge with outward velocity")
    if abs(x - hi) <= cfg.event_tol and k1[0] >= 0:
        raise NotEntryPoint("start on the upper edge with outward velocity")

    def safe_h(xx, yy):
        try:
            v = hfun(xx, yy)
        except ZeroDivisionError:
            return math.inf
        return v

    h0 = safe_h(x, y)
    monitor = math.isfinite(h0)
    scale_h = max(1.0, abs(h0)) if monitor else 1.0
    drift = 0.0
    t = 0.0
    h = min(cfg.max_step, 1e-3)
    samples = [(t, x, y)] if record else []
    events: list = []
    slow = steps = rejected = event_steps = 0
    armed_lo = abs(x - lo) > 10 * cfg.event_tol
    armed_hi = abs(x - hi) > 10 * cfg.event_tol
    status = "reached-time-limit"

    for _ in range(cfg.max_steps):
        if t >= cfg.max_time:
            status = "reached-time-limit"
            break
        h = min(h, cfg.max_step, cfg.max_time - t + 1e-9)
        x5, y5, ex, ey, k7 = _rk45_step(f, x, y, h, k1)
        sc_x = cfg.atol + cfg.rtol * max(abs(x), abs(x5))
        sc_y = cfg.atol + cfg.rtol * max(abs(y), abs(y5))
        err = math.sqrt(0.5 * ((ex / sc_x) ** 2 + (ey / sc_y) ** 2))
        if err > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        # accepted
        steps += 1
        hit_edge = None
        if armed_lo and x5 <= lo:
            hit_edge = "lo"
        elif armed_hi and x5 >= hi:
            hit_edge = "hi"
        if hit_edge is not None:
            c = lo if hit_edge == "lo" else hi
            h_loc, ym, event_steps = _land(f, x, y, k1, h, x5, y5, c, cfg.event_tol)
            t += h_loc
            x, y = c, ym
            direction = 1 if hit_edge == "hi" else -1
            events.append((t, hit_edge, direction))
            if record:
                samples.append((t, x, y))
            status = "reached-boundary"
            break
        t += h
        x, y, k1 = x5, y5, k7
        if record:
            samples.append((t, x, y))
        if monitor:
            hv = safe_h(x, y)
            if math.isfinite(hv):
                drift = max(drift, abs(hv - h0) / scale_h)
        if not armed_lo and abs(x - lo) > 10 * cfg.event_tol:
            armed_lo = True
        if not armed_hi and abs(x - hi) > 10 * cfg.event_tol:
            armed_hi = True
        if abs(x) > cfg.window or abs(y) > cfg.window:
            status = "left-window"
            break
        if math.hypot(*k1) < 1e-12:
            slow += 1
            if slow >= 10:
                status = "hit-equilibrium"
                break
        else:
            slow = 0
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
    else:
        status = "reached-time-limit"

    return Trajectory(samples, events, status, (x, y), drift, steps, rejected, event_steps)


# ---------------------------------------------------------------------------
# piecewise flow machinery
# ---------------------------------------------------------------------------


class FlowMachine:
    """Caches compiled fields for one system and runs the boundary maps."""

    def __init__(self, ps: PiecewiseSystem, cfg: IntegratorConfig | None = None):
        self.ps = ps
        self.cfg = cfg or IntegratorConfig()
        self.fields = [zone_field_fn(z) for z in ps.zones]
        self.bxs = [float(b) for b in ps.boundaries]

    def crossing_direction(self, bindex: int, y: float) -> int:
        """+1 / -1 for a transversal crossing at (x_b, y); raises
        SlidingPoint when the two adjacent normal velocities disagree in
        sign or one of them vanishes (Filippov sliding / tangency)."""
        c = self.bxs[bindex]
        fxl = self.fields[bindex](c, y)[0]
        fxr = self.fields[bindex + 1](c, y)[0]
        scale = 1.0 + abs(y)
        if abs(fxl) < self.cfg.tangent_tol * scale or abs(fxr) < self.cfg.tangent_tol * scale:
            raise SlidingPoint(f"tangential contact at boundary {bindex}, y={y}")
        if (fxl > 0) != (fxr > 0):
            raise SlidingPoint(f"sliding point at boundary {bindex}, y={y}")
        return 1 if fxl > 0 else -1

    def _hop(self, zone_index: int, state: tuple, record: bool = False):
        traj = integrate_arc(self.ps.zones[zone_index], state, self.cfg, record=record)
        if traj.status != "reached-boundary":
            raise NonReturning(f"arc in zone {zone_index} ended with {traj.status}")
        _, edge, direction = traj.events[-1]
        z = self.ps.zones[zone_index]
        bx = z.x_hi if edge == "hi" else z.x_lo
        bindex = self.ps.boundaries.index(bx)
        return bindex, traj.end[1], direction, traj

    def return_map(self, bindex: int, y: float, direction: int,
                   max_hops: int = 12, record: bool = False):
        """First return to boundary ``bindex`` with the same crossing
        direction.  Returns (ordinate, crossing log); the log holds
        (boundary index, ordinate, direction, trajectory?) per crossing."""
        d0 = self.crossing_direction(bindex, y)
        if d0 != direction:
            raise SlidingPoint(
                f"crossing at boundary {bindex}, y={y} runs opposite to requested")
        zone = bindex + 1 if direction > 0 else bindex
        state = (self.bxs[bindex], y)
        log = []
        for _ in range(max_hops):
            bhit, yhit, dhit, traj = self._hop(zone, state, record)
            dchk = self.crossing_direction(bhit, yhit)
            if dchk != dhit:  # pragma: no cover
                raise SlidingPoint(f"inconsistent crossing at boundary {bhit}")
            log.append((bhit, yhit, dhit, traj))
            if bhit == bindex and dhit == direction:
                return yhit, log
            zone = bhit + 1 if dhit > 0 else bhit
            state = (self.bxs[bhit], yhit)
        raise NonReturning("no return within the hop limit")

    def displacement(self, bindex: int, y: float, direction: int):
        try:
            y2, _ = self.return_map(bindex, y, direction)
        except DynamicsError:
            return None
        return y2 - y

    def oracle(self, bindex: int, y_range: tuple, grid: int,
               directions: tuple = (1, -1)):
        """Scan the displacement map for exact zeros and sign changes on the
        grid and refine each sign change by false position; returns (sorted
        fixed ordinates, count of near-zero grid nodes).  Undefined
        ordinates (sliding starts, escapes) are skipped.

        A refinement stops when the displacement is undefined, below 1e-12,
        or bracketed within 1e-10, after at most 60 evaluations; its last
        point is a fixed point when the displacement there is below 1e-6.
        """
        if grid < 16:
            raise ValueError("oracle grid must be at least 16")
        lo, hi = float(y_range[0]), float(y_range[1])
        fixed: list[float] = []
        flat = 0
        for direction in directions:
            ys = [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]
            ds = [self.displacement(bindex, y, direction) for y in ys]
            flat += sum(d is not None and abs(d) < 1e-9 for d in ds)
            fixed += [y for y, d in zip(ys, ds) if d == 0.0]
            for i in range(grid - 1):
                d1, d2 = ds[i], ds[i + 1]
                if d1 is not None and d2 is not None and d1 * d2 < 0:
                    y_star, d_star = _false_position(
                        lambda y: self.displacement(bindex, y, direction),
                        ys[i], d1, ys[i + 1], d2,
                        lambda d, width: abs(d) < 1e-12 or width < 1e-10, 60)
                    if d_star is not None and abs(d_star) < 1e-6:
                        fixed.append(y_star)
        fixed.sort()
        out = []
        for y in fixed:
            if not out or abs(y - out[-1]) > 1e-7:
                out.append(y)
        return out, flat

    # -- candidate verification ---------------------------------------------

    def verify_candidate(self, cand) -> tuple[str, str]:
        """Integrate the full declared loop; 'verified' only when every arc
        stays in its strip, every boundary hit matches a declared ordinate,
        and the loop closes.  Everything else is a typed rejection."""
        cfg = self.cfg
        expected: dict[int, list[float]] = {}
        for b, v in cand.ordinates:
            expected.setdefault(b, []).append(float(v))
        # singular-locus screen for global-center zones touching a boundary
        for b, v in cand.ordinates:
            for zi in (b, b + 1):
                if isinstance(self.ps.zones[zi].payload, GlobalCenter) and abs(float(v)) < 1e-9:
                    return "rejected", "integral singular locus"
        b0, y0v = min(cand.ordinates, key=lambda bv: bv[1])
        y0 = float(y0v)
        try:
            direction = self.crossing_direction(b0, y0)
        except SlidingPoint as e:
            return "rejected", f"start not a crossing point: {e}"
        zone = b0 + 1 if direction > 0 else b0
        state = (self.bxs[b0], y0)
        n_cross = len(cand.ordinates)
        hits = 0
        try:
            while hits < n_cross:
                bhit, yhit, dhit, traj = self._hop(zone, state)
                if traj.drift > 1e-8:
                    return "rejected", f"first-integral drift {traj.drift:.2e}"
                self.crossing_direction(bhit, yhit)
                match = min((abs(yhit - e) for e in expected.get(bhit, [])),
                            default=math.inf)
                if match > cfg.match_tol:
                    return "rejected", (
                        f"arc reached boundary {bhit} at y={yhit:.9f}, "
                        "not a declared crossing ordinate")
                hits += 1
                if hits == n_cross:
                    if bhit != b0 or dhit != direction:
                        return "rejected", "loop ended on the wrong boundary or direction"
                    if abs(yhit - y0) > cfg.closure_tol:
                        return "rejected", f"loop failed to close: gap {abs(yhit - y0):.2e}"
                    return "verified", ""
                zone = bhit + 1 if dhit > 0 else bhit
                state = (self.bxs[bhit], yhit)
        except SlidingPoint as e:
            return "rejected", f"sliding obstruction: {e}"
        except NotEntryPoint as e:
            return "rejected", f"arc leaves zone: {e}"
        except NonReturning as e:
            return "rejected", f"arc did not return: {e}"
        return "rejected", "loop did not close"  # pragma: no cover


# ---------------------------------------------------------------------------
# module-level convenience wrappers
# ---------------------------------------------------------------------------


def return_map(ps: PiecewiseSystem, bindex: int, y: float, direction: int = 1,
               cfg: IntegratorConfig | None = None):
    return FlowMachine(ps, cfg).return_map(bindex, y, direction)


def shooting_oracle(ps: PiecewiseSystem, bindex: int, y_range: tuple,
                    grid: int = 128, cfg: IntegratorConfig | None = None):
    return FlowMachine(ps, cfg).oracle(bindex, y_range, grid)[0]


def verify_candidate(ps: PiecewiseSystem, cand, cfg: IntegratorConfig | None = None):
    return FlowMachine(ps, cfg).verify_candidate(cand)


def oracle_window(report, default: tuple = (-10.0, 10.0)) -> tuple:
    """Scan window: candidate bounding box inflated by two, else default."""
    ys = [float(v) for c in report.candidates for _, v in c.ordinates]
    if not ys:
        return default
    lo, hi = min(ys), max(ys)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = max(half, 0.5)
    return (mid - 2 * half, mid + 2 * half)
