"""Numerical flow: conservation, event accuracy, return maps, the shooting
oracle, and candidate verification."""

import ast
import collections
import decimal
import itertools
import math
import os
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pwham import dynamics
from pwham.algebra import (
    MultiPoly,
    UniPoly,
    isolate_real_roots,
    resultant,
    sturm_count,
)
from pwham.dynamics import (
    CLOSURE_TOL,
    DRIFT_TOL,
    EVENT_TOL,
    MAX_HOPS,
    MAX_STEP,
    TANGENT_TOL,
    ArcPlan,
    DynamicsError,
    FlowMachine,
    IntegratorConfig,
    NonReturning,
    NotEntryPoint,
    SlidingPoint,
    _dop853_arc,
    integrate_arc,
    oracle_window,
    zone_field_fn,
    zone_integral_fn,
    zone_step_fn,
)
from pwham.reach import beyond_every_root, edge_levels, no_root_beyond, turning_points
from pwham.solver import solve
from pwham.specfile import load_spec
from pwham.systems import (
    FAMILIES,
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    Zone,
    _derive,
    linear_part,
    local_forms,
    mirror,
    piecewise_system,
    restriction,
)

from conftest import (
    BULK_CFG,
    CONFIG_NAMES,
    FIXTURE_DIR,
    cubic_center_saddle,
    designed_center_saddle_saddle,
    double_center_saddle,
    exact_zones,
    global_center_saddle,
    linear_center_saddle_center,
    rand_config,
    rand_mixed,
)
import reference_dynamics as ref
from reference_dynamics import dop853_step, linear_arc
from reference_solver import eval_float
from reference_systems import field_polys, restriction_by_subs


def test_energy_conservation_linear_saddle():
    # field (y, x): hyperbolic escape along the diagonal, H constant to 1e-8
    z = Zone(LinearSaddle(1, 0, -1, 0, 0))
    traj = integrate_arc(z, (1.0, 0.0), IntegratorConfig(max_time=5.0))
    assert traj.status in ("reached-time-limit", "left-window")
    assert traj.drift < 1e-8


def test_double_center_small_orbit_closes(monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEP", 0.005)
    z = Zone(DoubleCenter(l=0, n=1, p=0))
    traj = integrate_arc(z, (0.1, 0.0), IntegratorConfig(max_time=30.0))
    assert traj.drift < 1e-8
    # interpolate the return crossing of the section y = 0, x > 0
    returns = []
    for (t0, x0, y0), (t1, x1, y1) in zip(traj.samples, traj.samples[1:]):
        if t0 > 0.1 and y0 < 0 <= y1 and x0 > 0:
            s = -y0 / (y1 - y0)
            returns.append(x0 + s * (x1 - x0))
    assert returns and abs(returns[0] - 0.1) < 1e-5


def test_global_center_conservation():
    z = Zone(GlobalCenter(F(4, 5)))
    traj = integrate_arc(z, (0.0, 0.3), IntegratorConfig(max_time=10.0))
    assert traj.drift < 1e-8


def test_time_reversal_returns_to_start():
    rng = random.Random(40)
    for _ in range(20):
        z = Zone(CubicCenter(a=0, b=F(rng.randint(1, 4)), q=F(rng.randint(-2, 2)),
                             p=F(rng.randint(-1, 1))))
        x0, y0 = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        fwd = integrate_arc(z, (x0, y0), IntegratorConfig(max_time=1.0))
        elapsed = fwd.samples[-1][0]
        biggest = max(abs(x) + abs(y) for _, x, y in fwd.samples)
        if elapsed <= 0 or fwd.status != "reached-time-limit" or biggest > 5:
            continue  # escaping orbits test accumulation, not reversal
        back = integrate_arc(z, fwd.end, IntegratorConfig(max_time=elapsed),
                             forward=False)
        assert abs(back.end[0] - x0) < 1e-7 and abs(back.end[1] - y0) < 1e-7


def _landing_miss(zone, traj, forward=True):
    """Distance from the edge of the real step that ends an integrated
    boundary arc, recomputed from the last accepted sample (the arc reports
    the step's end moved along the field onto the edge)."""
    (t0, x0, y0), (t1, x1, y1) = traj.samples[-2:]
    f0 = zone_field_fn(zone)
    f = f0 if forward else (lambda x, y: tuple(-v for v in f0(x, y)))
    xs, ys, _, (kx, ky) = dop853_step(f, x0, y0, t1 - t0, f(x0, y0))
    assert abs(ys + (x1 - xs) * ky / kx - y1) <= 1e-12 * (1 + abs(y1))
    return abs(xs - x1)


def test_event_accuracy():
    ps = global_center_saddle()
    m = FlowMachine(ps, IntegratorConfig())
    y2, log = m.return_map(0, 1.5, 1, record=True)
    assert len(log) == 2
    zone = 1
    for bhit, _, dhit, traj in log:
        assert traj.end[0] == 0.0
        if ps.zones[zone].kind == "linear":  # exact arc: no step to recompute
            assert traj.steps == traj.event_steps == 0
        else:
            assert traj.event_steps <= 8
            assert _landing_miss(ps.zones[zone], traj) <= EVENT_TOL
            assert traj.steps == len(traj.samples) - 1
        zone = bhit + 1 if dhit > 0 else bhit


def test_steep_landing_stays_on_the_level_curve(monkeypatch):
    """At a steep crossing (|dy/dx| >= 10) a landing snapped sideways onto
    x = c would miss the level curve by |dy/dx| times the localization
    miss; moved along the field it keeps the first integral to 1e-10
    relative, even at a loose localization tolerance."""
    monkeypatch.setattr(dynamics, "EVENT_TOL", 1e-7)
    for k in range(1, 5):
        zone = Zone(DoubleCenter(l=0, n=0, p=0), F(-2), 1 - F(k, 1000))
        traj = integrate_arc(zone, (0.0, -1.0))
        assert traj.status == "reached-boundary" and traj.steps > 0
        fx, fy = zone_field_fn(zone)(*traj.end)
        assert abs(fy / fx) >= 10
        H = zone_integral_fn(zone)
        h0 = H(0.0, -1.0)
        assert abs(H(*traj.end) - h0) <= 1e-10 * max(1.0, abs(h0))


def test_dop853_tableau_transcription():
    """The weights are consistent (the solution weights sum to 1, both
    error weights to 0), every stage from the third on satisfies
    sum_j a_ij c_j = c_i^2 / 2 with c_i its row sum (which a typo in any
    row breaks), and fixed steps of h and h/2 on a nonlinear arc shrink
    the global error by at least 2^7.5 against a much finer reference."""
    assert abs(sum(dynamics._B) - 1) <= 1e-15
    assert abs(sum(dynamics._E5)) <= 1e-15 and abs(sum(dynamics._E3)) <= 1e-15
    c = [sum(row) for row in dynamics._A]
    assert abs(c[-1] - 1) <= 1e-14
    for i, row in enumerate(dynamics._A[2:], start=2):
        assert abs(sum(a * c[j] for j, a in enumerate(row)) - c[i] ** 2 / 2) <= 1e-12

    f = zone_field_fn(Zone(CubicCenter(a=0, b=1, r=1)))

    def fixed_steps(n, t=3.0):
        x, y = 0.4, 0.0
        k = f(x, y)
        for _ in range(n):
            x, y, _, k = dop853_step(f, x, y, t / n, k)
        return x, y

    ref = fixed_steps(384)
    coarse, fine = math.dist(fixed_steps(6), ref), math.dist(fixed_steps(12), ref)
    assert fine > 0 and coarse / fine >= 2 ** 7.5


def test_nonlinear_arcs_take_few_steps():
    """Eighth-order steps keep nonlinear arcs short at RTOL: the cubic
    fixture's center reaches its edge, and the global center's escape
    leaves the window, within a fixed budget of tried steps."""
    traj = integrate_arc(cubic_center_saddle().zones[0], (0.0, 0.5))
    assert traj.status == "reached-boundary"
    assert traj.steps + traj.rejected <= 40
    traj = integrate_arc(global_center_saddle().zones[0], (0.0, -3.0))
    assert traj.status == "left-window"
    assert traj.steps + traj.rejected <= 120


@pytest.mark.parametrize("k", [4, 6])
def test_arc_sees_an_excursion_within_one_step(k):
    """On the field (-y, x) from (0, 1/2) the orbit's largest x is 1/2; it
    stays beyond an edge 10^-k below that for 4 * 10^(-k/2) time units,
    well inside one step, and comes back.  The arc still lands on the
    edge, on its level curve."""
    zone = Zone(CubicCenter(a=0, b=1, p=0, q=0, r=0, s=0), None, F(1, 2) - F(1, 10**k))
    traj = integrate_arc(zone, (0.0, 0.5), IntegratorConfig(max_time=6.0))
    assert traj.status == "reached-boundary" and traj.edge == "hi"
    H = zone_integral_fn(zone)
    h0 = H(0.0, 0.5)
    assert abs(H(*traj.end) - h0) <= 1e-10 * abs(h0)


def test_integrator_counters_count_rejections(monkeypatch):
    # at a loose tolerance the five-fold step growth overshoots now and then
    for name, value in (("MAX_STEP", 1.0), ("RTOL", 1e-6), ("ATOL", 1e-8)):
        monkeypatch.setattr(dynamics, name, value)
    z = Zone(DoubleCenter(l=0, n=1, p=0))
    traj = integrate_arc(z, (0.3, 0.0), IntegratorConfig(max_time=20.0))
    assert traj.steps == len(traj.samples) - 1 > 0
    assert traj.rejected > 0
    assert traj.event_steps == 0


_small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_payloads = st.one_of(
    st.builds(DoubleCenter, l=_small, n=_small, p=_small, offset=_small),
    st.builds(GlobalCenter, xi=st.fractions(min_value=F(1, 4), max_value=2,
                                            max_denominator=4), offset=_small),
    st.builds(CubicCenter, a=_small, b=_small, p=_small, q=_small, r=_small,
              s=_small, offset=_small),
    st.builds(LinearSaddle, alpha=_small, beta=_small, delta=_small, mu=_small,
              gamma=_small),
)


@settings(max_examples=100, deadline=None)
@given(payload=_payloads, reverse=st.booleans(), forward=st.booleans(),
       edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-2.0, max_value=2.0),
       x0=st.floats(min_value=-0.9, max_value=0.9))
# the restricted integral vanishes on the upper edge (X = 0 there)
@example(payload=CubicCenter(a=0, b=0, s=1, offset=-1), reverse=False, forward=False,
         edge="lo", y0=0.0, x0=0.0)
def test_boundary_landing_is_on_edge_and_level(payload, reverse, forward, edge, y0, x0):
    """Every integrated arc that reaches an edge lands, by a real step,
    within event_tol of it, and the first integral there matches the start
    to 1e-8 relative (the verifier's drift rule), which the reported drift
    covers.  Exact arcs of linear zones take no step; the integral checks
    hold for them too."""
    if isinstance(payload, GlobalCenter):
        y0 = 0.25 + abs(y0)  # the closed orbits fill y > 0
    zone = Zone(payload, F(-1), F(1), reverse)
    start = {"lo": (-1.0, y0), "hi": (1.0, y0), "inside": (x0, y0)}[edge]
    cfg = IntegratorConfig(max_time=10.0)
    try:
        traj = integrate_arc(zone, start, cfg, forward=forward)
    except NotEntryPoint:
        assume(False)
    assume(traj.status == "reached-boundary")
    if zone.kind != "linear":
        assert _landing_miss(zone, traj, forward) <= EVENT_TOL
    assert traj.event_steps <= 80
    H = zone_integral_fn(zone)
    h0 = H(*start)
    gap = abs(H(*traj.end) - h0) / max(1.0, abs(h0))
    assert gap <= 1e-8 and traj.drift >= gap


_offsets = st.sampled_from([F(0), F(1)])
_nonlinear_payloads = st.one_of(
    st.builds(DoubleCenter, l=_small, n=_small, p=_small, offset=_offsets),
    st.builds(GlobalCenter, xi=st.fractions(min_value=F(1, 4), max_value=2,
                                            max_denominator=4), offset=_offsets),
    st.builds(CubicCenter, a=_small, b=_small, p=_small, q=_small, r=_small,
              s=_small, offset=_offsets),
)


def _same_floats(got, want) -> bool:
    """Equal float for float, a NaN matching a NaN."""
    return all(a == b or (a != a and b != b) for a, b in zip(got, want, strict=True))


@settings(max_examples=200, deadline=None)
@given(payload=_nonlinear_payloads, reverse=st.booleans(), forward=st.booleans(),
       x=st.floats(min_value=-3.0, max_value=3.0), y=st.floats(min_value=-3.0, max_value=3.0),
       h=st.floats(min_value=0.0, max_value=MAX_STEP, exclude_min=True))
def test_step_kernel_is_the_reference_step(payload, reverse, forward, x, y, h):
    """A zone's generated DOP853 step (field inlined, coefficients signed
    by reversal and direction) returns exactly what the reference step
    returns on the zone's float field, run backward by negating it: the
    same (xn, yn, err, kn), float for float, also where a stage overflows.
    Both are built afresh, so they pad the same family support."""
    zone = Zone(payload, reverse=reverse)
    f0 = zone_field_fn(zone)
    f = f0 if forward else (lambda x, y: tuple(-v for v in f0(x, y)))
    k1 = f(x, y)
    xn, yn, err, kn = zone_step_fn(zone, forward)(x, y, h, k1)
    rx, ry, rerr, rkn = dop853_step(f, x, y, h, k1)
    assert _same_floats((xn, yn, err, *kn), (rx, ry, rerr, *rkn))


_nonzero = _small.filter(bool)


@st.composite
def _linear_payloads(draw):
    """Linear zones with e = beta^2 - alpha*delta of a drawn sign: saddle,
    center, or e = 0 (nilpotent linear part)."""
    beta, delta = draw(_small), draw(_nonzero)
    e = draw(st.sampled_from([1, -1, 0])) * draw(st.fractions(
        min_value=F(1, 4), max_value=4, max_denominator=4))
    return LinearSaddle(alpha=(beta * beta - e) / delta, beta=beta, delta=delta,
                        mu=draw(_small), gamma=draw(_small))


def _fleeting(zone, p):
    """True when the orbit through the edge point p stays on one side of the
    edge for less than one MAX_STEP (the time 2 |f_x| / |d f_x / dt| of
    its parabolic excursion): a crossing or re-entry that Dormand-Prince
    steps of that length can step over, or see at a slightly other place."""
    fxp, fyp = field_polys(zone)
    at = {"x": p[0], "y": p[1]}
    fx, fy = eval_float(fxp, at), eval_float(fyp, at)
    rate = eval_float(fxp.diff("x"), at) * fx + eval_float(fxp.diff("y"), at) * fy
    return 2 * abs(fx) <= abs(rate) * MAX_STEP


@settings(max_examples=300, deadline=None)
@given(payload=_linear_payloads(), reverse=st.booleans(), forward=st.booleans(),
       edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-2.0, max_value=2.0),
       x0=st.floats(min_value=-0.9, max_value=0.9))
# a grazing landing: backward from (1, 0) the orbit touches x = -1 at (-1, 0)
@example(payload=LinearSaddle(alpha=1, beta=-1, delta=1, mu=1, gamma=0), reverse=False,
         forward=False, edge="hi", y0=0.0, x0=0.0)
@example(payload=LinearSaddle(alpha=4, beta=-1, delta=F(1, 4), mu=F(3, 2), gamma=-1),
         reverse=False, forward=False, edge="hi", y0=0.0, x0=0.0)
# a start 4e-13 from a saddle point: at the equilibrium for both arcs
@example(payload=LinearSaddle(alpha=-1, beta=0, delta=1, mu=0, gamma=0), reverse=False,
         forward=False, edge="inside", y0=0.0, x0=3.8502316449144774e-13)
# a start 4.5e-269 from a saddle point, whose crossing of x = 1 is so late
# that tanh(rt/2) rounds onto 1: at the equilibrium for both arcs
@example(payload=LinearSaddle(alpha=F(-1, 4), beta=0, delta=1, mu=0, gamma=0), reverse=False,
         forward=False, edge="inside", y0=0.0, x0=4.473516774221576e-269)
# starts a hair off the stable separatrix y = 0, which leave along the
# unstable one long after max_time: on the time limit for both arcs
@example(payload=LinearSaddle(alpha=0, beta=F(1, 2), delta=1, mu=0, gamma=0), reverse=False,
         forward=True, edge="lo", y0=9.316328756876833e-274, x0=0.0)
@example(payload=LinearSaddle(alpha=0, beta=-1, delta=1, mu=0, gamma=0), reverse=False,
         forward=False, edge="lo", y0=1.175494351e-38, x0=0.0)
def test_exact_linear_arc_matches_dp5(payload, reverse, forward, edge, y0, x0):
    """The exact arc of a linear zone against Dormand-Prince steps from the
    same start: the first integral kept to 1e-12 relative, recorded samples
    at most MAX_STEP apart on the level curve, and the same status, edge
    and landing (to 1e-9).  The exception is the reference's blind spot: an
    arc that starts or ends on a fleeting excursion across an edge."""
    zone = Zone(payload, F(-1), F(1), reverse)
    start = {"lo": (-1.0, y0), "hi": (1.0, y0), "inside": (x0, y0)}[edge]
    cfg = IntegratorConfig(max_time=10.0)
    try:
        ref = _dop853_arc(ArcPlan(zone), start, cfg, True, forward)
    except NotEntryPoint:
        with pytest.raises(NotEntryPoint):
            integrate_arc(zone, start, cfg, forward=forward)
        return
    exact = integrate_arc(zone, start, cfg, forward=forward)
    assert exact.steps == exact.rejected == exact.event_steps == 0
    H = zone_integral_fn(zone)
    h0 = H(*start)
    assert exact.drift == abs(H(*exact.end) - h0) / max(1.0, abs(h0)) <= 1e-12
    ts = [t for t, _, _ in exact.samples]
    assert ts[0] == 0.0 and all(0 < b - a <= MAX_STEP * (1 + 1e-9)
                                for a, b in zip(ts, ts[1:]))
    for _, x, y in exact.samples:
        assert abs(H(x, y) - h0) <= 1e-12 * max(1.0, abs(h0))
    edges = [a.end for a in (exact, ref) if a.edge] + [start] * (edge != "inside")
    if any(_fleeting(zone, p) for p in edges):
        return
    assert exact.status == ref.status
    assert exact.edge == ref.edge
    if exact.edge:
        assert exact.end[0] == ref.end[0]
        assert abs(exact.end[1] - ref.end[1]) <= 1e-9


@pytest.mark.parametrize("edge", [10**5, 10**6])
@pytest.mark.parametrize("x0", [1e-11, 4e-12])
def test_exact_saddle_arc_lands_after_a_late_crossing(edge, x0):
    """Backward from (x0, 0) next to the saddle x' = y, y' = x/4 at the
    origin, x = x0 cosh(t/2) reaches the edge x = edge at t = 2 acosh(edge/x0),
    75 to 82.  There r t is past 37, where tanh(rt/2) rounds onto 1 or
    nearly, so the crossing must not read as none: the arc lands on the
    edge, and does not end left-window as an escape."""
    zone = Zone(LinearSaddle(alpha=F(-1, 4), beta=0, delta=1, mu=0, gamma=0),
                F(-edge), F(edge), False)
    traj = integrate_arc(zone, (x0, 0.0), IntegratorConfig(), forward=False)
    assert (traj.status, traj.edge, traj.end[0]) == ("reached-boundary", "hi", edge)
    assert traj.end[1] == pytest.approx(edge / 2, rel=1e-9)


def _late_landings(payload, reverse, forward, start, edges) -> list:
    """The roots E = e^(rt) > 1 of x(t) = c over the finite edges c, for
    the saddle flow of ``payload`` from ``start``, read independently of
    ``dynamics`` in ``decimal`` at 700 digits: x = P + Q E + W / E with
    P = x0 - g/e, Q = (f/r + g/e)/2 and W = (g/e - f/r)/2, from the
    payload's exact rationals (``linear_part``) and the start's exact
    binary value.  E = 1 (a start on c) is left out; a double root is a
    touch, not a crossing."""
    A, b, e = linear_part(payload)
    s = (-1 if reverse else 1) * (1 if forward else -1)
    u = [F(v) for v in start]
    f = [s * (A[i][0] * u[0] + A[i][1] * u[1] + b[i]) for i in range(2)]
    g0 = s * (A[0][0] * f[0] + A[0][1] * f[1])
    roots = []
    with decimal.localcontext() as ctx:
        ctx.prec = 700

        def dec(q):
            return decimal.Decimal(q.numerator) / q.denominator

        r, ge = dec(e).sqrt(), dec(g0 / e)
        P, Q, W = dec(u[0] - g0 / e), (dec(f[0]) / r + ge) / 2, (ge - dec(f[0]) / r) / 2
        for c in edges:
            lin = P - c
            disc = lin * lin - 4 * Q * W
            if disc <= 0:
                continue
            q = -(lin + disc.sqrt().copy_sign(lin)) / 2
            roots += [(c, E) for E in (q / Q if Q else None, W / q)
                      if E is not None and E > 1 + decimal.Decimal(10) ** -200]
    return roots


_tiny = st.builds(math.copysign, st.floats(min_value=1e-300, max_value=1e-6),
                  st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(payload=_linear_payloads().filter(lambda p: p.is_saddle), reverse=st.booleans(),
       forward=st.booleans(), edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-2.0, max_value=2.0) | _tiny,
       x0=st.floats(min_value=-0.9, max_value=0.9) | _tiny)
# the two starts next to the stable separatrix y = 0 of
# test_exact_linear_arc_matches_dp5: x reaches x = -1 at t = 1257, and
# x = 1 at t = 88
@example(payload=LinearSaddle(alpha=0, beta=F(1, 2), delta=1, mu=0, gamma=0), reverse=False,
         forward=True, edge="lo", y0=9.316328756876833e-274, x0=0.0)
@example(payload=LinearSaddle(alpha=0, beta=-1, delta=1, mu=0, gamma=0), reverse=False,
         forward=False, edge="lo", y0=1.175494351e-38, x0=0.0)
# the unstable direction (1, -4) is tilted: when y's growth first stands
# above the floor, x's (a quarter of it) is still below it, yet x runs off
# to x = -1 at t = 27
@example(payload=LinearSaddle(alpha=0, beta=2, delta=1, mu=0, gamma=0), reverse=False,
         forward=True, edge="inside", y0=1.995262314968883e-23, x0=0.5)
def test_exact_left_window_is_a_proof(payload, reverse, forward, edge, y0, x0):
    """An exact saddle arc with no window that ends left-window lands on no
    edge at any time: the independent closed form (``_late_landings``)
    has no crossing of x = -1 or x = 1, from starts on either edge or
    inside, some of them within 1e-300 of x = 0 or y = 0."""
    zone = Zone(payload, F(-1), F(1), reverse)
    start = {"lo": (-1.0, y0), "hi": (1.0, y0), "inside": (x0, y0)}[edge]
    try:
        arc = integrate_arc(zone, start, record=False, forward=forward)
    except NotEntryPoint:
        return
    if arc.status == "left-window":
        assert _late_landings(payload, reverse, forward, start, (-1, 1)) == []


@pytest.mark.parametrize("payload", [LinearSaddle(0, 1, 1, 0, 0), LinearSaddle(1, 0, 1, 0, 0),
                                     LinearSaddle(0, 0, 1, 0, 0)],
                         ids=["saddle", "center", "nilpotent"])
@pytest.mark.parametrize("start", [(0.0, math.inf), (0.0, math.nan), (0.5, 1e308),
                                   (0.5, -1e308)])
def test_exact_arc_ends_beyond_the_float_range(payload, start):
    """A start whose velocity is not finite, or whose orbit leaves the
    float range (on the center's circle of radius 1e308 the crossing
    quadratic overflows), ends left-window, as the DOP853 arc does; it
    neither lands at an infinite ordinate nor runs out its time at NaN."""
    zone = Zone(payload, F(-1), F(1))
    for arc in (integrate_arc(zone, start),
                _dop853_arc(ArcPlan(zone), start, IntegratorConfig(), True, True)):
        assert (arc.status, arc.edge) == ("left-window", None)


@settings(max_examples=200, deadline=None)
@given(payload=_linear_payloads(), reverse=st.booleans(), forward=st.booleans(),
       edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-3.0, max_value=3.0),
       x0=st.floats(min_value=-0.9, max_value=0.9),
       max_time=st.floats(min_value=0.05, max_value=30.0))
def test_exact_arc_is_unchanged_by_time_rescaling(payload, reverse, forward, edge, y0, x0,
                                                 max_time):
    """Every parameter of a linear zone times 2^k (k in -6..6) is its
    field times 2^k: time runs 2^k times faster, so with max_time over 2^k
    each exact arc ends the same way, on the same edge, at the same
    landing (to 1e-12 relative).  f/r and g/e do not change, so neither
    does the escape rule's floor.  Starts whose speed, or normal speed on
    an edge, comes within 1e-6 of the absolute thresholds (1e-12 for an
    equilibrium, TANGENT_TOL for a tangency) at some k are left out: they
    are not scale-free.  Neither are the pieces of a recorded arc, cut at
    MAX_STEP, so no arc is recorded."""
    start = {"lo": (-1.0, y0), "hi": (1.0, y0), "inside": (x0, y0)}[edge]
    fx, fy = zone_field_fn(Zone(payload, reverse=reverse))(*start)
    slow = 2.0 ** -6 * min(math.hypot(fx, fy),
                           abs(fx) / (1 + abs(y0)) if edge != "inside" else math.inf)
    assume(slow > max(1e-12, TANGENT_TOL) + 1e-6)

    def ends(k):
        scaled = LinearSaddle(*(F(2) ** k * getattr(payload, n)
                                for n in ("alpha", "beta", "delta", "mu", "gamma")))
        cfg = IntegratorConfig(max_time=max_time / 2 ** k)
        try:
            arc = integrate_arc(Zone(scaled, F(-1), F(1), reverse), start, cfg, False, forward)
        except NotEntryPoint:
            return None
        return arc.status, arc.edge, arc.end if arc.edge else None

    want = ends(0)
    for k in range(-6, 7):
        got = ends(k)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[:2] == want[:2]
            if got[2] is not None:
                assert got[2] == pytest.approx(want[2], rel=1e-12, abs=1e-300)


def test_no_arc_of_the_bench_ends_on_time_or_steps(monkeypatch):
    """Every arc decides how it ends (ROADMAP item 13): while one
    ``cli_oracle`` pass and the first 30 ``bulk`` and 30 ``annulus`` units
    of the benchmark run at their default seeds, no ``integrate_arc`` call
    ends on the time limit or the step limit."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(FIXTURE_DIR), "bench"))
    import workloads

    ends = collections.Counter()
    arc = dynamics.integrate_arc

    def counted(*args, **kwargs):
        traj = arc(*args, **kwargs)
        ends[traj.status] += 1
        return traj

    monkeypatch.setattr(dynamics, "integrate_arc", counted)
    for name, count in (("cli_oracle", 9), ("bulk", 30), ("annulus", 30)):
        for unit in workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count):
            workloads.run_unit(unit)
    assert ends["reached-boundary"] > 0
    assert ends["reached-time-limit"] == ends["step-limit"] == 0, ends


_STRIPS = {"both": (F(-1), F(1)), "lo": (F(-1), None), "hi": (None, F(1)), "none": (None, None),
           "off": (F(-5, 2), F(1)), "right": (F(3, 8), None)}


def _same_arc(plan, start, cfg, record, forward):
    """The exact arc of ``dynamics`` and ``reference_dynamics.linear_arc``
    end the same way, with the same samples, end, drift and counters, float
    for float; or both raise the same NotEntryPoint."""
    try:
        want = linear_arc(plan, start, cfg, record, forward)
    except NotEntryPoint as e:
        with pytest.raises(NotEntryPoint, match=str(e)):
            integrate_arc(plan, start, cfg, record=record, forward=forward)
        return None
    got = integrate_arc(plan, start, cfg, record=record, forward=forward)
    assert repr(got) == repr(want)
    return got


@settings(max_examples=400, deadline=None)
@given(payload=_linear_payloads(), reverse=st.booleans(), forward=st.booleans(),
       record=st.booleans(), strip=st.sampled_from(sorted(_STRIPS)),
       edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-3.0, max_value=3.0),
       x0=st.floats(min_value=-0.9, max_value=0.9),
       window=st.floats(min_value=0.5, max_value=50.0) | st.just(1e3) | st.none(),
       max_time=st.floats(min_value=0.05, max_value=30.0))
# a start on the window's upper side, moving along it and curving out: it
# ends after its first piece
@example(payload=LinearSaddle(alpha=1, beta=0, delta=-1, mu=0, gamma=0), reverse=False,
         forward=True, record=True, strip="both", edge="inside", y0=1.0, x0=0.0,
         window=1.0, max_time=10.0)
# with no window the orbit runs out to its turning point at y = -100 and
# lands at (1, -1)
@example(payload=LinearSaddle(alpha=1, beta=0, delta=F(1, 10000), mu=0, gamma=0),
         reverse=False, forward=True, record=False, strip="both", edge="lo", y0=-1.0,
         x0=0.0, window=None, max_time=30.0)
# a start on the stable separatrix, whose growth coefficient is exactly 0:
# the arc goes on until rounding turns it out along the unstable one, and
# it lands at (1, 2.4999999999999996)
@example(payload=LinearSaddle(alpha=3, beta=1, delta=-1, mu=0, gamma=-1), reverse=False,
         forward=True, record=False, strip="both", edge="lo", y0=1.5, x0=0.0,
         window=None, max_time=400.0)
# on the hyperbola y^2 - x^2 = 3, moving away from the edge x = -1: it
# crosses no edge and leaves every bounded set, so it ends at t = 0
@example(payload=LinearSaddle(alpha=1, beta=0, delta=-1, mu=0, gamma=0), reverse=False,
         forward=True, record=True, strip="lo", edge="lo", y0=2.0, x0=0.0,
         window=None, max_time=30.0)
# a zone with no edges: no target at all
@example(payload=LinearSaddle(alpha=1, beta=0, delta=-1, mu=0, gamma=0), reverse=False,
         forward=True, record=True, strip="none", edge="inside", y0=0.0, x0=0.5,
         window=None, max_time=30.0)
# the window's sides in x on the strip's edges: a landing on its side is inside it
@example(payload=LinearSaddle(alpha=1, beta=0, delta=-1, mu=0, gamma=0), reverse=False,
         forward=True, record=True, strip="both", edge="inside", y0=0.0, x0=0.5,
         window=1.0, max_time=10.0)
def test_exact_linear_arc_equals_the_reference(payload, reverse, forward, record, strip,
                                               edge, y0, x0, window, max_time):
    """The exact arc, which reads the edges from its plan, is the
    reference, which lists them on every call: the same trajectory, or the
    same NotEntryPoint, on open and closed strips, some with edges off
    x = 0, from either edge or inside, under any window (or none) and time
    budget."""
    lo, hi = _STRIPS[strip]
    zone = Zone(payload, lo, hi, reverse)
    c = {"lo": lo, "hi": hi}.get(edge)
    if c is None:
        assume((lo is None or lo < x0) and (hi is None or x0 < hi))
    start = (float(c) if c is not None else x0, y0)
    _same_arc(ArcPlan(zone), start,
              IntegratorConfig(max_time=max_time, window=window), record, forward)


def test_step_budget_ends_with_step_limit():
    """An integrated arc that uses up ``max_steps`` (accepted and rejected
    steps) ends with ``step-limit``, not with the time limit, and a hop
    that ends so names the step limit."""
    ps = cubic_center_saddle()
    cfg = IntegratorConfig(max_steps=5)
    assert integrate_arc(ps.zones[0], (0.0, 0.5)).status == "reached-boundary"
    traj = integrate_arc(ps.zones[0], (0.0, 0.5), cfg)
    assert traj.status == "step-limit" and traj.edge is None
    assert traj.steps + traj.rejected == 5
    with pytest.raises(NonReturning, match="ended with step-limit"):
        FlowMachine(ps, cfg)._hop(0, (0.0, 0.5))


def test_dp5_landing_outside_the_window_leaves_it():
    """A step that leaves the window and crosses an edge ends the arc as
    left-window, as the exact arc does, not at a landing beyond the window."""
    zone = Zone(LinearSaddle(16, 2, F(1, 4), 1, F(1, 4)), F(-1), F(1))
    cfg = IntegratorConfig(window=20.0)
    for arc in (_dop853_arc(ArcPlan(zone), (0.2897, 1 / 3), cfg, True, True),
                integrate_arc(zone, (0.2897, 1 / 3), cfg)):
        assert arc.status == "left-window" and arc.edge is None


def test_exact_arc_from_a_window_side_moving_out_leaves_it():
    """From (0, 1) this saddle moves along y = 1, the window's upper side,
    with dy/dt = x = 0 and d2y/dt2 = 1: it moves out of the window at once.
    The window is read after each piece or step, so the recorded exact arc
    ends left-window after its first piece, at y = 1.001, and DOP853 after
    its first step; neither lands on x = 1 at y = sqrt(2), as both do with
    no window."""
    zone = Zone(LinearSaddle(1, 0, -1, 0, 0), F(-1), F(1))
    cfg = IntegratorConfig(window=1.0)
    exact = integrate_arc(zone, (0.0, 1.0), cfg)
    assert (exact.status, exact.edge, len(exact.samples)) == ("left-window", None, 2)
    assert 1.0 < exact.end[1] < 1.002
    stepped = _dop853_arc(ArcPlan(zone), (0.0, 1.0), cfg, True, True)
    assert (stepped.status, stepped.edge, stepped.steps) == ("left-window", None, 1)
    for arc in (integrate_arc(zone, (0.0, 1.0)), _dop853_arc(ArcPlan(zone), (0.0, 1.0),
                                                             IntegratorConfig(), True, True)):
        assert (arc.status, arc.edge) == ("reached-boundary", "hi")
        assert arc.end[1] == pytest.approx(math.sqrt(2))


def test_window_holds_every_landing_the_arc_can_reach():
    """On the global center's zone, from y0 = 0.409 on x = 0, the orbit
    comes back to x = 0 at y = 52/3, 42 times farther out than its start:
    the hop reaches the edge there."""
    m = FlowMachine(global_center_saddle())
    y0 = 0.40944881889763773
    bindex, y, direction, traj = m._hop(0, (0.0, y0))
    assert (bindex, direction, traj.status) == (0, 1, "reached-boundary")
    assert abs(y - 52 / 3) < 1e-6


def test_strip_window_holds_both_edges():
    """The saddle dx/dt = x, dy/dt = -y in the strip -100 < x < 100, run
    directly from (0.01, 0.01), lands on x = 100 at y = 1e-6: with no
    window its targets are the two edges.  A window sized from a floor of
    1 (16 wide) ended this arc left-window at x = 16."""
    zone = Zone(LinearSaddle(alpha=0, beta=-1, delta=0, mu=0, gamma=0), F(-100), F(100))
    traj = integrate_arc(zone, (0.01, 0.01))
    assert (traj.status, traj.edge) == ("reached-boundary", "hi")
    assert traj.end[0] == 100.0 and abs(traj.end[1] - 1e-6) < 1e-15


def test_widened_window_holds_the_orbit_between_landings():
    """Orbits that reach 100 times farther than their landings: the level
    ellipses of X^2 + y^2 / 10^4, in x beyond a half-plane's edge, and in y
    inside a strip, of an exact linear zone and of a DOP853 cubic center.
    Each arc lands.  The integrated arc moves away from y = 0 on its way
    out, so it tries to prove an escape (``ArcPlan.escaped``), which the
    turning point near y = -100 refuses."""
    ps = piecewise_system([LinearSaddle(1, 0, 1, 0, 0), LinearSaddle(F(1, 10**4), 0, 1, 0, 0)],
                          [1])
    m = FlowMachine(ps)
    bindex, y, direction, traj = m._hop(1, (1.0, -1.0))
    assert (bindex, direction, traj.status) == (0, -1, "reached-boundary")
    assert abs(y - 1.0) < 1e-9
    for payload in (LinearSaddle(1, 0, F(1, 10**4), 0, 0), CubicCenter(0, F(1, 10**4))):
        plan = ArcPlan(Zone(payload, F(-1), F(1)))
        traj = integrate_arc(plan, (-1.0, -1.0), record=True)
        assert (traj.status, traj.edge) == ("reached-boundary", "hi")
        assert abs(traj.end[1] + 1.0) < 1e-6
        assert min(y for _, _, y in traj.samples) < -99
        assert not plan.escaped(-50.0, plan.integral(-1.0, -1.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(FAMILIES)))
def test_float_readers_are_the_rational_views(data, kind):
    """Every float that a zone's set-up reads off the integer split is the
    float of the exact rational coefficient, bit for bit (compared by
    ``repr``, which tells -0.0 from 0.0): the arguments that
    ``_zone_code`` hands each maker, the ``edge_levels`` and
    ``turning_points`` rows and ``_linear_parts``, against the readers of
    the rational views in ``reference_dynamics``.  The exact forms they
    read are the derived ones."""
    zone = data.draw(exact_zones(FAMILIES[kind], edges=True))
    assert local_forms(zone.payload) == _derive(zone.payload)
    for c in (zone.x_lo, zone.x_hi):
        if c is not None:
            assert restriction(zone, c) == restriction_by_subs(zone, c)
    s = -1 if zone.reverse else 1
    for part, sign in (("field", s), ("field", -s), ("integral", 1)):
        made = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_maker",
                       lambda source, support: lambda *args: made.append((support, args)))
            dynamics._zone_code(zone, part, None, sign)
        assert repr(made) == repr([ref.zone_code_arguments(zone, part, sign)])
    assert repr(edge_levels(zone)) == repr(ref.edge_levels(zone))
    assert repr(turning_points(zone)) == repr(ref.turning_points(zone))
    if kind == "linear":
        assert repr(dynamics._linear_parts(zone)) == repr(ref.linear_parts(zone))


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from(CONFIG_NAMES), seed=st.integers(0, 10**6))
def test_turning_points_are_the_critical_points_of_the_level(config, seed):
    """Ty of every zone of a random system of each covered configuration
    has the support of the exact resultant of dL/dX and L = N - h D in X,
    with h a variable, and equals its float image up to one constant
    factor: the critical points of the level polynomial in X, with no root
    on the global center's singular locus y = 0.  Ty is None where L is at
    most linear in X."""
    h = MultiPoly.var("h")
    for zone in rand_config(random.Random(seed), config).zones:
        num, den = local_forms(zone.payload)[:2]
        level = num - den * h
        rows = turning_points(zone)
        if level.degree("x") < 2:
            assert rows is None
            continue
        exact = resultant(level.diff("x"), level, "x")
        iw, ih = exact.vars.index("y"), exact.vars.index("h")
        want = {(e[iw], e[ih]): float(c) for e, c in exact.terms.items()}
        have = {(len(rows) - 1 - i, len(row) - 1 - j): c
                for i, row in enumerate(rows) for j, c in enumerate(row) if c}
        assert have.keys() == want.keys(), zone
        top = max(have, key=lambda e: abs(have[e]))
        factor = want[top] / have[top]
        scale = max(abs(c) for c in want.values())
        for e in have:
            assert abs(have[e] * factor - want[e]) <= 1e-9 * scale, zone


def test_turning_points_keep_no_cancellation_residue():
    """On this bulk zone the float reduction left a residue of -4.4e-16 as
    Ty's top coefficient, a spurious root near 1e16 that an escape proof
    had to pass first.  On integers the cancellation is exact: Ty has the
    6 rows of the exact resultant's degree 5 in y."""
    zone = Zone(DoubleCenter(l=-1, n=1, p=2, offset=1), None, F(-1))
    num, den = local_forms(zone.payload)[:2]
    level = num - den * MultiPoly.var("h")
    exact = resultant(level.diff("x"), level, "x")
    rows = turning_points(zone)
    assert len(rows) == 6 == exact.degree("y") + 1
    assert any(rows[0])


def test_turning_points_of_long_coefficients_are_finite_floats():
    """With l = 10^120 Ty's largest integer coefficient has 1 200 bits,
    past the float range: the rows hold the floats of Ty divided by one
    power of two, every one finite, and the largest below 2^1000."""
    rows = turning_points(Zone(DoubleCenter(l=F(10**120), n=3, p=-3), None, F(0)))
    cs = [c for row in rows for c in row]
    assert all(map(math.isfinite, cs)) and 2.0**999 <= max(map(abs, cs)) < 2.0**1000


def _expand(roots, lead):
    """Coefficients, highest degree first, of lead * prod (w - r)."""
    cs = [lead]
    for r in roots:
        cs = [u - r * v for u, v in zip(cs + [0], [0] + cs)]
    return cs


_eighths = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@settings(max_examples=400, deadline=None)
@given(cs=st.lists(_eighths, min_size=1, max_size=7)
       | st.builds(_expand, st.lists(_eighths, max_size=5), st.sampled_from([F(1), F(-3, 2)])),
       a=st.fractions(min_value=0, max_value=4, max_denominator=8))
@example(cs=_expand([F(1), F(-2)], F(1)), a=F(1))  # a root exactly at a
@example(cs=[F(1), -1 - F(1, 2**40)], a=F(1))  # a root just past a
@example(cs=[F(0), F(0)], a=F(0))  # the zero polynomial
def test_no_root_beyond_is_sound(cs, a):
    """Whenever ``reach.no_root_beyond`` says that a float polynomial has
    no real root at or beyond a, exact isolation on the same coefficients,
    read as rationals, finds none: the polynomial is not zero, a is not a
    root, and no root lies in (a, every root's isolating interval]."""
    fl = [float(c) for c in cs]
    if no_root_beyond(fl, [abs(c) for c in fl], float(a)):
        p = UniPoly([F(c) for c in reversed(fl)])
        sf, ivs = isolate_real_roots(p)
        top = max([iv.hi for iv in ivs] + [a])
        assert p(a) != 0 and (not ivs or sturm_count(sf, a, top) == 0)


def test_no_root_beyond_refuses_a_root_at_or_just_past_a():
    """The test refuses a root exactly at a, a root 2^-40 past it and the
    zero polynomial, and proves a polynomial of one sign past its roots,
    also where a coefficient of p itself vanishes."""
    def proves(cs, a):
        return no_root_beyond(cs, [abs(c) for c in cs], a)
    assert not proves([1.0, 1.0, -2.0], 1.0)  # (w - 1)(w + 2)
    assert proves([1.0, 1.0, -2.0], 1.5)
    assert not proves([1.0, -1 - 2.0**-40], 1.0)
    assert not proves([0.0, 0.0], 0.0) and not proves([], 1.0)
    assert not proves([-1.0, 0.0, -1.0], 0.0) and proves([-1.0, 0.0, -1.0], 0.5)


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_an_infinite_level_is_read_only_where_its_limit_holds(config):
    """No limit in h is read: the escape proof refuses h = +-inf, on the
    global center's singular locus y = 0 or where N / D overflowed, since
    next to it the edges' roots in y lie at the arc's scale.  A NaN level
    refuses every reach row."""
    zone = rand_config(random.Random(7), config).zones[0]
    plan = ArcPlan(zone)
    ty = turning_points(zone)
    for w in (-3.0, -0.5, -1e-170, 0.25, 2.0, 40.0):
        for h in (math.inf, -math.inf):
            assert not plan.escaped(w, h)
        for rows in (r for r in (ty, *edge_levels(zone)) if r is not None):
            assert not beyond_every_root(rows, w, math.nan)


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(CONFIG_NAMES + ("mixed",)), seed=st.integers(0, 10**6),
       y0=st.floats(min_value=-4.0, max_value=4.0) | st.sampled_from([0.0, 1e-3, -1e-3]),
       forward=st.booleans(), depth=st.just(0.0) | st.floats(min_value=0.0, max_value=4.0))
# next to the global center's singular locus y = 0 the level is 3.5e155:
# without the proof the arc runs out of the float range, where its step's
# error norm overflows
@example(config="global_center+saddle", seed=0, y0=2.0681958835003208e-78, forward=True,
         depth=0.0)
# a finite-time blow-up: without the proof the arc ends when its step
# collapses, near x, y = 3.5e13
@example(config="double_center+saddle", seed=2132, y0=2.0, forward=False, depth=0.0)
# on the singular locus y = 0 the level is infinite, which the proof
# refuses: the arc runs off in x and ends when its step collapses
@example(config="global_center+saddle", seed=0, y0=0.0, forward=True, depth=0.0)
# next to y = 0 in the strip -1 < x < 1 the level overflows to inf: the arc
# lands on x = -1 at y = 1.6e-160, where no limit of the level reads it
@example(config="mixed", seed=0, y0=1e-160, forward=True, depth=0.5)
def test_escape_proof_changes_no_arc(config, seed, y0, forward, depth):
    """From a point at ``depth`` inside either edge of each nonlinear zone
    (a half-plane, or in ``mixed`` also a strip) of a random system of each
    covered configuration and of the ``mixed`` generator, an integrated arc
    with no window lands where it lands when ``ArcPlan.escaped`` refuses
    every proof in y, and an arc that ends otherwise (by a
    proof, say) never lands with the proofs refused.  With no proof and no
    window an escaping arc ends only on its budget, so the reference runs
    4096 steps past the proven arc's."""
    rng = random.Random(seed)
    ps = rand_mixed(rng) if config == "mixed" else rand_config(rng, config)
    m = FlowMachine(ps)
    for i, zone in enumerate(ps.zones):
        if zone.kind == "linear":
            continue
        plan = m.plan(i)
        for c, inward in ((zone.x_lo, 1), (zone.x_hi, -1)):
            if c is None:
                continue
            start = (float(c) + inward * depth, y0)
            if not plan.lo <= start[0] <= plan.hi:  # past a strip's far edge
                continue
            try:
                proven = integrate_arc(plan, start, record=False, forward=forward)
            except NotEntryPoint:
                continue
            cfg = IntegratorConfig(max_steps=proven.steps + proven.rejected + 4096)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ArcPlan, "escaped", lambda self, y, h: False)
                refused = integrate_arc(plan, start, cfg, record=False, forward=forward)
            if "reached-boundary" in (proven.status, refused.status):
                assert (proven.status, proven.edge, proven.end) == (
                    refused.status, refused.edge, refused.end)


def test_arc_on_the_singular_locus_has_a_bounded_cost():
    """The global center's first integral is infinite on its singular
    locus y = 0, where the flow keeps y = 0, and the escape proof refuses
    that level.  From (0, 0) the arc moves away from its edge x = 0 with
    dx/dt = -2 X^2 - xi, so x blows up in finite time and the arc ends when
    its step collapses, after 254 steps (with no such end it ran on until
    its floats overflowed, 3 353 steps).  The same start in a strip lands
    on its far edge at y = 0."""
    traj = integrate_arc(Zone(GlobalCenter(F(4, 5)), None, F(0)), (0.0, 0.0))
    assert (traj.status, traj.edge) == ("left-window", None) and traj.steps < 1000
    traj = integrate_arc(Zone(GlobalCenter(F(4, 5)), F(-1), F(0)), (0.0, 0.0))
    assert traj.status == "reached-boundary" and traj.edge == "lo" and traj.end == (-1.0, 0.0)


def test_level_zero_arc_on_the_global_center_ends_on_the_y_proof(monkeypatch):
    """The left zone of mixed-7-22, mixed-7-39 and mixed-11-21.  From
    (-1, 3/2) forward the level is exactly 0, on the parabola
    X^2 = y - 3/2, and the arc runs out along its left branch.  The y proof
    holds at the first accepted step and ends the arc there.  Nothing else
    would: H = (X^2 - y + xi/2) / y^2 tends to 0 at large |y| on every
    level, so the drift gate cannot see a jump between levels there: with
    that first try refused, the arc "lands" on x = -1 at y = 2.97e12."""
    held = []
    escaped = ArcPlan.escaped

    def recorded(self, y, h):
        proven = escaped(self, y, h)
        held.append(proven)
        return proven

    monkeypatch.setattr(ArcPlan, "escaped", recorded)
    traj = integrate_arc(Zone(GlobalCenter(3, offset=1), None, F(-1)), (-1.0, 1.5))
    assert (traj.status, traj.edge, traj.steps) == ("left-window", None, 1)
    assert held == [True]


@pytest.mark.parametrize("y0", [1e-160, 1e-170])
def test_arc_next_to_the_singular_locus_lands(y0):
    """Off y = 0 but next to it the level is inf: N / D overflows (y0 =
    1e-160), or D = y^2 underflows to 0 (1e-170).  The orbit of (-0.5, y0),
    h y^2 + y = X^2 + xi/2, moves left with y growing and lands on x = -1
    at y = y0 sqrt(5/2), since the y proof refuses that level.  In the
    half-plane x < 1 it runs off in x instead, dx/dt = y - 2 X^2 - xi < 0
    growing like X^2, and ends when its step collapses."""
    traj = integrate_arc(Zone(GlobalCenter(F(1, 2)), F(-1), F(1)), (-0.5, y0))
    assert traj.status == "reached-boundary" and traj.edge == "lo"
    assert traj.end[0] == -1.0 and traj.end[1] == pytest.approx(y0 * math.sqrt(2.5))
    traj = integrate_arc(Zone(GlobalCenter(F(1, 2)), None, F(1)), (-0.5, y0))
    assert (traj.status, traj.edge) == ("left-window", None) and traj.steps < 1000


@pytest.mark.parametrize("payload", [DoubleCenter(l=1, n=0, p=0), CubicCenter(a=0, b=1, r=1)])
def test_a_branch_that_runs_off_in_x_ends_when_its_step_collapses(payload):
    """From (1, 1/2) in the half-plane x > 0 the arc keeps y = 1/2 (on the
    double center's invariant line y = 1/(2l)) and runs off in x with
    dx/dt growing like X^2, so x blows up in finite time.  No escape proof
    in y can end it, since y does not move; it ends left-window when its
    step collapses, after a few hundred steps."""
    traj = integrate_arc(Zone(payload, F(0), None), (1.0, 0.5))
    assert (traj.status, traj.edge) == ("left-window", None) and traj.steps < 1000
    assert traj.end[1] == 0.5 and traj.end[0] > 1e9


def test_arcs_at_an_overflowed_level():
    """With a constant D the level is inf where N overflows.  From
    (-1e103, 0) the level curve of this double center turns back to the
    edge x = 0, which the arc reaches at y = -1e103, since the y proof
    refuses that level.  From (-0.5, 1e120) the landing on x = 0 lies
    beyond the float range, so the arc leaves instead of landing at
    y = inf.  From (-0.5, 1e140) the first accepted step crosses x = 0,
    and a step of the landing search squares a stage beyond 1e154 in its
    error norm: the arc leaves, as one whose own step overflows does,
    where that OverflowError escaped ``integrate_arc``."""
    zone = Zone(DoubleCenter(l=3, n=3, p=-3), None, F(0))
    traj = integrate_arc(zone, (-1e103, 0.0))
    assert traj.status == "reached-boundary" and traj.edge == "hi"
    assert traj.end[1] == pytest.approx(-1e103)
    traj = integrate_arc(zone, (-0.5, 1e120))
    assert traj.status == "left-window" and traj.edge is None
    traj = integrate_arc(zone, (-0.5, 1e140))
    assert (traj.status, traj.edge, traj.steps) == ("left-window", None, 1)


def test_an_arc_whose_steps_all_fail_ends():
    """Where every step's error norm is NaN, every step is rejected, and
    these arcs ran to their 400 000-step budget.  At (-0.5, 1e156) the
    speed of the first double center overflows to inf: the arc ends before
    its first step.  At (-0.5, 1e154) the second one's field is finite,
    (-1e308, 3e154), but sums of its stages overflow: the arc ends once the
    rejected step no longer moves the point, after 459 rejections."""
    for payload, y0, rejected in ((DoubleCenter(l=3, n=3, p=-3), 1e156, 0),
                                  (DoubleCenter(l=3, n=-1, p=-1), 1e154, 459)):
        zone = Zone(payload, None, F(0))
        for forward in (True, False):
            traj = integrate_arc(zone, (-0.5, y0), forward=forward)
            assert (traj.status, traj.steps, traj.rejected) == ("left-window", 0, rejected)


def test_a_blow_up_ends_when_its_step_collapses():
    """The seed-2132 arc of ``test_escape_proof_changes_no_arc`` with its
    escape proofs refused: x and y blow up in finite time, the step shrinks
    with the time left, and t converges to 1.18259.  The arc ran to its
    400 000-step budget; it ends left-window once its step falls below
    2^-40 t, after about 113 000 steps."""
    ps = rand_config(random.Random(2132), "double_center+saddle")
    zone = next(z for z in ps.zones if z.kind != "linear")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ArcPlan, "escaped", lambda self, y, h: False)
        traj = integrate_arc(zone, (0.0, 2.0), record=False, forward=False)
    assert traj.status == "left-window" and traj.edge is None
    assert traj.steps + traj.rejected < IntegratorConfig().max_steps / 2
    assert min(abs(v) for v in traj.end) > 1e13


def test_a_short_last_step_ends_on_the_time_limit():
    """The time limit falls one float past the end of a step at t = 1500,
    so the next step is cut to the 1e-9 left past it, below 2^-40 t =
    1.4e-9.  The collapse is read on the error control's step before that
    cut, so the arc still ends on the time limit."""
    zone = Zone(DoubleCenter(l=0, n=1, p=0))
    full = integrate_arc(zone, (0.3, 0.0), IntegratorConfig(max_time=1600.0))
    tk = next(t for t, _, _ in full.samples if t >= 1500.0)
    cfg = IntegratorConfig(max_time=math.nextafter(tk, math.inf))
    traj = integrate_arc(zone, (0.3, 0.0), cfg)
    assert traj.status == "reached-time-limit"
    (t0, *_), (t1, *_) = traj.samples[-2:]
    assert t0 == tk and t1 - t0 < 2.0 ** -40 * t0


def test_grazing_landing_stays_on_the_level_curve():
    """Backward from (1, 0), the orbit of this saddle touches x = -1 at
    (-1, 0), a double root of x(t) = -1, and the exact arc goes on to
    x = 1.  DOP853 lands on x = -1 there, where dx/dt is about 0: moving
    the step's end along the field by miss * fy / fx would go anywhere (it
    went to y = 1, where H is -1 against -0.5), so the landing keeps the
    step's ordinate, and H stays within DRIFT_TOL.  The reported drift
    covers the landed point."""
    zone = Zone(LinearSaddle(alpha=1, beta=-1, delta=1, mu=1, gamma=0), F(-1), F(1))
    cfg = IntegratorConfig(max_time=10.0)
    traj = _dop853_arc(ArcPlan(zone), (1.0, 0.0), cfg, True, False)
    assert traj.status == "reached-boundary" and traj.end[0] == -1.0
    H = zone_integral_fn(zone)
    h0 = H(1.0, 0.0)
    gap = abs(H(*traj.end) - h0) / max(1.0, abs(h0))
    assert gap <= DRIFT_TOL and traj.drift >= gap


def test_nan_error_norm_rejects_the_step():
    """From (-1, 1e100) the stages of a long step overflow, and the error
    norm comes out NaN.  A step passes only at err <= 1, so the NaN step is
    rejected like a large error and shrunk until it is finite: the arc
    reaches its edge x = 0 instead of running on at (nan, nan)."""
    zone = Zone(CubicCenter(a=0, b=1, q=1), None, F(0))
    traj = integrate_arc(zone, (-1.0, 1e100), IntegratorConfig(max_time=50.0, window=1e300))
    assert traj.status == "reached-boundary" and traj.rejected > 0
    assert traj.end[0] == 0.0 and math.isfinite(traj.end[1])



def test_exact_arc_stops_at_a_stiff_saddle_equilibrium():
    # pieces of a saddle arc are 2/sqrt(e) long; a start at the equilibrium
    # of e = 1e12 would need 2e8 of them to reach max_time
    zone = Zone(LinearSaddle(alpha=10**12, beta=0, delta=-1, mu=0, gamma=0))
    traj = integrate_arc(zone, (0.0, 0.0), IntegratorConfig())
    assert traj.status == "hit-equilibrium" and traj.end == (0.0, 0.0)


def test_not_entry_point():
    z = Zone(GlobalCenter(F(4, 5)), x_hi=F(0))
    # at (0, 1.2) the field points rightward, out of the strip x < 0
    with pytest.raises(NotEntryPoint):
        integrate_arc(z, (0.0, 1.2), IntegratorConfig())


def test_return_map_fixed_point_global_fixture():
    ps = global_center_saddle()
    y_star = (5 + math.sqrt(5)) / 5
    y2, log = FlowMachine(ps).return_map(0, y_star, 1)
    assert abs(y2 - y_star) < 1e-6
    assert len(log) == 2  # two crossings per loop


def test_return_map_non_fixed_point():
    # start at 3/2: the loop returns at 2 (level-curve partners 1/2 and 2)
    ps = global_center_saddle()
    y2, _ = FlowMachine(ps).return_map(0, 1.5, 1)
    assert abs(y2 - 2.0) < 1e-6
    assert abs(y2 - 1.5) > 1e-3


def test_return_map_sliding_start_rejected():
    # the cubic fixture's upper matching ordinate is an attracting sliding point
    ps = cubic_center_saddle()
    with pytest.raises(SlidingPoint):
        FlowMachine(ps).return_map(0, (1 + math.sqrt(5)) / 2, 1)


def test_return_map_annulus_identity():
    ps = piecewise_system(
        [DoubleCenter(l=0, n=0, p=0), LinearSaddle(1, 0, 1, 0, 0)], [0])
    m = FlowMachine(ps)
    for y in (0.4, 0.9, 1.5):
        y2, _ = m.return_map(0, y, -1)
        assert abs(y2 - y) < 1e-6


def test_oracle_finds_fixture_cycles():
    ps = global_center_saddle()
    fixed = FlowMachine(ps).oracle((0.2, 3.0), 64)[0]
    assert any(abs(v - (5 + math.sqrt(5)) / 5) < 1e-6 for v in fixed)
    assert any(abs(v - (5 - math.sqrt(5)) / 5) < 1e-6 for v in fixed)


def test_oracle_empty_for_obstructed_fixture():
    ps = cubic_center_saddle()
    assert FlowMachine(ps).oracle((-3.0, 3.0), 64) == {0: []}


def test_oracle_grid_minimum():
    ps = global_center_saddle()
    with pytest.raises(ValueError):
        FlowMachine(ps).oracle((-1.0, 1.0), 8)


def _defined_returns(m: FlowMachine, count: int = 4):
    """Up to ``count`` (boundary, ordinate, direction, return ordinate)
    samples where the return map is defined, spread over a scan of
    (-3, 3) on every boundary."""
    found = []
    for b in range(len(m.bxs)):
        for i in range(60):
            y = -3.0 + 0.1 * i + 0.0123
            try:
                d = m.crossing_direction(b, y)
                found.append((b, y, d, m.return_map(b, y, d)[0]))
            except DynamicsError:
                pass
    return found[::max(1, len(found) // count)][:count]


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURE_DIR)))
def test_return_map_mirror_and_reversal_symmetry(name):
    """The flow's exact symmetries on every fixture, to 1e-9: the mirrored
    system x -> -x has the same return map on the mirrored boundary, with
    the crossing direction flipped, and flipping every zone's reverse flag
    gives the inverse return map."""
    ps = load_spec(os.path.join(FIXTURE_DIR, name)).to_system()
    machine = FlowMachine(ps)
    mirrored = FlowMachine(mirror(ps))
    reversed_ = FlowMachine(piecewise_system(
        [z.payload for z in ps.zones], list(ps.boundaries),
        [not z.reverse for z in ps.zones]))
    last = len(ps.boundaries) - 1
    samples = _defined_returns(machine)
    assert samples
    for b, y, d, y2 in samples:
        assert abs(mirrored.return_map(last - b, y, -d)[0] - y2) <= 1e-9
        assert abs(reversed_.return_map(b, y2, -d)[0] - y) <= 1e-9


def _composed_return(machine: FlowMachine, b: int, y: float, direction: int):
    """The return map of ``machine`` composed from public integrate_arc
    calls on the system's Zones, each landing read back to its boundary by
    the boundary's value: (return ordinate, [(boundary, ordinate,
    direction)] per crossing)."""
    ps = machine.ps
    if machine.crossing_direction(b, y) != direction:
        raise SlidingPoint("opposite crossing")
    zone, state, log = b + 1 if direction > 0 else b, (float(ps.boundaries[b]), y), []
    for _ in range(MAX_HOPS):
        traj = integrate_arc(ps.zones[zone], state, machine.cfg, record=False)
        if traj.status != "reached-boundary":
            raise NonReturning(traj.status)
        edge, dhit = traj.edge, 1 if traj.edge == "hi" else -1
        bhit = ps.boundaries.index(ps.zones[zone].x_hi if edge == "hi" else ps.zones[zone].x_lo)
        machine.crossing_direction(bhit, traj.end[1])
        log.append((bhit, traj.end[1], dhit))
        if bhit == b and dhit == direction:
            return traj.end[1], log
        zone, state = bhit + 1 if dhit > 0 else bhit, (float(ps.boundaries[bhit]), traj.end[1])
    raise NonReturning("hop limit")


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURE_DIR)))
def test_return_map_is_composed_integrate_arc_calls(name):
    """The plan-driven return map equals, float for float, the composition
    of public integrate_arc calls on the Zones, at 16 grid ordinates of the
    oracle window on every boundary, in both crossing directions; where one
    is undefined, so is the other, with the same error type."""
    ps = load_spec(os.path.join(FIXTURE_DIR, name)).to_system()
    machine = FlowMachine(ps)
    lo, hi = oracle_window(solve(ps, verify=False))
    defined = 0
    for b in range(len(ps.boundaries)):
        for y in (lo + (hi - lo) * i / 15 for i in range(16)):
            for direction in (1, -1):
                try:
                    want = _composed_return(machine, b, y, direction)
                except DynamicsError as e:
                    with pytest.raises(type(e)):
                        machine.return_map(b, y, direction)
                    continue
                got, log = machine.return_map(b, y, direction)
                assert (got, [entry[:3] for entry in log]) == want
                defined += 1
    assert defined


def test_bulk_systems_stop_compiling():
    """Field, integral and step code is compiled for each zone's own
    monomial support, once per distinct (source generator, support): once
    the zones of the first 600 bulk systems (criterion-5 generator, seed
    505) have their code, the zones of the next 600 compile nothing new,
    and no support was compiled twice.  Each zone builds what an arc plan
    can build: field, integral and, for a nonlinear zone, its steps."""
    rng = random.Random(505)
    units = [rand_config(rng, CONFIG_NAMES[i % 6]) for i in range(1200)]
    dynamics._maker.cache_clear()
    seen = set()

    def build(systems):
        for ps in systems:
            for zone in ps.zones:
                num, den, fx, fy = local_forms(zone.payload)
                field, integral = (tuple(tuple(sorted(p.terms, reverse=True)) for p in part)
                                   for part in ((fx, fy), (num, den)))
                seen.update({(dynamics._field_source, field),
                             (dynamics._integral_source, integral)})
                plan = ArcPlan(zone)
                if plan.linear is None:
                    seen.add((dynamics._step_source, field))
                    plan.step(True)

    build(units[:600])
    compiled = dynamics._maker.cache_info().misses
    build(units[600:])
    assert dynamics._maker.cache_info().misses == compiled == len(seen)


def test_zone_floats_have_one_cache():
    """``ArcPlan`` is the one home of a zone's floats: in ``dynamics`` and
    ``reach`` the one ``lru_cache`` is on ``_maker``, the compiled code per
    support, which no zone keys; the field, integral, step and reach rows
    are built once per plan, and ``systems.linear_part`` is not cached."""
    cached = []
    for name in ("dynamics", "reach"):
        tree = ast.parse((Path(dynamics.__file__).parent / f"{name}.py").read_text())
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "id", getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                    cached.append((name, node.name))
    assert cached == [("dynamics", "_maker")]
    assert not hasattr(linear_part, "cache_info")


class SyntheticMap(FlowMachine):
    """A FlowMachine on the one boundary x = 0 whose upward return map is
    y + d(y), for a given function d, and undefined where d is None or in
    direction -1, counting its evaluations.  A return logs one crossing,
    the return itself."""

    def __init__(self, d):
        self.d = d
        self.calls = 0
        self.bxs = [0.0]

    def return_map(self, bindex, y, direction, record=False):
        self.calls += 1
        d = self.d(y) if direction == 1 else None
        if d is None:
            raise NonReturning("undefined")
        return y + d, [(bindex, y + d, direction, None)]


def test_oracle_simple_root():
    r = math.pi / 10
    m = SyntheticMap(lambda y: math.sin(y - r) * (2 + y))
    fixed = m.oracle((-1.0, 1.0), 64)[0]
    assert len(fixed) == 1 and abs(fixed[0] - r) < 1e-10
    assert m.calls - 64 <= 12


def test_oracle_flat_triple_root():
    # the displacement is below 1e-12 within 1e-4 of a triple root
    r = 0.3141
    m = SyntheticMap(lambda y: (y - r) ** 3)
    fixed = m.oracle((-1.0, 1.0), 64)[0]
    assert len(fixed) == 1 and abs(fixed[0] - r) < 1e-4


def test_oracle_exact_zero_at_last_node():
    m = SyntheticMap(lambda y: y - 1.0)
    assert m.oracle((-1.0, 1.0), 64) == {0: [1.0]}
    assert m.calls == 64


def test_oracle_ignores_noise_on_a_band_of_closed_orbits():
    # every node closes (|d| < 1e-12) with alternating signs: a period
    # annulus whose displacement is integration noise, not fixed points
    m = SyntheticMap(lambda y: 5e-13 if round((y + 1) * 63 / 2) % 2 else -5e-13)
    assert m.oracle((-1.0, 1.0), 64) == {0: []}
    assert m.calls == 64


def test_oracle_skips_undefined_holes():
    # roots at 0.3 (defined around it) and 0.6 (inside a hole that covers
    # grid nodes), and one at -0.5 inside a hole between two grid nodes, so
    # that its refinement runs into the hole and is dropped
    def d(y):
        if 0.5 < y < 0.7 or -0.5005 < y < -0.4995:
            return None
        return (y - 0.3) * (y - 0.6) * (y + 0.5)

    m = SyntheticMap(d)
    fixed = m.oracle((-1.0, 1.0), 64)[0]
    assert len(fixed) == 1 and abs(fixed[0] - 0.3) < 1e-10


def test_oracle_window_from_report():
    rep = solve(global_center_saddle(), verify=False)
    lo, hi = oracle_window(rep)
    ys = [float(v) for c in rep.candidates for _, v in c.ordinates]
    assert lo < min(ys) and hi > max(ys)


def test_oracle_reads_the_down_crossings_from_the_closing_walk():
    """On the designed three-zone witness the return map on x = 1 is defined
    only above about -0.77, so no two grid nodes there bracket the verified
    -3/4; the walk that closes at -1 on x = -1 logs it.  The grid-128 oracle
    reports the whole verified cycle on both lines, and nothing else."""
    rep = solve(designed_center_saddle_saddle())
    (cyc,) = rep.verified()
    found = rep.machine.oracle(oracle_window(rep), 128)
    for b, points in found.items():
        want = sorted(float(v) for v in cyc.ordinates_on(b))
        assert len(points) == len(want)
        assert all(abs(y - v) < 1e-9 for y, v in zip(points, want)), (b, points)
    assert any(abs(y + 0.75) < 1e-9 for y in found[1])


def test_oracle_finds_a_cycle_whose_down_crossing_the_scan_misses():
    """Bulk unit 16 (seed 505, global_center+saddle+saddle) has one verified
    cycle, through 1 and 3 on x = -1; its up-crossing at 3 closes a walk
    that logs the down-crossing at 1."""
    rng = random.Random(505)
    units = [rand_config(rng, CONFIG_NAMES[i % 6]) for i in range(17)]
    assert CONFIG_NAMES[16 % 6] == "global_center+saddle+saddle"
    rep = solve(units[16], cfg=BULK_CFG)
    (cyc,) = rep.verified()
    assert sorted(cyc.ordinates_on(0)) == [1, 3]
    points = rep.machine.oracle(oracle_window(rep), 128)[0]
    for v in (1.0, 3.0):
        assert any(abs(y - v) < 1e-9 for y in points), points


def test_oracle_scan_alone_finds_the_piecewise_linear_cycle():
    """Criterion 3's cycle, on both lines, from a coarse scan of (-10, 10)
    with no candidate seeds: its up-crossings close walks that log the
    rest."""
    found = FlowMachine(linear_center_saddle_center()).oracle((-10.0, 10.0), 48)
    s = math.sqrt(4873) / (36 * math.sqrt(2))
    big = 97 * math.sqrt(4873) / (2340 * math.sqrt(2))
    for points, want in ((found[0], (16 / 65 - s, 16 / 65 + s)), (found[1], (-big, big))):
        assert len(points) == 2
        assert all(abs(y - v) < 1e-6 for y, v in zip(points, want)), points


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURE_DIR)))
def test_oracle_points_are_fixed_points_of_their_own_line(name):
    """Every point the grid-128 oracle reports, scanned or read from a
    closing walk's log, is a fixed point of its own line's return map, in
    one of the two crossing directions."""
    ps = load_spec(os.path.join(FIXTURE_DIR, name)).to_system()
    rep = solve(ps)
    for b, points in rep.machine.oracle(oracle_window(rep), 128).items():
        for y in points:
            gaps = [rep.machine.displacement(b, y, d) for d in (1, -1)]
            assert any(g is not None and abs(g) < CLOSURE_TOL for g in gaps), (b, y, gaps)


def test_verify_pwl_cycle_arcwise():
    """Criterion-8 style check: the verified loop closes within 1e-6 and
    every arc conserves its first integral to 1e-8 relative."""
    ps = linear_center_saddle_center()
    rep = solve(ps)
    (cyc,) = rep.verified()
    m = FlowMachine(ps, IntegratorConfig())
    b0, y0 = min(cyc.ordinates, key=lambda bv: bv[1])
    d0 = m.crossing_direction(b0, float(y0))
    y_back, log = m.return_map(b0, float(y0), d0)
    assert abs(y_back - float(y0)) < 1e-6
    assert len(log) == 4
    for _, _, _, traj in log:
        assert traj.drift < 1e-8


def test_verify_rejects_singular_locus_candidate():
    """solve never proposes an ordinate on the global center's singular
    locus y = 0 (the matcher excludes it from 0); handed to the verifier
    directly, the arc from it runs along the invariant line y = 0 out of
    the window, so integration rejects it."""
    from pwham.solver import CandidateCycle

    ps = global_center_saddle()
    cand = CandidateCycle(topology="two_zone", ordinates=((0, F(0)), (0, F(2))))
    m = FlowMachine(ps, IntegratorConfig())
    status, reason = m.verify_candidate(cand)
    assert status == "rejected" and "did not return" in reason


def test_verify_rejects_fabricated_tuple():
    """A pair that satisfies no actual orbit geometry (beyond the homoclinic
    level of the cubic zone) is rejected with an arc/sliding reason."""
    from pwham.solver import CandidateCycle

    ps = cubic_center_saddle()
    cand = CandidateCycle(topology="two_zone", ordinates=((0, F(-3, 2)), (0, F(5, 2))))
    m = FlowMachine(ps, IntegratorConfig())
    status, reason = m.verify_candidate(cand)
    assert status == "rejected"


class ScriptedWalk(FlowMachine):
    """A FlowMachine on the boundaries ``bxs`` whose hops replay ``script``:
    each entry is a landing (boundary, ordinate, direction, drift) or an
    exception that the hop raises.  A point's crossing direction is the one
    of the start or of the landing made there, and upward at any other
    point.  ``zones`` logs the zone each hop runs through."""

    def __init__(self, bxs, start, script):
        self.bxs = bxs
        self.script = iter(script)
        self.directions = {(start[0], start[1]): start[2]}
        self.zones = []

    def crossing_direction(self, bindex, y):
        return self.directions.get((bindex, y), 1)

    def _hop(self, zone_index, state, record=False):
        self.zones.append(zone_index)
        step = next(self.script)
        if isinstance(step, Exception):
            raise step
        b, y, d, drift = step
        self.directions[b, y] = d
        return b, y, d, SimpleNamespace(drift=drift)


def _scripted_verdict(ordinates, script):
    """verify_candidate of a two-boundary ScriptedWalk started at the least
    declared ordinate, crossing upward, with the given hops."""
    from pwham.solver import CandidateCycle

    cand = CandidateCycle(topology="two_zone", ordinates=tuple((b, F(y)) for b, y in ordinates))
    b0, y0 = min(ordinates, key=lambda by: by[1])
    return ScriptedWalk([0.0, 1.0], (b0, float(y0), 1), script).verify_candidate(cand)


def test_verify_rejects_first_integral_drift():
    status, reason = _scripted_verdict(((0, 1), (0, 2)), [(0, 2.0, -1, 1e-6)])
    assert (status, reason) == ("rejected", "first-integral drift 1.00e-06")


def test_verify_rejects_a_loop_ending_in_the_wrong_direction():
    """The last declared crossing is matched, but against the start's
    direction."""
    status, reason = _scripted_verdict(((0, 1), (0, 2)),
                                       [(0, 2.0, -1, 0.0), (0, 2.0 + 1e-7, -1, 0.0)])
    assert (status, reason) == ("rejected", "loop ended on the wrong boundary or direction")


def test_verify_rejects_a_loop_with_a_gap():
    """The loop comes back within MATCH_TOL of the start, but not within
    CLOSURE_TOL."""
    status, reason = _scripted_verdict(((0, 1), (0, 2)),
                                       [(0, 2.0, -1, 0.0), (0, 1.0 + 5e-6, 1, 0.0)])
    assert (status, reason) == ("rejected", "loop failed to close: gap 5.00e-06")


def test_verify_rejects_an_arc_that_leaves_its_zone():
    status, reason = _scripted_verdict(
        ((0, 1), (0, 2)), [NotEntryPoint("start on the lower edge with outward velocity")])
    assert (status, reason) == (
        "rejected", "arc leaves zone: start on the lower edge with outward velocity")


def test_return_map_gives_up_after_the_hop_limit():
    """A walk that keeps landing on its start boundary in the opposite
    direction never returns: after the first hop, up into zone 1, every hop
    runs down through zone 0; the return map raises after MAX_HOPS hops,
    and the displacement is undefined."""
    m = ScriptedWalk([0.0], (0, 1.0, 1), itertools.repeat((0, 2.0, -1, 0.0)))
    with pytest.raises(NonReturning, match="no return within the hop limit"):
        m.return_map(0, 1.0, 1)
    assert m.zones == [1] + [0] * (MAX_HOPS - 1)
    m = ScriptedWalk([0.0], (0, 1.0, 1), itertools.repeat((0, 2.0, -1, 0.0)))
    assert m.displacement(0, 1.0, 1) is None
    assert len(m.zones) == MAX_HOPS


def test_integrator_config_validation():
    """Budgets must be positive numbers; NaN is not one (it would switch
    a window off), and an arc needs at least one step."""
    for bad in ({"max_time": 0.0}, {"window": -1.0}, {"max_time": math.nan},
                {"window": math.nan}, {"max_steps": 0}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)
    assert IntegratorConfig().window is None
