"""Numerical flow: conservation, event accuracy, return maps, the shooting
oracle, and candidate verification."""

import math
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pwham import dynamics
from pwham.dynamics import (
    DRIFT_TOL,
    EVENT_TOL,
    MAX_HOPS,
    MAX_STEP,
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
    zone_step_fns,
)
from pwham.solver import solve
from pwham.specfile import load_spec
from pwham.systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    Zone,
    mirror,
    piecewise_system,
)

from conftest import (
    CONFIG_NAMES,
    FIXTURE_DIR,
    cubic_center_saddle,
    double_center_saddle,
    global_center_saddle,
    linear_center_saddle_center,
    rand_config,
)
from reference_dynamics import dop853_step
from reference_systems import field_polys


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
    assert traj.status == "reached-boundary" and traj.events[-1][1] == "hi"
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
    cfg = IntegratorConfig(max_time=10.0, window=20.0)
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
    zone_field_fn.cache_clear()
    zone_step_fns.cache_clear()
    zone = Zone(payload, reverse=reverse)
    f0 = zone_field_fn(zone)
    f = f0 if forward else (lambda x, y: tuple(-v for v in f0(x, y)))
    k1 = f(x, y)
    xn, yn, err, kn = zone_step_fns(zone)[forward](x, y, h, k1)
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
    fx, fy = fxp.eval_float(at), fyp.eval_float(at)
    rate = fxp.diff("x").eval_float(at) * fx + fxp.diff("y").eval_float(at) * fy
    return 2 * abs(fx) <= abs(rate) * MAX_STEP


@settings(max_examples=300, deadline=None)
@given(payload=_linear_payloads(), reverse=st.booleans(), forward=st.booleans(),
       edge=st.sampled_from(["lo", "hi", "inside"]),
       y0=st.floats(min_value=-2.0, max_value=2.0),
       x0=st.floats(min_value=-0.9, max_value=0.9))
# a grazing landing: backward from (1, 0) the orbit touches x = -1 at (-1, 0)
@example(payload=LinearSaddle(alpha=1, beta=-1, delta=1, mu=1, gamma=0), reverse=False,
         forward=False, edge="hi", y0=0.0, x0=0.0)
def test_exact_linear_arc_matches_dp5(payload, reverse, forward, edge, y0, x0):
    """The exact arc of a linear zone against Dormand-Prince steps from the
    same start: the first integral kept to 1e-12 relative, recorded samples
    at most MAX_STEP apart on the level curve, and the same status, edge
    and landing (to 1e-9).  The exception is the reference's blind spot: an
    arc that starts or ends on a fleeting excursion across an edge."""
    zone = Zone(payload, F(-1), F(1), reverse)
    start = {"lo": (-1.0, y0), "hi": (1.0, y0), "inside": (x0, y0)}[edge]
    cfg = IntegratorConfig(max_time=10.0, window=20.0)
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
    edges = [a.end for a in (exact, ref) if a.events] + [start] * (edge != "inside")
    if any(_fleeting(zone, p) for p in edges):
        return
    assert exact.status == ref.status
    assert [e[1:] for e in exact.events] == [e[1:] for e in ref.events]
    if exact.events:
        assert exact.end[0] == ref.end[0]
        assert abs(exact.end[1] - ref.end[1]) <= 1e-9


def test_dp5_landing_outside_the_window_leaves_it():
    """A step that leaves the window and crosses an edge ends the arc as
    left-window, as the exact arc does, not at a landing beyond the window."""
    zone = Zone(LinearSaddle(16, 2, F(1, 4), 1, F(1, 4)), F(-1), F(1))
    cfg = IntegratorConfig(window=20.0)
    for arc in (_dop853_arc(ArcPlan(zone), (0.2897, 1 / 3), cfg, True, True),
                integrate_arc(zone, (0.2897, 1 / 3), cfg)):
        assert arc.status == "left-window" and not arc.events


def test_grazing_landing_stays_on_the_level_curve():
    """Backward from (1, 0), the orbit of this saddle touches x = -1 at
    (-1, 0), a double root of x(t) = -1, and the exact arc goes on to
    x = 1.  DOP853 lands on x = -1 there, where dx/dt is about 0: moving
    the step's end along the field by miss * fy / fx would go anywhere (it
    went to y = 1, where H is -1 against -0.5), so the landing keeps the
    step's ordinate, and H stays within DRIFT_TOL.  The reported drift
    covers the landed point."""
    zone = Zone(LinearSaddle(alpha=1, beta=-1, delta=1, mu=1, gamma=0), F(-1), F(1))
    cfg = IntegratorConfig(max_time=10.0, window=20.0)
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
    fixed = FlowMachine(ps).oracle(0, (0.2, 3.0), 64)
    assert any(abs(v - (5 + math.sqrt(5)) / 5) < 1e-6 for v in fixed)
    assert any(abs(v - (5 - math.sqrt(5)) / 5) < 1e-6 for v in fixed)


def test_oracle_empty_for_obstructed_fixture():
    ps = cubic_center_saddle()
    assert FlowMachine(ps).oracle(0, (-3.0, 3.0), 64) == []


def test_oracle_grid_minimum():
    ps = global_center_saddle()
    with pytest.raises(ValueError):
        FlowMachine(ps).oracle(0, (-1.0, 1.0), 8)


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
        _, edge, dhit = traj.events[-1]
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
    """Field, integral and step code is compiled per payload type for the
    union of the monomial supports seen, so the number of compiles is
    bounded by the families, not by the systems: once the zones of the
    first 600 bulk systems (criterion-5 generator, seed 505) have their
    code, the zones of the next 600 compile nothing new.  Each zone builds
    what an arc plan can build: field, integral and, for a nonlinear zone,
    its steps."""
    rng = random.Random(505)
    units = [rand_config(rng, CONFIG_NAMES[i % 6]) for i in range(1200)]

    def build(systems):
        for ps in systems:
            for zone in ps.zones:
                plan = ArcPlan(zone)
                if plan.linear is None:
                    plan.step(True)

    build(units[:600])
    compiled = dict(dynamics._MAKERS)
    build(units[600:])
    assert dynamics._MAKERS == compiled



class SyntheticMap(FlowMachine):
    """A FlowMachine whose displacement map is a given function of y in
    direction 1 and undefined in direction -1, counting its evaluations."""

    def __init__(self, d):
        self.d = d
        self.calls = 0

    def displacement(self, bindex, y, direction):
        self.calls += 1
        return self.d(y) if direction == 1 else None


def test_oracle_simple_root():
    r = math.pi / 10
    m = SyntheticMap(lambda y: math.sin(y - r) * (2 + y))
    fixed = m.oracle(0, (-1.0, 1.0), 64)
    assert len(fixed) == 1 and abs(fixed[0] - r) < 1e-10
    assert m.calls - 2 * 64 <= 12


def test_oracle_flat_triple_root():
    # the displacement is below 1e-12 within 1e-4 of a triple root
    r = 0.3141
    m = SyntheticMap(lambda y: (y - r) ** 3)
    fixed = m.oracle(0, (-1.0, 1.0), 64)
    assert len(fixed) == 1 and abs(fixed[0] - r) < 1e-4


def test_oracle_exact_zero_at_last_node():
    m = SyntheticMap(lambda y: y - 1.0)
    assert m.oracle(0, (-1.0, 1.0), 64) == [1.0]
    assert m.calls == 2 * 64


def test_oracle_ignores_noise_on_a_band_of_closed_orbits():
    # every node closes (|d| < 1e-12) with alternating signs: a period
    # annulus whose displacement is integration noise, not fixed points
    m = SyntheticMap(lambda y: 5e-13 if round((y + 1) * 63 / 2) % 2 else -5e-13)
    assert m.oracle(0, (-1.0, 1.0), 64) == []
    assert m.calls == 2 * 64


def test_oracle_skips_undefined_holes():
    # roots at 0.3 (defined around it) and 0.6 (inside a hole that covers
    # grid nodes), and one at -0.5 inside a hole between two grid nodes, so
    # that its refinement runs into the hole and is dropped
    def d(y):
        if 0.5 < y < 0.7 or -0.5005 < y < -0.4995:
            return None
        return (y - 0.3) * (y - 0.6) * (y + 0.5)

    m = SyntheticMap(d)
    fixed = m.oracle(0, (-1.0, 1.0), 64)
    assert len(fixed) == 1 and abs(fixed[0] - 0.3) < 1e-10


def test_oracle_window_from_report():
    rep = solve(global_center_saddle(), verify=False)
    lo, hi = oracle_window(rep)
    ys = [float(v) for c in rep.candidates for _, v in c.ordinates]
    assert lo < min(ys) and hi > max(ys)


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


def test_integrator_config_validation():
    for bad in ({"max_time": 0.0}, {"window": -1.0}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)
