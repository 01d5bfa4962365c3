"""Elimination pipeline, theorem bounds, candidate screening, solve reports."""

import math
import os
import random
from fractions import Fraction as F

import pytest

from pwham import dynamics
from pwham.algebra import MultiPoly, UniPoly
from pwham.matcher import MatchingSystem, build_three_zone, build_two_zone
from pwham.solver import (
    BoundInfo,
    PositiveDimensionalError,
    annulus_check,
    back_substitute,
    eliminate,
    solve,
    theorem_bound,
    _root_values,
    _three_zone_core,
)
from pwham.systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    Zone,
    mirror,
    piecewise_system,
)

from pwham.specfile import load_spec

from conftest import (
    CONFIG_NAMES,
    FIXTURE_DIR,
    cubic_center_saddle,
    cubic_three_zone,
    double_center_saddle,
    global_center_saddle,
    linear_center_saddle_center,
    rand_config,
    translate,
)


# -- eliminate -------------------------------------------------------------------


def test_eliminate_cubic_fixture_quadratic():
    ps = cubic_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    elim = eliminate(ms, ("y2",)).primitive()
    assert elim.primitive() == UniPoly([-1, -1, 1]).primitive()


def test_eliminate_global_fixture_quadratic():
    ps = global_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    elim = eliminate(ms, ("y2",)).primitive()
    assert elim.primitive() == UniPoly([F(4, 5), -2, 1]).primitive()


def _displayed_octic(a: F) -> UniPoly:
    """Degree-8 sweep polynomial as displayed for the three-zone cubic
    family (coefficients times 16, ascending)."""
    c8 = F(144)
    c7 = -384 * a + 144
    c6 = 256 * a**2 - 96 * a + 132
    c5 = -512 * a**2 - 368 * a - 12
    c4 = 512 * a**3 + 240 * a**2 - 8 * a - 35
    c3 = 16 * a**2 - 48 * a - 47
    c2 = -32 * a**3 + 176 * a**2 + 66 * a - 1
    c1 = 32 * a**2 + 8 * a + 2
    c0 = -128 * a**4 - 64 * a**3 + 8 * a**2 + 4 * a + 4
    return UniPoly([c0, c1, c2, c3, c4, c5, c6, c7, c8], "y1")


def test_eliminate_reproduces_displayed_octic():
    """Feeding the eliminator the displayed three-zone equation set (as
    printed, including its idiosyncratic constants) reproduces the displayed
    degree-8 polynomial up to a nonzero constant, at several parameter
    values.  This pins the resultant chain against an independent
    computation of the same elimination."""
    y1, y2, y3, y4 = (MultiPoly.var(v) for v in ("y1", "y2", "y3", "y4"))
    for a in (F(0), F(1), F(-1, 2), F(3, 4)):
        q1 = y1 * y1 + y1 * y2 + y2 * y2 - 2 * a * (y1 + y2)
        q2 = y2 * y2 - y3 * y3 + F(1, 2) * (y2 - y3) + F(1, 2)
        q3 = y3 + y4
        q4 = y1 * y1 - y4 * y4 + F(1, 2) * (y1 - y4) + F(1, 2)
        ms = MatchingSystem(("y1", "y2", "y3", "y4"), [q1, q2, q3, q4], "three_zone", [])
        elim = eliminate(ms, ("y3", "y4", "y2")).primitive()
        assert elim.degree == 8
        assert elim.primitive() == _displayed_octic(a).primitive()


def test_eliminate_order_must_leave_one_unknown():
    ps = global_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    from pwham.matcher import MatchError

    with pytest.raises(MatchError):
        eliminate(ms, ("y1", "y2"))


def test_eliminate_positive_dimensional():
    z = CubicCenter(a=0, b=4, q=1)
    ms = build_two_zone(Zone(z), Zone(z), 0)
    with pytest.raises(PositiveDimensionalError):
        eliminate(ms, ("y2",))
        raise PositiveDimensionalError  # degenerate systems may also flag early


# -- back_substitute ----------------------------------------------------------------


def test_back_substitute_cubic_fixture():
    ps = cubic_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    elim = eliminate(ms, ("y2",))
    (r_lo, _), (r_hi, _) = _root_values(elim, F(1, 10**18))
    tuples = back_substitute(r_lo, ms, ("y2",))
    assert len(tuples) == 1
    y1, y2 = tuples[0]
    assert abs(float(y1) - (1 - math.sqrt(5)) / 2) < 1e-12
    assert abs(float(y2) - (1 + math.sqrt(5)) / 2) < 1e-12
    # the upper root duplicates the same cycle with the orientation swapped
    assert back_substitute(r_hi, ms, ("y2",)) == []


def test_back_substitute_global_fixture_partner():
    ps = global_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    elim = eliminate(ms, ("y2",))
    roots = _root_values(elim, F(1, 10**18))
    r_lo = roots[0][0]
    ((y1, y2),) = back_substitute(r_lo, ms, ("y2",))
    assert abs(float(y1) - (5 - math.sqrt(5)) / 5) < 1e-12
    assert abs(float(y2) - (5 + math.sqrt(5)) / 5) < 1e-12


def test_back_substitute_screens_spurious_zero():
    """The cleared global-center denominator plants y = 0; a system built to
    have that root produces no consistent tuple from it."""
    left = Zone(GlobalCenter(F(4, 5)))
    right = Zone(LinearSaddle(0, -1, -1, -1, 0))
    ms = build_two_zone(left, right, 0)
    assert back_substitute(F(0), ms, ("y2",)) == []


# -- theorem bound table ---------------------------------------------------------------


def test_bound_cubic_two_zone():
    b = theorem_bound(cubic_center_saddle())
    assert (b.kind, b.count) == ("at_most", 2)
    assert "general-center/saddle" in b.case


def test_bound_double_center_three_zone_cases():
    mk = lambda d1, n: piecewise_system(
        [DoubleCenter(l=0, n=n, p=0, offset=1),
         LinearSaddle(1, 1, d1, 2, 1),
         LinearSaddle(1, 0, 2, 1, 0)], [-1, 1])
    assert theorem_bound(mk(F(1), F(1))).count == 4
    b = theorem_bound(mk(F(0), F(1)))
    assert (b.kind, b.count) == ("at_most", 2)
    # annulus row: delta1 = n = 0 with the degeneracy condition
    mid = LinearSaddle(1, 1, 0, 2, F("1/1"))
    # condition (mu1+beta1)(2*delta2*gamma1 + (mu2-beta2)(mu1-beta1)) = 0
    rgt = LinearSaddle(1, 0, 2, 1, 0)
    g1 = -(rgt.mu - rgt.beta) * (mid.mu - mid.beta) / (2 * rgt.delta)
    mid = LinearSaddle(1, 1, 0, 2, g1)
    ps = piecewise_system([DoubleCenter(l=0, n=0, p=0, offset=1), mid, rgt], [-1, 1])
    assert theorem_bound(ps).kind == "annulus"
    mid2 = LinearSaddle(1, 1, 0, 2, g1 + 1)
    ps2 = piecewise_system([DoubleCenter(l=0, n=0, p=0, offset=1), mid2, rgt], [-1, 1])
    assert theorem_bound(ps2).kind == "no_periodic_solution"


def test_bound_global_three_zone_rows():
    mk = lambda mid: piecewise_system(
        [GlobalCenter(F(1, 2), offset=1), mid, LinearSaddle(1, 0, 2, 1, 0)], [-1, 1])
    assert theorem_bound(mk(LinearSaddle(1, 1, 1, 2, 1))).count == 4
    # l1 = -(beta1 + mu1) = 0
    assert theorem_bound(mk(LinearSaddle(1, 2, 1, -2, 1))).count == 2
    # xi = 0 is excluded by the type invariant, so that row stays unreachable
    from pwham.systems import SystemError

    with pytest.raises(SystemError):
        GlobalCenter(0)


def test_bound_cubic_three_zone_rows():
    def mk(left, mid, rgt):
        return piecewise_system([left, mid, rgt], [-1, 1])

    left4 = CubicCenter(a=0, b=2, q=1, offset=1)
    mid = LinearSaddle(1, 1, 1, 2, 1)
    rgt = LinearSaddle(1, 0, 2, 1, 0)
    assert theorem_bound(mk(left4, mid, rgt)).count == 4
    # q = 0, b != 0 -> at most 3
    left3 = CubicCenter(a=0, b=2, q=0, offset=1)
    assert theorem_bound(mk(left3, mid, rgt)).count == 3
    # b*delta1 = 6*(beta1+mu1)*q -> at most 2
    left2 = CubicCenter(a=0, b=18, q=1, offset=1)
    assert theorem_bound(mk(left2, mid, rgt)).count == 2
    # delta1 = 0, delta2 != 0 -> at most 1
    mid1 = LinearSaddle(1, 1, 0, 2, 1)
    assert theorem_bound(mk(left4, mid1, rgt)).count == 1
    # annulus row
    mid_a = LinearSaddle(1, 1, 0, -1, 0)  # m1 = 2(beta-mu) = 4, l1 = 0
    g1 = -(2 * (rgt.beta - rgt.mu)) * (2 * (mid_a.beta - mid_a.mu)) / (8 * rgt.delta)
    mid_a = LinearSaddle(1, 1, 0, -1, g1)
    assert theorem_bound(mk(left4, mid_a, rgt)).kind == "annulus"


def test_bound_mirrored_configuration():
    ps = global_center_saddle()
    m = mirror(ps)
    assert theorem_bound(m).kind == theorem_bound(ps).kind
    assert theorem_bound(m).count == theorem_bound(ps).count


def test_bound_not_covered():
    assert theorem_bound(linear_center_saddle_center()).kind == "not_covered"


def test_bound_discriminant_note_sign():
    # corrected discriminant 12 mu (delta - n mu) / (n delta^2)
    ps = double_center_saddle()
    b = theorem_bound(ps)
    assert b.count == 1 and "sign 1" in b.note


def test_solve_checks_continuity_once(monkeypatch):
    """solve hands its continuity flag to the bound table instead of having
    the table test continuity again (the mirrored branch included)."""
    import pwham.solver as solver_mod

    calls = []
    original = solver_mod.is_continuous
    monkeypatch.setattr(solver_mod, "is_continuous",
                        lambda ps: calls.append(ps) or original(ps))
    for ps in (double_center_saddle(), mirror(global_center_saddle())):
        calls.clear()
        rep = solve(ps, verify=False)
        assert len(calls) == 1
        assert rep.bound == theorem_bound(ps)  # the flag computed alone agrees


# -- annulus ----------------------------------------------------------------------------


def test_annulus_continuous_matched_center_true():
    ps = piecewise_system(
        [DoubleCenter(l=0, n=0, p=0), LinearSaddle(1, 0, 1, 0, 0)], [0])
    rep = solve(ps)
    assert rep.positive_dimensional and rep.annulus


def test_annulus_check_reads_the_tangency_tolerance(monkeypatch):
    """With a tangency tolerance larger than every normal velocity each
    boundary point counts as tangential, so no orbit can cross and close."""
    ps = piecewise_system(
        [DoubleCenter(l=0, n=0, p=0), LinearSaddle(1, 0, 1, 0, 0)], [0])
    assert annulus_check(ps, (0,))
    monkeypatch.setattr(dynamics, "TANGENT_TOL", 1e3)
    assert not annulus_check(ps, (0,))


def test_annulus_requires_closed_orbits():
    """With a genuine saddle on the right the matched family exists only
    algebraically: the hyperbolic arcs never close, so the numeric check
    refuses the annulus."""
    ps = piecewise_system(
        [DoubleCenter(l=0, n=0, p=0), LinearSaddle(-1, 0, 1, 0, 0)], [0])
    rep = solve(ps)
    assert rep.positive_dimensional and not rep.annulus


def test_annulus_cubic_fixture_false():
    rep = solve(cubic_center_saddle(), verify=False)
    assert not rep.positive_dimensional
    assert not annulus_check(cubic_center_saddle(), (0,))


# -- solve ------------------------------------------------------------------------------


def test_solve_global_fixture_verified():
    rep = solve(global_center_saddle())
    ver = rep.verified()
    assert len(ver) == 1
    ys = sorted(float(v) for _, v in ver[0].ordinates)
    assert abs(ys[0] - (5 - math.sqrt(5)) / 5) < 1e-9
    assert abs(ys[1] - (5 + math.sqrt(5)) / 5) < 1e-9


def test_solve_cubic_fixture_candidate_rejected():
    """The matching equations produce the golden-ratio pair, but the level
    set of the cubic integral does not connect the two ordinates and the
    upper point slides; verification must reject it and say why."""
    rep = solve(cubic_center_saddle())
    assert len(rep.candidates) == 1
    c = rep.candidates[0]
    ys = sorted(float(v) for _, v in c.ordinates)
    assert abs(ys[0] - (1 - math.sqrt(5)) / 2) < 1e-9
    assert abs(ys[1] - (1 + math.sqrt(5)) / 2) < 1e-9
    assert c.status == "rejected"
    assert "sliding" in c.reason or "arc" in c.reason


def test_solve_pwl_three_zone_verified():
    rep = solve(linear_center_saddle_center())
    ver = rep.verified("three_zone")
    assert len(ver) == 1
    s = math.sqrt(9746)
    expect = {(-1): [16 / 65 - s / 72, 16 / 65 + s / 72],
              1: [-97 * s / 4680, 97 * s / 4680]}
    for b, vals in ((0, expect[-1]), (1, expect[1])):
        got = sorted(float(v) for v in ver[0].ordinates_on(b))
        assert all(abs(g - e) < 1e-9 for g, e in zip(got, sorted(vals)))


def test_solve_double_center_fixture():
    rep = solve(double_center_saddle())
    ver = rep.verified()
    assert len(ver) == 1
    ys = sorted(float(v) for _, v in ver[0].ordinates)
    assert abs(ys[0] - (1 - 2 * math.sqrt(3)) / 5) < 1e-9
    assert abs(ys[1] - (1 + 2 * math.sqrt(3)) / 5) < 1e-9


def test_solve_three_zone_direct_route():
    """Two linear pieces left of a double center fall outside the
    sum/difference shape, so solve takes the direct resultant fallback."""
    ps = piecewise_system(
        [LinearSaddle(2, 0, -2, F(1, 4), F(1, 4)), LinearSaddle(2, 0, -2, 0, -4),
         DoubleCenter(0, 1, 0)], [-1, 1])
    rep = solve(ps)
    assert rep.diagnostics["topologies"]["three_zone"]["route"] == "direct"


def test_three_zone_counts_a_coincident_pair_root_as_extraneous():
    """The eliminant 3u^4 - 42u^3 + 148u^2 - 312u + 320 has the real roots
    u = 2, where the pair coincides (V = 0), and u = 10, with no real pair;
    neither extends to a crossing, so both count, whichever side of u = 2
    the refinement lands on."""
    ps = piecewise_system(
        [DoubleCenter(l=-1, n=1, p=0, offset=1), LinearSaddle(F(-3, 2), 3, 1, 0, 0),
         LinearSaddle(1, 2, 1, -3, F(-1, 2))], [-1, 1])
    core = _three_zone_core(build_three_zone(*ps.zones, *ps.boundaries))
    assert core.eliminant.primitive() == UniPoly([320, -312, 148, -42, 3]).primitive()
    assert core.tuples == []
    assert core.diagnostics["extraneous_roots"] == 2


def test_three_zone_symmetric_system_is_positive_dimensional():
    """The up-down symmetric system of the matcher's invariance test: after
    the spread z goes, no equation contains V = v^2 while u = 0 solves them,
    so the pair spread is free along a curve of solutions."""
    ps = piecewise_system(
        [LinearSaddle(8, 0, 10, 0, 8), LinearSaddle(-2, 0, 2, 0, -1),
         LinearSaddle(8, 0, 10, 0, 8)], [-1, 1])
    core = _three_zone_core(build_three_zone(*ps.zones, *ps.boundaries))
    assert core.positive_dimensional
    assert core.eliminant.is_zero and core.tuples == []


@pytest.mark.parametrize("right, posdim", [
    (LinearSaddle(1, 0, 0, 1, 0), False),  # right pair equation 1 = 0
    (LinearSaddle(1, 0, 0, 0, 0), True),   # right pair equation 0 = 0
])
def test_three_zone_constant_right_pair(right, posdim):
    """delta = 0 makes the right zone's restriction to x = 1 linear in y: a
    nonzero slope puts no two ordinates on one level (a constant eliminant,
    no tuples), a zero slope leaves a degenerate family."""
    ps = piecewise_system(
        [DoubleCenter(l=-1, n=1, p=0, offset=1), LinearSaddle(F(-3, 2), 3, 1, 0, 0), right],
        [-1, 1])
    ms = build_three_zone(*ps.zones, *ps.boundaries)
    core = _three_zone_core(ms)
    assert ms.degenerate_family == core.positive_dimensional == posdim
    assert core.eliminant.degree == (-1 if posdim else 0)
    assert core.tuples == []


def _short_loop_system():
    """The double center and the saddle close a cycle through (-1, -1/2)
    and (-1, 1/2).  The saddle and the linear center at (2, 0) share their
    levels on x = 1, so the crossings of x = 1 form a band of closed orbits
    (two_zone@1 is positive-dimensional), and the three-zone equations hold
    at (-1/2, 1/2, -1/2, 1/2) although no orbit crosses x = 1 there."""
    return piecewise_system(
        [DoubleCenter(l=F(-1, 120), n=F(1, 10), p=0, offset=2), LinearSaddle(-1, 0, 1, 0, 0),
         LinearSaddle(1, 0, 1, 0, -2)], [-1, 1])


def test_verify_rejects_a_loop_that_closes_before_its_last_crossing():
    """The flow from (-1, -1/2) is back after two of the four declared
    crossings; replaying that loop matches the declared ordinates again, so
    the early return itself is the rejection."""
    rep = solve(_short_loop_system())
    status = {c.topology: (c.status, c.reason) for c in rep.candidates}
    assert status["three_zone"] == ("rejected", "loop closed after 2 of 4 crossings")
    assert status["two_zone@0"] == ("verified", "")


def test_annulus_scans_the_boundary_of_the_positive_dimensional_topology():
    """Only the topology at x = 1 is positive-dimensional, and the band of
    closed orbits is seen on x = 1, not on x = -1."""
    ps = _short_loop_system()
    rep = solve(ps, verify=False)
    assert rep.positive_dimensional and rep.annulus
    assert annulus_check(ps, (1,)) and not annulus_check(ps, (0,))


def test_solve_reports_eliminant_exact_and_route_invariant():
    """Re-running the direct elimination with permuted orders changes the
    eliminant only by extraneous factors: the screened candidate tuples are
    identical (and identical to the sum/difference route)."""
    rng = random.Random(31)
    for name, draws in (("double_center+saddle+saddle", 40),
                        ("global_center+saddle+saddle", 20),
                        ("cubic_center+saddle+saddle", 20)):
        _check_routes_agree(rng, name, draws)


def _check_routes_agree(rng, name, draws):
    checked = 0
    for _ in range(draws):
        ps = rand_config(rng, name)
        ms = build_three_zone(*ps.zones, *ps.boundaries)
        try:
            core = _three_zone_core(ms)
        except Exception:
            continue
        if core.positive_dimensional:
            continue
        direct = {}
        for order in (("y4", "y3", "y2"), ("y3", "y4", "y2")):
            try:
                elim = eliminate(ms, order)
            except PositiveDimensionalError:
                direct[order] = None
                continue
            tuples = []
            for r, _ in _root_values(elim, F(1, 10**18)):
                tuples += back_substitute(r, ms, order)
            direct[order] = sorted(tuple(round(float(v), 8) for v in t) for t in tuples)
        vals = [v for v in direct.values() if v is not None]
        sumdiff = sorted(tuple(round(float(v), 8) for v in t) for t, _ in core.tuples)
        for v in vals:
            assert v == sumdiff
        checked += 1
    assert checked >= draws // 2


def test_solve_candidate_residuals_small():
    """Soundness screen: surviving candidates satisfy every original
    matching equation to 1e-9 relative."""
    rng = random.Random(32)
    seen = 0
    for _ in range(60):
        name = rng.choice(CONFIG_NAMES)
        ps = rand_config(rng, name)
        try:
            rep = solve(ps, verify=False)
        except PositiveDimensionalError:
            continue
        from pwham.matcher import matching_systems_for

        mss = {tag: m for tag, _, m in matching_systems_for(ps)}
        for c in rep.candidates:
            if c.topology != "three_zone":
                continue
            ms = mss["three_zone"]
            pt = {u: v for u, (_, v) in zip(ms.unknowns, c.ordinates)}
            for eq in ms.equations:
                num = abs(eq.eval_float({k: float(x) for k, x in pt.items()}))
                scale = 1.0 + sum(abs(float(co)) for co in eq.terms.values())
                assert num < 1e-9 * scale * 100
            seen += 1
    assert seen >= 3


def test_solve_multiplicity_flag_on_tangency():
    """A double root of the eliminant (tangential contact) is reported as
    one candidate with multiplicity 2, never two cycles."""
    # global center + saddle tuned so the quadratic has a double root:
    # y^2 - 2*K*u... construct via discriminant zero: u = 2mu/delta, product K*u
    # choose xi = 4/5 (K = 2/5), mu/delta chosen so (u/2)^2 = K*u -> u = 4K
    left = GlobalCenter(F(4, 5))
    # u = 2*mu/delta = 4K = 8/5 -> mu/delta = 4/5
    right = LinearSaddle(0, -1, -1, F(-4, 5), 0)
    ps = piecewise_system([left, right], [0])
    rep = solve(ps, verify=False)
    assert len(rep.candidates) == 0 or all(c.multiplicity >= 2 for c in rep.candidates)


@pytest.mark.parametrize("k", range(1, 6))
def test_root_values_exact_multiplicities(k):
    y = UniPoly((0, 1))
    p = (y - UniPoly((1,))) ** k * (y + UniPoly((2,))) * (3 * y - UniPoly((1,))) ** 2
    roots = _root_values(p, F(1, 10**18))
    assert [m for _, m in roots] == [1, 2, k]
    for (r, _), exact in zip(roots, (F(-2), F(1, 3), F(1))):
        assert abs(r - exact) < F(1, 10**18)


def test_root_values_of_a_big_coefficient_eliminant_stay_small():
    """Shifting the coefficients of the coincident-pair system above by
    +-1/d (d of 20 digits) gives a quartic eliminant of about 1200 bits.
    Its roots refined to 1e-40 are dyadic with about log2(1e40) bits: the
    isolation box is a power of two, so no denominator of the coefficients
    enters them."""
    ds = iter(range(10**19 + 1, 10**19 + 10**6, 99991))

    def s(v):
        return v + F(1, next(ds)) if v else v

    ps = piecewise_system(
        [DoubleCenter(l=s(-1), n=s(1), p=0, offset=1), LinearSaddle(s(F(-3, 2)), s(3), s(1), 0, 0),
         LinearSaddle(s(1), s(2), s(1), s(-3), s(F(-1, 2)))], [-1, 1])
    elim = _three_zone_core(build_three_zone(*ps.zones, *ps.boundaries)).eliminant
    assert elim.degree == 4
    assert max(abs(c.numerator).bit_length() for c in elim.coeffs) > 1000
    roots = _root_values(elim, F(1, 10**40))
    assert [round(float(r), 6) for r, _ in roots] == [2.0, 10.0]
    for r, _ in roots:
        assert r.denominator & (r.denominator - 1) == 0
        assert r.denominator <= 2**140


def test_linear_back_substitution_is_dyadic():
    """The upper ordinate of a two-zone candidate, solved exactly from the
    saddle's linear pair equation, is rounded to a multiple of 2^-60: with
    coefficients shifted by +-1/d (d of 20 digits) its exact quotient has a
    denominator of over a hundred bits."""
    ds = iter(range(10**19 + 1, 10**19 + 10**6, 99991))

    def s(v):
        return v + F(1, next(ds))

    ps = piecewise_system(
        [GlobalCenter(s(F(4, 5))), LinearSaddle(0, s(-1), s(-1), s(-1), 0)], [0])
    (cand,) = solve(ps, verify=False).candidates
    _, (_, upper) = cand.ordinates
    assert abs(float(upper) - 1.4472135955) < 1e-9
    d = upper.denominator
    assert d & (d - 1) == 0 and d <= 2**60


def test_solve_two_point_subtopologies_reported_separately():
    ps = cubic_three_zone(b=F(-8, 5))
    rep = solve(ps, verify=False)
    tags = {c.topology for c in rep.candidates}
    assert tags <= {"three_zone", "two_zone@0", "two_zone@1"}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXTURE_DIR)
                                        if n.endswith(".pwham")))
def test_solve_is_translation_invariant(name):
    """Moving a fixture right by a dyadic t keeps every candidate, its
    exact ordinates and its status (the ordinates are y-values, which the
    move leaves alone), and the continuity, dimension and annulus flags."""
    ps = load_spec(os.path.join(FIXTURE_DIR, name)).to_system()

    def answer(rep):
        return ([(c.topology, c.ordinates, c.status) for c in rep.candidates],
                rep.continuous, rep.positive_dimensional, rep.annulus)

    want = answer(solve(ps))
    for t in (F(3, 8), F(-5, 4)):
        assert answer(solve(translate(ps, t))) == want, t
