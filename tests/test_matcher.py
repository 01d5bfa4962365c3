"""Matching systems: coincident-point division, transports, sum/difference
substitution, topologies."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pwham.algebra import AlgebraError, MultiPoly
from pwham.matcher import (
    MatchError,
    build_three_zone,
    build_two_zone,
    matching_systems_for,
    pair_equation,
    to_sum_diff,
    transport_equation,
)
from pwham.systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    Zone,
    piecewise_system,
)

from conftest import CONFIG_NAMES, cubic_three_zone, global_center_saddle, rand_config
from reference_algebra import expand_subs
from reference_systems import hamiltonian


def V(name):
    return MultiPoly.var(name)


def test_two_zone_cubic_fixture_equations():
    # left integral y^3 - 2y^2 - x^2/2, saddle -y^2/2 + y/2 + x^2/2 + c x
    left = Zone(CubicCenter(a=0, b=4, q=1))
    right = Zone(LinearSaddle(-1, 0, 1, F(1, 2), 2))
    ms = build_two_zone(left, right, 0)
    y1, y2 = V("y1"), V("y2")
    assert ms.equations[0] == y1 * y1 + y1 * y2 + y2 * y2 - 2 * (y1 + y2)
    assert ms.equations[1].is_proportional_to(y1 + y2 - 1)
    assert ms.orderings == [("y1", "y2")]
    assert not ms.degenerate_family


def test_two_zone_global_fixture_equations():
    ps = global_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    y1, y2 = V("y1"), V("y2")
    assert ms.equations[0].is_proportional_to(y1 * y2 - F(2, 5) * (y1 + y2))
    assert ms.equations[1].is_proportional_to(y1 + y2 - 2)
    # cleared denominators exclude the singular ordinate
    assert set(ms.nonzero) == {"y1", "y2"}


def test_two_zone_identical_zones_degenerate():
    z = CubicCenter(a=0, b=4, q=1)
    ms = build_two_zone(Zone(z), Zone(z), 0)
    assert ms.degenerate_family


def test_three_zone_transports_match_hamiltonians():
    """Every equation must equal the integral difference computed directly
    from the Hamiltonians (an independent construction path)."""
    rng = random.Random(20)
    for _ in range(25):
        r = lambda: F(rng.randint(-3, 3), rng.choice((1, 2)))
        left = Zone(DoubleCenter(l=r(), n=r() or F(1), p=r(), offset=1))
        mid = Zone(LinearSaddle(r(), r(), r(), r(), r()))
        right = Zone(LinearSaddle(r(), r(), r(), r(), r()))
        ms = build_three_zone(left, mid, right, -1, 1)
        hmid, _ = hamiltonian(mid)
        for vfrom, vto, eq in (("y1", "y3", ms.equations[1]),
                               ("y2", "y4", ms.equations[2])):
            direct = (expand_subs(hmid.subs({"x": F(-1)}), {"y": V(vfrom)})
                      - expand_subs(hmid.subs({"x": F(1)}), {"y": V(vto)}))
            assert (eq - direct).is_zero


def test_three_zone_cubic_sweep_fixture_equations():
    """Hand-derived matching set for the reversed-cubic three-zone family at
    b = 2a: level pair with coefficient a, transports with the quarter term."""
    a = F(1)
    ps = cubic_three_zone(b=2 * a)
    ms = build_three_zone(*ps.zones, -1, 1)
    y1, y2, y3, y4 = (V(f"y{i}") for i in range(1, 5))
    pair = y1 * y1 + y1 * y2 + y2 * y2 - a * (y1 + y2)
    assert ms.equations[0].is_proportional_to(pair)
    t_lo = y1 * y1 + F(1, 4) * y1 - y3 * y3 - F(1, 4) * y3 + F(1, 2)
    assert ms.equations[1].is_proportional_to(t_lo)
    t_hi = y2 * y2 + F(1, 4) * y2 - y4 * y4 - F(1, 4) * y4 + F(1, 2)
    assert ms.equations[2].is_proportional_to(t_hi)
    assert ms.equations[3].is_proportional_to(y3 + y4)


def test_antisymmetry_and_exact_division():
    """The undivided level difference changes sign under swapping the pair,
    and dividing by the difference leaves no remainder."""
    rng = random.Random(21)
    for _ in range(50):
        r = lambda: F(rng.randint(-3, 3), rng.choice((1, 2)))
        kind = rng.choice(("dc", "cc", "gc", "ls"))
        if kind == "dc":
            z = Zone(DoubleCenter(l=r(), n=r(), p=r(), offset=r()))
        elif kind == "cc":
            z = Zone(CubicCenter(a=r(), b=r(), p=r(), q=r(), r=r(), s=r(), offset=r()))
        elif kind == "gc":
            z = Zone(GlobalCenter(abs(r()) or F(1), offset=r()))
        else:
            z = Zone(LinearSaddle(r(), r(), r(), r(), r()))
        c = r()
        raw = transport_equation(z, c, c, "y1", "y2")
        swapped = expand_subs(raw, {"y1": V("y2"), "y2": V("y1")})
        assert (raw + swapped).is_zero
        quotient = pair_equation(z, c, "y1", "y2")
        if raw.is_zero:
            assert quotient.is_zero
            continue
        diff = V("y1") - V("y2")
        recomposed = quotient * diff
        sign = None
        for cand in (recomposed, -recomposed):
            if (raw - cand).is_zero:
                sign = True
        assert sign, (z, raw, quotient)


def test_three_zone_symmetric_system_invariance():
    """Equal outer zones, up-down symmetric middle saddle, symmetric
    boundaries: the equation set is invariant (up to sign) under
    (y1,y2,y3,y4) -> (-y2,-y1,-y4,-y3), and the solver's candidate set is
    closed under the same map."""
    outer = LinearSaddle(8, 0, 10, 0, 8)
    mid = LinearSaddle(-2, 0, 2, 0, -1)
    ps = piecewise_system([outer, mid, outer], [-1, 1])
    ms = build_three_zone(*ps.zones, -1, 1)
    sub = {"y1": -V("y2"), "y2": -V("y1"), "y3": -V("y4"), "y4": -V("y3")}
    mapped = [expand_subs(e, sub) for e in ms.equations]
    for m in mapped:
        assert any(m.is_proportional_to(e) for e in ms.equations), m
    from pwham.solver import solve

    rep = solve(ps, verify=False)
    tuples = {tuple(round(float(v), 9) for _, v in c.ordinates) for c in rep.candidates}
    flipped = {(-b, -a, -d, -c) for (a, b, c, d) in tuples}
    assert tuples == flipped


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_zones = st.builds(
    Zone,
    payload=st.one_of(
        st.builds(DoubleCenter, l=_small, n=_small, p=_small, offset=_small),
        st.builds(GlobalCenter, xi=_small.filter(lambda v: v > 0), offset=_small),
        st.builds(CubicCenter, a=_small, b=_small, p=_small, q=_small, r=_small,
                  s=_small, offset=_small),
        st.builds(LinearSaddle, alpha=_small, beta=_small, delta=_small, mu=_small,
                  gamma=_small),
    ),
    reverse=st.booleans(),
)


def _on_line(zone, c, var):
    """N and D of the zone's integral at (c, var), straight from hamiltonian."""
    return tuple(expand_subs(p.subs({"x": c}), {"y": V(var)}) for p in hamiltonian(zone))


@settings(max_examples=200, deadline=None)
@given(zone=_zones, c=_small, c2=_small)
def test_boundary_equations_are_the_cleared_integral(zone, c, c2):
    """For every family the level pair times (a - b) is N(a) D(b) - N(b) D(a)
    exactly, and the transport from x = c to x = c2 is
    N1(a) D2(b) - N2(b) D1(a), with N and D read from the integral on the
    line independently of ``restriction``."""
    na, da = _on_line(zone, c, "y1")
    nb, db = _on_line(zone, c, "y2")
    pair = pair_equation(zone, c, "y1", "y2")
    assert (pair * (V("y1") - V("y2")) - (na * db - nb * da)).is_zero
    assert (transport_equation(zone, c, c, "y1", "y2") - (na * db - nb * da)).is_zero
    n2, d2 = _on_line(zone, c2, "y3")
    transport = transport_equation(zone, c, c2, "y1", "y3")
    assert (transport - (na * d2 - n2 * da)).is_zero


def test_rational_middle_zone_excludes_its_ordinates_from_zero():
    gc = Zone(GlobalCenter(F(1, 2), offset=1))
    mid = build_three_zone(Zone(LinearSaddle(1, 0, 1, 0, 0)), gc,
                           Zone(LinearSaddle(1, 0, 1, 0, 0)), -1, 1)
    assert mid.nonzero == ("y1", "y2", "y3", "y4")
    assert mid.equations[1].degree("y1") == mid.equations[1].degree("y3") == 2


# -- sum/difference substitution ---------------------------------------------------


def test_sum_diff_displayed_family():
    """For the cubic family the first sum/difference equation is exactly
    q*(3u^2+v^2)/2 - b*u; the transported pair becomes one equation linear in
    the spreads and one quadratic; the last is linear in the pair sum."""
    ps = cubic_three_zone(b=F(2))
    ms = build_three_zone(*ps.zones, -1, 1)
    s1, s_diff, s_sum, s4 = to_sum_diff(ms)
    u, v, w, z = (V(t) for t in ("u", "v", "w", "z"))
    q, b = F(1), F(2)
    s1_expected = F(1, 2) * q * (3 * u * u + v * v) - b * u
    assert s1.is_proportional_to(s1_expected)
    assert s_diff.degree("z") == 1 and s_diff.degree("v") == 1
    assert s_sum.degree("z") == 2
    assert s4.is_proportional_to(w)


def test_sum_diff_coincident_locus():
    """Setting v = z = 0 gives the coincident-point equations; they are not
    trivially satisfied, which is why crossing solutions require v, z > 0."""
    ps = cubic_three_zone(b=F(2))
    collapsed = [e.subs({"v": F(0), "z": F(0)})
                 for e in to_sum_diff(build_three_zone(*ps.zones, -1, 1))]
    assert any(not e.is_zero for e in collapsed)


def sum_diff_round_trip(sd: list[MultiPoly]) -> list[MultiPoly]:
    """Substitute the ordinate expressions back into the sum/difference
    equations and undo the linear recombination: the original equations."""
    y1, y2, y3, y4 = (V(t) for t in ("y1", "y2", "y3", "y4"))
    back = {"u": y1 + y2, "v": y2 - y1, "w": y3 + y4, "z": y4 - y3}
    s1, s_diff, s_sum, s4 = (expand_subs(e, back) for e in sd)
    half, quarter = F(1, 2), F(1, 4)
    return [half * s1, quarter * (s_sum - s_diff), quarter * (s_sum + s_diff), half * s4]


def test_sum_diff_round_trip_exact():
    rng = random.Random(22)
    for _ in range(20):
        r = lambda: F(rng.randint(-3, 3), rng.choice((1, 2)))
        left = Zone(CubicCenter(a=r(), b=r(), p=r(), q=r(), r=r(), s=r(), offset=1))
        mid = Zone(LinearSaddle(r(), r(), r(), r(), r()))
        right = Zone(LinearSaddle(r(), r(), r(), r(), r()))
        ms = build_three_zone(left, mid, right, -1, 1)
        sd = to_sum_diff(ms)
        back = sum_diff_round_trip(sd)
        assert all((a - b).is_zero for a, b in zip(back, ms.equations))


def _sum_diff_by_expansion(ms):
    """The sum/difference equations by substituting the ordinate halves
    into the matching equations and recombining them."""
    half = F(1, 2)
    u, v, w, z = (V(t) for t in ("u", "v", "w", "z"))
    subs = {"y1": half * (u - v), "y2": half * (u + v),
            "y3": half * (w - z), "y4": half * (w + z)}
    e1, e2, e3, e4 = ms.equations
    return [2 * expand_subs(e1, subs), 2 * expand_subs(e3 - e2, subs),
            2 * expand_subs(e2 + e3, subs), 2 * expand_subs(e4, subs)]


def test_sum_diff_substitutes_each_transport_once():
    """Substituting into the two transports once each and combining them
    gives the polynomials of substituting into their difference and sum."""
    rng = random.Random(23)
    for i in range(30):
        ps = rand_config(rng, CONFIG_NAMES[3 + i % 3])
        ms = build_three_zone(*ps.zones, *ps.boundaries)
        expected = _sum_diff_by_expansion(ms)
        assert all((a - b).is_zero for a, b in zip(to_sum_diff(ms), expected))


@settings(max_examples=80, deadline=None)
@given(zones=st.tuples(_zones, _zones, _zones),
       cs=st.tuples(_small, _small).filter(lambda t: t[0] != t[1]))
# a rational (global center) middle integral, and reversed zones
@example(zones=(Zone(DoubleCenter(l=1, n=2, p=F(-1, 2), offset=-1)),
                Zone(GlobalCenter(F(3, 4), offset=F(1, 2)), reverse=True),
                Zone(LinearSaddle(1, F(1, 2), -2, 3, F(-1, 4)), reverse=True)),
         cs=(F(-1), F(3, 2)))
def test_sum_diff_matches_expansion_for_every_family(zones, cs):
    """For three-zone systems with a family drawn per zone, the cached
    monomial images give the polynomials of substituting into the
    equations directly."""
    ms = build_three_zone(*zones, *sorted(cs))
    got = to_sum_diff(ms)
    assert all((a - b).is_zero for a, b in zip(got, _sum_diff_by_expansion(ms)))


def test_to_sum_diff_rejects_two_zone():
    ps = global_center_saddle()
    ms = build_two_zone(ps.zones[0], ps.zones[1], 0)
    with pytest.raises(MatchError):
        to_sum_diff(ms)


def test_matching_systems_for_topologies():
    ps3 = cubic_three_zone()
    systems = matching_systems_for(ps3)
    assert [(tag, b, m.topology) for tag, b, m in systems] == [
        ("three_zone", (0, 1), "three_zone"),
        ("two_zone@0", (0,), "two_zone"),
        ("two_zone@1", (1,), "two_zone")]
    ps2 = global_center_saddle()
    assert [(tag, b, m.topology) for tag, b, m in matching_systems_for(ps2)] == [
        ("two_zone", (0,), "two_zone")]
    with pytest.raises(MatchError):
        matching_systems_for(piecewise_system(
            [DoubleCenter(l=0, n=1, p=0)] * 4, [-1, 0, 1]))


def test_build_three_zone_requires_ordered_boundaries():
    ps = cubic_three_zone()
    with pytest.raises(MatchError):
        build_three_zone(*ps.zones, 1, -1)
