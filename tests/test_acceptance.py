"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline; they also appear in the captured output of failing tests).

Two criteria encode results that the source material gets wrong, and they
are implemented faithfully rather than weakened:

* criterion 1 expects a verified crossing cycle through (1 -+ sqrt(5))/2 for
  the cubic-center fixture.  The matching equations do produce exactly that
  pair, but the integral's level set does not connect the two ordinates and
  the upper one is an attracting sliding point, so honest verification (and
  the independent shooting oracle) reject it.  The companion regression test
  pins the honest behavior.
* criterion 7 compares against a transcribed closed-form quartic whose
  printed coefficient block does not vanish on exact solutions of its own
  displayed equation system (checked by constructing such solutions), under
  any sign convention.  The regenerated eliminants from two independent
  routes agree with each other instead; the companion test pins that.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from pwham import dynamics, solver
from pwham.algebra import UniPoly, real_roots
from pwham.dynamics import FlowMachine, IntegratorConfig
from pwham.matcher import build_three_zone, matching_systems_for
from pwham.solver import back_substitute, eliminate, solve, _root_values, _three_zone_core
from pwham.specfile import load_spec
from pwham.systems import piecewise_system

from conftest import (
    BULK_CFG,
    CONFIG_NAMES,
    continuous_cubic_center_match,
    continuous_double_center_match,
    cubic_three_zone,
    fixture_path,
    rand_config,
)

_RESULTS = []


def record(num: int, ok: bool, detail: str):
    line = f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    _RESULTS.append(line)
    print(line)

FIXTURES = (
    "global_center_saddle.pwham",
    "cubic_center_saddle.pwham",
    "double_center_saddle.pwham",
    "linear_center_saddle_center.pwham",
    "linear_center_center_saddle.pwham",
    "linear_saddle_center_saddle.pwham",
    "linear_saddle_saddle_center.pwham",
    "cubic_center_saddle_saddle.pwham",
)


def _solve_fixture(name, **kw):
    ps = load_spec(fixture_path(name)).to_system()
    return ps, solve(ps, **kw)


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_cubic_fixture_golden():
    """One verified cycle through (1 -+ sqrt(5))/2 within 1e-9, under 1 s."""
    t0 = time.monotonic()
    ps, rep = _solve_fixture("cubic_center_saddle.pwham")
    elapsed = time.monotonic() - t0
    ver = rep.verified()
    lo, hi = (1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2
    ok = (len(ver) == 1 and elapsed < 1.0)
    if ok:
        ys = sorted(float(v) for _, v in ver[0].ordinates)
        ok = abs(ys[0] - lo) < 1e-9 and abs(ys[1] - hi) < 1e-9
    record(1, ok, f"cubic fixture: {len(ver)} verified cycle(s) in {elapsed:.2f}s "
                  "(the claimed cycle is sliding-obstructed; see the honest "
                  "companion test)")
    assert ok, ("expected one verified cycle at the stated ordinates; the "
                "flow has an attracting sliding point at the upper ordinate, "
                "so verification rejects the candidate (source error, "
                "documented in the decisions ledger)")


def test_criterion_1_companion_honest_behavior():
    """Pins what is actually true for the fixture: the algebra produces
    exactly the stated pair, dynamics rejects it, and the oracle agrees that
    no crossing cycle exists."""
    t0 = time.monotonic()
    ps, rep = _solve_fixture("cubic_center_saddle.pwham")
    assert time.monotonic() - t0 < 1.0
    (cand,) = rep.candidates
    ys = sorted(float(v) for _, v in cand.ordinates)
    assert abs(ys[0] - (1 - math.sqrt(5)) / 2) < 1e-9
    assert abs(ys[1] - (1 + math.sqrt(5)) / 2) < 1e-9
    assert cand.status == "rejected"
    machine = FlowMachine(ps, IntegratorConfig())
    assert machine.oracle((-4.0, 4.0), 64) == {0: []}


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_2_global_fixture_golden():
    t0 = time.monotonic()
    ps, rep = _solve_fixture("global_center_saddle.pwham")
    elapsed = time.monotonic() - t0
    ver = rep.verified()
    assert len(ver) == 1
    ys = sorted(float(v) for _, v in ver[0].ordinates)
    assert abs(ys[0] - (5 - math.sqrt(5)) / 5) < 1e-9
    assert abs(ys[1] - (5 + math.sqrt(5)) / 5) < 1e-9
    assert elapsed < 1.0
    record(2, True, f"global-center fixture verified in {elapsed:.2f}s")


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_piecewise_linear_golden():
    t0 = time.monotonic()
    ps, rep = _solve_fixture("linear_center_saddle_center.pwham")
    elapsed = time.monotonic() - t0
    ver = rep.verified("three_zone")
    assert len(ver) == 1
    s = math.sqrt(4873) / (36 * math.sqrt(2))
    left = sorted(float(v) for v in ver[0].ordinates_on(0))
    right = sorted(float(v) for v in ver[0].ordinates_on(1))
    assert abs(left[0] - (16 / 65 - s)) < 1e-6
    assert abs(left[1] - (16 / 65 + s)) < 1e-6
    big = 97 * math.sqrt(4873) / (2340 * math.sqrt(2))
    assert abs(right[0] + big) < 1e-6 and abs(right[1] - big) < 1e-6
    assert elapsed < 5.0
    record(3, True, f"piecewise-linear fixture verified in {elapsed:.2f}s")


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_continuous_systems_annulus():
    t0 = time.monotonic()
    rng = random.Random(404)
    bad = []
    for k in range(100):
        for ps in (continuous_double_center_match(rng),
                   continuous_cubic_center_match(rng)):
            rep = solve(ps, verify=True, cfg=BULK_CFG)
            if rep.verified() or not rep.annulus or not rep.continuous:
                bad.append((ps, len(rep.verified()), rep.annulus))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    record(4, ok, f"200 continuous matched systems, zero cycles, annulus "
                  f"everywhere, {elapsed:.1f}s")
    assert not bad, bad[:3]
    assert elapsed < 60.0


# -- criterion 5 -------------------------------------------------------------------


def test_criterion_5_bound_property():
    t0 = time.monotonic()
    rng = random.Random(505)
    draws_per_config = 200
    violations = []
    for name in CONFIG_NAMES:
        main_tag = "three_zone" if "saddle+saddle" in name else "two_zone"
        for _ in range(draws_per_config):
            ps = rand_config(rng, name)
            rep = solve(ps, verify=True, cfg=BULK_CFG)
            b = rep.bound
            n_main = len(rep.verified(main_tag))
            if b.numeric and n_main > b.count:
                violations.append((name, ps, n_main, b))
            if name == "double_center+saddle+saddle" and b.numeric and b.count == 4:
                assert rep.eliminant.degree <= 4, (ps, rep.eliminant)
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 600.0
    record(5, ok, f"{draws_per_config} draws x {len(CONFIG_NAMES)} configurations, "
                  f"0 bound violations, eliminant degree <= 4, {elapsed:.1f}s")
    assert not violations, violations[:3]
    assert elapsed < 600.0


# -- criterion 6 -------------------------------------------------------------------


def _oracle_sets(ps, rep, machine):
    """Per-boundary oracle fixed points: a coarse default-window grid scan
    (catches anything the algebra missed) plus direct displacement queries
    seeded at every candidate ordinate -- the displacement map's domain can
    be narrower than a coarse grid cell, but a fixed point found from a seed
    is still a fixed point of the same return map."""
    out = {}
    scanned = machine.oracle((-10.0, 10.0), 48)
    for b in range(len(ps.boundaries)):
        pts = list(scanned[b])
        for c in rep.candidates:
            for v in c.ordinates_on(b):
                for direction in (1, -1):
                    d = machine.displacement(b, float(v), direction)
                    if d is not None and abs(d) < 1e-6:
                        pts.append(float(v))
                        break
        pts.sort()
        dedup = []
        for y in pts:
            if not dedup or abs(y - dedup[-1]) > 1e-7:
                dedup.append(y)
        out[b] = dedup
    return out


def _agree(oracle_pts, verified_pts, tol=1e-5):
    for y in oracle_pts:
        if not any(abs(y - v) <= tol for v in verified_pts):
            return False
    for v in verified_pts:
        if not any(abs(v - y) <= tol for y in oracle_pts):
            return False
    return True


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    disagreements = []

    def check(ps, label):
        rep = solve(ps, verify=True, cfg=BULK_CFG)
        machine = FlowMachine(ps, BULK_CFG)
        oracle = _oracle_sets(ps, rep, machine)
        for b in range(len(ps.boundaries)):
            verified = [float(v) for c in rep.verified() for v in c.ordinates_on(b)]
            if not _agree(oracle[b], verified):
                disagreements.append((label, b, oracle[b], sorted(verified)))

    for name in FIXTURES:
        check(load_spec(fixture_path(name)).to_system(), name)
    # headline multi-cycle counts of the three-zone cubic family are
    # arbitrated by the oracle (the printed intervals contradict each other)
    for b in (F(-8, 5), F(1), F(2)):
        check(cubic_three_zone(b=b), f"cubic_three_zone b={b}")

    rng = random.Random(606)
    per = [9, 9, 8, 8, 8, 8]
    for name, n in zip(CONFIG_NAMES, per):
        for _ in range(n):
            check(rand_config(rng, name), name)

    elapsed = time.monotonic() - t0
    ok = not disagreements and elapsed < 300.0
    record(6, ok, f"fixtures + 3 sweep points + 50 random systems, "
                  f"{len(disagreements)} disagreements, {elapsed:.1f}s")
    assert not disagreements, disagreements[:3]
    assert elapsed < 300.0


# -- criterion 7 -------------------------------------------------------------------


def _printed_quartic(l1, m1, l2, g1):
    """Closed-form coefficient block as displayed for unit deltas,
    transcribed once, test-only."""
    A = -4 * l1**2
    B = 4 * m1**2
    C = 8 * l1 * (m1**2 + 2 * l2 * m1 - 2 * g1)
    D = 8 * m1**2 * l1
    E = (-16 * l2 * m1**3 + (-16 * l2**2 + 16 * g1) * m1**2
         + 32 * g1 * l2 * m1 - 16 * g1**2)
    A1 = A * A - A * B + B * B
    A2 = 2 * A * C - A * D + 3 * B * B - B * C - B * D
    A3 = (C * C + D * D + 2 * A * E - B * E - C * D - F(3, 2) * A * D
          - 3 * B * D + F(9, 4) * A * B + F(9, 4) * B * B)
    A4 = F(3, 2) * (D * D - C * D) + 2 * C * E - D * E + F(9, 4) * B * (C - D)
    A5 = E * E + F(9, 4) * B * E - F(3, 2) * D * E
    return UniPoly([A5, A4, A3, A2, A1], "y1")


def _criterion7_draws(count=20):
    rng = random.Random(707)
    out = []
    while len(out) < count:
        l1, m1, l2, g1 = (F(rng.randint(-4, 4)) for _ in range(4))
        if l1 == 0 or m1 == 0:
            continue
        out.append((l1, m1, l2, g1, F(1)))
    return out


def _double_center_system(l1, m1, l2, g1, n):
    from pwham.systems import DoubleCenter, LinearSaddle

    mu1, b1 = (m1 - l1) / 2, -(l1 + m1) / 2
    return piecewise_system(
        [DoubleCenter(l=0, n=n, p=0, offset=1),
         LinearSaddle(1, b1, 1, mu1, g1),
         LinearSaddle(1, 0, 1, -l2, 0)], [-1, 1])


def _screened_roots(ms):
    """Real eliminant roots that extend to consistent real tuples
    (extraneous-factor screening by back-substitution)."""
    elim = eliminate(ms)
    out = []
    for r, _ in _root_values(elim, F(1, 10**18)):
        if back_substitute(r, ms, ordered=False):
            out.append(r)
    return elim, out


def test_criterion_7_coefficient_cross_check():
    """Unit-delta draws: the screened eliminant keeps only extending roots,
    and its screened real-root count must equal the transcribed quartic's
    real-root count."""
    t0 = time.monotonic()
    mismatches = []
    for draw in _criterion7_draws():
        l1, m1, l2, g1, n = draw
        ps = _double_center_system(*draw)
        ms = build_three_zone(*ps.zones, -1, 1)
        elim, screened = _screened_roots(ms)
        # no spurious factor survives screening: every screened root extends
        for r in screened:
            assert back_substitute(r, ms, ordered=False)
        pq = _printed_quartic(l1, m1, l2, g1)
        n_pq = len(real_roots(pq)) if pq.degree >= 1 else 0
        if len(screened) != n_pq:
            mismatches.append((draw, len(screened), n_pq))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 30.0
    record(7, ok, f"20 unit-delta draws, {len(mismatches)} count mismatches "
                  f"with the transcribed quartic, {elapsed:.1f}s (the printed "
                  "coefficient block is inconsistent with its own equation "
                  "system; see the companion test and the decisions ledger)")
    assert not mismatches, ("the transcribed closed-form quartic disagrees "
                            "with the regenerated eliminant: "
                            f"{mismatches[:4]}")


def test_criterion_7_companion_route_cross_check():
    """The healthy form of the cross-check: two independent elimination
    routes (direct ordinate resultants vs the sum/difference reduction)
    produce identical screened candidate sets, exactly, on the same draws;
    and the displayed degree-8 sweep polynomial is reproduced exactly from
    its displayed equation set (see test_solver)."""
    t0 = time.monotonic()
    for draw in _criterion7_draws():
        ps = _double_center_system(*draw)
        ms = build_three_zone(*ps.zones, -1, 1)
        elim = eliminate(ms)
        direct = []
        for r, _ in _root_values(elim, F(1, 10**18)):
            direct += back_substitute(r, ms)
        core = _three_zone_core(ms)
        assert not core.positive_dimensional
        assert core.eliminant.degree <= 4
        key = lambda ts: sorted(tuple(round(float(v), 8) for v in t) for t in ts)
        assert key(direct) == key([t for t, _ in core.tuples])
    assert time.monotonic() - t0 < 30.0


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_8_conservation_and_closure():
    """Every verified cycle's integrated loop closes within 1e-6 with
    per-arc relative integral drift below 1e-8, across all fixtures."""
    t0 = time.monotonic()
    seen = 0
    for name in FIXTURES:
        ps = load_spec(fixture_path(name)).to_system()
        rep = solve(ps, verify=True)
        machine = FlowMachine(ps, IntegratorConfig())
        for cyc in rep.verified():
            b0, y0 = min(cyc.ordinates, key=lambda bv: bv[1])
            d0 = machine.crossing_direction(b0, float(y0))
            y_back, log = machine.return_map(b0, float(y0), d0)
            assert abs(y_back - float(y0)) < 1e-6, name
            for _, _, _, traj in log:
                assert traj.drift < 1e-8, (name, traj.drift)
            seen += 1
    record(8, True, f"{seen} verified fixture cycles: closure < 1e-6, "
                    f"drift < 1e-8, {time.monotonic() - t0:.1f}s")
    assert seen >= 5


def teardown_module(_mod):
    print()
    for line in _RESULTS:
        print(line)
