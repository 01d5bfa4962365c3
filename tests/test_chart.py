"""Crossing charts of the switching lines, and the gate they give ``solve``."""

import random
from dataclasses import fields
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from pwham import chart, solver
from pwham.algebra import UniPoly
from pwham.chart import line_chart
from pwham.matcher import matching_systems_for
from pwham.solver import CandidateCycle, annulus_check, solve
from pwham.systems import (
    FAMILIES,
    CubicCenter,
    LinearSaddle,
    Zone,
    mirror,
    piecewise_system,
    restriction,
)

from conftest import (
    BULK_CFG,
    CONFIG_NAMES,
    continuous_double_center_match,
    cubic_center_saddle,
    rand_config,
    rand_mixed,
)
import corpus_digest


def _generic(cls, k: int):
    """A member of the family cls with every parameter a distinct positive
    rational, none of them special."""
    return cls(**{f.name: F(2 * i + k + 3, i + 7) for i, f in enumerate(fields(cls))})


def test_every_family_restricts_its_normal_velocity_to_degree_two():
    """The two-crossing lemma and the chart's at most four cuts per line
    rest on deg_y f_x <= 2 on every vertical line, for every family: read
    from ``restriction`` at generic rationals, with no family named."""
    assert len(FAMILIES) >= 4
    for cls in FAMILIES.values():
        for k in range(3):
            for reverse in (False, True):
                zone = Zone(_generic(cls, k), reverse=reverse)
                for c in (F(0), F(3, 11), F(-5, 2)):
                    fx = restriction(zone, c)[2]
                    assert fx.degree <= 2, (cls.kind, k, c)


def _holds(ch, cut: F) -> bool:
    """The chart has a cut interval around the rational cut."""
    return any(lo < cut < hi for lo, hi in ch.cuts)


def test_cubic_fixture_chart():
    """x = 0 of the cubic fixture: f⁻ = 3y^2 - 4y and f⁺ = 1/2 - y cut it at
    0, 1/2 and 4/3 into a rightward crossing, an escaping segment, a
    leftward crossing and an attracting sliding segment."""
    ps = cubic_center_saddle()
    ch = line_chart(ps.zones[0], ps.zones[1], F(0))
    assert ch.kinds == ("crossing +1", "escaping", "crossing -1", "attracting sliding")
    assert len(ch.cuts) == 3
    for (lo, hi), cut in zip(ch.cuts, (F(0), F(1, 2), F(4, 3))):
        assert lo < cut < hi
    assert all(a[1] <= b[0] for a, b in zip(ch.cuts, ch.cuts[1:]))
    assert ch.refutation() is None


def test_chart_of_a_coefficient_beyond_the_float_range_stays_exact():
    """q = 10^400 puts the cut 4/(3 10^400) of f⁻ = 3q y^2 - 4y a hair above
    0, and no float holds the coefficient: the chart comes from exact
    isolation, and with the cut below f⁺'s 1/2 the line has no leftward
    crossing."""
    q = 10**400
    ps = piecewise_system([CubicCenter(a=0, b=4, q=q), LinearSaddle(-1, 0, 1, F(1, 2), 2)], [0])
    ch = line_chart(ps.zones[0], ps.zones[1], F(0))
    assert ch.kinds == ("crossing +1", "escaping", "crossing +1", "attracting sliding")
    for (lo, hi), cut in zip(ch.cuts, (F(0), F(4, 3 * q), F(1, 2))):
        assert lo < cut < hi
    assert all(a[1] <= b[0] for a, b in zip(ch.cuts, ch.cuts[1:]))
    assert ch.refutation() == "line x = 0 has no leftward crossing segment"


def test_chart_separates_close_and_common_roots():
    """Cuts closer than a float can tell apart fall back to Sturm isolation
    and keep their exact order.  A root both sides share is one cut:
    certified on the float samples when it is a float (1/2), where both
    sides vanish exactly, and from Sturm isolation when it is not (1/3)."""
    zl = Zone(LinearSaddle(0, 0, 1, F(1, 2), 0))  # f⁻ = 1/2 - y
    eps = F(1, 10**30)
    close = Zone(LinearSaddle(0, 0, -1, -F(1, 2) - eps, 0))  # f⁺ = y - 1/2 - eps
    ch = line_chart(zl, close, F(0))
    assert ch.kinds == ("attracting sliding", "crossing -1", "escaping")
    assert _holds(ch, F(1, 2)) and _holds(ch, F(1, 2) + eps)
    for root in (F(1, 2), F(1, 3)):
        zone = Zone(LinearSaddle(0, 0, 1, root, 0))  # 1/2 - y or 1/3 - y
        ch = line_chart(zone, zone, F(0))
        assert ch.kinds == ("crossing +1", "crossing -1") and _holds(ch, root)


def test_a_line_that_one_side_runs_along_is_tangent():
    """delta = 0 and mu = beta c make f⁺ vanish on x = c: no crossing
    segment, and the refutation says so."""
    zl = Zone(LinearSaddle(0, 0, 1, F(1, 2), 0))
    ch = line_chart(zl, Zone(LinearSaddle(1, 2, 0, 2, 0)), F(1))
    assert ch.kinds == ("tangent",) and ch.cuts == ()
    assert ch.refutation() == "line x = 1 has no crossing segment"


@st.composite
def _restrictions(draw):
    """Two integer polynomials of degree at most 2 with small coefficients,
    so that common and double roots come up often."""
    def poly():
        return UniPoly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)))
    return poly(), poly()


@settings(max_examples=300, deadline=None)
@given(_restrictions())
def test_certified_float_samples_give_the_sturm_chart(sides):
    """Wherever the float samples certify, they give the kinds of the Sturm
    samples, and each cut interval overlaps the Sturm one of the same cut."""
    exact = chart._walk(*chart._sturm_samples(sides))
    floats = chart._float_samples(sides)
    if floats is None:
        return
    cuts, kinds = chart._walk(*floats)
    assert kinds == exact[1]
    assert all(lo < b and a < hi for (lo, hi), (a, b) in zip(cuts, exact[0]))


def _ungated(ps, rep):
    """The candidates of every topology's route without the gate
    (``solver._core``), verified by ``rep``'s machine, the posdim
    boundaries and the first topology's eliminant."""
    cands, posdim, elim = [], [], None
    for tag, bidx, ms in matching_systems_for(ps):
        core = solver._core(ms)
        elim = core.eliminant if elim is None else elim
        if core.positive_dimensional and bidx[0] not in posdim:
            posdim.append(bidx[0])
        for t, mult in core.tuples:
            c = CandidateCycle(tag, tuple((bidx[i // 2], v) for i, v in enumerate(t)), mult)
            c.status, c.reason = rep.machine.verify_candidate(c)
            cands.append(c)
    return cands, posdim, elim


def _key(c):
    return c.topology, c.ordinates, c.multiplicity, c.status


def test_the_gate_keeps_every_answer():
    """On the first 120 ``bulk`` units and the ``mixed`` corpus with its
    mirrors, gated ``solve`` equals the ungated routes plus verification:
    the same verified tuples and multiplicities, eliminant and both flags;
    each candidate it drops belongs to a topology it reports refuted."""
    rng = random.Random(505)
    systems = [rand_config(rng, CONFIG_NAMES[i % 6]) for i in range(120)]
    for seed in corpus_digest.MIXED_SEEDS:
        rng = random.Random(seed)
        for _ in range(corpus_digest.MIXED_COUNT):
            ps = rand_mixed(rng)
            systems += [ps, mirror(ps)]
    assert len(systems) == 280
    dropped = refuted_systems = 0
    for ps in systems:
        rep = solve(ps, cfg=BULK_CFG)
        cands, posdim, elim = _ungated(ps, rep)
        assert rep.eliminant == elim
        assert rep.positive_dimensional == bool(posdim)
        assert rep.annulus == annulus_check(rep.machine, posdim)
        gated = [_key(c) for c in rep.candidates]
        assert gated == [_key(c) for c in cands if c.topology not in rep.refuted()]
        assert all(c.status != "verified" for c in cands if c.topology in rep.refuted())
        dropped += len(cands) - len(gated)
        refuted_systems += bool(rep.refuted())
    assert dropped > 0 and refuted_systems > 0


def test_an_annulus_unit_builds_no_chart(monkeypatch):
    """A positive-dimensional topology has no eliminant root to look for,
    so ``solve`` builds no chart for it."""
    built = []
    monkeypatch.setattr(chart, "line_chart", lambda *a: built.append(a) or line_chart(*a))
    rep = solve(continuous_double_center_match(random.Random(404)))
    assert rep.positive_dimensional and rep.annulus
    assert built == []
