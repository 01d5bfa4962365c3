"""Vector-field families: Hamiltonians, derived fields, conservation,
saddle geometry, continuity."""

import ast
import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pwham
from pwham.algebra import MultiPoly
from pwham.dynamics import IntegratorConfig, zone_field_fn, zone_integral_fn
from pwham.systems import (
    FAMILIES,
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    Zone,
    _derive,
    equilibria,
    hamiltonian,
    is_continuous,
    mirror,
    linear_part,
    local_forms,
    piecewise_system,
    restriction,
    separatrix_lines,
)

from conftest import translate
from reference_systems import field_polys, restriction_by_subs


def vector_field(zone: Zone, pt: tuple) -> tuple:
    """The zone's exact field at a rational point."""
    at = {"x": F(pt[0]), "y": F(pt[1])}
    return tuple(p.eval(at) for p in field_polys(zone))


# -- hamiltonian ---------------------------------------------------------------


def test_hamiltonian_saddle_fixture():
    # H(x,y) = x*y + y^2/2 - y for the saddle piece of the global-center pair
    num, den = hamiltonian(Zone(LinearSaddle(0, -1, -1, -1, 0)))
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert num == x * y + F(1, 2) * y * y - y
    assert den == MultiPoly.const(1)


def test_hamiltonian_global_center():
    num, den = hamiltonian(Zone(GlobalCenter(F(4, 5))))
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert num == x * x - y + MultiPoly.const(F(2, 5))
    assert den == y * y


def test_hamiltonian_cubic_center():
    num, den = hamiltonian(Zone(CubicCenter(a=0, b=4, q=1)))
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert num == y**3 - 2 * y * y - F(1, 2) * x * x


def test_vector_field_examples():
    assert vector_field(Zone(DoubleCenter(l=0, n=1, p=0)), (F(0), F(0))) == (0, 0)
    assert vector_field(Zone(GlobalCenter(F(4, 5))), (F(0), F(4, 5))) == (0, 0)
    # saddle piece of the cubic fixture at (0, 1/2): (0, -x-c) with c = -2
    z = Zone(LinearSaddle(-1, 0, 1, F(1, 2), 2))
    assert vector_field(z, (F(0), F(1, 2))) == (0, 2)


def test_reverse_flag_flips_field_not_integral():
    z = Zone(CubicCenter(a=0, b=2, q=1, offset=1))
    zr = Zone(CubicCenter(a=0, b=2, q=1, offset=1), reverse=True)
    fx, fy = field_polys(z)
    gx, gy = field_polys(zr)
    assert gx == -fx and gy == -fy
    assert hamiltonian(z) == hamiltonian(zr)


def test_conservation_exact_polynomial_zones():
    """grad(H) . field == 0 as an exact polynomial identity for every
    polynomial-integral family, random parameters."""
    rng = random.Random(1)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")

    def ddx(p):
        return _pderiv(p, "x")

    def ddy(p):
        return _pderiv(p, "y")

    for _ in range(100):
        r = lambda: F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        zones = [
            Zone(DoubleCenter(l=r(), n=r(), p=r(), offset=r())),
            Zone(CubicCenter(a=r(), b=r(), p=r(), q=r(), r=r(), s=r(), offset=r())),
            Zone(LinearSaddle(r(), r(), r(), r(), r())),
        ]
        for z in zones:
            num, den = hamiltonian(z)
            fx, fy = field_polys(z)
            dot = ddx(num) * fx + ddy(num) * fy
            assert dot.is_zero, z


def test_conservation_global_center_rational():
    """d/dt [(X^2 - y + xi/2)/y^2] vanishes identically: the polynomial
    identity (dnum . f) * den - num * (dden . f) == 0."""
    rng = random.Random(2)
    for _ in range(50):
        xi = abs(F(rng.randint(1, 8), rng.choice((1, 2)))) or F(1)
        off = F(rng.randint(-3, 3))
        z = Zone(GlobalCenter(xi, off), reverse=bool(rng.getrandbits(1)))
        num, den = hamiltonian(z)
        fx, fy = field_polys(z)
        dnum = _pderiv(num, "x") * fx + _pderiv(num, "y") * fy
        dden = _pderiv(den, "x") * fx + _pderiv(den, "y") * fy
        assert (dnum * den - num * dden).is_zero


# -- derived forms against independent formulas ------------------------------------


def _random_zones(rng, count):
    """Random rational payloads of every family, random offset and reverse."""
    def r():
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(count):
        for p in (DoubleCenter(l=r(), n=r(), p=r(), offset=r()),
                  GlobalCenter(F(rng.randint(1, 9), rng.randint(1, 7)), offset=r()),
                  CubicCenter(a=r(), b=r(), p=r(), q=r(), r=r(), s=r(), offset=r()),
                  LinearSaddle(r(), r(), r(), r(), r())):
            yield Zone(p, reverse=bool(rng.getrandbits(1)))


def _readme_field(zone):
    """The field of the README "Zone families" table, written out term by
    term, with the reversal applied."""
    p = zone.payload
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    if isinstance(p, DoubleCenter):
        X = x + MultiPoly.const(p.offset)
        fx, fy = -y + p.l * X * X + p.n * y * y, X + p.p * X * X - 2 * p.l * X * y
    elif isinstance(p, GlobalCenter):
        X = x + MultiPoly.const(p.offset)
        fx, fy = y - 2 * X * X - MultiPoly.const(p.xi), -2 * X * y
    elif isinstance(p, CubicCenter):
        X = x + MultiPoly.const(p.offset)
        fx = 3 * p.q * y * y + p.r * X * X + 2 * p.s * X * y - p.a * X - p.b * y
        fy = X + p.a * y - 3 * p.p * X * X - 2 * p.r * X * y - p.s * y * y
    else:
        fx = -p.beta * x - p.delta * y + MultiPoly.const(p.mu)
        fy = p.alpha * x + p.beta * y + MultiPoly.const(p.gamma)
    return (-fx, -fy) if zone.reverse else (fx, fy)


# rationals with zeros, small values and 20-digit denominators
_rats = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(F, st.integers(-10**21, 10**21), st.integers(10**19, 10**20)))


@st.composite
def _zones(draw, cls):
    """A zone of family cls: every field (offset included) a random
    rational, xi made positive, random reversal."""
    values = {f.name: draw(_rats) for f in dataclasses.fields(cls)}
    if cls is GlobalCenter:
        values["xi"] = abs(values["xi"]) or F(1)
    return Zone(cls(**values), reverse=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(FAMILIES)))
def test_template_forms_are_the_derived_forms(data, kind):
    """The family template gives exactly the forms that ``_derive`` builds
    from the family's integral, and the restriction to a line is exactly
    the substitution x = c into the absolute forms."""
    zone = data.draw(_zones(FAMILIES[kind]))
    c = data.draw(_rats)
    assert local_forms(zone.payload) == _derive(zone.payload, MultiPoly.var("x"))
    assert restriction(zone, c) == restriction_by_subs(zone, c)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_forms_are_affine(kind):
    """The template is fitted at the base point and one step per parameter;
    at a point that moves every parameter at once it still gives the derived
    forms, so no family has a product of two parameters in its integral."""
    cls = FAMILIES[kind]
    names = [f.name for f in dataclasses.fields(cls) if f.name != "offset"]
    p = cls(**{n: F(2 * i + 7, 5) for i, n in enumerate(names)})
    assert local_forms(p) == _derive(p, MultiPoly.var("x"))


def test_import_builds_no_template():
    """The templates are built on first use: importing the package and its
    command line derives no family's forms."""
    code = ("import pwham, pwham.cli\n"
            "from pwham import systems\n"
            "print(systems._template.cache_info().currsize)")
    src = str(Path(pwham.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"


@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(FAMILIES)),
       t=st.builds(lambda k, m: F(k, 2 ** m), st.integers(-64, 64), st.integers(0, 6)))
def test_boundary_translation_restricts_equally(data, kind, t):
    """Moving a zone and its line by t leaves the field restricted to the
    line unchanged and changes the integral's numerator by a constant."""
    zone = data.draw(_zones(FAMILIES[kind]))
    c = data.draw(_rats)
    moved = translate(piecewise_system([zone.payload], [], [zone.reverse]), t).zones[0]
    n, d, fx, fy = restriction(zone, c)
    n2, d2, fx2, fy2 = restriction(moved, c + t)
    assert (fx2, fy2, d2) == (fx, fy, d)
    assert (n2 - n).degree <= 0


def _term_size(p: MultiPoly, at: dict) -> float:
    """Sum of the absolute values of p's terms: the scale of float rounding
    in evaluating p."""
    return MultiPoly(p.vars, {e: abs(c) for e, c in p.terms.items()}).eval_float(
        {v: abs(t) for v, t in at.items()})


def test_field_polys_match_readme_fields():
    for z in _random_zones(random.Random(11), 60):
        assert field_polys(z) == _readme_field(z), z


def test_compiled_field_and_integral_match_exact_forms():
    """The float closures agree with the exact forms to 1e-12 relative to
    the size of the terms, at random points."""
    rng = random.Random(12)
    for z in _random_zones(rng, 40):
        f, h = zone_field_fn(z), zone_integral_fn(z)
        fx, fy = field_polys(z)
        num, den = hamiltonian(z)
        for _ in range(5):
            at = {"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}
            got = f(at["x"], at["y"])
            for g, p in zip(got, (fx, fy)):
                assert abs(g - p.eval_float(at)) <= 1e-12 * (1 + _term_size(p, at)), z
            d = den.eval_float(at)
            want = num.eval_float(at) / d
            tol = 1e-12 * (1 + _term_size(num, at)) / abs(d)
            assert abs(h(at["x"], at["y"]) - want) <= tol, z


def test_compiled_field_is_exact_at_large_offset():
    """The float field is evaluated in the shifted frame X = x + offset, so
    a far-away zone loses only the rounding of x + offset, not the
    cancellation between expanded monomials in x."""
    off = F(10**9) + F(1, 3)
    for p in (DoubleCenter(l=1, n=2, p=3, offset=off), GlobalCenter(F(4, 5), off),
              CubicCenter(a=1, b=3, p=1, q=2, r=-1, s=1, offset=off)):
        z = Zone(p)
        x, y = float(-off) + 0.25, 0.75
        exact = vector_field(z, (F(x), F(y)))
        got = zone_field_fn(z)(x, y)
        for g, e in zip(got, exact):
            assert abs(g - float(e)) <= 1e-6 * abs(float(e)), p


def _pderiv(p: MultiPoly, var: str) -> MultiPoly:
    if var not in p.vars:
        return MultiPoly.zero()
    i = p.vars.index(var)
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        terms[tuple(ne)] = c * e[i]
    return MultiPoly(p.vars, terms)


def test_double_center_equilibria():
    rng = random.Random(3)
    for _ in range(50):
        n = F(rng.randint(1, 5), rng.choice((1, 2)))
        z = Zone(DoubleCenter(l=F(rng.randint(-3, 3)), n=n, p=F(rng.randint(-3, 3)),
                              offset=F(rng.randint(-2, 2))))
        for pt in equilibria(z):
            assert vector_field(z, pt) == (0, 0)
        ys = sorted(y for _, y in equilibria(z))
        assert ys == sorted([F(0), 1 / n])


# -- linear parts and saddle geometry ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                       min_size=5, max_size=5),
       reverse=st.booleans())
def test_linear_part_is_the_field(coeffs, reverse):
    """A linear zone's exact affine part has trace 0 and e = beta^2 -
    alpha*delta, and its field is +/-(A u + b) under reversal."""
    s = LinearSaddle(*coeffs)
    ((a11, a12), (a21, a22)), (b1, b2), e = linear_part(s)
    assert a11 + a22 == 0
    assert e == s.beta ** 2 - s.alpha * s.delta
    assert s.is_saddle == (e > 0)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    sign = -1 if reverse else 1
    fx, fy = field_polys(Zone(s, reverse=reverse))
    assert (fx - sign * (a11 * x + a12 * y + b1)).is_zero
    assert (fy - sign * (a21 * x + a22 * y + b2)).is_zero


def test_saddle_data_examples():
    """The exact equilibrium of a linear zone."""
    assert equilibria(Zone(LinearSaddle(0, -1, -1, -1, 0))) == [(1, 0)]
    assert equilibria(Zone(LinearSaddle(1, 0, -1, 0, 0))) == [(0, 0)]
    assert equilibria(Zone(LinearSaddle(1, 1, 0, 0, 0))) == [(0, 0)]
    assert equilibria(Zone(LinearSaddle(1, 0, 1, F(1, 2), 2))) == [(-2, F(1, 2))]


def test_saddle_data_equilibrium_exact():
    rng = random.Random(4)
    for _ in range(100):
        s = LinearSaddle(*[F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(5)])
        z = Zone(s, reverse=bool(rng.getrandbits(1)))
        if s.alpha * s.delta - s.beta**2 == 0:
            assert equilibria(z) == []
            continue
        (eq,) = equilibria(z)
        assert vector_field(z, eq) == (0, 0)


def _slopes(s: LinearSaddle) -> list[float]:
    return [dy / dx for _, (dx, dy) in separatrix_lines(Zone(s))]


def test_separatrices_examples():
    ((p1, _), (p2, _)) = separatrix_lines(Zone(LinearSaddle(1, 0, -1, 0, 0)))
    assert p1 == p2 == (0.0, 0.0)
    assert sorted(_slopes(LinearSaddle(1, 0, -1, 0, 0))) == [-1.0, 1.0]
    assert sorted(_slopes(LinearSaddle(0, 1, 1, 0, 0))) == pytest.approx([-2.0, 0.0])
    assert sorted(_slopes(LinearSaddle(1, 2, 3, 0, 0))) == pytest.approx([-1.0, -1 / 3])
    # no separatrices: a linear center, a degenerate linear part, a center family
    assert separatrix_lines(Zone(LinearSaddle(1, 0, 1, 0, 0))) == []
    assert separatrix_lines(Zone(LinearSaddle(1, 1, 1, 0, 0))) == []
    assert separatrix_lines(Zone(CubicCenter(a=0, b=-1))) == []


def test_separatrix_lines_are_invariant():
    """Each line runs through the exact equilibrium along an eigenvector of
    A, for the eigenvalue +sqrt(e) first and -sqrt(e) second, whatever the
    zone's reversal.  Saddles with delta = 0 take the eigenvector fallbacks
    (a vertical line, and the second row of A - lam)."""
    rng = random.Random(6)
    checked = flat = 0
    while checked < 200:
        alpha, beta, mu, gamma = (F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4))
        delta = F(0) if rng.random() < 0.4 else F(rng.randint(-4, 4), rng.choice((1, 3)))
        s = LinearSaddle(alpha, beta, delta, mu, gamma)
        if not s.is_saddle:
            continue
        lines = separatrix_lines(Zone(s))
        assert separatrix_lines(Zone(s, reverse=True)) == lines
        (eq,) = equilibria(Zone(s))
        ((a11, a12), (a21, a22)), _, e = linear_part(s)
        root = math.sqrt(e)
        assert len(lines) == 2
        for (pt, (dx, dy)), lam in zip(lines, (root, -root)):
            assert pt == (float(eq[0]), float(eq[1]))
            assert math.hypot(dx, dy) == pytest.approx(1.0)
            rx = float(a11) * dx + float(a12) * dy - lam * dx
            ry = float(a21) * dx + float(a22) * dy - lam * dy
            assert math.hypot(rx, ry) <= 1e-12 * (1 + abs(lam)), (s, lam)
        flat += delta == 0
        checked += 1
    assert flat >= 40


# -- continuity -------------------------------------------------------------------


def test_continuity_matched_double_center():
    ps = piecewise_system(
        [DoubleCenter(l=2, n=0, p=3), LinearSaddle(-1, 0, 1, 0, 0)], [0])
    flag, mism = is_continuous(ps)
    assert flag and mism == []


def test_continuity_cubic_fixture_mismatch():
    ps = piecewise_system(
        [CubicCenter(a=0, b=4, q=1), LinearSaddle(-1, 0, 1, F(1, 2), 2)], [0])
    flag, mism = is_continuous(ps)
    assert not flag
    (c, w, gap), = mism
    assert c == 0
    assert gap != (0, 0)


def test_continuity_self_split():
    z = CubicCenter(a=1, b=3, q=2, p=1, r=1, s=1)
    ps = piecewise_system([z, z], [0])
    assert is_continuous(ps)[0]


def test_mirror_involution_and_field():
    ps = piecewise_system(
        [GlobalCenter(F(4, 5), offset=1), LinearSaddle(1, 2, -1, 1, 1),
         LinearSaddle(0, 1, 3, 0, 2)], [-1, 1])
    mm = mirror(mirror(ps))
    assert mm == ps
    m = mirror(ps)
    # the mirrored field at (-x, y) is the x-negated original field
    rng = random.Random(8)
    for _ in range(40):
        x = F(rng.randint(-30, 30), 7)
        y = F(rng.randint(-20, 20), 3)
        zi = 0 if x < -1 else (1 if x < 1 else 2)
        fx, fy = vector_field(ps.zones[zi], (x, y))
        gx, gy = vector_field(m.zones[2 - zi], (-x, y))
        assert (gx, gy) == (-fx, fy)


# -- design rule -------------------------------------------------------------------


def test_family_classes_stay_in_systems():
    """Zone families are known to ``systems`` and the solver's bound table
    only: dynamics, matcher and cli neither import nor name a family class."""
    families = {"DoubleCenter", "GlobalCenter", "CubicCenter", "LinearSaddle"}
    found = {}
    for module in ("dynamics", "matcher", "cli"):
        tree = ast.parse((Path(pwham.__file__).parent / f"{module}.py").read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
        if names & families:
            found[module] = sorted(names & families)
    assert not found


def test_integrator_config_fields_are_set_by_callers():
    """Every IntegratorConfig field is a budget that some call in the
    package or the bench sets, by IntegratorConfig(...) or replace(...): a
    field that no caller sets is a constant, not a setting."""
    fields = [f.name for f in dataclasses.fields(IntegratorConfig)]
    root = Path(__file__).resolve().parents[1]
    given_ = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "IntegratorConfig":
                given_.update(fields[:len(node.args)])
            if name in ("IntegratorConfig", "replace"):
                given_.update(k.arg for k in node.keywords)
    assert set(fields) <= given_, sorted(set(fields) - given_)
