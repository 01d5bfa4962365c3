"""Exact algebra layer: resultants, squarefree parts, Sturm isolation,
bisection refinement."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pwham.algebra import (
    AlgebraError,
    MultiPoly,
    RootInterval,
    UniPoly,
    isolate_real_roots,
    rat,
    real_roots,
    refine_root,
    resultant,
    squarefree,
    sturm_count,
    sturm_isolate,
)

from reference_algebra import expand_subs, uni_resultant


def P(*coeffs, var="y"):
    return UniPoly(coeffs, var)


def test_rat_rejects_floats():
    with pytest.raises(AlgebraError):
        rat(0.1)


def test_rat_arithmetic_always_reduced():
    rng = random.Random(0)
    for _ in range(200):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        for v in (a + b, a - b, a * b):
            assert math.gcd(v.numerator, v.denominator) == 1
            assert v.denominator > 0
        assert (a + b) - b == a
        assert a * b == b * a


# -- resultants ---------------------------------------------------------------


def test_resultant_substitution_case():
    # Sylvester determinant of (x - y, y - 2) in y; the sign depends only on
    # the row-block convention, the vanishing locus is x = 2 either way
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    r = resultant(x - y, y - 2, "y")
    assert r == x - 2 or r == -(x - 2)
    assert r.eval({"x": 2}) == 0 and r.eval({"x": 5}) != 0


def test_resultant_hand_expanded_sylvester():
    # Res_y(x*y - 1, y^2 - x) expands to -(x^3 - 1) in the 3x3 determinant
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    r = resultant(x * y - 1, y * y - x, "y")
    target = x**3 - 1
    assert r == target or r == -target


def test_resultant_degree_zero_rejected():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    with pytest.raises(AlgebraError, match="not eliminable"):
        resultant(x + 1, y - 2, "y")


def test_resultant_vanishes_iff_common_root():
    """Random p, q of degree <= 3 in y with coefficients linear in x: the
    resultant vanishes at a sample x exactly when the numeric root sets
    meet (1e-8)."""
    rng = random.Random(42)
    hits = 0
    for _ in range(100):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")

        def rnd_poly():
            acc = MultiPoly.zero()
            for k in range(rng.randint(1, 3) + 1):
                c = rng.randint(-3, 3)
                if k == rng.randint(0, 3):
                    acc = acc + (c * x if rng.random() < 0.5 else MultiPoly.const(c)) * y**k
                else:
                    acc = acc + c * y**k
            return acc

        p, q = rnd_poly(), rnd_poly()
        if p.degree("y") < 1 or q.degree("y") < 1:
            continue
        r = resultant(p, q, "y")
        x0 = F(rng.randint(-3, 3))
        pu = p.subs({"x": x0})
        qu = q.subs({"x": x0})
        if pu.degree("y") != p.degree("y") or qu.degree("y") != q.degree("y"):
            continue  # leading coefficient vanished: extraneous-factor zone
        rv = r.eval({"x": x0}) if not r.is_zero else F(0)
        proots = [complex(z) for z in _cplx_roots(pu.as_unipoly("y"))]
        qroots = [complex(z) for z in _cplx_roots(qu.as_unipoly("y"))]
        close = any(abs(a - b) < 1e-8 for a in proots for b in qroots)
        assert (rv == 0) == close, (p, q, x0)
        hits += 1
    assert hits >= 60


def _cplx_roots(p: UniPoly):
    # numpy-free Durand-Kerner, adequate for degree <= 3 test polynomials
    cs = [complex(c) for c in p.coeffs]
    n = len(cs) - 1
    if n == 0:
        return []
    lead = cs[-1]
    cs = [c / lead for c in cs]
    roots = [complex(0.4, 0.9) ** k for k in range(n)]
    for _ in range(200):
        new = []
        for i, r in enumerate(roots):
            num = _horner(cs, r)
            den = 1.0
            for j, s in enumerate(roots):
                if i != j:
                    den *= (r - s)
            new.append(r - num / den if den != 0 else r)
        if all(abs(a - b) < 1e-14 for a, b in zip(new, roots)):
            roots = new
            break
        roots = new
    return roots


def _horner(cs, x):
    acc = 0j
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def test_matching_pair_resultant_reproduces_displayed_elimination():
    """Eliminating the second right-hand ordinate from the two transport
    equations (unit deltas) reproduces the displayed one-boundary relation up
    to a nonzero constant."""
    y1, y3, y4 = (MultiPoly.var(v) for v in ("y1", "y3", "y4"))
    l1, m1, l2, g1 = F(2), F(-3), F(1), F(5)
    eq_a = (y1 * y1 - y4 * y4) + 2 * l1 * y1 + 2 * m1 * y4 + 4 * g1
    eq_b = (y3 + y4) + 2 * l2
    r = resultant(eq_a, eq_b, "y4")
    # the second equation is linear, so direct substitution is the oracle
    y4v = -y3 - MultiPoly.const(2 * l2)
    direct = expand_subs(eq_a, {"y4": y4v})
    assert r.is_proportional_to(direct)


# -- squarefree ----------------------------------------------------------------


def test_squarefree_examples():
    p = P(1, -1) * P(1, -1) * P(2, 1)  # (y-1)^2 (y+2) up to sign convention
    q = squarefree(p)
    assert q.degree == 2
    assert q(F(1)) == 0 and q(F(-2)) == 0
    r = P(1, 0, 1)  # y^2 + 1 already squarefree
    assert squarefree(r) == r
    s = P(F(4, 5), -2, 1)
    assert squarefree(s * s).primitive() == s.primitive()


def test_squarefree_zero_rejected():
    with pytest.raises(AlgebraError):
        squarefree(UniPoly.zero())


# -- Sturm isolation -----------------------------------------------------------


def test_sturm_isolate_basic():
    p = P(-2, 0, 1)  # y^2 - 2
    ivs = sturm_isolate(p, -2, 2)
    assert len(ivs) == 2
    assert all(iv.sign_lo != iv.sign_hi for iv in ivs)
    assert sturm_isolate(P(1, 0, 1), -10, 10) == []


def test_sturm_isolate_requires_squarefree():
    p = P(1, -2, 1)  # (y-1)^2
    with pytest.raises(AlgebraError, match="squarefree"):
        sturm_isolate(p, -10, 10)


def test_sturm_isolate_matching_quadratic_roots():
    # y^2 - 2y + 4/5 has the roots (5 -+ sqrt(5))/5
    p = P(F(4, 5), -2, 1)
    ivs = sturm_isolate(p, -10, 10)
    assert len(ivs) == 2
    lo = float(refine_root(p, ivs[0], F(1, 10**14)))
    hi = float(refine_root(p, ivs[1], F(1, 10**14)))
    assert abs(lo - (5 - math.sqrt(5)) / 5) < 1e-12
    assert abs(hi - (5 + math.sqrt(5)) / 5) < 1e-12


def test_sturm_count_matches_grid_refinement():
    """Sturm root count on (-B, B] equals a sign-change count on a grid
    refined until it stabilizes, for random degree <= 5 polynomials."""
    rng = random.Random(5)
    for _ in range(100):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 6))]
        p = UniPoly(coeffs)
        if p.degree < 1:
            continue
        sf = squarefree(p)
        if sf.degree < 1:
            continue
        b = sf.cauchy_bound()
        count = len(sturm_isolate(sf, -b, b))
        grid_count = None
        n = 64
        while n <= 65536:
            xs = [-b + 2 * b * F(i, n) for i in range(n + 1)]
            vals = [sf(x) for x in xs]
            c = sum(1 for i in range(n)
                    if (vals[i] < 0 < vals[i + 1]) or (vals[i] > 0 > vals[i + 1]))
            c += sum(1 for v in vals[1:] if v == 0)
            if c == grid_count:
                break
            grid_count = c
            n *= 4
        assert count == grid_count, (p, count, grid_count)


def test_root_exactly_at_scan_endpoint():
    p = P(-1, 0, 1)  # roots +-1
    ivs = sturm_isolate(p, -1, 1)  # (lo, hi]: only +1 counted
    assert len(ivs) == 1
    r = refine_root(p, ivs[0], F(1, 10**12))
    assert abs(float(r) - 1) < 1e-12


# -- refinement -----------------------------------------------------------------


def test_refine_root_sqrt2():
    p = P(-2, 0, 1)
    iv = sturm_isolate(p, 0, 2)[0]
    r = refine_root(p, iv, F(1, 10**12))
    assert abs(float(r) - math.sqrt(2)) < 1e-12


def test_refine_root_golden_ratio():
    # positive root of y^2 - y - 1 is the upper crossing ordinate 1.6180339887
    p = P(-1, -1, 1)
    iv = sturm_isolate(p, 0, 3)[0]
    r = refine_root(p, iv, F(1, 10**10))
    assert abs(float(r) - 1.6180339887) < 1e-9


def test_refine_root_smaller_matching_root():
    p = P(F(4, 5), -2, 1)
    iv = sturm_isolate(p, -10, 1)[0]
    r = refine_root(p, iv, F(1, 10**10))
    assert abs(float(r) - 0.5527864045) < 1e-9


def test_refine_root_contract():
    rng = random.Random(9)
    for _ in range(50):
        p = UniPoly([rng.randint(-5, 5) for _ in range(4)] + [1])
        sf = squarefree(p).primitive()
        b = sf.cauchy_bound()
        for iv in sturm_isolate(sf, -b, b):
            r = refine_root(sf, iv, F(1, 10**12))
            assert iv.lo <= r <= iv.hi
            dp = sf.deriv()
            assert abs(float(sf(r))) < 1e-12 * max(1.0, abs(float(dp(r))))


def test_refine_root_rejects_bad_tolerance():
    p = P(-2, 0, 1)
    iv = sturm_isolate(p, 0, 2)[0]
    with pytest.raises(AlgebraError):
        refine_root(p, iv, F(0))


def _reference_refine(p, iv, tol):
    """Plain-Fraction bisection: the midpoint sequence refine_root must run."""
    lo, hi = iv.lo, iv.hi
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return mid
        if (1 if v > 0 else -1) == iv.sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=6), rationals.filter(bool),
       st.sampled_from([F(1, 10**12), F(1, 10**18), F(1, 10**40), F(3, 7)]))
def test_refine_root_matches_fraction_bisection(coeffs, scale, tol):
    p = UniPoly(coeffs)
    if p.degree < 1:
        return
    sf = squarefree(p)
    b = sf.cauchy_bound()
    for q in (sf.primitive(), sf * scale):
        for iv in sturm_isolate(q, -b, b):
            assert refine_root(q, iv, tol) == _reference_refine(q, iv, tol)


def test_refine_root_returns_exact_midpoint_root():
    p = P(-1, 2) * P(-7, 0, 1)  # (2y - 1)(y^2 - 7)
    b = p.cauchy_bound()
    ivs = sturm_isolate(p, -b, b)
    assert len(ivs) == 3
    for tol in (F(1, 10**12), F(1, 10**40)):
        r = refine_root(p, ivs[1], tol)
        assert r == F(1, 2) == _reference_refine(p, ivs[1], tol)
    # dyadic widths reach a dyadic tolerance exactly: the loop stops only below it
    tol = F(1, 2**10)
    assert [refine_root(p, iv, tol) for iv in ivs] == [_reference_refine(p, iv, tol) for iv in ivs]


def _root_interval(p, lo, hi):
    """(lo, hi) as the isolating interval of p's one root inside it."""
    slo, shi = (1 if p(x) > 0 else -1 for x in (lo, hi))
    assert p(lo) and p(hi) and slo != shi and sturm_count(squarefree(p), lo, hi) == 1
    return RootInterval(lo, hi, slo, shi)


BIG20 = 10**19 + 39
BIG300 = 2**300 // 3


@pytest.mark.parametrize("tol", [F(1, 10**9), F(1, 10**18), F(1, 10**40), F(1, 2**64)])
@pytest.mark.parametrize("lo, hi", [(F(-3, 4), F(5, 4)), (F(-2, 3), F(9, 7))])
def test_refine_root_jump_matches_bisection_at_grid_points(lo, hi, tol):
    """Roots on, next to and between the points of the bisection's dyadic
    grid: refine_root jumps to the cell the bisection ends in, and returns a
    root the bisection would evaluate exactly as it is."""
    K = ((hi - lo) / tol).__floor__().bit_length()  # the bisection count
    h = (hi - lo) / 2**K  # the depth-K cell width
    on = [lo + 5 * (hi - lo) / 2**7, lo + (2**(K - 1) + 1) * h, (lo + hi) / 2]
    roots = on + [r + d for r in on for d in (h, -h, h / 3, -h / 3, h / 2**30, -F(1, BIG20))]
    others = P(2 + F(1, BIG20), 0, 1) * P(-7, 1)  # no root in (lo, hi)
    for r in roots:
        for p in (P(-r, 1), P(-r * BIG20, BIG20), P(-r * BIG300, BIG300),
                  P(-r, 1) * others, P(-r * BIG300, BIG300) * others):
            iv = _root_interval(p, lo, hi)
            assert refine_root(p, iv, tol) == _reference_refine(p, iv, tol), (p, tol)
    assert refine_root(P(-on[0], 1), _root_interval(P(-on[0], 1), lo, hi), tol) == on[0]


@pytest.mark.parametrize("tol", [F(1, 10**9), F(1, 10**18), F(1, 10**40), F(1, 2**100)])
def test_refine_root_falls_back_to_bisection_on_wide_intervals(tol):
    """Isolating intervals that are wide against the root's curvature, where
    the Newton guesses miss, and big-numerator coefficients."""
    cases = [
        (P(-F(1, 2**100), 0, 0, 0, 0, 1), F(-1), F(1)),  # root 2^-20
        (P(-F(1, 10**30), 0, 0, 1), F(-1), F(2)),  # root 10^-10
        (P(-144, -1614, 29, 436, 18), F(0), F(128)),  # a guess lands on the root -2, outside
        (P(-1, 0, 0, 0, 0, 0, 0, 10**12), F(0), F(64)),
        (P(-BIG300 - 1, 3 * BIG300, 0, BIG300), F(0), F(1)),
        (P(F(-7, BIG20), 2 + F(1, BIG20), 1) * P(-BIG20, 10**19), F(1, 2), F(2)),
    ]
    for p, lo, hi in cases:
        iv = _root_interval(p, lo, hi)
        assert refine_root(p, iv, tol) == _reference_refine(p, iv, tol), (p, tol)


def test_refine_root_interval_already_below_tol():
    """K = 0: the interval is narrower than tol, so no bisection runs and the
    midpoint comes back, even when the root is elsewhere in the interval."""
    tol = F(1, 10**6)
    for p, lo, hi in ((P(-1, 3), F(1, 3) - tol / 4, F(1, 3) + tol / 3),
                      (P(-2, 0, 1), F(14142135, 10**7), F(14142136, 10**7))):
        iv = _root_interval(p, lo, hi)
        assert refine_root(p, iv, tol) == (lo + hi) / 2 == _reference_refine(p, iv, tol)


# -- dyadic isolation -------------------------------------------------------------


def _is_dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**20),
                min_size=2, max_size=8))
@example([F(1), F(1)])  # the rational bound 2 is a power of two already
@example([F(0), F(0), F(5)])  # no lower coefficient: bound 1
@example([F(1, 3), F(-1, 10**20 - 1)])
def test_cauchy_bound_is_the_least_power_of_two_above_the_rational_bound(coeffs):
    p = UniPoly(coeffs)
    if p.degree < 1:
        return
    rational = 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.lead)
    b = p.cauchy_bound()
    assert b.denominator == 1 and _is_dyadic(1 / b)
    assert rational <= b < 2 * rational


@st.composite
def shifted_integer_polys(draw):
    """Small integer polynomials, half of them with every nonzero
    coefficient shifted by +-1/d, d a 20-digit integer."""
    coeffs = draw(st.lists(st.integers(-8, 8), min_size=2, max_size=6))
    if draw(st.booleans()):
        coeffs = [c + F(draw(st.sampled_from((-1, 1))), draw(st.integers(10**19, 10**20 - 1)))
                  if c else c for c in coeffs]
    return UniPoly(coeffs)


@settings(max_examples=100, deadline=None)
@given(shifted_integer_polys(), st.sampled_from([F(1, 10**12), F(1, 10**40), F(3, 7)]))
@example(P(-20, 32, -13, 1), F(1, 10**12))  # (y - 2)(y - 10)(y - 1): integer roots
def test_isolation_and_refinement_are_dyadic(p, tol):
    if p.degree < 1:
        return
    sf, ivs = isolate_real_roots(p)
    for iv in ivs:
        assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)
        assert sturm_count(sf, iv.lo, iv.hi) == 1
        r = refine_root(sf, iv, tol)
        assert _is_dyadic(r)
        assert r == _reference_refine(sf, iv, tol)


def test_dyadic_roots_come_back_exact():
    y = P(0, 1)
    roots = real_roots((y - P(2)) * (y - P(10)) * (3 * y - P(1)), F(1, 10**12))
    assert roots[1:] == [2, 10]
    assert abs(roots[0] - F(1, 3)) < F(1, 10**12)
    assert real_roots(P(-1, 2) * P(3, 4) ** 2, F(1, 10**12)) == [F(-3, 4), F(1, 2)]


def _reference_sturm_count(p, lo, hi):
    """Distinct roots in (lo, hi] from a Sturm chain of Fraction polynomials."""
    chain = [p, p.deriv()]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)

    def variations(x):
        signs = [v > 0 for v in (q(x) for q in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=7), rationals, rationals)
def test_sturm_count_matches_fraction_reference(coeffs, x1, x2):
    sf = squarefree(UniPoly(coeffs)) if any(coeffs) else UniPoly(())
    if sf.degree < 1 or x1 == x2:
        return
    lo, hi = min(x1, x2), max(x1, x2)
    assert sturm_count(sf, lo, hi) == _reference_sturm_count(sf, lo, hi)


multipolys = st.builds(
    lambda terms: MultiPoly(("x", "y", "z"), dict(terms)),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), rationals), max_size=8))


@settings(max_examples=150, deadline=None)
@given(multipolys, st.sampled_from("xyzw"), rationals, st.sampled_from("xyzw"), multipolys)
# x = -1 cancels the z term, then x^2*z brings it back after y
@example(MultiPoly(("x", "y", "z"), {(1, 0, 1): F(1), (0, 0, 1): F(1), (0, 1, 0): F(1),
                                     (2, 0, 1): F(1)}), "x", F(-1), "w", MultiPoly.zero())
def test_subs_scalar_fold_matches_polynomial_expansion(p, v, q, v2, r):
    folded = p.subs({v: q})
    expanded = expand_subs(p, {v: MultiPoly.const(q)})
    assert folded.vars == expanded.vars
    assert list(folded.terms.items()) == list(expanded.terms.items())
    # subs folds rationals only: a polynomial value is not an exact rational
    with pytest.raises(AlgebraError):
        p.subs({v: q, v2: r})


# -- misc ------------------------------------------------------------------------


def test_uni_resultant_agrees_with_multipoly():
    rng = random.Random(3)
    for _ in range(25):
        p = UniPoly([rng.randint(-3, 3) for _ in range(4)], "y")
        q = UniPoly([rng.randint(-3, 3) for _ in range(3)], "y")
        if p.degree < 1 or q.degree < 1:
            continue
        r1 = uni_resultant(p, q)
        r2 = resultant(*(MultiPoly(("y",), {(k,): c for k, c in enumerate(u.coeffs) if c})
                         for u in (p, q)), "y")
        assert MultiPoly.const(r1) == r2


def test_real_roots_multiplicities_collapse():
    p = P(1, -1) ** 3 * P(3, 1)
    roots = real_roots(p, F(1, 10**12))
    assert len(roots) == 2
    assert abs(float(roots[0]) + 3) < 1e-11
    assert abs(float(roots[1]) - 1) < 1e-11


def test_multipoly_exact_div_and_pow():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    a = (x + y) ** 3 * (x - 2 * y)
    q = a.exact_div(x + y)
    assert q == (x + y) ** 2 * (x - 2 * y)
    with pytest.raises(AlgebraError):
        (x * x + y).exact_div(x + y)
