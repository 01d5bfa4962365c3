"""Exact algebra layer: resultants, squarefree parts, Sturm isolation,
bisection refinement."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    sturm_chain,
    sturm_count,
    sturm_isolate,
)

import reference_algebra as ref
from reference_algebra import expand_subs, poly_divmod, uni_resultant


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
        rem = poly_divmod(chain[-2], chain[-1])[1]
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


# -- integer kernels against their Fraction references ----------------------------

# small rationals, 20-digit and about 300-bit numbers (the bigcoef scale),
# every sign
coefficients = st.one_of(
    rationals,
    st.builds(F, st.integers(-10**20, 10**20), st.integers(10**19, 10**20)),
    st.builds(F, st.integers(-2**300, 2**300), st.integers(2**299, 2**300)),
)
# zero, constant and nonconstant, with any leading coefficient
unipolys = st.lists(coefficients, max_size=5).map(UniPoly)


@settings(max_examples=100, deadline=None)
@given(unipolys, unipolys, unipolys)
# negative, non-unit leading coefficients and degree gaps of 1 and 2
@example(P(1, 2, 3, -5), P(1, -3), P(2, -7))
@example(P(4, 0, 1, -6, 2), P(1, 3, -2), P(-1, -2))
@example(P(), P(), P(1))
@example(P(3), P(), P(1, 1))
def test_gcd_matches_fraction_remainder_sequence(a, b, c):
    for p, q in ((a * c, b * c), (a, b), (a * c, c)):
        g = p.gcd(q)
        assert g.coeffs == ref.gcd(p, q).coeffs
        assert all(type(x) is F for x in g.coeffs)


@settings(max_examples=100, deadline=None)
@given(unipolys, unipolys)
@example(P(-2, 3), P(1, 0, -4))  # a linear factor squared, negative leads
@example(P(5), P())
def test_squarefree_and_exact_div_match_fraction_division(a, b):
    p = a * b * b
    if p.is_zero:
        return
    assert squarefree(p).coeffs == ref.squarefree(p).coeffs
    if not b.is_zero:
        assert p.exact_div(b).coeffs == poly_divmod(p, b)[0].coeffs == (a * b).coeffs
        if b.degree >= 1:
            with pytest.raises(AlgebraError):
                (p + UniPoly((1,))).exact_div(b)


@settings(max_examples=100, deadline=None)
@given(unipolys, unipolys)
@example(P(-1, 0, 0, -7), P(1))
# 5 y^4 + 2 y - 2 by -3 y^2 + 8 y + 10: two division steps by a negative lead
@example(P(-2, -2, 1, 0, 0, 1), P(1))
@example(P(), P())
@example(P(F(-3, 5)), P())
def test_sturm_chain_matches_content_reduced_fraction_chain(a, b):
    for p in (a, a * b, a * b * b):
        assert sturm_chain(p) == ref.sturm_chain(p)


var_sets = st.sampled_from([(), ("a",), ("a", "b"), ("b", "c"), ("c",)])


def polys_over(vs, cs=coefficients, top=2):
    """Polynomials of up to three terms over the variables vs, of degree up
    to top in each."""
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * len(vs)), cs,
                           max_size=3).map(lambda t: MultiPoly(vs, t))


@st.composite
def polys_in_v(draw, lo: int, hi: int, cs=coefficients, top=2):
    """A polynomial of degree lo to hi in v, its coefficients polynomials
    over one drawn variable set (``polys_over``)."""
    vs = draw(var_sets)
    pc = [draw(polys_over(vs, cs, top)) for _ in range(draw(st.integers(lo, hi)) + 1)]
    if pc[-1].is_zero:
        pc[-1] = MultiPoly.const(draw(cs.filter(bool)), vs)
    return sum((c * MultiPoly.var("v")**i for i, c in enumerate(pc)), MultiPoly.zero())


@st.composite
def linear_pivot_pairs(draw):
    """p of degree >= 1 and q of degree 1 in v, their coefficients
    polynomials over variable sets drawn apart."""
    p, qv = draw(polys_in_v(1, 3)), draw(var_sets)
    q1 = draw(polys_over(qv))
    if q1.is_zero:
        q1 = MultiPoly.const(-3, qv)
    return p, q1 * MultiPoly.var("v") + draw(polys_over(qv))


@settings(max_examples=100, deadline=None)
@given(linear_pivot_pairs())
def test_linear_pivot_resultant_matches_fraction_formula(pq):
    p, q = pq
    expected = ref.linear_resultant(p, q, "v")
    r = resultant(p, q, "v")
    assert r.vars == expected.vars and r.terms == expected.terms
    # the linear q first takes the dp == 1 branch, which swaps back with the
    # sign of Res(q, p) = (-1)^(deg p deg q) Res(p, q)
    swapped = resultant(q, p, "v")
    assert swapped.terms == (expected if p.degree("v") % 2 == 0 else -expected).terms


@st.composite
def general_pairs(draw):
    """p and q of degree 2 to 4 in v, with coefficients over variable sets
    drawn apart, and a rational point of (a, b, c) where both leading
    coefficients in v are nonzero."""
    p, q = (draw(polys_in_v(2, 4, rationals, 1)) for _ in range(2))
    point = {name: draw(rationals) for name in "abc"}
    assume(all(not f.coeffs_in("v")[-1].subs(point).is_zero for f in (p, q)))
    return p, q, point


@settings(max_examples=100, deadline=None)
@given(general_pairs())
def test_general_resultant_specialises_to_the_univariate_one(pqa):
    """Where both leading coefficients in v stay nonzero, the resultant
    commutes with specialising the other variables: resultant(p, q, v) at
    the point equals the Sylvester determinant of the specialised pair, in
    both argument orders."""
    p, q, point = pqa
    for a, b in ((p, q), (q, p)):
        expected = uni_resultant(*(f.subs(point).as_unipoly("v") for f in (a, b)))
        assert resultant(a, b, "v").subs(point) == MultiPoly.const(expected)


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


def test_multipoly_integer_coefficients_stay_exact():
    """Integer coefficients give exact answers: (4x^2 + 2) / (2x^2 + 1) is
    the rational 2, not a float, and 3p is proportional to p for
    coefficients near 10^20, past a float's 53 bits."""
    q = MultiPoly(("x",), {(2,): 4, (0,): 2}).exact_div(MultiPoly(("x",), {(2,): 2, (0,): 1}))
    assert q.terms == {(0,): 2} and all(type(c) is F for c in q.terms.values())
    p = MultiPoly(("x", "y"), {(1, 0): 10**20 + 1, (0, 1): 10**20 + 3})
    assert MultiPoly(p.vars, {e: 3 * c for e, c in p.terms.items()}).is_proportional_to(p)


# -- the content/primitive split -------------------------------------------------

# short rationals and rationals with 20-digit denominators, as on bigcoef
long_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-10**21, 10**21), st.integers(10**19, 10**20)))
XY = ("x", "y")
xy_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), long_rationals,
                           max_size=5)


@st.composite
def xy_polys(draw):
    """A term dict over (x, y) with a nonzero x^2 y^2 term, so that both
    variables keep a positive degree."""
    return {**draw(xy_terms), (2, 2): draw(long_rationals.filter(bool))}


@settings(max_examples=100, deadline=None)
@given(xy_polys(), xy_terms, long_rationals.filter(bool), long_rationals.filter(bool))
def test_the_split_is_one_form_however_the_polynomial_is_built(t, t2, c, w):
    """The same polynomial built from Fractions, from integers with a
    content, by arithmetic and by substitution compares equal, hashes equal
    and gives identical ``terms``, with Fraction values; so do its
    univariate forms and ``coeffs``."""
    p, q = MultiPoly(XY, t), MultiPoly(XY, t2)
    den = math.lcm(*(v.denominator for v in t.values()))
    ways = [
        MultiPoly.from_ints(XY, {e: 6 * v.numerator * (den // v.denominator)
                                 for e, v in t.items() if v}, F(1, 6 * den)),
        (p * c) * (1 / c),
        (p + q) - q,
        -(-p),
        MultiPoly(("w", *XY), {(k, *e): v * w**k for k, (e, v) in enumerate(t.items())}
                  ).subs({"w": 1 / w}),
    ]
    for other in ways:
        assert other == p and hash(other) == hash(p)
        assert other.vars == p.vars and other.terms == p.terms
        assert all(type(v) is F for v in other.terms.values())
    # over one more variable, of degree 0: equal, so hashed alike
    wider = MultiPoly((*XY, "z"), {(*e, 0): v for e, v in t.items()})
    assert wider == p and hash(wider) == hash(p)
    u = p.subs({"y": c}).as_unipoly("x")
    for other in (UniPoly(u.coeffs, "x"), UniPoly.from_ints(u.ints, u.content, "x"),
                  (u + UniPoly([w], "x")) - UniPoly([w], "x"), (u * w) * (1 / w)):
        assert other == u and hash(other) == hash(u) and other.coeffs == u.coeffs
        assert all(type(v) is F for v in other.coeffs)


XYZ = ("x", "y", "z")


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), long_rationals, max_size=6),
       st.dictionaries(st.sampled_from(XYZ), long_rationals), st.sampled_from(XYZ))
@example({(1, 0, 1): F(1), (0, 0, 1): F(-1), (0, 2, 0): F(2)}, {"x": F(1)}, "y")
@example({(1, 0, 1): F(1), (0, 1, 0): F(2)}, {"x": F(1)}, "y")
def test_univariate_is_subs_then_as_unipoly(t, mapping, var):
    """Substituting to one variable in one pass gives what ``subs`` then
    ``as_unipoly`` give and what the plain-Fraction substitution of
    ``reference_algebra`` gives, as a polynomial in var; both raise exactly
    where another variable keeps a positive exponent, which a variable
    whose terms cancel does not (the first example)."""
    p = MultiPoly(XYZ, t)
    vs, terms = ref.frac_subs(XYZ, p.terms, mapping)
    if any(k for e in terms for v, k in zip(vs, e) if v != var):
        for convert in (lambda: p.univariate(mapping, var),
                        lambda: p.subs(mapping).as_unipoly(var)):
            with pytest.raises(AlgebraError):
                convert()
        return
    got = p.univariate(mapping, var)
    powers = {(e[vs.index(var)] if var in vs else 0): c for e, c in terms.items()}
    assert got.var == var and got == p.subs(mapping).as_unipoly(var)
    assert got.coeffs == tuple(powers.get(k, 0) for k in range(max(powers, default=-1) + 1))


@settings(max_examples=100, deadline=None)
@given(xy_polys(), xy_polys(), long_rationals)
def test_split_arithmetic_matches_the_fraction_reference(t, t2, a):
    """+, *, subs, diff, coeffs_in and exact_div on the split give the
    plain-Fraction reference's terms."""
    p, q = MultiPoly(XY, t), MultiPoly(XY, t2)
    assert (p + q).terms == ref.frac_add(p.terms, q.terms)
    assert (p * q).terms == ref.frac_mul(p.terms, q.terms)
    folded = p.subs({"x": a})
    assert (folded.vars, folded.terms) == ref.frac_subs(XY, p.terms, {"x": a})
    assert p.diff("y").terms == ref.frac_diff(XY, p.terms, "y")
    assert [c.terms for c in p.coeffs_in("x")] == ref.frac_coeffs_in(XY, p.terms, "x")
    pq = p * q
    assert pq.exact_div(q).terms == ref.frac_div(pq.terms, q.terms) == p.terms
