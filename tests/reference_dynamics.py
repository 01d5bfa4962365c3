"""Reference implementations that only the tests use.

* ``dop853_step`` is one Dormand-Prince 8(5,3) step on any field function,
  written out stage by stage from the tableau in ``pwham.dynamics``: the
  check on the steps that ``dynamics`` generates per zone with the field
  inlined.
* ``linear_arc`` is the exact arc of a linear zone written for reading: it
  lists the strip's finite edges on every call, takes each piece's least
  crossing time with ``min``, and holds the velocity f and its rate A f as
  tuples.  ``dynamics._linear_arc`` reads the edges from the ArcPlan,
  picks the least time in a loop and holds f and A f as scalars, with the
  same float operations in the same order; the tests require the two
  trajectories to be equal.
* ``zone_code_arguments``, ``edge_levels``, ``turning_points`` and
  ``linear_parts`` read a zone's floats through the exact rational views
  (``terms``, ``coeffs``, ``float`` of a Fraction), as the package did
  before it read them off the integer split: the check that every float
  reader (``dynamics._zone_code``, ``reach.edge_levels``,
  ``reach.turning_points``, ``dynamics._linear_parts``) gives the same
  floats, bit for bit.
"""

import math

from pwham import dynamics
from pwham.dynamics import _A, _B, _E3, _E5
from pwham.reach import _critical, _rows
from pwham.systems import _derive, local_forms

from reference_systems import restriction_by_subs


def dop853_step(f, x, y, h, k1):
    """One DOP853 step of length h > 0 from (x, y) with k1 = f(x, y); returns
    (xn, yn, err, kn): the eighth-order end point, the error norm of
    scipy's DOP853 (the fifth-order estimate, damped by the third-order
    one, scaled by ATOL + RTOL * |coordinate| with the current
    ``dynamics`` values; the step passes at err <= 1), and kn = f(xn, yn),
    the next step's k1."""
    k1x, k1y = k1
    a = _A[1]
    k2x, k2y = f(x + h * a[0] * k1x, y + h * a[0] * k1y)
    a = _A[2]
    k3x, k3y = f(x + h * (a[0] * k1x + a[1] * k2x), y + h * (a[0] * k1y + a[1] * k2y))
    a = _A[3]
    k4x, k4y = f(x + h * (a[0] * k1x + a[2] * k3x), y + h * (a[0] * k1y + a[2] * k3y))
    a = _A[4]
    k5x, k5y = f(x + h * (a[0] * k1x + a[2] * k3x + a[3] * k4x),
                 y + h * (a[0] * k1y + a[2] * k3y + a[3] * k4y))
    a = _A[5]
    k6x, k6y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x),
                 y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y))
    a = _A[6]
    k7x, k7y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x),
                 y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y))
    a = _A[7]
    k8x, k8y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x + a[6] * k7x),
                 y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y + a[6] * k7y))
    a = _A[8]
    k9x, k9y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x + a[6] * k7x
                          + a[7] * k8x),
                 y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y + a[6] * k7y
                          + a[7] * k8y))
    a = _A[9]
    k10x, k10y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x + a[6] * k7x
                            + a[7] * k8x + a[8] * k9x),
                   y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y + a[6] * k7y
                            + a[7] * k8y + a[8] * k9y))
    a = _A[10]
    k11x, k11y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x + a[6] * k7x
                            + a[7] * k8x + a[8] * k9x + a[9] * k10x),
                   y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y + a[6] * k7y
                            + a[7] * k8y + a[8] * k9y + a[9] * k10y))
    a = _A[11]
    k12x, k12y = f(x + h * (a[0] * k1x + a[3] * k4x + a[4] * k5x + a[5] * k6x + a[6] * k7x
                            + a[7] * k8x + a[8] * k9x + a[9] * k10x + a[10] * k11x),
                   y + h * (a[0] * k1y + a[3] * k4y + a[4] * k5y + a[5] * k6y + a[6] * k7y
                            + a[7] * k8y + a[8] * k9y + a[9] * k10y + a[10] * k11y))
    b = _B
    xn = x + h * (b[0] * k1x + b[5] * k6x + b[6] * k7x + b[7] * k8x + b[8] * k9x
                  + b[9] * k10x + b[10] * k11x + b[11] * k12x)
    yn = y + h * (b[0] * k1y + b[5] * k6y + b[6] * k7y + b[7] * k8y + b[8] * k9y
                  + b[9] * k10y + b[10] * k11y + b[11] * k12y)
    kn = f(xn, yn)
    sx = dynamics.ATOL + dynamics.RTOL * max(abs(x), abs(xn))
    sy = dynamics.ATOL + dynamics.RTOL * max(abs(y), abs(yn))
    e = _E5
    e5 = (((e[0] * k1x + e[5] * k6x + e[6] * k7x + e[7] * k8x + e[8] * k9x
            + e[9] * k10x + e[10] * k11x + e[11] * k12x) / sx) ** 2
          + ((e[0] * k1y + e[5] * k6y + e[6] * k7y + e[7] * k8y + e[8] * k9y
              + e[9] * k10y + e[10] * k11y + e[11] * k12y) / sy) ** 2)
    if not e5:
        return xn, yn, 0.0, kn
    e = _E3
    e3 = (((e[0] * k1x + e[5] * k6x + e[6] * k7x + e[7] * k8x + e[8] * k9x
            + e[9] * k10x + e[10] * k11x + e[11] * k12x) / sx) ** 2
          + ((e[0] * k1y + e[5] * k6y + e[6] * k7y + e[7] * k8y + e[8] * k9y
              + e[9] * k10y + e[10] * k11y + e[11] * k12y) / sy) ** 2)
    return xn, yn, h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)), kn


def linear_arc(plan, start, cfg, record, forward) -> dynamics.Trajectory:
    """Exact arc of a linear zone, in pieces of at most two e-foldings for
    a saddle (so that rounding in u0 + S1 f0 + S2 A f0 grows at most
    e^2-fold per piece).  A recorded arc has a sample at the end of every
    piece, and its pieces last at most MAX_STEP and 1/(16 |A|) (|A| the
    Frobenius norm): the velocity f, whose rate of change is A f, then
    changes by about 1/16 of itself at most between samples.  Each piece
    takes the least crossing time of the finite strip edges from its start;
    a hit is polished by Newton on x(t) - c and lands at exactly x = c.  A
    piece that ends at speed below 1e-12 ends the arc at the equilibrium it
    approaches.  A piece that ends with |x| or |y| beyond the window of
    ``cfg``, if it sets one, ends the arc left-window, whatever else it
    reached, and so does a piece that ends beyond the float range (|x|, |y|
    or the speed not finite), a piece whose crossing quadratic overflows
    (``dynamics._first_crossing`` raises OverflowError) and a start whose
    speed is not finite.  Without a window, a piece that starts where the
    arc crosses no edge (in time that tanh(rt/2) resolves) ends the arc
    there, left-window, when the arc leaves every bounded set and lands on
    no finite edge: for a saddle (e = r^2 > 0), in the closed form
    P + Q e^(rt) + W e^(-rt) of each coordinate (P = u - g/e,
    2Q = f/r + g/e), when the 2Q of x or of y exceeds 1e-9 times the sum
    of |f/r| + |g/e| over both coordinates, and x's limit (the side of its
    own Q, or its P when that 2Q is below 1e-9 of y's) lies on the
    strip's side of every finite edge; for e = 0 when the arc is not at
    rest (speed 1e-12 or more); for a center never."""
    ((a11, a12), (a21, a22)), (b1, b2), e = plan.linear
    hfun = plan.integral
    sign = 1.0 if forward else -1.0
    lo, hi = plan.lo, plan.hi
    x, y = float(start[0]), float(start[1])

    def field(x, y):
        return sign * (a11 * x + a12 * y + b1), sign * (a21 * x + a22 * y + b2)

    def rate(f):
        return sign * (a11 * f[0] + a12 * f[1]), sign * (a21 * f[0] + a22 * f[1])

    def escapes(x, f, g):
        if e <= 0:
            return e == 0 and math.hypot(*f) >= 1e-12
        r = math.sqrt(e)
        grow = [fk / r + gk / e for fk, gk in zip(f, g)]
        floor = 1e-9 * (abs(f[0] / r) + abs(g[0] / e) + abs(f[1] / r) + abs(g[1] / e))
        if max(map(abs, grow)) <= floor:
            return False
        if abs(grow[0]) > 1e-9 * abs(grow[1]):
            limit = math.copysign(math.inf, grow[0])
        else:
            limit = x - g[0] / e
        return all(out * (limit - c) <= 0 for c, out, _ in edges)

    dynamics._check_entry(x, y, field(x, y)[0], lo, hi)
    h0 = hfun(x, y)
    w = cfg.window
    piece = 2.0 / math.sqrt(e) if e > 0 else math.inf
    if record:
        norm = math.hypot(a11, a12, a21, a22)
        piece = min(piece, dynamics.MAX_STEP, 0.0625 / norm if norm else math.inf)

    edges = [(c, out, side) for c, out, side in ((lo, -1, "lo"), (hi, 1, "hi"))
             if math.isfinite(c)]

    t = 0.0
    samples = [(t, x, y)] if record else []
    edge = None
    status = None if math.isfinite(math.hypot(*field(x, y))) else "left-window"
    while status is None:
        f = field(x, y)
        g = rate(f)
        rest = cfg.max_time - t
        span = min(rest, piece)
        # the least crossing time; the first of equal times wins
        try:
            th, c, side = min(((dynamics._first_crossing(e, x, f[0], g[0], c, out), c, side)
                               for c, out, side in edges),
                              key=lambda hit: hit[0], default=(math.inf, None, None))
        except OverflowError:
            status = "left-window"
            break
        if w is None and th == math.inf and escapes(x, f, g):
            status = "left-window"
            break
        hit = th <= span * (1 + 1e-9)
        if hit:  # Newton on x(t) - c from the quadratic's root
            for _ in range(3):
                s1, s2 = dynamics._s12(e, th)
                miss = x + s1 * f[0] + s2 * g[0] - c
                rate = (1.0 + e * s2) * f[0] + s1 * g[0]
                if miss == 0 or rate == 0 or not 0 < th - miss / rate <= span * (1 + 1e-9):
                    break
                th -= miss / rate
        dt = th if hit else span
        s1, s2 = dynamics._s12(e, dt)
        x, y = x + s1 * f[0] + s2 * g[0], y + s1 * f[1] + s2 * g[1]
        t += dt
        if hit:
            x, edge, status = c, side, "reached-boundary"
        elif math.hypot(*field(x, y)) < 1e-12:
            status = "hit-equilibrium"
        elif span == rest:
            status = "reached-time-limit"
        if w is not None and (abs(x) > w or abs(y) > w):
            status, edge = "left-window", None
        elif not all(map(math.isfinite, (x, y, *(f if hit else field(x, y))))):
            status, edge = "left-window", None
        if record:
            samples.append((t, x, y))
    drift = abs(hfun(x, y) - h0) / max(1.0, abs(h0))
    return dynamics.Trajectory(samples, edge, status, (x, y), drift, 0, 0, 0)


def zone_code_arguments(zone, part: str, sign: int) -> tuple:
    """(support, arguments) that ``dynamics._zone_code`` hands its maker:
    the monomials of ``part`` ("field" or "integral") of the local forms,
    exponents descending, and the offset and each coefficient times sign,
    as float() of the exact Fraction."""
    num, den, fx, fy = local_forms(zone.payload)
    polys = (fx, fy) if part == "field" else (num, den)
    support = tuple(tuple(sorted(p.terms, reverse=True)) for p in polys)
    return support, (float(zone.payload.offset),
                     *[sign * float(p.terms[e]) for p, exps in zip(polys, support) for e in exps])


def edge_levels(zone) -> tuple:
    """``reach.edge_levels`` from the rational coefficients of the forms
    restricted by substitution (``restriction_by_subs``)."""
    out = []
    for c in (zone.x_lo, zone.x_hi):
        if c is not None:
            num, den = ([float(a) for a in reversed(p.coeffs)]
                        for p in restriction_by_subs(zone, c)[:2])
            width = max(len(num), len(den))
            num, den = ([0.0] * (width - len(p)) + p for p in (num, den))
            out.append(tuple(zip([-d for d in den], num)))
    return tuple(out)


def turning_points(zone):
    """``reach.turning_points`` from the ``terms`` of the local forms: the
    same ``_critical`` polynomial on the exact Fraction coefficients, met in
    the same order, and made primitive by clearing its denominators and
    dividing by the gcd of its numerators."""
    num, den = local_forms(zone.payload)[:2]
    level = [{} for _ in range(max(e[0] for e in (*num.terms, *den.terms)) + 1)]
    for p, k, s in ((num, 0, 1), (den, 1, -1)):
        for e, c in p.terms.items():
            level[e[0]][e[1], k] = s * c
    t = _critical(level)
    if t is None:
        return None
    q = math.lcm(*(c.denominator for c in t.values()))
    ints = {e: int(c * q) for e, c in t.items()}
    g = math.gcd(*ints.values()) or 1
    return _rows({e: c // g for e, c in ints.items()})


def linear_parts(zone) -> tuple:
    """``dynamics._linear_parts`` from the Fraction coefficients of the
    derived field (``systems._derive``: a linear payload is written in
    absolute x), reversal applied, and e = a11^2 + a12 a21 computed on
    Fractions."""
    s = -1 if zone.reverse else 1
    (a11, a12, b1), (a21, a22, b2) = ([s * p.terms.get(k, 0) for k in ((1, 0), (0, 1), (0, 0))]
                                      for p in _derive(zone.payload)[2:])
    return (((float(a11), float(a12)), (float(a21), float(a22))),
            (float(b1), float(b2)), float(a11 * a11 + a12 * a21))
