"""Where an arc of one zone can go, per zone and per level h of the first
integral.  Every question reads a polynomial T(w, h) in one form, its rows
of coefficients (``_rows``), whose real roots in w at h hold the places
that decide it: the landings on each finite edge x = c, the roots in y of
N(c, y) - h D(c, y) (``edge_levels``), and the ordinates where the level
curve turns in y, the critical points of N - h D in X (``turning_points``).
``dynamics.ArcPlan.escaped`` reads them by a one-sign test past every root
on the arc's side (``beyond_every_root``): an arc moving away from y = 0
past all of them can land on no edge again.
"""

from __future__ import annotations

from math import gcd

from .systems import Zone, local_forms, restriction


def no_root_beyond(cs, mags, a: float) -> bool:
    """True when the polynomial with float coefficients ``cs``, highest
    degree first, has no real root at or beyond a >= 0: each coefficient
    of its Taylor shift p(a + s) has the leading one's sign, by more than
    1e-9 times that of the shift of ``mags``, bounds on the coefficients'
    moduli that scale their rounding (Descartes' rule of signs; Collins &
    Akritas).  False for the zero polynomial and on NaN."""
    p, q = list(cs), list(mags)
    while p and p[0] == 0 and q[0] == 0:
        del p[0], q[0]
    sign = 1.0 if p and p[0] > 0 else -1.0
    for i in range(len(p) - 1, -1, -1):  # each pass fixes coefficient i
        for j in range(1, i + 1):
            p[j] += a * p[j - 1]
            q[j] += a * q[j - 1]
        if not sign * p[i] > 1e-9 * q[i]:
            return False
    return bool(p)


def edge_levels(zone: Zone) -> tuple:
    """The ``_rows`` of each finite edge x = c of the zone, of its level
    polynomial N(c, y) - h D(c, y) (``systems.restriction``) in (y, h): an
    arc on the level h lands on the edge only at a real root in y."""
    out = []
    for c in (zone.x_lo, zone.x_hi):
        if c is not None:
            num, den = (p.floats()[::-1] for p in restriction(zone, c)[:2])
            width = max(len(num), len(den))
            num, den = ((0.0,) * (width - len(p)) + p for p in (num, den))
            out.append(tuple(zip([-d for d in den], num)))
    return tuple(out)


def _mul(a: dict, b: dict) -> dict:
    """Product of two polynomials in (w, h), as {(power of w, power of h):
    integer coefficient}."""
    out: dict = {}
    for (i, j), u in a.items():
        for (k, m), v in b.items():
            e = i + k, j + m
            out[e] = out.get(e, 0) + u * v
    return out


def _add(a: dict, b: dict, s: int = 1) -> dict:
    """a + s b, for polynomials as in ``_mul``."""
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + s * v
    return out


def _critical(Q: list):
    """T(w, h), whose real roots in w at a level h hold the w of every real
    zero of L = dL/dv = 0, for L given by its coefficients Q over the powers
    of v (ascending), each a polynomial in (w, h): Res_v(dL/dv, L) up to a
    constant factor, reduced as ``algebra.resultant`` reduces it, down to
    sum_k q_k (-p0)^k p1^(n-k) for the side p1 v + p0 linear in v.  None when
    L is at most linear in v: w is then monotone on the curve, or fixed."""
    P = [{e: k * c for e, c in a.items()} for k, a in enumerate(Q)][1:]
    if len(P) < 2:
        return None
    while len(P) > 2:  # (Q, P) <- (P, lc(P)^e Q mod P)
        R = Q
        while len(R) >= len(P):  # R <- lc(P) R - lc(R) v^d P drops R's top term
            d, lead = len(R) - len(P), R[-1]
            R = [_add(_mul(P[-1], R[i]), _mul(lead, P[i - d]), -1) if i >= d
                 else _mul(P[-1], R[i]) for i in range(len(R) - 1)]
        Q, P = P, R
    p0, p1 = P
    T: dict = {}
    for k, qk in enumerate(Q):
        for _ in range(k):
            qk = _mul(qk, p0)
        for _ in range(len(Q) - 1 - k):
            qk = _mul(qk, p1)
        T = _add(T, qk, (-1) ** k)
    return T


def turning_points(zone: Zone):
    """Ty, the ``_rows`` of the ``_critical`` polynomial in y of the level
    polynomial L = N - h D of the local frame X = x + offset, over X: the y
    of its points where dL/dX = 0.  The field is m/D (dL/dy, -dL/dX) on the
    level curve, m the integrating factor, so Ty holds every point off
    D = 0 where dy/dt vanishes.  L is read on the integer parts of N and D,
    times one positive integer, and T, divided by the gcd of its
    coefficients, is the primitive integer polynomial whose floats the rows
    hold.  None where L is at most linear in X."""
    num, den = local_forms(zone.payload)[:2]
    (a, b), (c, d) = num.content.as_integer_ratio(), den.content.as_integer_ratio()
    level = [{} for _ in range(max(e[0] for e in (*num.ints, *den.ints)) + 1)]
    for k, (p, s) in enumerate(((num, a * d), (den, -c * b))):  # L b d
        for e, v in p.ints.items():
            level[e[0]][e[1], k] = s * v
    t = _critical(level)
    if t is None:
        return None
    g = gcd(*t.values()) or 1
    return _rows({e: v // g for e, v in t.items()})


def _rows(T: dict) -> tuple:
    """T(w, h), with integer coefficients, as its coefficients in w, highest
    power first, each the tuple of its coefficients in h, highest power
    first (Horner's order): each one's float, or, where the largest has
    more than 1000 bits, the float of its quotient by one power of two that
    leaves the largest 1000, so that none overflows."""
    keys = [e for e, c in T.items() if c]
    nw = max((i for i, _ in keys), default=-1)
    nh = max((j for _, j in keys), default=0)
    scale = 1 << max(0, max((abs(T[e]).bit_length() for e in keys), default=0) - 1000)
    rows = [[0.0] * (nh + 1) for _ in range(nw + 1)]
    for i, j in keys:
        rows[nw - i][nh - j] = T[i, j] / scale  # correctly rounded, as float()
    return tuple(map(tuple, rows))


def beyond_every_root(rows: tuple, w: float, h: float) -> bool:
    """True when |w| lies beyond every real root on w's side of T(w, h),
    for T given as ``_rows``: ``no_root_beyond`` |w| of T(w, h), or of
    T(-w, h) for w < 0, with the moduli at |h| of T's coefficients as the
    scale of their rounding.  False for a NaN h, and for an infinite one
    wherever T depends on h."""
    cs, mags = [], []
    ah = abs(h)
    for k, row in enumerate(rows, 1 - len(rows)):  # k: minus the power of w
        v = m = 0.0
        for c in row:
            v = v * h + c
            m = m * ah + abs(c)
        cs.append(v if w > 0 or k % 2 == 0 else -v)
        mags.append(m)
    return no_root_beyond(cs, mags, abs(w))
