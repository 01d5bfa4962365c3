"""Planar vector-field families and the piecewise-system container.

Four zone families are supported.  Each is defined by one formula: its exact
first integral H = num/den in the local frame X = x + offset, together with
an integrating factor m, so that the field is m * (H_y, -H_x):

* ``DoubleCenter``  (m = -1)  -- quadratic Hamiltonian field with centers at
  (0,0) and (0,1/n) in shifted coordinates,
* ``GlobalCenter``  (m = y^3) -- integrable quadratic field whose rational
  first integral fills the upper half plane with closed orbits,
* ``CubicCenter``   (m = 1)   -- general cubic Hamiltonian whose origin is a
  center exactly when b - a^2 > 0,
* ``LinearSaddle``  (m = 1)   -- affine linear Hamiltonian piece in absolute
  x; a saddle when beta^2 - alpha*delta > 0 and a linear center when it is
  negative.

The contract of a family: its integral num/den and factor m are affine in
each parameter (every field but ``offset``), with no product of two
parameters, and the payload with every parameter 1, or with one of them 2,
is valid.  Then so is each of the derived forms (num, den, fx, fy), and the
family's template (``_template``) holds them once, as an affine coefficient
row per monomial, read off ``_derive`` at those points the first time a
payload of the family is used; nothing is derived at import, and nothing
else in the package calls ``_derive``.  A payload's exact forms in its
local frame (``local_forms``), their restriction to a switching line
(``restriction``) and the compiled float closures in ``dynamics`` (one
compile per distinct monomial support) all come from the template, and so
does every piece of linear-zone geometry: ``linear_part`` reads the affine
field A u + b of a ``linear`` payload exactly from its local forms, and the
saddle's equilibrium, its separatrices (``separatrix_lines``) and the exact
arcs in ``dynamics`` are built on it.  The integral in absolute x is
derived only by the tests, as their check on the template.  Adding a family
means adding one ``@_frozen`` payload class with its ``kind`` name and
``first_integral`` (numerator, denominator and integrating factor), listed
in ``FAMILIES``.  The only per-family code beyond that is here
(``mirror_payload`` and the closed-form equilibria of the nonlinear
families) and in the theorem-bound table of ``solver``; no other module
names a family class.

A ``Zone`` places a family on a vertical strip (optionally time-reversed;
reversal flips the flow direction but not the level sets, and it matters for
the crossing-versus-sliding classification on the switching lines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import ClassVar, Optional, Union

from .algebra import MultiPoly, RatLike, UniPoly, rat, restrictions

X = "x"
Y = "y"


class SystemError(ValueError):
    """Raised for invalid system definitions or degenerate requests."""


# ---------------------------------------------------------------------------
# zone payloads
# ---------------------------------------------------------------------------


def _frozen(cls):
    """Make a frozen dataclass that hashes once, since payloads and zones
    key the caches below and long rationals are slow to hash.  A payload
    class also has a ``kind`` name and ``first_integral(X, y) -> (num,
    den, m)``: num/den in the local frame and the factor m of its field
    m * (H_y, -H_x)."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_frozen
class DoubleCenter:
    """dx/dt = -y + l*X^2 + n*y^2,  dy/dt = X + p*X^2 - 2*l*X*y,  X = x+offset.

    For n != 0 the field has centers at X=0, y=0 and y=1/n.  n = 0 is the
    degenerate single-center member (it is what a continuous match with a
    linear piece forces, so it is accepted)."""

    kind: ClassVar[str] = "double_center"
    l: Fraction
    n: Fraction
    p: Fraction
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        for f in ("l", "n", "p", "offset"):
            object.__setattr__(self, f, rat(getattr(self, f)))

    def first_integral(self, X: MultiPoly, y: MultiPoly) -> tuple:
        num = (Fraction(1, 2) * (X * X + y * y) - self.l * X * X * y
               - Fraction(self.n, 3) * y ** 3 + Fraction(self.p, 3) * X ** 3)
        return num, 1, -1


@_frozen
class GlobalCenter:
    """dx/dt = y - 2*X^2 - xi,  dy/dt = -2*X*y, with X = x+offset, xi > 0.

    The first integral (X^2 - y + xi/2) / y^2 is rational; y = 0 is its
    singular locus and bounds the period annulus around (X,y) = (0, xi)."""

    kind: ClassVar[str] = "global_center"
    xi: Fraction
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "xi", rat(self.xi))
        object.__setattr__(self, "offset", rat(self.offset))
        if self.xi <= 0:
            raise SystemError("global center requires xi > 0")

    def first_integral(self, X: MultiPoly, y: MultiPoly) -> tuple:
        return X * X - y + self.xi / 2, y * y, y ** 3


@_frozen
class CubicCenter:
    """Hamiltonian field of G = p*X^3 + q*y^3 + r*X^2*y + s*X*y^2
    - X^2/2 - a*X*y - b*y^2/2 (with X = x+offset):

        dx/dt = G_y = 3q*y^2 + r*X^2 + 2s*X*y - a*X - b*y
        dy/dt = -G_x = X + a*y - 3p*X^2 - 2r*X*y - s*y^2

    The origin (X=0, y=0) is a center iff b - a^2 > 0."""

    kind: ClassVar[str] = "cubic_center"
    a: Fraction
    b: Fraction
    p: Fraction = Fraction(0)
    q: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        for f in ("a", "b", "p", "q", "r", "s", "offset"):
            object.__setattr__(self, f, rat(getattr(self, f)))

    def first_integral(self, X: MultiPoly, y: MultiPoly) -> tuple:
        num = (self.p * X ** 3 + self.q * y ** 3 + self.r * X * X * y
               + self.s * X * y * y - Fraction(1, 2) * X * X
               - self.a * X * y - Fraction(self.b, 2) * y * y)
        return num, 1, 1


@_frozen
class LinearSaddle:
    """dx/dt = -beta*x - delta*y + mu,  dy/dt = alpha*x + beta*y + gamma.

    Hamiltonian for every parameter choice; a saddle exactly when
    beta^2 - alpha*delta > 0 (eigenvalues +/- sqrt of that), a linear center
    when negative.  Fixture systems use both, so neither is rejected."""

    kind: ClassVar[str] = "linear"
    offset: ClassVar[Fraction] = Fraction(0)  # written in absolute x
    alpha: Fraction
    beta: Fraction
    delta: Fraction
    mu: Fraction
    gamma: Fraction

    def __post_init__(self):
        for f in ("alpha", "beta", "delta", "mu", "gamma"):
            object.__setattr__(self, f, rat(getattr(self, f)))

    @property
    def is_saddle(self) -> bool:
        """e > 0 for the e of ``linear_part``, from the parameters: the
        input generators test it on many payloads that are never solved."""
        return self.beta * self.beta - self.alpha * self.delta > 0

    def first_integral(self, X: MultiPoly, y: MultiPoly) -> tuple:
        num = (-self.gamma * X + self.mu * y - self.beta * X * y
               - Fraction(1, 2) * (self.alpha * X * X + self.delta * y * y))
        return num, 1, 1


Payload = Union[DoubleCenter, GlobalCenter, CubicCenter, LinearSaddle]

# the kind names of the spec file and reports
FAMILIES = {cls.kind: cls for cls in (DoubleCenter, GlobalCenter, CubicCenter,
                                      LinearSaddle)}


@_frozen
class Zone:
    """A payload on the open vertical strip (x_lo, x_hi); None is +/-infinity.
    ``reverse`` runs the field backwards in time."""

    payload: Payload
    x_lo: Optional[Fraction] = None
    x_hi: Optional[Fraction] = None
    reverse: bool = False

    @property
    def kind(self) -> str:
        return self.payload.kind


@dataclass(frozen=True)
class PiecewiseSystem:
    """Ordered zones (left to right) split by vertical lines x = c_i."""

    zones: tuple[Zone, ...]
    boundaries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.zones) != len(self.boundaries) + 1:
            raise SystemError("zone count must be boundary count + 1")
        if any(b1 >= b2 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise SystemError("boundaries must be strictly increasing")

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(z.kind for z in self.zones)


def piecewise_system(payloads: list[Payload], boundaries: list[RatLike],
                     reverse: list[bool] | None = None) -> PiecewiseSystem:
    """Assemble a PiecewiseSystem, deriving each zone's strip."""
    bs = tuple(rat(b) for b in boundaries)
    if reverse is None:
        reverse = [False] * len(payloads)
    zones = []
    for i, p in enumerate(payloads):
        lo = bs[i - 1] if i > 0 else None
        hi = bs[i] if i < len(bs) else None
        zones.append(Zone(p, lo, hi, reverse[i]))
    return PiecewiseSystem(tuple(zones), bs)


# ---------------------------------------------------------------------------
# fields and first integrals (exact), derived from each family's integral
# ---------------------------------------------------------------------------


def _xy(v) -> MultiPoly:
    """A polynomial (or rational constant) over both variables x and y."""
    return MultiPoly.zero((X, Y)) + v


def _derive(p: Payload) -> tuple[MultiPoly, ...]:
    """(num, den, fx, fy): the first integral num/den in the local frame,
    written in the variable x, and the forward field m * (H_y, -H_x) by
    exact differentiation.  A polynomial integral has den = 1 and a
    constant m; for a rational one the quotient rule leaves den^2 under the
    derivatives, and m cancels it."""
    num, den, m = p.first_integral(MultiPoly.var(X), MultiPoly.var(Y))
    num = _xy(num)
    if den == 1:
        return num, _xy(1), num.diff(Y) * m, num.diff(X) * -m
    den, m = _xy(den), _xy(m)
    den2 = den * den
    fx = (m * (num.diff(Y) * den - num * den.diff(Y))).exact_div(den2)
    fy = (-m * (num.diff(X) * den - num * den.diff(X))).exact_div(den2)
    return num, den, fx, fy


@lru_cache(maxsize=None)
def _template(cls) -> tuple:
    """(names, den, forms): the family's parameters, the fields other than
    ``offset``, and its exact forms as affine functions of them over one
    denominator.  For each of (num, den, fx, fy) in the local frame,
    ``forms`` holds the rows (exponent, (constant, weight of each
    parameter)), all integers, so that the monomial's coefficient at
    parameter values v is (constant + sum(weight * v)) / den.

    Read off ``_derive`` at the base point where every parameter is 1 and at
    one point per parameter with that parameter 2: exact because every
    family's integral, hence its field, is affine in each parameter and has
    no product of two of them.  Built on first use, once per family."""
    names = tuple(f.name for f in fields(cls) if f.name != "offset")
    ones = dict.fromkeys(names, 1)
    derived = [_derive(cls(**point)) for point in [ones] + [{**ones, n: 2} for n in names]]
    den = math.lcm(*(f.content.denominator for forms in derived for f in forms))
    base, *steps = ([{e: int(c * den) for e, c in f.terms.items()} for f in forms]
                    for forms in derived)
    out = []
    for k, b in enumerate(base):
        rows = []
        for e in sorted(set(b).union(*(s[k] for s in steps))):
            w = [s[k].get(e, 0) - b.get(e, 0) for s in steps]
            rows.append((e, (b.get(e, 0) - sum(w), *w)))
        out.append(tuple(rows))
    return names, den, tuple(out)


@lru_cache(maxsize=8)
def local_forms(p: Payload) -> tuple[MultiPoly, ...]:
    """(num, den, fx, fy) in the payload's local frame X = x + offset,
    written in the variable x: the family's template (``_template``) at the
    payload's parameters, summed on integers over their common denominator.
    ``dynamics`` compiles these, so that it evaluates in the shifted frame."""
    names, den, forms = _template(type(p))
    v = [getattr(p, n) for n in names]
    q = math.lcm(*(x.denominator for x in v))
    v = [q, *(x.numerator * (q // x.denominator) for x in v)]
    return tuple(MultiPoly.from_ints((X, Y), {e: sum(map(mul, row, v)) for e, row in rows},
                                     den=den * q)
                 for rows in forms)


@lru_cache(maxsize=16)
def restriction(zone: Zone, c: Fraction) -> tuple[UniPoly, ...]:
    """(N, D, fx, fy): the zone's first integral N/D and its field (reversal
    applied) on the line x = c, as polynomials in y: the local forms at
    X = c + offset, folded in one call (``algebra.restrictions``) that
    makes the powers of X once for all four.  Every boundary equation is
    built from these: the matcher's level pairs and transports, its
    excluded ordinates, and the continuity test."""
    num, den, fx, fy = restrictions(local_forms(zone.payload), X, rat(c) + zone.payload.offset)
    return (num, den, -fx, -fy) if zone.reverse else (num, den, fx, fy)


# ---------------------------------------------------------------------------
# linear parts and equilibria
# ---------------------------------------------------------------------------


def linear_part(p: LinearSaddle) -> tuple:
    """(A, b, e): the forward field A u + b of a ``linear`` payload, read
    exactly from its field polynomials (``local_forms``: a linear payload is
    written in absolute x, so its local frame is the absolute one), with
    A = ((a11, a12), (a21, a22)), b = (b1, b2) and e = a11^2 + a12*a21.

    The trace is 0 (the field is Hamiltonian), so A^2 = e I and
    det A = -e: a saddle when e > 0, a linear center when e < 0."""
    _, _, fx, fy = local_forms(p)
    (a11, a12, b1), (a21, a22, b2) = (
        [poly.ints.get(k, 0) * content for k in ((1, 0), (0, 1), (0, 0))]
        for poly, content in ((fx, fx.content), (fy, fy.content)))
    return ((a11, a12), (a21, a22)), (b1, b2), a11 * a11 + a12 * a21


def separatrix_lines(zone: Zone) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """The two invariant lines through a linear saddle as (point, unit
    direction) pairs, one eigenvector of A per eigenvalue +/- sqrt(e); []
    for every other zone.  Read from the forward field, so reversal keeps
    the order of the lines."""
    if zone.kind != "linear":
        return []
    ((a11, a12), (a21, a22)), _, e = linear_part(zone.payload)
    if e <= 0:
        return []
    (ex, ey), = equilibria(zone)
    pt = (float(ex), float(ey))
    root = math.sqrt(float(e))
    a11, a12, a21, a22 = float(a11), float(a12), float(a21), float(a22)
    out = []
    for lam in (root, -root):
        # first row of A - lam: (a11 - lam) vx + a12 vy = 0
        if a12 != 0:
            v = (1.0, (lam - a11) / a12)
        elif abs(lam - a11) > 1e-12:
            v = (0.0, 1.0)
        else:
            # the first row vanishes (lam = a11 = -a22); the second,
            # a21 vx + (a22 - lam) vy = 0, has a22 - lam = 2 a22
            v = (2.0 * a22, -a21)
        n = math.hypot(*v)
        out.append((pt, (v[0] / n, v[1] / n)))
    return out


def equilibria(zone: Zone) -> list[tuple[Fraction, Fraction]]:
    """Exact equilibria with closed forms (used for plots and screens)."""
    p = zone.payload
    if isinstance(p, DoubleCenter):
        pts = [(-p.offset, Fraction(0))]
        if p.n != 0:
            pts.append((-p.offset, 1 / p.n))
        return pts
    if isinstance(p, GlobalCenter):
        return [(-p.offset, p.xi)]
    if isinstance(p, LinearSaddle):
        # A u + b = 0 with A^-1 = A / e
        ((a11, a12), (a21, a22)), (b1, b2), e = linear_part(p)
        if e == 0:
            return []
        return [(-(a11 * b1 + a12 * b2) / e, -(a21 * b1 + a22 * b2) / e)]
    if isinstance(p, CubicCenter):
        # origin of the shifted frame is always an equilibrium; others exist
        # but have no rational closed form in general
        return [(-p.offset, Fraction(0))]
    return []  # pragma: no cover


# ---------------------------------------------------------------------------
# continuity, mirroring
# ---------------------------------------------------------------------------


def is_continuous(ps: PiecewiseSystem) -> tuple[bool, list]:
    """Exact continuity test: at every boundary x = c the adjacent fields
    must agree identically in y.  Returns (flag, mismatches); each mismatch
    is (boundary abscissa, witness y, (gap_x, gap_y)), the witness the
    least of y = 0, 1, ... where a gap is not 0."""
    mismatches = []
    for i, c in enumerate(ps.boundaries):
        _, _, *left = restriction(ps.zones[i], c)
        _, _, *right = restriction(ps.zones[i + 1], c)
        if left == right:  # the split is unique
            continue
        w = 0
        while not any(gaps := tuple(_gap_at(l, r, w) for l, r in zip(left, right))):
            w += 1
        mismatches.append((c, Fraction(w), gaps))
    return (not mismatches), mismatches


def _gap_at(l: UniPoly, r: UniPoly, w: int) -> Fraction:
    """l(w) - r(w) at an integer w, read off the integer parts L, R and the
    contents ln/ld, rn/rd: (ln rd L(w) - rn ld R(w)) / (ld rd)."""
    (ln, ld), (rn, rd) = l.content.as_integer_ratio(), r.content.as_integer_ratio()
    lw, rw = (sum(c * w**k for k, c in enumerate(p.ints)) for p in (l, r))
    return Fraction(ln * rd * lw - rn * ld * rw, ld * rd)


def mirror_payload(p: Payload) -> Payload:
    """Payload of the x -> -x reflection.  For the center families the
    reflected field is the time reversal of a family member, which the
    caller accounts for by toggling the zone's reverse flag."""
    if isinstance(p, LinearSaddle):
        return LinearSaddle(-p.alpha, p.beta, -p.delta, -p.mu, p.gamma)
    if isinstance(p, DoubleCenter):
        return DoubleCenter(p.l, p.n, -p.p, -p.offset)
    if isinstance(p, GlobalCenter):
        return GlobalCenter(p.xi, -p.offset)
    if isinstance(p, CubicCenter):
        return CubicCenter(-p.a, p.b, -p.p, p.q, p.r, -p.s, -p.offset)
    raise SystemError(f"unknown payload {p!r}")  # pragma: no cover


def mirror(ps: PiecewiseSystem) -> PiecewiseSystem:
    """The system seen through x -> -x: zone order reverses, boundaries
    negate.  Orbits map to orbits, so cycle counts are preserved."""
    payloads = []
    flags = []
    for z in reversed(ps.zones):
        payloads.append(mirror_payload(z.payload))
        flip = not isinstance(z.payload, LinearSaddle)
        flags.append(z.reverse ^ flip)
    bounds = [-b for b in reversed(ps.boundaries)]
    return piecewise_system(payloads, bounds, flags)
