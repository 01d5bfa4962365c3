"""Exact polynomial algebra over the rationals: dense univariate and sparse
multivariate polynomials, resultants, squarefree parts, Sturm-sequence
real-root isolation and root refinement.  Floating point never enters.

Both polynomial classes hold the content/primitive split (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6): coprime integers ``ints`` times
a positive rational ``content``, a split that is unique, so equality and
hashing compare it.  The arithmetic runs on the integers and touches the
content once per result; ``coeffs`` and ``terms`` are the exact rational
views, and ``floats`` the correctly rounded one, for float readers.
Primitive parts multiply to a primitive part (Gauss's lemma), so an exact
quotient (``exact_div``, the squarefree part) divides integer parts.
The kernels read the integers directly: ``_sign_at`` decides every sign
(Sturm variations, bracketing, refinement) at ``n/m`` by homogeneous
Horner, and ``UniPoly.gcd``, ``squarefree`` and ``sturm_chain`` run
primitive pseudo-remainder sequences (Collins), each pseudo-remainder
scaled by ``|lc|^(delta+1) > 0``, so every member is the content-reduced
one of the Euclidean sequence, signs included.  Every resultant reduces to
one against a linear pivot by pseudo-remainders (Collins):
``Res(q, r) lc(q)^(deg p - deg r) = lc(q)^(e deg q) Res(q, p)`` for
``r = lc(q)^e p mod q``; the pivot formula is summed on the integer parts.

Roots are isolated in a box whose half-width is a power of two (the Cauchy
bound rounded up), so every interval endpoint and refined root is dyadic: a
root refined to ``tol`` has about ``log2(1/tol)`` bits however large the
coefficients, and a dyadic root ``k / 2^j`` with ``2^-j >= tol`` comes back
exactly.  ``refine_root`` returns what bisecting to ``tol`` would without
running the bisection: the midpoint of the cell of the interval's dyadic
grid, at the bisection's depth, that holds the root, found by one integer
division for a linear polynomial and otherwise by Newton guesses on grid
indices, each confirmed by exact signs at both ends of its cell, with
bisection inside the confirmed bracket when a guess misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from typing import Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]

DEFAULT_REFINE_TOL = Fraction(1, 10**12)
# refine_root bisects to this depth, then tries Newton stages of this many
# levels, doubled after each guess that lands and halved after each miss
_BISECT_DEPTH = 6
_NEWTON_STEP = 4


class AlgebraError(ValueError):
    """Raised for contract violations in the algebra layer."""


def rat(x: RatLike) -> Fraction:
    """Coerce to an exact rational.  Floats are rejected: silent binary
    rounding would contaminate the exact pipeline."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise AlgebraError(f"not an exact rational: {x!r} ({type(x).__name__})")


def _value_at(ints: Sequence[int], n: int, m: int) -> int:
    """m^d p(n/m), where ints are the integer coefficients of p, of degree d,
    in ascending degree: homogeneous Horner, sum c_k n^k m^(d-k)."""
    acc = 0
    mk = 1
    for c in reversed(ints):
        acc = acc * n + c * mk
        mk *= m
    return acc


def _sign_at(ints: Sequence[int], n: int, m: int) -> int:
    """sign(p(n/m)) for m > 0, on integers only."""
    acc = _value_at(ints, n, m)
    return (acc > 0) - (acc < 0)


def _primitive(ints, n: int, d: int):
    """(ints / g, n g / d in lowest terms) for g the gcd of ints, a list
    (its trailing zeros dropped) or a term dict (its zero terms dropped):
    the split of the polynomial (n / d) ints, n >= 0 and d > 0."""
    if isinstance(ints, dict):
        g = gcd(*ints.values())
        ints = {e: c // g for e, c in ints.items() if c} if n else {}
    else:
        ints = list(ints) if n else []
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(*ints)
        ints = tuple(c // g for c in ints) if g > 1 else tuple(ints)
    if not ints:
        return ints, 0, 1
    h = gcd(n * g, d)
    return ints, n * g // h, d // h


def _common(a: "_Split", b: "_Split") -> tuple[int, int, int, int]:
    """(ka, kb, n, d) with a + b == n/d (ka a.ints + kb b.ints), ka, kb ints."""
    g, m = gcd(a._num, b._num) or 1, lcm(a._den, b._den)
    return a._num // g * (m // a._den), b._num // g * (m // b._den), g, m


def _negated(ints):
    return {e: -c for e, c in ints.items()} if isinstance(ints, dict) else [-c for c in ints]


def _scaled(ints, n: int, d: int, r: RatLike) -> tuple:
    """(ints, n, d) of the polynomial (n / d) ints times the rational r."""
    a, b = (r, 1) if isinstance(r, int) else rat(r).as_integer_ratio()
    return ints if a >= 0 else _negated(ints), n * abs(a), d * b


class _Split:
    """The split both polynomial classes hold, and what touches it alone;
    ``_like`` makes a polynomial of the same class and variables."""

    __slots__ = ()
    ints = property(lambda self: self._ints, doc="The primitive integer part.")
    content = property(lambda self: Fraction(self._num, self._den),
                       doc="The positive rational with self == content * ints; 0 for zero.")
    is_zero = property(lambda self: not self._ints)

    def floats(self, sign: int = 1):
        """The coefficients times sign as floats, each c n / d one int true
        division, so correctly rounded: float() of the exact coefficient."""
        n, d = sign * self._num, self._den
        if isinstance(self._ints, dict):
            return {e: c * n / d for e, c in self._ints.items()}
        return tuple(c * n / d for c in self._ints)

    def __neg__(self):
        return self._like(_negated(self._ints), self._num, self._den)

    def __sub__(self, other):
        return self + (-other)


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly(_Split):
    """Dense univariate polynomial with rational coefficients: ``ints`` in
    ascending degree with no trailing zeros, empty for zero, and ``coeffs``
    the exact rational view."""

    __slots__ = ("_ints", "_num", "_den", "var")

    def __init__(self, coeffs: Iterable[RatLike], var: str = "y"):
        cs = [rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._ints, self._num, self._den = _primitive(
            [c.numerator * (den // c.denominator) for c in cs], 1, den)
        self.var = var

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _new(cls, ints: Iterable[int], n: int = 1, d: int = 1, var: str = "y") -> "UniPoly":
        """(n / d) sum ints[k] var^k, split by ``_primitive``."""
        p = object.__new__(cls)
        p._ints, p._num, p._den = _primitive(ints, n, d)
        p.var = var
        return p

    def _like(self, ints, n: int, d: int) -> "UniPoly":
        return UniPoly._new(ints, n, d, self.var)

    @classmethod
    def from_ints(cls, ints: Sequence[int], scale: RatLike = 1, var: str = "y") -> "UniPoly":
        """scale * sum ints[k] var^k, for integers ints in ascending degree."""
        return cls._new(*_scaled(ints, 1, 1, scale), var)

    @classmethod
    def zero(cls, var: str = "y") -> "UniPoly":
        return cls((), var)

    @classmethod
    def const(cls, c: RatLike, var: str = "y") -> "UniPoly":
        return cls((c,), var)

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c * self._num, self._den) for c in self._ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._ints) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1] * self._num, self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and self._ints == other._ints
                and self._num == other._num and self._den == other._den)

    def __hash__(self):
        return hash((self._ints, self._num, self._den))

    def __repr__(self) -> str:
        return " + ".join(str(c) if k == 0 else f"{c}*{self.var}" + (f"^{k}" if k > 1 else "")
                          for k, c in enumerate(self.coeffs) if c) or "0"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        ka, kb, n, d = _common(self, other)
        a, b = [ka * c for c in self._ints], [kb * c for c in other._ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return UniPoly._new(a, n, d, self.var)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self._like(*_scaled(self._ints, self._num, self._den, other))
        # the product of primitive parts is primitive (Gauss's lemma)
        out = [0] * (len(self._ints) + len(other._ints) - 1)
        for i, a in enumerate(self._ints):
            if a:
                for j, b in enumerate(other._ints):
                    out[i + j] += a * b
        return UniPoly._new(out, self._num * other._num, self._den * other._den, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise AlgebraError("negative power")
        out = UniPoly.const(1, self.var)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float
        (each coefficient rounded once, as float() of the exact value)."""
        if isinstance(x, float):
            acc = 0.0
            for c in reversed(self._ints):
                acc = acc * x + c * self._num / self._den
            return acc
        m = x.denominator
        return Fraction(_value_at(self._ints, x.numerator, m) * self._num,
                        self._den * m ** max(self.degree, 0))

    def deriv(self) -> "UniPoly":
        return self._like([k * c for k, c in enumerate(self._ints)][1:], self._num, self._den)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """self / other when other divides self; raises AlgebraError otherwise.
        The primitive parts divide on integers, and so do the contents."""
        if other.is_zero:
            raise AlgebraError("division by zero polynomial")
        if self.is_zero:
            return self
        return self._like(_exact_quotient(self._ints, other._ints), self._num * other._den,
                          self._den * other._num)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by a primitive remainder sequence on integers."""
        g = _gcd_ints(self._ints, other._ints)
        return self._like(g if not g or g[-1] > 0 else _negated(g), 1, abs(g[-1]) if g else 1)

    def primitive(self) -> "UniPoly":
        """Integer-primitive scalar multiple with a positive leading
        coefficient."""
        return self._like(self._ints if self.is_zero or self._ints[-1] > 0
                          else _negated(self._ints), 1, 1)

    def cauchy_bound(self) -> Fraction:
        """The least power of two B >= 1 + max |c_i / c_lead|: all real roots
        lie in (-B, B), and every bisection point of (-B, B) is dyadic."""
        if self.degree < 1:
            return Fraction(1)
        lead = abs(self._ints[-1])
        top = lead + max(map(abs, self._ints[:-1]))
        # top / lead lies in (2^(k-1), 2^(k+1)); B is 2^k or 2^(k+1)
        k = top.bit_length() - lead.bit_length()
        if lead << k < top:
            k += 1
        return Fraction(1 << k)


def _content_free(ints: list[int]) -> list[int]:
    """ints divided by their (positive) gcd."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _prem(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) times the remainder of a by b (integer
    coefficients, b nonzero), a positive multiple of it, so every sign of
    the remainder is kept; a itself when deg a < deg b."""
    db = len(b) - 1
    delta = len(a) - 1 - db
    r = list(a)
    if delta < 0:
        return r
    lc, low = b[-1], b[:-1]
    for k in range(delta, -1, -1):
        # r <- lc * r - t x^k b, which cancels r's top coefficient t
        t = r.pop()
        r = [lc * c for c in r]
        if t:
            for i, c in enumerate(low):
                r[k + i] -= t * c
    if lc < 0 and delta % 2 == 0:
        r = [-c for c in r]
    while r and not r[-1]:
        r.pop()
    return r


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two integer polynomials, by the primitive
    pseudo-remainder sequence (Collins); each member is the content-reduced
    remainder of the Euclidean sequence, since a pseudo-remainder is a
    positive multiple of the remainder."""
    while b:
        a, b = b, _content_free(_prem(a, b))
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials whose quotient has integer
    coefficients; raises AlgebraError when the division is inexact."""
    db = len(b) - 1
    lc, low = b[-1], b[:-1]
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        t, m = divmod(r.pop(), lc)
        if m:
            raise AlgebraError("inexact polynomial division")
        q[k] = t
        if t:
            for i, c in enumerate(low):
                r[k + i] -= t * c
    if any(r):
        raise AlgebraError("inexact polynomial division")
    return q


def squarefree(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'): same real roots, all simple.  Errors on zero input."""
    if p.is_zero:
        raise AlgebraError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return p
    a = p._ints
    g = _gcd_ints(a, _content_free([k * c for k, c in enumerate(a)][1:]))
    if len(g) == 1:
        return p
    # dividing by the monic gcd g / g[-1] scales the content by |g[-1]|
    q = _exact_quotient(a, g if g[-1] > 0 else [-c for c in g])
    return UniPoly._new(q, p._num * abs(g[-1]), p._den, p.var)


# ---------------------------------------------------------------------------
# real-root isolation (Sturm) and refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootInterval:
    """Open-ish interval (lo, hi) isolating exactly one simple real root.

    The polynomial changes sign across the interval: sign_lo != sign_hi.
    """

    lo: Fraction
    hi: Fraction
    sign_lo: int
    sign_hi: int


def sturm_chain(p: UniPoly) -> list[list[int]]:
    """Sturm sequence of p, each member as its coprime integer
    coefficients: the negated pseudo-remainders, content-reduced, are
    positive multiples of the Euclidean Sturm sequence's members, so every
    sign pattern is kept."""
    a = list(p._ints)
    chain = [a, _content_free([k * c for k, c in enumerate(a)][1:])]
    while len(chain[-1]) > 1:
        rem = _prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_free([-c for c in rem]))
    return chain


def _variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    n, m = x.numerator, x.denominator
    signs = [s for s in (_sign_at(q, n, m) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: UniPoly, lo: Fraction, hi: Fraction,
                chain: Sequence[Sequence[int]] | None = None) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi]."""
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_isolate(p: UniPoly, lo: RatLike, hi: RatLike) -> list[RootInterval]:
    """Isolating intervals, one per distinct real root of p in (lo, hi].

    Requires squarefree input (raises otherwise: call squarefree first).
    Returned intervals are pairwise disjoint, each with a strict sign change.
    An interval may poke slightly past hi when the root sits exactly at hi.
    """
    lo, hi = rat(lo), rat(hi)
    if lo >= hi:
        raise AlgebraError("empty isolation range")
    if p.is_zero:
        raise AlgebraError("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        # the chain ends in gcd(p, p')
        raise AlgebraError("polynomial is not squarefree; call squarefree first")
    out: list[RootInterval] = []
    stack = [(lo, hi, sturm_count(p, lo, hi, chain))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(_bracket_single_root(p, chain, a, b))
            continue
        m = (a + b) / 2
        left = sturm_count(p, a, m, chain)
        stack.append((a, m, left))
        stack.append((m, b, cnt - left))
    out.sort(key=lambda iv: iv.lo)
    return out


def _bracket_single_root(p: UniPoly, chain, a: Fraction, b: Fraction) -> RootInterval:
    """Shrink (a, b] containing exactly one root until p changes sign strictly."""
    def sign(x: Fraction) -> int:
        # chain[0] is a positive multiple of p
        return _sign_at(chain[0], x.numerator, x.denominator)

    for _ in range(10_000):
        sa, sb = sign(a), sign(b)
        if sb == 0:
            # the isolated root is exactly b: bracket it symmetrically
            w = (b - a) / 2
            while True:
                lo, hi = b - w, b + w
                slo, shi = sign(lo), sign(hi)
                if slo and shi and slo != shi and sturm_count(p, lo, hi, chain) == 1:
                    return RootInterval(lo, hi, slo, shi)
                w /= 2
        if sa and sa != sb:
            return RootInterval(a, b, sa, sb)
        # both ends have one sign, or a root at a lies outside (a, b]:
        # halve, keeping the half with the root
        m = (a + b) / 2
        if sturm_count(p, a, m, chain) >= 1:
            b = m
        else:
            a = m
    raise AlgebraError("failed to bracket an isolated root")  # pragma: no cover


def refine_root(p: UniPoly, iv: RootInterval, tol: RatLike = DEFAULT_REFINE_TOL) -> Fraction:
    """The midpoint of the isolating interval after bisecting it until its
    width is below tol, a dyadic rational within tol of the true root; an
    exact root hit at a bisection point is returned as it is.

    The bisection count K depends only on the width and tol, so the result
    is fixed: the midpoint of the depth-K cell of the interval's dyadic grid
    that holds the root, or the root itself when it is a grid point of depth
    at most K (the points the bisection evaluates).  That cell is found
    directly: by one integer division for linear p, and otherwise by Newton
    guesses on grid indices, each stage about doubling the depth and
    confirmed by exact integer signs at both ends of its cell; a guess that
    misses falls back to bisection inside the bracket its signs confirmed.
    """
    tol = rat(tol)
    if tol <= 0:
        raise AlgebraError("refinement tolerance must be positive")
    ints = p._ints
    # the interval is (a/m, (a + s)/m); the depth-k grid point i is
    # (a 2^k + i s) / (m 2^k), and K is the least k with s / (m 2^k) < tol
    lo, hi = iv.lo, iv.hi
    m = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (m // lo.denominator)
    s = hi.numerator * (m // hi.denominator) - a
    K = (s * tol.denominator // (tol.numerator * m)).bit_length()
    if len(ints) == 2:
        # the root -c0/c1 sits at index -(c0 m + c1 a) 2^K / (c1 s)
        c0, c1 = ints
        j, r = divmod(-(c0 * m + c1 * a) << K, c1 * s)
        if r == 0:
            return Fraction((a << K) + j * s, m << K)
    else:
        slo = iv.sign_lo
        dints = [k * c for k, c in enumerate(ints)][1:]
        k = j = 0  # the root lies in cell j of depth k
        step = _NEWTON_STEP
        while k < K:
            k2 = min(K, k + step if k else _BISECT_DEPTH)
            top = m << k2
            lo_i, hi_i = j << (k2 - k), (j + 1) << (k2 - k)
            probes = []
            if k:
                # a Newton step from the cell's midpoint, in depth-k2 indices
                x = (2 * j + 1) << (k2 - k - 1)
                n = (a << k2) + x * s
                t = _value_at(dints, n, top) * s
                if t:
                    g = x - (2 * _value_at(ints, n, top) + t) // (2 * t)
                    probes.append(min(max(g, lo_i + 1), hi_i - 1))
            newton = bool(probes)
            evals = 0
            while hi_i - lo_i > 1:
                # the guess, then its neighbour towards the root, then halves
                i = probes.pop() if probes else (lo_i + hi_i) >> 1
                n = (a << k2) + i * s
                si = _sign_at(ints, n, top)
                if si == 0:
                    return Fraction(n, top)
                if si == slo:
                    lo_i = i
                else:
                    hi_i = i
                evals += 1
                if newton and evals == 1:
                    probes.append(i + 1 if si == slo else i - 1)
            if newton:
                step = 2 * step if evals <= 2 else max(1, step // 2)
            k, j = k2, lo_i
    return Fraction(2 * ((a << K) + j * s) + s, m << (K + 1))


def isolate_real_roots(p: UniPoly) -> tuple[UniPoly, list[RootInterval]]:
    """The primitive squarefree part of p and one isolating interval per
    distinct real root of p, found in the power-of-two box given by the
    Cauchy bound, so every endpoint is dyadic."""
    if p.is_zero:
        raise AlgebraError("zero polynomial has every number as a root")
    sf = squarefree(p).primitive()
    if sf.degree < 1:
        return sf, []
    b = sf.cauchy_bound()
    return sf, sturm_isolate(sf, -b, b)


def real_roots(p: UniPoly, tol: RatLike = DEFAULT_REFINE_TOL) -> list[Fraction]:
    """All distinct real roots of p (any multiplicity) as dyadic rationals
    within tol, ascending; a dyadic root k / 2^j with 2^-j >= tol is exact."""
    sf, ivs = isolate_real_roots(p)
    return [refine_root(sf, iv, tol) for iv in ivs]


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class MultiPoly(_Split):
    """Sparse multivariate polynomial over the rationals.

    Variables are kept sorted by name; ``ints`` maps exponent tuples to
    nonzero integers, and ``terms`` is the exact rational view.  Instances
    are immutable in practice (nothing mutates ``ints`` after construction).
    """

    __slots__ = ("vars", "_ints", "_num", "_den", "_terms")

    def __init__(self, vars: Sequence[str], terms: dict[tuple[int, ...], RatLike]):
        cs = {e: rat(c) for e, c in terms.items()}
        den = lcm(*(c.denominator for c in cs.values()))
        p = MultiPoly.from_ints(vars, {e: c.numerator * (den // c.denominator)
                                       for e, c in cs.items()}, Fraction(1, den))
        self.vars, self._ints, self._num, self._den = p.vars, p._ints, p._num, p._den
        self._terms = None

    # -- construction --------------------------------------------------------

    @classmethod
    def _new(cls, vars: tuple[str, ...], ints: dict, n: int = 1, d: int = 1) -> "MultiPoly":
        """(n / d) ints over the sorted vars, split by ``_primitive``."""
        p = object.__new__(cls)
        p.vars, p._terms = vars, None
        p._ints, p._num, p._den = _primitive(ints, n, d)
        return p

    def _like(self, ints: dict, n: int, d: int) -> "MultiPoly":
        return MultiPoly._new(self.vars, ints, n, d)

    @classmethod
    def from_ints(cls, vars: Sequence[str], ints: dict[tuple[int, ...], int],
                  scale: RatLike = 1, den: int = 1) -> "MultiPoly":
        """scale / den times the polynomial with the integer terms ints."""
        vs = tuple(vars)
        if tuple(sorted(vs)) != vs:
            raise AlgebraError("variables must be sorted")
        return cls._new(vs, *_scaled(ints, 1, den, scale))

    @classmethod
    def zero(cls, vars: Sequence[str] = ()) -> "MultiPoly":
        return cls._new(tuple(sorted(vars)), {}, 0)

    @classmethod
    def const(cls, c: RatLike, vars: Sequence[str] = ()) -> "MultiPoly":
        return cls.from_ints(sorted(vars), {(0,) * len(vars): 1}, c)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._new((name,), {(1,): 1})

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The exact rational coefficients, made on the first read."""
        if self._terms is None:
            self._terms = {e: Fraction(c * self._num, self._den) for e, c in self._ints.items()}
        return self._terms

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; -1 for zero."""
        if self.is_zero:
            return -1
        if var is None:
            return max(sum(e) for e in self._ints)
        if var not in self.vars:
            return 0
        return max(map(itemgetter(self.vars.index(var)), self._ints))

    def actual_vars(self) -> tuple[str, ...]:
        """Variables with positive degree."""
        return tuple(v for v, col in zip(self.vars, zip(*self._ints)) if any(col))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._align(other)
        return a._ints == b._ints and a._num == b._num and a._den == b._den

    def __hash__(self):
        p = self.subs({})  # over the variables of positive degree, as __eq__ aligns
        return hash((p.vars, frozenset(p._ints.items()), p._num, p._den))

    def __repr__(self) -> str:
        monos = (("*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k), c)
                 for e, c in sorted(self.terms.items(), reverse=True))
        return " + ".join(f"{c}*{m}" if m else str(c) for m, c in monos) or "0"

    def is_proportional_to(self, other: "MultiPoly") -> bool:
        """True when self == c * other for some nonzero rational c: when
        their primitive parts agree up to sign (or both are zero)."""
        a, b = self._align(other)
        return a._ints == b._ints or a._ints == _negated(b._ints)

    # -- variable alignment ---------------------------------------------------

    def _embed(self, vs: tuple[str, ...]) -> "MultiPoly":
        if vs == self.vars:
            return self
        idx = [vs.index(v) for v in self.vars]
        ints: dict[tuple[int, ...], int] = {}
        for e, c in self._ints.items():
            ne = [0] * len(vs)
            for pos, k in zip(idx, e):
                ne[pos] = k
            ints[tuple(ne)] = c
        return MultiPoly._new(vs, ints, self._num, self._den)

    def _align(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        if self.vars == other.vars:
            return self, other
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return self._embed(vs), other._embed(vs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        a, b = self._align(other)
        ka, kb, n, d = _common(a, b)
        ints = {e: ka * c for e, c in a._ints.items()}
        for e, c in b._ints.items():
            ints[e] = ints.get(e, 0) + kb * c
        return MultiPoly._new(a.vars, ints, n, d)

    __radd__ = __add__

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._like(*_scaled(self._ints, self._num, self._den, other))
        # the product of primitive parts is primitive (Gauss's lemma)
        a, b = self._align(other)
        ints: dict[tuple[int, ...], int] = {}
        for e1, c1 in a._ints.items():
            for e2, c2 in b._ints.items():
                e = tuple(map(add, e1, e2))
                ints[e] = ints.get(e, 0) + c1 * c2
        return MultiPoly._new(a.vars, ints, a._num * b._num, a._den * b._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise AlgebraError("negative power")
        out, base = MultiPoly.const(1, self.vars), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base if n > 1 else base, n >> 1
        return out

    # -- leading-term exact division (any admissible order: lex here) ---------

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises if other does not divide self.  It divides
        the primitive parts, whose quotient is a primitive integer
        polynomial (Gauss's lemma), by leading terms: each step takes the
        remainder's, and what it subtracts lies below.  The contents
        divide."""
        a, b = self._align(other)
        if b.is_zero:
            raise AlgebraError("division by zero polynomial")
        if a.is_zero:
            return a
        r, d = dict(a._ints), dict(b._ints)
        eb = max(d)
        cb, rest = d.pop(eb), list(d.items())
        q_ints: dict[tuple[int, ...], int] = {}
        while r:
            er = max(r)
            eq = tuple(x - y for x, y in zip(er, eb))
            cq, m = divmod(r.pop(er), cb)
            if m or any(k < 0 for k in eq):
                raise AlgebraError("inexact polynomial division")
            q_ints[eq] = cq
            for e, c in rest:
                t = tuple(map(add, eq, e))
                v = r.get(t, 0) - cq * c
                if v:
                    r[t] = v
                else:
                    del r[t]
        return a._like(q_ints, a._num * b._den, a._den * b._num)

    def diff(self, var: str) -> "MultiPoly":
        """Partial derivative in var."""
        if var not in self.vars:
            return MultiPoly.zero(self.vars)
        i = self.vars.index(var)
        return self._like({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                           for e, c in self._ints.items() if e[i]}, self._num, self._den)

    # -- substitution / evaluation --------------------------------------------

    def _fold(self, mapping: dict[str, RatLike]) -> tuple:
        """(den, folds, left) of substituting the rationals of mapping: per
        value p/q of a variable of degree m, the denominator times q^m and
        (index, [p^k q^(m-k), k = 0..m]) in folds; (index, degree) of each
        other variable of positive degree in left."""
        vals = {v: rat(x) for v, x in mapping.items()}
        den, folds, left = self._den, [], []
        for i, (v, m) in enumerate(zip(self.vars, map(max, zip(*self._ints)))):
            if m and v in vals:
                p, q = vals[v].as_integer_ratio()
                folds.append((i, [p**k * q**(m - k) for k in range(m + 1)]))
                den *= q**m
            elif m:
                left.append((i, m))
        return den, folds, left

    def subs(self, mapping: dict[str, RatLike]) -> "MultiPoly":
        """Substitute rationals for variables.  A value p/q of a variable of
        degree m folds into the integer part as p^k q^(m-k) and into the
        content as 1/q^m, so one denominator is cleared per variable.  The
        result's variables are those left with a positive exponent in some
        term, and its terms keep their order.  A polynomial value raises
        AlgebraError."""
        den, folds, left = self._fold(mapping)
        keep = [i for i, _ in left]
        ints: dict[tuple[int, ...], int] = {}
        for e, c in self._ints.items():
            for i, powers in folds:
                c *= powers[e[i]]
            if not c:
                continue
            key = tuple(map(e.__getitem__, keep))
            t = ints.get(key, 0) + c
            if t:
                ints[key] = t
            else:
                del ints[key]
        return MultiPoly._new(tuple(self.vars[i] for i in keep), ints, self._num, den)

    def univariate(self, mapping: dict[str, RatLike], var: str) -> UniPoly:
        """``subs(mapping)`` as a UniPoly in var, in one pass over the terms.
        Raises AlgebraError when another variable keeps a positive degree,
        which ``subs`` decides where a substitution may cancel its terms."""
        den, folds, left = self._fold(mapping)
        if any(self.vars[i] != var for i, _ in left):
            if folds:
                return self.subs(mapping).univariate({}, var)
            raise AlgebraError(f"not univariate in {var}: {self!r}")
        j, m = left[0] if left else (0, 0)
        cs = [0] * (m + 1)
        for e, c in self._ints.items():
            for i, powers in folds:
                c *= powers[e[i]]
            cs[e[j] if m else 0] += c
        return UniPoly._new(cs, self._num, den, var)

    def eval(self, point: dict[str, RatLike]) -> Fraction:
        q = self.subs({v: point[v] for v in self.actual_vars()})
        return Fraction(q._num * q._ints.get((), 0), q._den)

    def eval_float(self, point: dict[str, float]) -> float:
        acc = 0.0
        for e, c in self._ints.items():
            t = c * self._num / self._den
            for v, k in zip(self.vars, e):
                if k:
                    t *= point[v] ** k
            acc += t
        return acc

    # -- univariate views -------------------------------------------------------

    def coeffs_in(self, var: str) -> list["MultiPoly"]:
        """Coefficients of self as a polynomial in var, ascending; the
        coefficients are polynomials in the remaining variables."""
        if var not in self.vars:
            return [self]
        rest = tuple(v for v in self.vars if v != var)
        return [MultiPoly._new(rest, b, self._num, self._den) for b in _split(self, var, rest)]

    def as_unipoly(self, var: str | None = None) -> UniPoly:
        """Convert to UniPoly in var, by default its one variable of
        positive degree (``univariate`` with nothing substituted)."""
        if var is None:
            live = self.actual_vars()
            var = live[0] if live else (self.vars[0] if self.vars else "y")
        return self.univariate({}, var)


def restrictions(polys: Sequence[MultiPoly], var: str, value: RatLike) -> tuple[UniPoly, ...]:
    """``p.univariate({var: value}, other)`` for each p of polys, each over
    var and one other variable: the powers of value = a/b are made once for
    them all, and each polynomial of degree m in var folds its terms in one
    pass, times a^k b^(m-k), over the content times 1/b^m."""
    a, b = rat(value).as_integer_ratio()
    apow, bpow = [1], [1]
    out = []
    for p in polys:
        i = p.vars.index(var)
        j = 1 - i
        m = max((e[i] for e in p._ints), default=0)
        while len(apow) <= m:
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        powers = [apow[k] * bpow[m - k] for k in range(m + 1)]
        cs = [0] * (max((e[j] for e in p._ints), default=0) + 1)
        for e, c in p._ints.items():
            cs[e[j]] += c * powers[e[i]]
        out.append(UniPoly._new(cs, p._num, p._den * bpow[m], p.vars[j]))
    return tuple(out)


def _split(p: MultiPoly, var: str, vs: tuple[str, ...]) -> list[dict[tuple[int, ...], int]]:
    """p's primitive part as a polynomial in var, ascending: one integer
    term dict over vs, which holds every other variable of p, per power."""
    p = p._embed(tuple(sorted((*vs, var))))
    i = p.vars.index(var)
    out: list[dict[tuple[int, ...], int]] = [{} for _ in range(p.degree(var) + 1)]
    for e, c in p._ints.items():
        out[e[i]][e[:i] + e[i + 1:]] = c
    return out


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _integer_mul(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
                 ) -> dict[tuple[int, ...], int]:
    """Product of two integer term dicts over the same variables."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to var, reduced by
    pseudo-remainders to the linear-pivot formula.

    Vanishes exactly where p and q share a root in var, up to extraneous
    factors supported on the vanishing locus of the leading coefficients;
    callers screen those by back-substitution.
    """
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise AlgebraError(f"not eliminable: degree in {var} is {min(dp, dq)}")
    if dq == 1:
        # Res(p, q1 v + q0) = (-1)^deg(p) sum p_i (-q0)^i q1^(deg p - i) is
        # homogeneous of degree 1 in p's coefficients and deg p in q's, so it
        # is the resultant of the primitive parts times cont(p) cont(q)^deg p
        vs = tuple(sorted((set(p.vars) | set(q.vars)) - {var}))
        pc, (q0, q1) = _split(p, var, vs), _split(q, var, vs)
        one = {(0,) * len(vs): 1}
        neg_q0 = {e: -c for e, c in q0.items()}
        pow0, pow1 = [one], [one]
        for _ in range(dp):
            pow0.append(_integer_mul(pow0[-1], neg_q0))
            pow1.append(_integer_mul(pow1[-1], q1))
        acc: dict[tuple[int, ...], int] = {}
        sign = -1 if dp % 2 else 1
        for i, ci in enumerate(pc):
            if ci:
                for e, c in _integer_mul(_integer_mul(ci, pow0[i]), pow1[dp - i]).items():
                    acc[e] = acc.get(e, 0) + sign * c
        return MultiPoly._new(vs, acc, p._num * q._num**dp, p._den * q._den**dp)
    if dp < dq:
        r = resultant(q, p, var)
        return r if (dp * dq) % 2 == 0 else -r
    # dp >= dq >= 2: r = lc(q)^e p mod q with e = dp - dq + 1, of degree dr,
    # has Res(q, r) lc(q)^(dp - dr) = lc(q)^(e dq) Res(q, p) (Collins); the
    # recursion ends at the linear pivot above
    lead, x, r = q.coeffs_in(var)[-1], MultiPoly.var(var), p
    for k in range(dp - dq, -1, -1):  # each pass drops the term of v^(k + dq)
        top = r.coeffs_in(var)[k + dq:]
        r = lead * r - top[0] * x**k * q if top else lead * r
    dr = r.degree(var)
    if dr < 0:
        return MultiPoly.zero()
    res = r.coeffs_in(var)[0] ** dq if dr == 0 else resultant(q, r, var)
    res = res.exact_div(lead ** ((dp - dq + 1) * dq - (dp - dr)))
    return res if (dp * dq) % 2 == 0 else -res
