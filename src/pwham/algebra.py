"""Exact polynomial algebra over the rationals.

Everything the elimination pipeline touches lives here: arbitrary-precision
rationals (stdlib ``Fraction``), dense univariate polynomials, sparse
multivariate polynomials, Sylvester resultants computed by fraction-free
(Bareiss) elimination, squarefree decomposition, Sturm-sequence real-root
isolation and root refinement.

Floating point never enters: coefficients are ``Fraction`` throughout, and
root refinement returns rational approximations of prescribed accuracy.
Roots are isolated in a box whose half-width is a power of two (the Cauchy
bound rounded up), so every isolating interval endpoint and every refined
root is dyadic: a root refined to ``tol`` has about ``log2(1/tol)`` bits
however large the coefficients are, and a dyadic root ``k / 2^j`` with
``2^-j >= tol`` is returned exactly.
Refinement returns what bisecting to ``tol`` would, without running the
bisection: that result is the midpoint of the one cell of the interval's
dyadic grid, at the depth the bisection reaches, that holds the root.
``refine_root`` finds the cell by one integer division for a linear
polynomial, and otherwise by Newton guesses on grid indices, each confirmed
by exact signs at both ends of its cell, with bisection inside the
confirmed bracket when a guess misses.
Every sign decision (Sturm variations, bracketing, refinement) runs on
plain integers: ``_sign_at`` evaluates an integer-coefficient polynomial at
``n/m`` by homogeneous Horner, so no ``Fraction`` is normalised in those
loops.
So do the remainder sequences behind ``UniPoly.gcd``, ``squarefree`` and
``sturm_chain``: primitive pseudo-remainder sequences (Collins) on the
coprime integer coefficients, each pseudo-remainder scaled by
``|lc|^(delta+1)``, a positive factor, so that every content-reduced member
is the one the Euclidean sequence over the rationals gives, signs included.
Exact quotients (``UniPoly.exact_div``, the squarefree part) divide the
primitive parts, whose quotient is an integer polynomial by Gauss's lemma,
and scale back once.  A resultant against a linear pivot clears
denominators once, ``Res(P/dP, Q/dQ) = Res(P, Q) / (dP dQ^deg P)``, sums the
pivot formula over integer term dicts, and divides each term once.  Each
of these returns the same ``Fraction`` values as the plain rational
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
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


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial with rational coefficients.

    Coefficients are stored in ascending degree with no trailing zeros; the
    zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[RatLike], var: str = "y"):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, var: str = "y") -> "UniPoly":
        return cls((), var)

    @classmethod
    def const(cls, c: RatLike, var: str = "y") -> "UniPoly":
        return cls((c,), var)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{k}")
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out, self.var)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs], self.var)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise AlgebraError("negative power")
        out = UniPoly.const(1, self.var)
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float."""
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def deriv(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:], self.var)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """self / other when other divides self; raises AlgebraError otherwise.

        By Gauss's lemma the quotient of the two integer primitive parts is
        an integer polynomial, so the division runs on integers and the
        quotient is scaled back once."""
        if other.is_zero:
            raise AlgebraError("division by zero polynomial")
        if self.is_zero:
            return self
        a, b = _primitive_ints(self), _primitive_ints(other)
        # self = (lead / a[-1]) a and other = (other.lead / b[-1]) b
        s = self.lead * b[-1] / (other.lead * a[-1])
        return UniPoly([s * c for c in _exact_quotient(a, b)], self.var)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by a primitive remainder sequence on integers."""
        g = _gcd_ints(_primitive_ints(self), _primitive_ints(other))
        if not g:
            return UniPoly.zero(self.var)
        return UniPoly([Fraction(c, g[-1]) for c in g], self.var)

    def primitive(self) -> "UniPoly":
        """Integer-primitive scalar multiple with a positive leading
        coefficient."""
        ints = _primitive_ints(self)
        return UniPoly([-c for c in ints] if ints and ints[-1] < 0 else ints, self.var)

    def cauchy_bound(self) -> Fraction:
        """The least power of two B >= 1 + max |c_i / c_lead|: all real roots
        lie in (-B, B), and every bisection point of (-B, B) is dyadic."""
        if self.degree < 1:
            return Fraction(1)
        ints = _integer_coeffs(self)
        lead = abs(ints[-1])
        top = lead + max(abs(c) for c in ints[:-1])
        # top / lead lies in (2^(k-1), 2^(k+1)); B is 2^k or 2^(k+1)
        k = top.bit_length() - lead.bit_length()
        if lead << k < top:
            k += 1
        return Fraction(1 << k)


def _integer_coeffs(p: UniPoly) -> list[int]:
    """p's coefficients times the lcm of their denominators: integers with
    p's signs and ratios."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _primitive_ints(p: UniPoly) -> list[int]:
    """p's coefficients as coprime integers: a positive multiple of p."""
    return _content_free(_integer_coeffs(p))


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
    a = _primitive_ints(p)
    g = _gcd_ints(a, _content_free([k * c for k, c in enumerate(a)][1:]))
    if len(g) == 1:
        return p
    # p = (lead / a[-1]) a and the monic gcd is g / g[-1]
    s = p.lead * g[-1] / a[-1]
    return UniPoly([s * c for c in _exact_quotient(a, g)], p.var)


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
    a = _primitive_ints(p)
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
    ints = _integer_coeffs(p)
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


class MultiPoly:
    """Sparse multivariate polynomial over the rationals.

    Variables are kept sorted by name; terms map exponent tuples to nonzero
    rational coefficients.  Instances are immutable in practice (nothing
    mutates ``terms`` after construction).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: dict[tuple[int, ...], Fraction]):
        vs = tuple(vars)
        if tuple(sorted(vs)) != vs:
            raise AlgebraError("variables must be sorted")
        self.vars = vs
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str] = ()) -> "MultiPoly":
        return cls(tuple(sorted(vars)), {})

    @classmethod
    def const(cls, c: RatLike, vars: Sequence[str] = ()) -> "MultiPoly":
        vs = tuple(sorted(vars))
        c = rat(c)
        return cls(vs, {(0,) * len(vs): c} if c != 0 else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; -1 for zero."""
        if self.is_zero:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def actual_vars(self) -> tuple[str, ...]:
        """Variables with positive degree."""
        return tuple(v for v in self.vars if self.degree(v) > 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.actual_vars(), frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k > 0
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(bits)

    def is_proportional_to(self, other: "MultiPoly") -> bool:
        """True when self == c * other for some nonzero rational c."""
        a, b = self._align(other)
        if a.is_zero or b.is_zero:
            return a.is_zero and b.is_zero
        if set(a.terms) != set(b.terms):
            return False
        e0 = next(iter(a.terms))
        c = a.terms[e0] / b.terms[e0]
        return all(a.terms[e] == c * b.terms[e] for e in a.terms)

    # -- variable alignment ---------------------------------------------------

    def _embed(self, vs: tuple[str, ...]) -> "MultiPoly":
        if vs == self.vars:
            return self
        idx = [vs.index(v) for v in self.vars]
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * len(vs)
            for pos, k in zip(idx, e):
                ne[pos] = k
            terms[tuple(ne)] = c
        return MultiPoly(vs, terms)

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
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        a, b = self._align(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise AlgebraError("negative power")
        out = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- leading-term exact division (any admissible order: lex here) ---------

    def _lead_term(self) -> tuple[tuple[int, ...], Fraction]:
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises if other does not divide self."""
        a, b = self._align(other)
        if b.is_zero:
            raise AlgebraError("division by zero polynomial")
        if a.is_zero:
            return a
        eb, cb = b._lead_term()
        q_terms: dict[tuple[int, ...], Fraction] = {}
        r = a
        while not r.is_zero:
            er, cr = r._lead_term()
            eq = tuple(x - y for x, y in zip(er, eb))
            if any(k < 0 for k in eq):
                raise AlgebraError("inexact polynomial division")
            cq = cr / cb
            q_terms[eq] = q_terms.get(eq, Fraction(0)) + cq
            r = r - MultiPoly(a.vars, {eq: cq}) * b
        return MultiPoly(a.vars, q_terms)

    def diff(self, var: str) -> "MultiPoly":
        """Partial derivative in var."""
        if var not in self.vars:
            return MultiPoly.zero(self.vars)
        i = self.vars.index(var)
        return MultiPoly(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                     for e, c in self.terms.items() if e[i]})

    # -- substitution / evaluation --------------------------------------------

    def subs(self, mapping: dict[str, RatLike]) -> "MultiPoly":
        """Substitute rationals for variables, each folding into the
        coefficients as ``c * val**k``.  The result's variables are those
        left with a positive exponent in some term, and its terms keep
        their order.  A polynomial value raises AlgebraError."""
        vals = {v: rat(x) for v, x in mapping.items()}
        keep = [i for i, v in enumerate(self.vars)
                if v not in vals and any(e[i] for e in self.terms)]
        terms: dict[tuple[int, ...], Fraction] = {}
        powers: dict[tuple[str, int], Fraction] = {}
        for e, c in self.terms.items():
            for v, k in zip(self.vars, e):
                if k and v in vals:
                    xk = powers.get((v, k))
                    if xk is None:
                        xk = powers[v, k] = vals[v] ** k
                    c *= xk
            if not c:
                continue
            key = tuple(e[i] for i in keep)
            t = terms.get(key, 0) + c
            if t:
                terms[key] = t
            else:
                del terms[key]
        return MultiPoly(tuple(self.vars[i] for i in keep), terms)

    def eval(self, point: dict[str, RatLike]) -> Fraction:
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, k in zip(self.vars, e):
                if k:
                    t *= rat(point[v]) ** k
            acc += t
        return acc

    def eval_float(self, point: dict[str, float]) -> float:
        acc = 0.0
        for e, c in self.terms.items():
            t = float(c)
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
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        d = self.degree(var)
        buckets: list[dict[tuple[int, ...], Fraction]] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            re = tuple(k for j, k in enumerate(e) if j != i)
            buckets[e[i]][re] = c
        return [MultiPoly(rest, b) for b in buckets]

    def as_unipoly(self, var: str | None = None) -> UniPoly:
        """Convert to UniPoly; requires at most one variable of positive degree."""
        live = self.actual_vars()
        if len(live) > 1:
            raise AlgebraError(f"not univariate: variables {live}")
        if var is None:
            var = live[0] if live else (self.vars[0] if self.vars else "y")
        if live and var != live[0]:
            raise AlgebraError(f"polynomial is in {live[0]}, not {var}")
        cs = [Fraction(0)] * (self.degree(var) + 1 if not self.is_zero else 0)
        if var in self.vars:
            i = self.vars.index(var)
            for e, c in self.terms.items():
                cs[e[i]] = c
        elif not self.is_zero:
            cs = [self.terms[next(iter(self.terms))]]
        return UniPoly(cs, var)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def _bareiss_det(m: list[list[MultiPoly]]) -> MultiPoly:
    """Fraction-free determinant (Bareiss); entries are polynomials and all
    internal divisions are exact."""
    n = len(m)
    if n == 0:
        return MultiPoly.const(1)
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if piv is None:
                return MultiPoly.zero()
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MultiPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def _integer_coeffs_in(p: MultiPoly, var: str, vs: tuple[str, ...]
                       ) -> tuple[int, list[dict[tuple[int, ...], int]]]:
    """The lcm d of p's denominators and the coefficients of d p as a
    polynomial in var, ascending, each an integer term dict over vs (which
    holds every other variable of p)."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    i = p.vars.index(var)
    pos = [vs.index(v) for v in p.vars if v != var]
    out: list[dict[tuple[int, ...], int]] = [{} for _ in range(p.degree(var) + 1)]
    for e, c in p.terms.items():
        ne = [0] * len(vs)
        for j, k in zip(pos, e[:i] + e[i + 1:]):
            ne[j] = k
        out[e[i]][tuple(ne)] = c.numerator * (den // c.denominator)
    return den, out


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
    """Sylvester resultant of p and q with respect to var.

    Vanishes exactly where p and q share a root in var, up to extraneous
    factors supported on the vanishing locus of the leading coefficients;
    callers screen those by back-substitution.
    """
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise AlgebraError(f"not eliminable: degree in {var} is {min(dp, dq)}")
    if dq == 1:
        # Res(p, q1 v + q0) = (-1)^deg(p) sum p_i (-q0)^i q1^(deg p - i) is
        # homogeneous of degree 1 in p's coefficients and deg p in q's, so
        # with p = P / dP and q = Q / dQ for integer P and Q it is
        # Res(P, Q) / (dP dQ^deg p)
        vs = tuple(sorted((set(p.vars) | set(q.vars)) - {var}))
        dP, pc = _integer_coeffs_in(p, var, vs)
        dQ, (q0, q1) = _integer_coeffs_in(q, var, vs)
        one = {(0,) * len(vs): 1}
        neg_q0 = {e: -c for e, c in q0.items()}
        pow0, pow1 = [one], [one]
        for _ in range(dp):
            pow0.append(_integer_mul(pow0[-1], neg_q0))
            pow1.append(_integer_mul(pow1[-1], q1))
        acc: dict[tuple[int, ...], int] = {}
        for i, ci in enumerate(pc):
            if ci:
                for e, c in _integer_mul(_integer_mul(ci, pow0[i]), pow1[dp - i]).items():
                    acc[e] = acc.get(e, 0) + c
        den = dP * dQ**dp if dp % 2 == 0 else -dP * dQ**dp
        return MultiPoly(vs, {e: Fraction(c, den) for e, c in acc.items() if c})
    if dp == 1:
        r = resultant(q, p, var)
        return r if (dp * dq) % 2 == 0 else -r
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    size = dp + dq
    zero = MultiPoly.zero()
    rows: list[list[MultiPoly]] = []
    prow = list(reversed(pc))
    qrow = list(reversed(qc))
    for i in range(dq):
        rows.append([zero] * i + prow + [zero] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + qrow + [zero] * (size - dq - 1 - i))
    return _bareiss_det(rows)
