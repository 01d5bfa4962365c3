"""Reference implementations that only the tests use.

``uni_resultant`` is a plain-Fraction Sylvester determinant, the check on
``algebra.resultant``; ``discriminant`` is built on it.  ``expand_subs``
substitutes polynomials as well as rationals for variables, which
``MultiPoly.subs`` (rationals only) does not.

``poly_divmod``, ``reduce_content``, ``gcd``, ``squarefree``,
``sturm_chain`` and ``linear_resultant`` are the Fraction versions of the
kernels that ``algebra`` runs on integers: Euclidean remainder sequences
with a content reduction after each step, long division, and the
linear-pivot resultant formula summed in Fractions.  The integer kernels
must return exactly what these return.

``frac_add``, ``frac_mul``, ``frac_subs``, ``frac_diff``, ``frac_coeffs_in``
and ``frac_div`` are the same operations on plain-Fraction term dicts, the
check on ``MultiPoly``'s content/primitive split.
"""

from fractions import Fraction
from math import gcd as igcd, lcm

from pwham.algebra import AlgebraError, MultiPoly, UniPoly


def poly_divmod(p: UniPoly, q: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of Fraction long division."""
    if q.is_zero:
        raise AlgebraError("division by zero polynomial")
    quo = [Fraction(0)] * max(0, len(p.coeffs) - len(q.coeffs) + 1)
    r = list(p.coeffs)
    d = q.degree
    while len(r) - 1 >= d and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < d:
            break
        k = len(r) - 1 - d
        f = r[-1] / q.lead
        quo[k] = f
        for i, c in enumerate(q.coeffs):
            r[k + i] -= f * c
        r.pop()
    return UniPoly(quo, p.var), UniPoly(r, p.var)


def reduce_content(p: UniPoly) -> UniPoly:
    """p divided by its positive rational content: coprime integer
    coefficients with p's signs."""
    if p.is_zero:
        return p
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = igcd(*ints)
    return UniPoly([Fraction(v, g) for v in ints], p.var)


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by a content-reduced Euclidean remainder sequence."""
    a, b = reduce_content(p), reduce_content(q)
    while not b.is_zero:
        a, b = b, reduce_content(poly_divmod(a, b)[1])
    return a if a.is_zero else a * (1 / a.lead)


def squarefree(p: UniPoly) -> UniPoly:
    """p / gcd(p, p') by long division; p itself when the gcd is constant."""
    if p.degree < 1:
        return p
    g = gcd(p, p.deriv())
    if g.degree == 0:
        return p
    q, r = poly_divmod(p, g)
    assert r.is_zero
    return q


def sturm_chain(p: UniPoly) -> list[list[int]]:
    """Euclidean Sturm sequence, each member content-reduced, as integer
    coefficient lists."""
    chain = [reduce_content(p), reduce_content(p.deriv())]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(reduce_content(-rem))
    return [[c.numerator for c in q.coeffs] for q in chain]


def linear_resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Res(p, q1 var + q0) = (-1)^d sum p_i (-q0)^i q1^(d - i), d = deg p,
    summed in Fractions."""
    pc, (q0, q1) = p.coeffs_in(var), q.coeffs_in(var)
    d = len(pc) - 1
    acc = MultiPoly.zero()
    for i, ci in enumerate(pc):
        acc = acc + ci * (-q0) ** i * q1 ** (d - i)
    return acc if d % 2 == 0 else -acc


def uni_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of two univariate polynomials (Sylvester determinant)."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - n - 1 - i))
    # plain fraction Gaussian elimination is fine at these sizes
    det = Fraction(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f == 0:
                continue
            for c2 in range(col, size):
                rows[r][c2] -= f * rows[col][c2]
    return det


def discriminant(p: UniPoly) -> Fraction:
    """Resultant-based discriminant: Res(p, p') / lead(p), up to sign."""
    if p.degree < 1:
        raise AlgebraError("discriminant needs positive degree")
    return uni_resultant(p, p.deriv()) / p.lead


def expand_subs(p: MultiPoly, mapping: dict) -> MultiPoly:
    """Substitute polynomials or rationals for variables by term-by-term
    expansion, every value as a polynomial."""
    polys = {k: v if isinstance(v, MultiPoly) else MultiPoly.const(v)
             for k, v in mapping.items()}
    out = MultiPoly.zero()
    for e, c in p.terms.items():
        term = MultiPoly.const(c)
        for v, k in zip(p.vars, e):
            if k:
                term = term * polys.get(v, MultiPoly.var(v)) ** k
        out = out + term
    return out


# -- plain-Fraction term dicts: the check on the content/primitive split ---------
#
# A polynomial is (vars, {exponent tuple: nonzero Fraction}), every operation a
# loop over Fraction coefficients, as ``MultiPoly`` ran before it held its
# coefficients as integers times one content.


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def frac_add(a: dict, b: dict) -> dict:
    return _nonzero({e: a.get(e, 0) + b.get(e, 0) for e in {**a, **b}})


def frac_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def frac_subs(vs: tuple, a: dict, values: dict) -> tuple:
    """(variables, terms) after substituting the rationals in values: the
    variables left are those with a positive exponent in some term."""
    keep = [i for i, v in enumerate(vs) if v not in values and any(e[i] for e in a)]
    out: dict = {}
    for e, c in a.items():
        for v, k in zip(vs, e):
            if v in values:
                c *= Fraction(values[v]) ** k
        key = tuple(e[i] for i in keep)
        out[key] = out.get(key, 0) + c
    return tuple(vs[i] for i in keep), _nonzero(out)


def frac_diff(vs: tuple, a: dict, var: str) -> dict:
    i = vs.index(var)
    return _nonzero({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]})


def frac_coeffs_in(vs: tuple, a: dict, var: str) -> list:
    """The coefficients in var, ascending, each a term dict over the rest."""
    i = vs.index(var)
    out = [{} for _ in range(max(e[i] for e in a) + 1)] if a else []
    for e, c in a.items():
        out[e[i]][e[:i] + e[i + 1:]] = c
    return out


def frac_div(a: dict, b: dict) -> dict:
    """a / b by lex leading terms in Fractions; b must divide a."""
    r, q = dict(a), {}
    eb = max(b)
    while r:
        er = max(r)
        eq = tuple(x - y for x, y in zip(er, eb))
        assert min(eq) >= 0, "inexact division"
        q[eq] = r[er] / b[eb]
        r = frac_add(r, {e: -c for e, c in frac_mul({eq: q[eq]}, b).items()})
    return q
