"""Reference implementations that only the tests use.

``uni_resultant`` is a plain-Fraction Sylvester determinant, the check on
``algebra.resultant``; ``discriminant`` is built on it.  ``expand_subs``
substitutes polynomials as well as rationals for variables, which
``MultiPoly.subs`` (rationals only) does not.
"""

from fractions import Fraction

from pwham.algebra import AlgebraError, MultiPoly, UniPoly


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
