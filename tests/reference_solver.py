"""Reference implementations that only the tests use.

``eval_float`` evaluates a MultiPoly at a float point term by term, the
float evaluator that the tests compare the package's float code against.
``residual_by_size`` is the residual screen's two floats as
``pwham.solver`` read them with a size polynomial per screened tuple: the
value by ``eval_float`` at the point, and the sum of the terms' moduli by
``eval_float`` of the polynomial of the absolute coefficients at the
absolute point.  The check on ``solver._residual``'s one pass.
"""

from fractions import Fraction

from pwham.algebra import MultiPoly


def eval_float(p: MultiPoly, point: dict[str, float]) -> float:
    """p at the float point: each coefficient as ``MultiPoly.floats`` makes
    it, times the integer powers of the coordinates, summed in the order of
    the terms."""
    acc = 0.0
    for e, t in p.floats().items():
        for v, k in zip(p.vars, e):
            if k:
                t *= point[v] ** k
        acc += t
    return acc


def residual_by_size(eq: MultiPoly, point: dict[str, Fraction]) -> tuple[float, float]:
    """(eq at the point, the sum of its terms' moduli) in floats."""
    fpt = {k: float(v) for k, v in point.items()}
    size = MultiPoly.from_ints(eq.vars, {e: abs(c) for e, c in eq.ints.items()}, eq.content)
    return eval_float(eq, fpt), eval_float(size, {k: abs(v) for k, v in fpt.items()})
