"""Reference implementations that only the tests use.

``residual_by_size`` is the residual screen's two floats as
``pwham.solver`` read them with a size polynomial per screened tuple: the
value by ``MultiPoly.eval_float`` at the point, and the sum of the terms'
moduli by ``eval_float`` of the polynomial of the absolute coefficients at
the absolute point.  The check on ``solver._residual``'s one pass.
"""

from fractions import Fraction

from pwham.algebra import MultiPoly


def residual_by_size(eq: MultiPoly, point: dict[str, Fraction]) -> tuple[float, float]:
    """(eq at the point, the sum of its terms' moduli) in floats."""
    fpt = {k: float(v) for k, v in point.items()}
    size = MultiPoly.from_ints(eq.vars, {e: abs(c) for e, c in eq.ints.items()}, eq.content)
    return eq.eval_float(fpt), size.eval_float({k: abs(v) for k, v in fpt.items()})
