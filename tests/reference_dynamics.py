"""Reference implementations that only the tests use.

``dop853_step`` is one Dormand-Prince 8(5,3) step on any field function,
written out stage by stage from the tableau in ``pwham.dynamics``: the check
on the steps that ``dynamics`` generates per zone with the field inlined.
"""

import math

from pwham import dynamics
from pwham.dynamics import _A, _B, _E3, _E5


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
