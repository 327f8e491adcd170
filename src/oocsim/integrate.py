"""Fixed-step classical Runge-Kutta integration."""

import numpy as np

from .errors import Diverged


def rk4_step(f, t, y, h, w=None):
    """One classical 4th-order step of y' = f(t, y); raises Diverged on non-finite output.

    With stage inputs w = (w1, w2, w3, w4), stage j calls f(t_j, y_j, w_j):
    w holds inputs the caller advances itself, at t, t + h/2, t + h/2, t + h.

    y may have any shape.  No array that f was given or returned is written
    to, so f may keep its inputs or return a shared array.  Overflow and
    invalid-value warnings are silenced for the whole step: a non-finite
    result is reported as Diverged.
    """
    if w is None:
        g = f
        w = (None,) * 4

        def f(t, y, _):
            return g(t, y)

    w1, w2, w3, w4 = w
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(t, y, w1)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, w2)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, w3)
        k4 = f(t + h, y + h * k3, w4)
        out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise Diverged(f"non-finite state after step at t={t:.6g}", t=t)
    return out
