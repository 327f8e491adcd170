"""Fixed-step classical Runge-Kutta integration."""

import numpy as np

from .errors import Diverged


def rk4_step(f, t, y, h, w=None):
    """One classical 4th-order step of y' = f(t, y); raises Diverged on non-finite output.

    With stage inputs w = (w1, w2, w3, w4), stage j calls f(t_j, y_j, w_j):
    w holds inputs the caller advances itself, at t, t + h/2, t + h/2 and t + h.

    y may have any shape.  Each stage's k is folded into a running sum before
    f is called again, acc = k1, then += 2 k2, += 2 k3 and += k4, which rounds
    as k1 + 2 k2 + 2 k3 + k4 does from the left.  So f may return one buffer
    that it overwrites on every call.  No array that f returned is written to,
    and each stage input is a new array that is never written after f has
    seen it, so f may keep its inputs.  Overflow and invalid-value warnings
    are silenced for the whole step: a non-finite result is reported as
    Diverged.
    """
    if w is None:
        g = f
        w = (None,) * 4

        def f(t, y, _):
            return g(t, y)

    w1, w2, w3, w4 = w
    half = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        acc = np.array(f(t, y, w1))
        k = f(t + half, y + half * acc, w2)
        acc += 2.0 * k
        k = f(t + half, y + half * k, w3)
        acc += 2.0 * k
        k = f(t + h, y + h * k, w4)
        acc += k
        out = y + (h / 6.0) * acc
    if not np.isfinite(out).all():
        raise Diverged(f"non-finite state after step at t={t:.6g}", t=t)
    return out
