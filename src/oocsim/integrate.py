"""Fixed-step classical Runge-Kutta integration."""

import numpy as np

from .errors import Diverged


def rk4_step(f, t, y, h):
    """One classical 4th-order step of y' = f(t, y); raises Diverged on non-finite output."""
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = f(t + h, y + h * k3)
        out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise Diverged(f"non-finite state after step at t={t:.6g}", t=t)
    return out
