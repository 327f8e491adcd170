"""One RK4 step of y' = f(t, y), a system with no stage inputs, by the program's step."""

from oocsim.sim import rk4_step


def plain_step(f, t, y, h):
    """`rk4_step` of y' = f(t, y): the four stage inputs are None and f never sees them."""
    return rk4_step(lambda t, y, _: f(t, y), t, y, h, (None,) * 4)
