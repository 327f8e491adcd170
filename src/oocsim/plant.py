"""Second-order agent plants and the shared disturbance exosystem.

Built-in plant kinds:

  vdp_like        x2' = -x1 x2 + mu1 x2 (1 - x1^2) + Aw v1 + b u
  damping_spring  m x1'' + k1 x1 + k2 x1^3 + mu1 x2 + mu2 x2^3 + Aw v2 (1 - v1^2) = u,
                  normalized by m so the control gain is b = 1/m > 0
  custom          user hook f(x1, x2, v, t) with an explicit gain b

The damping-spring equation is normalized by the mass up front: dividing
through by m keeps the physical equation intact while making the control
gain positive, as the problem setup requires.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import Unsupported


@dataclass(frozen=True)
class Plant:
    kind: str
    params: dict
    b: float
    f: Callable  # f(x1, x2, v, t) -> drift term added to b*u

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("control gain b must be positive")


def _vdp_drift(mu1, a_w, x1, x2, v, t):
    return -x1 * x2 + mu1 * x2 * (1.0 - x1 * x1) + a_w * v[0]


def _spring_drift(m, k1, k2, mu1, mu2, a_w, x1, x2, v, t):
    d = a_w * (v[1] * (1.0 - v[0] * v[0]))
    return -(k1 * x1 + k2 * x1 ** 3 + mu1 * x2 + mu2 * x2 ** 3 + d) / m


# kind -> (drift formula, the parameters it takes before x1, x2, v, t)
_DRIFTS = {
    "vdp_like": (_vdp_drift, ("mu1", "a_w")),
    "damping_spring": (_spring_drift, ("m", "k1", "k2", "mu1", "mu2", "a_w")),
}


def _bind_drift(kind, params):
    formula, names = _DRIFTS[kind]
    return partial(formula, *[params[name] for name in names])


def vdp_like(mu1, mu2, b, amplitude) -> Plant:
    """First worked example: van-der-Pol-like drift plus sinusoidal disturbance Aw v1."""
    params = {"mu1": mu1, "mu2": mu2, "b": b, "amplitude": amplitude,
              "a_w": mu2 * amplitude}
    return Plant(kind="vdp_like", params=params, b=b, f=_bind_drift("vdp_like", params))


def damping_spring(m, k1, k2, mu1, mu2, a_w) -> Plant:
    """Second worked example, normalized by the mass (b = 1/m)."""
    if m <= 0:
        raise ValueError("mass must be positive")
    params = {"m": m, "k1": k1, "k2": k2, "mu1": mu1, "mu2": mu2, "a_w": a_w}
    return Plant(kind="damping_spring", params=params, b=1.0 / m,
                 f=_bind_drift("damping_spring", params))


def custom(f, b) -> Plant:
    return Plant(kind="custom", params={}, b=b, f=f)


def plant_drift(plants):
    """Stacked drift f(x1, x2, v, t) -> (n,) of an agent set.

    A set of one built-in kind evaluates that kind's formula on parameter
    arrays; mixed or custom sets call each plant's own f.
    """
    kind = plants[0].kind
    if kind in _DRIFTS and all(p.kind == kind for p in plants):
        names = _DRIFTS[kind][1]
        return _bind_drift(kind, {k: np.array([p.params[k] for p in plants]) for k in names})
    fns = [p.f for p in plants]

    def drift(x1, x2, v, t):
        return np.array([f(a, b, v, t) for f, a, b in zip(fns, x1, x2)])

    return drift


def feedforward_truth(p: Plant, s_star, v) -> float:
    """Steady-state input u* = -f(s*, 0, v)/b, in closed form per built-in kind.

    Verification-only: the control loop never reads this.
    """
    if p.kind == "vdp_like":
        return -p.params["a_w"] * v[0] / p.b
    if p.kind == "damping_spring":
        k1, k2, a_w = p.params["k1"], p.params["k2"], p.params["a_w"]
        d = a_w * v[1] * (1.0 - v[0] * v[0])
        return k1 * s_star + k2 * s_star ** 3 + d
    raise Unsupported(f"no ground-truth feedforward for plant kind {p.kind!r}")


@dataclass(frozen=True)
class Exosystem:
    """Autonomous linear disturbance generator v' = S v."""

    S: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("S must be square")
        if v0.shape != (s.shape[0],):
            raise ValueError("v0 dimension must match S")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "v0", v0)

    @property
    def dim(self):
        return self.S.shape[0]

    def is_conservative(self):
        """Skew-symmetric S preserves the norm of v."""
        return np.allclose(self.S, -self.S.T, atol=1e-12)


def rotation_exosystem(sigma, v0=None) -> Exosystem:
    """S = [[0, sigma], [-sigma, 0]]; with v0 = (0, A) one has v1(t) = A sin(sigma t)."""
    s = np.array([[0.0, sigma], [-sigma, 0.0]])
    if v0 is None:
        v0 = np.array([0.0, 1.0])
    return Exosystem(S=s, v0=np.asarray(v0, dtype=float))
