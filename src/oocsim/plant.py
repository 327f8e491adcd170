"""Second-order agent plants and the shared disturbance exosystem.

Built-in plant kinds:

  vdp_like        x2' = -x1 x2 + mu1 x2 (1 - x1^2) + Aw v1 + b u
  damping_spring  m x1'' + k1 x1 + k2 x1^3 + mu1 x2 + mu2 x2^3 + Aw v2 (1 - v1^2) = u,
                  normalized by m so the control gain is b = 1/m > 0
  custom          user hook f(x1, x2, v, t) with an explicit gain b

The damping-spring equation is normalized by the mass up front: dividing
through by m keeps the physical equation intact while making the control
gain positive, as the problem setup requires.

Each built-in drift is split into its terms linear in the member state,
mu1 x2 + Aw v1 and -(k1 x1 + mu1 x2 + Aw v2)/m, which `plant_linear` gives
to the member operator, and its nonlinear remainder:

  vdp_like        -x1 x2 (1 + mu1 x1)
  damping_spring  -(k2 x1^3 + mu2 x2^3 - Aw v2 v1^2)/m

`Plant.f` is what `plant_linear` leaves out: a built-in plant's remainder, a
custom plant's whole drift.  Each built-in kind is one `Kind` entry in
`KINDS`, which the scenario parser, `plant_linear` and `plant_drift` read, so
a new kind is one entry and its two formulas.  `feedforward_truth` keeps its
own closed forms, as the oracle that `verify` checks runs against.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .digraph import _diagonal
from .errors import Unsupported


@dataclass(frozen=True)
class Plant:
    kind: str
    params: dict
    b: float
    f: Callable  # f(x1, x2, v, t) -> the drift less the terms `plant_linear` gives

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("control gain b must be positive")


@dataclass(frozen=True)
class Kind:
    """A built-in plant kind, declared once."""

    remainder: Callable   # (*constants, x1, x2, v, t) -> the drift's nonlinear remainder
    split: Callable       # params -> (coefficients on x1, x2 and v[reads], constants)
    reads: int            # the one linear v entry, also the last v entry the drift reads
    keys: tuple           # scenario keys, in constructor order
    perturbed: tuple      # the keys `uncertainty` perturbs, in draw order
    admissible: Callable  # drawn {perturbed key: value} -> whether the draw is kept
    build: Callable       # the constructor, called with the keys' values in order


def _vdp_remainder(mu1, x1, x2, v, t):
    return x1 * x2 * (-1.0 - mu1 * x1)


def _spring_remainder(k2, mu2, a_w, x1, x2, v, t):
    # bound constants -k2/m, -mu2/m and -a_w/m
    return k2 * (x1 * x1 * x1) + mu2 * (x2 * x2 * x2) - a_w * (v[1] * (v[0] * v[0]))


def _vdp_split(params):
    return (0.0, params["mu1"], params["a_w"]), (params["mu1"],)


def _spring_split(params):
    m = params["m"]
    return ((-params["k1"] / m, -params["mu1"] / m, -params["a_w"] / m),
            tuple(-params[name] / m for name in ("k2", "mu2", "a_w")))


def _built_in(name, params, b) -> Plant:
    kind = KINDS[name]
    return Plant(kind=name, params=params, b=b,
                 f=partial(kind.remainder, *kind.split(params)[1]))


def vdp_like(mu1, mu2, b, amplitude) -> Plant:
    """First worked example: van-der-Pol-like drift plus sinusoidal disturbance Aw v1."""
    params = {"mu1": mu1, "mu2": mu2, "b": b, "amplitude": amplitude,
              "a_w": mu2 * amplitude}
    return _built_in("vdp_like", params, b)


def damping_spring(m, k1, k2, mu1, mu2, a_w) -> Plant:
    """Second worked example, normalized by the mass (b = 1/m)."""
    if m <= 0:
        raise ValueError("mass must be positive")
    params = {"m": m, "k1": k1, "k2": k2, "mu1": mu1, "mu2": mu2, "a_w": a_w}
    return _built_in("damping_spring", params, 1.0 / m)


def custom(f, b) -> Plant:
    return Plant(kind="custom", params={}, b=b, f=f)


KINDS = {
    "vdp_like": Kind(_vdp_remainder, _vdp_split, reads=0,
                     keys=("mu1", "mu2", "b", "amplitude"), perturbed=("mu1", "mu2", "b"),
                     admissible=lambda d: d["mu1"] > 0 and d["b"] > 0, build=vdp_like),
    "damping_spring": Kind(_spring_remainder, _spring_split, reads=1,
                           keys=("m", "k1", "k2", "mu1", "mu2", "a_w"),
                           perturbed=("m", "k1", "k2", "mu1", "mu2"),
                           admissible=lambda d: d["m"] > 0, build=damping_spring),
}


def plant_drift(plants):
    """Stacked nonlinear remainder f(x1, x2, v, t) -> (n,) of an agent set's drift.

    The drift's linear terms are not in it: `plant_linear` gives them.  A set
    of one built-in kind evaluates that kind's remainder on arrays of its
    bound constants; mixed or custom sets call each plant's own `f`.
    """
    kind = KINDS.get(plants[0].kind)
    if kind is not None and all(p.kind == plants[0].kind for p in plants):
        constants = np.array([kind.split(p.params)[1] for p in plants]).T
        return partial(kind.remainder, *constants)
    fns = [p.f for p in plants]

    def drift(x1, x2, v, t):
        return np.array([f(a, b, v, t) for f, a, b in zip(fns, x1, x2)])

    return drift


def plant_linear(slices, plants):
    """The plant's linear terms as COO parts (rows, cols, values) over the member state.

    x1' = x2, and each built-in plant's drift terms that are linear in the
    member state: mu1 x2 + Aw v1 for vdp_like, -(k1 x1 + mu1 x2 + Aw v2)/m
    for damping_spring (zero coefficients are left out).  The rest of
    x2' = f(x1, x2, v, t) + b u is the remainder of `plant_drift` plus the
    tracker's b u.  slices maps "x1", "x2" and "v" to their slices of the
    member state.  Raises Unsupported when a built-in drift reads past the
    end of the "v" slice: vdp_like reads v1, damping_spring v1 and v2,
    whatever their coefficients.
    """
    x1, x2, v = slices["x1"].start, slices["x2"].start, slices["v"]
    kinds = [KINDS.get(p.kind) for p in plants]
    reads = np.array([-1 if kind is None else kind.reads for kind in kinds])
    if reads.max() >= v.stop - v.start:
        i = int(reads.argmax())
        raise Unsupported(f"plant {i + 1} ({plants[i].kind}) reads v{reads[i] + 1}, "
                          f"past the exosystem's {v.stop - v.start}-entry state")
    coefs = np.array([(0.0, 0.0, 0.0) if kind is None else kind.split(p.params)[0]
                      for p, kind in zip(plants, kinds)])
    agent = np.arange(len(plants))
    parts = [_diagonal(x1, x2, np.ones(len(plants)))]
    for cols, values in zip((agent + x1, agent + x2, reads + v.start), coefs.T):
        agents = np.flatnonzero(values)
        parts.append((agents + x2, cols[agents], values[agents]))
    return parts


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
