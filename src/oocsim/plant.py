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
mu1 x2 + Aw v1 and -(k1 x1 + mu1 x2 + Aw v2)/m, and its nonlinear remainder,
declared as monomials with one coefficient each per plant:

  vdp_like        -x1 x2 - mu1 x1^2 x2              monomials x1 x2, x1^2 x2
  damping_spring  -(k2 x1^3 + mu2 x2^3 - Aw v2 v1^2)/m   x1^3, x2^3, v1^2 v2

The member derivative writes the monomials into its feature vector and
scatters them, with their coefficients, onto x2' in the same product that
applies the linear terms (`plant_linear`, `plant_remainder`); a custom
plant's f is one feature with coefficient 1.  `Plant.f` is what
`plant_linear` leaves out: for a built-in plant the remainder, computed from
the same declaration, for a custom plant its whole drift.  Each built-in
kind is one `Kind` entry in `KINDS`, which the scenario parser, `draw`,
`plant_linear` and `plant_remainder` read, so a new kind is one entry, its
split and its monomials.  `feedforward_truth` keeps its own closed forms, as
the oracle that `verify` checks runs against.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .digraph import _diagonal
from .errors import Unsupported


@dataclass(frozen=True)
class Plant:
    kind: str
    params: dict
    b: float
    f: Callable  # f(x1, x2, v, t) -> the drift less the terms `plant_linear` gives
    split: Optional[tuple] = None   # a built-in plant's `Kind.split` of its params
    nominal: Optional[dict] = None  # the scenario's values, before `draw` perturbed them
    uncertainty: float = 0.0        # the fraction `draw` perturbed them by

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("control gain b must be positive")


@dataclass(frozen=True)
class Kind:
    """A built-in plant kind, declared once."""

    features: Callable    # (x, v, rows, shared) -> write(t): the remainder's monomials
    per_agent: int        # monomials of each agent's (x1, x2), one row of n each
    shared: int           # monomials of v alone, shared by every agent
    split: Callable       # params -> (coefficients on x1, x2 and v[reads], of the monomials)
    reads: int            # the one linear v entry, also the last v entry the drift reads
    keys: tuple           # scenario keys, in constructor order
    perturbed: tuple      # the keys `uncertainty` perturbs, in draw order
    admissible: Callable  # drawn {perturbed key: value} -> whether the draw is kept
    params: Callable      # the keys' values in order -> (params, b); ValueError if refused


# Each features(x, v, rows, shared) binds views made once and returns the
# writer: x is the (2, n) block (x1, x2) of the member state, rows the
# (per_agent, n) and shared the (shared,) slots of the feature vector.

def _vdp_features(x, v, rows, shared):
    (x1, x2), (x1x2, x1x1x2) = x, rows

    def write(t):
        np.multiply(x1, x2, out=x1x2)
        np.multiply(x1, x1x2, out=x1x1x2)

    return write


def _spring_features(x, v, rows, shared):
    # x1^3 and x2^3 as one cube of the (x1, x2) block
    v1, v2 = v[0:1], v[1:2]

    def write(t):
        np.multiply(x, x, out=rows)
        np.multiply(rows, x, out=rows)
        np.multiply(v1, v1, out=shared)
        np.multiply(shared, v2, out=shared)

    return write


def _vdp_split(params):
    return (0.0, params["mu1"], params["a_w"]), (-1.0, -params["mu1"])


def _spring_split(params):
    m = params["m"]
    return ((-params["k1"] / m, -params["mu1"] / m, -params["a_w"] / m),
            (-params["k2"] / m, -params["mu2"] / m, params["a_w"] / m))


def _remainder(kind, coefficients, x1, x2, v, t):
    """A built-in plant's remainder at one state, from its kind's monomials."""
    rows, shared = np.empty((kind.per_agent, 1)), np.empty(kind.shared)
    kind.features(np.array([[x1], [x2]], dtype=float), np.asarray(v, dtype=float),
                  rows, shared)(t)
    return float(np.dot(coefficients, np.concatenate([rows[:, 0], shared])))


def _built_in(name, params, b, nominal=None, uncertainty=0.0) -> Plant:
    kind = KINDS[name]
    split = kind.split(params)
    return Plant(name, params, b, partial(_remainder, kind, split[1]), split, nominal,
                 uncertainty)


def _vdp_params(mu1, mu2, b, amplitude):
    return {"mu1": mu1, "mu2": mu2, "b": b, "amplitude": amplitude,
            "a_w": mu2 * amplitude}, b


def _spring_params(m, k1, k2, mu1, mu2, a_w):
    if m <= 0:
        raise ValueError("mass must be positive")
    return {"m": m, "k1": k1, "k2": k2, "mu1": mu1, "mu2": mu2, "a_w": a_w}, 1.0 / m


def vdp_like(mu1, mu2, b, amplitude) -> Plant:
    """First worked example: van-der-Pol-like drift plus sinusoidal disturbance Aw v1."""
    return _built_in("vdp_like", *_vdp_params(mu1, mu2, b, amplitude))


def damping_spring(m, k1, k2, mu1, mu2, a_w) -> Plant:
    """Second worked example, normalized by the mass (b = 1/m)."""
    return _built_in("damping_spring", *_spring_params(m, k1, k2, mu1, mu2, a_w))


def custom(f, b) -> Plant:
    return Plant(kind="custom", params={}, b=b, f=f)


KINDS = {
    "vdp_like": Kind(_vdp_features, per_agent=2, shared=0, split=_vdp_split, reads=0,
                     keys=("mu1", "mu2", "b", "amplitude"), perturbed=("mu1", "mu2", "b"),
                     admissible=lambda d: d["mu1"] > 0 and d["b"] > 0, params=_vdp_params),
    "damping_spring": Kind(_spring_features, per_agent=2, shared=1, split=_spring_split,
                           reads=1, keys=("m", "k1", "k2", "mu1", "mu2", "a_w"),
                           perturbed=("m", "k1", "k2", "mu1", "mu2"),
                           admissible=lambda d: d["m"] > 0, params=_spring_params),
}


class NoAdmissibleDraw(ValueError):
    """Rejection sampling found no admissible perturbed parameters."""


def draw(name, nominal, uncertainty, rng, max_draws=1000) -> Plant:
    """The built-in plant `name` with its perturbed keys drawn within +-uncertainty.

    nominal maps the kind's keys, in constructor order, to the scenario's
    values.  Each try draws one uniform factor in [1 - uncertainty,
    1 + uncertainty] per perturbed key from rng, in the kind's order, and the
    first admissible try is kept; no uncertainty draws nothing.  The plant
    records nominal and uncertainty, so `redraw` repeats the draw from
    another stream.  Raises NoAdmissibleDraw when no try of max_draws is
    admissible, and ValueError when the constructor refuses the values.
    """
    kind = KINDS[name]
    values = dict(nominal)
    if uncertainty:
        for _ in range(max_draws):
            drawn = {k: nominal[k] * (1.0 + rng.uniform(-uncertainty, uncertainty))
                     for k in kind.perturbed}
            if kind.admissible(drawn):
                break
        else:
            raise NoAdmissibleDraw("rejection sampling failed to find admissible parameters")
        values.update(drawn)
    return _built_in(name, *kind.params(*values.values()), nominal, uncertainty)


def redraw(plants, rng):
    """The plants drawn again from rng, in order, as the scenario parser draws them.

    A plant without uncertainty, a custom one included, is kept as it is and
    draws nothing.
    """
    return [draw(p.kind, p.nominal, p.uncertainty, rng) if p.uncertainty else p
            for p in plants]


def plant_linear(slices, plants, u_col):
    """The plant's linear terms as COO parts (rows, cols, values) of the member operator.

    x1' = x2, each built-in plant's drift terms that are linear in the
    member state: mu1 x2 + Aw v1 for vdp_like, -(k1 x1 + mu1 x2 + Aw v2)/m
    for damping_spring (zero coefficients are left out), and b u from the
    control u of each agent at columns u_col..u_col + n - 1.  The rest of
    x2' = f(x1, x2, v, t) + b u is the remainder of `plant_remainder`.
    slices maps "x1", "x2" and "v" to their slices of the member state.
    Raises Unsupported when a built-in drift reads past the end of the "v"
    slice: vdp_like reads v1, damping_spring v1 and v2, whatever their
    coefficients.
    """
    x1, x2, v = slices["x1"].start, slices["x2"].start, slices["v"]
    kinds = [KINDS.get(p.kind) for p in plants]
    reads = np.array([-1 if kind is None else kind.reads for kind in kinds])
    if reads.max() >= v.stop - v.start:
        i = int(reads.argmax())
        raise Unsupported(f"plant {i + 1} ({plants[i].kind}) reads v{reads[i] + 1}, "
                          f"past the exosystem's {v.stop - v.start}-entry state")
    coefs = np.array([(0.0, 0.0, 0.0) if p.split is None else p.split[0] for p in plants])
    agent = np.arange(len(plants))
    parts = [_diagonal(x1, x2, np.ones(len(plants))),
             _diagonal(x2, u_col, np.array([p.b for p in plants]))]
    for cols, values in zip((agent + x1, agent + x2, reads + v.start), coefs.T):
        agents = np.flatnonzero(values)
        parts.append((agents + x2, cols[agents], values[agents]))
    return parts


def plant_remainder(slices, plants, col):
    """The drifts' nonlinear remainders as features: (COO parts, width, bind).

    Each built-in kind in the set gives its monomials of every agent, from
    column col on, in the order of `KINDS`, and each custom plant one
    feature, its f, after them: width columns in all.  The parts put each
    plant's coefficients of its kind's monomials (nonzero ones only), and 1
    for a custom plant's f, on its x2' row.  bind(buf) takes the buffer the
    member state and the features sit in, at the offsets of slices and col,
    and returns write(t), which fills the features from the state in it.
    Mixed sets write each kind's monomials for every agent, and use those of
    the plant's own kind.  Call `plant_linear` first: it refuses a drift that
    reads past v.
    """
    n = len(plants)
    row = slices["x2"].start
    by_kind = {}
    for i, p in enumerate(plants):
        by_kind.setdefault(p.kind, []).append(i)
    blocks, parts, start = [], [], col
    for name, kind in KINDS.items():
        agents = by_kind.get(name)
        if agents is None:
            continue
        coefs = np.array([plants[i].split[1] for i in agents])
        agents = np.array(agents)
        # monomial j < per_agent of agent i sits at start + j n + i, shared
        # monomial j at start + per_agent n + j - per_agent for every agent
        for j, values in enumerate(coefs.T):
            cols = (start + j * n + agents if j < kind.per_agent
                    else np.full(len(agents), start + (n - 1) * kind.per_agent + j))
            keep = np.flatnonzero(values)
            parts.append((agents[keep] + row, cols[keep], values[keep]))
        blocks.append((kind, start))
        start += kind.per_agent * n + kind.shared
    customs = [i for i, p in enumerate(plants) if p.kind not in KINDS]
    if customs:
        parts.append((np.array(customs) + row, start + np.arange(len(customs)),
                      np.ones(len(customs))))

    def bind(buf):
        x = buf[slices["x1"].start:slices["x2"].stop].reshape(2, n)
        v = buf[slices["v"]]
        writers = []
        for kind, c in blocks:
            shared = c + kind.per_agent * n
            writers.append(kind.features(x, v, buf[c:shared].reshape(-1, n),
                                         buf[shared:shared + kind.shared]))
        if customs:
            fns = [(i, plants[i].f, start + c) for c, i in enumerate(customs)]
            x1, x2 = x

            def write_customs(t):
                for i, f, c in fns:
                    buf[c] = f(x1[i], x2[i], v, t)

            writers.append(write_customs)
        if len(writers) == 1:
            return writers[0]

        def write(t):
            for writer in writers:
                writer(t)

        return write

    return parts, start + len(customs) - col, bind


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
