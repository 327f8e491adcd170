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
declared as products of factors with one coefficient each per plant: x1 and
x2 first meet the kind's partners p1 and p2, and then x1 and x2 again
(`MONOMIALS`):

  vdp_like        -x1 x2 - mu1 x1^2 x2       p1 = x2: x1 x2, x1 (x1 x2)
  damping_spring  -(k2 x1^3 + mu2 x2^3 - Aw v2 v1^2)/m
                                             p1 = x1, p2 = x2: x1 (x1 x1),
                                             x2 (x2 x2), and v1 (v1 v2)

The member derivative writes the first products in the same multiply as
the tracker's degree-2 features and the second ones in one more, and
scatters them, with their coefficients, onto x2' in the product that
applies the linear terms (`plant_linear`, `plant_remainder`).  A custom
plant's whole drift is its `Plant.f`, one feature with coefficient 1; a
built-in plant has no f, since its split is all the derivative reads.  Each
built-in kind is one `Kind` entry in `KINDS`, which the scenario parser,
`draw`, `plant_linear` and `plant_remainder` read, so a new kind whose
remainder is made of `MONOMIALS` is one entry: its partners and its split.
`feedforward_truth` keeps its own closed forms, as the oracle that `verify`
checks runs against.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .digraph import _diagonal, _frozen, _table
from .errors import Unsupported


@dataclass(frozen=True)
class Plant:
    kind: str
    params: dict
    b: float
    f: Optional[Callable] = None    # a custom plant's drift f(x1, x2, v, t); None if built-in
    split: Optional[tuple] = None   # a built-in plant's `Kind.split` of its params
    nominal: Optional[dict] = None  # the scenario's values, before `draw` perturbed them
    uncertainty: float = 0.0        # the fraction `draw` perturbed them by

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("control gain b must be positive")


@dataclass(frozen=True)
class Kind:
    """A built-in plant kind, declared once."""

    partners: tuple       # the factors p1, p2 that x1 and x2 meet first: "x1", "x2" or None
    shared: bool          # whether the remainder has the shared monomial v1^2 v2
    split: Callable       # params -> (coefficients on x1, x2 and v[reads], on MONOMIALS)
    reads: int            # the one linear v entry, also the last v entry the drift reads
    keys: tuple           # scenario keys, in constructor order
    perturbed: int        # how many leading keys `uncertainty` perturbs, in draw order
    admissible: Callable  # the keys' values in order, drawn -> whether the draw is kept
    params: Callable      # the keys' values in order -> (params, b); ValueError if refused


# The remainder's monomials, each a product of two factors, with p1 and p2 a
# kind's partners of x1 and x2 (0 for None); v1 v2 and v1^2 v2 exist only
# for a kind with the shared monomial.
MONOMIALS = ("x1 p1", "x2 p2", "x1 (x1 p1)", "x2 (x2 p2)", "v1 (v1 v2)")


def _vdp_split(params):
    return (0.0, params["mu1"], params["a_w"]), (-1.0, 0.0, -params["mu1"], 0.0, 0.0)


def _spring_split(params):
    m = params["m"]
    return ((-params["k1"] / m, -params["mu1"] / m, -params["a_w"] / m),
            (0.0, 0.0, -params["k2"] / m, -params["mu2"] / m, params["a_w"] / m))


def _built_in(name, params, b) -> Plant:
    return Plant(name, params, b, split=KINDS[name].split(params))


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
    "vdp_like": Kind(partners=("x2", None), shared=False, split=_vdp_split, reads=0,
                     keys=("mu1", "mu2", "b", "amplitude"), perturbed=3,
                     admissible=lambda mu1, mu2, b, amplitude: mu1 > 0 and b > 0,
                     params=_vdp_params),
    "damping_spring": Kind(partners=("x1", "x2"), shared=True, split=_spring_split,
                           reads=1, keys=("m", "k1", "k2", "mu1", "mu2", "a_w"), perturbed=5,
                           admissible=lambda m, *rest: m > 0, params=_spring_params),
}


# per built-in kind, the v entry its plants' rows in `plant_linear` read
_READS = {name: float(kind.reads) for name, kind in KINDS.items()}


class NoAdmissibleDraw(ValueError):
    """Rejection sampling found no admissible perturbed parameters."""


class Uniforms:
    """rng.random()'s doubles in [0, 1), drawn `block` at a time and handed out in order.

    `take(k)` returns the next k doubles.  When fewer are left, it draws
    max(block, k) more behind them, so a taker sees rng.random()'s stream in
    order whatever the block.  block = 0 draws just what each take asks for;
    a larger block draws ahead, past what may ever be taken, so such a
    stream must be its rng's only reader.
    """

    def __init__(self, rng, block=0):
        self._rng, self._block = rng, block
        self._buf, self._at = [], 0

    def take(self, k):
        at, buf = self._at, self._buf
        if at + k > len(buf):
            buf = self._buf = buf[at:] + self._rng.random(max(self._block, k)).tolist()
            at = 0
        self._at = at + k
        return buf[at:at + k]


# a plant draws at most this many doubles per try
_MOST_PERTURBED = max(kind.perturbed for kind in KINDS.values())


def draw_stream(rng, count):
    """The one stream that count plants draw from in order; a block holds one try of each."""
    return Uniforms(rng, count * _MOST_PERTURBED)


def draw(name, nominal, uncertainty, rng, max_draws=1000) -> Plant:
    """The built-in plant `name` with its perturbed keys drawn within +-uncertainty.

    nominal maps the kind's keys to the scenario's values.  rng is a numpy
    Generator or a `Uniforms` stream over one (`draw_stream`).  Each try
    takes one double r per perturbed key, in the kind's order, and scales
    the key by 1 + d with d = low + (high - low) r, low = -uncertainty and
    high = uncertainty, which is how `Generator.uniform(low, high)` forms
    its doubles from the same r; the first admissible try is kept, and no
    uncertainty draws nothing.  A Generator gives each try exactly its
    doubles, so per-plant calls on one Generator draw what the scenario
    parser's buffered stream draws.  The plant records nominal and
    uncertainty, so `redraw` repeats the draw from another stream.  Raises
    NoAdmissibleDraw when no try of max_draws is admissible, and ValueError
    when the constructor refuses the values.
    """
    kind = KINDS[name]
    values = [nominal[key] for key in kind.keys]
    if uncertainty:
        uniforms = rng if isinstance(rng, Uniforms) else Uniforms(rng)
        low = -uncertainty
        span = uncertainty - low
        count = kind.perturbed
        fixed = values[count:]
        for _ in range(max_draws):
            drawn = [x * (1.0 + (low + span * r)) for x, r in zip(values, uniforms.take(count))]
            if kind.admissible(*drawn, *fixed):
                break
        else:
            raise NoAdmissibleDraw("rejection sampling failed to find admissible parameters")
        values = drawn + fixed
    params, b = kind.params(*values)
    return Plant(name, params, b, split=kind.split(params), nominal=nominal,
                 uncertainty=uncertainty)


def redraw(plants, rng):
    """The plants drawn again from rng, in order, as the scenario parser draws them.

    They share one buffered stream (`draw_stream`) over rng, which is theirs
    alone.  A plant without uncertainty, a custom one included, is kept as it
    is and draws nothing.
    """
    uniforms = draw_stream(rng, len(plants))
    return [draw(p.kind, p.nominal, p.uncertainty, uniforms) if p.uncertainty else p
            for p in plants]


def plant_linear(slices, plants, u):
    """The plant's linear terms as COO parts (rows, cols, values) of the member operator.

    x1' = x2, each built-in plant's drift terms that are linear in the
    member state: mu1 x2 + Aw v1 for vdp_like, -(k1 x1 + mu1 x2 + Aw v2)/m
    for damping_spring (zero coefficients are left out), and b u.  u =
    (cols, owners, signs) lists the control's terms: agent owners[t]'s u
    holds signs[t] times the feature at column cols[t]
    (`tracker.tracker_linear`).  The rest of x2' = f(x1, x2, v, t) + b u is
    the remainder of `plant_remainder`.  slices maps "x1", "x2" and "v" to
    their slices of the member state.  Raises Unsupported when a built-in
    drift reads past the end of the "v" slice: vdp_like reads v1,
    damping_spring v1 and v2, whatever their coefficients.
    """
    x1, x2, v = slices["x1"].start, slices["x2"].start, slices["v"]
    # one row per plant: b, the last v entry its drift reads (-1 for a
    # custom plant) and its coefficients on x1, x2 and that v entry
    table = _table([(p.b, -1.0, 0.0, 0.0, 0.0) if p.split is None
                    else (p.b, _READS[p.kind]) + p.split[0] for p in plants], 5)
    b, reads, coefs = table[:, 0], table[:, 1].astype(np.intp), table[:, 2:]
    if reads.max() >= v.stop - v.start:
        i = int(reads.argmax())
        raise Unsupported(f"plant {i + 1} ({plants[i].kind}) reads v{reads[i] + 1}, "
                          f"past the exosystem's {v.stop - v.start}-entry state")
    agent = np.arange(len(plants))
    terms, owners, signs = u
    parts = [_diagonal(x1, x2, np.ones(len(plants))), (owners + x2, terms, b[owners] * signs)]
    for cols, values in zip((agent + x1, agent + x2, reads + v.start), coefs.T):
        agents = np.flatnonzero(values)
        parts.append((agents + x2, cols[agents], values[agents]))
    return parts


def plant_remainder(slices, plants, partner, product, col):
    """The drifts' nonlinear remainders as features: (pre, main, width, bind).

    The member derivative's first product multiplies each state entry j by
    its partner, pre row partner + j, into feature column product + j.  pre
    gives each built-in plant's partners p1 of x1 and p2 of x2 (its kind's
    `partners`) and, when a kind in the set has the shared monomial, v2 as
    the partner of v1, so that product writes x1 p1, x2 p2 and v1 v2.
    bind(buf) takes the buffer the member state and the features sit in, at
    the offsets of slices and the columns, and returns (multiplies, write):
    the multiplies (a, b, out) write x1 (x1 p1) and x2 (x2 p2) from column
    col on, when the set has a built-in plant, and then v1 (v1 v2); write(t)
    puts each custom plant's f into one feature after those, or is None
    without custom plants.  width counts the columns from col on.  main puts
    each built-in plant's coefficients of `MONOMIALS` (nonzero ones only),
    and 1 for a custom plant's f, on its x2' row.  The (x1, x2) slices must
    be adjacent.  Call `plant_linear` first: it refuses a drift that reads
    past v.
    """
    n = len(plants)
    x1, x2, v = (slices[key].start for key in ("x1", "x2", "v"))
    # one pass groups the built-in plants by kind, each with its
    # coefficients of MONOMIALS, and lists the custom ones
    by_kind, customs = {name: ([], []) for name in KINDS}, []
    for i, p in enumerate(plants):
        if p.split is None:
            customs.append(i)
        else:
            agents, coefs = by_kind[p.kind]
            agents.append(i)
            coefs.append(p.split[1])
    cubes = 2 * n if len(customs) < n else 0  # the columns of x1 (x1 p1) and x2 (x2 p2)
    groups = [(KINDS[name], np.array(agents), _table(coefs, len(MONOMIALS)))
              for name, (agents, coefs) in by_kind.items() if agents]
    shared = any(kind.shared for kind, _, _ in groups)
    pre, main = [], []
    for kind, agents, coefs in groups:
        for own, p in zip((x1, x2), kind.partners):
            if p is not None:
                pre.append((partner + own + agents, slices[p].start + agents,
                            np.ones(len(agents))))
        # each agent's coefficients of MONOMIALS, nonzero ones only
        cols = np.concatenate([product + x1 + agents, product + x2 + agents, col + agents,
                               col + n + agents, np.full(len(agents), col + cubes)])
        values = coefs.T.ravel()
        keep = np.flatnonzero(values)
        main.append((np.tile(agents + x2, len(MONOMIALS))[keep], cols[keep], values[keep]))
    if shared:
        pre.append((np.array([partner + v]), np.array([v + 1]), np.ones(1)))
    first_custom = col + cubes + shared
    if customs:
        main.append((np.array(customs) + x2, first_custom + np.arange(len(customs)),
                     np.ones(len(customs))))

    def bind(buf):
        multiplies = []
        if cubes:
            multiplies.append((buf[x1:x2 + n], buf[product + x1:product + x2 + n],
                               buf[col:col + cubes]))
        if shared:
            multiplies.append((buf[v:v + 1], buf[product + v:product + v + 1],
                               buf[col + cubes:col + cubes + 1]))
        if not customs:
            return multiplies, None
        fns = [(i, plants[i].f, first_custom + c) for c, i in enumerate(customs)]
        x1s, x2s, vs = buf[x1:x1 + n], buf[x2:x2 + n], buf[slices["v"]]

        def write(t):
            for i, f, c in fns:
                buf[c] = f(x1s[i], x2s[i], vs, t)

        return multiplies, write

    return pre, main, cubes + shared + len(customs), bind


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
    """Autonomous linear disturbance generator v' = S v.

    S and v0 are read-only float copies of the arrays given, as
    `Digraph.weights` is.
    """

    S: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        s = _frozen(self.S)
        v0 = _frozen(self.v0)
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
        """Skew-symmetric S, to 1e-12 in every entry of S + S^T, preserves the norm of v."""
        return bool(np.abs(self.S + self.S.T).max(initial=0.0) <= 1e-12)


def rotation_exosystem(sigma, v0=None) -> Exosystem:
    """S = [[0, sigma], [-sigma, 0]]; with v0 = (0, A) one has v1(t) = A sin(sigma t)."""
    s = np.array([[0.0, sigma], [-sigma, 0.0]])
    if v0 is None:
        v0 = np.array([0.0, 1.0])
    return Exosystem(S=s, v0=np.asarray(v0, dtype=float))
