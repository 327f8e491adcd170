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
remainder is made of `MONOMIALS` is one entry: its partners and its build
(params, b and split from the scenario values).
`feedforward_truth` keeps its own closed forms, as the oracle that `verify`
checks runs against.
"""

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .digraph import _diagonal, _frozen, _instance, _table
from .errors import Unsupported


@dataclass(frozen=True)
class Plant:
    kind: str
    params: dict
    b: float
    f: Optional[Callable] = None    # a custom plant's drift f(x1, x2, v, t); None if built-in
    split: Optional[tuple] = None   # a built-in plant's split, from its `Kind.build`
    nominal: Optional[dict] = None  # the scenario's values, before `draw` perturbed them
    uncertainty: float = 0.0        # the fraction `draw` perturbed them by

    def __post_init__(self):
        _check_gain(self.b)


def _check_gain(b):
    if b <= 0:
        raise ValueError("control gain b must be positive")


def _plant(kind, params, b, f=None, split=None, nominal=None, uncertainty=0.0) -> Plant:
    """Plant(kind, params, b, f, split, nominal, uncertainty), checked, built by `_instance`."""
    _check_gain(b)
    return _instance(Plant, {"kind": kind, "params": params, "b": b, "f": f, "split": split,
                             "nominal": nominal, "uncertainty": uncertainty})


@dataclass(frozen=True)
class Kind:
    """A built-in plant kind, declared once."""

    partners: tuple       # the factors p1, p2 that x1 and x2 meet first: "x1", "x2" or None
    shared: bool          # whether the remainder has the shared monomial v1^2 v2
    reads: int            # the one linear v entry, also the last v entry the drift reads
    keys: tuple           # scenario keys, in constructor order
    perturbed: int        # how many leading keys `uncertainty` perturbs, in draw order
    admissible: Callable  # the keys' values in order, drawn -> whether the draw is kept;
                          # elementwise on columns of values too
    build: Callable       # the keys' values in order -> (params, b, split); ValueError if
                          # refused.  split: (coefficients on x1, x2 and v[reads], on MONOMIALS)


# The remainder's monomials, each a product of two factors, with p1 and p2 a
# kind's partners of x1 and x2 (0 for None); v1 v2 and v1^2 v2 exist only
# for a kind with the shared monomial.
MONOMIALS = ("x1 p1", "x2 p2", "x1 (x1 p1)", "x2 (x2 p2)", "v1 (v1 v2)")


def _vdp(mu1, mu2, b, amplitude):
    a_w = mu2 * amplitude
    return ({"mu1": mu1, "mu2": mu2, "b": b, "amplitude": amplitude, "a_w": a_w}, b,
            ((0.0, mu1, a_w), (-1.0, 0.0, -mu1, 0.0, 0.0)))


def _spring(m, k1, k2, mu1, mu2, a_w):
    if m <= 0:
        raise ValueError("mass must be positive")
    return ({"m": m, "k1": k1, "k2": k2, "mu1": mu1, "mu2": mu2, "a_w": a_w}, 1.0 / m,
            ((-k1 / m, -mu1 / m, -a_w / m), (0.0, 0.0, -k2 / m, -mu2 / m, a_w / m)))


def vdp_like(mu1, mu2, b, amplitude) -> Plant:
    """First worked example: van-der-Pol-like drift plus sinusoidal disturbance Aw v1."""
    return _build("vdp_like", (mu1, mu2, b, amplitude), None, 0.0)


def damping_spring(m, k1, k2, mu1, mu2, a_w) -> Plant:
    """Second worked example, normalized by the mass (b = 1/m)."""
    return _build("damping_spring", (m, k1, k2, mu1, mu2, a_w), None, 0.0)


def custom(f, b) -> Plant:
    return _plant("custom", {}, b, f)


KINDS = {
    "vdp_like": Kind(partners=("x2", None), shared=False, reads=0,
                     keys=("mu1", "mu2", "b", "amplitude"), perturbed=3,
                     admissible=lambda mu1, mu2, b, amplitude: (mu1 > 0) & (b > 0),
                     build=_vdp),
    "damping_spring": Kind(partners=("x1", "x2"), shared=True, reads=1,
                           keys=("m", "k1", "k2", "mu1", "mu2", "a_w"), perturbed=5,
                           admissible=lambda m, *rest: m > 0, build=_spring),
}


# per built-in kind, the v entry its plants' rows in `plant_linear` read
_READS = {name: float(kind.reads) for name, kind in KINDS.items()}
# per built-in kind, nominal -> the values at its keys, in order
_VALUES = {name: itemgetter(*kind.keys) for name, kind in KINDS.items()}


class NoAdmissibleDraw(ValueError):
    """Rejection sampling found no admissible perturbed parameters."""


class Uniforms:
    """rng.random()'s doubles in [0, 1), drawn `block` at a time and handed out in order.

    `ahead(k)` shows the next k doubles and `take(k)` hands them out.  When
    fewer are left, either draws max(block, k) more behind them, so a taker
    sees rng.random()'s stream in order whatever the block.  block = 0 draws
    just what each call asks for; a larger block draws ahead, past what may
    ever be taken, so such a stream must be its rng's only reader.
    """

    def __init__(self, rng, block=0):
        self._rng, self._block = rng, block
        self._buf, self._at = np.empty(0), 0

    def ahead(self, k):
        """The next k doubles, which stay in the stream."""
        at, buf = self._at, self._buf
        if at + k > len(buf):
            more = self._rng.random(max(self._block, k))
            buf = self._buf = np.concatenate((buf[at:], more)) if at < len(buf) else more
            at = self._at = 0
        return buf[at:at + k]

    def take(self, k):
        """The next k doubles, as `ahead` shows them, and the stream moved past them."""
        taken = self.ahead(k)
        self._at += k
        return taken


# a plant draws at most this many doubles per try
_MOST_PERTURBED = max(kind.perturbed for kind in KINDS.values())
# per built-in kind, a column of the offsets of a try's doubles from its first
_TRY_OFFSETS = {name: np.arange(kind.perturbed)[:, None] for name, kind in KINDS.items()}


def draw_stream(rng, count):
    """The one stream that count plants draw from in order; a block holds one try of each."""
    return Uniforms(rng, count * _MOST_PERTURBED)


def _build(name, values, nominal, uncertainty) -> Plant:
    """The built-in plant `name` at values, its kind's keys' values in order."""
    params, b, split = KINDS[name].build(*values)
    return _plant(name, params, b, None, split, nominal, uncertainty)


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
    parser's buffered stream draws (`draw_all`).  The plant records nominal
    and uncertainty, so `redraw` repeats the draw from another stream.
    Raises NoAdmissibleDraw when no try of max_draws is admissible, and
    ValueError when the constructor refuses the values.
    """
    kind = KINDS[name]
    values = _VALUES[name](nominal)
    if uncertainty:
        uniforms = rng if isinstance(rng, Uniforms) else Uniforms(rng)
        low = -uncertainty
        span = uncertainty - low
        count = kind.perturbed
        fixed = values[count:]
        for _ in range(max_draws):
            drawn = [x * (1.0 + (low + span * r))
                     for x, r in zip(values, uniforms.take(count).tolist())]
            if kind.admissible(*drawn, *fixed):
                break
        else:
            raise NoAdmissibleDraw("rejection sampling failed to find admissible parameters")
        values = (*drawn, *fixed)
    return _build(name, values, nominal, uncertainty)


def _first_tries(names, nominals, uncertainties, uniforms):
    """The values `draw` keeps for the leading plants whose first try it keeps.

    Every plant with uncertainty takes its kind's `perturbed` doubles from
    uniforms in turn, as its first try in `draw` takes them, and one pass
    per kind scales its plants' tries, in `draw`'s arithmetic, so float for
    float, and asks the kind's admissible of them all at once; a plant
    without uncertainty keeps its nominal values.  The plants end before
    the first whose try is refused, and uniforms is left at that plant's
    first try, so `draw` carries on from there.  Returns each leading
    plant's values, its kind's keys' in order.
    """
    counts = [KINDS[name].perturbed if frac else 0 for name, frac in zip(names, uncertainties)]
    starts = list(accumulate(counts, initial=0))
    r = uniforms.ahead(starts[-1])
    rows = [_VALUES[name](nominal) for name, nominal in zip(names, nominals)]
    values, end = list(rows), len(names)
    for name in set(names):
        kind, count = KINDS[name], KINDS[name].perturbed
        idx = [i for i, (other, drawn) in enumerate(zip(names, counts)) if other == name and drawn]
        if not idx:
            continue
        table = _table([rows[i] for i in idx], len(kind.keys))
        # table.T holds one column per plant, as high and tries do
        columns, high = table.T, np.array([uncertainties[i] for i in idx])
        low = -high
        tries = r[_TRY_OFFSETS[name] + np.array([starts[i] for i in idx])]
        columns[:count] *= 1.0 + (low + (high - low) * tries)
        kept = kind.admissible(*columns)
        if not kept.all():
            end = min(end, idx[int(kept.argmin())])
        for i, row in zip(idx, table.tolist()):
            values[i] = row
    uniforms.take(starts[end])
    return values[:end]


# Below this many plants with uncertainty, per-plant `draw` calls cost less than
# the vector pass's fixed numpy calls: the two crossed near 12 of ring200's
# vdp_like plants at uncertainty 0.2 (one BLAS thread, 2-core x86_64 host).
_FEWEST_FOR_VECTOR_PASS = 12


def draw_all(names, nominals, uncertainties, uniforms):
    """Plant by plant, in order, what `draw(name, nominal, uncertainty, uniforms)` gives.

    With at least `_FEWEST_FOR_VECTOR_PASS` plants with uncertainty, the
    leading plants whose first try is kept come from one vector pass per
    kind (`_first_tries`); from the first refused one on, and in a smaller
    set throughout, each plant is one `draw` call.  A generator: a plant's
    error is raised when the caller reaches it.
    """
    drawing = sum(map(bool, uncertainties))
    leading = (_first_tries(names, nominals, uncertainties, uniforms)
               if drawing >= _FEWEST_FOR_VECTOR_PASS else [])
    yield from map(_build, names, leading, nominals, uncertainties)
    for name, nominal, frac in zip(names[len(leading):], nominals[len(leading):],
                                   uncertainties[len(leading):]):
        yield draw(name, nominal, frac, uniforms)


def redraw(plants, rng):
    """The plants drawn again from rng, in order, as the scenario parser draws them.

    They share one buffered stream (`draw_stream`) over rng, which is theirs
    alone (`draw_all`).  A plant without uncertainty, a custom one included,
    is kept as it is and draws nothing.
    """
    uncertain = [p for p in plants if p.uncertainty]
    drawn = draw_all([p.kind for p in uncertain], [p.nominal for p in uncertain],
                     [p.uncertainty for p in uncertain], draw_stream(rng, len(plants)))
    return [next(drawn) if p.uncertainty else p for p in plants]


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
