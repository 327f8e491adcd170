"""Closed-loop assembly, fixed-step integration, metrics and verification.

The full closed loop couples, per agent: the optimal coordinator (references
yr_i, duals z_i, correction rows xi_i), the second-order plant, the internal
model eta_i with adaptive gain k_i and feedforward estimate psi_hat_i, plus
one shared exosystem state v.  The per-agent states yr, z, x1, x2, eta, k and
psi_hat form one flat member state of 7n + 2 sum(s_i) entries.  xi and v are
linear and read no other state, so a xi/v source advances them and feeds the
member derivative diag xi and v at each RK4 stage.  `assemble` builds only
the member derivative; `run` builds the source in one call,
`xi_v_source(L, S, v0, h)`.  Both advance with classical RK4 at a fixed step,
for determinism, and the source's numbers are classic RK4's on xi and v alone
up to rounding in the last bits.

The source is `ModalSource` unless L or S is defective or nearly so: from
the eigenmodes of -L and S it computes RK4's own stage values per mode,
e_k = R(h lambda)^k = exp(k log R(h lambda)) times RK4's stage polynomials,
and reads diag xi and v off them with one small real product per block.
Otherwise it is the Horner `LinearDriver`, which applies RK4's step
polynomial to W = blockdiag(xi, v) in Horner form and recombines the Horner
iterates into the stage values at the entries the member derivative reads.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import costs as costs_mod
from .coordinator import CoordinatorGains, coordinator_rhs, select_gains
from .digraph import Digraph, SpectralData, _add_product, _matvec, _operator, spectral_data
from .errors import Diverged, XiUnderflow
from .integrate import rk4_step
from .plant import Exosystem, feedforward_truth, plant_drift
from .tracker import FeedforwardTruth, StackedInternalModel, TrackerParams, tracker_rhs

DEFAULT_TOLERANCES = {
    "final_output_error": 5e-2,
    "xi_error": 1e-6,
    "z_conservation_drift": 1e-8,
    "xi_rowsum_drift": 1e-9,
    "exo_energy_drift": 1e-8,
    "sylvester_residual": 1e-10,
    "psi_error": 5e-2,
}


@dataclass(frozen=True)
class InitPolicy:
    """Seeded initial-condition ranges; None means start at zero."""

    x_range: tuple = (-2.0, 2.0)
    yr_range: tuple = (-5.0, 5.0)
    eta_range: Optional[tuple] = None
    k_range: Optional[tuple] = None
    psi_range: Optional[tuple] = None


@dataclass(frozen=True)
class Scenario:
    graph: Digraph
    costs: list
    plants: list
    exo: Exosystem
    tracker: TrackerParams
    im_specs: list
    seed: int
    gains: Optional[CoordinatorGains] = None  # None -> auto via select_gains
    frequencies: Optional[list] = None        # verification-mode exosystem modes
    check_psi: bool = False                   # compare learned psi_hat to its true value
    init: InitPolicy = field(default_factory=InitPolicy)
    horizon: float = 100.0
    step: float = 1e-3
    record_every: int = 100
    ablate_internal_model: bool = False
    tolerances: dict = field(default_factory=dict)
    name: str = "scenario"

    def __post_init__(self):
        n = self.graph.n
        if len(self.costs) != n or len(self.plants) != n or len(self.im_specs) != n:
            raise ValueError("costs, plants and im_specs must have one entry per agent")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not (math.isfinite(self.horizon) and math.isfinite(self.step)):
            raise ValueError("horizon and step must be finite")
        if self.horizon < 10 * self.step:
            raise ValueError("horizon must be at least 10 steps")
        if abs(self.n_steps * self.step - self.horizon) > 1e-9 * self.horizon:
            raise ValueError(f"horizon {self.horizon} is not a whole number of "
                             f"steps of {self.step}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self):
        return int(round(self.horizon / self.step))

    def tolerance(self, key):
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])


@dataclass(frozen=True)
class StateLayout:
    """Slice offsets into the flat member state: yr, z, x1, x2, eta, k, psi_hat.

    yr and z lead, so the first 2n entries are the coordinator's state.  xi
    and v are not here: the xi/v source of `run` holds them.
    """

    n: int
    s_dims: tuple

    def __post_init__(self):
        n = self.n
        total_s = sum(self.s_dims)
        off = 0
        names = {}
        for key, size in (("yr", n), ("z", n), ("x1", n), ("x2", n),
                          ("eta", total_s), ("k", n), ("psi", total_s)):
            names[key] = slice(off, off + size)
            off += size
        object.__setattr__(self, "slices", names)
        object.__setattr__(self, "dim", off)
        object.__setattr__(self, "total_s", total_s)


@dataclass
class System:
    """Assembled closed loop: derivative closure plus resolved parameters.

    derivative(t, y, w) takes the member state y and the stage input
    w = (diag xi, v).
    """

    layout: StateLayout
    spectral: SpectralData
    gains: CoordinatorGains
    derivative: callable


class LinearDriver:
    """RK4 for xi' = -L xi, xi(0) = I, and v' = S v, v(0) = v0, as one linear state.

    The fallback xi/v source: `xi_v_source` picks it when -L or S has no
    well-conditioned eigenvectors (`_eigenmodes`), for which `ModalSource`
    would lose accuracy; the tests also build it directly.  It works for any
    L and S, exact ones included.

    W = [[xi, 0], [0, v]] obeys W' = -B W with B = blockdiag(L, -S) and reads
    no other state, so RK4 on W alone is RK4 on the whole closed loop.

    The constructor builds B through `digraph._operator` (CSR when large and
    sparse, else dense).  For this linear W, RK4's step of h is the
    polynomial I - hB + (hB)^2/2 - (hB)^3/6 + (hB)^4/24, applied here in
    Horner form with A_k = -(h/k) B, built once at construction: `stages()`
    computes T4 = W + A4 W, T3 = W + A3 T4 and T2 = W + A2 T3 into three
    buffers, and `finish(t)` does W += A1 T2, all through
    `digraph._add_product`.  For a CSR B each iterate is copy then
    accumulate: W is copied into T_k and scipy's kernel adds A_k T_{k+1} to
    it in place, so no product array is made (a dense B runs
    np.add(W, A_k @ T, out=T_k)).  RK4's stage values are exact linear
    combinations of these iterates:

        Y2 = 2 T4 - W,    Y3 = 3 T3 - 2 T4,    Y4 = W - 6 T3 + 6 T2.

    The member derivative reads only diag xi and v of each stage, so stages 2
    to 4 get theirs from one (3, 4) product over those entries of W, T4, T3
    and T2; the n^2 stage values themselves are never formed.  Stage 1 is W
    itself, so its input is a fixed view into W, valid from construction.
    The numbers equal classic RK4's up to rounding in the last bits.

    `inputs` holds the four stage inputs (diag xi, v) as fixed views, filled
    in place by each `stages` call.  `start(m)` allocates the (m, .) records
    xi_diag, xi_rowsum and v, and `record(j)` fills row j from the current W.
    B and the buffers take the dtype of L and S (at least float), so L, S
    and h of exact fractions run the same steps in exact arithmetic.
    """

    # rows: Y2, Y3, Y4; columns: W, T4, T3, T2
    _RECOMBINE = ((-1, 2, 0, 0), (0, -2, 3, 0), (1, 0, -6, 6))

    def __init__(self, big_l, s_exo, v0, h):
        self.n = n = len(big_l)
        dim = n + len(v0)
        dtype = np.result_type(big_l.dtype, s_exo.dtype, float)
        b = np.zeros((dim, dim), dtype=dtype)
        b[:n, :n] = big_l
        b[n:, n:] = -s_exo
        self.b = _operator(b)
        a1, a2, a3, a4 = (-(h / k) * self.b for k in (1, 2, 3, 4))
        bufs = np.zeros((4, dim, n + 1), dtype=dtype)
        self.w, t4, t3, t2 = bufs
        self._xi = self.w[:n, :n]
        np.fill_diagonal(self._xi, 1)
        self.w[n:, n] = v0
        # (A_k, T_{k+1}, T_k): T_k = W + A_k T_{k+1}, with T5 = W
        self._horner = ((a4, self.w, t4), (a3, t4, t3), (a2, t3, t2))
        self._last = (a1, t2)
        # flat offsets of diag xi and of the v column in one buffer
        cols = n + 1
        self._probe = np.concatenate((np.arange(n) * (cols + 1),
                                      np.arange(n, dim) * cols + n))
        self._flat = bufs.reshape(4, -1)
        self._probed = np.empty((4, self._probe.size), dtype=dtype)
        self._recombine = np.array(self._RECOMBINE, dtype=dtype)
        self._stage_inputs = np.empty((3, self._probe.size), dtype=dtype)
        self._finite = np.empty(self.w.shape, dtype=bool)
        self.inputs = ((self._xi.diagonal(), self.w[n:, n]),) + tuple(
            (row[:n], row[n:]) for row in self._stage_inputs)

    def stages(self):
        """Compute T4, T3 and T2 from W; return the four stage inputs."""
        w = self.w
        for op, x, out in self._horner:
            _add_product(op, x, w, out)
        np.take(self._flat, self._probe, axis=1, out=self._probed)
        np.matmul(self._recombine, self._probed, out=self._stage_inputs)
        return self.inputs

    def finish(self, t):
        """W += A1 T2, completing the step from t; raises Diverged on a non-finite W."""
        w = self.w
        _add_product(*self._last, w, w)
        # into a preallocated buffer, so no W-sized temporary; astype is a
        # no-op on a float W and converts an exact one
        if not np.isfinite(w.astype(float, copy=False), out=self._finite).all():
            raise Diverged(f"xi/v driver: non-finite state after step at t={t:.6g}", t=t)

    def start(self, m):
        n = self.n
        self.xi_diag = np.empty((m, n))
        self.xi_rowsum = np.empty((m, n))
        self.v = np.empty((m, self.w.shape[0] - n))
        self.record(0)

    def record(self, j):
        self.xi_diag[j], self.v[j] = self.inputs[0]
        self.xi_rowsum[j] = self._xi.sum(axis=1)


# RK4 grows every mode with |z| = |h lambda| past this radius (|R(z)| >= 1.118
# on |z| = 3), so its log R(z) needs no care there; inside it the tail series
# of _log_step_factor has converged to the last bit after this many terms.
_LOG_SERIES_RADIUS = 3.0
_LOG_TAIL_TERMS = 40
# The modal source takes eigenvectors V only with kappa_1(V) = |V|_1 |V^-1|_1
# up to this bound.  Its stage inputs and xi row sums err by up to about
# 2e-16 kappa_1(V) (CHANGES.md holds the measured table), so up to 2e-11
# here, against 1e-9 for the row sums and 1e-10 for the benchmark's reference
# check; a defective Laplacian reads 1e8 and more, ring200's 3e3 to 5e3.
_MODAL_MAX_COND = 1e5


def rk4_stage_factors(z):
    """RK4's stages 2 to 4 and its step for w' = lambda w, from w = 1, with z = h lambda.

    Returns (1 + z/2, 1 + z/2 + z^2/4, 1 + z + z^2/2 + z^3/4) and
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24; stage 1 is w itself.  z may be a
    number or an array, and exact numbers stay exact.
    """
    z2 = z * z
    return ((1 + z / 2, 1 + z / 2 + z2 / 4, 1 + z + z2 / 2 + z2 * z / 4),
            1 + z + z2 / 2 + z2 * z / 6 + z2 * z2 / 24)


def _log_step_factor(z):
    """log R(z) for a complex array z, to a few eps of max(|z|, |log R(z)|).

    R(z) = e^z (1 + d) with d = -e^{-z} sum_{j >= 5} z^j / j!, the tail summed
    as a series, so log R(z) = z + log(1 + d).  Rounding R(z) itself to a
    double would err by eps in log R(z), and k steps by k eps.  numpy's complex
    log1p is no help: np.log1p(1e-15 + 0j) gives 1.11e-15.  So
    log|1 + d| = log1p(2 Re d + |d|^2) / 2 where d is small, log|1 + d| where
    it is not (near a root of R), and arg(1 + d) = atan2(Im d, 1 + Re d).
    Past _LOG_SERIES_RADIUS, log R(z) is taken directly.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        term = z ** 5 / 120
        tail = term.copy()
        for j in range(6, 6 + _LOG_TAIL_TERMS):
            term = term * z / j
            tail += term
        d = -np.exp(-z) * tail
        re1 = 1 + d.real
        log_abs = np.where(np.abs(d) < 0.5,
                           0.5 * np.log1p(2 * d.real + d.real ** 2 + d.imag ** 2),
                           np.log(np.hypot(re1, d.imag)))
        ell = z + (log_abs + 1j * np.arctan2(d.imag, re1))
        far = np.abs(z) > _LOG_SERIES_RADIUS
        ell[far] = np.log(rk4_stage_factors(z[far])[1])
    return ell


def _eigenmodes(a):
    """Eigenmodes (lambda, V, W) of a real square a = V diag(lambda) V^-1, W = V^-1.

    A real matrix's complex eigenvalues come in conjugate pairs with conjugate
    vectors, so only the modes with Im lambda >= 0 are returned: V's columns
    and W's rows of those, all complex.  None when eig fails, V is singular
    or kappa_1(V) = |V|_1 |V^-1|_1 exceeds _MODAL_MAX_COND (a defective or
    nearly defective a); NaN fails the bound too.
    """
    try:
        lam, vecs = np.linalg.eig(a)
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    norm1 = [np.abs(m).sum(axis=0).max(initial=0.0) for m in (vecs, inv)]
    if not norm1[0] * norm1[1] <= _MODAL_MAX_COND:
        return None
    keep = lam.imag >= 0
    return (lam[keep].astype(complex, copy=False), vecs[:, keep].astype(complex, copy=False),
            inv[keep].astype(complex, copy=False))


def _real_readout(lam, g):
    """The real (2 m, r) matrix R with x.view(float) @ R = Re(G x) summed over pairs.

    G (r x m) maps values x of the modes `_eigenmodes` keeps to an output.  A
    kept complex mode stands for its conjugate too, so it counts twice: R's
    rows are w Re G and -w Im G of each mode in turn, w = 2 for a complex
    mode and 1 for a real one.
    """
    a = g.T * np.where(lam.imag > 0, 2.0, 1.0)[:, None]
    return np.stack((a.real, -a.imag), axis=1).reshape(2 * len(a), len(g))


class ModalSource:
    """RK4's own xi and v, each step read off the eigenmodes of -L and S.

    xi' = -L xi, xi(0) = I and v' = S v, v(0) = v0 read no other state, so RK4
    on them alone is RK4 on the whole closed loop, and RK4 on a linear system
    acts on each eigenmode on its own: with -L = V Lambda V^-1 and
    z = h lambda per mode, step k starts from e_k = R(z)^k and its stage
    values are e_k times 1, 1 + z/2, 1 + z/2 + z^2/4 and 1 + z + z^2/2 + z^3/4
    (`rk4_stage_factors`).  e_k is exp(k l), l = log R(z) from
    `_log_step_factor`, so no rounding piles up over the steps.  The member
    derivative reads diag xi, which is P e with P = V o V^-T, and v, which is
    Q e with Q = U o (U^-1 v0) for S = U Sigma U^-1.  With one mode kept per
    conjugate pair (`_real_readout`), one (4, 2 m) by (2 m, n) and one
    (4, 2 m_v) by (2 m_v, nv) real product give all four stage inputs; xi and
    v stay in separate products, so a non-finite v cannot reach xi.  The
    record's xi row sums are V (e o V^-1 1).

    The numbers equal classic RK4's up to rounding, about kappa(V) eps; they
    differ from `LinearDriver`'s in the last bits.  Built by `xi_v_source`
    from `_eigenmodes` of -L and of S, and used like `LinearDriver`:
    `stages()`, then `finish(t)` once the member step from t is done, and
    `start(m)` and `record(j)` for the records.  `stages()` raises Diverged,
    with the step's start time, when a stage input is not finite.
    """

    def __init__(self, xi_modes, v_modes, v0, h):
        (lam_x, vec_x, inv_x), (lam_v, vec_v, inv_v) = xi_modes, v_modes
        self.n = n = len(vec_x)
        self.h = h
        self._k = 0
        self._read_xi = _real_readout(lam_x, vec_x * inv_x.T)
        self._read_rowsum = _real_readout(lam_x, vec_x * inv_x.sum(axis=1))
        self._read_v = _real_readout(lam_v, vec_v * (inv_v @ v0))
        z = h * np.concatenate((lam_x, lam_v))
        self._ell = _log_step_factor(z)
        with np.errstate(over="ignore", invalid="ignore"):
            self._factors = np.array((np.ones_like(z),) + rk4_stage_factors(z)[0])
        self._modes = np.empty_like(self._factors)  # (4, m'): stage values per mode
        split = 2 * len(lam_x)  # xi's columns of the modes' float view
        floats = self._modes.view(float)
        self._stage_inputs = np.empty((4, n + len(v0)))
        # (mode values, read-out, stage inputs) of xi and of v
        self._products = ((floats[:, :split], self._read_xi, self._stage_inputs[:, :n]),
                          (floats[:, split:], self._read_v, self._stage_inputs[:, n:]))
        self.inputs = tuple((row[:n], row[n:]) for row in self._stage_inputs)

    def stages(self):
        """The four stage inputs (diag xi, v) of the step from t = k h."""
        np.multiply(self._factors, np.exp(self._k * self._ell), out=self._modes)
        for x, read, out in self._products:
            np.matmul(x, read, out=out)
        if not np.isfinite(self._stage_inputs).all():
            t = self._k * self.h
            raise Diverged(f"xi/v driver: non-finite stage input at t={t:.6g}", t=t)
        return self.inputs

    def finish(self, t):
        """The step from t is done; the next `stages` call serves the step after it."""
        self._k += 1

    def start(self, m):
        """Allocate the (m, .) records xi_diag, xi_rowsum and v, and fill row 0."""
        self.xi_diag = np.empty((m, self.n))
        self.xi_rowsum = np.empty((m, self.n))
        self.v = np.empty((m, self._read_v.shape[1]))
        self.record(0)

    def record(self, j):
        """Fill record row j from e_k, k the steps finished so far."""
        e = np.exp(self._k * self._ell).view(float)
        split = len(self._read_xi)
        self.xi_diag[j] = e[:split] @ self._read_xi
        self.xi_rowsum[j] = e[:split] @ self._read_rowsum
        self.v[j] = e[split:] @ self._read_v


def xi_v_source(big_l, s_exo, v0, h):
    """The source of xi and v for a run at step h: modal where it can be, else Horner.

    `ModalSource` when both -L and S pass `_eigenmodes`' check, else
    `LinearDriver` (a defective or ill-conditioned L or S).  Both give the
    same RK4 numbers up to rounding.
    """
    xi_modes, v_modes = _eigenmodes(-big_l), _eigenmodes(s_exo)
    if xi_modes is None or v_modes is None:
        return LinearDriver(big_l, s_exo, v0, h)
    return ModalSource(xi_modes, v_modes, v0, h)


def assemble(sc: Scenario) -> System:
    """Build the single derivative function for the full coupled ODE."""
    g = sc.graph
    n = g.n
    spectral = spectral_data(g)  # raises NotStronglyConnected
    # also the NonConvexDetected check, so it runs when the gains are fixed too
    bounds = costs_mod.convexity_bounds(sc.costs)
    if sc.gains is not None:
        gains = sc.gains
    else:
        gains = select_gains(bounds, spectral.rho_min, spectral.lambda2)

    l_matvec = _matvec(_operator(spectral.laplacian))
    grad_vec = costs_mod.build_gradient(sc.costs)
    drift = plant_drift(sc.plants)
    b = np.array([p.b for p in sc.plants])
    im = None if sc.ablate_internal_model else StackedInternalModel.stack(sc.im_specs)
    layout = StateLayout(n=n, s_dims=tuple(spec.s_dim for spec in sc.im_specs))
    gamma = sc.tracker.gamma
    sl = layout.slices
    sl_yr, sl_x1, sl_x2 = sl["yr"], sl["x1"], sl["x2"]
    sl_eta, sl_k, sl_psi = sl["eta"], sl["k"], sl["psi"]
    n2 = 2 * n
    w0 = (np.ones(n), sc.exo.v0)  # the stage input at t = 0

    def derivative(t, y, w=w0):
        yr = y[sl_yr]
        x1 = y[sl_x1]
        x2 = y[sl_x2]
        dc = coordinator_rhs(t, y[:n2], w, l_matvec, grad_vec, gains)
        u, (deta, dk, dpsi) = tracker_rhs(x1, x2, yr, y[sl_eta], y[sl_k], y[sl_psi],
                                          gamma, im)
        return np.concatenate((dc, x2, drift(x1, x2, w[1], t) + b * u, deta, dk, dpsi))

    return System(layout=layout, spectral=spectral, gains=gains, derivative=derivative)


def initial_state(sc: Scenario, layout: StateLayout) -> np.ndarray:
    """Seeded initial member state; z(0) = 0 is structural.

    The plant draw is one (x1, x2) pair per agent in turn.  xi(0) = I and
    v(0) = v0 belong to the xi/v source.
    """
    rng = np.random.default_rng([sc.seed, 1])
    n = sc.graph.n
    y0 = np.zeros(layout.dim)
    y0[layout.slices["yr"]] = rng.uniform(*sc.init.yr_range, size=n)
    x = rng.uniform(*sc.init.x_range, size=2 * n)
    y0[layout.slices["x1"]] = x[0::2]
    y0[layout.slices["x2"]] = x[1::2]
    if sc.init.eta_range is not None:
        y0[layout.slices["eta"]] = rng.uniform(*sc.init.eta_range, size=layout.total_s)
    if sc.init.k_range is not None:
        y0[layout.slices["k"]] = rng.uniform(*sc.init.k_range, size=n)
    if sc.init.psi_range is not None:
        y0[layout.slices["psi"]] = rng.uniform(*sc.init.psi_range, size=layout.total_s)
    return y0


@dataclass
class Trajectory:
    """Decimated record of the closed-loop state with derived diagnostics.

    raw holds the member states; the xi/v driver's records sit beside it.
    """

    times: np.ndarray
    raw: np.ndarray        # (m, layout.dim)
    layout: StateLayout
    rho: np.ndarray        # oracle left eigenvector used for diagnostics
    xi_diag: np.ndarray    # (m, n): xi_i^i
    xi_rowsum: np.ndarray  # (m, n): sum_j xi_i^j, 1 for all t in exact arithmetic
    v: np.ndarray          # (m, nv)

    def _block(self, key):
        return self.raw[:, self.layout.slices[key]]

    @property
    def yr(self):
        return self._block("yr")

    @property
    def z(self):
        return self._block("z")

    @property
    def y(self):
        return self._block("x1")

    @property
    def x2(self):
        return self._block("x2")

    @property
    def eta(self):
        return self._block("eta")

    @property
    def k(self):
        return self._block("k")

    @property
    def psi(self):
        return self._block("psi")

    def theta(self, gamma):
        return self.x2 + gamma * (self.y - self.yr)

    @property
    def rho_z(self):
        return self.z @ self.rho

    @property
    def exo_norm(self):
        return np.linalg.norm(self.v, axis=1)

    def psi_rows(self, agent):
        start = int(np.cumsum((0,) + self.layout.s_dims)[agent])
        return self._block("psi")[:, start:start + self.layout.s_dims[agent]]


def integrate(f, y0, h, n_steps, record_every, driver=None):
    """RK4 over n_steps steps of h from t = 0; returns (times, samples).

    The samples are the initial state and every record_every-th state after it.
    With a xi/v source (`ModalSource` or `LinearDriver`) built for the same h,
    f is f(t, y, w): each step the source's stages give f its four stage
    inputs, and the source records its own samples at the same steps.
    """
    times = np.zeros(n_steps // record_every + 1)
    samples = np.empty((times.size,) + y0.shape)
    samples[0] = y0
    if driver is not None:
        driver.start(times.size)
    y = y0
    w = None
    with np.errstate(over="ignore", invalid="ignore"):
        for kstep in range(1, n_steps + 1):
            t = (kstep - 1) * h
            if driver is not None:
                w = driver.stages()
            y = rk4_step(f, t, y, h, w)
            if driver is not None:
                driver.finish(t)
            if kstep % record_every == 0:
                j = kstep // record_every
                times[j] = kstep * h
                samples[j] = y
                if driver is not None:
                    driver.record(j)
    return times, samples


def run(sc: Scenario, system: Optional[System] = None) -> Trajectory:
    """Integrate the closed loop from t = 0 to the horizon at the fixed step."""
    if system is None:
        system = assemble(sc)
    y0 = initial_state(sc, system.layout)
    driver = xi_v_source(system.spectral.laplacian, sc.exo.S, sc.exo.v0, sc.step)
    try:
        times, raw = integrate(system.derivative, y0, sc.step, sc.n_steps, sc.record_every,
                               driver)
    except (Diverged, XiUnderflow) as exc:
        raise type(exc)(f"{sc.name}: {exc}", t=exc.t) from None
    return Trajectory(times=times, raw=raw, layout=system.layout, rho=system.spectral.rho,
                      xi_diag=driver.xi_diag, xi_rowsum=driver.xi_rowsum, v=driver.v)


def metrics(traj: Trajectory, s_star, settle_tol=0.02) -> dict:
    """Per-agent final error, settling time, and adaptive-gain summary."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    err = np.abs(traj.y - s_star)            # (m, n)
    outside = ~(err < settle_tol)            # NaN counts as outside
    # settling index: one past the last sample outside the band, 0 if none is;
    # one past the final sample means the agent never settles
    last_out = len(outside) - 1 - np.argmax(outside[::-1], axis=0)
    idx = np.where(outside.any(axis=0), last_out + 1, 0)
    return {
        "final_error": err[-1].tolist(),
        "settling_time": np.append(traj.times, math.inf)[idx].tolist(),
        "max_gain": traj.k.max(axis=0).tolist(),
        "final_gain": traj.k[-1].tolist(),
    }


@dataclass
class VerificationReport:
    s_star: float
    final_output_error: float
    xi_error: float
    z_conservation_drift: float
    xi_rowsum_drift: float
    exo_energy_drift: Optional[float]
    sylvester_residuals: Optional[list]
    psi_error: Optional[float]
    ff_reproduction_error: Optional[float]
    k_monotone: bool

    def checks(self, sc: Scenario) -> dict:
        """Each measured value against its tolerance, in DEFAULT_TOLERANCES order.

        A value that is None was not measured and has no check.  The Sylvester
        check takes the worst agent's residual; k_monotone comes last and
        passes when it is True.
        """
        out = {}
        for name in DEFAULT_TOLERANCES:
            if name != "sylvester_residual":
                value = getattr(self, name)
            elif self.sylvester_residuals is not None:
                value = max(self.sylvester_residuals)
            else:
                value = None
            if value is not None:
                tol = sc.tolerance(name)
                out[name] = {"value": value, "tolerance": tol, "pass": bool(value <= tol)}
        out["k_monotone"] = {"value": self.k_monotone, "tolerance": True,
                             "pass": bool(self.k_monotone)}
        return out

    def passed(self, sc: Scenario) -> bool:
        return all(c["pass"] for c in self.checks(sc).values())

    def to_dict(self, sc: Optional[Scenario] = None) -> dict:
        d = asdict(self)
        if sc is not None:
            d["checks"] = self.checks(sc)
            d["passed"] = self.passed(sc)
        return d


def verify(sc: Scenario, traj: Trajectory) -> VerificationReport:
    """Compare a finished run against the independent oracles."""
    s_star = costs_mod.global_optimum(sc.costs)
    rho = traj.rho
    final_output_error = float(np.abs(traj.y[-1] - s_star).max())
    xi_error = float(np.abs(traj.xi_diag[-1] - rho).max())
    z_drift = float(np.abs(traj.rho_z).max())
    rowsum_drift = float(np.abs(traj.xi_rowsum - 1.0).max())
    exo_drift = None
    if sc.exo.is_conservative():
        norms = traj.exo_norm
        exo_drift = float(np.abs(norms - norms[0]).max())

    sylvester_residuals = None
    psi_error = None
    ff_error = None
    if sc.frequencies:
        # specs hold ndarrays and do not hash by value; agents that share one
        # spec object share its truth
        distinct = {id(im): im for im in sc.im_specs}
        built = {key: FeedforwardTruth.build(im, sc.frequencies) for key, im in distinct.items()}
        truths = [built[id(im)] for im in sc.im_specs]
        sylvester_residuals = [t.residual for t in truths]
        if sc.check_psi:
            psi_error = max(
                float(np.abs(traj.psi_rows(i)[-1] - truths[i].Psi).max())
                for i in range(sc.graph.n))
            ff_error = _feedforward_reproduction_error(sc, traj, truths, s_star)

    dk = np.diff(traj.k, axis=0)
    k_monotone = bool(np.all(dk >= -1e-12))
    return VerificationReport(
        s_star=s_star,
        final_output_error=final_output_error,
        xi_error=xi_error,
        z_conservation_drift=z_drift,
        xi_rowsum_drift=rowsum_drift,
        exo_energy_drift=exo_drift,
        sylvester_residuals=sylvester_residuals,
        psi_error=psi_error,
        ff_reproduction_error=ff_error,
        k_monotone=k_monotone,
    )


def _feedforward_reproduction_error(sc, traj, truths, s_star):
    """Check Psi (T tau(t)) reproduces u*(t), with tau built from the truth feedforward.

    tau stacks u* and its time derivatives; for the built-in exosystems these
    follow from v^(j) = S^j v.
    """
    worst = 0.0
    s_mat = sc.exo.S
    v = traj.v[:: max(1, len(traj.v) // 50)].T  # (nv, sampled rows)
    for p, truth, im in zip(sc.plants, truths, sc.im_specs):
        # tau[j] is the j-th derivative of u* at every sampled row
        tau = np.array([feedforward_truth(p, s_star, np.linalg.matrix_power(s_mat, j) @ v)
                        for j in range(im.s_dim)])
        u_star = tau[0]
        # constant part of u* only belongs in the 0th derivative
        tau[1:] -= feedforward_truth(p, s_star, np.zeros(len(s_mat)))
        rebuilt = truth.Psi @ (truth.T @ tau)
        worst = max(worst, float(np.abs(rebuilt - u_star).max()))
    return worst


def ablate_compare(sc: Scenario):
    """Paired run with and without the internal model, same seed."""
    base = replace(sc, ablate_internal_model=False, name=sc.name + "[with-im]")
    ablated = replace(sc, ablate_internal_model=True, name=sc.name + "[no-im]")
    traj_with = run(base)
    traj_without = run(ablated)
    s_star = costs_mod.global_optimum(sc.costs)
    err_with = float(np.abs(traj_with.y[-1] - s_star).max())
    err_without = float(np.abs(traj_without.y[-1] - s_star).max())
    return {
        "s_star": s_star,
        "final_error_with_internal_model": err_with,
        "final_error_without_internal_model": err_without,
        "ratio": err_without / max(err_with, 1e-300),
    }, traj_with, traj_without


def sweep(sc: Scenario, attr: str, values):
    """Vary one scalar scenario field over a grid; collect verification reports."""
    reports = []
    for val in values:
        sub = replace(sc, **{attr: val}, name=f"{sc.name}[{attr}={val}]")
        traj = run(sub)
        reports.append((val, verify(sub, traj)))
    return reports
