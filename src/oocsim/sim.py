"""Closed-loop assembly, fixed-step integration, metrics and verification.

The full closed loop couples, per agent: the optimal coordinator (references
yr_i, duals z_i, correction rows xi_i), the second-order plant, the internal
model eta_i with adaptive gain k_i and feedforward estimate psi_hat_i, plus
one shared exosystem state v.  The per-agent states yr, z, x1, x2, eta, k and
psi_hat form one flat member state of 7n + 2 sum(s_i) entries.  xi and v are
linear and read no other state, so one `LinearDriver` advances them and feeds
the member derivative diag xi and v at each RK4 stage.  `assemble` builds only
the member derivative; `run` builds the driver in one call from L, S, v0 and
the step, and the driver builds its operator B = blockdiag(L, -S).  Both
advance with classical RK4 at a fixed step, for determinism.  The driver
applies RK4's step polynomial of -hB in Horner form (four products, each
accumulated into a preallocated buffer that already holds W when B is CSR)
and recombines the Horner iterates into the exact stage values
Y2 = 2 T4 - W, Y3 = 3 T3 - 2 T4 and Y4 = W - 6 T3 + 6 T2, but only at the
entries the member derivative reads; stage 1 is W itself, a fixed view.
xi and v therefore equal classic stage-by-stage RK4 up to last-bit rounding.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import costs as costs_mod
from .coordinator import CoordinatorGains, coordinator_rhs, select_gains
from .digraph import Digraph, SpectralData, _add_product, _operator, spectral_data
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
    and v are not here: `LinearDriver` holds them.
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

    big_l = _operator(spectral.laplacian)
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
        dc = coordinator_rhs(t, y[:n2], w, big_l, grad_vec, gains)
        u, (deta, dk, dpsi) = tracker_rhs(x1, x2, yr, y[sl_eta], y[sl_k], y[sl_psi],
                                          gamma, im)
        return np.concatenate((dc, x2, drift(x1, x2, w[1], t) + b * u, deta, dk, dpsi))

    return System(layout=layout, spectral=spectral, gains=gains, derivative=derivative)


def initial_state(sc: Scenario, layout: StateLayout) -> np.ndarray:
    """Seeded initial member state; z(0) = 0 is structural.

    The plant draw is one (x1, x2) pair per agent in turn.  xi(0) = I and
    v(0) = v0 belong to `LinearDriver`.
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
    With a `LinearDriver`, built for the same h, f is f(t, y, w): each step
    the driver's stages give f its four stage inputs, and the driver records
    its own samples at the same steps.
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
    driver = LinearDriver(system.spectral.laplacian, sc.exo.S, sc.exo.v0, sc.step)
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
