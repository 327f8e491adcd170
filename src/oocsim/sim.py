"""Closed-loop assembly, fixed-step integration, metrics and verification.

The full closed loop couples, per agent: the optimal coordinator (references
yr_i, duals z_i, correction rows xi_i), the second-order plant, the internal
model eta_i with adaptive gain k_i and feedforward estimate psi_hat_i, plus
one shared exosystem state v.  Everything is packed into a single flat state
vector and advanced with classical RK4 at a fixed step for determinism.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import costs as costs_mod
from .coordinator import CoordinatorGains, coordinator_rhs, select_gains
from .digraph import Digraph, SpectralData, spectral_data
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
    domain_hint: Optional[tuple] = None
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
    """Slice offsets into the flat closed-loop state vector."""

    n: int
    s_dims: tuple
    nv: int

    def __post_init__(self):
        n = self.n
        total_s = sum(self.s_dims)
        off = 0
        names = {}
        for key, size in (("yr", n), ("z", n), ("xi", n * n), ("x", 2 * n),
                          ("eta", total_s), ("k", n), ("psi", total_s),
                          ("v", self.nv)):
            names[key] = slice(off, off + size)
            off += size
        object.__setattr__(self, "slices", names)
        object.__setattr__(self, "dim", off)
        object.__setattr__(self, "total_s", total_s)


@dataclass
class System:
    """Assembled closed loop: derivative closure plus resolved parameters."""

    scenario: Scenario
    layout: StateLayout
    spectral: SpectralData
    gains: CoordinatorGains
    derivative: callable
    bounds: object


def assemble(sc: Scenario) -> System:
    """Build the single derivative function for the full coupled ODE."""
    g = sc.graph
    n = g.n
    spectral = spectral_data(g)  # raises NotStronglyConnected
    bounds = costs_mod.convexity_bounds(sc.costs, interval=sc.domain_hint)
    if sc.gains is not None:
        gains = sc.gains
    else:
        gains = select_gains(bounds, spectral.rho_min, spectral.lambda2)

    big_l = spectral.laplacian
    grad_vec = costs_mod.build_gradient(sc.costs)
    drift = plant_drift(sc.plants)
    b = np.array([p.b for p in sc.plants])
    im = None if sc.ablate_internal_model else StackedInternalModel.stack(sc.im_specs)
    layout = StateLayout(n=n, s_dims=tuple(spec.s_dim for spec in sc.im_specs), nv=sc.exo.dim)
    s_exo = sc.exo.S
    gamma = sc.tracker.gamma
    sl = layout.slices
    sl_yr, sl_z, sl_xi = sl["yr"], sl["z"], sl["xi"]
    sl_x, sl_eta, sl_k = sl["x"], sl["eta"], sl["k"]
    sl_psi, sl_v = sl["psi"], sl["v"]

    def derivative(t, y):
        yr = y[sl_yr]
        x = y[sl_x].reshape(n, 2)
        x1 = x[:, 0]
        x2 = x[:, 1]
        v = y[sl_v]
        out = np.empty(layout.dim)
        out[sl_yr], out[sl_z], dxi = coordinator_rhs(
            t, yr, y[sl_z], y[sl_xi].reshape(n, n), big_l, grad_vec, gains)
        out[sl_xi] = dxi.ravel()
        u, (out[sl_eta], out[sl_k], out[sl_psi]) = tracker_rhs(
            x1, x2, yr, y[sl_eta], y[sl_k], y[sl_psi], gamma, im)
        dx = out[sl_x].reshape(n, 2)
        dx[:, 0] = x2
        dx[:, 1] = drift(x1, x2, v, t) + b * u
        out[sl_v] = s_exo @ v
        return out

    return System(scenario=sc, layout=layout, spectral=spectral, gains=gains,
                  derivative=derivative, bounds=bounds)


def initial_state(sc: Scenario, layout: StateLayout) -> np.ndarray:
    """Seeded initial conditions; z(0) = 0 and xi(0) = I are structural."""
    rng = np.random.default_rng([sc.seed, 1])
    n = sc.graph.n
    y0 = np.zeros(layout.dim)
    y0[layout.slices["yr"]] = rng.uniform(*sc.init.yr_range, size=n)
    y0[layout.slices["xi"]] = np.eye(n).ravel()
    y0[layout.slices["x"]] = rng.uniform(*sc.init.x_range, size=2 * n)
    if sc.init.eta_range is not None:
        y0[layout.slices["eta"]] = rng.uniform(*sc.init.eta_range, size=layout.total_s)
    if sc.init.k_range is not None:
        y0[layout.slices["k"]] = rng.uniform(*sc.init.k_range, size=n)
    if sc.init.psi_range is not None:
        y0[layout.slices["psi"]] = rng.uniform(*sc.init.psi_range, size=layout.total_s)
    y0[layout.slices["v"]] = sc.exo.v0
    return y0


@dataclass
class Trajectory:
    """Decimated record of the closed-loop state with derived diagnostics."""

    times: np.ndarray
    raw: np.ndarray        # (m, dim)
    layout: StateLayout
    rho: np.ndarray        # oracle left eigenvector used for diagnostics

    def _block(self, key):
        return self.raw[:, self.layout.slices[key]]

    @property
    def yr(self):
        return self._block("yr")

    @property
    def z(self):
        return self._block("z")

    @property
    def xi(self):
        n = self.layout.n
        return self._block("xi").reshape(-1, n, n)

    @property
    def xi_diag(self):
        n = self.layout.n
        return self._block("xi")[:, np.arange(n) * (n + 1)]

    @property
    def x(self):
        return self._block("x").reshape(-1, self.layout.n, 2)

    @property
    def y(self):
        return self.x[:, :, 0]

    @property
    def x2(self):
        return self.x[:, :, 1]

    @property
    def eta(self):
        return self._block("eta")

    @property
    def k(self):
        return self._block("k")

    @property
    def psi(self):
        return self._block("psi")

    @property
    def v(self):
        return self._block("v")

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


def integrate(f, y0, h, n_steps, record_every):
    """RK4 over n_steps steps of h from t = 0; returns (times, samples).

    The samples are the initial state and every record_every-th state after it.
    """
    y = y0
    times = [0.0]
    samples = [y.copy()]
    for kstep in range(1, n_steps + 1):
        y = rk4_step(f, (kstep - 1) * h, y, h)
        if kstep % record_every == 0:
            times.append(kstep * h)
            samples.append(y.copy())
    return np.array(times), np.array(samples)


def run(sc: Scenario, system: Optional[System] = None) -> Trajectory:
    """Integrate the closed loop from t = 0 to the horizon at the fixed step."""
    if system is None:
        system = assemble(sc)
    y0 = initial_state(sc, system.layout)
    try:
        times, raw = integrate(system.derivative, y0, sc.step, sc.n_steps, sc.record_every)
    except (Diverged, XiUnderflow) as exc:
        raise type(exc)(f"{sc.name}: {exc}", t=exc.t) from None
    return Trajectory(times=times, raw=raw, layout=system.layout, rho=system.spectral.rho)


def metrics(traj: Trajectory, s_star, settle_tol=0.02) -> dict:
    """Per-agent final error, settling time, and adaptive-gain summary."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    err = np.abs(traj.y - s_star)            # (m, n)
    final_err = err[-1]
    settling = []
    for i in range(traj.layout.n):
        inside = err[:, i] < settle_tol
        # first recorded time after which the error never leaves the band
        idx = None
        for j in range(len(inside) - 1, -1, -1):
            if not inside[j]:
                idx = j + 1
                break
        if idx is None:
            idx = 0
        settling.append(float(traj.times[idx]) if idx < len(inside) else math.inf)
    return {
        "final_error": final_err.tolist(),
        "settling_time": settling,
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
        out = {}

        def add(name, value, tol, smaller_is_better=True):
            ok = bool(value <= tol) if smaller_is_better else bool(value)
            out[name] = {"value": value, "tolerance": tol, "pass": ok}

        add("final_output_error", self.final_output_error, sc.tolerance("final_output_error"))
        add("xi_error", self.xi_error, sc.tolerance("xi_error"))
        add("z_conservation_drift", self.z_conservation_drift,
            sc.tolerance("z_conservation_drift"))
        add("xi_rowsum_drift", self.xi_rowsum_drift, sc.tolerance("xi_rowsum_drift"))
        if self.exo_energy_drift is not None:
            add("exo_energy_drift", self.exo_energy_drift, sc.tolerance("exo_energy_drift"))
        if self.sylvester_residuals is not None:
            add("sylvester_residual", max(self.sylvester_residuals),
                sc.tolerance("sylvester_residual"))
        if self.psi_error is not None:
            add("psi_error", self.psi_error, sc.tolerance("psi_error"))
        out["k_monotone"] = {"value": self.k_monotone, "tolerance": True,
                             "pass": bool(self.k_monotone)}
        return out

    def passed(self, sc: Scenario) -> bool:
        return all(c["pass"] for c in self.checks(sc).values())

    def to_dict(self, sc: Optional[Scenario] = None) -> dict:
        d = {
            "s_star": self.s_star,
            "final_output_error": self.final_output_error,
            "xi_error": self.xi_error,
            "z_conservation_drift": self.z_conservation_drift,
            "xi_rowsum_drift": self.xi_rowsum_drift,
            "exo_energy_drift": self.exo_energy_drift,
            "sylvester_residuals": self.sylvester_residuals,
            "psi_error": self.psi_error,
            "ff_reproduction_error": self.ff_reproduction_error,
            "k_monotone": self.k_monotone,
        }
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
    rowsum_drift = float(np.abs(traj.xi.sum(axis=2) - 1.0).max())
    exo_drift = None
    if sc.exo.is_conservative():
        norms = traj.exo_norm
        exo_drift = float(np.abs(norms - norms[0]).max())

    sylvester_residuals = None
    psi_error = None
    ff_error = None
    if sc.frequencies:
        truths = [FeedforwardTruth.build(im, sc.frequencies) for im in sc.im_specs]
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
    for i, (p, truth) in enumerate(zip(sc.plants, truths)):
        s_dim = sc.im_specs[i].s_dim
        powers = [np.linalg.matrix_power(s_mat, j) for j in range(s_dim)]
        for row in traj.v[:: max(1, len(traj.v) // 50)]:
            tau = np.array([feedforward_truth(p, s_star, pw @ row) for pw in powers])
            # constant part of u* only belongs in the 0th derivative
            u_star = tau[0]
            const = feedforward_truth(p, s_star, np.zeros_like(row))
            tau[1:] -= const
            rebuilt = float(truth.Psi @ (truth.T @ tau))
            worst = max(worst, abs(rebuilt - u_star))
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
