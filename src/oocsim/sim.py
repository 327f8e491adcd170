"""Closed-loop assembly, fixed-step integration, metrics and verification.

The full closed loop couples, per agent: the optimal coordinator (references
yr_i, duals z_i, correction rows xi_i), the second-order plant, the internal
model eta_i with adaptive gain k_i and feedforward estimate psi_hat_i, plus
one shared exosystem state v.  The per-agent states yr, z, x1, x2, eta, k and
psi_hat and the nv entries of v form one flat member state of
5n + 2 sum(s_i) + nv entries.  xi is n x n, linear and reads no other state,
so a xi source advances it and feeds the member derivative diag xi at each
RK4 stage.  `assemble` builds only the member derivative; `run` builds the
source in one call of the System's `SourceParts`.  Both advance with
classical RK4 at a fixed step, for determinism, and the source's numbers are
classic RK4's on xi alone up to rounding in the last bits.  This module is
the one that knows an RK4 step's layout, stage times t, t + h/2, t + h/2
and t + h and the 1-2-2-1 sum: the step (`rk4_step`), its loop
(`integrate`), the source's stages and their floor check (`check_xi_floor`).
The source talks to `integrate` through two calls: `stages()` returns the
step's four stage inputs, diag xi at t = k h, t + h/2, t + h/2 and t + h, as
the rows of one (4, n) block of a buffer the source refills (row views made
once, so a step unpacks them for free), and moves the source to the end of
that step; `snapshot()` returns (diag xi, xi row sums) at the current step,
for the record.

A member derivative call is two operator products around a few multiplies.
Every nonlinear term is a product of factors linear in the member state:
with rho(theta) = theta^4 + 1, the control u = psi_hat . eta - k theta -
k theta^5, the gain rate k' = theta^2 + theta^6, psi_hat' = -theta eta, the
plants' monomials (x1 x2 and x1^2 x2; x1^3, x2^3 and v1^2 v2), and grad c/xi
for quadratic costs.  The derivative owns an input buffer laid out as
[y | 1 | features].  A call copies y in, and then:
- the pre operator, over [y | 1], writes the partner of every state entry
  from x1 to v (`tracker_linear` and `plant_remainder`: x2 or x1 for x1,
  x2 for x2 of a damping_spring, -theta for eta, theta = x2 + gamma
  (x1 - yr) for k, eta for psi_hat, v2 for v1) and, for an all-quadratic
  cost set, the gradient 2a yr - 2ab (`costs.gradient_linear`);
- grad c/xi is one divide (other cost sets take `build_gradient`'s scalar
  loop first);
- one multiply of the state from x1 to v by its partners writes x1 p1,
  x2 p2, -theta eta, k theta, psi_hat eta and v1 v2 at once; then theta^2,
  theta^4 = theta^2 theta^2, [theta^6; k theta^5] = [theta^2; k theta]
  theta^4 (one broadcast) and x1 (x1 p1), x2 (x2 p2) (and v1 (v1 v2)) are
  one multiply each, all in place into views made once;
- the main operator, dim x (dim + 1 + p) over the whole buffer, writes
  the output: every linear term, -beta1 L yr - beta2 z, beta1 L yr, x1' = x2,
  the drift's terms linear in (x1, x2, v), M eta and v' = S v, and the
  scatter of the features: -1 from grad c/xi onto yr', b and N of the
  owning agent from each term of u onto x2' and eta' (so each agent's sum
  psi_hat . eta is taken here), theta^2 and theta^6 onto k', -theta eta
  onto psi_hat', and the remainder coefficients onto x2'.
`Plan` builds both operators as CSR arrays from the layers' COO parts
(`coordinator_linear`, `costs.gradient_linear`, `plant_linear`,
`plant_remainder`, `tracker_linear`, S's nonzeros), one `_block_operator`
call each, and `Plan.bind` has `bind_derivative` bind both products to a
System's own buffers once (`digraph._bound_product`, which checks them
there, so a product is scipy's bare accumulating kernel), and both add
into one array that a call zeroes with one fill.  So a call is 10 calls on
example1, 8 of numpy and 2 of the kernel, runs no Python frame but its
own, makes no array (README has the timings), and returns the output
buffer, valid until its next call.  The xi floor is not checked here: the
source checks it over its stage inputs.
`coordinator_derivative` is the same builder over (yr, z) alone.

The source is `ModalSource`, for every L, built by `SourceParts.source`
alone.  It splits -L once, with one eig that gives left and right vectors
and no inverse, into eigenmodes and one real m x m block, from a sorted
Schur form, for the ill-conditioned modes (`_split_modes`; m = 0 on a
well-conditioned L).  From the eigenmodes it computes RK4's own stage
values per mode, e_k = R(h lambda)^k = exp(k log R(h lambda)) times RK4's
stage polynomials, and from the block RK4's step and stage matrices.  Per
_BLOCK steps it reads diag xi off the modes with one real product and off
the block with one product over its states and one batched product over
the agents, the same three calls at every m, checked once per block.  An
empty block adds zeros.

Only `sweep` shares set-up.  `assemble(sc)` builds a `Plan` over a
`Structure` and binds it: the `Structure` holds what the graph, costs and
fixed gains decide (spectral data, gains, s* and the xi sources'
`SourceParts`), the `Plan` the operators, and `Plan.bind` makes a System's
buffers and derivative.  Outside a sweep nothing keeps them once the
caller lets the System go.  A sweep holds one Structure for all its
members and one Plan while their plants are the same objects (a seed sweep
of uncertain plants draws new ones), and hands each member its plan
through `_member`.  Every System still gets fresh stepping state (buffers,
a source's block buffers) over read-only shared parts.
"""

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import eig, schur

from . import costs as costs_mod
from .coordinator import CoordinatorGains, coordinator_linear, select_gains
from .digraph import Digraph, SpectralData, _block_operator, _bound_product, spectral_data
from .errors import Diverged, XiUnderflow
from .plant import Exosystem, feedforward_truth, plant_linear, plant_remainder, redraw
from .tracker import FeedforwardTruth, StackedInternalModel, TrackerParams, tracker_linear

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


def step_count(horizon, step, record_every):
    """The whole number (at least 10) of steps in horizon; ValueError on a timing a run refuses.

    `Scenario` and `coordinator_only_run` both check their timing here.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not (math.isfinite(horizon) and math.isfinite(step)):
        raise ValueError("horizon and step must be finite")
    if horizon < 10 * step:
        raise ValueError("horizon must be at least 10 steps")
    n_steps = int(round(horizon / step))
    if abs(n_steps * step - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon} is not a whole number of steps of {step}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    return n_steps


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
        step_count(self.horizon, self.step, self.record_every)

    @property
    def n_steps(self):
        return step_count(self.horizon, self.step, self.record_every)

    def tolerance(self, key):
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])


@dataclass(frozen=True)
class StateLayout:
    """Slice offsets into the flat member state: yr, z, x1, x2, eta, k, psi_hat, v.

    yr and z lead, so the first 2n entries are the coordinator's state; the
    exosystem's nv entries trail.  xi is not here: the xi source of `run`
    holds it.
    """

    n: int
    s_dims: tuple
    nv: int

    def __post_init__(self):
        n = self.n
        total_s = sum(self.s_dims)
        off = 0
        names = {}
        for key, size in (("yr", n), ("z", n), ("x1", n), ("x2", n),
                          ("eta", total_s), ("k", n), ("psi", total_s), ("v", self.nv)):
            names[key] = slice(off, off + size)
            off += size
        object.__setattr__(self, "slices", names)
        object.__setattr__(self, "dim", off)
        object.__setattr__(self, "total_s", total_s)

    @classmethod
    def of(cls, sc):
        """The layout of sc's member state."""
        return cls(sc.graph.n, tuple(spec.s_dim for spec in sc.im_specs), sc.exo.dim)


@dataclass
class System:
    """Assembled closed loop: derivative closure plus resolved parameters.

    derivative(t, y, w) takes the member state y and the stage input
    w = diag xi, and returns an output buffer the System owns: it stays valid
    until the next call, which zeroes and refills it, and y is copied in and
    never kept.  So a System serves one integration at a time (`rk4_step` folds
    each stage's result in before its next call); two Systems share no
    buffer, but the Systems of one `Plan` share its operators, spectral
    data, gains and xi sources' parts (`sources`, which `run` builds its
    source from), which nothing writes.  pre_operator,
    (dim - 2n + g) x (dim + 1) over [y | 1], gives the partner of each state
    entry from x1 to v (zero rows where an entry has none: eta and psi_hat
    when the internal model is ablated) and an all-quadratic set's gradient
    in its g = n last rows (g = 0 for other cost sets); operator,
    dim x (dim + 1 + p) over [y | 1 | features], gives the derivative from
    every linear term and the features' scatter, k' and psi_hat' included.
    Both operators are CSR arrays (`digraph._block_operator`).
    """

    layout: StateLayout
    spectral: SpectralData
    gains: CoordinatorGains
    derivative: callable
    pre_operator: object
    operator: object
    sources: "SourceParts"


# RK4 grows every mode with |z| = |h lambda| past this radius (|R(z)| >= 1.118
# on |z| = 3), so its log R(z) needs no care there; inside it the tail series
# of _log_step_factor has converged to the last bit after this many terms.
_LOG_SERIES_RADIUS = 3.0
_LOG_TAIL_TERMS = 40
# The modal source takes a mode split P (`_split_modes`) only with
# kappa_1(P) = |P|_1 |P^-1|_1 up to this bound; ring200's diagonalizable
# seeds read 3e3 to 5e4, its split defective ones up to 1.9e5.  Its stage
# inputs and xi row sums err by up to about 3.2e-15 kappa_1(P): ring200 seed
# 93 (m = 0, kappa_1(P) = 2.29e4) is 7.27e-11 from classic RK4 over 300
# steps, the largest gap of seeds 0-269 (CHANGES.md holds the measured
# tables).  At this bound that ratio reaches 1.6e-9, past the 1e-9
# tolerance on the row sums.
_MODAL_MAX_COND = 5e5
# A mode whose own condition number 1/s_i exceeds this goes into the block.
# On ring200 seeds 0-269 every mode of a diagonalizable L reads at most
# 2.7e3; each defective L has 2 to 4 modes at 4.2e7 and more, the rest at
# most 5.5e3.
_MODE_MAX_COND = 1e5
# Ill-conditioned eigenvalues closer than _CLUSTER_GAP max |lambda| are one
# cluster.  Its disc reaches _DISC_FLOOR max |lambda| past twice its spread,
# wide enough to catch the Schur form's own copy of a defective eigenvalue
# (1e-9 missed one on ring200 seed 205).
_CLUSTER_GAP = 1e-3
_DISC_FLOOR = 1e-5


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


def _norm1(a):
    """The 1-norm of a: its largest column sum of |a_ij|, 0 for no columns."""
    return np.abs(a).sum(axis=0).max(initial=0.0)


def _cluster_labels(points, scale):
    """One label per point, the same across a cluster: points closer than _CLUSTER_GAP scale.

    Every chain of such points is one cluster, labelled by its least index.
    """
    near = np.abs(points[:, None] - points) <= _CLUSTER_GAP * scale
    label = np.arange(len(points))
    while True:  # each point takes the least label among its neighbours' until none moves
        least = np.where(near, label, len(points)).min(axis=1)
        if np.array_equal(least, label):
            return label
        label = least


def _cluster_discs(points, scale):
    """(centers, radii): one disc around each cluster of points, for `_split_modes`.

    A cluster's disc (`_cluster_labels`) is centred on its mean and reaches
    twice its farthest point's distance plus _DISC_FLOOR scale.
    """
    label = _cluster_labels(points, scale)
    clusters = [points[label == c] for c in np.unique(label)]
    centers = np.array([c.mean() for c in clusters])
    radii = np.array([2 * np.abs(c - c.mean()).max() for c in clusters]) + _DISC_FLOOR * scale
    return centers, radii


def _dual_rows(lam, left, right, scale):
    """(W, 1/s): the rows of V^-1 from eig's left vectors, and each mode's condition number.

    left and right hold unit-norm columns u_i and v_i, so row i of V^-1 is
    u_i^H / (u_i^H v_i) and 1/s_i = 1/|u_i^H v_i|; W is written over left.
    That holds only between
    distinct eigenvalues: a repeated one's left and right vectors need not
    be biorthogonal, so the rows W_C of each cluster C of eigenvalues
    (`_cluster_labels`) solve (U_C^H V_C) W_C = U_C^H instead, and 1/s_i is
    the norm of row i there.
    """
    w = np.conjugate(left, out=left).T  # the rows u_i^H, in left's memory
    d = (left * right).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= d[:, None]
        cond = 1 / np.abs(d)
    label = _cluster_labels(lam, scale)
    for c in np.flatnonzero(np.bincount(label) > 1):
        idx = np.flatnonzero(label == c)
        try:  # the same solve as from U_C^H, each row scaled by 1/d_i
            w[idx] = np.linalg.solve(w[idx] @ right[:, idx], w[idx])
        except np.linalg.LinAlgError:  # a defective cluster: no rows, and into the block
            w[idx] = np.inf
        cond[idx] = np.linalg.norm(w[idx], axis=1)
    return w, cond


def _split_modes(a):
    """(modes, block, kappa): a real square a = -L as P diag(Lambda, T) P^-1.

    P = [V_good | Q]: the eigenvectors of the well-conditioned modes, and
    an orthonormal basis Q of the invariant subspace of the rest, on which
    a acts as the real m x m block T (block diagonalization, Bavely and
    Stewart 1979).  One eig with left vectors gives the modes, the rows
    W of V^-1 and each mode's condition number 1/s_i (`_dual_rows`); a mode
    is ill-conditioned when 1/s_i exceeds _MODE_MAX_COND.  Those eigenvalues
    and their conjugates are grouped into discs (`_cluster_discs`), and one
    real Schur form of a, sorted so that the eigenvalues in a disc lead,
    gives Q and T as its first m columns and its leading m x m block.  The
    good modes' rows W_good of P^-1 are their rows of V^-1, since their left
    vectors are orthogonal to Q; Q's rows are W_c = Q^T - (Q^T V_good) W_good,
    which gives W_c V_good = 0 and W_c Q = I.  W_good Q is zero only to
    rounding times the condition of the modes nearest the block's (3e-11 on
    ring200), so one Newton step on that part, W_good - (W_good Q) W_c, and
    W_c again make it second order.  So no inverse is taken.  With no
    ill-conditioned mode, m = 0 and P = V.

    modes is (lambda, V_good, W_good) of the good modes with Im lambda >= 0
    (a real matrix's complex modes come in conjugate pairs, so one stands
    for both), all complex; block is (T, Q, W_c), of shapes (m, m), (n, m)
    and (m, n), so (0, 0), (n, 0) and (0, n) when m = 0; kappa is
    kappa_1(P) = |P|_1 |P^-1|_1.  When eig or the reorder fails, or kappa
    exceeds _MODAL_MAX_COND, every mode goes into the block: P is the
    orthonormal Schur basis Z of a, T the whole Schur form.  a is read as
    float64.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    try:
        lam, left, vecs = eig(a, left=True, check_finite=False)
        scale = np.abs(lam).max()
        inv, cond = _dual_rows(lam, left, vecs, scale)
        bad = ~(cond <= _MODE_MAX_COND)
        m, t, q, w_c = 0, np.empty((0, 0)), np.empty((n, 0)), np.empty((0, n))
        if bad.any():
            centers, radii = _cluster_discs(np.concatenate((lam[bad], lam[bad].conj())), scale)

            def in_disc(x):
                return (np.abs(x - centers) <= radii).any(axis=-1)

            good = ~in_disc(lam[:, None])
            t, q, m = schur(a, sort=lambda re, im: bool(in_disc(complex(re, im))))
            if m != n - good.sum():
                raise np.linalg.LinAlgError("the Schur reorder and eig disagree on the discs")
            q = q[:, :m]
            lam, vecs, inv = lam[good], vecs[:, good], inv[good]
            w_c = (q.T - (q.T @ vecs) @ inv).real
            inv = inv - (inv @ q) @ w_c  # the Newton step on W_good Q
            w_c = (q.T - (q.T @ vecs) @ inv).real
        # kappa_1(P) from the column sums of P = [V_good | Q] and P^-1 = [W_good; W_c]
        inv_sums = np.abs(inv).sum(axis=0) + np.abs(w_c).sum(axis=0)
        kappa = max(_norm1(vecs), _norm1(q)) * inv_sums.max(initial=0.0)
        if not kappa <= _MODAL_MAX_COND:
            raise np.linalg.LinAlgError(f"kappa_1(P) = {kappa:.3g}")
    except np.linalg.LinAlgError:
        t, q = schur(a)
        m, lam, vecs, inv, w_c = n, np.empty(0), np.empty((n, 0)), np.empty((0, n)), q.T
        kappa = _norm1(q) * _norm1(w_c)
    keep = lam.imag >= 0
    modes = (lam[keep].astype(complex, copy=False),
             vecs[:, keep].astype(complex, copy=False),
             inv[keep].astype(complex, copy=False))
    return modes, (t[:m, :m], q, w_c), kappa


def _real_readout(lam, g):
    """The real (2 m, r) matrix R with x.view(float) @ R = Re(G x) summed over pairs.

    G (r x m) maps values x of the modes `_split_modes` keeps to an output.
    A kept complex mode stands for its conjugate too, so it counts twice: R's
    rows are w Re G and -w Im G of each mode in turn, w = 2 for a complex
    mode and 1 for a real one.
    """
    a = g.T * np.where(lam.imag > 0, 2.0, 1.0)[:, None]
    return np.stack((a.real, -a.imag), axis=1).reshape(2 * len(a), len(g))


# steps of stage inputs `ModalSource` reads out per product
_BLOCK = 32
# the least xi_i^i a run accepts: 1/xi_i^i scales agent i's gradient
XI_FLOOR = 1e-9


def check_xi_floor(xi_stages, t, h):
    """Raise XiUnderflow if xi_i^i < XI_FLOOR at a stage of the RK4 step from t.

    xi_stages is the step's (4, n) block of diag xi, one row per stage at
    t, t + h/2, t + h/2 and t + h.  One min over the block passes a step that
    holds the floor; otherwise the error names the first stage in that order
    that drops below it, the 1-based agent with the smallest xi_i^i there and
    that stage's time.  A NaN passes: the finite checks report it.
    """
    if not xi_stages.min() < XI_FLOOR:
        return
    stage = int((xi_stages < XI_FLOOR).any(axis=1).argmax())
    xi_diag = xi_stages[stage]
    i = int(xi_diag.argmin())
    t = (t, t + 0.5 * h, t + 0.5 * h, t + h)[stage]
    raise XiUnderflow(f"agent {i + 1}: xi_i^i = {xi_diag[i]:.3e} below floor "
                      f"{XI_FLOOR:g} at t={t:.6g}", t=t)


class ModalSource:
    """RK4's own xi, read off the modes of -L _BLOCK steps at a time.

    xi' = -L xi, xi(0) = I reads no other state, so RK4 on it alone is RK4 on
    the whole closed loop, and RK4 on a linear system acts on each invariant
    subspace on its own.  `_split_modes` gives -L = P diag(Lambda, T) P^-1:
    eigenmodes, and an m x m block T for the ill-conditioned ones (m = 0 on
    a well-conditioned L).  With z = h lambda per mode, step k starts from
    e_k = R(z)^k and its stage values are e_k times 1, 1 + z/2,
    1 + z/2 + z^2/4 and 1 + z + z^2/2 + z^3/4 (`rk4_stage_factors`).  e_k is
    exp(k l), l = log R(z) from `_log_step_factor`, so no rounding piles up
    over the steps.  The member derivative reads diag xi, which is
    (V o W^T) e over the modes; with one mode kept per conjugate pair
    (`_real_readout`), one (4 K, 2 g) by (2 g, n) real product over the g
    kept modes gives the stage inputs of K = _BLOCK steps, k0 to
    k0 + K - 1, from e_k0 to e_(k0 + K - 1) times the stage factors.  The
    block adds its own part of diag xi, sum_b G_j[i, b] (R^k W_c)[b, i] at
    stage j, with G_j and R from one RK4 step of Y' = T Y
    (`modal_readout`), into the same K steps before their check: one
    product of B^T, B = R^k0 W_c, by the stacked (R^j)^T writes the
    agent-major (n, K + 1, m) states, one batched product over the agents,
    (K, m) by (m, 4) each, their stage inputs, and one add puts those in.
    These calls serve every m: at m = 0 they add exact zeros, so the numbers
    are the modes' alone, bit for bit, and at m = n they carry all of xi.
    The snapshot's xi row sums are V (e o W 1) plus Q (R^k W_c 1), read out
    on their own at the current step.  m is the block's size.

    The numbers equal classic RK4's up to rounding, about kappa_1(P) eps.
    Built at step h over readout, the read-only `modal_readout` of a split
    of -L at h, which the sources one `SourceParts` makes at one h share;
    `SourceParts.source` is the one way a run builds it.  Each block is
    checked once, for finiteness and for the xi floor; only a block that
    fails either check is checked again step by step, as its steps are
    handed out.  So `stages()` raises Diverged, with the step's start time,
    at the first step with a stage input that is not finite, and
    XiUnderflow at the first step with a xi_i^i below the floor
    (`check_xi_floor`), whatever lies past that step in the block.
    """

    def __init__(self, h, readout):
        self.h = h
        self._k = 0
        self._read_xi, self._read_rowsum, self._ell, self._factors, self._block = readout
        self._offsets = np.arange(_BLOCK)[:, None]
        # (K, 4, g) stage values per mode, read as one (4 K, 2 g) real block
        self._modes = np.empty((_BLOCK,) + self._factors.shape[1:], dtype=complex)
        self._floats = self._modes.reshape(4 * _BLOCK, self._factors.shape[2]).view(float)
        # (K, 4, n) stage inputs: step j of the block is the (4, n) block
        # self._inputs[j], handed out as the row views self._rows[j]
        self._inputs = np.empty((_BLOCK, 4, self._read_xi.shape[1]))
        self._flat = self._inputs.reshape(4 * _BLOCK, -1)
        self._rows = [tuple(step) for step in self._inputs]
        self._start = -_BLOCK  # the step the block starts at; none read out yet
        self._checked = True   # the block passed its one check
        # agent-major block states: [i, j] is column i of R^j B, B = R^start W_c,
        # at j = 0 to K; [:, K] is the next block's B
        q, w_c = self._block[2:]
        n, self.m = q.shape
        self._states = np.empty((n, _BLOCK + 1, self.m))
        self._states[:, _BLOCK] = w_c.T
        self._state_rows = self._states.reshape(n, (_BLOCK + 1) * self.m)
        # the block's part of the stage inputs, laid out as they are and
        # written through its agent-major (n, K, 4) view
        self._block_inputs = np.empty_like(self._inputs)
        self._block_by_agent = self._block_inputs.transpose(2, 0, 1)

    def _read_block(self):
        """The stage inputs of steps k to k + K - 1, and their one check."""
        k = self._k
        stage_maps, powers = self._block[:2]
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp((k + self._offsets) * self._ell)
            np.multiply(self._factors, e[:, None], out=self._modes)
            np.matmul(self._floats, self._read_xi, out=self._flat)
            np.matmul(self._states[:, _BLOCK].copy(), powers, out=self._state_rows)
            np.matmul(self._states[:, :_BLOCK], stage_maps, out=self._block_by_agent)
            self._inputs += self._block_inputs
        self._start = k
        self._checked = bool(np.isfinite(self._flat).all() and self._flat.min() >= XI_FLOOR)

    def stages(self):
        """The four diag xi of the step from t = k h, as rows of one block; k moves to k + 1.

        The rows stay valid until the source reads out its next block, _BLOCK
        steps on.
        """
        j = self._k - self._start
        if j == _BLOCK:
            self._read_block()
            j = 0
        if not self._checked:
            inputs = self._inputs[j]
            t = self._k * self.h
            if not np.isfinite(inputs).all():
                raise Diverged(f"xi source: non-finite stage input at t={t:.6g}", t=t)
            check_xi_floor(inputs, t, self.h)
        self._k += 1
        return self._rows[j]

    def snapshot(self):
        """(diag xi, xi row sums) from e_k and R^k W_c, k the steps finished so far."""
        e = np.exp(self._k * self._ell).view(float)
        diag, rowsum = e @ self._read_xi, e @ self._read_rowsum
        q, state = self._block[2], self._states[:, self._k - self._start]
        diag += (q * state).sum(axis=1)
        rowsum += q @ state.sum(axis=0)
        return diag, rowsum


def modal_readout(split, h):
    """What a `ModalSource` of a `_split_modes` split at step h reads and never writes.

    (xi read-out, row-sum read-out, l, stage factors, block read-out), all
    read-only arrays: the (2 g, n) matrices `_real_readout` makes of
    V o W^T and of V (W 1) over the g kept modes, l = log R(z) per mode, the
    (1, 4, g) factors 1,
    1 + z/2, 1 + z/2 + z^2/4, 1 + z + z^2/2 + z^3/4, against a block's
    (K, 1, m) e, with z = h lambda; and the block's (G, powers, Q, W_c).
    One classic RK4 step of Y' = T Y from Y = I gives the stage values F_j
    (I, Y2, Y3, Y4) and the step R, the matrix forms of `rk4_stage_factors`
    (which serves numbers only); G is the agent-major (n, m, 4) stack of
    Q F_j, G[i, :, j] row i of Q F_j, and powers the (m, (K + 1) m) row of
    the transposes of R^0 to R^K, all empty when m = 0.
    """
    modes, block, _ = split
    lam, vecs, inv = modes
    z = h * lam
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.array((np.ones_like(z),) + rk4_stage_factors(z)[0])
    readout = (_real_readout(lam, vecs * inv.T), _real_readout(lam, vecs * inv.sum(axis=1)),
               _log_step_factor(z), factors[None])
    t, q, w_c = block
    eye = np.eye(len(t))
    ht = h * t
    y2 = eye + ht / 2
    y3 = eye + ht @ y2 / 2
    y4 = eye + ht @ y3
    r = eye + (ht + 2 * (ht @ y2) + 2 * (ht @ y3) + ht @ y4) / 6
    powers = [eye]
    for _ in range(_BLOCK):
        powers.append(r @ powers[-1])
    m = len(t)
    block = (np.stack((q, q @ y2, q @ y3, q @ y4), axis=2),
             np.array(powers).transpose(2, 0, 1).reshape(m, (_BLOCK + 1) * m), q, w_c)
    for a in readout + block:
        a.flags.writeable = False
    return readout + (block,)


class SourceParts:
    """What every xi source of one L reads and never writes, each part made at first need.

    The mode split of -L (`_split_modes`) is made at the first `source`
    call and kept; per h it keeps the read-out (`modal_readout`).  Each
    source it returns has stepping state of its own.  `source` is the one
    way to build a xi source: a lone one is `SourceParts(L).source(h)`.
    """

    def __init__(self, big_l):
        self.big_l = big_l
        self._split = None  # (modes, block, kappa), at the first need
        self._per_h = {}    # h -> read-out

    def split(self):
        """The mode split (modes, block, kappa) of -L, made at the first call."""
        if self._split is None:
            self._split = _split_modes(-self.big_l)
        return self._split

    def source(self, h):
        """A fresh `ModalSource` at step h."""
        readout = self._per_h.get(h)
        if readout is None:
            readout = self._per_h[h] = modal_readout(self.split(), h)
        return ModalSource(h, readout)


class Structure:
    """What a scenario's graph, costs and fixed gains alone decide.

    Spectral data, the curvature bounds and the resolved gains now, and at
    first need s* (`optimum`) and, through the `SourceParts` of L, the xi
    sources' eig and read-outs.  A sweep shares one between its members.
    """

    def __init__(self, sc):
        self.costs = tuple(sc.costs)
        self.spectral = spectral_data(sc.graph)  # raises NotStronglyConnected
        # also the NonConvexDetected check, so it runs when the gains are fixed too
        bounds = costs_mod.convexity_bounds(sc.costs)
        if sc.gains is not None:
            self.gains = sc.gains
        else:
            self.gains = select_gains(bounds, self.spectral.rho_min, self.spectral.lambda2)
        self.sources = SourceParts(self.spectral.laplacian)
        self._s_star = None

    def optimum(self):
        """s* of the costs (`costs.global_optimum`), computed at the first call."""
        if self._s_star is None:
            self._s_star = costs_mod.global_optimum(self.costs)
        return self._s_star


class Plan:
    """A scenario's member derivative short of its buffers; `bind` gives each run its own.

    It holds everything that depends only on the scenario's structure: the
    `Structure` (spectral data, gains, s*, the xi sources' parts), the
    layout, both operators, the partner window and the layers' bind
    functions.
    """

    def __init__(self, sc, structure):
        self.structure = structure
        n = sc.graph.n
        im = None if sc.ablate_internal_model else StackedInternalModel.stack(sc.im_specs)
        layout = StateLayout.of(sc)
        dim = layout.dim
        sl = layout.slices
        # The first product's factors are the state from x1 to v and, in the
        # pre rows of the same index less x1's, each entry's partner.  The
        # input buffer is [y | 1 | features]: theta^2, then each state entry
        # times its partner (entry j at column product + j), grad c / xi,
        # [theta^6 | k theta^5], then the plant remainders' higher monomials
        # and custom drifts.
        window = slice(sl["x1"].start, dim)
        width = window.stop - window.start
        one, theta2 = dim, dim + 1
        partner, product = -window.start, theta2 + n - window.start
        grad_col = theta2 + n + width
        high = grad_col + n
        tracker_pre, tracker_main, u, self._tracker_bind = tracker_linear(
            sl, sc.tracker.gamma, im, partner, product, theta2, high)
        plant_main = plant_linear(sl, sc.plants, u)  # refuses a drift that reads past v
        plant_pre, remainder, plant_width, self._plant_bind = plant_remainder(
            sl, sc.plants, partner, product, high + 2 * n)
        grad_pre = costs_mod.gradient_linear(sc.costs, width, sl["yr"].start, one)
        self.pre = _block_operator((width + (0 if grad_pre is None else n), one + 1),
                                   tracker_pre + plant_pre + (grad_pre or []))
        v_rows, v_cols = np.nonzero(sc.exo.S)  # v' = S v
        self.main = _block_operator(
            (dim, high + 2 * n + plant_width),
            coordinator_linear(structure.spectral.laplacian, structure.gains, grad_col)
            + plant_main + remainder + tracker_main
            + [(v_rows + sl["v"].start, v_cols + sl["v"].start, sc.exo.S[v_rows, v_cols])])
        self.layout = layout
        self._columns = (window, width, product, grad_col)
        self._grad_vec = None if grad_pre is not None else costs_mod.build_gradient(sc.costs)

    def bind(self) -> System:
        """A new System: fresh buffers, and a derivative bound to them, over the operators."""
        window, width, product, grad_col = self._columns

        def layers(buf, pre_out):
            plant_multiplies, write_customs = self._plant_bind(buf)
            return tuple([(buf[window], pre_out[:width], buf[product + window.start:grad_col])]
                         + self._tracker_bind(pre_out, buf) + plant_multiplies), write_customs

        derivative = bind_derivative(self.pre, self.main, self.layout.n, grad_col,
                                     self._grad_vec, layers)
        structure = self.structure
        return System(layout=self.layout, spectral=structure.spectral, gains=structure.gains,
                      derivative=derivative, pre_operator=self.pre, operator=self.main,
                      sources=structure.sources)


def bind_derivative(pre, main, n, grad_col, grad_vec=None, layers=None):
    """The derivative f(t, y, w) of the module docstring over pre and main, on its own buffers.

    y leads with yr (n entries) and w is diag xi.  grad c / xi goes to
    columns grad_col.. of the input buffer, from pre's last n rows, or
    grad_vec(yr) when given.  layers(buf, pre_out), called once, gives the
    multiplies as (a, b, out) views and the custom features' writer or None.
    Both bound products accumulate, into one array [pre_out | out] that a
    call zeroes with one fill.
    """
    dim = main.shape[0]
    # its own buffers and every view of them it reads or writes, made once
    buf, products = np.empty(main.shape[1]), np.empty(pre.shape[0] + dim)
    buf[dim] = 1.0
    y_in, yr = buf[:dim], buf[:n]
    pre_out, out, zero = products[:pre.shape[0]], products[pre.shape[0]:], products.fill
    pre_product = _bound_product(pre, buf[:dim + 1], pre_out)
    main_product = _bound_product(main, buf, out)
    grad_rows, phi_grad = pre_out[len(pre_out) - n:], buf[grad_col:grad_col + n]
    multiplies, write_customs = ((), None) if layers is None else layers(buf, pre_out)
    divide, multiply = np.divide, np.multiply

    def derivative(t, y, w=np.ones(n)):  # w: diag xi, by default that of xi(0) = I
        y_in[:] = y
        zero(0.0)
        pre_product()
        divide(grad_rows if grad_vec is None else grad_vec(yr), w, phi_grad)
        for a, b, product_out in multiplies:
            multiply(a, b, product_out)
        if write_customs is not None:
            write_customs(t)
        main_product()
        return out

    return derivative


def coordinator_derivative(big_l, gains, cost_list):
    """`bind_derivative` over c = (yr, z) alone, with no multiplies: f(t, c, w) -> c'.

    pre holds an all-quadratic set's gradient (`costs.gradient_linear`),
    else no rows and `build_gradient`; main holds `coordinator_linear`; both
    are CSR, as the member operators are.  It reads only L, so one agent
    runs too.
    """
    n = len(big_l)
    one, grad_col = 2 * n, 2 * n + 1
    grad_pre = costs_mod.gradient_linear(cost_list, 0, 0, one)
    pre = _block_operator((0 if grad_pre is None else n, one + 1), grad_pre or [])
    main = _block_operator((2 * n, grad_col + n), coordinator_linear(big_l, gains, grad_col))
    grad_vec = None if grad_pre is not None else costs_mod.build_gradient(cost_list)
    return bind_derivative(pre, main, n, grad_col, grad_vec)


# (member scenario, Plan) while `sweep` runs that member, else None
_member = None


def _handed_plan(sc):
    """The plan `sweep` hands sc while sc is the member it runs, else None."""
    member = _member
    return member[1] if member is not None and member[0] is sc else None


def assemble(sc: Scenario) -> System:
    """A new System of sc, with fresh buffers and a derivative of its own.

    Its plan is built for it and kept by nothing else, unless sc is the
    member a `sweep` runs: then it binds the plan the sweep shares.
    """
    plan = _handed_plan(sc)
    if plan is None:
        plan = Plan(sc, Structure(sc))
    return plan.bind()


def initial_state(sc: Scenario, layout: StateLayout) -> np.ndarray:
    """Seeded initial member state; z(0) = 0 is structural.

    The plant draw is one (x1, x2) pair per agent in turn; v(0) = v0.
    xi(0) = I belongs to the xi source.
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
    y0[layout.slices["v"]] = sc.exo.v0
    return y0


@dataclass
class Trajectory:
    """Decimated record of the closed-loop state with derived diagnostics.

    raw holds the member states, v included; the xi source's snapshots sit
    beside it.
    """

    times: np.ndarray
    raw: np.ndarray        # (m, layout.dim)
    layout: StateLayout
    rho: np.ndarray        # oracle left eigenvector used for diagnostics
    xi_diag: np.ndarray    # (m, n): xi_i^i
    xi_rowsum: np.ndarray  # (m, n): sum_j xi_i^j, 1 for all t in exact arithmetic

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


def rk4_step(f, t, y, h, w):
    """One classical 4th-order step of y' = f(t, y, w); raises Diverged on non-finite output.

    Stage j calls f(t_j, y_j, w_j) with w = (w1, w2, w3, w4), inputs the
    caller advances itself (a xi source's `stages()`), at t, t + h/2, t + h/2
    and t + h.

    y may have any shape.  Each stage's k is folded into a running sum before
    f is called again, acc = k1, then += 2 k2, += 2 k3 and += k4, which rounds
    as k1 + 2 k2 + 2 k3 + k4 does from the left.  So f may return one buffer
    that it overwrites on every call.  No array that f returned is written to,
    and each stage input is a new array that is never written after f has
    seen it, so f may keep its inputs.  The step leaves numpy's error state
    alone: `integrate` silences overflow and invalid-value warnings once for
    its whole loop, and a non-finite result is reported as Diverged.
    """
    w1, w2, w3, w4 = w
    half = 0.5 * h
    acc = np.array(f(t, y, w1))
    k = f(t + half, y + half * acc, w2)
    acc += 2.0 * k
    k = f(t + half, y + half * k, w3)
    acc += 2.0 * k
    k = f(t + h, y + h * k, w4)
    acc += k
    out = y + (h / 6.0) * acc
    if not np.isfinite(out).all():
        raise Diverged(f"non-finite state after step at t={t:.6g}", t=t)
    return out


def integrate(f, y0, h, n_steps, record_every, source):
    """RK4 over n_steps steps of h from t = 0; returns (times, samples, (xi_diag, xi_rowsum)).

    f is f(t, y, w), and each step `source.stages()` gives it its four stage
    inputs; source is a xi source built for h.  The samples are the initial
    state and every record_every-th state after it, and the two record
    blocks hold `source.snapshot()` at the same steps.  Only those are
    kept: when n_steps is not a multiple of record_every, the last steps are
    integrated but not recorded, so the record, and whatever is read off its
    last row, ends at t = (n_steps // record_every) record_every h, before
    the horizon (150 steps recorded every 100 end at t = 100 h).  Overflow
    and invalid-value warnings are silenced once for the whole loop.
    """
    m = n_steps // record_every + 1
    first = (y0,) + source.snapshot()
    blocks = [np.empty((m,) + np.shape(x)) for x in first]
    for block, x in zip(blocks, first):
        block[0] = x
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for kstep in range(1, n_steps + 1):
            y = rk4_step(f, (kstep - 1) * h, y, h, source.stages())
            if kstep % record_every == 0:
                for block, x in zip(blocks, (y,) + source.snapshot()):
                    block[kstep // record_every] = x
    samples, *records = blocks
    return np.arange(m) * record_every * h, samples, tuple(records)


@contextmanager
def named_failures(name):
    """Re-raise a Diverged or XiUnderflow from inside with the scenario name in front."""
    try:
        yield
    except (Diverged, XiUnderflow) as exc:
        raise type(exc)(f"{name}: {exc}", t=exc.t) from None


def run(sc: Scenario, system: Optional[System] = None) -> Trajectory:
    """Integrate the closed loop from t = 0 to the horizon at the fixed step.

    system defaults to `assemble(sc)`.  The xi source comes from the
    system's `sources`, so it shares the eig and read-out of every System
    of its plan.
    """
    if system is None:
        system = assemble(sc)
    y0 = initial_state(sc, system.layout)
    source = system.sources.source(sc.step)
    with named_failures(sc.name):
        times, raw, (xi_diag, xi_rowsum) = integrate(
            system.derivative, y0, sc.step, sc.n_steps, sc.record_every, source)
    return Trajectory(times=times, raw=raw, layout=system.layout, rho=system.spectral.rho,
                      xi_diag=xi_diag, xi_rowsum=xi_rowsum)


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
    """Compare a finished run against the independent oracles.

    s* is `costs.global_optimum` of sc's costs; a sweep's members take it
    from the Structure they share, so the first member's verify finds it.
    """
    plan = _handed_plan(sc)
    s_star = costs_mod.global_optimum(sc.costs) if plan is None else plan.structure.optimum()
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
    """Paired run with and without the internal model, same seed, over one `Structure`."""
    base = replace(sc, ablate_internal_model=False, name=sc.name + "[with-im]")
    ablated = replace(sc, ablate_internal_model=True, name=sc.name + "[no-im]")
    structure = Structure(base)
    traj_with, traj_without = (run(arm, Plan(arm, structure).bind()) for arm in (base, ablated))
    s_star = structure.optimum()
    err_with = float(np.abs(traj_with.y[-1] - s_star).max())
    err_without = float(np.abs(traj_without.y[-1] - s_star).max())
    return {
        "s_star": s_star,
        "final_error_with_internal_model": err_with,
        "final_error_without_internal_model": err_without,
        "ratio": err_without / max(err_with, 1e-300),
    }, traj_with, traj_without


def reseed(sc: Scenario, seed) -> Scenario:
    """sc at another seed, its uncertain plants drawn again as parsing at that seed draws them.

    The draws come from rng([seed, 0]), plant by plant, each from its
    nominal values and uncertainty (`plant.redraw`); the initial state
    follows the seed through `initial_state`.
    """
    return replace(sc, seed=seed, plants=redraw(sc.plants, np.random.default_rng([seed, 0])))


# the scenario fields no part of a plan reads: a sweep over one shares its set-up
_SHARED_SWEEPS = ("seed", "horizon", "step", "record_every")


def sweep(sc: Scenario, attr: str, values):
    """Vary one scalar scenario field over a grid; collect verification reports.

    A seed member is `reseed(sc, seed)`, so it draws its own plants.  Each
    member runs as a run of its own (`run`, then `verify`).  Over a field of
    _SHARED_SWEEPS the members share one `Structure`, so the spectral data,
    curvature bounds, gains, the xi sources' eig and s* are found once and
    the read-out once per step h, and one `Plan` while their plants are the
    same objects; a new plan (`reseed` draws new uncertain plants) lets the
    last go first.  The member being run gets its plan through `_member`,
    which `assemble` and `verify` read for that member scenario alone and
    which is emptied when the sweep returns or raises.
    """
    global _member
    reports = []
    structure = plan = plants = None
    try:
        for val in values:
            sub = reseed(sc, val) if attr == "seed" else replace(sc, **{attr: val})
            sub = replace(sub, name=f"{sc.name}[{attr}={val}]")
            if attr in _SHARED_SWEEPS:
                if plan is None or any(a is not b for a, b in zip(plants, sub.plants)):
                    _member = plan = None
                    if structure is None:
                        structure = Structure(sub)
                    plan, plants = Plan(sub, structure), sub.plants
                _member = sub, plan
            traj = run(sub)
            reports.append((val, verify(sub, traj)))
    finally:
        _member = None
    return reports
