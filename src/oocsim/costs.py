"""Local convex cost functions, gradients, and the global-optimum oracle.

Each cost is scalar and strongly convex on its domain hint.  The global
optimum s* is the unique root of the monotone aggregate gradient
s -> sum_i grad_i(s), found by bracketed bisection so the oracle stays
independent of any gradient-flow code path.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .digraph import _diagonal
from .errors import BracketNotFound, GradientNotVectorized, NonConvexDetected

DEFAULT_DOMAIN = (-10.0, 10.0)


@dataclass(frozen=True)
class CostFunction:
    """A scalar cost with its gradient.

    grad_array_fn is the gradient on a whole grid of points; when it is None,
    grad_fn itself must accept arrays.
    """

    kind: str
    params: dict
    value_fn: Callable[[float], float]
    grad_fn: Callable[[float], float]
    domain_hint: tuple = DEFAULT_DOMAIN
    grad_array_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, s):
        return self.value_fn(s)

    def grad(self, s):
        return self.grad_fn(s)


def _bind_grad(formula, *params):
    """(scalar, array) forms of a gradient formula written once over a math namespace.

    The scalar form uses `math`, which is cheaper than numpy on Python floats.
    """
    return partial(formula, math, *params), partial(formula, np, *params)


def quadratic(a, b, domain_hint=DEFAULT_DOMAIN) -> CostFunction:
    """c(s) = a (s - b)^2 with a > 0."""
    if a <= 0:
        raise ValueError("quadratic coefficient must be positive")
    return CostFunction(
        kind="quadratic",
        params={"a": a, "b": b},
        value_fn=lambda s: a * (s - b) ** 2,
        grad_fn=lambda s: 2.0 * a * (s - b),
        domain_hint=domain_hint,
    )


def _exp_sum_grad(xp, c1, k1, c2, k2, s):
    return c1 * k1 * xp.exp(k1 * s) + c2 * k2 * xp.exp(k2 * s)


def exp_sum(c1, k1, c2, k2, domain_hint=DEFAULT_DOMAIN) -> CostFunction:
    """c(s) = c1 e^{k1 s} + c2 e^{k2 s}."""
    grad, grad_array = _bind_grad(_exp_sum_grad, c1, k1, c2, k2)
    return CostFunction(
        kind="exp_sum",
        params={"c1": c1, "k1": k1, "c2": c2, "k2": k2},
        value_fn=lambda s: c1 * math.exp(k1 * s) + c2 * math.exp(k2 * s),
        grad_fn=grad,
        domain_hint=domain_hint,
        grad_array_fn=grad_array,
    )


# The five composite costs of the second worked example, addressable by name.

def _f1_val(s):
    return 0.25 * math.exp(-0.2 * s) + 0.5 * math.exp(0.5 * s)


def _f1_grad(xp, s):
    return -0.05 * xp.exp(-0.2 * s) + 0.25 * xp.exp(0.5 * s)


def _f2_val(s):
    return 0.5 * (s - 2.0) ** 2 + math.exp(0.1 * s)


def _f2_grad(xp, s):
    return (s - 2.0) + 0.1 * xp.exp(0.1 * s)


def _f3_val(s):
    return 0.2 * s * math.log(1.0 + s * s) + s * s


def _f3_grad(xp, s):
    return 0.2 * xp.log(1.0 + s * s) + 0.4 * s * s / (1.0 + s * s) + 2.0 * s


def _f4_val(s):
    return 0.4 * s / math.sqrt(1.0 + s * s) + 0.5 * s * s


def _f4_grad(xp, s):
    return 0.4 * (1.0 + s * s) ** -1.5 + s


def _f5_val(s):
    return 0.6 * s * s * (math.log(s * s + 0.5) + 1.0) + 0.3 * s * s / math.sqrt(s * s + 5.0)


def _f5_grad(xp, s):
    # cubes as products and q^-1.5 as 1/(q sqrt q): `s ** 3` and `q ** -1.5`
    # call libm pow, which made this gradient about ten times dearer on the
    # curvature scan's grid
    s2 = s * s
    s3 = s2 * s
    q = s2 + 5.0
    root = xp.sqrt(q)
    return (
        1.2 * s * (xp.log(s2 + 0.5) + 1.0)
        + 1.2 * s3 / (s2 + 0.5)
        + 0.6 * s / root
        - 0.3 * s3 / (q * root)
    )


_COMPOSITES = {
    "ex2_f1": (_f1_val, _f1_grad),
    "ex2_f2": (_f2_val, _f2_grad),
    "ex2_f3": (_f3_val, _f3_grad),
    "ex2_f4": (_f4_val, _f4_grad),
    "ex2_f5": (_f5_val, _f5_grad),
}


def composite(name, domain_hint=(-5.0, 5.0)) -> CostFunction:
    """One of the five named composite costs (ex2_f1 .. ex2_f5)."""
    try:
        val, formula = _COMPOSITES[name]
    except KeyError:
        raise ValueError(f"unknown composite cost {name!r}") from None
    grad, grad_array = _bind_grad(formula)
    return CostFunction(kind=name, params={}, value_fn=val, grad_fn=grad,
                        domain_hint=domain_hint, grad_array_fn=grad_array)


@dataclass(frozen=True)
class ConvexityBounds:
    """varpi: min strong-convexity modulus; iota_bar: max gradient Lipschitz constant."""

    varpi: float
    iota_bar: float

    def __post_init__(self):
        if not (0 < self.varpi <= self.iota_bar):
            raise ValueError("require 0 < varpi <= iota_bar")


def global_optimum(cost_list, tol=1e-10, max_expand=200) -> float:
    """Root of the monotone aggregate gradient, by doubling expansion plus bisection."""

    def agg(s):
        return sum(c.grad_fn(s) for c in cost_list)

    lo, hi = -1.0, 1.0
    for _ in range(max_expand):
        if agg(lo) < 0:
            break
        lo *= 2.0
    else:
        raise BracketNotFound("aggregate gradient never negative; costs non-convex?")
    for _ in range(max_expand):
        if agg(hi) > 0:
            break
        hi *= 2.0
    else:
        raise BracketNotFound("aggregate gradient never positive; costs non-convex?")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if agg(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
    s_star = 0.5 * (lo + hi)
    if abs(agg(s_star)) >= tol:
        raise BracketNotFound(f"bisection stalled; |sum grad| = {abs(agg(s_star)):.3e}")
    return s_star


def _grid_gradient(c: CostFunction, grid: np.ndarray) -> np.ndarray:
    """The gradient of c at every grid point, in one array call."""
    fn = c.grad_fn if c.grad_array_fn is None else c.grad_array_fn
    try:
        g = np.asarray(fn(grid), dtype=float)
    except (TypeError, ValueError) as exc:
        raise GradientNotVectorized(
            f"cost {c.kind}: gradient rejects an array argument ({exc}); give "
            "grad_array_fn or make grad_fn array-safe") from None
    if g.shape != grid.shape:
        raise GradientNotVectorized(
            f"cost {c.kind}: gradient of a {grid.shape} grid has shape {g.shape}")
    return g


# The curvature scan's grid spacing is at most this, with at least this many points.
_SCAN_STEP = 1e-3
_SCAN_MIN_POINTS = 2001


def convexity_bounds(cost_list) -> ConvexityBounds:
    """Curvature bounds: exact for quadratics, a grid estimate for every other cost.

    A quadratic a (s - b)^2 has curvature 2a everywhere, so it is not
    scanned.  Every other cost's curvature is estimated by central
    differences of its gradient on one grid spanning the union of all the
    costs' domain hints, quadratics' included; each such gradient is
    evaluated once on the whole grid (see _grid_gradient).
    """
    lo = min(c.domain_hint[0] for c in cost_list)
    hi = max(c.domain_hint[1] for c in cost_list)
    grid = None  # made for the first cost that is scanned
    varpi = math.inf
    iota_bar = 0.0
    for c in cost_list:
        if c.kind == "quadratic":
            low = high = 2.0 * float(c.params["a"])
        else:
            if grid is None:
                npts = max(_SCAN_MIN_POINTS, int(math.ceil((hi - lo) / _SCAN_STEP)) + 1)
                grid = np.linspace(lo, hi, npts)
                h = grid[1] - grid[0]
            with np.errstate(over="ignore", invalid="ignore"):
                g = _grid_gradient(c, grid)
                second = (g[2:] - g[:-2]) / (2.0 * h)
            # numpy's min and max return NaN when any entry is NaN
            low, high = float(second.min()), float(second.max())
            if not (math.isfinite(low) and math.isfinite(high)):
                raise NonConvexDetected(
                    f"cost {c.kind}: curvature is not finite on [{lo}, {hi}]")
        if low < 1e-9:
            raise NonConvexDetected(f"cost {c.kind} has curvature {low:.3e} on [{lo}, {hi}]")
        varpi = min(varpi, low)
        iota_bar = max(iota_bar, high)
    return ConvexityBounds(varpi=varpi, iota_bar=iota_bar)


def gradient_linear(cost_list, row, col, one):
    """An all-quadratic set's gradient 2a yr - 2ab as COO parts (rows, cols, values); else None.

    Rows row.. row + n - 1 hold agent i's 2a_i on yr_i, at column col + i,
    and -2a_i b_i on the constant 1 at column one.  So one product gives
    the gradient, affine in yr; any other cost set takes `build_gradient`.
    """
    if not all(c.kind == "quadratic" for c in cost_list):
        return None
    n = len(cost_list)
    a = np.array([2.0 * c.params["a"] for c in cost_list])
    b = np.array([c.params["b"] for c in cost_list])
    return [_diagonal(row, col, a), (np.arange(n) + row, np.full(n, one), -a * b)]


def build_gradient(cost_list):
    """Aggregate gradient yr -> array of per-agent gradients, for any cost set.

    A per-agent loop over the scalar closures, fed Python floats.  The
    derivatives call it only for a set that is not all quadratic; an
    all-quadratic set's gradient comes from the pre product
    (`gradient_linear`).  When a closure
    overflows (`math.exp` raises OverflowError), every entry is inf, so the
    RK4 step's finite check reports the divergence.
    """
    fns = [c.grad_fn for c in cost_list]

    def grad_vec(yr):
        try:
            return np.array([f(s) for f, s in zip(fns, yr.tolist())])
        except OverflowError:
            return np.full(len(fns), math.inf)

    return grad_vec
