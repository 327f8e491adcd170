"""Local convex cost functions, gradients, and the global-optimum oracle.

Each cost is scalar and strongly convex on its domain hint.  The global
optimum s* is the unique root of the monotone aggregate gradient
s -> sum_i grad_i(s), found by bracketed bisection so the oracle stays
independent of any gradient-flow code path.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketNotFound, NonConvexDetected

DEFAULT_DOMAIN = (-10.0, 10.0)


@dataclass(frozen=True)
class CostFunction:
    kind: str
    params: dict
    value_fn: Callable[[float], float]
    grad_fn: Callable[[float], float]
    domain_hint: tuple = DEFAULT_DOMAIN

    def value(self, s):
        return self.value_fn(s)

    def grad(self, s):
        return self.grad_fn(s)


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


def exp_sum(c1, k1, c2, k2, domain_hint=DEFAULT_DOMAIN) -> CostFunction:
    """c(s) = c1 e^{k1 s} + c2 e^{k2 s}."""
    return CostFunction(
        kind="exp_sum",
        params={"c1": c1, "k1": k1, "c2": c2, "k2": k2},
        value_fn=lambda s: c1 * math.exp(k1 * s) + c2 * math.exp(k2 * s),
        grad_fn=lambda s: c1 * k1 * math.exp(k1 * s) + c2 * k2 * math.exp(k2 * s),
        domain_hint=domain_hint,
    )


# The five composite costs of the second worked example, addressable by name.

def _f1_val(s):
    return 0.25 * math.exp(-0.2 * s) + 0.5 * math.exp(0.5 * s)


def _f1_grad(s):
    return -0.05 * math.exp(-0.2 * s) + 0.25 * math.exp(0.5 * s)


def _f2_val(s):
    return 0.5 * (s - 2.0) ** 2 + math.exp(0.1 * s)


def _f2_grad(s):
    return (s - 2.0) + 0.1 * math.exp(0.1 * s)


def _f3_val(s):
    return 0.2 * s * math.log(1.0 + s * s) + s * s


def _f3_grad(s):
    return 0.2 * math.log(1.0 + s * s) + 0.4 * s * s / (1.0 + s * s) + 2.0 * s


def _f4_val(s):
    return 0.4 * s / math.sqrt(1.0 + s * s) + 0.5 * s * s


def _f4_grad(s):
    return 0.4 * (1.0 + s * s) ** -1.5 + s


def _f5_val(s):
    return 0.6 * s * s * (math.log(s * s + 0.5) + 1.0) + 0.3 * s * s / math.sqrt(s * s + 5.0)


def _f5_grad(s):
    q = s * s + 5.0
    return (
        1.2 * s * (math.log(s * s + 0.5) + 1.0)
        + 1.2 * s ** 3 / (s * s + 0.5)
        + 0.6 * s / math.sqrt(q)
        - 0.3 * s ** 3 * q ** -1.5
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
        val, grad = _COMPOSITES[name]
    except KeyError:
        raise ValueError(f"unknown composite cost {name!r}") from None
    return CostFunction(kind=name, params={}, value_fn=val, grad_fn=grad,
                        domain_hint=domain_hint)


@dataclass(frozen=True)
class ConvexityBounds:
    """varpi: min strong-convexity modulus; iota_bar: max gradient Lipschitz constant."""

    varpi: float
    iota_bar: float

    def __post_init__(self):
        if not (0 < self.varpi <= self.iota_bar):
            raise ValueError("require 0 < varpi <= iota_bar")


def check_gradient(c: CostFunction, s: float, h=1e-6) -> float:
    """Absolute difference between the analytic gradient and a central finite difference."""
    fd = (c.value_fn(s + h) - c.value_fn(s - h)) / (2.0 * h)
    return abs(c.grad_fn(s) - fd)


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


def convexity_bounds(cost_list, interval=None, step=1e-3, min_points=2001) -> ConvexityBounds:
    """Grid estimate of curvature bounds via central differences of the gradient."""
    if interval is None:
        lo = min(c.domain_hint[0] for c in cost_list)
        hi = max(c.domain_hint[1] for c in cost_list)
    else:
        lo, hi = interval
    npts = max(min_points, int(math.ceil((hi - lo) / step)) + 1)
    grid = np.linspace(lo, hi, npts)
    h = grid[1] - grid[0]
    varpi = math.inf
    iota_bar = 0.0
    for c in cost_list:
        g = np.array([c.grad_fn(s) for s in grid])
        second = (g[2:] - g[:-2]) / (2.0 * h)
        if np.any(second < 1e-9):
            raise NonConvexDetected(
                f"cost {c.kind} has curvature {second.min():.3e} on [{lo}, {hi}]")
        varpi = min(varpi, float(second.min()))
        iota_bar = max(iota_bar, float(second.max()))
    return ConvexityBounds(varpi=varpi, iota_bar=iota_bar)


def build_gradient(cost_list):
    """Vectorized aggregate gradient yr -> array of per-agent gradients.

    All-quadratic cost sets get a closed-form vector path; mixed sets fall
    back to a per-agent loop over the scalar closures.
    """
    if all(c.kind == "quadratic" for c in cost_list):
        a = np.array([2.0 * c.params["a"] for c in cost_list])
        b = np.array([c.params["b"] for c in cost_list])

        def grad_vec(yr):
            return a * (yr - b)

        return grad_vec

    fns = [c.grad_fn for c in cost_list]

    def grad_vec(yr):
        return np.array([f(s) for f, s in zip(fns, yr)])

    return grad_vec
