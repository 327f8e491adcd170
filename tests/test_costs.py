import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocsim import costs
from oocsim.errors import BracketNotFound, GradientNotVectorized, NonConvexDetected
from oocsim.scenario import parse_scenario

ALL_VARIANTS = (
    [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    + [costs.exp_sum(0.25, -0.2, 0.5, 0.5, domain_hint=(-5, 5))]
    + [costs.composite(f"ex2_f{i}") for i in range(1, 6)]
)


def test_quadratic_gradient_values():
    c1 = costs.quadratic(0.1, 1.0)
    assert abs(c1.grad(3.0) - 0.4) < 1e-15
    c3 = costs.quadratic(0.1, 3.0)
    assert c3.grad(3.0) == 0.0


def test_composite_f1_gradient_at_zero():
    f1 = costs.composite("ex2_f1")
    assert abs(f1.grad(0.0) - 0.2) < 1e-15  # -0.05 + 0.25


def test_global_optimum_quadratics():
    cs = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    assert abs(costs.global_optimum(cs) - 3.0) < 1e-12


def test_global_optimum_single_vertex():
    assert abs(costs.global_optimum([costs.quadratic(0.1, 7.0)]) - 7.0) < 1e-12


@pytest.mark.parametrize("seed, n", [(0, 200), (1, 200), (2, 10), (3, 5)])
def test_quadratic_optimum_is_the_closure_bisections(seed, n):
    # an all-quadratic set's s* is sum a b / sum a in closed form; the same
    # costs under another kind take the bisection of the closures' gradient sum
    rng = np.random.default_rng(seed)
    cs = [costs.quadratic(float(a), float(b))
          for a, b in zip(rng.uniform(1e-3, 50.0, n), rng.uniform(-8.0, 8.0, n))]
    closures = [dataclasses.replace(c, kind="quadratic_closure") for c in cs]
    s_star = costs.global_optimum(cs)
    scale = max(1.0, max(abs(c.params["b"]) for c in cs))
    assert abs(s_star - costs.global_optimum(closures)) <= 4 * np.finfo(float).eps * scale
    assert abs(sum(c.grad(s_star) for c in cs)) < 1e-10


def stiff_exp_sums():
    rng = np.random.default_rng(0)
    return [costs.exp_sum(float(c1), 1.0, float(c2), -1.0)
            for c1, c2 in 1e5 * rng.uniform(0.5, 1.0, size=(5, 2))]


def stiff_quadratic_closures():
    rng = np.random.default_rng(1)
    return [dataclasses.replace(costs.quadratic(float(a), float(b)), kind="quadratic_closure")
            for a, b in zip(1e4 * rng.uniform(0.5, 1.0, 200), rng.uniform(-8.0, 8.0, 200))]


@pytest.mark.parametrize("cost_list", [stiff_exp_sums(), stiff_quadratic_closures()],
                         ids=["exp_sum", "quadratic_closure"])
def test_stall_check_is_relative_to_the_gradients(cost_list):
    # |sum grad(s*)| passes 1e-10 on these strongly convex sets, whose
    # gradients at s* reach 1e4 and more; it stays within 1e-10 of their sum
    s_star = costs.global_optimum(cost_list)
    grads = [c.grad(s_star) for c in cost_list]
    assert abs(sum(grads)) > 1e-10
    assert abs(sum(grads)) <= 1e-10 * sum(map(abs, grads))


def test_one_signed_gradient_has_no_bracket():
    # e^s is positive everywhere, so no bracket holds the root
    with pytest.raises(BracketNotFound, match="never negative"):
        costs.global_optimum([costs.exp_sum(1.0, 1.0, 0.0, 0.0)])


def test_global_optimum_composites():
    cs = [costs.composite(f"ex2_f{i}") for i in range(1, 6)]
    s_star = costs.global_optimum(cs)
    assert abs(sum(c.grad(s_star) for c in cs)) < 1e-10


def test_convexity_bounds_quadratics():
    b = costs.convexity_bounds([costs.quadratic(0.1, float(i)) for i in range(1, 6)])
    assert abs(b.varpi - 0.2) < 1e-6
    assert abs(b.iota_bar - 0.2) < 1e-6


def test_convexity_bounds_mixed_quadratics():
    # the bounds are the least and greatest 2a, exact at any size
    for n in (2, 200):
        b = costs.convexity_bounds([costs.quadratic(0.1 if i % 2 else 0.5, float(i))
                                    for i in range(n)])
        assert (b.varpi, b.iota_bar) == (0.2, 1.0)


def test_convexity_bounds_composites():
    cs = [costs.composite(f"ex2_f{i}", domain_hint=(-5.0, 5.0)) for i in range(1, 6)]
    b = costs.convexity_bounds(cs)
    assert 0 < b.varpi <= b.iota_bar


def test_nonconvex_detected():
    concave = costs.CostFunction(kind="concave", params={},
                                 value_fn=lambda s: -s * s,
                                 grad_fn=lambda s: -2.0 * s)
    with pytest.raises(NonConvexDetected):
        costs.convexity_bounds([concave])
    # listed among quadratics, which skip the scan, it is still scanned
    with pytest.raises(NonConvexDetected, match=r"^cost concave has curvature"):
        costs.convexity_bounds([costs.quadratic(0.1, 1.0), concave, costs.quadratic(0.5, 2.0)])
    # and a quadratic's exact 2a meets the same floor, in a set of any size
    for n in (2, 200):
        cs = [costs.quadratic(0.1, 1.0)] * n
        cs[n // 2] = costs.quadratic(1e-12, 2.0)
        with pytest.raises(NonConvexDetected, match=r"^cost quadratic has curvature 2\.000e-12"):
            costs.convexity_bounds(cs)


def test_non_finite_curvature_is_detected():
    # 100 e^{100 s} overflows on [-10, 10], so the scan's second differences
    # hold inf and NaN, which min, max and "< 1e-9" would let through, leaving
    # the bounds of the other costs alone
    cost_list = ([costs.exp_sum(1.0, 100.0, 1.0, -1.0)]
                 + [costs.quadratic(0.1, float(i)) for i in range(2, 6)])
    with pytest.raises(NonConvexDetected, match=r"^cost exp_sum: curvature is not finite"):
        costs.convexity_bounds(cost_list)


def test_overflowing_scalar_gradient_gives_inf():
    grad_vec = costs.build_gradient([costs.exp_sum(1.0, 60.0, 1.0, -60.0),
                                     costs.quadratic(0.1, 1.0)])
    assert np.array_equal(grad_vec(np.array([0.0, 1.0])), [0.0, 0.0])
    assert np.array_equal(grad_vec(np.array([20.0, 1.0])), [math.inf, math.inf])


def test_gradient_that_rejects_arrays_is_named():
    scalar_only = costs.CostFunction(kind="scalar_only", params={},
                                     value_fn=lambda s: math.exp(s),
                                     grad_fn=lambda s: math.exp(s))
    with pytest.raises(GradientNotVectorized, match="scalar_only"):
        costs.convexity_bounds([scalar_only])


def pointwise_bounds(cost_list, step=1e-3, min_points=2001):
    """Per-point oracle: the same grid as convexity_bounds, one scalar grad_fn call a point."""
    lo = min(c.domain_hint[0] for c in cost_list)
    hi = max(c.domain_hint[1] for c in cost_list)
    npts = max(min_points, int(math.ceil((hi - lo) / step)) + 1)
    grid = np.linspace(lo, hi, npts)
    h = grid[1] - grid[0]
    seconds = []
    for c in cost_list:
        g = np.array([c.grad_fn(float(s)) for s in grid])
        seconds.append((g[2:] - g[:-2]) / (2.0 * h))
    return min(float(d.min()) for d in seconds), max(float(d.max()) for d in seconds)


def ring_sized_quadratics(n=200):
    rng = np.random.default_rng(5)
    return [costs.quadratic(a, b) for a, b in
            zip(rng.uniform(0.5, 8.0, size=n), rng.uniform(1.0, 5.0, size=n))]


@pytest.mark.parametrize("cost_list", [parse_scenario("example1").costs,
                                       ring_sized_quadratics()],
                         ids=["example1", "ring200_sized"])
def test_quadratic_bounds_equal_the_pointwise_oracle(cost_list):
    # quadratics are not scanned: their curvature is exactly 2a
    b = costs.convexity_bounds(cost_list)
    two_a = [2.0 * c.params["a"] for c in cost_list]
    assert (b.varpi, b.iota_bar) == (min(two_a), max(two_a))
    varpi, iota_bar = pointwise_bounds(cost_list)
    assert b.varpi == pytest.approx(varpi, rel=1e-9, abs=0)
    assert b.iota_bar == pytest.approx(iota_bar, rel=1e-9, abs=0)


def test_mixed_list_scans_the_composite_on_the_union_of_domain_hints():
    quad = costs.quadratic(0.5, 1.0, domain_hint=(-10.0, 10.0))
    b = costs.convexity_bounds([costs.composite("ex2_f1", domain_hint=(-5.0, 5.0)), quad])
    wide = costs.convexity_bounds([costs.composite("ex2_f1", domain_hint=(-10.0, 10.0))])
    narrow = costs.convexity_bounds([costs.composite("ex2_f1", domain_hint=(-5.0, 5.0))])
    assert (b.varpi, b.iota_bar) == (min(wide.varpi, 1.0), max(wide.iota_bar, 1.0))
    assert b.iota_bar > 10 * narrow.iota_bar  # the (-10, 10) grid was scanned


NON_QUADRATIC = [c for c in ALL_VARIANTS if c.kind != "quadratic"]


@pytest.mark.parametrize("c", NON_QUADRATIC, ids=[c.kind for c in NON_QUADRATIC])
def test_composite_bounds_match_the_pointwise_oracle(c):
    b = costs.convexity_bounds([c])
    varpi, iota_bar = pointwise_bounds([c])
    assert b.varpi == pytest.approx(varpi, rel=1e-9, abs=0)
    assert b.iota_bar == pytest.approx(iota_bar, rel=1e-9, abs=0)


@pytest.mark.parametrize("c", NON_QUADRATIC, ids=[c.kind for c in NON_QUADRATIC])
def test_array_gradient_matches_scalar_gradient(c):
    grid = np.linspace(*c.domain_hint, 10001)
    scalar = np.array([c.grad_fn(float(s)) for s in grid])
    np.testing.assert_allclose(c.grad_array_fn(grid), scalar, rtol=0, atol=1e-12)


def check_gradient(c, s, h=1e-6):
    """Absolute difference between the analytic gradient and a central finite difference."""
    fd = (c.value_fn(s + h) - c.value_fn(s - h)) / (2.0 * h)
    return abs(c.grad_fn(s) - fd)


def test_check_gradient_examples():
    assert check_gradient(costs.quadratic(0.1, 3.0), 0.0) < 1e-8
    assert check_gradient(costs.composite("ex2_f3"), 1.0) < 1e-6
    assert check_gradient(costs.composite("ex2_f5"), -2.0) < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_VARIANTS), st.floats(min_value=-4.5, max_value=4.5))
def test_gradient_matches_finite_difference(c, s):
    assert check_gradient(c, s) < 1e-6


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-4.5, max_value=4.5), st.floats(min_value=-4.5, max_value=4.5))
def test_aggregate_gradient_monotone(s1, s2):
    cs = [costs.composite(f"ex2_f{i}") for i in range(1, 6)]
    lo, hi = min(s1, s2), max(s1, s2)
    if hi - lo < 1e-9:
        return
    assert sum(c.grad(lo) for c in cs) < sum(c.grad(hi) for c in cs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_VARIANTS),
       st.floats(min_value=-4.5, max_value=4.5), st.floats(min_value=-4.5, max_value=4.5))
def test_strong_convexity_and_lipschitz_inequalities(c, x, y):
    b = costs.convexity_bounds([dataclasses.replace(c, domain_hint=(-5.0, 5.0))])
    dg = c.grad(x) - c.grad(y)
    dx = x - y
    slack = 1e-6 * max(1.0, abs(dx))
    assert dx * dg >= b.varpi * dx * dx - slack
    assert abs(dg) <= b.iota_bar * abs(dx) + slack


def test_build_gradient_vector_paths():
    quads = [costs.quadratic(0.1, float(i)) for i in range(1, 4)]
    gv = costs.build_gradient(quads)
    yr = np.array([1.0, 2.0, 3.0])
    assert np.allclose(gv(yr), [c.grad(s) for c, s in zip(quads, yr)])
    mixed = quads[:2] + [costs.composite("ex2_f4")]
    gv = costs.build_gradient(mixed)
    assert np.allclose(gv(yr), [c.grad(s) for c, s in zip(mixed, yr)])
    composites = [costs.composite(f"ex2_f{i}") for i in range(1, 6)]
    gv = costs.build_gradient(composites)
    for yr in np.random.default_rng(2).uniform(-5.0, 5.0, size=(200, 5)):
        assert np.array_equal(gv(yr), [c.grad(s) for c, s in zip(composites, yr)])
