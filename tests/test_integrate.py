import math
import warnings

import numpy as np
import pytest

from oocsim import sim
from oocsim.errors import Diverged
from oocsim.sim import rk4_step
from stepping import plain_step


def rotation(t, y):
    return np.array([y[1], -y[0]])


def test_single_step_matches_rotation():
    y = plain_step(rotation, 0.0, np.array([1.0, 0.0]), 0.1)
    exact = np.array([math.cos(0.1), -math.sin(0.1)])
    assert np.abs(y - exact).max() < 1e-6


def test_zero_dynamics_identity():
    y0 = np.array([1.0, -2.0, 3.0])
    y = plain_step(lambda t, y: np.zeros_like(y), 0.0, y0, 0.5)
    assert np.array_equal(y, y0)


def integrate(h, t_end):
    y = np.array([1.0, 0.0])
    steps = int(round(t_end / h))
    for k in range(steps):
        y = plain_step(rotation, k * h, y, h)
    return y


def test_order_four_richardson_ratio():
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    e_coarse = np.linalg.norm(integrate(0.02, 1.0) - exact)
    e_fine = np.linalg.norm(integrate(0.01, 1.0) - exact)
    ratio = e_coarse / e_fine
    assert 12.0 <= ratio <= 20.0


def test_divergence_raises():
    with pytest.raises(Diverged):
        plain_step(lambda t, y: y * y, 0.0, np.array([1e200]), 1.0)


def test_divergence_raises_without_warnings():
    # y * y overflows inside the first step; the run's loop silences that
    # and the step reports it
    source = sim.SourceParts(np.zeros((1, 1))).source(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged, match=r"^non-finite state after step at t=0: "
                                           r"first in entry 0$") as info:
            sim.integrate(lambda t, y, w: y * y, np.array([1e200]), 1.0, 1, 1, source)
    assert info.value.t == 0.0 and info.value.entry == 0


def test_finite_state_with_overflowing_squares_passes():
    # the squares of this state overflow; the finite check reads the
    # entries, not a norm, so the step passes
    y0 = np.array([1e200, -1e300, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = plain_step(lambda t, y: np.zeros_like(y), 0.0, y0, 0.5)
    assert np.array_equal(y, y0)


def test_shared_returned_array_is_left_unchanged():
    shared = np.array([1.0, -2.0, 0.5])
    kept = shared.copy()
    y = plain_step(lambda t, y: shared, 0.0, np.zeros(3), 0.1)
    assert np.array_equal(shared, kept)
    assert np.array_equal(y, np.zeros(3) + (0.1 / 6.0) * (kept + 2.0 * kept + 2.0 * kept + kept))


def classic_step(f, t, y, h, w):
    """RK4 written out as one expression per stage, with stage inputs w."""
    k1 = f(t, y, w[0])
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, w[1])
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, w[2])
    k4 = f(t + h, y + h * k3, w[3])
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_step_is_the_classic_combination_bit_for_bit():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    w = tuple(rng.normal(size=6) for _ in range(4))
    seen = []

    def f(t, y, wj):
        seen.append((t, y, y.copy()))  # the stage input f was given, and its value then
        return a @ y + wj

    for y in (rng.normal(size=6), rng.normal(size=6) * 1e3):
        seen.clear()
        got = rk4_step(f, 0.25, y, 0.05, w)
        given = list(seen)
        assert np.array_equal(got, classic_step(f, 0.25, y, 0.05, w))
        # the same stage times and inputs, none written to after f saw it
        assert [(t, x.tolist()) for t, x, _ in given] == [(t, x.tolist()) for t, x, _ in seen[4:]]
        assert all(np.array_equal(x, copy) for _, x, copy in given)


def test_shared_output_buffer_steps_like_fresh_arrays():
    # f writes every k into one buffer, as the member derivative does; the
    # step folds each k in before its next call, so it equals the classic
    # combination of fresh arrays bit for bit
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 6))
    w = tuple(rng.normal(size=6) for _ in range(4))
    buf = np.empty(6)
    seen = []

    def shared(t, y, wj):
        seen.append((y, y.copy()))  # the stage input f was given, and its value then
        np.matmul(a, y, out=buf)
        return np.add(buf, wj, out=buf)

    for y in (rng.normal(size=6), rng.normal(size=6) * 1e3):
        seen.clear()
        got = rk4_step(shared, 0.25, y, 0.05, w)
        assert np.array_equal(got, classic_step(lambda t, y, wj: a @ y + wj, 0.25, y, 0.05, w))
        # no stage input was written after f saw it, and none is f's buffer
        assert len(seen) == 4 and seen[0][0] is y
        assert all(np.array_equal(x, copy) for x, copy in seen)
        assert not any(np.may_share_memory(x, buf) for x, _ in seen + [(got, None)])


def test_matrix_state_steps_like_a_vector_state():
    # an (n, n) state, as the tests step xi' = -L xi, column by column
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4))
    xi = rng.normal(size=(4, 4))
    got = plain_step(lambda t, x: a @ x, 0.0, xi, 0.1)
    assert got.shape == (4, 4)
    assert np.array_equal(got, classic_step(lambda t, x, _: a @ x, 0.0, xi, 0.1, (None,) * 4))
    for j in range(4):
        column = plain_step(lambda t, x: a @ x, 0.0, xi[:, j].copy(), 0.1)
        assert np.abs(got[:, j] - column).max() <= 1e-15 * np.abs(column).max()
