import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocsim.errors import Unsupported
from oocsim.integrate import rk4_step
from oocsim.plant import (Exosystem, custom, damping_spring, feedforward_truth,
                          plant_drift, rotation_exosystem, vdp_like)


def drift_at(p, x, v):
    """Stacked drift of the one-plant set at the state x = (x1, x2)."""
    return plant_drift([p])(np.array([x[0]]), np.array([x[1]]), v, 0.0)[0]


def test_vdp_origin_zero_phase():
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=10.0)
    assert drift_at(p, (0.0, 0.0), np.array([0.0, 10.0])) == 0.0


def test_vdp_hand_value():
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=10.0)
    assert drift_at(p, (0.0, 1.0), np.array([0.0, 0.0])) == 1.0


def test_damping_spring_hand_value():
    p = damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0)
    assert abs(drift_at(p, (1.0, 0.0), np.zeros(2)) - (-(2.2 + 2.9) / 1.1)) < 1e-12


def test_mixed_kind_set_matches_each_plant():
    rng = np.random.default_rng(4)
    plants = [vdp_like(1.0, 0.5, 1.2, 3.0),
              damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0),
              vdp_like(2.0, 1.5, 0.8, 1.0),
              damping_spring(m=1.3, k1=2.6, k2=2.7, mu1=3.4, mu2=4.1, a_w=100.0)]
    drift = plant_drift(plants)
    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2, size=(2, 4))
        v = rng.uniform(-2, 2, size=2)
        got = drift(x1, x2, v, 0.0)
        assert got.shape == (4,)
        own = [p.f(a, b, v, 0.0) for p, a, b in zip(plants, x1, x2)]
        assert got.tolist() == own
        # and the stacked formula of each kind, within round-off
        for kind in ("vdp_like", "damping_spring"):
            idx = [i for i, p in enumerate(plants) if p.kind == kind]
            alone = plant_drift([plants[i] for i in idx])(x1[idx], x2[idx], v, 0.0)
            np.testing.assert_allclose(got[idx], alone, rtol=1e-12, atol=1e-12)


def test_gain_positive_enforced():
    with pytest.raises(ValueError):
        vdp_like(mu1=1.0, mu2=1.0, b=-1.0, amplitude=10.0)
    with pytest.raises(ValueError):
        damping_spring(m=-2.0, k1=1.0, k2=1.0, mu1=1.0, mu2=1.0, a_w=1.0)


def test_exosystem_hand_values():
    e = rotation_exosystem(0.8, np.array([0.0, 10.0]))
    assert np.array_equal(e.S @ np.array([0.0, 10.0]), [8.0, 0.0])
    assert np.array_equal(e.S @ np.zeros(2), [0.0, 0.0])
    e2 = rotation_exosystem(1.0)
    assert e2.is_conservative()


def test_feedforward_truth_vdp():
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=10.0)  # a_w = 10
    assert feedforward_truth(p, 3.0, np.array([0.0, 10.0])) == 0.0
    assert feedforward_truth(p, 3.0, np.array([1.0, 0.0])) == -10.0


def test_feedforward_truth_cancels_drift():
    """u* must satisfy f(s*, 0, v) + b u* = 0 for both built-in kinds."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.uniform(-2, 2, size=2)
        s_star = rng.uniform(-2, 2)
        p1 = vdp_like(*rng.uniform(0.5, 3.0, size=3), amplitude=rng.uniform(1, 10))
        p2 = damping_spring(*rng.uniform(0.5, 3.0, size=5), a_w=rng.uniform(1, 10))
        for p in (p1, p2):
            u = feedforward_truth(p, s_star, v)
            assert abs(p.f(s_star, 0.0, v, 0.0) + p.b * u) < 1e-12


def test_feedforward_truth_custom_unsupported():
    p = custom(lambda x1, x2, v, t: 0.0, b=1.0)
    with pytest.raises(Unsupported):
        feedforward_truth(p, 0.0, np.zeros(2))


def test_exosystem_validation():
    with pytest.raises(ValueError):
        Exosystem(S=np.zeros((2, 3)), v0=np.zeros(2))
    with pytest.raises(ValueError):
        Exosystem(S=np.zeros((2, 2)), v0=np.zeros(3))


def simulate_exosystem(e, horizon, h=1e-3):
    v = e.v0.copy()
    out = [v.copy()]
    for k in range(int(round(horizon / h))):
        v = rk4_step(lambda t, y: e.S @ y, k * h, v, h)
        out.append(v.copy())
    return np.array(out)


def test_energy_conservation_and_disturbance_identity():
    e = rotation_exosystem(0.8, np.array([0.0, 10.0]))
    vs = simulate_exosystem(e, 100.0)
    norms = np.linalg.norm(vs, axis=1)
    assert np.abs(norms - norms[0]).max() < 1e-8
    # v1(t) = A sin(sigma t) within 1e-8 over the horizon
    t = np.arange(len(vs)) * 1e-3
    assert np.abs(vs[:, 0] - 10.0 * np.sin(0.8 * t)).max() < 1e-8


def test_nominal_origin_invariance():
    drift = plant_drift([vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=0.0)])

    def f(t, y):  # u = 0
        return np.array([y[1], drift(y[:1], y[1:], np.zeros(2), t)[0]])

    x = np.zeros(2)
    for k in range(1000):
        x = rk4_step(f, k * 1e-3, x, 1e-3)
    assert np.array_equal(x, np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_rotation_preserves_norm_property(sigma, a, b):
    e = rotation_exosystem(sigma, np.array([a, b]))
    assert e.is_conservative()
    v = e.v0.copy()
    for k in range(200):
        v = rk4_step(lambda t, y: e.S @ y, k * 1e-2, v, 1e-2)
    assert abs(np.linalg.norm(v) - np.linalg.norm(e.v0)) < 1e-7
