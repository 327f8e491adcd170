import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocsim.digraph import _block_operator
from oocsim.errors import Unsupported
from oocsim.plant import (Exosystem, custom, damping_spring, draw, feedforward_truth, plant_linear,
                          plant_remainder, redraw, rotation_exosystem, vdp_like)
from plant_equations import paper_drift
from stepping import plain_step


def one_term(n, col):
    """u as one term per agent: agent i's u is the feature at column col + i."""
    return col + np.arange(n), np.arange(n), np.ones(n)


def write_features(buf, pre, bind, state, product):
    """Each state entry times its partner from `plant_remainder`'s pre rows,
    into columns product.., then bind's multiplies and custom drifts."""
    partners = _block_operator((state, state), pre) @ buf[:state] if pre else 0.0
    np.multiply(buf[:state], partners, out=buf[product:product + state])
    multiplies, write = bind(buf)
    for a, b, out in multiplies:
        np.multiply(a, b, out=out)
    if write is not None:
        write(0.0)


def split_drift(plants, x1, x2, v):
    """The stacked drift as the member derivative forms it: one product over
    [x1 | x2 | v | u | features] with the entries of `plant_linear` and
    `plant_remainder`, after the features are written; u = 0 leaves b u out."""
    n, nv = len(plants), len(v)
    slices = {"x1": slice(0, n), "x2": slice(n, 2 * n), "v": slice(2 * n, 2 * n + nv)}
    state = 2 * n + nv
    product = state + n  # after u, each state entry times its partner
    pre, main, width, bind = plant_remainder(slices, plants, 0, product, product + state)
    cols = product + state + width
    op = _block_operator((2 * n, cols),
                         plant_linear(slices, plants, one_term(n, state)) + main).toarray()
    # rows 0..n-1 are x1' = x2
    assert np.array_equal(op[:n], np.hstack([np.zeros((n, n)), np.eye(n),
                                             np.zeros((n, cols - 2 * n))]))
    buf = np.concatenate([x1, x2, v, np.zeros(cols - state)])
    write_features(buf, pre, bind, state, product)
    return (op @ buf)[n:]


def drift_at(p, x, v):
    """Drift of the one-plant set at the state x = (x1, x2)."""
    return split_drift([p], np.array([x[0]]), np.array([x[1]]), v)[0]


def test_vdp_origin_zero_phase():
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=10.0)
    assert drift_at(p, (0.0, 0.0), np.array([0.0, 10.0])) == 0.0


def test_vdp_hand_value():
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=10.0)
    assert drift_at(p, (0.0, 1.0), np.array([0.0, 0.0])) == 1.0


def test_damping_spring_hand_value():
    p = damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0)
    assert abs(drift_at(p, (1.0, 0.0), np.zeros(2)) - (-(2.2 + 2.9) / 1.1)) < 1e-12


def random_plant(kind, rng):
    if kind == "vdp_like":
        return vdp_like(*rng.uniform(0.1, 3.0, size=3), amplitude=rng.uniform(0.0, 10.0))
    return damping_spring(*rng.uniform(0.1, 5.0, size=5), a_w=rng.uniform(0.0, 100.0))


@pytest.mark.parametrize("kind", ["vdp_like", "damping_spring"])
def test_linear_entries_plus_remainder_are_the_drift(kind):
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_plant(kind, rng)
        x1, x2 = rng.uniform(-3.0, 3.0, size=(2, 4))
        v = rng.uniform(-10.0, 10.0, size=2)
        got = split_drift([p] * 4, x1, x2, v)
        for i in range(4):
            want, terms = paper_drift(p, x1[i], x2[i], v)
            assert abs(got[i] - want) <= 1e-14 * max(np.abs(terms).max(), abs(want))
    # the linear entries sit on each agent's own x1 and x2 and on the one v
    # entry its drift reads linearly: v1 (vdp_like), v2 (damping_spring)
    slices = {"x1": slice(0, 2), "x2": slice(2, 4), "v": slice(4, 6)}
    own = [(2, 2), (3, 3)] if kind == "vdp_like" else [(2, 0), (2, 2), (3, 1), (3, 3)]
    v_col = 4 if kind == "vdp_like" else 5
    # parts 0 and 1 are x1' = x2 and b u
    linear = plant_linear(slices, [p, p], one_term(2, 6))
    rows, cols, values = (np.concatenate(x) for x in zip(*linear[2:]))
    assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(own + [(2, v_col), (3, v_col)])


def test_a_drift_reading_past_v_is_refused():
    slices = {"x1": slice(0, 2), "x2": slice(2, 4), "v": slice(4, 5)}
    spring = damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0)
    vdp = vdp_like(1.0, 0.5, 1.2, 3.0)
    with pytest.raises(Unsupported, match=r"^plant 2 \(damping_spring\) reads v2, "
                                          r"past the exosystem's 1-entry state$"):
        plant_linear(slices, [vdp, spring], one_term(2, 5))
    # the remainder reads v1 and v2 even when Aw = 0 leaves no linear v term
    still = damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=0.0)
    with pytest.raises(Unsupported, match=r"^plant 1 \(damping_spring\) reads v2, "):
        plant_linear(slices, [still, vdp], one_term(2, 5))
    # vdp_like reads v1 alone, which a one-entry exosystem has
    rows, cols, values = plant_linear(slices, [vdp, vdp], one_term(2, 5))[-1]
    assert rows.tolist() == [2, 3] and cols.tolist() == [4, 4] and values.tolist() == [1.5, 1.5]  # a_w = mu2 amplitude


def test_custom_plants_have_no_linear_entries():
    def f(x1, x2, v, t):
        return 3.0 * x1 - x2 + v[0]

    p = custom(f, b=1.0)
    assert p.f is f  # the whole drift, as given
    slices = {"x1": slice(0, 2), "x2": slice(2, 4), "v": slice(4, 5)}
    parts = plant_linear(slices, [p, p], one_term(2, 5))
    assert sum(len(values) for _, _, values in parts) == 4  # x1' = x2 and b u only
    # f is one feature per plant, with coefficient 1 on its own x2', and no
    # partner meets x1 or x2
    pre, main, width, _ = plant_remainder(slices, [p, p], 0, 5, 7)
    rows, cols, values = (np.concatenate(x) for x in zip(*main))
    assert rows.tolist() == [2, 3] and cols.tolist() == [7, 8] and values.tolist() == [1.0, 1.0]
    assert width == 2 and pre == []
    x1, x2, v = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([0.25, 0.0])
    assert split_drift([p, p], x1, x2, v).tolist() == [2.75, 7.25]


@pytest.mark.parametrize("kind", ["vdp_like", "damping_spring"])
def test_remainder_is_monomials_times_coefficients(kind):
    # vdp_like: x1 x2 and x1^2 x2 with -1 and -mu1; damping_spring: x1^3 and
    # x2^3 with -k2/m and -mu2/m, and the one shared v1^2 v2 with Aw/m
    rng = np.random.default_rng(3)
    p, q = random_plant(kind, rng), random_plant(kind, rng)
    slices = {"x1": slice(0, 2), "x2": slice(2, 4), "v": slice(4, 6)}
    # each state entry times its partner at columns 6..11, the rest from 12
    pre, main, width, bind = plant_remainder(slices, [p, q], 0, 6, 12)
    assert width == {"vdp_like": 4, "damping_spring": 5}[kind]
    buf = np.zeros(12 + width)
    buf[:6] = [1.5, -2.0, 0.5, 3.0, -0.75, 2.5]
    write_features(buf, pre, bind, 6, 6)
    first = {"vdp_like": [0.75, -6.0, 0.0, 0.0, 0.0, 0.0],
             "damping_spring": [2.25, 4.0, 0.25, 9.0, -1.875, 0.0]}[kind]
    assert buf[6:12].tolist() == first
    want = {"vdp_like": [1.125, 12.0, 0.0, 0.0],
            "damping_spring": [3.375, -8.0, 0.125, 27.0, 1.40625]}[kind]
    assert buf[12:].tolist() == want
    coefs = {"vdp_like": lambda r: [-1.0, -r["mu1"]],
             "damping_spring": lambda r: [-r["k2"] / r["m"], -r["mu2"] / r["m"],
                                          r["a_w"] / r["m"]]}[kind]
    op = _block_operator((4, 12 + width), main).toarray()
    for i, plant in enumerate((p, q)):
        row = op[2 + i, 6:]
        assert sorted(row[row != 0].tolist()) == sorted(coefs(plant.params))
    assert not op[:2].any() and not op[:, :6].any()


def test_draw_repeats_the_parser_stream():
    nominal = {"mu1": 1.0, "mu2": 2.0, "b": 1.0, "amplitude": 10.0}
    p = draw("vdp_like", nominal, 0.2, np.random.default_rng([7, 0]))
    assert p.nominal == nominal and p.uncertainty == 0.2
    assert abs(p.params["mu1"] - 1.0) <= 0.2 and p.params["amplitude"] == 10.0
    fixed = vdp_like(1.0, 2.0, 1.0, 10.0)
    again = redraw([fixed, p], np.random.default_rng([7, 0]))
    assert again[0] is fixed  # no uncertainty: kept, and nothing drawn
    assert again[1].params == p.params
    assert redraw([p], np.random.default_rng([8, 0]))[0].params != p.params


def test_mixed_kind_set_matches_each_plant():
    rng = np.random.default_rng(4)
    plants = [vdp_like(1.0, 0.5, 1.2, 3.0),
              damping_spring(m=1.1, k1=2.2, k2=2.9, mu1=3.8, mu2=4.7, a_w=100.0),
              vdp_like(2.0, 1.5, 0.8, 1.0),
              damping_spring(m=1.3, k1=2.6, k2=2.7, mu1=3.4, mu2=4.1, a_w=100.0)]
    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2, size=(2, 4))
        v = rng.uniform(-2, 2, size=2)
        # with the linear entries, each plant's drift from its equations, within round-off
        full = split_drift(plants, x1, x2, v)
        assert full.shape == (4,)
        for i, p in enumerate(plants):
            want, terms = paper_drift(p, x1[i], x2[i], v)
            assert abs(full[i] - want) <= 1e-14 * max(np.abs(terms).max(), abs(want))
        # and each kind's plants alone, within round-off
        for kind in ("vdp_like", "damping_spring"):
            idx = [i for i, p in enumerate(plants) if p.kind == kind]
            alone = split_drift([plants[i] for i in idx], x1[idx], x2[idx], v)
            np.testing.assert_allclose(full[idx], alone, rtol=1e-12, atol=1e-12)


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


def test_exosystem_is_conservative_only_when_skew_to_1e_12():
    # S + S^T of 8e-7 is well inside numpy's default relative closeness
    assert not Exosystem(S=np.array([[0.0, 0.8], [-0.8000008, 0.0]]),
                         v0=np.zeros(2)).is_conservative()
    # a diagonal entry d of S is 2 d in S + S^T
    assert not Exosystem(S=np.array([[0.0, 1.0], [-1.0, 6e-13]]), v0=np.zeros(2)).is_conservative()
    assert Exosystem(S=np.array([[0.0, 1.0], [-1.0, 5e-13]]), v0=np.zeros(2)).is_conservative()


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
            assert abs(paper_drift(p, s_star, 0.0, v)[0] + p.b * u) < 1e-12


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
        v = plain_step(lambda t, y: e.S @ y, k * h, v, h)
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
    p = vdp_like(mu1=1.0, mu2=1.0, b=1.0, amplitude=0.0)

    def f(t, y):  # u = 0
        return np.array([y[1], split_drift([p], y[:1], y[1:], np.zeros(2))[0]])

    x = np.zeros(2)
    for k in range(1000):
        x = plain_step(f, k * 1e-3, x, 1e-3)
    assert np.array_equal(x, np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_rotation_preserves_norm_property(sigma, a, b):
    e = rotation_exosystem(sigma, np.array([a, b]))
    assert e.is_conservative()
    v = e.v0.copy()
    for k in range(200):
        v = plain_step(lambda t, y: e.S @ y, k * 1e-2, v, 1e-2)
    assert abs(np.linalg.norm(v) - np.linalg.norm(e.v0)) < 1e-7
