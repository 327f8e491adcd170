import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocsim.errors import DegenerateRoots, NotHurwitz, SingularSystem
from oocsim.tracker import (FeedforwardTruth, InternalModelSpec, StackedInternalModel,
                            TrackerParams, companion_pair, phi_gamma, psi_true,
                            solve_sylvester, sylvester_residual, tracker_rhs)


def test_companion_pair_order_two():
    m, n_vec = companion_pair(2, [2.0, 3.0])
    assert np.array_equal(m, [[0.0, 1.0], [-2.0, -3.0]])
    assert np.array_equal(n_vec, [0.0, 1.0])


def test_companion_pair_order_four():
    m, _ = companion_pair(4, [10.0, 18.0, 15.0, 6.0])
    assert np.array_equal(m[-1], [-10.0, -18.0, -15.0, -6.0])
    assert np.array_equal(m[:3, 1:], np.eye(3))
    assert np.all(np.linalg.eigvals(m).real < 0)


def test_companion_pair_rejects_non_hurwitz():
    with pytest.raises(NotHurwitz):
        companion_pair(2, [-1.0, 1.0])


def test_phi_gamma_single_sinusoid():
    phi, gamma = phi_gamma([0.8])
    assert np.allclose(phi, [[0.0, 1.0], [-0.64, 0.0]])
    assert np.array_equal(gamma, [1.0, 0.0])
    # Gamma picks the first coordinate
    assert gamma @ np.eye(2)[:, 0] == 1.0


def test_phi_gamma_constant_plus_harmonics():
    phi, gamma = phi_gamma([0.0, 1.0, 3.0])
    assert phi.shape == (5, 5)
    eigs = np.linalg.eigvals(phi)
    assert np.abs(eigs.real).max() < 1e-8
    assert np.allclose(np.sort(eigs.imag), [-3.0, -1.0, 0.0, 1.0, 3.0], atol=1e-8)


def test_phi_gamma_degenerate_roots():
    with pytest.raises(DegenerateRoots):
        phi_gamma([1.0, 1.0])


def test_sylvester_closed_form_example():
    m, n_vec = companion_pair(2, [2.0, 3.0])
    phi, gamma = phi_gamma([0.8])
    t = solve_sylvester(m, n_vec, phi, gamma)
    t_inv = np.linalg.inv(t)
    expected = np.array([[1.36, 3.0], [-1.92, 1.36]])  # [[w1-s^2, w2], [-w2 s^2, w1-s^2]]
    assert np.abs(t_inv - expected).max() < 1e-10
    assert sylvester_residual(t, m, n_vec, phi, gamma) < 1e-10


def test_sylvester_zero_rhs():
    m, _ = companion_pair(2, [2.0, 3.0])
    phi, gamma = phi_gamma([0.8])
    t = solve_sylvester(m, np.zeros(2), phi, gamma * 0.0)
    assert np.abs(t).max() < 1e-12


def test_sylvester_overlapping_spectra():
    phi, gamma = phi_gamma([1.0])
    with pytest.raises(SingularSystem):
        solve_sylvester(phi, np.array([0.0, 1.0]), phi, gamma)


def test_psi_true_examples():
    m, n_vec = companion_pair(2, [2.0, 3.0])
    phi, gamma = phi_gamma([0.8])
    t = solve_sylvester(m, n_vec, phi, gamma)
    assert np.abs(psi_true(t, gamma) - np.array([1.36, 3.0])).max() < 1e-10
    phi1, gamma1 = phi_gamma([1.0])
    t1 = solve_sylvester(m, n_vec, phi1, gamma1)
    assert np.abs(psi_true(t1, gamma1) - np.array([1.0, 3.0])).max() < 1e-10
    assert np.array_equal(psi_true(np.eye(3)), [1.0, 0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sylvester_residual_random_instances(s_half, seed):
    """Random Hurwitz M vs random distinct imaginary-axis modes."""
    rng = np.random.default_rng(seed)
    coeffs = np.poly(-rng.uniform(0.2, 3.0, size=s_half))[1:][::-1]
    m, n_vec = companion_pair(s_half, list(coeffs))
    freqs = sorted(rng.uniform(0.2, 4.0, size=s_half // 2))
    if s_half % 2:
        freqs = [0.0] + freqs
    if len(set(np.round(freqs, 6))) != len(freqs):
        return
    phi, gamma = phi_gamma(freqs)
    assert phi.shape == (s_half, s_half)
    t = solve_sylvester(m, n_vec, phi, gamma)
    assert sylvester_residual(t, m, n_vec, phi, gamma) < 1e-10


def stacked(n, coeffs=(2.0, 3.0)):
    return StackedInternalModel.stack([InternalModelSpec.from_coeffs(list(coeffs))] * n)


def test_vartheta_hand_values():
    # theta = x2 + gamma (x1 - yr) shows in psi_hat' = -eta theta with eta = 1
    _, (_, _, dpsi) = tracker_rhs(np.array([3.0, 0.0, 1.0]), np.array([0.0, 1.0, -2.0]),
                                  np.array([3.0, 0.0, 0.0]), np.ones(6), np.zeros(3),
                                  np.zeros(6), 2.0, stacked(3))
    assert np.array_equal(-dpsi, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def test_control_hand_values():
    # agents: (k, theta) = (0, 0), (1, 1), (2, -1) with psi_hat . eta = 0, 0, 7
    u, _ = tracker_rhs(np.zeros(3), np.array([0.0, 1.0, -1.0]), np.zeros(3),
                       np.array([0.0, 0.0, 0.0, 0.0, 3.0, 4.0]), np.array([0.0, 1.0, 2.0]),
                       np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]), 2.0, stacked(3))
    assert np.array_equal(u, [0.0, -2.0, 11.0])  # 11 = 2*2*1 + 7


def test_tracker_derivative_hand_values():
    im = InternalModelSpec.from_coeffs([2.0, 3.0])
    # theta = 0 and psi_hat . eta = 5 give u = 5
    u, (deta, dk, dpsi) = tracker_rhs(np.zeros(1), np.zeros(1), np.zeros(1),
                                      np.array([1.0, 0.0]), np.ones(1),
                                      np.array([5.0, 0.0]), 2.0, stacked(1))
    assert u[0] == 5.0
    assert dk[0] == 0.0
    assert np.array_equal(dpsi, [0.0, 0.0])
    assert np.array_equal(deta, im.M @ np.array([1.0, 0.0]) + im.N_vec * 5.0)
    _, (deta0, dk0, _) = tracker_rhs(np.zeros(1), np.array([2.0]), np.zeros(1),
                                     np.zeros(2), np.zeros(1), np.zeros(2), 2.0, stacked(1))
    assert np.array_equal(deta0, np.zeros(2))
    assert dk0[0] == 68.0  # (2^4+1) * 2^2


def test_tracker_params_bounds():
    with pytest.raises(ValueError):
        TrackerParams(gamma=1.0)


def test_feedforward_truth_structure():
    im = InternalModelSpec.from_coeffs([2.0, 3.0])
    truth = FeedforwardTruth.build(im, [0.8])
    assert truth.residual < 1e-10
    assert np.abs(truth.Psi - [1.36, 3.0]).max() < 1e-10
