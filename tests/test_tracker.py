import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oocsim.errors import DegenerateRoots, NotHurwitz, SingularSystem, SingularT
from oocsim.digraph import _block_operator
from oocsim.scenario import scenario_from_dict
from oocsim.sim import run, verify
from oocsim.tracker import (FeedforwardTruth, InternalModelSpec, StackedInternalModel,
                            TrackerParams, companion_pair, phi_gamma, psi_true,
                            solve_sylvester, sylvester_residual, tracker_linear)
from test_scenario import minimal_doc


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
    with pytest.raises(SingularT):
        psi_true(np.diag([1.0, 0.0]))


def test_verify_takes_a_well_conditioned_t_of_small_scale():
    # (lambda + 10)^4 against frequencies 1 and 3: kappa(T) = 17.7, det T = 6.8e-17
    doc = minimal_doc()
    doc["coordinator"] = {"gains": {"beta1": 20.0, "beta2": 2.0}}
    doc["tracker"] = {"internal_model": {"coeffs": [1e4, 4e3, 600.0, 40.0]},
                      "frequencies": [1.0, 3.0], "check_psi": True}
    doc["sim"] = {"horizon": 0.05, "step": 1e-3, "record_every": 10}
    sc = scenario_from_dict(doc)
    report = verify(sc, run(sc))
    assert max(report.sylvester_residuals) <= 1e-10
    truth = FeedforwardTruth.build(sc.im_specs[0], [1.0, 3.0])
    _, gamma = phi_gamma([1.0, 3.0])
    assert np.abs(truth.Psi @ truth.T - gamma).max() <= 1e-10


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


def tracker_at(x1, x2, yr, eta, k, psi, gamma, im):
    """u and (eta', k', psi_hat') of all agents from the tracker's own layer functions.

    The state is (yr, x1, x2, eta, k, psi_hat), followed by the features.
    The pre operator of `tracker_linear` gives the partners of eta, k and
    psi_hat; one multiply of (eta, k, psi_hat) by them writes -theta eta,
    k theta and psi_hat eta, bind's multiplies write theta^2, theta^4 and
    [theta^6; k theta^5], and the main operator's product over the state and
    the features gives eta', k' and psi_hat'.  u sums the control's terms
    per agent, as b u does on x2'.
    """
    n, total_s = len(x1), len(eta)
    keys, sizes = ("yr", "x1", "x2", "eta", "k", "psi"), (n, n, n, total_s, n, total_s)
    starts = np.cumsum((0,) + sizes).tolist()
    slices = {key: slice(a, a + size) for key, a, size in zip(keys, starts, sizes)}
    dim = starts[-1]
    window = slice(slices["eta"].start, dim)
    width = dim - window.start
    # features: theta^2, each of eta, k and psi_hat times its partner, then
    # [theta^6 | k theta^5]
    partner, product, high = -window.start, dim + n - window.start, dim + n + width
    pre_parts, main_parts, (cols, owners, signs), bind = tracker_linear(
        slices, gamma, im, partner, product, dim, high)
    buf = np.concatenate([yr, x1, x2, eta, k, psi, np.zeros(n + width + 2 * n)])
    pre_out = _block_operator((width, dim), pre_parts) @ buf[:dim]
    np.multiply(buf[window], pre_out, out=buf[dim + n:high])
    for a, b, out in bind(pre_out, buf):
        np.multiply(a, b, out=out)
    rates = _block_operator((dim, len(buf)), main_parts) @ buf
    u = _block_operator((n, len(buf)), [(owners, cols, signs)]) @ buf
    return u, tuple(rates[slices[key]] for key in ("eta", "k", "psi"))


def test_stack_of_mixed_orders_is_block_diagonal():
    specs = [InternalModelSpec.from_coeffs(c)
             for c in ([2.0, 3.0], [1.0, 4.0, 6.0, 4.0], [5.0], [2.0, 3.0])]
    im = StackedInternalModel.stack(specs)
    m = _block_operator((9, 9), [im.M_entries]).toarray()
    assert np.array_equal(m, scipy.linalg.block_diag(*[spec.M for spec in specs]))
    # nonzeros only, so a CSR operator built from them keeps M's sparsity
    assert np.count_nonzero(im.M_entries[2]) == len(im.M_entries[2]) == np.count_nonzero(m)
    assert im.owner.tolist() == [0, 0, 1, 1, 1, 1, 2, 3, 3]


def test_vartheta_hand_values():
    # theta = x2 + gamma (x1 - yr) shows in psi_hat' = -eta theta with eta = 1
    _, (_, _, dpsi) = tracker_at(np.array([3.0, 0.0, 1.0]), np.array([0.0, 1.0, -2.0]),
                                 np.array([3.0, 0.0, 0.0]), np.ones(6), np.zeros(3),
                                 np.zeros(6), 2.0, stacked(3))
    assert np.array_equal(-dpsi, [0.0, 0.0, 1.0, 1.0, 0.0, 0.0])


def test_control_hand_values():
    # agents: (k, theta) = (0, 0), (1, 1), (2, -1) with psi_hat . eta = 0, 0, 7
    u, _ = tracker_at(np.zeros(3), np.array([0.0, 1.0, -1.0]), np.zeros(3),
                      np.array([0.0, 0.0, 0.0, 0.0, 3.0, 4.0]), np.array([0.0, 1.0, 2.0]),
                      np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0]), 2.0, stacked(3))
    assert np.array_equal(u, [0.0, -2.0, 11.0])  # 11 = 2*2*1 + 7


def test_tracker_derivative_hand_values():
    im = InternalModelSpec.from_coeffs([2.0, 3.0])
    # theta = 0 and psi_hat . eta = 5 give u = 5
    u, (deta, dk, dpsi) = tracker_at(np.zeros(1), np.zeros(1), np.zeros(1),
                                     np.array([1.0, 0.0]), np.ones(1),
                                     np.array([5.0, 0.0]), 2.0, stacked(1))
    assert u[0] == 5.0
    assert dk[0] == 0.0
    assert np.array_equal(dpsi, [0.0, 0.0])
    assert np.array_equal(deta, im.M @ np.array([1.0, 0.0]) + im.N_vec * 5.0)
    _, (deta0, dk0, _) = tracker_at(np.zeros(1), np.array([2.0]), np.zeros(1),
                                    np.zeros(2), np.zeros(1), np.zeros(2), 2.0, stacked(1))
    assert np.array_equal(deta0, np.zeros(2))
    assert dk0[0] == 68.0  # (2^4+1) * 2^2


def test_ablated_tracker_hand_values():
    # without the internal model u = -k rho(theta) theta, and eta and psi_hat
    # get no partners and no rates
    slices = {"yr": slice(0, 2), "x1": slice(2, 4), "x2": slice(4, 6), "eta": slice(6, 8),
              "k": slice(8, 10), "psi": slice(10, 12)}
    pre_parts, main_parts, (_, owners, signs), _ = tracker_linear(slices, 2.0, None, -6, 7, 12, 20)
    assert len(pre_parts) == 3  # theta's x2, x1 and yr terms, the partners of k
    assert not any(np.isin(rows, np.r_[6:8, 10:12]).any() for rows, _, _ in main_parts)
    assert owners.tolist() == [0, 1, 0, 1] and signs.tolist() == [-1.0] * 4
    u, (deta, dk, dpsi) = tracker_at(np.zeros(2), np.array([1.0, -1.0]), np.zeros(2),
                                     np.ones(2), np.array([3.0, 0.5]), np.ones(2), 2.0, None)
    assert u.tolist() == [-6.0, 1.0]
    assert dk.tolist() == [2.0, 2.0]  # (1^4 + 1) 1^2
    assert not deta.any() and not dpsi.any()


def test_gain_rate_and_ablated_control_hand_values():
    # k' = theta^2 + theta^6 and, ablated, u = -k theta - k theta^5, at theta = x2
    u, (_, dk, _) = tracker_at(np.zeros(3), np.array([0.5, -2.0, 3.0]), np.zeros(3),
                               np.zeros(3), np.array([2.0, 1.0, 0.5]), np.zeros(3), 2.0, None)
    assert dk.tolist() == [0.265625, 68.0, 738.0]
    assert u.tolist() == [-1.0625, 34.0, -123.0]


def test_tracker_params_bounds():
    with pytest.raises(ValueError):
        TrackerParams(gamma=1.0)


def test_feedforward_truth_structure():
    im = InternalModelSpec.from_coeffs([2.0, 3.0])
    truth = FeedforwardTruth.build(im, [0.8])
    assert truth.residual < 1e-10
    assert np.abs(truth.Psi - [1.36, 3.0]).max() < 1e-10
