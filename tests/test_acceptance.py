"""End-to-end acceptance suite: one test per headline claim, one printed
pass/fail line each.  The expensive closed-loop runs come from the shared
session fixtures, so the whole suite costs roughly three full simulations."""

import dataclasses
import time

import numpy as np
import pytest

from oocsim import costs
from oocsim.coordinator import CoordinatorGains, coordinator_only_run
from oocsim.digraph import spectral_data
from oocsim.sim import run
from oocsim.tracker import (companion_pair, phi_gamma, solve_sylvester,
                            sylvester_residual)
from stepping import plain_step
from test_costs import check_gradient

PSI_TRUE = np.array([1.36, 3.0])


def report(name, ok, detail):
    print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def coordinator_run(fig3_graph):
    cost_list = [costs.quadratic(0.1, float(i)) for i in range(1, 6)]
    gains = CoordinatorGains(beta1=20.0, beta2=2.0, delta=1.0)
    y0 = np.random.default_rng([105, 1]).uniform(-5.0, 5.0, size=5)
    t0 = time.perf_counter()
    traj = coordinator_only_run(fig3_graph, cost_list, gains, y0,
                                horizon=100.0, step=1e-3, record_every=100)
    return traj, time.perf_counter() - t0


def test_criterion_1_coordinator_convergence(coordinator_run):
    traj, elapsed = coordinator_run
    err = np.abs(traj.y_r[-1] - 3.0).max()
    ok = report("criterion 1", err < 1e-6 and elapsed < 30.0,
                f"max|y_r(100) - 3| = {err:.3e}, runtime {elapsed:.1f}s")
    assert ok


def test_criterion_2_xi_correction(coordinator_run, fig3_graph):
    traj, _ = coordinator_run
    rho = spectral_data(fig3_graph).rho
    err = np.abs(traj.xi_diag[-1] - rho).max()
    ok = report("criterion 2", err < 1e-8, f"max|xi_ii(100) - rho_i| = {err:.3e}")
    assert ok


def test_criterion_3_example1_closed_loop(example1_run):
    sc, traj = example1_run
    y_err = np.abs(traj.y[-1] - 3.0).max()
    x2_err = np.abs(traj.x2[-1]).max()
    ok = report("criterion 3", y_err < 5e-2 and x2_err < 5e-2,
                f"max|y(100) - 3| = {y_err:.3e}, max|x2(100)| = {x2_err:.3e}")
    assert ok


def test_criterion_4_psi_convergence(example1_run):
    sc, traj = example1_run
    err = max(np.abs(traj.psi_rows(i)[-1] - PSI_TRUE).max() for i in range(5))
    ok = report("criterion 4", err < 5e-2,
                f"max_i ||psi_i(100) - [1.36, 3]||_inf = {err:.3e}")
    assert ok


def test_criterion_5_sylvester_closed_form():
    m, n_vec = companion_pair(2, [2.0, 3.0])
    phi, gamma = phi_gamma([0.8])
    t = solve_sylvester(m, n_vec, phi, gamma)
    closed = np.abs(np.linalg.inv(t) - [[1.36, 3.0], [-1.92, 1.36]]).max()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        s_half = int(rng.integers(2, 7))
        coeffs = np.poly(-rng.uniform(0.2, 3.0, size=s_half))[1:][::-1]
        mm, nn = companion_pair(s_half, list(coeffs))
        freqs = np.sort(rng.uniform(0.2, 4.0, size=s_half // 2))
        while np.any(np.diff(freqs) < 1e-3):
            freqs = np.sort(rng.uniform(0.2, 4.0, size=s_half // 2))
        freqs = ([0.0] if s_half % 2 else []) + list(freqs)
        pp, gg = phi_gamma(freqs)
        tt = solve_sylvester(mm, nn, pp, gg)
        worst = max(worst, sylvester_residual(tt, mm, nn, pp, gg))
    ok = report("criterion 5", closed < 1e-10 and worst < 1e-10,
                f"closed-form error {closed:.3e}, worst residual of 100 "
                f"random instances {worst:.3e}")
    assert ok


def test_criterion_6_example2(example2_run):
    sc, traj = example2_run
    s_star = costs.global_optimum(sc.costs)
    oracle_gap = abs(s_star - 0.267)
    y_err = np.abs(traj.y[-1] - s_star).max()
    tail = traj.times >= 50.0
    x2_max = np.abs(traj.x2[tail]).max()
    ok = report(
        "criterion 6",
        oracle_gap < 5e-3 and y_err < 5e-2 and x2_max < 5e-2,
        f"s* = {s_star:.6f} (|s* - 0.267| = {oracle_gap:.3e}), "
        f"max|y(100) - s*| = {y_err:.3e}, max|x2(t>=50)| = {x2_max:.3e}")
    assert ok


def test_criterion_7_ablation(example2_ablation):
    sc, comparison, traj_with, traj_without = example2_ablation
    bounded = all(np.isfinite(block).all() for block in (
        traj_without.raw, traj_without.xi_diag, traj_without.xi_rowsum, traj_without.v))
    ratio = comparison["ratio"]
    ok = report("criterion 7", bounded and ratio >= 10.0,
                f"bounded = {bounded}, error ratio without/with = {ratio:.1f}x")
    assert ok


def test_criterion_8_conservation(example1_run, fig3_graph):
    sc, traj = example1_run
    rho_z = np.abs(traj.rho_z).max()
    rowsum = np.abs(traj.xi_rowsum - 1.0).max()
    exo = np.abs(traj.exo_norm - traj.exo_norm[0]).max()
    ok = report("criterion 8", rho_z < 1e-8 and rowsum < 1e-9 and exo < 1e-8,
                f"rho.z drift {rho_z:.3e}, xi row-sum drift {rowsum:.3e}, "
                f"exo norm drift {exo:.3e}")
    assert ok


def test_criterion_9_numerics(example1_scenario):
    variants = ([costs.quadratic(0.1, float(i)) for i in range(1, 6)]
                + [costs.exp_sum(0.25, -0.2, 0.5, 0.5)]
                + [costs.composite(f"ex2_f{i}") for i in range(1, 6)])
    grid = np.linspace(-4.5, 4.5, 61)
    fd = max(check_gradient(c, s) for c in variants for s in grid)

    def integrate(h):
        y = np.array([1.0, 0.0])
        for k in range(int(round(1.0 / h))):
            y = plain_step(lambda t, y: np.array([y[1], -y[0]]), k * h, y, h)
        return y

    exact = np.array([np.cos(1.0), -np.sin(1.0)])
    ratio = (np.linalg.norm(integrate(0.02) - exact)
             / np.linalg.norm(integrate(0.01) - exact))

    short = dataclasses.replace(example1_scenario, horizon=5.0)
    first, second = run(short), run(short)
    identical = all(np.array_equal(getattr(first, name), getattr(second, name))
                    for name in ("raw", "xi_diag", "xi_rowsum", "v"))

    ok = report("criterion 9", fd < 1e-6 and 12.0 <= ratio <= 20.0 and identical,
                f"worst gradient FD error {fd:.3e}, RK4 halving ratio {ratio:.2f}, "
                f"bit-identical rerun = {identical}")
    assert ok
