"""The xi source's mode split and block read-out, each against the code it replaced.

`sim._split_modes` takes one eig with left vectors and no inverse;
`inverse_split` is the split it replaced, with P^-1 from inverses, kept here
as the oracle.  `ModalSource` adds the block's part of the stage inputs with
one batched product; `einsum_read_out` is the contraction it replaced.  The
ring200 graphs are the benchmark's, from `benchmark/workloads.py`'s
`ring_edges`, which is only read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import schur
from scipy.sparse import csr_array

from oocsim import sim
from oocsim.digraph import Digraph, laplacian
from oocsim.scenario import parse_scenario
from oocsim.sim import SourceParts, _split_modes, modal_readout

_spec = importlib.util.spec_from_file_location(
    "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# ring200 seeds whose L puts ill-conditioned modes into a block (m = 2 to 4),
# and seeds with none
BLOCK_SEEDS = (25, 28, 149, 157, 198, 205, 209, 217, 249, 262)
MODAL_SEEDS = (0, 1, 2, 3)
STEPS = 300


def ring_laplacian(seed, n=workloads.RING_N):
    """L of the benchmark's ring of n agents at seed: a ring plus n unit chords."""
    edges = workloads.ring_edges(n, np.random.default_rng(seed))
    return laplacian(Digraph.from_edges(n, [(s, d, 1.0) for s, d in edges]))


def inverse_split(a):
    """`_split_modes` as it was: 1/s_i and the rows of P^-1 from inverses of V and P."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    try:
        lam, vecs = np.linalg.eig(a)
        inv = np.linalg.inv(vecs)
        bad = ~(np.linalg.norm(vecs, axis=0) * np.linalg.norm(inv, axis=1)
                <= sim._MODE_MAX_COND)
        m, t, q = 0, np.empty((0, 0)), np.empty((n, 0))
        if bad.any():
            centers, radii = sim._cluster_discs(np.concatenate((lam[bad], lam[bad].conj())),
                                                np.abs(lam).max())

            def in_disc(x):
                return (np.abs(x - centers) <= radii).any(axis=-1)

            inside = in_disc(lam[:, None])
            t, q, m = schur(a, sort=lambda re, im: bool(in_disc(complex(re, im))))
            assert m == inside.sum()
            lam = lam[~inside]
            vecs = np.concatenate((vecs[:, ~inside], q[:, :m]), axis=1)
            inv = np.linalg.inv(vecs)
        kappa = sim._norm1(vecs) * sim._norm1(inv)
        if not kappa <= sim._MODAL_MAX_COND:
            raise np.linalg.LinAlgError(f"kappa_1(P) = {kappa:.3g}")
    except np.linalg.LinAlgError:
        t, q = schur(a)
        m, lam, vecs, inv = n, np.empty(0), q, q.T
        kappa = sim._norm1(vecs) * sim._norm1(inv)
    good, keep = n - m, lam.imag >= 0
    modes = (lam[keep].astype(complex, copy=False),
             vecs[:, :good][:, keep].astype(complex, copy=False),
             inv[:good][keep].astype(complex, copy=False))
    return modes, (t[:m, :m], q[:, :m], inv[good:].real), kappa


def whole_split(split):
    """(P, P^-1) of a split, each kept complex mode joined by its conjugate."""
    (lam, vecs, rows), (_, q, w_c), _ = split
    pair = lam.imag > 0
    return (np.hstack((vecs, vecs[:, pair].conj(), q)),
            np.vstack((rows, rows[pair].conj(), w_c)))


def stepped(source, steps=STEPS):
    """(stage inputs, snapshots) of a source's first steps, each snapshot taken before its step."""
    inputs, snapshots = [], []
    for _ in range(steps):
        snapshots.append(np.array(source.snapshot()))
        inputs.append(np.array(source.stages()))
    return np.array(inputs), np.array(snapshots)


def einsum_read_out(readout, steps=STEPS):
    """`stepped` of a source over readout, read out as `ModalSource` did before:
    the modal product plus an einsum over the block's (4, n, m) stage maps and
    (K + 1, m, n) states."""
    read_xi, read_rowsum, ell, factors, (stage_maps, powers, q, w_c) = readout
    m, k_block = q.shape[1], sim._BLOCK
    stage_maps = stage_maps.transpose(2, 0, 1)
    powers = powers.reshape(m, k_block + 1, m).transpose(1, 2, 0)  # [j] = R^j
    offsets = np.arange(k_block)[:, None]
    state = w_c
    inputs, snapshots = [], []
    for start in range(0, steps, k_block):
        e = np.exp((start + offsets) * ell)
        modes = factors * e[:, None]
        flat = modes.reshape(4 * k_block, -1).view(float) @ read_xi
        states = powers @ state
        block = flat.reshape(k_block, 4, -1)
        block += np.einsum("sib,jbi->jsi", stage_maps, states[:k_block])
        for j in range(k_block):
            e = np.exp((start + j) * ell).view(float)
            diag, rowsum = e @ read_xi, e @ read_rowsum
            diag += np.einsum("ib,bi->i", q, states[j])
            rowsum += q @ states[j].sum(axis=1)
            snapshots.append((diag, rowsum))
            inputs.append(block[j])
        state = states[k_block]
    return np.array(inputs[:steps]), np.array(snapshots[:steps])


def classic_rk4_xi(big_l, h, steps=STEPS):
    """`stepped` of classic RK4 on xi' = -L xi from I: the diagonals of each
    step's stage values, and (diag xi, row sums) at each step's start."""
    lap, x = csr_array(big_l), np.eye(len(big_l))
    inputs, snapshots = [], []
    for _ in range(steps):
        snapshots.append((x.diagonal(), x.sum(axis=1)))
        k1 = -(lap @ x)
        x2 = x + h / 2 * k1
        k2 = -(lap @ x2)
        x3 = x + h / 2 * k2
        k3 = -(lap @ x3)
        x4 = x + h * k3
        k4 = -(lap @ x4)
        inputs.append([y.diagonal() for y in (x, x2, x3, x4)])
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(inputs), np.array(snapshots)


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("seed", MODAL_SEEDS + BLOCK_SEEDS)
def test_split_matches_the_inverse_split_on_ring200(seed):
    big_l, h = ring_laplacian(seed), workloads.RING_STEP
    split, oracle = _split_modes(-big_l), inverse_split(-big_l)
    m = len(split[1][0])
    assert m == len(oracle[1][0]) and (m > 0) == (seed in BLOCK_SEEDS)
    assert abs(split[2] - oracle[2]) <= 1e-2 * oracle[2]
    p, p_inv = whole_split(split)
    assert p.shape == p_inv.shape == (len(big_l),) * 2
    error = p_inv @ p - np.eye(len(big_l))
    assert np.abs(error).max() <= 1e-9
    # the good modes' rows against Q: 3e-11 from eig's left vectors alone,
    # second order after the split's Newton step
    assert np.abs(error[:len(big_l) - m, len(big_l) - m:]).max(initial=0.0) <= 1e-13
    got, _ = stepped(SourceParts(big_l).source(h))
    want, _ = stepped(sim.ModalSource(h, modal_readout(oracle, h)))
    assert relative_gap(got, want) <= 1e-10


@pytest.mark.parametrize("seed", [1, "example1"])
def test_read_out_at_m0_is_the_einsum_read_out_bit_for_bit(seed):
    big_l = laplacian(parse_scenario(seed).graph) if seed == "example1" else ring_laplacian(seed)
    h = workloads.RING_STEP
    readout = modal_readout(_split_modes(-big_l), h)
    source = sim.ModalSource(h, readout)
    assert source.m == 0
    inputs, snapshots = stepped(source)
    want_inputs, want_snapshots = einsum_read_out(readout)
    assert np.array_equal(inputs, want_inputs)
    assert np.array_equal(snapshots, want_snapshots)


# seed 93 has no block but the census's largest gap from classic RK4 (7.3e-11)
@pytest.mark.parametrize("seed, m", [(25, 2), (28, 3), (217, 4), (7, 20), (93, 0)])
def test_block_read_out_is_classic_rk4(seed, m, monkeypatch):
    if m == 20:  # a ring of 20 with every mode in the block
        big_l = ring_laplacian(seed, n=20)
        monkeypatch.setattr(sim, "_MODAL_MAX_COND", 0.0)
    else:
        big_l = ring_laplacian(seed)
    h = workloads.RING_STEP
    readout = modal_readout(_split_modes(-big_l), h)
    source = sim.ModalSource(h, readout)
    assert source.m == m
    inputs, snapshots = stepped(source)
    for want_inputs, want_snapshots in (classic_rk4_xi(big_l, h), einsum_read_out(readout)):
        assert relative_gap(inputs, want_inputs) <= 1e-10
        assert relative_gap(snapshots, want_snapshots) <= 1e-10


def complete_graph(n):
    return Digraph.from_edges(n, [(i, j, 1.0) for i in range(1, n + 1)
                                  for j in range(1, n + 1) if i != j])


def undirected_ring(n):
    return Digraph.from_edges(n, [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
                              + [(i % n + 1, i, 1.0) for i in range(1, n + 1)])


@pytest.mark.parametrize("graph", [complete_graph(6), undirected_ring(6)],
                         ids=["complete", "undirected-ring"])
def test_repeated_eigenvalues_get_the_rows_of_v_inverse(graph):
    # eig's left and right vectors of a repeated eigenvalue are not
    # biorthogonal (u_i^H v_j / u_i^H v_i is off by 0.25 and 0.7 here), so
    # each cluster's rows are solved for together
    big_l, h = laplacian(graph), 1e-3
    split = _split_modes(-big_l)
    p, p_inv = whole_split(split)
    assert len(split[1][0]) == 0 and split[2] < 100
    assert np.abs(p_inv @ p - np.eye(graph.n)).max() <= 1e-12
    got_inputs, got_snapshots = stepped(SourceParts(big_l).source(h), 100)
    want_inputs, want_snapshots = classic_rk4_xi(big_l, h, 100)
    assert relative_gap(got_inputs, want_inputs) <= 1e-13
    assert relative_gap(got_snapshots, want_snapshots) <= 1e-13


def test_split_and_read_out_take_no_inverse_and_no_einsum(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called")

    big_l = ring_laplacian(25)
    monkeypatch.setattr(np.linalg, "inv", refused)
    monkeypatch.setattr(np, "einsum", refused)
    source = SourceParts(big_l).source(workloads.RING_STEP)
    assert source.m == 2
    stepped(source, 2 * sim._BLOCK + 1)
