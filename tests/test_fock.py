"""Exact few-mode pair-operator oracle."""

import numpy as np
import pytest

from qca import fock


def test_anticommutation_exact():
    assert fock.anticommutator_residual(n_modes=6, max_excitations=2) == 0.0


def test_anticommutation_residual_keeps_nan(monkeypatch):
    monkeypatch.setattr(fock, "state_norm", lambda state: float("nan"))
    assert np.isnan(fock.anticommutator_residual(n_modes=2, max_excitations=1))


def test_anticommutation_against_dense_construction():
    # Independent dense realization: a_j = Z x ... x Z x A x I x ... with
    # A = [[0,1],[0,0]] in the occupation basis, bit j least significant.
    n = 3
    dim = 2 ** n
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    sign = np.diag([1.0, -1.0])
    eye = np.eye(2)

    def dense_annihilator(j):
        mats = []
        for bit in range(n):  # bit 0 is the fastest index in our masks
            if bit < j:
                mats.append(sign)
            elif bit == j:
                mats.append(lower)
            else:
                mats.append(eye)
        out = np.array([[1.0]])
        for m in mats:
            out = np.kron(m, out)  # keep bit 0 fastest
        return out

    for j in range(n):
        dense = dense_annihilator(j)
        for mask in range(dim):
            sparse = fock.apply_annihilation({mask: 1.0 + 0.0j}, j)
            vec = np.zeros(dim, dtype=complex)
            for occ, amp in sparse.items():
                vec[occ] = amp
            assert np.max(np.abs(vec - dense[:, mask])) < 1e-14


def test_vacuum_commutator_is_kronecker_delta():
    oracle = fock.FockOracle(n_pair_modes=6)
    for i in range(2):
        for j in range(2):
            deviation, eps = fock.fock_commutator_deviation(
                oracle, oracle.vacuum(), (i, j)
            )
            assert deviation < 1e-14, (i, j)
            assert eps == 0.0


def test_filled_region_deviation_order_one():
    oracle = fock.FockOracle(n_pair_modes=4)
    state = oracle.filled_psi_state(4)
    deviation, eps = fock.fock_commutator_deviation(oracle, state, (0, 0))
    assert eps == pytest.approx(1.0)
    assert deviation > 0.3


def test_single_fermion_deviation_bound():
    oracle = fock.FockOracle(n_pair_modes=8)
    deviation, eps = fock.fock_commutator_deviation(
        oracle, oracle.filled_psi_state(1), (0, 0)
    )
    assert eps == pytest.approx(1.0 / 8.0)
    assert deviation <= 4.0 * (1.0 / 8.0)


def test_inverse_region_size_trend():
    devs = []
    for n in (4, 8, 16, 32):
        oracle = fock.FockOracle(n_pair_modes=n)
        deviation, _ = fock.fock_commutator_deviation(
            oracle, oracle.filled_psi_state(1), (0, 0)
        )
        devs.append(deviation)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[1] <= 4.0 * devs[3] + 1e-12


def test_cross_polarization_on_occupied_state():
    oracle = fock.FockOracle(n_pair_modes=6)
    state = oracle.filled_psi_state(2)
    deviation, _ = fock.fock_commutator_deviation(oracle, state, (0, 1))
    # off-diagonal commutator need not vanish on occupied states, but it
    # stays within the dilution bound scale
    assert deviation <= 1.0


def test_mode_cap():
    with pytest.raises(ValueError):
        fock.FockOracle(n_pair_modes=1000)


def test_gamma_annihilates_vacuum():
    oracle = fock.FockOracle(n_pair_modes=3)
    out = oracle.gamma_apply(oracle.vacuum(), 0)
    assert fock.state_norm(out) == 0.0


def test_gamma_dagger_creates_normalized_pair_superposition():
    oracle = fock.FockOracle(n_pair_modes=5)
    created = oracle.gamma_apply(oracle.vacuum(), 0, adjoint=True)
    assert fock.state_norm(created) == pytest.approx(1.0, abs=1e-13)
    # gamma gamma^+ |0> = |0>
    back = oracle.gamma_apply(created, 0)
    assert set(back) <= {0}
    assert back[0] == pytest.approx(1.0, abs=1e-13)


def test_double_occupation_rejected():
    oracle = fock.FockOracle(n_pair_modes=2)
    with pytest.raises(ValueError):
        oracle.state_from_occupations([1, 1])
