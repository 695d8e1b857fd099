"""Concurrence, trace distance and fidelity."""

import numpy as np
import pytest

from qtraj.entangle import concurrence, concurrence_signed, fidelity_to_pure, trace_distance
from qtraj.master import LindbladModel, integrate_master
from qtraj.qcore import (
    PAULI_LABELS,
    bell_state,
    computational_ket,
    density,
    pauli_matrix,
    random_density_matrix,
    random_unitary,
)

# independently evaluated e^{-0.4} + e^{-0.8}/2 - 1/2
INFINITE_T_AT_02 = 0.3949845280942501


class TestConcurrence:
    def test_bell_pair_maximal(self, bell_rho):
        assert abs(concurrence(bell_rho) - 1.0) < 1e-12

    def test_product_basis_state(self):
        assert concurrence(density(computational_ket("01"))) == 0.0

    def test_integrated_infinite_T_state(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        series = integrate_master(model, bell_rho, [0.2])
        assert abs(concurrence(series.values[-1]) - INFINITE_T_AT_02) < 1e-6

    def test_invariant_under_pauli_conjugation(self, rng):
        for _ in range(30):
            rho = random_density_matrix(4, rng)
            c0 = concurrence(rho)
            la, lb = rng.choice(PAULI_LABELS), rng.choice(PAULI_LABELS)
            p = np.kron(pauli_matrix(la), pauli_matrix(lb))
            assert abs(concurrence(p @ rho @ p.conj().T) - c0) < 1e-10

    def test_invariant_under_local_unitaries(self, rng):
        for _ in range(30):
            rho = random_density_matrix(4, rng)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            assert abs(concurrence(u @ rho @ u.conj().T) - concurrence(rho)) < 1e-9

    def test_product_states_have_zero(self, rng):
        for _ in range(30):
            rho = np.kron(random_density_matrix(2, rng), random_density_matrix(2, rng))
            assert concurrence(rho) < 1e-10

    def test_signed_goes_negative_after_disentanglement(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        series = integrate_master(model, bell_rho, [0.6])
        assert concurrence_signed(series.values[-1]) < -0.05
        assert concurrence(series.values[-1]) == 0.0

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            concurrence(np.zeros((3, 2, 2), dtype=complex))

    def test_stacked_equals_per_state_calls(self, rng, bell_rho):
        states = [random_density_matrix(4, rng) for _ in range(10)]
        for _ in range(10):
            psi = random_unitary(4, rng)[:, 0]
            pure = np.outer(psi, psi.conj())
            states += [pure, 0.7 * pure + 0.3 * random_density_matrix(4, rng)]
        # the Bell states a Pauli frame produces: C = 1 up to eigen-noise
        for la in PAULI_LABELS:
            for lb in PAULI_LABELS:
                p = np.kron(pauli_matrix(la), pauli_matrix(lb))
                states.append(p @ bell_rho @ p.conj().T)
        stack = np.stack(states)
        for fn in (concurrence, concurrence_signed):
            one_by_one = np.array([fn(s) for s in states])
            assert all(isinstance(fn(s), float) for s in states[:3])
            assert np.array_equal(fn(stack), one_by_one)
            assert np.array_equal(fn(stack.reshape(2, -1, 4, 4)), one_by_one.reshape(2, -1))


class TestDistances:
    def test_self_distance_zero(self, rng):
        rho = random_density_matrix(4, rng)
        assert trace_distance(rho, rho) < 1e-14

    def test_orthogonal_pure_states(self):
        zero = density(computational_ket("0"))
        one = density(computational_ket("1"))
        assert abs(trace_distance(zero, one) - 1.0) < 1e-14

    def test_fidelity_of_bell_projector(self, bell_rho):
        assert abs(fidelity_to_pure(bell_rho, bell_state()) - 1.0) < 1e-14

    def test_fidelity_linear_in_mixture(self, bell_rho):
        mixed = 0.7 * bell_rho + 0.3 * np.eye(4) / 4
        assert abs(fidelity_to_pure(mixed, bell_state()) - (0.7 + 0.3 / 4)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)
