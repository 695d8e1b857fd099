"""Concurrence, trace distance and fidelity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj.entangle import (
    concurrence,
    concurrence_signed,
    fidelity_to_pure,
    pure_concurrence,
    trace_distance,
)
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


def _schmidt_kets(angles, rng):
    """(U ⊗ V)(cos a |00> + sin a |11>) with Haar U, V and a random phase: C = sin 2a.

    Every pure pair state has this form for some a in [0, pi/4].
    """
    kets = []
    for a in angles:
        local = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        phase = np.exp(2j * np.pi * rng.uniform())
        kets.append(phase * local @ np.array([np.cos(a), 0.0, 0.0, np.sin(a)]))
    return np.array(kets)


def _pure(kets):
    return np.einsum("...i,...j->...ij", kets, kets.conj())


# Wootters' form reads C from the root of the spin-flipped spectrum, so its
# rounding error grows like eps / C; from C = sin(2 * 0.05) ~ 0.1 on it stays
# below 1e-14 (1e5 Haar kets: 1.3e-13 at C = 0.0035, under 1e-14 above 0.02)
_SCHMIDT_ANGLES = st.lists(st.floats(0.05, np.pi / 4), min_size=1, max_size=21)


class TestPureConcurrence:
    @settings(max_examples=60, deadline=None)
    @given(
        angles=st.lists(st.floats(0.0, np.pi / 4), min_size=1, max_size=21),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_schmidt_form(self, angles, seed):
        # down to product states, where Wootters' clamp and conditioning fail
        rho = _pure(_schmidt_kets(angles, np.random.default_rng(seed)))
        assert np.max(np.abs(pure_concurrence(rho) - np.sin(2 * np.array(angles)))) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(angles=_SCHMIDT_ANGLES, seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_wootters(self, angles, seed):
        rho = _pure(_schmidt_kets(angles, np.random.default_rng(seed)))
        per_state = [pure_concurrence(r) for r in rho]
        assert all(isinstance(c, float) for c in per_state)
        assert np.max(np.abs(np.array(per_state) - [concurrence(r) for r in rho])) <= 1e-14
        assert np.max(np.abs(pure_concurrence(rho) - concurrence(rho))) <= 1e-14
        assert np.array_equal(pure_concurrence(rho), per_state)
        pair = np.stack([rho, rho])
        assert np.array_equal(pure_concurrence(pair), np.stack([per_state, per_state]))

    @settings(max_examples=60, deadline=None)
    @given(angles=_SCHMIDT_ANGLES, seed=st.integers(0, 2**32 - 1))
    def test_wootters_invariant_under_local_unitaries(self, angles, seed):
        rng = np.random.default_rng(seed)
        rho = _pure(_schmidt_kets(angles, rng))
        local = np.array([np.kron(random_unitary(2, rng), random_unitary(2, rng)) for _ in rho])
        moved = local @ rho @ local.conj().transpose(0, 2, 1)
        assert np.max(np.abs(concurrence(moved) - concurrence(rho))) <= 1e-13

    def test_bell_and_product_states(self, bell_rho):
        assert abs(pure_concurrence(bell_rho) - 1.0) <= 1e-15
        assert pure_concurrence(density(computational_ket("01"))) == 0.0

    def test_rejects_what_concurrence_rejects(self):
        for bad in (np.eye(2, dtype=complex) / 2, np.zeros((3, 2, 2), dtype=complex)):
            with pytest.raises(ValueError) as wootters:
                concurrence(bad)
            with pytest.raises(ValueError, match=f"^{re.escape(str(wootters.value))}$"):
                pure_concurrence(bad)


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

    @staticmethod
    def _states(rng, bell_rho):
        states = [random_density_matrix(4, rng) for _ in range(10)]
        for _ in range(10):
            psi = random_unitary(4, rng)[:, 0]
            states.append(np.outer(psi, psi.conj()))
        for la in PAULI_LABELS:
            for lb in PAULI_LABELS:
                p = np.kron(pauli_matrix(la), pauli_matrix(lb))
                states.append(p @ bell_rho @ p.conj().T)
        return np.stack(states)

    def test_stacked_equals_per_pair_calls(self, rng, bell_rho):
        # mixed, pure and Pauli-frame Bell states, each against another of the set
        rho = self._states(rng, bell_rho)
        sigma = rho[rng.permutation(len(rho))]
        one_by_one = np.array([trace_distance(a, b) for a, b in zip(rho, sigma)])
        assert all(isinstance(trace_distance(a, b), float) for a, b in zip(rho[:3], sigma[:3]))
        assert np.array_equal(trace_distance(rho, sigma), one_by_one)
        halves = trace_distance(rho.reshape(2, -1, 4, 4), sigma.reshape(2, -1, 4, 4))
        assert np.array_equal(halves, one_by_one.reshape(2, -1))

    def test_stack_rejects_mismatch_and_non_hermitian(self, rng, bell_rho):
        rho = self._states(rng, bell_rho)
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_distance(rho, rho[0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_distance(rho, rho[:-1])
        bad = rho.copy()
        bad[7, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(bad, rho)
        bad[7, 0, 1] = np.nan  # once a bare LinAlgError from the eigensolver
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_distance(bad, rho)
