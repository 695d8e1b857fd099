"""Operator algebra: embedding, dissipator, eigenvalues, Pauli products."""

import numpy as np
import pytest

from qtraj.qcore import (
    PAULI_BITS,
    PAULI_BY_BITS,
    PAULI_LABELS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    InvariantViolation,
    bell_state,
    density,
    dissipator,
    embed,
    hermitian_eigenvalues,
    pauli_matrix,
    random_density_matrix,
    random_unitary,
    step_grid,
    tensor_product,
    validate_density_matrix,
)

E = np.zeros((2, 2), dtype=complex)
EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|
GROUND = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |0><0|


class TestEmbed:
    def test_identity_slot(self):
        assert np.array_equal(embed(np.eye(2, dtype=complex), 0, 2), np.eye(4))

    def test_disjoint_slots_commute_to_tensor(self):
        left = embed(SIGMA_X, 0, 2) @ embed(SIGMA_X, 1, 2)
        assert np.array_equal(left, np.kron(SIGMA_X, SIGMA_X))

    def test_lowering_on_second_qubit(self):
        # hand 4x4: I (x) sigma_minus maps |11> -> |10>
        expected = np.array(
            [
                [0, 1, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
            ],
            dtype=complex,
        )
        op = embed(SIGMA_MINUS, 1, 2)
        assert np.array_equal(op, expected)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.array_equal(op @ ket11, np.array([0, 0, 1, 0], dtype=complex))

    def test_slot_order_disjoint_product_commutes(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ab = embed(a, 0, 3) @ embed(b, 2, 3)
        ba = embed(b, 2, 3) @ embed(a, 0, 3)
        assert np.allclose(ab, ba, atol=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            embed(SIGMA_X, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kron_chain_bit_for_bit(self, n, rng):
        def chain(factors):
            out = np.array([[1.0 + 0.0j]])
            for f in factors:
                out = np.kron(out, f)
            return out

        stack = rng.standard_normal((5, n, 2, 2)) + 1j * rng.standard_normal((5, n, 2, 2))
        for factors, out in zip(stack, tensor_product(stack)):
            assert np.array_equal(out, chain(factors))
        for op in (stack[0, 0], stack[0, 0].real, SIGMA_MINUS):
            for q in range(n):
                eye = np.eye(2, dtype=complex)
                expected = chain([op if slot == q else eye for slot in range(n)])
                assert np.array_equal(embed(op, q, n), expected)


class TestDissipator:
    def test_ground_state_dark_to_decay(self):
        assert np.allclose(dissipator(SIGMA_MINUS, GROUND), np.zeros((2, 2)), atol=1e-15)

    def test_excited_state_decay(self):
        # hand 2x2: sigma- |e><e| sigma+ = |g><g|, anticommutator part = |e><e|
        expected = GROUND - EXCITED
        assert np.allclose(dissipator(SIGMA_MINUS, EXCITED), expected, atol=1e-15)

    def test_traceless_for_random_inputs(self, rng):
        for _ in range(50):
            c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = random_density_matrix(4, rng)
            out = dissipator(c, rho)
            assert abs(out.trace()) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dissipator(SIGMA_MINUS, np.eye(4) / 4)


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2, dtype=complex)), [1, 1])

    def test_sigma_z(self):
        assert np.allclose(hermitian_eigenvalues(SIGMA_Z), [1, -1])

    def test_bell_spin_flip_spectrum(self):
        # rho (sy x sy) rho* (sy x sy) for the Bell pair: spectrum {1, 0, 0, 0}.
        # Cross-check against the characteristic polynomial: the matrix equals
        # the rank-1 projector itself, so p(x) = x^4 - x^3.
        rho = density(bell_state())
        yy = np.kron(SIGMA_Y, SIGMA_Y)
        r = rho @ yy @ rho.conj() @ yy
        coeffs = np.poly(r)
        assert np.allclose(coeffs, [1, -1, 0, 0, 0], atol=1e-12)
        assert np.allclose(hermitian_eigenvalues(r), [1, 0, 0, 0], atol=1e-12)

    def test_sum_matches_trace(self, rng):
        for _ in range(25):
            rho = random_density_matrix(8, rng)
            w = hermitian_eigenvalues(rho)
            assert np.all(np.diff(w) <= 1e-15)
            assert abs(w.sum() - rho.trace().real) < 1e-10
            assert w[-1] > -1e-9 and w[0] < 1 + 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def _bit_product(a: str, b: str) -> str:
    """Projective Pauli product as the click fold forms it: XOR of (x, z) bit pairs."""
    bits = tuple(int(v) for v in np.bitwise_xor(PAULI_BITS[a], PAULI_BITS[b]))
    return next(label for label, pair in PAULI_BITS.items() if pair == bits)


class TestPauliMultiply:
    @pytest.mark.parametrize("a", PAULI_LABELS)
    def test_involution(self, a):
        assert _bit_product(a, a) == "I"

    @pytest.mark.parametrize("a", PAULI_LABELS)
    def test_identity_neutral(self, a):
        assert _bit_product("I", a) == a
        assert _bit_product(a, "I") == a

    @pytest.mark.parametrize(
        "a, b, expected",
        [("X", "Y", "Z"), ("Y", "X", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")],
    )
    def test_products(self, a, b, expected):
        assert _bit_product(a, b) == expected

    def test_associative(self):
        for a in PAULI_LABELS:
            for b in PAULI_LABELS:
                for c in PAULI_LABELS:
                    left = _bit_product(_bit_product(a, b), c)
                    right = _bit_product(a, _bit_product(b, c))
                    assert left == right

    def test_matches_matrix_product_up_to_phase(self):
        for a in PAULI_LABELS:
            x, z = PAULI_BITS[a]
            assert np.array_equal(PAULI_BY_BITS[2 * x + z], pauli_matrix(a))
            for b in PAULI_LABELS:
                prod = pauli_matrix(a) @ pauli_matrix(b)
                expected = pauli_matrix(_bit_product(a, b))
                # strip the global phase before comparing
                k = np.flatnonzero(np.abs(expected) > 0.5)[0]
                phase = prod.flat[k] / expected.flat[k]
                assert abs(abs(phase) - 1) < 1e-15
                assert np.allclose(prod, phase * expected, atol=1e-15)

    def test_rejects_garbage(self):
        # the click fold is the one place labels become bit pairs
        from qtraj.jumps import JumpEvent
        from qtraj.recovery import frame_from_events

        with pytest.raises(ValueError):
            frame_from_events([JumpEvent(0.0, 0, "q", True)], 1)


class TestValidation:
    def test_accepts_random_states(self, rng):
        for dim in (2, 4, 8):
            validate_density_matrix(random_density_matrix(dim, rng))

    def test_rejects_trace(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            validate_density_matrix(bad)

    def test_rejects_non_finite(self):
        bad = np.diag([1.0, np.nan]).astype(complex)
        with pytest.raises(InvariantViolation, match="non-finite"):
            validate_density_matrix(bad)

    def test_random_unitary_is_unitary(self, rng):
        for _ in range(20):
            u = random_unitary(4, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-13


class TestStepGrid:
    def test_steps_of_sample_times(self):
        assert step_grid(1e-3, 1.0) == (1000, [])
        assert step_grid(1e-3, 1.0, [0.0, 0.25, 1.0]) == (1000, [0, 250, 1000])
        assert step_grid(0.1, 0.3, 0.3) == (3, [3])

    @pytest.mark.parametrize(
        "dt, t_max, field",
        [(0.0, 1.0, "dt"), (-1e-3, 1.0, "dt"), (np.nan, 1.0, "dt"),
         (1e-3, 5e-4, "t_max"), (1e-3, np.nan, "t_max"), (1e-3, np.inf, "t_max"),
         (0.3, 1.0, "t_max"), (1e-3, 0.0105, "t_max")],
    )
    def test_rejects_bad_step(self, dt, t_max, field):
        with pytest.raises(ValueError, match=f"^{field}:"):
            step_grid(dt, t_max)

    @pytest.mark.parametrize(
        "times, words",
        [
            ([0.1, 0.1, 0.2], "increasing"),
            ([0.2, 0.1], "increasing"),
            ([0.00037], "grid"),
            ([0.1, np.nan], "grid"),
            ([0.0, np.inf], "grid"),
            ([-1e-3], "grid"),
            ([1.001], "grid"),
        ],
        ids=["duplicate", "descending", "off_grid", "nan", "inf", "negative", "past_t_max"],
    )
    def test_rejects_bad_sample_times(self, times, words):
        with pytest.raises(ValueError, match=f"^sample_times: .*{words}"):
            step_grid(1e-3, 1.0, times)
