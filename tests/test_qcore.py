"""Operator algebra: embedding, dissipator, eigenvalues, Pauli products."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtraj
from qtraj.qcore import (
    MAX_STEPS,
    PAULI_BITS,
    PAULI_BY_BITS,
    PAULI_LABELS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FieldErrors,
    InvariantViolation,
    bell_state,
    density,
    dissipator,
    embed,
    from_pauli_coordinates,
    hermitian_eigenvalues,
    number,
    pauli_coordinates,
    pauli_strings,
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

    def test_rejects_nan(self):
        # a NaN matrix once returned NaN eigenvalues, and trace_distance then
        # raised a bare LinAlgError: its deviation NaN > tol is False
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.full((2, 4, 4), np.nan, dtype=complex))


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


class TestFieldErrors:
    def test_each_field_named_once_by_its_first_entry(self):
        err = FieldErrors("dt: a", "t_max: b", "dt: c", "unknown key 'x' in [run]")
        err.add("t_max: d", "unknown key 'y' in [run]")
        assert err.entries == ["dt: a", "t_max: b", "unknown key 'x' in [run]", "unknown key 'y' in [run]"]
        assert str(err) == "; ".join(err.entries) and isinstance(err, ValueError)

    def test_check_collects_each_kind_of_failure(self):
        def model_fails():
            raise FieldErrors("n_qubits: a", "eta: b")

        err = FieldErrors()
        assert err.check(number, "dt", 0.5) == 0.5 and err.check(lambda: 0) == 0
        assert err.check(number, "dt", "x") is None  # names its own field
        assert err.check(int, "w", field="workers") is None  # a plain ValueError takes the field
        assert err.check(model_fails, field="model") is None  # its entries stand for the model
        err.add("model: c", "eta: d", "u: e")
        assert err.entries == [
            "dt: must be a real number, got 'x'",
            "workers: invalid literal for int() with base 10: 'w'",
            "n_qubits: a",
            "eta: b",
            "u: e",
        ]
        with pytest.raises(ZeroDivisionError):  # only a ValueError is an entry
            err.check(lambda: 1 / 0)

    def test_raise_any(self):
        FieldErrors().raise_any()
        err = FieldErrors("dt: a")
        with pytest.raises(FieldErrors) as caught:
            err.raise_any()
        assert caught.value is err

    def test_the_one_error_list(self):
        # a second collector would join its own entries, or split another's message;
        # a range message outside number would be a hand-rolled bound, worded its own
        # way, and so would a conversion failure: text that does not convert reaches
        # the check that owns its field. The array checks (u, master and curve
        # times, a ket) keep theirs
        qcore_source = Path(qtraj.qcore.__file__).read_text()
        collector, rule = inspect.getsource(FieldErrors), inspect.getsource(number)
        assert collector in qcore_source and rule in qcore_source
        range_message = re.compile(r"([\w`{}:]+) must (?:be finite|lie in|be [<>])")
        arrays = {"correlation", "times", "``times``", "t", "ket"}
        for path in sorted(Path(qtraj.__file__).parent.glob("*.py")):
            text = path.read_text().replace(collector, "")
            for pattern in ('"; ".join(', "'; '.join(", '.split("; ")', ".split('; ')"):
                assert pattern not in text, f"{path.name} holds {pattern}"
            subjects = set(range_message.findall(text.replace(rule, "")))
            assert subjects <= arrays, f"{path.name} words a range rule for {subjects - arrays}"
            for phrase in ("not an integer", "invalid literal", "could not convert"):
                assert phrase not in text, f"{path.name} words a conversion failure: {phrase!r}"


class TestNumber:
    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (True, {}, "must be a real number, got True"),
            (np.nan, {}, "must be finite, got nan"),
            (-np.inf, {"low": 0}, "must be finite and >= 0, got -inf"),
            (0.0, {"above": 0}, "must be finite and > 0, got 0.0"),
            (1.5, {"low": 0, "high": 1}, "must be finite and in [0, 1], got 1.5"),
            (np.nan, {"above": 0, "high": 1}, "must be finite and in (0, 1], got nan"),
            (2.0, {"high": 1}, "must be finite and <= 1, got 2.0"),
        ],
    )
    def test_real_rule(self, value, bounds, message):
        with pytest.raises(FieldErrors, match=rf"^x: {re.escape(message)}$"):
            number("x", value, **bounds)

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (False, {"low": 0}, "must be an integer >= 0, got False"),
            (1.0, {"low": 1, "high": 4}, "must be an integer >= 1, got 1.0"),  # the type, as before
            (0, {"low": 1}, "must be an integer >= 1, got 0"),
            (np.int64(5), {"low": 1, "high": 4}, "must be an integer in [1, 4], got 5"),
        ],
    )
    def test_integer_rule(self, value, bounds, message):
        with pytest.raises(FieldErrors, match=rf"^x: {re.escape(message)}$"):
            number("x", value, True, **bounds)

    def test_values_within_bounds_returned_as_given(self):
        for value in (0, 1, np.float32(0.5), np.int64(1)):
            assert number("x", value, low=0, high=1) is value
        assert number("x", 1e-300, above=0) == 1e-300 and number("x", 4, True, 1, 4) == 4


class TestStepGrid:
    @pytest.mark.parametrize(
        "dt, t_max, field",
        [(None, 1.0, "dt"), ("abc", 1.0, "dt"), ("1e-3", 1.0, "dt"), (1e-3, None, "t_max"),
         (1e-3, 1j, "t_max")],
    )
    def test_non_numeric_step_named(self, dt, t_max, field):
        # None raised float()'s TypeError; a string that float() parses reached the engines
        bad = dt if field == "dt" else t_max
        with pytest.raises(ValueError, match=rf"^{field}: must be a real number, got {bad!r}$"):
            step_grid(dt, t_max)

    @pytest.mark.parametrize(
        "dt, t_max, sample_times, fields",
        [
            (None, None, None, ["dt", "t_max"]),
            (-1.0, np.nan, None, ["dt", "t_max"]),
            (-1.0, -0.5, None, ["dt", "t_max"]),
            ("1e-3", 1.0, "abc", ["dt", "sample_times"]),
            (np.inf, 1.0, None, ["dt"]),
            (-1.0, 0.5, None, ["dt"]),
        ],
    )
    def test_bad_step_and_horizon_named_together(self, dt, t_max, sample_times, fields):
        # a bad dt once hid a bad t_max, and an infinite dt was reported as a bad t_max
        with pytest.raises(ValueError) as exc:
            step_grid(dt, t_max, sample_times)
        assert [entry.split(":")[0] for entry in str(exc.value).split("; ")] == fields

    @pytest.mark.parametrize("dt, t_max", [(1e-300, 1.0), (1e-9, 1.0), (1.0, 1e300)])
    def test_step_count_bounded(self, dt, t_max):
        # 10**300 steps once passed, to fail in the engine's draw of one uniform per step
        with pytest.raises(FieldErrors, match=rf"^dt: t_max / dt = .* steps, more than MAX_STEPS = 1e\+08$"):
            step_grid(dt, t_max)
        assert step_grid(1.0 / MAX_STEPS, 1.0)[0] == MAX_STEPS  # the count alone, no draw

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
        for _ in range(2):  # grids are memoized, errors are not
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
            ([], "must not be empty"),
            (np.array([]), "must not be empty"),
            # these once raised a bare TypeError or parsed a string
            ([1j], "real number"),
            (np.array([0.5 + 0j]), "real number"),
            ("abc", "real number"),
            (["0.5"], "real number"),
            ([None], "real number"),
            ([[0.0], [0.5]], "real number"),
            ([[0.0], [0.5, 1.0]], "real number"),
        ],
        ids=[
            "duplicate", "descending", "off_grid", "nan", "inf", "negative", "past_t_max",
            "empty_list", "empty_array", "complex", "complex_array", "string", "string_list",
            "none", "nested", "ragged",
        ],
    )
    def test_rejects_bad_sample_times(self, times, words):
        for _ in range(2):  # grids are memoized, errors are not
            with pytest.raises(ValueError, match=f"^sample_times: .*{words}"):
                step_grid(1e-3, 1.0, times)

    def test_memo_is_by_value_and_hands_out_fresh_lists(self):
        times = np.array([0.0, 0.5])
        n, steps = step_grid(1e-3, 1.0, times)
        steps.append(7)
        times[1] = 1.0  # changed in place: a new grid, not the memoized one
        assert step_grid(1e-3, 1.0, times) == (1000, [0, 1000])
        assert step_grid(1e-3, 1.0, [0.0, 0.5]) == (1000, [0, 500])


class TestPauliCoordinates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strings_are_an_orthogonal_hermitian_basis(self, n):
        p = pauli_strings(n)
        d = 2**n
        assert p.shape == (d * d, d, d) and not p.flags.writeable
        assert np.array_equal(p[0], np.eye(d))
        assert np.array_equal(p, p.conj().transpose(0, 2, 1))
        gram = np.einsum("jab,kba->jk", p, p)
        assert np.array_equal(gram, d * np.eye(d * d))
        # slot 0 leftmost, I X Y Z per slot
        assert np.array_equal(p[-1], tensor_product([SIGMA_Z] * n))
        if n > 1:
            assert np.array_equal(p[4 ** (n - 1)], embed(SIGMA_X, 0, n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
    def test_round_trip_is_identity(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        rho = scale * random_density_matrix(2**n, rng)
        r = pauli_coordinates(rho)
        assert r.shape == (4**n,) and r.dtype == np.float64
        assert abs(r[0] - rho.trace().real) <= 1e-15 * scale
        assert np.max(np.abs(from_pauli_coordinates(r) - rho)) <= 1e-15 * scale
        # a stack maps row by row
        stack = np.stack([rho, np.eye(2**n) / 2**n])
        coords = pauli_coordinates(stack)
        assert np.max(np.abs(coords[0] - r)) <= 1e-15 * scale
        assert np.array_equal(coords[1], np.eye(4**n)[0])
        assert np.max(np.abs(from_pauli_coordinates(coords) - stack)) <= 1e-15 * scale
