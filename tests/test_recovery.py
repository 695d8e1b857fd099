"""Pauli frames, local-unitary frames and state restoration.

Frames are ``(..., n, 2, 2)`` arrays of per-qubit unitaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj.jumps import JumpEvent
from qtraj.qcore import (
    SIGMA_X,
    SIGMA_Y,
    dissipator,
    pauli_matrix,
    random_density_matrix,
    random_unitary,
    tensor_product,
)
from qtraj.recovery import (
    apply_frame,
    frame_from_events,
    recover,
    recover_unitary,
    unitarity_defect,
    unitary_part,
)


def _event(label, qubit=0, detected=True, time=0.0):
    return JumpEvent(time=time, qubit=qubit, label=label, detected=detected)


def _pauli(*labels):
    """The frame of one Pauli label per qubit."""
    return np.stack([pauli_matrix(label) for label in labels])


def _identity(n):
    return np.tile(np.eye(2, dtype=complex), (n, 1, 1))


class TestPauliFrame:
    def test_single_x_click(self):
        frames = frame_from_events([_event("x")], 2)
        assert frames.shape == (2, 2, 2, 2)
        assert np.array_equal(frames[0], _pauli("I", "I"))
        assert np.array_equal(frames[-1], _pauli("X", "I"))

    def test_double_click_cancels(self):
        frames = frame_from_events([_event("x", qubit=1), _event("x", qubit=1)], 2)
        assert np.array_equal(frames[-1], _pauli("I", "I"))

    def test_x_then_y_gives_z(self):
        frames = frame_from_events([_event("x"), _event("y")], 1)
        assert np.array_equal(frames[-1], _pauli("Z"))
        # cross-check projectively against 2x2 matrices
        prod = SIGMA_Y @ SIGMA_X
        z = pauli_matrix("Z")
        phase = prod[0, 0] / z[0, 0]
        assert np.allclose(prod, phase * z, atol=1e-15)

    def test_canonical_labels_rejected(self):
        with pytest.raises(ValueError, match="no frame recovery"):
            frame_from_events([_event("minus")], 1)

    def test_frame_from_events_filters(self):
        events = [
            _event("x", qubit=0, time=0.1),
            _event("y", qubit=1, time=0.2, detected=False),
            _event("y", qubit=0, time=0.5),
        ]
        assert np.array_equal(frame_from_events(events, 2)[-1], _pauli("Z", "I"))
        everything = frame_from_events(events, 2, include_undetected=True)
        assert np.array_equal(everything[-1], _pauli("Z", "Y"))
        # the frame at t = 0.3 is the row after the clicks at or before it
        row = np.searchsorted([e.time for e in events], 0.3, side="right")
        assert np.array_equal(frame_from_events(events, 2)[row], _pauli("X", "I"))


class TestRecover:
    def test_identity_frame_no_op(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.array_equal(recover(rho, _identity(2)), rho)

    def test_round_trip(self, rng):
        for labels in (("X", "Y"), ("Z", "I"), ("Y", "Y")):
            frame = _pauli(*labels)
            rho = random_density_matrix(4, rng)
            back = recover(apply_frame(rho, frame), frame)
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            recover(random_density_matrix(2, rng), _identity(2))


DT = 1e-3
N_STEPS = 50


@st.composite
def click_records(draw):
    """A sorted click record on the dt grid and sample steps, some of them at clicks.

    Click and sample times are both ``step * DT`` products, so a click at a
    sample step has exactly the sample's time.
    """
    n = draw(st.integers(1, 3))
    clicks = draw(
        st.lists(
            st.tuples(
                st.integers(1, N_STEPS),
                st.integers(0, n - 1),
                st.sampled_from(["x", "y"]),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    clicks.sort(key=lambda c: c[0])
    events = [_event(label, q, detected, step * DT) for step, q, label, detected in clicks]
    steps = draw(st.sets(st.integers(0, N_STEPS), min_size=1, max_size=8))
    steps |= draw(st.sets(st.sampled_from([c[0] for c in clicks] or [0]), max_size=3))
    return n, events, np.array(sorted(steps)) * DT


def _equal_up_to_phase(a, b, tol=1e-15):
    """Whether two 2x2 unitaries differ by one global phase."""
    phase = np.sum(b.conj() * a) / 2.0
    return abs(abs(phase) - 1.0) <= tol and np.max(np.abs(a - phase * b)) <= tol


class TestFoldAndBatch:
    @settings(max_examples=200, deadline=None)
    @given(click_records(), st.booleans())
    def test_prefix_rows_are_left_products(self, record, include_undetected):
        n, events, times = record
        frames = frame_from_events(events, n, include_undetected=include_undetected)
        assert frames.shape == (len(events) + 1, n, 2, 2)
        rows = np.searchsorted([e.time for e in events], times, side="right")
        for t, row in zip(times, rows):
            expected = _identity(n)
            for e in events:
                if e.time <= t and (e.detected or include_undetected):
                    expected[e.qubit] = pauli_matrix(e.label.upper()) @ expected[e.qubit]
            for q in range(n):
                assert _equal_up_to_phase(frames[row, q], expected[q])

    @settings(max_examples=100, deadline=None)
    @given(click_records(), st.integers(0, 2**32 - 1))
    def test_batched_conjugation_matches_per_state(self, record, seed):
        n, events, times = record
        rng = np.random.default_rng(seed)
        rows = np.searchsorted([e.time for e in events], times, side="right")
        paulis = frame_from_events(events, n, include_undetected=True)[rows]
        unitaries = np.array(
            [[random_unitary(2, rng) for _ in range(n)] for _ in times]
        )
        states = np.stack([random_density_matrix(2**n, rng) for _ in times])
        for frames, tol in ((paulis, 0.0), (unitaries, 1e-15)):
            for fn in (recover, apply_frame):
                batch = fn(states, frames)
                single = np.stack([fn(s, f) for s, f in zip(states, frames)])
                if tol == 0.0:
                    assert np.array_equal(batch, single)
                else:
                    assert np.max(np.abs(batch - single)) <= tol
            assert np.max(np.abs(recover(apply_frame(states, frames), frames) - states)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 20), st.data())
    def test_one_non_unitary_frame_rejects_the_stack(self, n, bad, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        frames = np.array([[random_unitary(2, rng) for _ in range(n)] for _ in range(21)])
        states = np.stack([random_density_matrix(2**n, rng) for _ in range(21)])
        assert recover_unitary(states, frames).shape == states.shape
        frames[bad, data.draw(st.integers(0, n - 1))] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="unitary"):
            recover_unitary(states, frames)


class TestCommutationLemma:
    def test_dissipator_conjugation_commutes(self, rng):
        # clicking then decohering equals decohering then clicking for the
        # Pauli-pair dissipator; this is what makes recovery-at-the-end legal
        for _ in range(100):
            rho = random_density_matrix(2, rng)
            d = dissipator(SIGMA_X, rho) + dissipator(SIGMA_Y, rho)
            for p in (SIGMA_X, SIGMA_Y):
                conj = p @ rho @ p.conj().T
                d_conj = dissipator(SIGMA_X, conj) + dissipator(SIGMA_Y, conj)
                assert np.max(np.abs(d_conj - p @ d @ p.conj().T)) < 1e-12

    def test_two_qubit_embedded_version(self, rng):
        from qtraj.qcore import embed

        x0, y0 = embed(SIGMA_X, 0, 2), embed(SIGMA_Y, 0, 2)
        for labels in (("X", "I"), ("Y", "X")):
            p = tensor_product(_pauli(*labels))
            for _ in range(20):
                rho = random_density_matrix(4, rng)
                d = dissipator(x0, rho) + dissipator(y0, rho)
                conj = p @ rho @ p.conj().T
                d_conj = dissipator(x0, conj) + dissipator(y0, conj)
                assert np.max(np.abs(d_conj - p @ d @ p.conj().T)) < 1e-12


class TestLocalUnitaryFrame:
    def test_identity_round_trip(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.array_equal(recover_unitary(rho, _identity(2)), rho)

    def test_inverse_conjugation(self, rng):
        theta = 0.37
        u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA_X
        frame = _identity(2)
        frame[0] = u @ frame[0]
        rho = random_density_matrix(4, rng)
        f = tensor_product(frame)
        produced = f @ rho @ f.conj().T
        assert np.max(np.abs(recover_unitary(produced, frame) - rho)) < 1e-12

    def test_reunitarize_fixes_drift(self):
        frame = 1.001 * _identity(1)
        assert unitarity_defect(frame) > 1e-3
        assert unitarity_defect(unitary_part(frame)) < 1e-14

    def test_non_unitary_rejected(self, rng):
        frame = _identity(2)
        frame[1] = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="unitary"):
            recover_unitary(random_density_matrix(4, rng), frame)
