"""Pauli frames, local-unitary frames and state restoration."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtraj
from qtraj.jumps import JumpEvent
from qtraj.qcore import (
    SIGMA_X,
    SIGMA_Y,
    dissipator,
    pauli_matrix,
    random_density_matrix,
)
from qtraj.recovery import (
    LocalUnitaryFrame,
    PauliFrame,
    apply_frame,
    frame_from_events,
    recover,
    recover_unitary,
    update_frame,
)


def _event(label, qubit=0, detected=True, time=0.0):
    return JumpEvent(time=time, qubit=qubit, label=label, detected=detected)


class TestPauliFrame:
    def test_single_x_click(self):
        frame = update_frame(PauliFrame.identity(2), _event("x"))
        assert frame.labels == ("X", "I")

    def test_double_click_cancels(self):
        frame = PauliFrame.identity(2)
        frame = update_frame(frame, _event("x", qubit=1))
        frame = update_frame(frame, _event("x", qubit=1))
        assert frame.labels == ("I", "I")

    def test_x_then_y_gives_z(self):
        frame = PauliFrame.identity(1)
        frame = update_frame(frame, _event("x"))
        frame = update_frame(frame, _event("y"))
        assert frame.labels == ("Z",)
        # cross-check projectively against 2x2 matrices
        prod = SIGMA_Y @ SIGMA_X
        z = pauli_matrix("Z")
        phase = prod[0, 0] / z[0, 0]
        assert np.allclose(prod, phase * z, atol=1e-15)

    def test_canonical_labels_rejected(self):
        with pytest.raises(ValueError, match="no frame recovery"):
            update_frame(PauliFrame.identity(1), _event("minus"))

    def test_frame_from_events_filters(self):
        events = [
            _event("x", qubit=0, time=0.1),
            _event("y", qubit=1, time=0.2, detected=False),
            _event("y", qubit=0, time=0.5),
        ]
        assert frame_from_events(events, 2).labels == ("Z", "I")
        assert frame_from_events(events, 2, include_undetected=True).labels == ("Z", "Y")
        assert frame_from_events(events, 2, up_to_time=0.3).labels == ("X", "I")


    def test_tensor_cached_and_read_only(self):
        a = PauliFrame(("X", "Y")).as_matrix()
        assert a is PauliFrame(("X", "Y")).as_matrix()
        assert not a.flags.writeable
        assert np.array_equal(a, np.kron(SIGMA_X, SIGMA_Y))

    def test_tensor_cache_empty_at_import(self):
        code = "import qtraj.recovery as r; print(r._pauli_tensor.cache_info().currsize)"
        src = str(Path(qtraj.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestRecover:
    def test_identity_frame_no_op(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.array_equal(recover(rho, PauliFrame.identity(2)), rho)

    def test_round_trip(self, rng):
        for labels in (("X", "Y"), ("Z", "I"), ("Y", "Y")):
            frame = PauliFrame(labels)
            rho = random_density_matrix(4, rng)
            back = recover(apply_frame(rho, frame), frame)
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            recover(random_density_matrix(2, rng), PauliFrame.identity(2))


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
            p = PauliFrame(labels).as_matrix()
            for _ in range(20):
                rho = random_density_matrix(4, rng)
                d = dissipator(x0, rho) + dissipator(y0, rho)
                conj = p @ rho @ p.conj().T
                d_conj = dissipator(x0, conj) + dissipator(y0, conj)
                assert np.max(np.abs(d_conj - p @ d @ p.conj().T)) < 1e-12


class TestLocalUnitaryFrame:
    def test_identity_round_trip(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.array_equal(recover_unitary(rho, LocalUnitaryFrame.identity(2)), rho)

    def test_inverse_conjugation(self, rng):
        theta = 0.37
        u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA_X
        frame = LocalUnitaryFrame.identity(2)
        frame.left_multiply(0, u)
        rho = random_density_matrix(4, rng)
        produced = frame.as_matrix() @ rho @ frame.as_matrix().conj().T
        assert np.max(np.abs(recover_unitary(produced, frame) - rho)) < 1e-12

    def test_reunitarize_fixes_drift(self):
        frame = LocalUnitaryFrame.identity(1)
        frame.matrices[0] = 1.001 * np.eye(2, dtype=complex)
        assert frame.unitarity_defect() > 1e-3
        frame.reunitarize()
        assert frame.unitarity_defect() < 1e-14

    def test_non_unitary_rejected(self, rng):
        frame = LocalUnitaryFrame.identity(2)
        frame.matrices[1] = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="unitary"):
            recover_unitary(random_density_matrix(4, rng), frame)
