"""Trace the local correction implied by a measurement record and undo it.

A frame is an ``(..., n, 2, 2)`` array: one 2x2 unitary per qubit, the
frame's operator being their tensor product. Stacks of frames and of states
are conjugated in one batched call.

Each Pauli-type click multiplies a Pauli into its qubit's frame
(projectively -- conjugation is phase-blind, so phases are never stored).
``frame_from_events`` folds a record once, as XORs of (x, z) bit pairs, and
returns the frame after every prefix of it. Conjugating the final state by
the frame restores the initial state exactly for perfectly detected
protecting-jump records, and restores the slowed-decoherence mixed state on
average when clicks are missed.

Diffusive records accumulate an actual 2x2 unitary per qubit instead; undoing
it is conjugation by the inverse.
"""

import numpy as np

from .jumps import JumpEvent
from .qcore import PAULI_BITS, PAULI_BY_BITS, tensor_product


def frame_from_events(
    events: list[JumpEvent], n_qubits: int, include_undetected: bool = False
) -> np.ndarray:
    """The Pauli frames after every prefix of a click record, ``(len(events)+1, n, 2, 2)``.

    Row k folds the first k events; row 0 is the identity. The observer only
    has detected clicks; ``include_undetected`` exists for oracle checks
    against the true trajectory. Only Pauli-type labels ("x"/"y") are
    invertible local unitaries; canonical decay/pump clicks admit no frame
    recovery and are rejected.
    """
    bits = np.zeros((len(events) + 1, n_qubits, 2), dtype=np.uint8)
    for k, event in enumerate(events):
        if not (event.detected or include_undetected):
            continue
        if event.label not in ("x", "y"):
            raise ValueError(
                f"no frame recovery for {event.label!r} clicks (projective, non-unitary)"
            )
        bits[k + 1, event.qubit] = PAULI_BITS[event.label.upper()]
    np.bitwise_xor.accumulate(bits, axis=0, out=bits)
    return PAULI_BY_BITS[2 * bits[..., 0] + bits[..., 1]]


def _operator(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    p = tensor_product(frame)
    if rho.shape[-2:] != p.shape[-2:]:
        raise ValueError(f"frame dim {p.shape[-2:]} does not match state dim {rho.shape[-2:]}")
    return p


def apply_frame(rho: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """P rho P† with P the frame's tensor product (what the record did)."""
    p = _operator(rho, frame)
    return p @ rho @ p.conj().swapaxes(-1, -2)


def recover(rho_c: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Undo the frame: P† rho_c P. Inverse of apply_frame."""
    p = _operator(rho_c, frame)
    return p.conj().swapaxes(-1, -2) @ rho_c @ p


def unitary_part(matrices: np.ndarray) -> np.ndarray:
    """Polar projection of each matrix in a ``(..., k, k)`` stack onto U(k)."""
    w, _, vh = np.linalg.svd(matrices)
    return w @ vh


def unitarity_defect(frame: np.ndarray) -> float:
    """Largest entry of |F†F - 1| over every 2x2 of a frame stack."""
    gram = frame.conj().swapaxes(-1, -2) @ frame
    return float(np.max(np.abs(gram - np.eye(2)), initial=0.0))


def recover_unitary(rho_c: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Conjugate by the inverse accumulated unitary: F† rho_c F."""
    defect = unitarity_defect(frame)
    if defect > 1e-9:
        raise ValueError(f"frame is not unitary within 1e-9 (defect {defect:.3e})")
    return recover(rho_c, frame)
