"""Trace the local correction implied by a measurement record and undo it.

Each Pauli-type click multiplies a per-qubit Pauli label into the frame
(projectively -- conjugation is phase-blind, so phases are never stored).
Conjugating the final state by the frame's tensor product restores the
initial state exactly for perfectly detected protecting-jump records, and
restores the slowed-decoherence mixed state on average when clicks are missed.

Diffusive records accumulate an actual 2x2 unitary per qubit instead; undoing
it is conjugation by the inverse.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jumps import JumpEvent
from .qcore import pauli_matrix, pauli_multiply, tensor_product

_FRAME_LABELS = {"x": "X", "y": "Y"}


@dataclass(frozen=True)
class PauliFrame:
    """One Pauli label per qubit; updating twice with a label cancels."""

    labels: tuple[str, ...]

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliFrame":
        return cls(("I",) * n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def as_matrix(self) -> np.ndarray:
        """The frame's tensor product; read-only and shared between calls."""
        return _pauli_tensor(self.labels)


# keyed on the label tuple, so an n-qubit run fills at most 4**n entries; the
# bound covers every frame of up to four qubits
@lru_cache(maxsize=4**4)
def _pauli_tensor(labels: tuple[str, ...]) -> np.ndarray:
    out = tensor_product([pauli_matrix(label) for label in labels])
    out.flags.writeable = False
    return out


def update_frame(frame: PauliFrame, event: JumpEvent) -> PauliFrame:
    """Fold one protecting-jump click into the frame.

    Only Pauli-type labels ("x"/"y") are invertible local unitaries; canonical
    decay/pump clicks admit no frame recovery and are rejected.
    """
    if event.label not in _FRAME_LABELS:
        raise ValueError(
            f"no frame recovery for {event.label!r} clicks (projective, non-unitary)"
        )
    labels = list(frame.labels)
    labels[event.qubit] = pauli_multiply(_FRAME_LABELS[event.label], labels[event.qubit])
    return PauliFrame(tuple(labels))


def frame_from_events(
    events: list[JumpEvent],
    n_qubits: int,
    include_undetected: bool = False,
    up_to_time: float | None = None,
) -> PauliFrame:
    """Accumulate the frame of a click record.

    The observer only has detected clicks; ``include_undetected`` exists for
    oracle checks against the true trajectory. ``up_to_time`` restricts to
    clicks at or before that time.
    """
    frame = PauliFrame.identity(n_qubits)
    for event in events:
        if up_to_time is not None and event.time > up_to_time + 1e-12:
            continue
        if not (event.detected or include_undetected):
            continue
        frame = update_frame(frame, event)
    return frame


def apply_frame(rho: np.ndarray, frame: "PauliFrame | LocalUnitaryFrame") -> np.ndarray:
    """P rho P† with P the frame's tensor product (what the record did)."""
    p = frame.as_matrix()
    _check_dim(rho, p)
    return p @ rho @ p.conj().T


def recover(rho_c: np.ndarray, frame: "PauliFrame | LocalUnitaryFrame") -> np.ndarray:
    """Undo the frame: P† rho_c P. Inverse of apply_frame."""
    p = frame.as_matrix()
    _check_dim(rho_c, p)
    return p.conj().T @ rho_c @ p


def _check_dim(rho: np.ndarray, p: np.ndarray) -> None:
    if rho.shape != p.shape:
        raise ValueError(f"frame dim {p.shape} does not match state dim {rho.shape}")


class LocalUnitaryFrame:
    """Accumulated per-qubit 2x2 unitaries from a diffusive record."""

    def __init__(self, matrices: list[np.ndarray]):
        self.matrices = [np.asarray(m, dtype=complex).copy() for m in matrices]

    @classmethod
    def identity(cls, n_qubits: int) -> "LocalUnitaryFrame":
        return cls([np.eye(2, dtype=complex) for _ in range(n_qubits)])

    @property
    def n_qubits(self) -> int:
        return len(self.matrices)

    def copy(self) -> "LocalUnitaryFrame":
        return LocalUnitaryFrame(self.matrices)

    def left_multiply(self, qubit: int, u: np.ndarray) -> None:
        """Compose a newly applied unitary into the frame (acts after the rest)."""
        self.matrices[qubit] = u @ self.matrices[qubit]

    def reunitarize(self) -> None:
        """Polar projection onto the unitary group; bounds drift of long products."""
        self.matrices = list(unitary_part(np.stack(self.matrices)))

    def unitarity_defect(self) -> float:
        return max(
            float(np.max(np.abs(m.conj().T @ m - np.eye(2)))) for m in self.matrices
        )

    def as_matrix(self) -> np.ndarray:
        return tensor_product(self.matrices)


def unitary_part(matrices: np.ndarray) -> np.ndarray:
    """Polar projection of each matrix in a ``(..., k, k)`` stack onto U(k)."""
    w, _, vh = np.linalg.svd(matrices)
    return w @ vh


def recover_unitary(
    rho_c: np.ndarray, frame: LocalUnitaryFrame, tol: float = 1e-9
) -> np.ndarray:
    """Conjugate by the inverse accumulated unitary: F† rho_c F."""
    defect = frame.unitarity_defect()
    if defect > tol:
        raise ValueError(f"frame is not unitary within {tol:.1e} (defect {defect:.3e})")
    return recover(rho_c, frame)
