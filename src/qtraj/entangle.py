"""Entanglement and state-comparison measures.

Concurrence follows Wootters' two-qubit construction: the spectrum of
rho (sy ⊗ sy) rho* (sy ⊗ sy), with the conjugate taken elementwise in the
computational basis (the basis sy ⊗ sy is written in -- any other convention
breaks the measure).
"""

import numpy as np

from .qcore import SIGMA_Y, hermitian_eigenvalues, tensor_product

_YY = tensor_product([SIGMA_Y, SIGMA_Y])

# spin-flipped eigenvalue noise below this is numerical, clamp before sqrt
# (the product is PSD analytically but not numerically; for pure states the
# three zero eigenvalues come back as +-3e-16 and would cost sqrt(eps) ~ 1e-8
# of concurrence each if kept; genuine eigenvalues on the decay curves stay
# above 1e-12, an order of magnitude clear of this threshold)
_EIG_CLAMP = 1e-13


def _spin_flip_roots(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the spin-flipped spectrum, per 4x4 in the stack."""
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence is defined for 2 qubits (4x4), got {rho.shape}")
    r = rho @ _YY @ rho.conj() @ _YY
    lam = np.real(np.linalg.eigvals(r))
    lam[np.abs(lam) < _EIG_CLAMP] = 0.0
    lam = np.sort(lam, axis=-1)[..., ::-1]
    return np.sqrt(np.maximum(lam, 0.0))


def _difference(rho: np.ndarray) -> np.ndarray:
    s = _spin_flip_roots(rho)
    return s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]


def _per_state(c: np.ndarray):
    return float(c) if np.ndim(c) == 0 else c


def concurrence(rho: np.ndarray):
    """Wootters concurrence C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)).

    ``rho`` is one 4x4 state, giving a float, or a ``(..., 4, 4)`` stack,
    giving an array of the leading shape equal elementwise to the one-state
    calls.
    """
    c = _difference(rho)
    return _per_state(np.where(c > 0.0, c, 0.0))


def concurrence_signed(rho: np.ndarray):
    """Concurrence without the clamp at 0; useful to locate zero crossings."""
    return _per_state(_difference(rho))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return 0.5 * float(np.sum(np.abs(hermitian_eigenvalues(rho - sigma, tol=1e-8))))


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference ket."""
    if rho.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: {rho.shape} vs ket of length {psi.shape[0]}")
    return float(np.real(np.vdot(psi, rho @ psi)))
