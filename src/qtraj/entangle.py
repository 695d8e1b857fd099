"""Entanglement and state-comparison measures.

Two-qubit concurrence has two forms here. ``concurrence`` is Wootters' mixed-state
construction (PRL 80, 2245 (1998)): the spectrum of rho (sy ⊗ sy) rho* (sy ⊗ sy),
with the conjugate taken elementwise in the computational basis (the basis
sy ⊗ sy is written in -- any other convention breaks the measure).
``pure_concurrence`` is the closed form for a pure state rho = |psi><psi|,
C = |psi^T (sy ⊗ sy) psi| = 2 |psi_00 psi_11 - psi_01 psi_10| (Hill and
Wootters, PRL 78, 5022 (1997)), with no eigenproblem; it is valid only on
pure states and does not check that they are.

The runner takes the pure form for the per-trajectory concurrences of a run
whose states stay pure: an initial ket or named state on the canonical or
protecting jumps or the exact protecting unitary, each sample passing a
purity check first. Everything else takes Wootters' form: the general-u SME
(its states are only nearly pure), an initial density matrix, the
recovered-then-averaged state and its chunk-blocked error bar, and the
master-only series.
"""

import numpy as np

from .qcore import SIGMA_Y, hermitian_eigenvalues, tensor_product

_YY = tensor_product([SIGMA_Y, SIGMA_Y])
_ROW_STARTS = 4 * np.arange(4)

# spin-flipped eigenvalue noise below this is numerical, clamp before sqrt
# (the product is PSD analytically but not numerically; for pure states the
# three zero eigenvalues come back as +-3e-16 and would cost sqrt(eps) ~ 1e-8
# of concurrence each if kept; genuine eigenvalues on the decay curves stay
# above 1e-12, an order of magnitude clear of this threshold)
_EIG_CLAMP = 1e-13


def _check_pair(rho: np.ndarray) -> None:
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence is defined for 2 qubits (4x4), got {rho.shape}")


def _spin_flip_roots(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the spin-flipped spectrum, per 4x4 in the stack."""
    _check_pair(rho)
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


def pure_concurrence(rho: np.ndarray):
    """Concurrence 2|psi_00 psi_11 - psi_01 psi_10| of a pure rho = |psi><psi|.

    psi is read, up to a phase, from the column k of rho with the largest
    diagonal entry, rho e_k = psi psi_k*; the phase cancels in the modulus
    and |psi_k|^2 = rho_kk >= 1/4 is divided out, so no entry near zero is
    divided by. Takes one 4x4 state, giving a float, or a ``(..., 4, 4)``
    stack, like ``concurrence``; on a mixed state the result is meaningless.
    """
    _check_pair(rho)
    flat = rho.reshape(-1, 16)
    diag = flat[:, ::5].real  # rho_jj sits at 5 j of the row-major flattening
    rows = np.arange(len(flat))[:, None]
    k = diag.argmax(axis=-1)[:, None]
    col = flat[rows, _ROW_STARTS + k]  # column k: entries 4 i + k
    c = 2.0 * np.abs(col[:, 0] * col[:, 3] - col[:, 1] * col[:, 2]) / diag[rows, k][:, 0]
    return _per_state(c.reshape(rho.shape[:-2]))


def concurrence_signed(rho: np.ndarray):
    """Concurrence without the clamp at 0; useful to locate zero crossings."""
    return _per_state(_difference(rho))


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Half the trace norm of rho - sigma: a float per pair, or per pair of two ``(..., d, d)`` stacks."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return _per_state(0.5 * np.sum(np.abs(hermitian_eigenvalues(rho - sigma, tol=1e-8)), axis=-1))


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference ket."""
    if rho.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: {rho.shape} vs ket of length {psi.shape[0]}")
    return float(np.real(np.vdot(psi, rho @ psi)))
