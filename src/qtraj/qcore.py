"""Dense complex operator algebra for small n-qubit systems.

Everything here works on plain ``numpy`` arrays: operators are dense
``(2**n, 2**n)`` complex matrices, states are Hermitian unit-trace density
matrices in the computational basis |0⟩=ground, |1⟩=excited (so ``SIGMA_MINUS``
de-excites, |1⟩ → |0⟩). Systems of interest are 2-4 qubits, so no sparsity.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

PAULI_LABELS = ("I", "X", "Y", "Z")
PAULI_MATRICES = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# A Pauli modulo phase as its (x, z) bit pair; the product of two Paulis is,
# up to a phase that conjugation kills, the XOR of their pairs (Aaronson &
# Gottesman, PRA 70, 052328 (2004)). PAULI_BY_BITS is indexed by 2x + z.
PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
PAULI_BY_BITS = np.stack([I2, SIGMA_Z, SIGMA_X, SIGMA_Y])


class InvariantViolation(RuntimeError):
    """A state or operator left its numerical tolerance envelope."""


def embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Tensor-embed a single-qubit operator at slot ``qubit`` (slot 0 leftmost)."""
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit index {qubit} out of range for {n_qubits} qubits")
    return tensor_product([op if slot == qubit else I2 for slot in range(n_qubits)])


def tensor_product(factors) -> np.ndarray:
    """Kronecker product over axis -3 of a ``(..., n, k, k)`` stack (slot 0 leftmost).

    The same elementwise products as a chain of ``np.kron`` calls from a 1x1
    identity, without its per-call overhead; leading axes are a batch.
    """
    factors = np.asarray(factors, dtype=complex)
    out = np.ones(factors.shape[:-3] + (1, 1), dtype=complex)
    for f in np.moveaxis(factors, -3, 0):
        d, k = out.shape[-1], f.shape[-1]
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (d * k, d * k))
    return out


def step_grid(dt: float, t_max: float, sample_times=None) -> tuple[int, list[int]]:
    """Step count of the grid 0, dt, ..., t_max and the step index of each sample time.

    Raises ValueError unless 0 < dt <= t_max, t_max is finite and on the
    grid, and the sample times are finite, on the grid and strictly
    increasing. Messages start with the offending field name.
    """
    if not dt > 0:
        raise ValueError(f"dt: must be > 0, got {dt}")
    if not dt <= t_max < np.inf:
        raise ValueError(f"t_max: must be finite and >= dt, got {t_max}")
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > 1e-9 + 1e-9 * t_max:
        raise ValueError(f"t_max: {t_max} is not on the step grid (dt={dt})")
    if sample_times is None:
        return n_steps, []
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    k = np.round(times / dt)
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite times fail the test
        on_grid = (0 <= k) & (k <= n_steps) & (np.abs(k * dt - times) <= 1e-9 + 1e-9 * np.abs(times))
    if not on_grid.all():
        bad = times[~on_grid][0]
        raise ValueError(f"sample_times: {bad} is not on the step grid (dt={dt}, t_max={t_max})")
    if np.any(np.diff(k) <= 0):
        raise ValueError("sample_times: must be strictly increasing, without duplicates")
    return n_steps, k.astype(int).tolist()


def dissipator(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator c rho c† - (1/2){c†c, rho}. Hermitian and traceless."""
    if c.shape != rho.shape:
        raise ValueError(f"dimension mismatch: operator {c.shape} vs state {rho.shape}")
    cc = c.conj().T @ c
    return c @ rho @ c.conj().T - 0.5 * (cc @ rho + rho @ cc)


def hermitian_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return np.linalg.eigvalsh(m)[::-1]


def pauli_matrix(label: str) -> np.ndarray:
    try:
        return PAULI_MATRICES[label]
    except KeyError:
        raise ValueError(f"not a Pauli label: {label!r}") from None


def computational_ket(bits: str) -> np.ndarray:
    """Basis vector for a bit string, e.g. ``'01'`` -> |01>."""
    n = len(bits)
    ket = np.zeros(2**n, dtype=complex)
    ket[int(bits, 2)] = 1.0
    return ket


def bell_state() -> np.ndarray:
    """The maximally entangled pair (|01> + |10>)/sqrt(2)."""
    return (computational_ket("01") + computational_ket("10")) / np.sqrt(2.0)


def density(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a (normalized) ket."""
    return np.outer(psi, psi.conj())


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-9,
    context: str = "state",
) -> None:
    """Check Hermiticity, unit trace and positivity; raise InvariantViolation."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvariantViolation(f"{context}: not a square matrix, shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvariantViolation(f"{context}: non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise InvariantViolation(f"{context}: Hermiticity violated by {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > trace_tol:
        raise InvariantViolation(f"{context}: trace {tr:.15g} deviates from 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < eig_floor:
        raise InvariantViolation(f"{context}: negative eigenvalue {lo:.3e}")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart construction); exactly Hermitian."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from QR of a complex Gaussian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    # fix the phase ambiguity of QR so the result is deterministic
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
