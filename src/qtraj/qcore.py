"""Dense complex operator algebra for small n-qubit systems.

Everything here works on plain ``numpy`` arrays: operators are dense
``(2**n, 2**n)`` complex matrices, states are Hermitian unit-trace density
matrices in the computational basis |0⟩=ground, |1⟩=excited (so ``SIGMA_MINUS``
de-excites, |1⟩ → |0⟩). Systems of interest are 2-4 qubits, so no sparsity.
"""

import math
import numbers
import sys
from functools import lru_cache
from itertools import product

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

# one trajectory draws every step's random numbers at once, 8 bytes each, so a
# grid of 10**8 steps already takes 0.8 GB per draw
MAX_STEPS = 10**8


class InvariantViolation(RuntimeError):
    """A state or operator left its numerical tolerance envelope."""


class FieldErrors(ValueError):
    """The one error list of every configuration check: "<field>: <reason>" entries.

    Each field is named once, by its first entry; an entry's field is its text
    before the first ": ", all of it without one. Shown joined with "; ".
    """

    def __init__(self, *entries: str):
        super().__init__()
        self.entries, self._named = [], set()
        self.add(*entries)

    def add(self, *entries: str) -> None:
        for entry in entries:
            field = entry.split(": ", 1)[0]
            if field not in self._named:
                self._named.add(field)
                self.entries.append(entry)

    def check(self, fn, *args, field: str | None = None, **kwargs):
        """``fn(*args, **kwargs)``, or None once its failure is added: a FieldErrors's own
        entries, else "<field>: <message>" (the message alone without ``field``). A
        failed check names ``field`` either way, so that a later entry for it is dropped.
        """
        try:
            return fn(*args, **kwargs)
        except FieldErrors as exc:
            self.add(*exc.entries)
        except ValueError as exc:
            self.add(f"{field}: {exc}" if field else str(exc))
        self._named.add(field)
        return None

    def raise_any(self) -> None:
        if self.entries:
            raise self

    def __str__(self) -> str:
        return "; ".join(self.entries)


def embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Tensor-embed a single-qubit operator at slot ``qubit`` (slot 0 leftmost)."""
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    check_qubit(qubit, n_qubits)
    return tensor_product([op if slot == qubit else I2 for slot in range(n_qubits)])


def check_qubit(qubit: int, n_qubits: int) -> None:
    """Raise IndexError unless 0 <= qubit < n_qubits (no index counts from the end)."""
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit index {qubit} out of range for {n_qubits} qubits")


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


def number(field: str, value, integer: bool = False, low=None, high=None, above=None):
    """``value`` if it is a number for ``field`` within its bounds, else FieldErrors.

    The one rule for every configuration or helper number: strings, None,
    bools, complex numbers and arrays are not numbers, whatever float() would
    make of them; Python and NumPy scalars are. A real number must fit a float
    and be finite. The bounds are ``low <= value <= high`` and ``value >
    above``, each where given. A value of the wrong type fails with "<field>:
    must be a real number, got <value>", or "an integer >= <low>"; one out of
    range with "must be finite and <bound>", or "an integer <bound>", where
    <bound> is ">= low", "> above", "<= high", "in [low, high]" or "in
    (above, high]".
    """
    kind = numbers.Integral if integer else numbers.Real
    fits = integer or not isinstance(value, numbers.Integral) or abs(value) <= sys.float_info.max
    if isinstance(value, kind) and not isinstance(value, bool) and fits:
        if (
            (integer or math.isfinite(value))
            and (low is None or value >= low)
            and (above is None or value > above)
            and (high is None or value <= high)
        ):
            return value
        if high is None:
            bound = f">= {low}" if low is not None else f"> {above}" if above is not None else ""
        elif low is None and above is None:
            bound = f"<= {high}"
        else:
            bound = f"in [{low}, {high}]" if low is not None else f"in ({above}, {high}]"
        what = f"an integer {bound}" if integer else "finite" + (f" and {bound}" if bound else "")
    elif integer:
        what = "an integer" + ("" if low is None else f" >= {low}")
    else:
        what = "a real number" + ("" if fits else " within the float range")
    shown = value if isinstance(value, numbers.Number) else repr(value)
    raise FieldErrors(f"{field}: must be {what}, got {shown}")


def convert_or_text(convert, text):
    """``convert(text)``, or ``text`` itself on a ValueError: outside text that does
    not convert reaches the check that owns its field, which names it as text."""
    try:
        return convert(text)
    except ValueError:
        return text


def step_grid(dt: float, t_max: float, sample_times=None) -> tuple[int, list[int]]:
    """Step count of the grid 0, dt, ..., t_max and the step index of each sample time.

    Raises one FieldErrors unless 0 < dt <= t_max are finite real numbers
    with at most ``MAX_STEPS`` steps between them and the sample times, if
    given, are real numbers; then a ValueError unless t_max is on the grid and
    the sample times are non-empty, finite, on it and strictly increasing.
    Every trajectory of an ensemble asks for the same grid, so grids are
    memoized by value; each call gets its own list of steps.
    """
    errors = FieldErrors()
    dt_ok = errors.check(number, "dt", dt, above=0) is not None
    # against a bad dt, t_max is judged on its own
    errors.check(number, "t_max", t_max, **({"low": dt} if dt_ok else {"above": 0}))
    if not errors.entries and t_max / dt > MAX_STEPS + 0.5:
        errors.add(f"dt: t_max / dt = {t_max / dt:.3g} steps, more than MAX_STEPS = {MAX_STEPS:.0e}")
    if sample_times is not None:
        try:
            times = np.atleast_1d(np.asarray(sample_times))
            real = times.ndim == 1 and times.dtype.kind in "biuf"  # no string, complex or object
        except ValueError:  # a ragged nesting
            real = False
        if not real:
            errors.add(
                f"sample_times: must be a real number or a 1-D sequence of them, got {sample_times!r}"
            )
    errors.raise_any()
    if sample_times is not None:
        sample_times = tuple(times.astype(float, copy=False).tolist())
    n_steps, steps = _step_grid(float(dt), float(t_max), sample_times)
    return n_steps, list(steps)


@lru_cache(maxsize=32)
def _step_grid(dt: float, t_max: float, sample_times) -> tuple[int, tuple[int, ...]]:
    n_steps = int(round(t_max / dt))
    if abs(n_steps * dt - t_max) > 1e-9 + 1e-9 * t_max:
        raise ValueError(f"t_max: {t_max} is not on the step grid (dt={dt})")
    if sample_times is None:
        return n_steps, ()
    if not sample_times:
        raise ValueError("sample_times: must not be empty (omit them for the default times)")
    times = np.array(sample_times)
    k = np.round(times / dt)
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite times fail the test
        on_grid = (0 <= k) & (k <= n_steps) & (np.abs(k * dt - times) <= 1e-9 + 1e-9 * np.abs(times))
    if not on_grid.all():
        bad = times[~on_grid][0]
        raise ValueError(f"sample_times: {bad} is not on the step grid (dt={dt}, t_max={t_max})")
    if np.any(np.diff(k) <= 0):
        raise ValueError("sample_times: must be strictly increasing, without duplicates")
    return n_steps, tuple(k.astype(int).tolist())


@lru_cache(maxsize=8)
def pauli_strings(n_qubits: int) -> np.ndarray:
    """The 4**n n-qubit Pauli strings P_k as one read-only (4**n, 2**n, 2**n) stack.

    Slot 0 is leftmost and each slot runs over I, X, Y, Z, so P_0 is the
    identity. The strings are Hermitian and tr(P_j P_k) = 2**n delta_jk.
    """
    paulis = np.stack([PAULI_MATRICES[label] for label in PAULI_LABELS])
    out = tensor_product(paulis[list(product(range(4), repeat=n_qubits))])
    out.flags.writeable = False
    return out


def _pauli_rows(n_qubits: int) -> np.ndarray:
    # row k: P_k flattened as interleaved (re, im) pairs, so a real dot with the
    # same view of a matrix X is Re tr(P_k X) (P_k is Hermitian)
    d2 = 4**n_qubits
    return pauli_strings(n_qubits).reshape(d2, d2).view(np.float64)


def pauli_coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates r_k = tr(P_k rho) of Hermitian matrices; r_0 = tr rho.

    Maps a ``(..., d, d)`` stack to ``(..., d**2)``. For any matrix X the
    result is Re tr(P_k X).
    """
    d = rho.shape[-1]
    flat = np.ascontiguousarray(rho, dtype=complex).reshape(-1, d * d).view(np.float64)
    return (flat @ _pauli_rows(d.bit_length() - 1).T).reshape(rho.shape[:-2] + (d * d,))


def from_pauli_coordinates(r: np.ndarray) -> np.ndarray:
    """The Hermitian matrices sum_k r_k P_k / d of real coordinates; ``(..., d**2)`` to ``(..., d, d)``."""
    n = (r.shape[-1].bit_length() - 1) // 2
    d = 2**n
    out = (r @ _pauli_rows(n)) / d
    return out.view(complex).reshape(r.shape[:-1] + (d, d))


def dissipator(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator c rho c† - (1/2){c†c, rho}. Hermitian and traceless."""
    if c.shape != rho.shape:
        raise ValueError(f"dimension mismatch: operator {c.shape} vs state {rho.shape}")
    cc = c.conj().T @ c
    return c @ rho @ c.conj().T - 0.5 * (cc @ rho + rho @ cc)


def hermitian_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each in a ``(..., d, d)`` stack, sorted descending."""
    dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    if not dev <= tol:  # NaN fails too
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return np.linalg.eigvalsh(m)[..., ::-1]


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
