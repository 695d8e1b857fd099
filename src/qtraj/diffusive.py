"""Diffusive (homodyne-like) stochastic master equation engine.

The conditioned state evolves as

    drho = sum_i gamma_i D[sigma_i] rho dt
         + sum_i sqrt(gamma_i) [ (sigma_i - <sigma_i>) rho dxi_i* + h.c. ]

with complex Wiener increments correlated within each qubit by one complex
symmetric matrix u, the same on every qubit (channel indices {-, +}):

    dxi_i dxi_j* = delta_ij dt,      dxi_i dxi_j = u_ij dt,     ||u||_2 <= 1.

The u = [[0, -1], [-1, 0]] choice makes the noise term a commutator with a
local stochastic Hamiltonian, so every trajectory evolves by local unitaries:
purity and entanglement are exactly preserved and the accumulated unitary can
be undone at the end. That exact path is ``step_protecting_unitary``; the
general engine handles any admissible u.

The general stepper adds the symmetric second-order noise correction to the
Euler-Maruyama update (a Milstein-type scheme; the omitted Levy-area terms
point along local-unitary directions for the protecting u and do not affect
entanglement). This is what makes per-trajectory concurrence deviations shrink
proportionally to dt; the plain first-order scheme only achieves sqrt(dt).

Measurement currents per channel:

    Y_i dt = sqrt(gamma) <sigma_i + sum_j u_ij sigma_j†> dt + dxi_i

For the protecting u the deterministic part cancels identically
(<sigma_- - sigma_-> = 0): the records are pure noise. The two real
photocurrent differences relate to the complex pair by the exact linear
bijection Y_- = I12 + i I34, Y_+ = -I12 + i I34.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .jumps import _trajectory_rng, check_protecting_rates
from .master import LindbladModel, channel_operators
from .qcore import InvariantViolation, step_grid, tensor_product, validate_density_matrix
from .recovery import LocalUnitaryFrame, apply_frame, unitary_part

PROTECTING_U = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)

# the stochastic scheme transiently produces eigenvalues of order -(gamma dt);
# this guard only catches genuine blow-ups
_EIG_GUARD = -0.05

_REUNITARIZE_EVERY = 1000


@dataclass(frozen=True)
class CurrentSample:
    """One qubit's measurement record over one step (units of sqrt(rate)).

    ``i12``/``i34`` are the real homodyne difference currents; the complex
    pair is recovered exactly via combine_currents whenever y_plus = -y_minus*
    (true for protecting-u records, where the currents are real).
    """

    y_minus: complex
    y_plus: complex
    i12: float
    i34: float


@dataclass
class DiffusiveRecord:
    final_state: np.ndarray
    seed: int
    frame: LocalUnitaryFrame | None = None
    samples: list[np.ndarray] | None = field(default=None, repr=False)
    sample_times: np.ndarray | None = None
    sample_frames: list[LocalUnitaryFrame] | None = field(default=None, repr=False)


def check_noise_correlation(u: np.ndarray) -> np.ndarray:
    """Validate symmetry and the two-norm bound; returns the array as complex."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"noise correlation must be 2x2 (channels -, +), got {u.shape}")
    sym = np.max(np.abs(u - u.T))
    if sym > 1e-12:
        raise ValueError(f"noise correlation must be symmetric, max|u - u^T| = {sym:.3e}")
    norm = np.linalg.norm(u, 2)
    if norm > 1.0 + 1e-12:
        raise ValueError(f"noise correlation two-norm {norm:.12g} exceeds 1")
    return u


def _real_covariance(u: np.ndarray) -> np.ndarray:
    """Covariance (unit dt) of (Re dxi_-, Im dxi_-, Re dxi_+, Im dxi_+)."""
    c = np.zeros((4, 4))
    for i in range(2):
        a, b = 2 * i, 2 * i + 1
        c[a, a] = 0.5 * (1.0 + u[i, i].real)
        c[b, b] = 0.5 * (1.0 - u[i, i].real)
        c[a, b] = c[b, a] = 0.5 * u[i, i].imag
    c[0, 2] = c[2, 0] = 0.5 * u[0, 1].real
    c[1, 3] = c[3, 1] = -0.5 * u[0, 1].real
    c[0, 3] = c[3, 0] = 0.5 * u[0, 1].imag
    c[1, 2] = c[2, 1] = 0.5 * u[0, 1].imag
    return c


def noise_factor(u: np.ndarray) -> np.ndarray:
    """Factor L with L L^T equal to the real covariance implied by u.

    Stacking real/imaginary parts of (dxi_-, dxi_+) as L @ (independent
    standard increments) reproduces dxi_i dxi_j* = delta_ij dt and
    dxi_i dxi_j = u_ij dt. The covariance is positive semidefinite exactly
    when ||u||_2 <= 1, which ``check_noise_correlation`` enforces.
    """
    w, v = np.linalg.eigh(_real_covariance(check_noise_correlation(u)))
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0)))


def check_perfect_detection(model: LindbladModel) -> None:
    """Both diffusive engines model perfect detection; raise ValueError otherwise."""
    if model.eta != 1.0:
        raise ValueError(
            f"the diffusive engines model perfect detection (eta = 1), got eta = {model.eta}; "
            "inefficiency curves come from the jump engine"
        )


class _SMEContext:
    """Precomputed channel operators and noise coefficients for one model + u."""

    def __init__(self, model: LindbladModel, u=None):
        check_perfect_detection(model)
        n = model.n_qubits
        self.dim = model.dim
        self.sig, cc = channel_operators(n)  # (2n, d, d)
        gamma = model.rates
        self.sqrtg = np.sqrt(gamma)
        self.cc_sum = np.einsum("c,cab->ab", gamma, cc)

        # one u for every qubit: the per-qubit noise block is shared
        self.u = check_noise_correlation(PROTECTING_U if u is None else u)
        l = noise_factor(self.u)
        block = np.stack([l[0] + 1j * l[1], l[2] + 1j * l[3]])
        # rank-deficient correlations leave exactly-zero factor columns
        block = block[:, np.abs(block).sum(axis=0) > 0.0]
        width = block.shape[1]
        self.n_noise = n * width
        self.c = np.zeros((2 * n, self.n_noise), dtype=complex)
        for alpha in range(n):
            self.c[2 * alpha : 2 * alpha + 2, alpha * width : (alpha + 1) * width] = block
        self.coef = self.sqrtg[:, None] * self.c  # sqrt(gamma_i) c_im
        # drift superoperator on row-major vec(rho): one matvec per step
        dim = self.dim
        lmat = np.zeros((dim * dim, dim * dim), dtype=complex)
        eye = np.eye(dim)
        for g, s, ss in zip(gamma, self.sig, cc):
            lmat += g * (
                np.kron(s, s.conj())
                - 0.5 * (np.kron(ss, eye) + np.kron(eye, ss.T))
            )
        self.drift_op = lmat


def sme_update(rho: np.ndarray, ctx: _SMEContext, dw: np.ndarray, dt: float) -> np.ndarray:
    """One conditioned step given the real noise increments dw ~ N(0, dt).

    Euler-Maruyama drift+noise plus the symmetric second-order noise term,
    then Hermitization and trace renormalization. The second-order sum
    (1/2) sum_ml (D_{b_l} b_m)(dw_m dw_l - delta_ml dt) is contracted without
    materializing the (channel, noise, d, d) tensor: with
    B_c = sum_l W_cl b_l it reduces to the Hermitian part of
    sum_c [sigma_c B_c - <sigma_c> B_c] - tr(sum_c sigma_c B_c) rho.
    """
    p = ctx.sig @ rho  # (2n, d, d): sigma_i rho
    e = p.diagonal(axis1=1, axis2=2).sum(axis=1)  # <sigma_i>
    a = p - e[:, None, None] * rho
    ah = a.conj().transpose(0, 2, 1)

    drift = (ctx.drift_op @ rho.ravel()).reshape(ctx.dim, ctx.dim)

    b = np.einsum("cm,cab->mab", ctx.coef.conj(), a, optimize=False)
    b += np.einsum("cm,cab->mab", ctx.coef, ah, optimize=False)

    w = np.outer(dw, dw)
    w.ravel()[:: ctx.n_noise + 1] -= dt
    wc = ctx.coef.conj() @ w  # (2n, M): sum_m conj(coef_im) w_ml
    bc = np.einsum("cl,lab->cab", wc, b, optimize=False)
    sig_bc = ctx.sig @ bc
    sum_sig_bc = sig_bc.sum(axis=0)
    x = sum_sig_bc - np.einsum("c,cab->ab", e, bc, optimize=False)
    x -= sum_sig_bc.trace() * rho

    new = rho + drift * dt + np.einsum("m,mab->ab", dw, b, optimize=False)
    new += 0.5 * (x + x.conj().T)
    new = 0.5 * (new + new.conj().T)
    return new / new.trace().real


def _current_means(sig: np.ndarray, sqrtg: np.ndarray, u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(n, 2) deterministic current parts sqrt(gamma_i) <sigma_i + sum_j u_ij sigma_j†>."""
    e = np.einsum("cab,ba->c", sig, rho).reshape(-1, 2)  # <sigma_->, <sigma_+> per qubit
    return sqrtg.reshape(-1, 2) * (e + e.conj() @ u.T)


def current_expectations(state: np.ndarray, model: LindbladModel, u, qubit: int) -> tuple[complex, complex]:
    """Deterministic parts sqrt(gamma) <sigma_i + sum_j u_ij sigma_j†> of both currents."""
    sig, _ = channel_operators(model.n_qubits)
    det = _current_means(sig, np.sqrt(model.rates), check_noise_correlation(u), state)[qubit]
    return complex(det[0]), complex(det[1])


def homodyne_currents(y_minus: complex, y_plus: complex) -> tuple[complex, complex]:
    """(I12, I34) from the complex pair; exact linear bijection."""
    return (y_minus - y_plus) / 2.0, -0.5j * (y_minus + y_plus)


def combine_currents(i12: complex, i34: complex) -> tuple[complex, complex]:
    """Inverse of homodyne_currents: Y_- = I12 + i I34, Y_+ = -I12 + i I34."""
    return i12 + 1j * i34, -i12 + 1j * i34


def _currents(ctx: _SMEContext, rho: np.ndarray, dxi: np.ndarray, dt: float) -> list[CurrentSample]:
    y = _current_means(ctx.sig, ctx.sqrtg, ctx.u, rho) + dxi.reshape(-1, 2) / dt
    out = []
    for ym, yp in y:
        i12, i34 = homodyne_currents(ym, yp)
        out.append(CurrentSample(complex(ym), complex(yp), float(i12.real), float(i34.real)))
    return out


def step_diffusive(
    state: np.ndarray,
    model: LindbladModel,
    u,
    rng: np.random.Generator,
    dt: float,
) -> tuple[np.ndarray, list[CurrentSample]]:
    """Advance one diffusive step and emit the per-qubit measurement currents."""
    ctx = _SMEContext(model, u)
    dw = rng.standard_normal(ctx.n_noise) * math.sqrt(dt)
    new = sme_update(state, ctx, dw, dt)
    dxi = ctx.c @ dw
    return new, _currents(ctx, state, dxi, dt)


def _guard(state: np.ndarray, where: str) -> None:
    herm = np.max(np.abs(state - state.conj().T))
    if herm > 1e-10 or not np.isfinite(state).all():
        raise InvariantViolation(f"{where}: state left its tolerance envelope")
    if np.linalg.eigvalsh(state)[0] < _EIG_GUARD:
        raise InvariantViolation(f"{where}: eigenvalue below {_EIG_GUARD}")


def run_diffusive_trajectory(
    model: LindbladModel,
    u,
    rho0: np.ndarray,
    dt: float,
    t_max: float,
    seed: int,
    sample_times=None,
) -> DiffusiveRecord:
    """Integrate one diffusive trajectory of the general-u engine."""
    n_steps, sample_steps = step_grid(dt, t_max, sample_times)
    ctx = _SMEContext(model, u)
    rng = _trajectory_rng(seed)
    sqdt = math.sqrt(dt)

    state = rho0.astype(complex).copy()
    samples: list[np.ndarray] = []
    wanted = set(sample_steps)
    if 0 in wanted:
        samples.append(state.copy())
    for step in range(n_steps):
        dw = rng.standard_normal(ctx.n_noise) * sqdt
        state = sme_update(state, ctx, dw, dt)
        if (step + 1) % 200 == 0:
            _guard(state, f"diffusive step {step + 1}")
        if step + 1 in wanted:
            samples.append(state.copy())
    _guard(state, "diffusive final state")
    return DiffusiveRecord(
        final_state=state,
        seed=seed,
        samples=samples if sample_times is not None else None,
        sample_times=np.asarray(sample_times, dtype=float) if sample_times is not None else None,
    )


def protecting_unitary(gamma, dw1, dw2) -> np.ndarray:
    """exp(-i H) for the local stochastic Hamiltonian of the protecting choice.

    H = sqrt(gamma/2) (dw2 sigma_x - dw1 sigma_y); the sign pairing matches the
    dxi_- = (dW1 + i dW2)/sqrt(2), dxi_+ = (-dW1 + i dW2)/sqrt(2) decomposition
    in the |0>=ground convention. Broadcasts over arrays of rates and
    increments: the result has shape (..., 2, 2).
    """
    half = np.sqrt(np.asarray(gamma, dtype=float) / 2.0)
    ax = half * dw2
    ay = -half * dw1
    theta = np.hypot(ax, ay)
    safe = np.where(theta > 0.0, theta, 1.0)
    nx, ny = ax / safe, ay / safe
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_t
    out[..., 1, 1] = cos_t
    out[..., 0, 1] = -1j * sin_t * (nx - 1j * ny)
    out[..., 1, 0] = -1j * sin_t * (nx + 1j * ny)
    return out


def step_protecting_unitary(
    state: np.ndarray,
    gamma,
    rng: np.random.Generator,
    dt: float,
    frame: LocalUnitaryFrame,
) -> tuple[np.ndarray, LocalUnitaryFrame]:
    """Exact-unitary step of the protecting diffusive unravelling.

    Each qubit is rotated by the closed-form 2x2 exponential of its stochastic
    Hamiltonian; purity and concurrence are exactly preserved. The frame
    accumulates the applied unitaries for end-of-run recovery.
    """
    n = frame.n_qubits
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim and gammas.shape != (n,):
        raise ValueError(f"need one rate per qubit, got {gammas.size} for {n}")
    dws = rng.standard_normal((n, 2)) * math.sqrt(dt)
    us = protecting_unitary(gammas, dws[:, 0], dws[:, 1])
    full = tensor_product(us)
    new = full @ state @ full.conj().T
    for a in range(n):
        frame.left_multiply(a, us[a])
    return new, frame


def run_protecting_unitary_trajectory(
    model: LindbladModel,
    rho0: np.ndarray,
    dt: float,
    t_max: float,
    seed: int,
    sample_times=None,
) -> DiffusiveRecord:
    """Integrate one trajectory on the exact-unitary protecting path.

    Requires balanced, strictly positive rates (the stochastic-Hamiltonian
    mapping only exists there). Snapshots include frame copies so states at
    sample times can be recovered.
    """
    check_protecting_rates(model)
    check_perfect_detection(model)
    n = model.n_qubits
    n_steps, sample_steps = step_grid(dt, t_max, sample_times)
    rng = _trajectory_rng(seed)
    dws = rng.standard_normal((n_steps, n, 2)) * math.sqrt(dt)

    locals_u = protecting_unitary(np.asarray(model.gamma_minus), dws[..., 0], dws[..., 1])

    # every step is local, so rho(t) = F(t) rho0 F(t)^dagger with F the tensor
    # product of the per-qubit frames: only the (n, 2, 2) frames are stepped,
    # and states are formed at the sample steps alone
    frames = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    sample_frames: list[LocalUnitaryFrame] = []
    wanted = set(sample_steps)
    if 0 in wanted:
        sample_frames.append(LocalUnitaryFrame(frames))
    for step in range(n_steps):
        frames = locals_u[step] @ frames
        if (step + 1) % _REUNITARIZE_EVERY == 0:
            frames = unitary_part(frames)
        if step + 1 in wanted:
            sample_frames.append(LocalUnitaryFrame(frames))
    frame = LocalUnitaryFrame(unitary_part(frames))
    samples = [apply_frame(rho0, fr) for fr in sample_frames]
    state = apply_frame(rho0, frame)
    validate_density_matrix(state, context="protecting-unitary final state")
    return DiffusiveRecord(
        final_state=state,
        seed=seed,
        frame=frame,
        samples=samples if sample_times is not None else None,
        sample_times=np.asarray(sample_times, dtype=float) if sample_times is not None else None,
        sample_frames=sample_frames if sample_times is not None else None,
    )
