"""Diffusive (homodyne-like) stochastic master equation engine.

The conditioned state evolves as

    drho = sum_i gamma_i D[sigma_i] rho dt
         + sum_i sqrt(gamma_i) [ (sigma_i - <sigma_i>) rho dxi_i* + h.c. ]

with complex Wiener increments correlated within each qubit by one complex
symmetric matrix u, the same on every qubit (channel indices {-, +}):

    dxi_i dxi_j* = delta_ij dt,      dxi_i dxi_j = u_ij dt,     ||u||_2 <= 1.

Splitting dxi = C dw into independent real increments dw_m ~ N(0, dt)
(C C† = 1, C Cᵀ = u) makes this homodyne detection of the measured operators
L_m = sum_i sqrt(gamma_i) conj(C_im) sigma_i, with sum_m D[L_m] = sum_i gamma_i D[sigma_i]:

    drho = sum_m D[L_m] rho dt + sum_m (L_m rho + rho L_m† - <L_m + L_m†> rho) dw_m

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

The measurement currents per channel are the channel image
Y = C (<L + L†> + dw/dt) of the real records:

    Y_i dt = [sqrt(gamma_i) <sigma_i> + sum_j u_ij sqrt(gamma_j) <sigma_j†>] dt + dxi_i

For the protecting u at balanced rates the deterministic part cancels
identically (sqrt(gamma) <sigma_- - sigma_+†> = 0): the records are pure
noise. The two real photocurrent differences relate to the complex pair by
the exact linear bijection Y_- = I12 + i I34, Y_+ = -I12 + i I34.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jumps import TrajectoryRecord, _trajectory_rng, check_protecting_rates
from .master import LindbladModel, channel_operators
from .qcore import step_grid, tensor_product, validate_density_matrix
from .recovery import apply_frame, unitary_part

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
    """The measured operators of one model + u, built once.

    L_m = sum_c sqrt(gamma_c) conj(C_cm) sigma_c, with C the noise factor
    (dxi = C dw). C C† = 1 and C Cᵀ = u, so sum_m D[L_m] = sum_c gamma_c D[sigma_c].
    """

    def __init__(self, model: LindbladModel, u=None):
        sig, cc = channel_operators(model.n_qubits)  # (2n, d, d)
        self.cc_sum = np.einsum("c,cab->ab", model.rates, cc)

        # one u for every qubit: the per-qubit noise block is shared
        l = noise_factor(PROTECTING_U if u is None else u)
        block = np.stack([l[0] + 1j * l[1], l[2] + 1j * l[3]])
        # rank-deficient correlations leave exactly-zero factor columns
        block = block[:, np.abs(block).sum(axis=0) > 0.0]
        self.c = np.kron(np.eye(model.n_qubits), block)  # (2n, n_noise)
        self.n_noise = self.c.shape[1]
        self.l = np.einsum("c,cm,cab->mab", np.sqrt(model.rates), self.c.conj(), sig)
        self.l_dag = self.l.conj().transpose(0, 2, 1)
        # [L_0 L_1 ...]: sum_m L_m A_m is one product with the stacked A_m
        self.l_row = self.l.transpose(1, 0, 2).reshape(model.dim, -1)


def sme_update(rho: np.ndarray, ctx: _SMEContext, dw: np.ndarray, dt: float) -> np.ndarray:
    """One conditioned step given the real noise increments dw ~ N(0, dt).

    Euler-Maruyama drift and noise over the measured operators L_m plus the
    symmetric second-order term (1/2) sum_ml (D_{b_l} b_m)(dw_m dw_l - delta_ml dt),
    then Hermitization and trace renormalization. With the noise directions
    b_m = L_m rho + rho L_m† - h_m rho, h_m = <L_m + L_m†>, B_m = sum_l W_ml b_l
    and X = sum_m L_m B_m, that term is Herm(X) - (1/2) sum_m h_m B_m - Re tr(X) rho.
    """
    m, d = ctx.n_noise, rho.shape[0]
    rl = rho @ ctx.l_dag  # (M, d, d): rho L_m†
    lr = rl.conj().transpose(0, 2, 1)  # L_m rho
    h = 2.0 * rl.trace(axis1=1, axis2=2).real  # <L_m + L_m†>
    b = (lr + rl - h[:, None, None] * rho).reshape(m, d * d)  # row m: b_m
    k = ctx.cc_sum @ rho
    drift = ctx.l_row @ rl.reshape(m * d, d) - 0.5 * (k + k.conj().T)

    w = np.outer(dw, dw)
    w.ravel()[:: m + 1] -= dt
    bw = w @ b  # row m: B_m
    x = ctx.l_row @ bw.reshape(m * d, d)
    x -= 0.5 * (h @ bw).reshape(d, d) + x.trace().real * rho

    new = rho + drift * dt + (dw @ b).reshape(d, d)
    new += 0.5 * (x + x.conj().T)
    new = 0.5 * (new + new.conj().T)
    return new / new.trace().real


def _homodyne_means(ctx: _SMEContext, rho: np.ndarray) -> np.ndarray:
    """<L_m + L_m†>: the deterministic part of each real record dw_m / dt."""
    return 2.0 * np.einsum("mab,ba->m", ctx.l, rho).real


def current_expectations(state: np.ndarray, model: LindbladModel, u, qubit: int) -> tuple[complex, complex]:
    """sqrt(gamma_i) <sigma_i> + sum_j u_ij sqrt(gamma_j) <sigma_j†>: both currents' means."""
    ctx = _SMEContext(model, u)
    det = (ctx.c @ _homodyne_means(ctx, state)).reshape(-1, 2)[qubit]
    return complex(det[0]), complex(det[1])


def homodyne_currents(y_minus: complex, y_plus: complex) -> tuple[complex, complex]:
    """(I12, I34) from the complex pair; exact linear bijection."""
    return (y_minus - y_plus) / 2.0, -0.5j * (y_minus + y_plus)


def combine_currents(i12: complex, i34: complex) -> tuple[complex, complex]:
    """Inverse of homodyne_currents: Y_- = I12 + i I34, Y_+ = -I12 + i I34."""
    return i12 + 1j * i34, -i12 + 1j * i34


def _currents(ctx: _SMEContext, rho: np.ndarray, dw: np.ndarray, dt: float) -> list[CurrentSample]:
    # the channel image Y = C (<L + L†> + dw/dt) of the real homodyne records
    ym, yp = (ctx.c @ (_homodyne_means(ctx, rho) + dw / dt)).reshape(-1, 2).T
    return [
        CurrentSample(complex(a), complex(b), float(c.real), float(d.real))
        for a, b, c, d in zip(ym, yp, *homodyne_currents(ym, yp))
    ]


def step_diffusive(
    state: np.ndarray,
    model: LindbladModel,
    u,
    rng: np.random.Generator,
    dt: float,
) -> tuple[np.ndarray, list[CurrentSample]]:
    """Advance one diffusive step and emit the per-qubit measurement currents."""
    check_perfect_detection(model)
    ctx = _SMEContext(model, u)
    dw = rng.standard_normal(ctx.n_noise) * math.sqrt(dt)
    return sme_update(state, ctx, dw, dt), _currents(ctx, state, dw, dt)


def run_diffusive_trajectory(
    model: LindbladModel,
    u,
    rho0: np.ndarray,
    dt: float,
    t_max: float,
    seed: int,
    sample_times=None,
) -> TrajectoryRecord:
    """Integrate one diffusive trajectory of the general-u engine."""
    check_perfect_detection(model)
    n_steps, sample_steps = step_grid(dt, t_max, sample_times)
    ctx = _SMEContext(model, u)
    rng = _trajectory_rng(seed)
    sqdt = math.sqrt(dt)

    state = rho0.astype(complex).copy()
    samples: list[np.ndarray] = []
    wanted = set(sample_steps)
    if 0 in wanted:
        samples.append(state.copy())
    for step in range(1, n_steps + 1):
        dw = rng.standard_normal(ctx.n_noise) * sqdt
        state = sme_update(state, ctx, dw, dt)
        if step % 200 == 0:
            validate_density_matrix(state, eig_floor=_EIG_GUARD, context=f"diffusive step {step}")
        if step in wanted:
            samples.append(state.copy())
    validate_density_matrix(state, eig_floor=_EIG_GUARD, context="diffusive final state")
    return TrajectoryRecord(final_state=state, samples=samples)


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
    frame: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-unitary step of the protecting diffusive unravelling.

    Each qubit is rotated by the closed-form 2x2 exponential of its stochastic
    Hamiltonian; purity and concurrence are exactly preserved. The returned
    ``(n, 2, 2)`` frame accumulates the applied unitaries for end-of-run
    recovery.
    """
    n = frame.shape[0]
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim and gammas.shape != (n,):
        raise ValueError(f"need one rate per qubit, got {gammas.size} for {n}")
    dws = rng.standard_normal((n, 2)) * math.sqrt(dt)
    us = protecting_unitary(gammas, dws[:, 0], dws[:, 1])
    full = tensor_product(us)
    return full @ state @ full.conj().T, us @ frame


def run_protecting_unitary_trajectory(
    model: LindbladModel,
    rho0: np.ndarray,
    dt: float,
    t_max: float,
    seed: int,
    sample_times=None,
) -> TrajectoryRecord:
    """Integrate one trajectory on the exact-unitary protecting path.

    Requires balanced, strictly positive rates (the stochastic-Hamiltonian
    mapping only exists there). The record carries the ``(n, 2, 2)`` frame
    and the ``(nt, n, 2, 2)`` frames at the sample times, so states at sample
    times can be recovered.
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
    sample_frames = np.empty((len(sample_steps), n, 2, 2), dtype=complex)
    row = {step: j for j, step in enumerate(sample_steps)}
    if 0 in row:
        sample_frames[row[0]] = frames
    for step in range(1, n_steps + 1):
        frames = locals_u[step - 1] @ frames
        if step % _REUNITARIZE_EVERY == 0:
            frames = unitary_part(frames)
        if step in row:
            sample_frames[row[step]] = frames
    frame = unitary_part(frames)
    samples = list(apply_frame(rho0, sample_frames))
    state = apply_frame(rho0, frame)
    validate_density_matrix(state, context="protecting-unitary final state")
    return TrajectoryRecord(
        final_state=state, samples=samples, frame=frame, sample_frames=sample_frames
    )
