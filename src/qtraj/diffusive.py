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
be undone at the end. ``run_protecting_unitary_trajectory`` forms that exact
path (``step_protecting_unitary`` is its per-step reference); the general
engine handles any admissible u.

On the exact path rho(t) = F(t) rho0 F(t)†, with F(t) = U_t ... U_1 a tensor
product of per-qubit SU(2) steps. ``run_protecting_unitary_trajectory`` forms
F only at the sample steps and the end, as a log-depth associative product
(a parallel prefix; Hillis & Steele, CACM 29, 1170 (1986)) whose rounding
grows like log n_steps, so the frames need no periodic re-projection.

The general stepper adds the symmetric second-order noise correction to the
Euler-Maruyama update (a Milstein-type scheme; the omitted Levy-area terms
point along local-unitary directions for the protecting u and do not affect
entanglement). This is what makes per-trajectory concurrence deviations shrink
proportionally to dt; the plain first-order scheme only achieves sqrt(dt).

The general engine steps the state's real Pauli coordinates r_k = tr(P_k rho)
(its coherence vector, Hioe & Eberly, PRL 47, 838 (1981)), with P_k the
n-qubit Pauli strings, so r_0 = tr rho and rho = sum_k r_k P_k / d. Every map
of the scheme is then a real d²×d² matrix: A_m for rho -> L_m rho + rho L_m†
and the drift for sum_m D[L_m]. With h_m = <L_m + L_m†>, the noise
directions b_m = A_m r - h_m r, W = dw dwᵀ - dt 1 and B_m = sum_l W_ml b_l,
Herm(sum_m L_m B_m) = (1/2) sum_m A_m B_m for Hermitian B_m, and the step is

    new = r + dt drift r + sum_m dw_m b_m
          + (1/2) [sum_m A_m B_m - sum_m h_m B_m - (sum_m A_m B_m)_0 r].

Two exact identities,

    (A_m r)_0 = h_m,        (drift r)_0 = 0   (the drift keeps the trace),

split it into a map fixed by the draws and a correction that needs only h.
Expanding b_m and B_m gives, with (W h)·(A r) = sum_m (W h)_m A_m r,

    new = P_s r - (W h)·(A r) + (hᵀ W h - dw·h - (1/2) sum_ml W_ml (A_m A_l r)_0) r,
    P_s = 1 + dt drift + sum_l dw_l A_l + (1/2) sum_ml W_ml A_m A_l,

and the two identities make the 0-th coordinate of P_s r equal to
r_0 + dw·h + (1/2) sum_ml W_ml (A_m A_l r)_0, so that

    new = P_s r - (W h)·(A r) + (hᵀ W h - (P_s r)_0 + r_0) r,    r <- new / new_0.

P_s depends on the draws alone: the maps of a block of steps come from one
product of their coefficient rows with fixed rows built from 1, the drift,
the A_l and the A_m A_l. Each step is then one product v = [P_s; A] r, which
holds h = (A r)_0, plus the scalar correction. Hermiticity holds by
construction, and the state is formed as a matrix only where it is read.

The measurement currents per channel are

    Y_i dt = [sqrt(gamma_i) <sigma_i> + sum_j u_ij sqrt(gamma_j) <sigma_j†>] dt + dxi_i,

with dxi = C dw: the channel image Y = C (<L + L†> + dw/dt) of the real records.
For the protecting u at balanced rates the deterministic part cancels
identically (sqrt(gamma) <sigma_- - sigma_+†> = 0): the records are pure
noise. ``step_diffusive`` returns each qubit's pair (Y_-, Y_+) as a row of one
(n, 2) complex array. The two photocurrent differences relate to the pair by
the exact linear bijection Y_- = I12 + i I34, Y_+ = -I12 + i I34; they are
real exactly when Y_+ = -Y_-*, which the protecting u gives at any rates.
"""

import math

import numpy as np

from .jumps import TrajectoryRecord, _trajectory_rng, check_protecting_rates
from .master import LindbladModel, channel_operators
from .qcore import (
    from_pauli_coordinates,
    pauli_coordinates,
    pauli_strings,
    step_grid,
    validate_density_matrix,
)
from .recovery import apply_frame

PROTECTING_U = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)

# the stochastic scheme transiently produces eigenvalues of order -(gamma dt);
# this guard only catches genuine blow-ups
_EIG_GUARD = -0.05

# the stacked per-step maps of one block of SME steps: small enough to stay in
# cache, large enough that the product forming them is one call per many steps
_BLOCK_BYTES = 1 << 20

# the general-u SME's set-up (the Pauli strings, the context's images and
# coordinates, the step maps' products A_m A_l) grows as 16**n: one trajectory
# needs about 0.07-0.23 GiB at 4 qubits, 1.6-5.5 GiB at 5 and 35-122 GiB at 6
MAX_SME_QUBITS = 4


def _noise_correlation(u) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for u (None is PROTECTING_U): u as complex and its noise factor C.

    C is the complex (2, m) factor of dxi = C dw, with C C† = 1 and C Cᵀ = u.
    The parts (Re dxi, Im dxi) have covariance (1/2) [[1 + Re u, Im u], [Im u, 1 - Re u]],
    here interleaved and read from the upper triangle of u, so exactly symmetric.
    Its eigenvalues (1 +- s_i) / 2, s_i the singular values of u, give
    ||u||_2 = 1 - 2 lambda_min, and each of the m nonzero ones a column of C.
    """
    try:
        u = np.asarray(PROTECTING_U if u is None else u, dtype=complex)
    except (TypeError, ValueError):  # an object, a non-numeric string or a ragged nesting
        raise ValueError(f"noise correlation must be a 2x2 array of numbers, got {u!r}") from None
    if u.shape != (2, 2):
        raise ValueError(f"noise correlation must be 2x2 (channels -, +), got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError(f"noise correlation must be finite, got {u.tolist()}")
    sym = np.max(np.abs(u - u.T))
    if sym > 1e-12:
        raise ValueError(f"noise correlation must be symmetric, max|u - u^T| = {sym:.3e}")
    one, up = np.eye(2), np.array([[u[0, 0], u[0, 1]], [u[0, 1], u[1, 1]]])
    c = 0.5 * np.array([[one + up.real, up.imag], [up.imag, one - up.real]])  # [part, part, channel, channel]
    w, v = np.linalg.eigh(c.transpose(2, 0, 3, 1).reshape(4, 4))
    if 1.0 - 2.0 * w[0] > 1.0 + 1e-12:
        raise ValueError(f"noise correlation two-norm {1.0 - 2.0 * w[0]:.12g} exceeds 1")
    # the null eigenvalues of a rank-deficient u come back as rounding noise: drop their columns
    kept = w > 1e-12 * w[-1]
    l = v[:, kept] * np.sqrt(w[kept])  # rows (Re, Im) of dxi_-, then of dxi_+
    return u, l[0::2] + 1j * l[1::2]


def check_noise_correlation(u: np.ndarray) -> np.ndarray:
    """Validate finiteness, symmetry and the two-norm bound; returns the array as complex."""
    return _noise_correlation(u)[0]


def check_perfect_detection(model: LindbladModel) -> None:
    """Both diffusive engines model perfect detection; raise ValueError otherwise."""
    if model.eta != 1.0:
        raise ValueError(
            f"the diffusive engines model perfect detection (eta = 1), got eta = {model.eta} "
            "(inefficiency curves come from the jump engine)"
        )


def check_sme_qubits(model: LindbladModel) -> None:
    """The general-u SME runs at most ``MAX_SME_QUBITS`` qubits; raise ValueError otherwise."""
    if model.n_qubits > MAX_SME_QUBITS:
        raise ValueError(
            f"the general-u SME runs at most {MAX_SME_QUBITS} qubits (its set-up grows "
            f"as 16**n), got {model.n_qubits}"
        )


class _SMEContext:
    """The measured operators of one model + u as real superoperators, built once.

    L_m = sum_c sqrt(gamma_c) conj(C_cm) sigma_c, with C the noise factor
    (dxi = C dw). C C† = 1 and C Cᵀ = u, so sum_m D[L_m] = sum_c gamma_c D[sigma_c].
    On the Pauli coordinates r_k = tr(P_k rho), ``a[m]`` is rho -> L_m rho + rho L_m†
    and ``drift`` is rho -> sum_m D[L_m] rho, both real d²×d² matrices with
    entries tr(P_j Phi(P_k)) / d. The currents of ``step_diffusive`` read
    ``u`` and ``c``; the rows of the stepping maps are formed from ``a`` and
    ``drift`` by ``_step_maps``.
    """

    def __init__(self, model: LindbladModel, u=None):
        check_sme_qubits(model)  # before any 16**n array
        sig = channel_operators(model.n_qubits)  # (2n, d, d)

        # one u for every qubit: the per-qubit noise block is shared
        self.u, block = _noise_correlation(u)  # the checked u and its (2, m) factor C
        self.c = np.kron(np.eye(model.n_qubits), block)  # (2n, n_noise)
        self.n_noise = m = self.c.shape[1]
        ops = np.einsum("c,cm,cab->mab", np.sqrt(model.rates), self.c.conj(), sig)

        d, k2 = model.dim, model.dim**2
        p_row = pauli_strings(model.n_qubits).transpose(1, 0, 2).reshape(d, -1)  # [P_0 P_1 ...]
        l_dag = ops.conj().swapaxes(-1, -2)
        lp = (ops.reshape(-1, d) @ p_row).reshape(m, d, k2, d)  # [m, a, k, b]: (L_m P_k)_ab
        kp = np.tensordot(l_dag, ops, axes=([0, 2], [0, 1])) @ p_row  # (sum_m L_m† L_m) P_k
        # the image of every P_k under L_m rho, then under sum_m (L_m rho L_m† - L_m† L_m rho):
        # Re tr(P_j X) = Re tr(P_j X†), so their Re-tr coordinates, doubled for the
        # first, are those of L_m rho + rho L_m† and of the drift
        images = np.empty((m + 1, k2, d, d), dtype=complex)
        images[:m] = lp.transpose(0, 2, 1, 3)
        images[m] = (lp.transpose(2, 1, 0, 3).reshape(k2 * d, -1) @ l_dag.reshape(-1, d)).reshape(k2, d, d)
        images[m] -= kp.reshape(d, k2, d).transpose(1, 0, 2)
        coords = pauli_coordinates(images) / d  # row k of block m: Phi_m(P_k)
        coords[:m] *= 2.0
        maps = np.ascontiguousarray(coords.transpose(0, 2, 1))
        self.a, self.drift = maps[:m], maps[m]


def _step_maps(ctx: _SMEContext, dws: np.ndarray, dt: float):
    """Yield the maps [P_s; A_0; ...] and the weights W_s of each block of steps of ``dws``.

    ``dws`` holds one row of real increments per step. P_s and W_s depend on
    the draws alone, so a block of them is formed at once: W_s = dw dwᵀ - dt 1
    and P_s = 1 + dt drift + sum_l dw_l A_l + (1/2) sum_ml W_ml A_m A_l, the
    latter from one product of the block's coefficient rows with rows built
    once per call. A block holds the steps that fit in ``_BLOCK_BYTES``, in one
    buffer reused for every block with its A_m written once, so a yielded
    block is valid until the next one is taken.
    """
    n, m = dws.shape
    k2 = ctx.drift.shape[0]
    # every A_m A_l from one product of the stacked [A_0; A_1; ...] with [A_0 A_1 ...]
    prods = ctx.a.reshape(-1, k2) @ ctx.a.transpose(1, 0, 2).reshape(k2, -1)
    prods = prods.reshape(m, k2, m, k2)  # [m, :, l, :] = A_m A_l
    # W is symmetric: (1/2) sum_ml W_ml A_m A_l = sum_{m<=l} W_ml S_ml with
    # S_ml = (A_m A_l + A_l A_m) / 4 on the diagonal and / 2 off it
    i, j = np.nonzero(np.tri(m, dtype=bool).T)  # the pairs m <= l: np.triu_indices(m) at a third of its cost
    sym = (prods[i, :, j] + prods[j, :, i]) * np.where(i == j, 0.25, 0.5)[:, None, None]
    # the draw-only map P_s of a step is one row of coefficients
    # [1, dt, dw_l, W_ml (m <= l)] against the flattened rows [1; drift; A_l; S_ml]
    basis = np.concatenate([np.eye(k2)[None], ctx.drift[None], ctx.a, sym]).reshape(-1, k2 * k2)
    size = min(n, max(1, _BLOCK_BYTES // (basis.itemsize * (m + 1) * k2 * k2)))
    maps = np.empty((size, m + 1, k2, k2))
    maps[:, 1:] = ctx.a
    p_rows = maps[:, 0].reshape(size, -1)  # a view: P_s is written in place
    coef = np.empty((size, len(basis)))
    coef[:, :2] = 1.0, dt
    for start in range(0, n, size):
        dw = dws[start : start + size]
        b = len(dw)
        w = dw[:, :, None] * dw[:, None, :]
        w.reshape(b, -1)[:, :: m + 1] -= dt
        coef[:b, 2 : 2 + m] = dw
        coef[:b, 2 + m :] = w[:, i, j]
        np.matmul(coef[:b], basis, out=p_rows[:b])
        yield maps[:b], w


def _sme_step(r: np.ndarray, maps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One step of r from its maps [P_s; A_0; ...] and weights W (see the module docstring)."""
    v = maps @ r  # rows: P_s r, then A_m r
    ar = v[1:]
    x = ar[:, 0] @ (w @ ar)  # (W h) . (A r), whose 0-th entry is h W h
    new = v[0] - x + (x[0] - v[0, 0] + r[0]) * r
    return new / new[0]


def sme_update(r: np.ndarray, ctx: _SMEContext, dw: np.ndarray, dt: float) -> np.ndarray:
    """One conditioned step of the Pauli coordinates r given real noise increments dw ~ N(0, dt).

    Euler-Maruyama drift and noise over the measured operators L_m plus the
    symmetric second-order term (1/2) sum_ml (D_{b_l} b_m)(dw_m dw_l - delta_ml dt),
    then trace renormalization. This is the trajectory loop's step, on a block
    of one step.
    """
    maps, w = next(_step_maps(ctx, np.reshape(dw, (1, -1)), dt))
    return _sme_step(r, maps[0], w[0])


def _current_means(state: np.ndarray, model: LindbladModel, u) -> np.ndarray:
    """Both currents' means on every qubit, shape (n, 2), for a ``u`` already checked."""
    sig = channel_operators(model.n_qubits)
    e = (np.sqrt(model.rates) * (sig.reshape(len(sig), -1) @ state.T.ravel())).reshape(-1, 2)
    return e + e.conj() @ np.transpose(u)  # <sigma†> = <sigma>* for a Hermitian state


def current_expectations(state: np.ndarray, model: LindbladModel, u) -> np.ndarray:
    """sqrt(gamma_i) <sigma_i> + sum_j u_ij sqrt(gamma_j) <sigma_j†>: both currents' means.

    One (n, 2) array, row i qubit i's (Y_-, Y_+); u is checked first (None is PROTECTING_U).
    """
    return _current_means(state, model, check_noise_correlation(u))


def homodyne_currents(y_minus, y_plus):
    """(I12, I34) from the complex pair; exact linear bijection, elementwise over arrays.

    Both are real exactly when Y_+ = -Y_-*, as for the protecting u; otherwise complex.
    """
    return (y_minus - y_plus) / 2.0, -0.5j * (y_minus + y_plus)


def combine_currents(i12, i34):
    """Inverse of homodyne_currents: Y_- = I12 + i I34, Y_+ = -I12 + i I34."""
    return i12 + 1j * i34, -i12 + 1j * i34


def step_diffusive(
    state: np.ndarray,
    model: LindbladModel,
    u,
    rng: np.random.Generator,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one diffusive step; return the new state and the step's currents.

    The currents are an (n, 2) complex array, row i qubit i's pair (Y_-, Y_+):
    the means of ``current_expectations`` on the state before the step plus
    the channel image C dw / dt of the step's real increments.
    """
    check_perfect_detection(model)
    ctx = _SMEContext(model, u)  # checks u
    dw = rng.standard_normal(ctx.n_noise) * math.sqrt(dt)
    currents = _current_means(state, model, ctx.u) + (ctx.c @ dw / dt).reshape(-1, 2)
    return from_pauli_coordinates(sme_update(pauli_coordinates(state), ctx, dw, dt)), currents


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
    dws = _trajectory_rng(seed).standard_normal((n_steps, ctx.n_noise)) * math.sqrt(dt)

    r = pauli_coordinates(rho0)
    samples: list[np.ndarray] = []
    wanted = set(sample_steps)
    if 0 in wanted:
        samples.append(rho0.astype(complex))
    step = 0
    for maps, w in _step_maps(ctx, dws, dt):
        for maps_s, w_s in zip(maps, w):
            r = _sme_step(r, maps_s, w_s)
            step += 1
            if step % 200 == 0:
                validate_density_matrix(
                    from_pauli_coordinates(r), eig_floor=_EIG_GUARD, context=f"diffusive step {step}"
                )
            if step in wanted:
                samples.append(from_pauli_coordinates(r))
    state = from_pauli_coordinates(r)
    validate_density_matrix(state, eig_floor=_EIG_GUARD, context="diffusive final state")
    return TrajectoryRecord(final_state=state, samples=samples)


def _protecting_pair(gamma, dw1, dw2):
    """Cayley-Klein pair (a, b) = (U_00, U_10) of each ``protecting_unitary`` step."""
    half = np.sqrt(np.asarray(gamma, dtype=float) / 2.0)
    ax = half * dw2
    ay = -half * dw1
    theta = np.hypot(ax, ay)
    safe = np.where(theta > 0.0, theta, 1.0)
    nx, ny = ax / safe, ay / safe
    return np.cos(theta), -1j * np.sin(theta) * (nx + 1j * ny)


def _su2_matrix(a, b) -> np.ndarray:
    """The matrices [[a, -b*], [b, a*]] of Cayley-Klein pairs, shape (..., 2, 2)."""
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 0, 1] = -np.conj(b)
    out[..., 1, 0] = b
    out[..., 1, 1] = np.conj(a)
    return out


def protecting_unitary(gamma, dw1, dw2) -> np.ndarray:
    """exp(-i H) for the local stochastic Hamiltonian of the protecting choice.

    H = sqrt(gamma/2) (dw2 sigma_x - dw1 sigma_y); the sign pairing matches the
    dxi_- = (dW1 + i dW2)/sqrt(2), dxi_+ = (-dW1 + i dW2)/sqrt(2) decomposition
    in the |0>=ground convention. Broadcasts over arrays of rates and
    increments: the result has shape (..., 2, 2).
    """
    return _su2_matrix(*_protecting_pair(gamma, dw1, dw2))


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
    return apply_frame(state, us), us @ frame


def _su2_product(a1, b1, a2, b2):
    """Cayley-Klein pair of [[a1, -b1*], [b1, a1*]] @ [[a2, -b2*], [b2, a2*]], elementwise."""
    return a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2


def _prefix_frames(a: np.ndarray, b: np.ndarray, steps) -> np.ndarray:
    """The frames U_s ... U_1 (later steps on the left) at each step s of ``steps``.

    ``a`` and ``b`` are the ``(n_steps, n)`` Cayley-Klein pairs
    (a, b) = (U_00, U_10) of the per-qubit SU(2) steps, so products are
    elementwise. Level k of a pairwise product tree holds the products
    over the aligned blocks [j 2^k, (j+1) 2^k) of steps. The first s steps are
    one such block per set bit of s, met from the latest to the earliest when
    the bits are read from low to high, so every frame takes at most one
    factor on its right per level while the tree is built. Only the current
    level is held: memory is O(n_steps) for any set of steps.
    """
    s = np.asarray(steps, dtype=np.int64)
    acc_a = np.ones((len(s),) + a.shape[1:], dtype=complex)
    acc_b = np.zeros_like(acc_a)
    for k in range(int(s.max(initial=0)).bit_length()):
        if k:
            m = len(a) // 2
            a, b = _su2_product(a[1 : 2 * m : 2], b[1 : 2 * m : 2], a[: 2 * m : 2], b[: 2 * m : 2])
        q = s >> k
        hit = np.flatnonzero(q & 1)
        block = q[hit] - 1
        acc_a[hit], acc_b[hit] = _su2_product(acc_a[hit], acc_b[hit], a[block], b[block])
    return _su2_matrix(acc_a, acc_b)


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

    a, b = _protecting_pair(np.asarray(model.gamma_minus), dws[..., 0], dws[..., 1])

    # every step is local, so rho(t) = F(t) rho0 F(t)^dagger with F the tensor
    # product of the per-qubit frames: only the frames at the sample steps and
    # at the end are formed, and states at those steps alone
    frames = _prefix_frames(a, b, sample_steps + [n_steps])
    sample_frames, frame = frames[:-1], frames[-1]
    states = apply_frame(rho0, frames)
    samples, state = list(states[:-1]), states[-1]
    validate_density_matrix(state, context="protecting-unitary final state")
    return TrajectoryRecord(
        final_state=state, samples=samples, frame=frame, sample_frames=sample_frames
    )
