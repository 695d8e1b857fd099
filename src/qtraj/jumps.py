"""Quantum-jump trajectory engine.

A trajectory alternates detector clicks (jumps) with no-jump evolution. Jump
operators are stored with their rate prefactor but without the time step:
``matrix = sqrt(gamma) * sigma``, so click probabilities over a step are
``p_i = tr(J_i† J_i rho) * dt`` and the no-jump operator is
``M = 1 - (dt/2) * sum_i J_i† J_i``.

The canonical set uses the bare decay/pump operators; detecting one of those
clicks projects a qubit and kills entanglement. Mixing the two channels of a
qubit with a left-unitary transform is free (the ensemble dynamics is
unchanged), and the balanced-rate mix (1/sqrt(2))[[1, 1], [i, -i]] turns both
jumps into local Paulis: clicks then hop the state between maximally entangled
states, and the initial state is recoverable from the click record alone.

Detector inefficiency is a per-click Bernoulli(eta) "detected" flag: the jump
still happens physically, the observer just may not see it.

Sampling spends one uniform per step, partitioned over sub-segments
[eta*p_1, (1-eta)*p_1, eta*p_2, ...] in fixed operator order (qubit-major,
label-minor), so runs are reproducible bit-for-bit for a given seed. Every
single-qubit set has diagonal M and J†J (J = a sigma_- + b sigma_+ gives
J†J = |a|^2 sigma_+ sigma_- + |b|^2 sigma_- sigma_+), and the engine skips
ahead between its clicks over the pre-drawn uniforms; at balanced rates M is
proportional to the identity and the state waits unchanged for the next
click (Dalibard, Castin and Molmer, PRL 68, 580 (1992)). Other sets, e.g.
collective jumps, take the per-step loop; both give the same clicks.
"""

from dataclasses import dataclass, field

import numpy as np

from .master import CHANNEL_LABELS, LindbladModel, channel_operators
from .qcore import InvariantViolation, step_grid, validate_density_matrix

MAX_STEP_PROB = 0.1  # at most one jump per step needs sum(p) well below 1


@dataclass(frozen=True)
class JumpOperator:
    """One monitored channel: sqrt(rate)-weighted operator on a single qubit."""

    matrix: np.ndarray
    qubit: int
    label: str


@dataclass(frozen=True)
class UnravelingTransform:
    """Left-unitary mix of the jump operators of one qubit (U†U = 1)."""

    u_matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_matrix, dtype=complex)
        object.__setattr__(self, "u_matrix", u)
        gram = u.conj().T @ u
        dev = np.max(np.abs(gram - np.eye(u.shape[1])))
        if dev > 1e-12:
            raise ValueError(f"transform is not left-unitary: max|U†U - 1| = {dev:.3e}")


@dataclass(frozen=True)
class JumpEvent:
    time: float
    qubit: int
    label: str
    detected: bool


@dataclass
class TrajectoryRecord:
    """One trajectory as every engine returns it.

    ``samples`` holds one state per requested sample time (empty without
    them). Jump engines fill ``events``; the exact-unitary diffusive path
    fills ``frame``, its ``(n, 2, 2)`` per-qubit unitaries, and
    ``sample_frames``, the ``(nt, n, 2, 2)`` frames at the sample times.
    """

    final_state: np.ndarray
    samples: list[np.ndarray] = field(default_factory=list, repr=False)
    events: list[JumpEvent] = field(default_factory=list)
    frame: np.ndarray | None = None
    sample_frames: np.ndarray | None = field(default=None, repr=False)


def canonical_jumps(model: LindbladModel) -> list[JumpOperator]:
    """sqrt(gm)*sigma_minus and sqrt(gp)*sigma_plus per qubit, qubit-major order.

    Zero-rate channels are dropped.
    """
    ops, _ = channel_operators(model.n_qubits)
    return [
        JumpOperator(np.sqrt(rate) * op, c // 2, CHANNEL_LABELS[c % 2])
        for c, (rate, op) in enumerate(zip(model.rates, ops))
        if rate != 0.0
    ]


def transform_jumps(
    jumps: list[JumpOperator],
    transform: UnravelingTransform,
    labels: tuple[str, ...] | None = None,
) -> list[JumpOperator]:
    """New jumps J~_k = sum_i U_ki J_i over the jumps of one qubit.

    Unitarity guarantees sum J~†J~ = sum J†J, so the no-jump operator -- and
    the ensemble dynamics -- are unchanged.
    """
    if not jumps:
        raise ValueError("no jumps to transform")
    qubit = jumps[0].qubit
    if any(j.qubit != qubit for j in jumps):
        raise ValueError("transform_jumps mixes jumps of a single qubit only")
    u = transform.u_matrix
    if u.shape[1] != len(jumps):
        raise ValueError(f"transform has {u.shape[1]} columns for {len(jumps)} jumps")
    if labels is not None and len(labels) != u.shape[0]:
        raise ValueError("one label per transformed jump required")
    stack = np.stack([j.matrix for j in jumps])
    mixed = np.einsum("ki,iab->kab", u, stack)
    out = []
    for k in range(u.shape[0]):
        label = labels[k] if labels is not None else "custom"
        out.append(JumpOperator(mixed[k], qubit, label))
    return out


def protecting_transform() -> UnravelingTransform:
    """The balanced-rate mix sending (J_minus, J_plus) to Pauli x/y jumps."""
    return UnravelingTransform(np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0))


def check_protecting_rates(model: LindbladModel) -> None:
    """Both protecting unravelings need balanced, strictly positive rates."""
    if not model.balanced:
        raise ValueError(
            "protecting unravelings require gamma_minus == gamma_plus on every qubit"
        )
    if min(model.gamma_minus) <= 0.0:
        raise ValueError("protecting unravelings require strictly positive rates")


def check_rate_step(model: LindbladModel, dt: float) -> None:
    """One jump per step stays accurate only while gamma_max*dt <= 0.01."""
    if model.max_rate * dt > 0.01 + 1e-15:
        raise ValueError(f"gamma_max*dt = {model.max_rate * dt:.3g} exceeds 0.01")


def protecting_jumps(model: LindbladModel) -> list[JumpOperator]:
    """Pauli x/y jumps, sqrt(gamma/2)-weighted, per qubit. Requires balanced rates."""
    check_protecting_rates(model)
    pairs = canonical_jumps(model)  # positive rates: both channels of every qubit
    u = protecting_transform()
    out = []
    for alpha in range(model.n_qubits):
        out.extend(transform_jumps(pairs[2 * alpha : 2 * alpha + 2], u, labels=("x", "y")))
    return out


def _bare_kernel(jumps: list[JumpOperator], dim: int, dt: float) -> "_JumpKernel":
    """The kernel of a bare jump set on a ``dim``-dimensional state (eta = 1)."""
    return _JumpKernel(jumps, LindbladModel(dim.bit_length() - 1, 0.0, 0.0), dt)


def no_jump_operator(jumps: list[JumpOperator], dt: float) -> np.ndarray:
    """M = 1 - (dt/2) sum_i J_i† J_i."""
    return _bare_kernel(jumps, jumps[0].matrix.shape[0], dt).m_op


def jump_probabilities(
    jumps: list[JumpOperator], rho: np.ndarray, dt: float
) -> tuple[np.ndarray, float]:
    """Click probabilities p_i = tr(J_i† J_i rho) dt and p_nj = 1 - sum(p)."""
    p = _bare_kernel(jumps, rho.shape[0], dt).probabilities(rho)
    if np.any(p < -1e-12):
        raise InvariantViolation(f"negative jump probability: {p.min():.3e}")
    p = np.maximum(p, 0.0)
    return p, 1.0 - p.sum()


def _check_step_prob(total: float) -> None:
    if total > MAX_STEP_PROB:
        raise ValueError(f"sum of jump probabilities {total:.3g} > {MAX_STEP_PROB}: reduce dt")


class _JumpKernel:
    """Precomputed operator stacks plus the shared outcome-sampling rule."""

    def __init__(self, jumps: list[JumpOperator], model: LindbladModel, dt: float):
        self.jumps = jumps
        self.model = model
        self.dt = dt
        self.dim = model.dim
        eye = np.eye(self.dim, dtype=complex)
        # no jumps (all rates zero): empty stacks, and M = 1
        self.j_stack = (
            np.stack([op.matrix for op in jumps])
            if jumps
            else np.zeros((0, self.dim, self.dim), dtype=complex)
        )
        if self.j_stack.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"jump dim {self.j_stack.shape[1]} does not match state dim {self.dim}")
        self.e_stack = np.einsum("kba,kbc->kac", self.j_stack.conj(), self.j_stack)  # J†J
        # tr(E rho) = sum_ab E[a,b] rho[b,a]: transpose once so the hot loop
        # can use rho.ravel() (a view) instead of copying rho.T
        self.e_flat = np.ascontiguousarray(
            self.e_stack.transpose(0, 2, 1).reshape(len(jumps), self.dim * self.dim)
        )
        self.m_op = eye - 0.5 * dt * self.e_stack.sum(axis=0)
        # balanced rates make M proportional to the identity: no-jump is a no-op
        self.m_scalar = np.max(np.abs(self.m_op - self.m_op[0, 0] * eye)) < 1e-15
        # diagonal J†J (hence diagonal M) selects the skip-ahead scan
        off = ~np.eye(self.dim, dtype=bool)
        self.m_diagonal = (
            not self.e_stack[:, off].any()
            and abs(self.m_op.diagonal().imag).max(initial=0.0) < 1e-15
        )

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        p = (self.e_flat @ rho.ravel()).real * self.dt
        _check_step_prob(p.sum())
        return p

    def cumulative(self, p: np.ndarray) -> np.ndarray:
        """Detected/undetected sub-segments in fixed operator order."""
        eta = self.model.eta
        sub = np.empty(2 * len(p))
        sub[0::2] = eta * np.maximum(p, 0.0)
        sub[1::2] = (1.0 - eta) * np.maximum(p, 0.0)
        return np.cumsum(sub)

    def apply_jump(self, rho: np.ndarray, k: int) -> np.ndarray:
        j = self.j_stack[k]
        new = j @ rho @ j.conj().T
        tr = new.trace().real
        if tr < 1e-14:
            raise InvariantViolation(f"normalization failure after jump {k}: trace {tr:.2e}")
        return new / tr

    def apply_no_jump(self, rho: np.ndarray) -> np.ndarray:
        if self.m_scalar:
            return rho
        new = self.m_op @ rho @ self.m_op
        tr = new.ravel()[:: self.dim + 1].sum().real
        if tr < 1e-14:
            raise InvariantViolation(f"normalization failure in no-jump step: trace {tr:.2e}")
        new *= 1.0 / tr
        return new

    def sample(self, p: np.ndarray, u: float) -> tuple[int, bool] | None:
        """Map one uniform draw to (jump index, detected) or None for no jump.

        The jump/no-jump boundary is sum(p); the sub-segment search only runs
        on the rare hits.
        """
        if p.size == 0 or u >= p.sum():
            return None
        cum = self.cumulative(p)
        seg = min(int(np.searchsorted(cum, u, side="right")), 2 * len(p) - 1)
        return seg // 2, seg % 2 == 0

    def event_for(self, k: int, detected: bool, time: float) -> JumpEvent:
        op = self.jumps[k]
        return JumpEvent(time, op.qubit, op.label, detected)

    def step(self, rho: np.ndarray, u: float, time: float) -> tuple[np.ndarray, JumpEvent | None]:
        """One step on the uniform ``u``: a click stamped ``time``, else the no-jump update."""
        out = self.sample(self.probabilities(rho), u)
        if out is None:
            return self.apply_no_jump(rho), None
        k, detected = out
        return self.apply_jump(rho, k), self.event_for(k, detected, time)


def step_jump(
    state: np.ndarray,
    jumps: list[JumpOperator],
    model: LindbladModel,
    dt: float,
    rng: np.random.Generator,
    time: float = 0.0,
) -> tuple[np.ndarray, JumpEvent | None]:
    """Advance one step: click with probability p_i (Bernoulli-eta detected), else no-jump."""
    return _JumpKernel(jumps, model, dt).step(state.copy(), rng.random(), time + dt)


def trajectory_seed(master_seed: int, index: int) -> int:
    """Derive the counter-based per-trajectory stream key from (master_seed, index)."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def _trajectory_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def run_jump_trajectory(
    model: LindbladModel,
    jumps: list[JumpOperator],
    rho0: np.ndarray,
    dt: float,
    t_max: float,
    seed: int,
    sample_times=None,
) -> TrajectoryRecord:
    """Integrate one monitored trajectory; deterministic for a given seed.

    ``sample_times`` (optional, on the step grid) collects state snapshots into
    the returned record. The uniform draws for all steps are generated up
    front from the trajectory's own Philox stream, so results are independent
    of how trajectories are scheduled across workers. Jump sets with diagonal
    M and J†J take the skip-ahead scan, every other set the per-step loop.
    """
    n_steps, steps = step_grid(dt, t_max, sample_times)
    check_rate_step(model, dt)
    kernel = _JumpKernel(jumps, model, dt)
    us = _trajectory_rng(seed).random(n_steps)
    walk = _scan if kernel.m_diagonal else _step_loop
    state, events, samples = walk(kernel, rho0.astype(complex).copy(), us, steps)
    validate_density_matrix(state, context="trajectory final state")
    return TrajectoryRecord(final_state=state, samples=samples, events=events)


def _scan(kernel: _JumpKernel, state: np.ndarray, us: np.ndarray, steps: list[int]):
    """Skip-ahead walk for diagonal M and J†J; returns (state, events, samples).

    Between clicks the populations scale by elementwise powers of diag(M)^2,
    so the click search over a whole no-jump run is one vectorized scan. When
    M is proportional to the identity the state does not move between clicks
    and the click probability is constant until the next one.
    """
    n_steps = len(us)
    m2 = (kernel.m_op.diagonal().real) ** 2
    e_diag = kernel.e_stack.diagonal(axis1=1, axis2=2).real  # (k, dim)
    events: list[JumpEvent] = []
    samples: list[np.ndarray] = []
    si = 0  # next sample index
    pos = 0
    while pos < n_steps:
        horizon = n_steps - pos
        if kernel.m_scalar:
            ptot = kernel.probabilities(state).sum()
        else:
            d = state.diagonal().real
            # powers[o] = m2**o for o = 0..horizon
            powers = np.empty((horizon + 1, kernel.dim))
            powers[0] = 1.0
            np.multiply.accumulate(
                np.broadcast_to(m2, (horizon, kernel.dim)), axis=0, out=powers[1:]
            )
            ptot = (powers[:-1] @ (e_diag.sum(axis=0) * d)) * (
                kernel.dt / (powers[:-1] @ d)
            )
            _check_step_prob(ptot.max(initial=0.0))
        hits = np.flatnonzero(us[pos:] < ptot)
        off = int(hits[0]) if hits.size else horizon

        def _state_at(o):
            if o == 0 or kernel.m_scalar:
                return state
            scaled = state * np.outer(powers[o], powers[o]) ** 0.5
            return scaled / scaled.trace().real

        while si < len(steps) and steps[si] <= pos + off:
            samples.append(_state_at(steps[si] - pos).copy())
            si += 1
        if not hits.size:
            state = _state_at(horizon).copy()
            break
        at_hit = _state_at(off)
        k, detected = kernel.sample(kernel.probabilities(at_hit), us[pos + off])
        state = kernel.apply_jump(at_hit, k)
        events.append(kernel.event_for(k, detected, (pos + off + 1) * kernel.dt))
        pos += off + 1
    while si < len(steps):
        samples.append(state.copy())
        si += 1
    return state, events, samples


def _step_loop(kernel: _JumpKernel, state: np.ndarray, us: np.ndarray, steps: list[int]):
    """Per-step reference walk for any jump set; returns (state, events, samples)."""
    events: list[JumpEvent] = []
    samples: list[np.ndarray] = []
    wanted = set(steps)
    if 0 in wanted:
        samples.append(state.copy())
    for step in range(len(us)):
        state, event = kernel.step(state, us[step], (step + 1) * kernel.dt)
        if event is not None:
            events.append(event)
        if step + 1 in wanted:
            samples.append(state.copy())
    return state, events, samples
