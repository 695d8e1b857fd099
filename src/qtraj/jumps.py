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
label-minor), so runs are reproducible bit-for-bit for a given seed. M is
Hermitian, so it is diagonal in the eigenbasis of sum J†J, and for every jump
set the engine skips ahead between its clicks over the pre-drawn uniforms
(Dalibard, Castin and Molmer, PRL 68, 580 (1992)). Every single-qubit set is
diagonal already (J = a sigma_- + b sigma_+ gives J†J = |a|^2 sigma_+ sigma_-
+ |b|^2 sigma_- sigma_+) and is never rotated; at balanced rates M is
proportional to the identity and the state waits unchanged for the next
click. Within a no-click run the state scales, in that basis, by powers of
M's diagonal squared, tabulated once per kernel, and every sample that falls
in the run is formed in one broadcast product. The walk decides whether a
step clicks, the kernel which click, in the computational basis. A kernel
reads only (jumps, dim, eta, dt) and is memoized by their value, so the
trajectories of an ensemble share one and pay only for their draws and clicks.
"""

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .master import CHANNEL_LABELS, LindbladModel, channel_operators
from .qcore import InvariantViolation, number, step_grid, validate_density_matrix

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
        if not dev <= 1e-12:  # NaN fails too
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
    ops = channel_operators(model.n_qubits)
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
    mixed = np.einsum("ki,iab->kab", u, np.stack([j.matrix for j in jumps]))
    return [JumpOperator(m, qubit, label) for m, label in zip(mixed, labels or ["custom"] * len(mixed))]


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


def no_jump_operator(jumps: list[JumpOperator], dt: float) -> np.ndarray:
    """M = 1 - (dt/2) sum_i J_i† J_i."""
    if not jumps:
        raise ValueError("no jumps: the dimension of M is unknown without a jump operator")
    return _JumpKernel(jumps, jumps[0].matrix.shape[0], 1.0, dt).m_op


def jump_probabilities(
    jumps: list[JumpOperator], rho: np.ndarray, dt: float
) -> tuple[np.ndarray, float]:
    """Click probabilities p_i = tr(J_i† J_i rho) dt and p_nj = 1 - sum(p)."""
    p = _JumpKernel(jumps, rho.shape[0], 1.0, dt).probabilities(rho)
    if not np.all(p >= -1e-12):  # NaN fails too
        raise InvariantViolation(f"jump probability {p.min():.3e} is negative or NaN")
    p = np.maximum(p, 0.0)
    return p, 1.0 - p.sum()


def _check_step_prob(total: float) -> None:
    if total > MAX_STEP_PROB:
        raise ValueError(f"sum of jump probabilities {total:.3g} > {MAX_STEP_PROB}: reduce dt")


class _JumpKernel:
    """Precomputed operator stacks plus the shared outcome-sampling rule."""

    def __init__(self, jumps: list[JumpOperator], dim: int, eta: float, dt: float):
        self.jumps = jumps
        self.dim = dim
        self.eta = eta
        self.dt = dt
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
        e_total = self.e_stack.sum(axis=0)
        self.m_op = eye - 0.5 * dt * e_total
        # balanced rates make M proportional to the identity: no-jump is a no-op
        self.m_scalar = np.max(np.abs(self.m_op - self.m_op[0, 0] * eye)) < 1e-15
        # M is diagonal in the eigenbasis of sum J†J, and in the computational
        # basis (basis None) unless M has an off-diagonal entry, as collective jumps give
        if self.m_op[~np.eye(self.dim, dtype=bool)].any():
            self.e_sum, self.basis = np.linalg.eigh(e_total)
        else:
            self.e_sum, self.basis = e_total.diagonal().real, None
        self.m_diag = 1.0 - 0.5 * dt * self.e_sum  # M's diagonal in that basis
        self._powers = np.empty((0, self.dim))

    def powers(self, n_steps: int) -> np.ndarray:
        """Rows 0..n_steps of m_diag**(2o), the o-fold running product; read-only.

        One table serves every trajectory of the kernel. A longer grid rebuilds
        it and a shorter one reads a prefix: row o does not depend on the length.
        """
        if len(self._powers) <= n_steps:
            table = np.empty((n_steps + 1, self.dim))
            table[0] = 1.0
            m2 = self.m_diag**2
            np.multiply.accumulate(np.broadcast_to(m2, (n_steps, self.dim)), axis=0, out=table[1:])
            table.flags.writeable = False
            self._powers = table
        return self._powers[: n_steps + 1]

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        p = (self.e_flat @ rho.ravel()).real * self.dt
        _check_step_prob(p.sum())
        return p

    def cumulative(self, p: np.ndarray) -> np.ndarray:
        """Detected/undetected sub-segments in fixed operator order."""
        return np.cumsum(np.outer(np.maximum(p, 0.0), (self.eta, 1.0 - self.eta)))

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

    def channel(self, p: np.ndarray, u: float) -> tuple[int, bool]:
        """(jump index, detected) of the click that the walk found at the uniform ``u``.

        The sub-segment of ``cumulative(p)`` that holds u, read at most one ulp
        below the last entry (the walk's sum of p may round above it): such a
        draw lands in the last segment of nonzero width, never in a trailing
        empty one such as the undetected share at eta = 1.
        """
        cum = self.cumulative(p)
        seg = int(np.searchsorted(cum, min(u, np.nextafter(cum[-1], 0.0)), side="right"))
        return seg // 2, seg % 2 == 0

    def event_for(self, k: int, detected: bool, time: float) -> JumpEvent:
        op = self.jumps[k]
        return JumpEvent(time, op.qubit, op.label, detected)

    def step(self, rho: np.ndarray, u: float, time: float) -> tuple[np.ndarray, JumpEvent | None]:
        """One step on the uniform ``u``: a click stamped ``time``, else the no-jump update."""
        p = self.probabilities(rho)
        if u >= p.sum():
            return self.apply_no_jump(rho), None
        k, detected = self.channel(p, u)
        return self.apply_jump(rho, k), self.event_for(k, detected, time)


def _kernel(jumps: list[JumpOperator], model: LindbladModel, dt: float) -> _JumpKernel:
    """The read-only kernel of (jumps, model.dim, model.eta, dt), memoized by value.

    Every trajectory of an ensemble steps the same kernel. The key holds each
    operator's bytes, not its identity, so a matrix changed in place gets a
    new kernel.
    """
    ops = tuple(
        (op.qubit, op.label, op.matrix.dtype.str, op.matrix.shape, op.matrix.tobytes())
        for op in jumps
    )
    return _kernel_of(ops, model.dim, model.eta, dt)


@lru_cache(maxsize=16)
def _kernel_of(ops: tuple, dim: int, eta: float, dt: float) -> _JumpKernel:
    jumps = [
        JumpOperator(np.frombuffer(raw, dtype).reshape(shape), qubit, label)
        for qubit, label, dtype, shape, raw in ops
    ]
    kernel = _JumpKernel(jumps, dim, eta, dt)
    for arr in (kernel.j_stack, kernel.e_stack, kernel.e_flat, kernel.m_op, kernel.basis,
                kernel.e_sum, kernel.m_diag):
        if arr is not None:
            arr.flags.writeable = False
    return kernel


def step_jump(
    state: np.ndarray,
    jumps: list[JumpOperator],
    model: LindbladModel,
    dt: float,
    rng: np.random.Generator,
    time: float = 0.0,
) -> tuple[np.ndarray, JumpEvent | None]:
    """Advance one step: click with probability p_i (Bernoulli-eta detected), else no-jump."""
    return _kernel(jumps, model, dt).step(state.copy(), rng.random(), time + dt)


def trajectory_seed(master_seed: int, index: int) -> int:
    """The Philox key of trajectory ``index`` of the run ``master_seed``."""
    return trajectory_seeds(master_seed, [index])[0]


def trajectory_seeds(master_seed: int, indices) -> list[int]:
    """The Philox keys ``d << 64 | i`` of the trajectories ``indices``, as Python ints.

    ``np.random.Philox(key=k)`` splits such a key into the word pair (i, d):
    key word 0 is the index and key word 1 the run's digest ``d``, the first
    uint64 of ``SeedSequence(master_seed)``, taken once per call. Distinct
    keys give independent Philox streams (Salmon et al., SC11), so no two
    trajectories of a run share a stream. Indices must be integers in
    [0, 2**32), the cap on a run's size.
    """
    idx = np.asarray(indices)
    if idx.size and not (idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < 2**32):
        raise ValueError(f"trajectory indices must be integers in [0, 2**32), got {indices!r}")
    master = int(number("master_seed", master_seed, True, 0))
    digest = int(np.random.SeedSequence(master).generate_state(1, np.uint64)[0]) << 64
    return [digest | i for i in idx.tolist()]


class _Stream(threading.local):
    """One Philox stream and its generator per thread, built on first use there."""

    def __init__(self):
        self.bits = np.random.Philox(key=0)
        self.rng = np.random.Generator(self.bits)
        # the state np.random.Philox(key=k) starts in, both key words set per trajectory:
        # counter 0 and the buffer spent, so that no earlier draw leaks a word or a half word
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_STREAM = _Stream()


def _trajectory_rng(key: int) -> np.random.Generator:
    """The Philox stream ``np.random.Philox(key=key)`` at counter 0, for a key in [0, 2**128).

    The calling thread's stream is re-keyed with both key words, the low
    64 bits (a trajectory's index) and the high 64 (its run's digest), by
    assigning its state, which costs half of building a new Philox and
    Generator. The generator is valid until the same thread's next
    ``_trajectory_rng`` call: every engine draws its whole array before
    anything else runs. A forked worker re-keys its own copy.
    """
    words = _STREAM.state["state"]["key"]
    words[0], words[1] = key & 0xFFFFFFFFFFFFFFFF, key >> 64
    _STREAM.bits.state = _STREAM.state
    return _STREAM.rng


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
    of how trajectories are scheduled across workers. Every jump set takes
    the one skip-ahead scan, in the basis in which M is diagonal.
    """
    n_steps, steps = step_grid(dt, t_max, sample_times)
    check_rate_step(model, dt)
    kernel = _kernel(jumps, model, dt)
    us = _trajectory_rng(seed).random(n_steps)
    state, events, samples = _scan(kernel, rho0.astype(complex).copy(), us, steps)
    validate_density_matrix(state, context="trajectory final state")
    return TrajectoryRecord(final_state=state, samples=samples, events=events)


def _scan(kernel: _JumpKernel, state: np.ndarray, us: np.ndarray, steps: list[int]):
    """Skip-ahead walk for any jump set; returns (state, events, samples).

    Between clicks the populations in the kernel's basis scale by elementwise
    powers of m_diag^2, so the click search over a whole no-jump run is one
    vectorized scan. The run's samples and its hit state are scaled in that
    basis and rotated back; clicks are taken in the computational basis. When
    M is proportional to the identity the state does not move between clicks
    and the click probability is constant until the next one.
    """
    n_steps = len(us)
    basis = kernel.basis
    if not kernel.m_scalar:
        table = kernel.powers(n_steps)  # row o: m_diag**(2o); every run reads a prefix
    events: list[JumpEvent] = []
    samples: list[np.ndarray] = []
    si = 0  # next sample index
    pos = 0
    while pos < n_steps:
        horizon = n_steps - pos
        if kernel.m_scalar:
            p = kernel.probabilities(state)  # constant until the click: reused there
            ptot = p.sum()
        else:
            rot = state if basis is None else basis.conj().T @ state @ basis
            d = rot.diagonal().real
            ahead = table[:horizon]  # row o: m_diag**(2o)
            ptot = (ahead @ (kernel.e_sum * d)) * (kernel.dt / (ahead @ d))
            _check_step_prob(ptot.max(initial=0.0))
        hits = np.flatnonzero(us[pos:] < ptot)
        off = int(hits[0]) if hits.size else horizon

        # the states at the run's sample steps and at its end (the click step,
        # or the horizon), all in one broadcast
        sj = bisect_right(steps, pos + off, si)
        offs = np.array(steps[si:sj] + [pos + off]) - pos
        states = np.empty((len(offs),) + state.shape, dtype=complex)
        states[...] = state
        if not kernel.m_scalar:
            moved = offs > 0
            powers = table[offs[moved]]
            scaled = rot * (powers[:, :, None] * powers[:, None, :]) ** 0.5
            scaled = scaled / scaled.trace(axis1=1, axis2=2).real[:, None, None]
            states[moved] = scaled if basis is None else basis @ scaled @ basis.conj().T
        samples.extend(states[:-1])
        si = sj
        if not hits.size:
            state = states[-1]
            break
        at_hit = states[-1]
        if not kernel.m_scalar:
            p = kernel.probabilities(at_hit)
        k, detected = kernel.channel(p, us[pos + off])
        state = kernel.apply_jump(at_hit, k)
        events.append(kernel.event_for(k, detected, (pos + off + 1) * kernel.dt))
        pos += off + 1
    samples.extend(state.copy() for _ in steps[si:])
    return state, events, samples
