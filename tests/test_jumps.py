"""Jump engine: operator sets, transforms, stepping, whole trajectories."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtraj.diffusive import (
    PROTECTING_U,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
)
from qtraj.entangle import concurrence, trace_distance
from qtraj.jumps import (
    JumpOperator,
    UnravelingTransform,
    TrajectoryRecord,
    _JumpKernel,
    _first_run,
    _kernel,
    _kernel_of,
    _scan,
    _trajectory_rng,
    canonical_jumps,
    check_rate_step,
    jump_probabilities,
    no_jump_operator,
    protecting_jumps,
    protecting_transform,
    run_jump_trajectory,
    step_jump,
    trajectory_seed,
    trajectory_seeds,
    transform_jumps,
)
from qtraj.master import LindbladModel, integrate_master, lindblad_rhs
from qtraj.qcore import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    FieldErrors,
    InvariantViolation,
    _checked_grid,
    bell_state,
    computational_ket,
    density,
    random_density_matrix,
    random_unitary,
    step_grid,
    tensor_product,
    validate_density_matrix,
)
from qtraj.recovery import apply_frame, frame_from_events


def _per_step(model, jumps, rho0, dt, t_max, seed, sample_times):
    """The trajectory as one ``_JumpKernel.step`` per uniform of the same draws."""
    n_steps, steps = step_grid(dt, t_max, sample_times)
    us = _trajectory_rng(seed).random(n_steps)
    kernel = _JumpKernel(jumps, model.dim, model.eta, dt)
    state = rho0.astype(complex)
    wanted = set(steps)
    samples = [state.copy()] if 0 in wanted else []
    events = []
    for step, u in enumerate(us):
        state, event = kernel.step(state, u, (step + 1) * dt)
        if event is not None:
            events.append(event)
        if step + 1 in wanted:
            samples.append(state.copy())
    return TrajectoryRecord(final_state=state, samples=samples, events=events)


def _collective_jumps(rate=1.0):
    """Collective decay sigma_- x 1 + 1 x sigma_-: its J†J is not diagonal."""
    op = tensor_product([SIGMA_MINUS, np.eye(2)]) + tensor_product([np.eye(2), SIGMA_MINUS])
    return [JumpOperator(np.sqrt(rate) * op, 0, "collective")]


def _random_nonlocal_jumps(rate=5.0):
    """Two fixed random two-qubit jumps, each of spectral norm sqrt(rate): M is dense."""
    ops = np.random.default_rng(2027).normal(size=(2, 4, 4, 2)) @ [1.0, 1.0j]
    return [
        JumpOperator(np.sqrt(rate) * op / np.linalg.norm(op, 2), 0, label)
        for op, label in zip(ops, ("a", "b"))
    ]


class _FixedUniform:
    """Duck-typed stand-in for a Generator when one forced draw is needed."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _phase_aligned(a, b):
    """max |a - e^{i phi} b| with the phase chosen from the largest entry of b."""
    k = np.argmax(np.abs(b))
    phase = a.flat[k] / b.flat[k]
    return np.max(np.abs(a - phase * b)), abs(abs(phase) - 1.0)


class TestCanonicalJumps:
    def test_zero_rate_jumps_dropped(self):
        jumps = canonical_jumps(LindbladModel(1, 1.0, 0.0))
        assert len(jumps) == 1
        assert jumps[0].label == "minus"
        assert np.allclose(jumps[0].matrix, np.array([[0, 1], [0, 0]]), atol=1e-15)

    def test_balanced_two_qubits_count(self):
        jumps = canonical_jumps(LindbladModel(2, 0.8, 0.8))
        assert len(jumps) == 4
        assert [(j.qubit, j.label) for j in jumps] == [
            (0, "minus"), (0, "plus"), (1, "minus"), (1, "plus"),
        ]

    def test_completeness_sum_is_rate_times_identity(self):
        # sigma+ sigma- + sigma- sigma+ = 1 by hand algebra, so the balanced
        # single-qubit set sums to gamma * I: the no-jump operator is scalar
        g = 0.7
        jumps = canonical_jumps(LindbladModel(1, g, g))
        total = sum(j.matrix.conj().T @ j.matrix for j in jumps)
        assert np.allclose(total, g * np.eye(2), atol=1e-15)


class TestTransformJumps:
    def test_identity_transform(self):
        jumps = canonical_jumps(LindbladModel(1, 1.0, 0.5))
        out = transform_jumps(jumps, UnravelingTransform(np.eye(2)))
        for a, b in zip(out, jumps):
            assert np.array_equal(a.matrix, b.matrix)

    def test_protecting_transform_gives_pauli_jumps(self):
        g = 1.0
        jumps = canonical_jumps(LindbladModel(1, g, g))
        out = transform_jumps(jumps, protecting_transform(), labels=("x", "y"))
        dev, phase_dev = _phase_aligned(out[0].matrix, np.sqrt(g / 2) * SIGMA_X)
        assert dev < 1e-15 and phase_dev < 1e-15
        dev, phase_dev = _phase_aligned(out[1].matrix, np.sqrt(g / 2) * SIGMA_Y)
        assert dev < 1e-15 and phase_dev < 1e-15
        # and the conjugation action is exactly the sigma_y action
        rho = random_density_matrix(2, np.random.default_rng(3))
        assert np.allclose(
            out[1].matrix @ rho @ out[1].matrix.conj().T,
            (g / 2) * SIGMA_Y @ rho @ SIGMA_Y,
            atol=1e-15,
        )

    def test_no_jump_operator_invariant_under_random_unitaries(self, rng):
        jumps = canonical_jumps(LindbladModel(1, 1.3, 0.4))
        before = sum(j.matrix.conj().T @ j.matrix for j in jumps)
        for _ in range(100):
            u = UnravelingTransform(random_unitary(2, rng))
            out = transform_jumps(jumps, u)
            after = sum(j.matrix.conj().T @ j.matrix for j in out)
            assert np.max(np.abs(after - before)) < 1e-12

    def test_rectangular_left_unitary(self):
        # mapping 2 jumps to 3 with U†U = 1 keeps the dissipative sum
        u3 = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        q, _ = np.linalg.qr(np.arange(9).reshape(3, 3) + 1j)
        u = UnravelingTransform(q @ u3)
        jumps = canonical_jumps(LindbladModel(1, 1.0, 1.0))
        out = transform_jumps(jumps, u)
        assert len(out) == 3
        before = sum(j.matrix.conj().T @ j.matrix for j in jumps)
        after = sum(j.matrix.conj().T @ j.matrix for j in out)
        assert np.max(np.abs(after - before)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnravelingTransform(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        # NaN once passed: its deviation NaN > 1e-12 is False
        with pytest.raises(ValueError, match="not left-unitary"):
            UnravelingTransform(np.full((2, 2), np.nan))

    def test_rejects_mixed_qubits(self):
        jumps = canonical_jumps(LindbladModel(2, 1.0, 1.0))
        with pytest.raises(ValueError):
            transform_jumps(jumps, protecting_transform())


class TestProtectingTransform:
    def test_unitary_by_hand(self):
        u = protecting_transform().u_matrix
        # hand 2x2 product of (1/sqrt2)[[1,1],[i,-i]] with its dagger
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15

    def test_balanced_jumps_unitary_proportional(self):
        jumps = protecting_jumps(LindbladModel(2, 0.9, 0.9))
        for j in jumps:
            e = j.matrix.conj().T @ j.matrix
            assert np.max(np.abs(e - e[0, 0] * np.eye(4))) < 1e-15

    def test_unbalanced_rates_not_unitary_proportional(self):
        jumps = canonical_jumps(LindbladModel(1, 1.0, 0.3))
        out = transform_jumps(jumps, protecting_transform())
        defects = []
        for j in out:
            e = j.matrix.conj().T @ j.matrix
            defects.append(np.max(np.abs(e - e[0, 0] * np.eye(2))))
        assert max(defects) > 0.1

    def test_protecting_jumps_reject_unbalanced(self):
        with pytest.raises(ValueError):
            protecting_jumps(LindbladModel(1, 1.0, 0.5))


class TestJumpProbabilities:
    def test_protecting_state_independent(self, rng, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        dt = 1e-3
        p, p_nj = jump_probabilities(jumps, bell_rho, dt)
        assert np.allclose(p, 5e-4, atol=1e-17)
        assert abs(p_nj - (1 - 2e-3)) < 1e-15
        # variance over random states is numerically zero
        samples = np.array(
            [jump_probabilities(jumps, random_density_matrix(4, rng), dt)[0] for _ in range(40)]
        )
        assert np.max(samples.var(axis=0)) < 1e-20

    def test_dark_state(self):
        model = LindbladModel(2, 1.0, 0.0)
        jumps = canonical_jumps(model)
        p, p_nj = jump_probabilities(jumps, density(computational_ket("00")), 1e-3)
        assert np.allclose(p, 0.0, atol=1e-18)
        assert p_nj == 1.0

    def test_excited_single_qubit(self):
        model = LindbladModel(1, 1.0, 0.0)
        jumps = canonical_jumps(model)
        p, _ = jump_probabilities(jumps, density(computational_ket("1")), 1e-3)
        assert abs(p[0] - 1e-3) < 1e-18

    def test_step_size_misuse_raises(self, bell_rho):
        jumps = protecting_jumps(LindbladModel(2, 1.0, 1.0))
        with pytest.raises(ValueError, match="reduce dt"):
            jump_probabilities(jumps, bell_rho, 0.2)
        # a NaN state once passed the negativity test and came back as (nan, ..., nan)
        with pytest.raises(InvariantViolation, match="jump probability nan is negative or NaN"):
            jump_probabilities(jumps, np.full_like(bell_rho, np.nan), 1e-3)


class TestStepJump:
    def test_protecting_step_preserves_concurrence(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        # force every outcome: each of the 4 jumps, then no-jump
        for u in (0.0, 6e-4, 1.2e-3, 1.7e-3, 0.9):
            state, event = step_jump(bell_rho, jumps, model, 1e-3, _FixedUniform(u))
            assert abs(concurrence(state) - 1.0) < 1e-12
            assert (event is None) == (u > 2e-3)

    def test_canonical_click_destroys_entanglement(self, bell_rho):
        model = LindbladModel(2, 1.0, 0.0)
        jumps = canonical_jumps(model)
        state, event = step_jump(bell_rho, jumps, model, 1e-3, _FixedUniform(0.0))
        assert event is not None and event.label == "minus" and event.qubit == 0
        assert concurrence(state) < 1e-12

    def test_exhaustive_outcome_mean_matches_rhs(self, rng):
        # oracle: weighted average over the complete outcome set; equals
        # rho + L[rho] dt up to the O((gamma dt)^2) scheme error
        dt = 1e-3
        for eta in (1.0, 0.6):
            model = LindbladModel(2, 1.0, 1.0, eta=eta)
            jumps = protecting_jumps(model)
            rho = random_density_matrix(4, rng)
            p, p_nj = jump_probabilities(jumps, rho, dt)
            m = no_jump_operator(jumps, dt)
            mean = p_nj * (m @ rho @ m) / np.trace(m @ rho @ m).real
            for prob, j in zip(p, jumps):
                out = j.matrix @ rho @ j.matrix.conj().T
                mean = mean + prob * out / out.trace().real
            expected = rho + lindblad_rhs(model, rho) * dt
            assert np.max(np.abs(mean - expected)) < 1e-5

    def test_sampled_mean_matches_rhs(self, rng, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        dt, n = 1e-3, 20000
        acc = np.zeros((4, 4), dtype=complex)
        for _ in range(n):
            state, _ = step_jump(bell_rho, jumps, model, dt, rng)
            acc += state
        expected = bell_rho + lindblad_rhs(model, bell_rho) * dt
        assert np.max(np.abs(acc / n - expected)) < 2e-3  # ~4 sigma at n=20000

    def test_zero_probability_outcome_never_selected(self):
        # the dark state has p=0, so even a 0.0 draw lands in the no-jump segment
        model = LindbladModel(1, 1.0, 0.0)
        jumps = canonical_jumps(model)
        ground = density(computational_ket("0"))
        state, event = step_jump(ground, jumps, model, 1e-3, _FixedUniform(0.0))
        assert event is None
        assert np.allclose(state, ground, atol=1e-15)

    def test_normalization_guard(self):
        # applying a jump to a state it annihilates must be flagged, not NaN
        from qtraj.jumps import _JumpKernel
        from qtraj.qcore import InvariantViolation

        model = LindbladModel(1, 1.0, 0.0)
        kernel = _JumpKernel(canonical_jumps(model), model.dim, model.eta, 1e-3)
        with pytest.raises(InvariantViolation, match="normalization"):
            kernel.apply_jump(density(computational_ket("0")), 0)

    def test_walk_names_the_step_of_a_click_that_leaves_no_state(self):
        # a click on an excited population of 1e-16 at the uniform of step 4
        model = LindbladModel(1, 1.0, 0.0)
        kernel = _JumpKernel(canonical_jumps(model), model.dim, model.eta, 1e-3)
        us = np.full(10, 0.5)
        us[3] = 0.0
        rho0 = np.diag([1.0 - 1e-16, 1e-16]).astype(complex)
        message = r"^step 4: normalization failure after jump 0: trace 9\.97e-17$"
        with pytest.raises(InvariantViolation, match=message):
            _scan(kernel, rho0, us, [0, 10])

    def test_rate_step_rule(self, bell_rho):
        # the engine and ExperimentConfig.validate share one bound, with the
        # 1e-15 slack that admits gamma*dt = 0.01 exactly
        model = LindbladModel(2, 2.0, 2.0)
        check_rate_step(model, 0.005)
        with pytest.raises(ValueError, match="gamma_max"):
            check_rate_step(model, 0.006)
        with pytest.raises(ValueError, match="gamma_max"):
            run_jump_trajectory(model, protecting_jumps(model), bell_rho, 0.006, 0.06, 1)


class TestNoJumpOperator:
    def test_balanced_proportional_to_identity_and_commutes(self):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        m = no_jump_operator(jumps, 1e-3)
        assert np.max(np.abs(m - m[0, 0] * np.eye(4))) < 1e-12
        for j in jumps:
            assert np.max(np.abs(m @ j.matrix - j.matrix @ m)) < 1e-12

    def test_unbalanced_not_scalar(self):
        model = LindbladModel(1, 1.0, 0.2)
        m = no_jump_operator(canonical_jumps(model), 1e-3)
        assert np.max(np.abs(m - m[0, 0] * np.eye(2))) > 1e-5

    def test_empty_set_rejected(self):
        # zero rates drop every channel; the empty list once raised a bare IndexError
        jumps = canonical_jumps(LindbladModel(2, 0.0, 0.0))
        assert jumps == []
        with pytest.raises(ValueError, match="dimension of M is unknown without a jump"):
            no_jump_operator(jumps, 1e-3)


_ENGINES = {
    "jump": lambda model, rho, times: run_jump_trajectory(
        model, protecting_jumps(model), rho, 1e-3, 0.3, 1, sample_times=times
    ),
    "sme": lambda model, rho, times: run_diffusive_trajectory(
        model, PROTECTING_U, rho, 1e-3, 0.3, 1, sample_times=times
    ),
    "exact_unitary": lambda model, rho, times: run_protecting_unitary_trajectory(
        model, rho, 1e-3, 0.3, 1, sample_times=times
    ),
}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize("times", [None, [0.0, 0.1, 0.3]], ids=["no_samples", "three"])
def test_every_engine_returns_one_record(engine, times, bell_rho):
    rec = _ENGINES[engine](LindbladModel(2, 1.0, 1.0), bell_rho, times)
    nt = 0 if times is None else len(times)
    assert isinstance(rec, TrajectoryRecord)
    assert isinstance(rec.samples, list) and len(rec.samples) == nt
    if engine == "exact_unitary":
        assert rec.sample_frames.shape == (nt, 2, 2, 2)
        assert rec.frame.shape == (2, 2, 2)
    else:
        assert rec.frame is None and rec.sample_frames is None


_BALANCED = LindbladModel(2, 1.0, 1.0)
_SEEDED = {
    "jump": lambda rho, seed: run_jump_trajectory(_BALANCED, protecting_jumps(_BALANCED), rho, 1e-3, 0.3, seed),
    "sme": lambda rho, seed: run_diffusive_trajectory(_BALANCED, PROTECTING_U, rho, 1e-3, 0.3, seed),
    "exact_unitary": lambda rho, seed: run_protecting_unitary_trajectory(_BALANCED, rho, 1e-3, 0.3, seed),
}


@pytest.mark.parametrize("engine", sorted(_SEEDED))
@pytest.mark.parametrize(
    "seed, words",
    [(-1, rf"an integer in \[0, {2**128 - 1}\], got -1"),
     (2**128, rf"an integer in \[0, {2**128 - 1}\], got {2**128}"),
     (1.5, r"an integer >= 0, got 1.5"), (True, r"an integer >= 0, got True")],
    ids=["negative", "past_two_words", "float", "bool"],
)
def test_every_engine_names_a_bad_seed(engine, seed, words, bell_rho):
    # these once raised a bare OverflowError or TypeError naming no field
    with pytest.raises(FieldErrors, match=rf"^seed: must be {words}$"):
        _SEEDED[engine](bell_rho, seed)


class TestTrajectories:
    def test_zero_rates_trivial(self, bell_rho):
        model = LindbladModel(2, 0.0, 0.0)
        rec = run_jump_trajectory(model, canonical_jumps(model), bell_rho, 1e-3, 0.1, seed=5)
        assert rec.events == []
        assert np.array_equal(rec.final_state, bell_rho)

    def test_fast_path_matches_generic_bitwise(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0, eta=0.8)
        jumps = protecting_jumps(model)
        times = [0.0, 0.25, 0.5]
        for seed in (11, 12, 13, 14):
            fast = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.5, seed, sample_times=times)
            slow = _per_step(model, jumps, bell_rho, 1e-3, 0.5, seed, times)
            assert len(fast.samples) == len(slow.samples) == len(times)
            assert fast.events == slow.events
            assert np.array_equal(fast.final_state, slow.final_state)
            for a, b in zip(fast.samples, slow.samples):
                assert np.array_equal(a, b)

    def test_diagonal_path_matches_generic(self, bell_rho):
        # canonical sets have diagonal M and E; the vectorized scan must agree
        # with the per-step reference loop
        model = LindbladModel(2, 1.0, 0.25, eta=0.9)
        jumps = canonical_jumps(model)
        times = [0.0, 0.2, 0.5]
        for seed in (5, 6, 7, 8):
            fast = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.5, seed, sample_times=times)
            slow = _per_step(model, jumps, bell_rho, 1e-3, 0.5, seed, times)
            assert len(fast.samples) == len(slow.samples) == len(times)
            assert fast.events == slow.events
            assert np.max(np.abs(fast.final_state - slow.final_state)) < 1e-12
            for a, b in zip(fast.samples, slow.samples):
                assert np.max(np.abs(a - b)) < 1e-12

    def test_protecting_concurrence_constant_and_state_recoverable(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        rec = run_jump_trajectory(
            model, jumps, bell_rho, 1e-3, 1.0, seed=99, sample_times=np.arange(0, 1.01, 0.1)
        )
        for state in rec.samples:
            assert abs(concurrence(state) - 1.0) < 1e-9
        # Eq-5 product form: the final state is the frame conjugation of rho0
        frame = frame_from_events([replace(e, detected=True) for e in rec.events], 2)[-1]
        assert np.max(np.abs(rec.final_state - apply_frame(bell_rho, frame))) < 1e-12

    def test_detected_count_poisson_rate(self, bell_rho):
        # total click rate is state-independent 2*gamma for the protecting set
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        n_traj, t_max = 300, 1.0
        counts = [
            len(run_jump_trajectory(model, jumps, bell_rho, 1e-3, t_max,
                                    trajectory_seed(7, i)).events)
            for i in range(n_traj)
        ]
        mean = np.mean(counts)
        sigma = np.sqrt(2 * t_max / n_traj)
        assert abs(mean - 2 * t_max) < 3 * sigma

    def test_undetected_fraction(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0, eta=0.5)
        jumps = protecting_jumps(model)
        flags = []
        for i in range(200):
            rec = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 1.0, trajectory_seed(3, i))
            flags.extend(ev.detected for ev in rec.events)
        frac = np.mean(flags)
        assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / len(flags))

    def test_ensemble_mean_matches_master_random_unraveling(self, rng, bell_rho):
        # unraveling invariance at small scale: mean over 400 trajectories of a
        # randomly transformed balanced set tracks the master solution
        model = LindbladModel(2, 1.0, 1.0)
        base = canonical_jumps(model)
        u = UnravelingTransform(random_unitary(2, rng))
        jumps = []
        for q in (0, 1):
            jumps.extend(transform_jumps([base[2 * q], base[2 * q + 1]], u))
        t_max, n_traj = 0.5, 400
        times = [0.25, 0.5]
        acc = {t: np.zeros((4, 4), dtype=complex) for t in times}
        for i in range(n_traj):
            rec = run_jump_trajectory(
                model, jumps, bell_rho, 1e-3, t_max, trajectory_seed(17, i), sample_times=times
            )
            for t, s in zip(times, rec.samples):
                acc[t] += s
        master = integrate_master(model, bell_rho, times)
        for t in times:
            assert trace_distance(acc[t] / n_traj, master.at(t)) < 4 / np.sqrt(n_traj)

    def test_eta_one_recovery_round_trip(self, bell_rho):
        from qtraj.entangle import fidelity_to_pure
        from qtraj.recovery import recover

        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        for i in range(20):
            rec = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 2.0, trajectory_seed(29, i))
            frame = frame_from_events(rec.events, 2)[-1]
            fid = fidelity_to_pure(recover(rec.final_state, frame), bell_state())
            assert fid > 1 - 1e-9

    def test_step_grid_validation(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        with pytest.raises(ValueError, match="grid"):
            run_jump_trajectory(model, jumps, bell_rho, 1e-3, 1.0, 1, sample_times=[0.00037])

    @pytest.mark.parametrize(
        "model, make_jumps",
        [
            (LindbladModel(2, 1.0, 1.0), protecting_jumps),
            (LindbladModel(2, 1.0, 0.25), canonical_jumps),
            (LindbladModel(2, 1.0, 0.0), lambda model: _collective_jumps()),
        ],
        ids=["protecting_scan", "canonical_scan", "collective_loop"],
    )
    @pytest.mark.parametrize(
        "times",
        [[0.1, 0.1, 0.2], [0.2, 0.1], [0.00037], [0.1, np.nan]],
        ids=["duplicate", "descending", "off_grid", "nan"],
    )
    def test_bad_sample_times_rejected_on_both_paths(self, bell_rho, model, make_jumps, times):
        # duplicates once slipped through the per-step loop and returned one
        # sample for three times; grids are memoized, errors are not
        for _ in range(2):
            with pytest.raises(ValueError, match="sample_times"):
                run_jump_trajectory(model, make_jumps(model), bell_rho, 1e-3, 0.3, 1, sample_times=times)

    def test_path_chosen_from_jump_set(self, rng, bell_rho):
        # every single-qubit set has diagonal M and scans unrotated; a
        # collective set scans in the eigenbasis of sum J†J, where M is diagonal
        model = LindbladModel(2, 1.0, 0.3)
        u = UnravelingTransform(random_unitary(2, rng))
        base = canonical_jumps(model)
        mixed = transform_jumps(base[:2], u) + transform_jumps(base[2:], u)
        for jumps in (canonical_jumps(model), protecting_jumps(LindbladModel(2, 1.0, 1.0)), mixed):
            kernel = _JumpKernel(jumps, model.dim, model.eta, 1e-3)
            assert kernel.basis is None
            assert np.array_equal(kernel.m_diag, kernel.m_op.diagonal().real)
        for jumps in (_collective_jumps(), _random_nonlocal_jumps()):
            kernel = _JumpKernel(jumps, model.dim, model.eta, 1e-3)
            v = kernel.basis
            assert v is not None
            assert np.max(np.abs(v.conj().T @ kernel.m_op @ v - np.diag(kernel.m_diag))) < 1e-15
        times = [0.0, 0.2, 0.3]
        for seed in (3, 4):
            fast = run_jump_trajectory(model, mixed, bell_rho, 1e-3, 0.3, seed, sample_times=times)
            slow = _per_step(model, mixed, bell_rho, 1e-3, 0.3, seed, times)
            assert len(fast.samples) == len(slow.samples) == len(times)
            assert fast.events == slow.events
            for a, b in zip(fast.samples + [fast.final_state], slow.samples + [slow.final_state]):
                assert np.max(np.abs(a - b)) < 1e-12

    def test_three_qubit_protection_via_recovery(self):
        # the scheme is local, so it is not tied to qubit pairs: a GHZ triple
        # comes back exactly once the detected frame is undone
        from qtraj.recovery import recover

        model = LindbladModel(3, 1.0, 1.0)
        jumps = protecting_jumps(model)
        ghz = (computational_ket("000") + computational_ket("111")) / np.sqrt(2)
        rho0 = density(ghz)
        for i in range(10):
            rec = run_jump_trajectory(model, jumps, rho0, 1e-3, 0.5, trajectory_seed(31, i))
            frame = frame_from_events(rec.events, 3)[-1]
            assert trace_distance(recover(rec.final_state, frame), rho0) < 1e-9


_SCAN_DT, _SCAN_STEPS = 1e-3, 300
_SCAN_SETS = {
    # finite temperature: M is diagonal but not scalar, so samples are rescaled
    "canonical_finite_T": (LindbladModel(2, 5.0, 2.0, eta=0.7), canonical_jumps, 1e-12),
    # balanced rates: M is scalar, so samples are plain copies, bit for bit
    "protecting": (LindbladModel(2, 5.0, 5.0, eta=0.7), protecting_jumps, 0.0),
    # M has off-diagonal entries: the scan runs in the eigenbasis of sum J†J
    "collective": (LindbladModel(2, 5.0, 0.0, eta=0.7), lambda model: _collective_jumps(5.0), 1e-12),
    "random_nonlocal": (LindbladModel(2, 5.0, 0.0, eta=0.7), lambda model: _random_nonlocal_jumps(), 1e-12),
}


@pytest.mark.parametrize("name", sorted(_SCAN_SETS))
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    inner=st.sets(st.integers(1, _SCAN_STEPS - 1), max_size=12),
    sample_clicks=st.booleans(),
)
def test_scan_matches_per_step_loop(name, seed, inner, sample_clicks):
    # sample steps include 0 and the last step, so one no-click run holds
    # several samples; with sample_clicks the steps just before and just
    # after every click are sampled as well
    model, make_jumps, tol = _SCAN_SETS[name]
    jumps = make_jumps(model)
    rho0 = density(bell_state())
    t_max = _SCAN_DT * _SCAN_STEPS
    steps = {0, _SCAN_STEPS} | inner
    if sample_clicks:
        clicks = _per_step(model, jumps, rho0, _SCAN_DT, t_max, seed, None).events
        after = {int(round(e.time / _SCAN_DT)) for e in clicks}
        steps |= after | {k - 1 for k in after}
    steps = sorted(steps)
    slow = _per_step(model, jumps, rho0, _SCAN_DT, t_max, seed, _SCAN_DT * np.array(steps))
    us = _trajectory_rng(seed).random(_SCAN_STEPS)
    state, events, samples = _scan(_kernel(jumps, model, _SCAN_DT), rho0.astype(complex), us, steps)
    assert events == slow.events
    assert len(samples) == len(slow.samples) == len(steps)
    for a, b in zip(samples + [state], slow.samples + [slow.final_state]):
        if tol == 0.0:
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) < tol


_BRANCH_SETS = dict(
    _SCAN_SETS,
    # the paper's zero-temperature baseline: a click at most per qubit, most runs never leave rho0's branch
    zeroT_canonical=(LindbladModel(2, 5.0, 0.0, eta=1.0), canonical_jumps, 1e-12),
)


def _scanned(kernel, rho0, seed, steps):
    return _scan(kernel, rho0.astype(complex), _trajectory_rng(seed).random(_SCAN_STEPS), steps)


@pytest.mark.parametrize("name", sorted(_BRANCH_SETS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    other=st.integers(0, 2**32 - 1),
    inner=st.sets(st.integers(1, _SCAN_STEPS - 1), max_size=12),
)
def test_record_does_not_depend_on_the_branch_memo(name, seed, other, inner):
    # a cold kernel builds rho0's branch for this seed; a warm one reads the
    # branch another seed built, whose record is then scribbled over. Sample
    # steps include 0, t_max and the steps on both sides of every click
    model, make_jumps, _ = _BRANCH_SETS[name]
    jumps = make_jumps(model)
    rho0 = density(bell_state())
    _, clicks, _ = _scanned(_JumpKernel(jumps, model.dim, model.eta, _SCAN_DT), rho0, seed, [0])
    after = {int(round(e.time / _SCAN_DT)) for e in clicks}
    steps = sorted({0, _SCAN_STEPS} | inner | after | {k - 1 for k in after})
    cold = _scanned(_JumpKernel(jumps, model.dim, model.eta, _SCAN_DT), rho0, seed, steps)
    warm_kernel = _JumpKernel(jumps, model.dim, model.eta, _SCAN_DT)
    state, _, samples = _scanned(warm_kernel, rho0, other, steps)
    for arr in samples + [state]:
        arr[...] = np.nan
    warm = _scanned(warm_kernel, rho0, seed, steps)
    assert warm[1] == cold[1]
    assert len(warm[2]) == len(cold[2]) == len(steps)
    for a, b in zip(warm[2] + [warm[0]], cold[2] + [cold[0]]):
        assert a.tobytes() == b.tobytes()


class TestBranchMemo:
    def test_record_writes_leave_the_next_trajectory_alone(self, bell_rho):
        # zero T: trajectory 0 (seed 3) never clicks, so all its samples are the branch's
        model = LindbladModel(2, 1.0, 0.0, eta=1.0)
        jumps, times = canonical_jumps(model), np.array([0.0, 0.1, 0.2])
        first = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.2, 3, sample_times=times)
        assert first.events == []
        expected = [s.copy() for s in first.samples]
        first.samples[0][...] = 0.0
        first.samples[2][0, 0] = 7.0
        first.final_state[...] = 0.0
        again = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.2, 3, sample_times=times)
        for a, b in zip(again.samples, expected):
            assert np.array_equal(a, b)
        assert np.array_equal(again.final_state, expected[-1])

    @pytest.mark.parametrize(
        "model, make_jumps",
        [(LindbladModel(2, 1.0, 0.0), canonical_jumps), (LindbladModel(2, 1.0, 1.0), protecting_jumps),
         (LindbladModel(2, 1.0, 0.0), lambda model: _collective_jumps())],
        ids=["diagonal", "scalar", "rotated"],
    )
    def test_memo_is_read_only_and_keyed_by_value(self, bell_rho, model, make_jumps):
        kernel = _JumpKernel(make_jumps(model), model.dim, model.eta, 1e-3)
        bell = bell_rho.astype(complex).tobytes()
        run = _first_run(kernel, bell, 300, (0, 100, 300))
        assert _first_run(kernel, bell_rho.astype(complex).tobytes(), 300, (0, 100, 300)) is run
        arrays = [run.state, run.kept, run.p, run.rot, run.curve]
        for arr in [a for a in arrays if isinstance(a, np.ndarray)]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        kept = run.kept.copy()
        ground = density(computational_ket("00")).astype(complex).tobytes()
        assert _first_run(kernel, ground, 300, (0, 100, 300)) is not run
        assert _first_run(kernel, bell, 300, (0, 300)) is not run
        # the earlier entry is unchanged, and still the one returned
        assert np.array_equal(run.state, bell_rho) and np.array_equal(run.kept, kept)
        assert _first_run(kernel, bell, 300, (0, 100, 300)) is run

    def test_threads_fill_the_memos_concurrently(self, bell_rho):
        # 4 threads on disjoint seeds against one cold kernel, a cold grid memo
        # and a cold first-run memo, two of them from another rho0, so that
        # first runs are built while others read them: every record is the serial one
        model = LindbladModel(2, 1.0, 0.0, eta=1.0)
        jumps = canonical_jumps(model)
        rhos = [bell_rho, density(computational_ket("11"))]
        times = np.array([0.0, 0.05, 0.1, 0.15, 0.2])

        def record(t, seed):
            r = run_jump_trajectory(model, jumps, rhos[t % 2], 1e-3, 0.2, seed, times)
            return r.final_state.tobytes(), [s.tobytes() for s in r.samples], repr(r.events)

        work = [[1000 * t + i for i in range(40)] for t in range(4)]
        serial = [[record(t, seed) for seed in seeds] for t, seeds in enumerate(work)]
        threaded, errors = [None] * len(work), []

        def run(t):
            try:
                threaded[t] = [record(t, seed) for seed in work[t]]
            except BaseException as exc:  # re-raised in the main thread
                errors.append(exc)

        _kernel_of.cache_clear()
        _checked_grid.cache_clear()
        _first_run.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(len(work))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert threaded == serial
        assert any(serial[t][i][2] == "[]" for t in range(4) for i in range(40))  # some never click

    def test_a_failing_branch_is_never_stored(self):
        # sum(p) = 0.2 on the excited state: every call raises, none reads a memo
        model = LindbladModel(1, 100.0, 0.0)
        kernel = _JumpKernel(canonical_jumps(model), model.dim, model.eta, 2e-3)
        excited = density(computational_ket("1")).astype(complex)
        _first_run.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="reduce dt"):
                _scan(kernel, excited, np.full(10, 0.5), [0, 10])
            assert _first_run.cache_info().currsize == 0
        assert _first_run.cache_info().hits == 0


def _transformed_jumps(model, u):
    """Every qubit's (minus, plus) pair mixed by the one left-unitary ``u``."""
    base = canonical_jumps(model)
    return [j for q in range(model.n_qubits) for j in transform_jumps(base[2 * q : 2 * q + 2], u)]


_VALID_STEPS = 200


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["zero_T", "balanced", "protecting", "transformed", "collective"]),
    n=st.integers(1, 2),
    eta=st.sampled_from([1.0, 0.6]),
    draw=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**128 - 1),
    inner=st.sets(st.integers(1, _VALID_STEPS - 1), max_size=8),
)
def test_every_sample_and_final_state_is_a_density_matrix(kind, n, eta, draw, seed, inner):
    # random mixed rho0 and, for "transformed", a random left-unitary mix of
    # each finite-T pair; sample steps include 0 and t_max
    rng = np.random.default_rng(draw)
    n = 2 if kind == "collective" else n
    gamma_plus = {"zero_T": 0.0, "collective": 0.0, "transformed": 2.0}.get(kind, 5.0)
    model = LindbladModel(n, 5.0, gamma_plus, eta=eta)
    jumps = {
        "zero_T": canonical_jumps,
        "balanced": canonical_jumps,
        "protecting": protecting_jumps,
        "transformed": lambda m: _transformed_jumps(m, UnravelingTransform(random_unitary(2, rng))),
        "collective": lambda m: _collective_jumps(5.0),
    }[kind](model)
    rho0 = random_density_matrix(model.dim, rng)
    times = _SCAN_DT * np.array(sorted({0, _VALID_STEPS} | inner))
    rec = run_jump_trajectory(model, jumps, rho0, _SCAN_DT, _SCAN_DT * _VALID_STEPS, seed, times)
    assert len(rec.samples) == len(times)
    for state in rec.samples + [rec.final_state]:
        validate_density_matrix(state)


class TestClickDecidedOnce:
    """The walk decides whether a step clicks, the kernel which: sums that round apart agree."""

    def test_scan_click_where_the_run_total_rounds_above_the_click_sum(self):
        # the run total at offset 1 is 0.001, the p.sum() of the state there
        # 0.0009999999999999998: a draw between them once crashed the scan
        model = LindbladModel(2, 1.0, 0.0, eta=1.0)
        kernel = _kernel(canonical_jumps(model), model, 1e-3)
        us = np.full(1000, 0.999)
        us[1] = 0.0009999999999999998
        _, events, _ = _scan(kernel, density(bell_state()).astype(complex), us, [0, 1000])
        assert len(events) == 1
        assert events[0].detected and events[0].label == "minus"
        assert events[0].time == pytest.approx(2e-3)

    def test_step_at_the_segments_end_is_a_detected_click_at_unit_eta(self):
        # the cumulative array ends one ulp below p.sum(): a draw there once
        # fell in the empty undetected segment of the last channel
        model = LindbladModel(4, [1.0, 0.7, 0.3, 0.9], [0.2, 0.5, 0.8, 0.1], eta=1.0)
        kernel = _kernel(canonical_jumps(model), model, 1e-3)
        rho = random_density_matrix(16, np.random.default_rng(1))
        p = kernel.probabilities(rho)
        u = kernel.cumulative(p)[-1]
        assert u < p.sum()
        _, event = kernel.step(rho, u, 0.0)
        assert event is not None and event.detected
        k = [(op.qubit, op.label) for op in kernel.jumps].index((event.qubit, event.label))
        assert p[k] > 0.0


_PROBS = st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 0.1)), min_size=1, max_size=8)
_ETAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(p=_PROBS, eta=_ETAS, below=st.floats(0.0, 1.0, exclude_max=True), past=st.floats(0.0, 1.0))
def test_channel_is_the_bisect_rule_and_stays_inside_past_the_end(p, eta, below, past):
    p = np.array(p)
    sub = np.empty(2 * len(p))  # [eta p_0, (1 - eta) p_0, eta p_1, ...]
    sub[0::2] = eta * p
    sub[1::2] = (1.0 - eta) * p
    cum = np.cumsum(sub)
    assume(cum[-1] > 0.0)
    kernel = _JumpKernel([], 2, eta, 1e-3)  # channel reads only eta
    u = below * cum[-1]
    if u < cum[-1]:
        seg = min(int(np.searchsorted(cum, u, side="right")), 2 * len(p) - 1)
        assert kernel.channel(p, u) == (seg // 2, seg % 2 == 0)
    for u in (cum[-1], np.nextafter(cum[-1], 1.0), cum[-1] * (1.0 + past)):
        k, detected = kernel.channel(p, u)
        assert 0 <= k < len(p)
        assert sub[2 * k + (0 if detected else 1)] > 0.0
        assert detected or eta < 1.0


class TestKernelMemo:
    def test_matrix_changed_in_place_gets_a_new_kernel(self, bell_rho):
        model = LindbladModel(2, 1.0, 0.25)
        jumps = canonical_jumps(model)
        first = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 1.0, 4, sample_times=[0.5, 1.0])
        assert any(e.qubit == 0 and e.label == "minus" for e in first.events)
        jumps[0].matrix[...] = 0.0  # same list, same objects, new values: no qubit-0 decay
        fresh = [JumpOperator(op.matrix.copy(), op.qubit, op.label) for op in jumps]
        second = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 1.0, 4, sample_times=[0.5, 1.0])
        rebuilt = run_jump_trajectory(model, fresh, bell_rho, 1e-3, 1.0, 4, sample_times=[0.5, 1.0])
        assert second.events == rebuilt.events != first.events
        for a, b in zip(second.samples + [second.final_state], rebuilt.samples + [rebuilt.final_state]):
            assert np.array_equal(a, b)

    def test_step_jump_sees_a_matrix_changed_in_place(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        jumps = protecting_jumps(model)
        step_jump(bell_rho, jumps, model, 1e-3, _FixedUniform(0.0))
        jumps[0].matrix[...] = jumps[1].matrix  # channel 0 now applies sigma_y
        new, event = step_jump(bell_rho, jumps, model, 1e-3, _FixedUniform(0.0))
        j = jumps[1].matrix
        expected = j @ bell_rho @ j.conj().T
        assert event.label == "x"
        assert np.max(np.abs(new - expected / expected.trace().real)) < 1e-15

    def test_power_table_built_once_per_kernel(self, bell_rho):
        # one read-only table serves every trajectory; a shorter grid reads its prefix
        model = LindbladModel(2, 1.0, 0.25)
        jumps = canonical_jumps(model)
        kernel = _kernel(jumps, model, 1e-3)
        first = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.3, 1, sample_times=[0.3])
        table = kernel.powers(300)
        run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.3, 2, sample_times=[0.3])
        assert kernel.powers(300).base is table.base is not None
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
        assert np.array_equal(kernel.powers(100), table[:101])
        again = run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.3, 1, sample_times=[0.3])
        assert again.events == first.events
        assert np.array_equal(again.samples[0], first.samples[0])

    def test_cached_kernel_is_read_only(self):
        model = LindbladModel(2, 1.0, 0.25)
        kernel = _kernel(canonical_jumps(model), model, 1e-3)
        assert kernel is _kernel(canonical_jumps(model), model, 1e-3)
        rotated = _kernel(_collective_jumps(), model, 1e-3)
        assert kernel.basis is None and rotated.basis is not None
        arrays = (kernel.j_stack, kernel.e_stack, kernel.e_flat, kernel.m_op, kernel.e_sum, kernel.m_diag)
        for arr in arrays + (rotated.basis, rotated.e_sum, rotated.m_diag):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        for op in kernel.jumps:
            assert not op.matrix.flags.writeable


class TestTrajectoryKeys:
    """One digest per call and one re-keyed stream, both pinned to numpy."""

    @pytest.mark.parametrize(
        "master",
        # 1 to 4 32-bit words of SeedSequence entropy
        [0, 1, 1905, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**70 + 3, 2**100 + 9],
    )
    def test_keys_match_seed_sequence(self, master):
        # key word 0 the index, key word 1 the first uint64 of SeedSequence(master)
        indices = list(range(5000)) + [2**32 - 1]
        keys = trajectory_seeds(master, indices)
        digest = int(np.random.SeedSequence(master).generate_state(1, np.uint64)[0])
        assert keys == [digest << 64 | i for i in indices]
        assert keys == [trajectory_seed(master, i) for i in indices]

    @pytest.mark.parametrize("indices", [[2**32], [0, 2**40], [-1], [0.5]])
    def test_index_beyond_one_word_rejected(self, indices):
        with pytest.raises(ValueError, match=r"indices must be integers in \[0, 2\*\*32\)"):
            trajectory_seeds(7, indices)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**128 - 1),
        earlier=st.lists(
            st.tuples(st.sampled_from(["random", "normal", "uint32"]), st.integers(1, 9)),
            max_size=4,
        ),
        k=st.integers(1, 40),
    )
    def test_rekeyed_stream_is_a_fresh_stream(self, seed, earlier, k):
        # arbitrary earlier use of the shared stream, ending on an odd number
        # of 32-bit draws that leaves half a 64-bit word buffered
        for kind, n in earlier + [("uint32", 3)]:
            rng = _trajectory_rng(seed ^ n)
            if kind == "random":
                rng.random(n)
            elif kind == "normal":
                rng.standard_normal(n)
            else:
                for _ in range(n):
                    rng.integers(0, 2**32, dtype=np.uint32)
        uniforms = _trajectory_rng(seed).random(k)
        assert np.array_equal(uniforms, np.random.Generator(np.random.Philox(key=seed)).random(k))
        rng = _trajectory_rng(seed)
        rng.integers(0, 2**32, dtype=np.uint32)
        normals = _trajectory_rng(seed).standard_normal(k)
        fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal(k)
        assert np.array_equal(normals, fresh)

    def test_streams_are_per_thread(self, bell_rho):
        # every engine on disjoint seeds from 4 threads, switching as often as the
        # interpreter allows, draws what a serial run of the same seeds draws
        model = LindbladModel(2, 1.0, 1.0)
        jumps = canonical_jumps(model)
        engines = [
            lambda seed: run_jump_trajectory(model, jumps, bell_rho, 1e-3, 0.2, seed, [0.1]),
            lambda seed: run_diffusive_trajectory(model, PROTECTING_U, bell_rho, 1e-3, 0.02, seed, [0.01]),
            lambda seed: run_protecting_unitary_trajectory(model, bell_rho, 1e-3, 0.2, seed, [0.1]),
        ]

        def record(engine, seed):
            r = engine(seed)
            return r.final_state.tobytes(), [s.tobytes() for s in r.samples], repr(r.events)

        work = [[(e, 1000 * t + i) for i in range(30) for e in range(len(engines))] for t in range(4)]
        serial = [[record(engines[e], seed) for e, seed in jobs] for jobs in work]
        threaded, errors = [None] * len(work), []

        def run(t):
            try:
                threaded[t] = [record(engines[e], seed) for e, seed in work[t]]
            except BaseException as exc:  # re-raised in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(len(work))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
        mismatched = [(t, i) for t in range(len(work)) for i in range(len(work[t]))
                      if threaded[t][i] != serial[t][i]]
        assert not mismatched, f"{len(mismatched)} threaded trajectories drew another seed's stream"
