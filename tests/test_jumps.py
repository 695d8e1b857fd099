"""Jump engine: operator sets, transforms, stepping, whole trajectories."""

import numpy as np
import pytest

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
    _step_loop,
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
    transform_jumps,
)
from qtraj.master import LindbladModel, integrate_master, lindblad_rhs
from qtraj.qcore import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    bell_state,
    computational_ket,
    density,
    random_density_matrix,
    random_unitary,
    step_grid,
    tensor_product,
)
from qtraj.recovery import apply_frame, frame_from_events


def _per_step(model, jumps, rho0, dt, t_max, seed, sample_times):
    """The trajectory on the per-step reference loop and the same draws."""
    n_steps, steps = step_grid(dt, t_max, sample_times)
    us = _trajectory_rng(seed).random(n_steps)
    state, events, samples = _step_loop(_JumpKernel(jumps, model, dt), rho0.astype(complex), us, steps)
    return TrajectoryRecord(final_state=state, samples=samples, events=events)


def _collective_jumps():
    """Collective decay sigma_- x 1 + 1 x sigma_-: its J†J is not diagonal."""
    op = tensor_product([SIGMA_MINUS, np.eye(2)]) + tensor_product([np.eye(2), SIGMA_MINUS])
    return [JumpOperator(op, 0, "collective")]


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
        kernel = _JumpKernel(canonical_jumps(model), model, 1e-3)
        with pytest.raises(InvariantViolation, match="normalization"):
            kernel.apply_jump(density(computational_ket("0")), 0)

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
        frame = frame_from_events(rec.events, 2, include_undetected=True)[-1]
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
        # sample for three times
        with pytest.raises(ValueError, match="sample_times"):
            run_jump_trajectory(model, make_jumps(model), bell_rho, 1e-3, 0.3, 1, sample_times=times)

    def test_path_chosen_from_jump_set(self, rng, bell_rho):
        # every single-qubit set has diagonal M and J†J and takes the scan;
        # a collective set takes the per-step loop
        model = LindbladModel(2, 1.0, 0.3)
        u = UnravelingTransform(random_unitary(2, rng))
        base = canonical_jumps(model)
        mixed = transform_jumps(base[:2], u) + transform_jumps(base[2:], u)
        for jumps in (canonical_jumps(model), protecting_jumps(LindbladModel(2, 1.0, 1.0)), mixed):
            assert _JumpKernel(jumps, model, 1e-3).m_diagonal
        assert not _JumpKernel(_collective_jumps(), model, 1e-3).m_diagonal
        times = [0.0, 0.2, 0.3]
        for seed in (3, 4):
            fast = run_jump_trajectory(model, mixed, bell_rho, 1e-3, 0.3, seed, sample_times=times)
            slow = _per_step(model, mixed, bell_rho, 1e-3, 0.3, seed, times)
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
