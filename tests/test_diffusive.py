"""Diffusive engine: noise correlations, stepping, currents, exact-unitary path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj.diffusive import (
    PROTECTING_U,
    _SMEContext,
    check_noise_correlation,
    combine_currents,
    current_expectations,
    homodyne_currents,
    noise_factor,
    protecting_unitary,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
    sme_update,
    step_diffusive,
    step_protecting_unitary,
)
from qtraj.entangle import concurrence, trace_distance
from qtraj.jumps import _trajectory_rng, trajectory_seed
from qtraj.master import LindbladModel, integrate_master, lindblad_rhs
from qtraj.qcore import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    computational_ket,
    density,
    embed,
    random_density_matrix,
    random_unitary,
    tensor_product,
)
from qtraj.recovery import recover_unitary, unitarity_defect

IDENTITY_FRAME = np.tile(np.eye(2, dtype=complex), (2, 1, 1))


def _random_symmetric_u(rng, norm=0.8):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = 0.5 * (a + a.T)
    return norm * u / np.linalg.norm(u, 2)


def _admissible_u(rng):
    # Takagi form V diag(s) V^T: complex symmetric with two-norm max(s) <= 1
    v = random_unitary(2, rng)
    return v @ np.diag(rng.uniform(0.0, 1.0, 2)) @ v.T


_rates = st.one_of(st.just(0.0), st.floats(0.01, 3.0))


class TestNoiseFactor:
    def test_uncorrelated_channels(self):
        l = noise_factor(np.zeros((2, 2)))
        # independent complex increments: each real part has variance dt/2
        assert np.allclose(l @ l.T, 0.5 * np.eye(4), atol=1e-12)

    def test_protecting_covariance_structure(self):
        l = noise_factor(PROTECTING_U)
        cov = l @ l.T
        # from dxi_- = (dW1 + i dW2)/sqrt2, dxi_+ = (-dW1 + i dW2)/sqrt2:
        expected = 0.5 * np.array(
            [
                [1, 0, -1, 0],
                [0, 1, 0, 1],
                [-1, 0, 1, 0],
                [0, 1, 0, 1],
            ]
        )
        assert np.allclose(cov, expected, atol=1e-12)

    def test_factor_reproduces_covariance_for_random_u(self, rng):
        for _ in range(25):
            u = _random_symmetric_u(rng, norm=rng.uniform(0.1, 1.0))
            l = noise_factor(u)
            cov = l @ l.T
            # reconstruct the complex correlations from the real covariance
            dxi_cov = np.empty((2, 2), dtype=complex)
            dxi_rel = np.empty((2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    a, b, c, d = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
                    dxi_cov[i, j] = cov[a, c] + cov[b, d] + 1j * (cov[b, c] - cov[a, d])
                    dxi_rel[i, j] = cov[a, c] - cov[b, d] + 1j * (cov[b, c] + cov[a, d])
            assert np.allclose(dxi_cov, np.eye(2), atol=1e-10)
            assert np.allclose(dxi_rel, u, atol=1e-10)

    def test_sampled_moments_protecting(self):
        rng = np.random.default_rng(5)
        l = noise_factor(PROTECTING_U)
        n, dt = 1_000_000, 1.0
        z = rng.standard_normal((4, n))
        v = l @ z * np.sqrt(dt)
        dxi = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
        tol = 4 * np.sqrt(2) * dt / np.sqrt(n)
        assert abs((dxi[0] * dxi[1]).mean() - PROTECTING_U[0, 1] * dt) < tol
        assert abs((dxi[0] * np.conj(dxi[0])).mean() - dt) < tol
        assert abs((dxi[0] * dxi[0]).mean()) < tol
        assert abs((dxi[0] * np.conj(dxi[1])).mean()) < tol

    def test_norm_violation_is_psd_failure(self):
        with pytest.raises(ValueError, match="two-norm"):
            noise_factor(np.array([[0.0, -1.5], [-1.5, 0.0]]))

    def test_check_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_noise_correlation(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestStepDiffusive:
    def test_zero_rates_state_frozen_currents_noise(self, rng, bell_rho):
        model = LindbladModel(2, 0.0, 0.0)
        state, currents = step_diffusive(bell_rho, model, PROTECTING_U, rng, 1e-3)
        assert np.max(np.abs(state - bell_rho)) < 1e-14
        assert len(currents) == 2
        assert abs(currents[0].y_minus) > 0  # pure noise, almost surely nonzero

    def test_protecting_current_expectations_vanish(self, rng):
        model = LindbladModel(2, 1.0, 1.0)
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            det_m, det_p = current_expectations(rho, model, PROTECTING_U, 0)
            assert abs(det_m) < 1e-14 and abs(det_p) < 1e-14

    def test_nonprotecting_expectations_generally_nonzero(self, rng):
        model = LindbladModel(1, 1.0, 1.0)
        rho = random_density_matrix(2, rng)
        det_m, _ = current_expectations(rho, model, np.zeros((2, 2)), 0)
        assert abs(det_m) > 1e-3

    def test_mean_increment_matches_rhs(self, rng, bell_rho):
        # noise and second-order terms are mean-zero by construction; the
        # brute-force sample average over fixed rho must reproduce L[rho] dt
        model = LindbladModel(2, 1.0, 1.0)
        ctx = _SMEContext(model, PROTECTING_U)
        dt, n = 1e-3, 40000
        acc = np.zeros((4, 4), dtype=complex)
        sq = np.sqrt(dt)
        for _ in range(n):
            dw = rng.standard_normal(ctx.n_noise) * sq
            acc += sme_update(bell_rho, ctx, dw, dt)
        mean_step = acc / n - bell_rho
        expected = lindblad_rhs(model, bell_rho) * dt
        assert np.max(np.abs(mean_step - expected)) < 5e-4

    def test_eta_below_one_rejected(self, rng, bell_rho):
        model = LindbladModel(2, 1.0, 1.0, eta=0.9)
        with pytest.raises(ValueError, match="eta"):
            step_diffusive(bell_rho, model, PROTECTING_U, rng, 1e-3)
        with pytest.raises(ValueError, match="eta"):
            run_diffusive_trajectory(model, PROTECTING_U, bell_rho, 1e-3, 0.01, 1)
        # the current means do not depend on eta
        assert current_expectations(bell_rho, model, np.zeros((2, 2)), 0) == current_expectations(
            bell_rho, LindbladModel(2, 1.0, 1.0), np.zeros((2, 2)), 0
        )


class TestCurrentMeans:
    @staticmethod
    def _closed_form(rho, model, u, qubit):
        # sqrt(gamma_i) <sigma_i> + sum_j u_ij sqrt(gamma_j) <sigma_j†>, channels (-, +)
        ops = [embed(op, qubit, model.n_qubits) for op in (SIGMA_MINUS, SIGMA_PLUS)]
        g = np.sqrt([model.gamma_minus[qubit], model.gamma_plus[qubit]])
        e = np.array([np.trace(op @ rho) for op in ops])
        e_dag = np.array([np.trace(op.conj().T @ rho) for op in ops])
        return g * e + u @ (g * e_dag)

    @pytest.mark.parametrize(
        "gamma_plus, expected", [(0.0, 0.5), (0.25, 0.25), (1.0, 0.0)]
    )
    def test_plus_state_protecting_u(self, gamma_plus, expected):
        # the u-term carries the rate of the channel it reads: at zero and low
        # temperature the protecting records are not pure noise
        plus = density((computational_ket("0") + computational_ket("1")) / np.sqrt(2.0))
        det_m, det_p = current_expectations(
            plus, LindbladModel(1, 1.0, gamma_plus), PROTECTING_U, 0
        )
        assert abs(det_m - expected) < 1e-14 and abs(det_p + expected) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        gm=st.lists(_rates, min_size=2, max_size=2),
        gp=st.lists(_rates, min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_expectations_and_step_currents_match_closed_form(self, n, gm, gp, seed):
        rng = np.random.default_rng(seed)
        model = LindbladModel(n, gm[:n], gp[:n])
        u = _admissible_u(rng)
        rho = random_density_matrix(2**n, rng)
        dt = 1.0  # keeps dw/dt of order one, so its subtraction below is exact to 1e-15
        _, currents = step_diffusive(rho, model, u, np.random.default_rng(seed), dt)
        ctx = _SMEContext(model, u)
        dxi = (ctx.c @ np.random.default_rng(seed).standard_normal(ctx.n_noise)).reshape(n, 2)
        for qubit in range(n):
            want = self._closed_form(rho, model, u, qubit)
            got = np.array(current_expectations(rho, model, u, qubit))
            assert np.max(np.abs(got - want)) < 1e-14
            c = currents[qubit]
            stepped = np.array([c.y_minus, c.y_plus]) - dxi[qubit] / dt
            assert np.max(np.abs(stepped - want)) < 1e-14


class TestSchemeReference:
    """sme_update against the Milstein-type scheme written out from its definitions."""

    @staticmethod
    def _noise_directions(rho, model, ctx):
        # b_m(rho) = sum_c sqrt(gamma_c) [conj(C_cm) (sigma_c - <sigma_c>) rho + h.c.],
        # quadratic in rho (dxi_c* = sum_m conj(C_cm) dw_m)
        out = []
        for m in range(ctx.n_noise):
            b = np.zeros_like(rho)
            for c, (rate, coef) in enumerate(zip(model.rates, ctx.c[:, m].conj())):
                sig = embed((SIGMA_MINUS, SIGMA_PLUS)[c % 2], c // 2, model.n_qubits)
                a = np.sqrt(rate) * coef * (sig @ rho - np.trace(sig @ rho) * rho)
                b += a + a.conj().T
            out.append(b)
        return out

    def _reference(self, rho, model, ctx, dw, dt):
        b = self._noise_directions(rho, model, ctx)
        new = rho + lindblad_rhs(model, rho) * dt + sum(w * bm for w, bm in zip(dw, b))
        eps = 0.5  # central differences of a quadratic map are exact at any step
        for l, bl in enumerate(b):
            plus = self._noise_directions(rho + eps * bl, model, ctx)
            minus = self._noise_directions(rho - eps * bl, model, ctx)
            for m in range(ctx.n_noise):
                weight = dw[m] * dw[l] - (dt if m == l else 0.0)
                new = new + 0.5 * weight * (plus[m] - minus[m]) / (2 * eps)
        new = 0.5 * (new + new.conj().T)
        return new / new.trace().real

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        gm=st.lists(_rates, min_size=2, max_size=2),
        gp=st.lists(_rates, min_size=2, max_size=2),
        protecting=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_update_matches_definition(self, n, gm, gp, protecting, seed):
        rng = np.random.default_rng(seed)
        model = LindbladModel(n, gm[:n], gp[:n])
        ctx = _SMEContext(model, PROTECTING_U if protecting else _admissible_u(rng))
        rho = random_density_matrix(2**n, rng)
        dt = 1e-3
        dw = rng.standard_normal(ctx.n_noise) * np.sqrt(dt)
        want = self._reference(rho, model, ctx, dw, dt)
        assert np.max(np.abs(sme_update(rho, ctx, dw, dt) - want)) < 1e-12


class TestCurrents:
    def test_zero_maps_to_zero(self):
        assert homodyne_currents(0.0, 0.0) == (0.0, 0.0)

    def test_unit_i12(self):
        y_minus, y_plus = combine_currents(1.0, 0.0)
        assert y_minus == 1.0 and y_plus == -1.0

    def test_round_trip_random_complex(self, rng):
        for _ in range(50):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            i12, i34 = homodyne_currents(y[0], y[1])
            back = combine_currents(i12, i34)
            assert abs(back[0] - y[0]) < 1e-14 and abs(back[1] - y[1]) < 1e-14

    def test_protecting_records_are_real(self, rng, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        _, currents = step_diffusive(bell_rho, model, PROTECTING_U, rng, 1e-3)
        for c in currents:
            # Y+ = -conj(Y-): the homodyne pair is exactly real
            assert abs(c.y_plus + np.conj(c.y_minus)) < 1e-12
            i12, i34 = homodyne_currents(c.y_minus, c.y_plus)
            assert abs(i12.imag) < 1e-12 and abs(i34.imag) < 1e-12


class TestProtectingUnitary:
    def test_zero_noise_identity(self):
        assert np.array_equal(protecting_unitary(1.0, 0.0, 0.0), np.eye(2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=20,
        )
    )
    def test_broadcast_is_unitary_and_matches_scalar_calls(self, draws):
        gamma, dw1, dw2 = (np.array(col) for col in zip(*draws))
        batch = protecting_unitary(gamma, dw1, dw2)
        assert batch.shape == (len(draws), 2, 2)
        defect = batch.conj().transpose(0, 2, 1) @ batch - np.eye(2)
        assert np.max(np.abs(defect)) <= 1e-12
        for u, g, a, b in zip(batch, gamma, dw1, dw2):
            assert np.array_equal(u, protecting_unitary(g, a, b))

    def test_step_preserves_concurrence_and_purity(self, rng, bell_rho):
        state, frame = bell_rho, IDENTITY_FRAME
        for _ in range(50):
            state, frame = step_protecting_unitary(state, 1.0, rng, 1e-3, frame)
            assert abs(concurrence(state) - 1.0) < 1e-12
            assert abs(np.trace(state @ state).real - 1.0) < 1e-12

    def test_matched_noise_agreement_order(self, rng, bell_rho):
        # same underlying draws pushed through the general stepper and the
        # exact unitary: one-step difference shrinks ~ dt^{3/2}
        model = LindbladModel(2, 1.0, 1.0)
        ctx = _SMEContext(model, u=PROTECTING_U)
        z = rng.standard_normal(ctx.n_noise)
        diffs = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            dw = z * np.sqrt(dt)
            sme_state = sme_update(bell_rho, ctx, dw, dt)
            # the context's own factor: dxi_- = (dW1 + i dW2)/sqrt(2) per qubit
            dxi_minus = (ctx.c @ dw)[0::2]
            us = protecting_unitary(
                1.0, np.sqrt(2.0) * dxi_minus.real, np.sqrt(2.0) * dxi_minus.imag
            )
            full = np.kron(us[0], us[1])
            exact = full @ bell_rho @ full.conj().T
            diffs.append(np.max(np.abs(sme_state - exact)))
        assert diffs[0] / diffs[1] > 2.2  # 2^{3/2} ~ 2.83 expected
        assert diffs[1] / diffs[2] > 2.2

    def test_full_trajectory_recovery(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        rec = run_protecting_unitary_trajectory(model, bell_rho, 1e-3, 1.0, seed=21)
        assert abs(concurrence(rec.final_state) - 1.0) < 1e-10
        restored = recover_unitary(rec.final_state, rec.frame)
        assert trace_distance(restored, bell_rho) < 1e-8

    def test_frame_path_matches_stepwise_conjugation(self, bell_rho):
        # the trajectory forms its sample states from the frames alone; the
        # per-step conjugation of step_protecting_unitary on the same draws
        # is the reference (t_max crosses one reunitarization)
        model = LindbladModel(2, 1.0, 1.0)
        dt, seed, times = 1e-3, 33, [0.0, 0.25, 1.0, 1.5]
        rec = run_protecting_unitary_trajectory(
            model, bell_rho, dt, 1.5, seed, sample_times=times
        )
        rng = _trajectory_rng(seed)
        state, frame = bell_rho, IDENTITY_FRAME
        stepped = [bell_rho]
        for _ in range(1500):
            state, frame = step_protecting_unitary(state, 1.0, rng, dt, frame)
            stepped.append(state)
        for t, sample, fr in zip(times, rec.samples, rec.sample_frames):
            assert unitarity_defect(fr) <= 1e-12
            f = tensor_product(fr)
            assert np.array_equal(sample, f @ bell_rho @ f.conj().T)
            assert np.max(np.abs(sample - stepped[round(t / dt)])) < 1e-12
        assert unitarity_defect(rec.frame) <= 1e-12
        assert np.max(np.abs(rec.final_state - stepped[-1])) < 1e-12

    def test_requires_balanced_rates(self, bell_rho):
        with pytest.raises(ValueError, match="balanced|gamma"):
            run_protecting_unitary_trajectory(
                LindbladModel(2, 1.0, 0.5), bell_rho, 1e-3, 0.1, seed=1
            )

    @pytest.mark.parametrize(
        "model", [LindbladModel(2, 0.0, 0.0), LindbladModel(2, 1.0, 1.0, eta=0.9)],
        ids=["zero_rates", "eta_below_one"],
    )
    def test_rejects_what_run_ensemble_validates(self, model, bell_rho):
        with pytest.raises(ValueError, match="positive|eta"):
            run_protecting_unitary_trajectory(model, bell_rho, 1e-3, 0.1, seed=1)

    def test_three_qubit_recovery(self):
        from qtraj.qcore import computational_ket, density

        model = LindbladModel(3, 1.0, 1.0)
        ghz = (computational_ket("000") + computational_ket("111")) / np.sqrt(2)
        rho0 = density(ghz)
        rec = run_protecting_unitary_trajectory(model, rho0, 1e-3, 0.5, seed=12)
        assert trace_distance(recover_unitary(rec.final_state, rec.frame), rho0) < 1e-8


class TestEnsembleAgainstMaster:
    @pytest.mark.parametrize("u", [np.zeros((2, 2)), PROTECTING_U], ids=["u0", "uprot"])
    def test_mean_state_tracks_master(self, u, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        n_traj, t_max, dt = 250, 0.25, 1e-3
        acc = np.zeros((4, 4), dtype=complex)
        for i in range(n_traj):
            rec = run_diffusive_trajectory(
                model, u, bell_rho, dt, t_max, trajectory_seed(41, i)
            )
            acc += rec.final_state
        master = integrate_master(model, bell_rho, [t_max])
        assert trace_distance(acc / n_traj, master.at(t_max)) < 4 / np.sqrt(n_traj)

    def test_sme_concurrence_near_constant_protecting(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        rec = run_diffusive_trajectory(
            model, PROTECTING_U, bell_rho, 1e-4, 0.2, seed=77,
            sample_times=[0.1, 0.2],
        )
        for s in rec.samples:
            assert abs(concurrence(s) - 1.0) < 5e-3


@pytest.mark.parametrize(
    "run",
    [
        lambda model, rho, times: run_diffusive_trajectory(
            model, PROTECTING_U, rho, 1e-3, 0.3, 1, sample_times=times
        ),
        lambda model, rho, times: run_protecting_unitary_trajectory(
            model, rho, 1e-3, 0.3, 1, sample_times=times
        ),
    ],
    ids=["sme", "exact_unitary"],
)
@pytest.mark.parametrize(
    "times",
    [[0.1, 0.1, 0.2], [0.2, 0.1], [0.00037], [0.1, np.nan]],
    ids=["duplicate", "descending", "off_grid", "nan"],
)
def test_bad_sample_times_rejected(run, times, bell_rho):
    # duplicates once returned one sample for three times
    with pytest.raises(ValueError, match="sample_times"):
        run(LindbladModel(2, 1.0, 1.0), bell_rho, times)
