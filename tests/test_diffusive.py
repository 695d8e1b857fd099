"""Diffusive engine: noise correlations, stepping, currents, exact-unitary path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj import diffusive
from qtraj.diffusive import (
    PROTECTING_U,
    _SMEContext,
    check_noise_correlation,
    combine_currents,
    current_expectations,
    homodyne_currents,
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
    dissipator,
    embed,
    from_pauli_coordinates,
    pauli_coordinates,
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


def _factor(u) -> np.ndarray:
    return diffusive._noise_correlation(u)[1]


class TestNoiseFactor:
    def test_uncorrelated_channels(self):
        c = _factor(np.zeros((2, 2)))
        # independent complex increments: dxi_i dxi_j* = delta_ij dt, dxi_i dxi_j = 0
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(c @ c.T, 0.0, atol=1e-12)

    def test_protecting_covariance_structure(self):
        c = _factor(PROTECTING_U)
        # from dxi_- = (dW1 + i dW2)/sqrt2, dxi_+ = (-dW1 + i dW2)/sqrt2:
        assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(c @ c.T, PROTECTING_U, atol=1e-12)

    def test_factor_reproduces_covariance_for_random_u(self, rng):
        us = [_random_symmetric_u(rng, norm=rng.uniform(0.1, 1.0)) for _ in range(25)]
        v = random_unitary(2, rng)
        for u in us + [v @ np.diag([1.0, 0.5]) @ v.T]:  # the last: rank-deficient, rotated
            c = _factor(u)
            assert c.dtype == complex and c.shape[0] == 2
            assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-10)
            assert np.allclose(c @ c.T, u, atol=1e-10)

    def test_one_column_per_nonzero_covariance_eigenvalue(self):
        # the covariance of V diag(s) V^T has eigenvalues (1 +- s_i) / 2: one null
        # eigenvalue per unit singular value, whose column C drops
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_unitary(2, rng)
            for s, m in [((0.0, 0.0), 4), ((1.0, 1.0), 2), ((1.0, 0.5), 3), ((0.7, 0.2), 4)]:
                u = v @ np.diag(s) @ v.T
                c = _factor(u)
                assert c.shape == (2, m)
                assert np.max(np.abs(c @ c.conj().T - np.eye(2))) < 1e-14
                assert np.max(np.abs(c @ c.T - u)) < 1e-14
        assert _factor(PROTECTING_U).shape == (2, 2)

    def test_sampled_moments_protecting(self):
        rng = np.random.default_rng(5)
        c = _factor(PROTECTING_U)
        n, dt = 1_000_000, 1.0
        z = rng.standard_normal((c.shape[1], n))
        dxi = c @ z * np.sqrt(dt)
        tol = 4 * np.sqrt(2) * dt / np.sqrt(n)
        assert abs((dxi[0] * dxi[1]).mean() - PROTECTING_U[0, 1] * dt) < tol
        assert abs((dxi[0] * np.conj(dxi[0])).mean() - dt) < tol
        assert abs((dxi[0] * dxi[0]).mean()) < tol
        assert abs((dxi[0] * np.conj(dxi[1])).mean()) < tol

    @pytest.mark.parametrize("n", [1, 2])
    def test_rotated_rank_deficient_u_drops_its_null_channel(self, n):
        # the covariance of V diag(1, 0.5) V^T has one null eigenvalue, which
        # eigh once returned as +6e-18 to +2e-16: a fourth channel per qubit
        # of noise amplitude ~1e-8 was kept
        rng = np.random.default_rng(0)
        model = LindbladModel(n, 1.0, 0.5)
        for _ in range(20):
            v = random_unitary(2, rng)
            assert _SMEContext(model, v @ np.diag([1.0, 0.5]) @ v.T).n_noise == 3 * n

    def test_two_norm_read_from_the_covariance_spectrum(self):
        # the check reads ||u||_2 = 1 - 2 lambda_min off the covariance that the factor reproduces
        rng = np.random.default_rng(19)
        for _ in range(500):
            u = _random_symmetric_u(rng, norm=rng.uniform(0.0, 1.5))
            norm = np.linalg.norm(u, 2)
            if norm <= 1.0:
                c = _factor(u)
                # the real covariance of (Re dxi, Im dxi), which C's columns reproduce
                parts = np.concatenate([c.real, c.imag])
                assert abs(1.0 - 2.0 * np.linalg.eigvalsh(parts @ parts.T)[0] - norm) <= 1e-14
                continue
            with pytest.raises(ValueError, match="two-norm") as err:
                check_noise_correlation(u)
            assert abs(float(str(err.value).split()[3]) - norm) <= 1e-11  # its 12 digits
        for _ in range(50):
            check_noise_correlation(_random_symmetric_u(rng, norm=1.0 - 1e-9))
            with pytest.raises(ValueError, match="two-norm 1.000000001 exceeds 1"):
                check_noise_correlation(_random_symmetric_u(rng, norm=1.0 + 1e-9))

    def test_u_checked_once_per_call(self, monkeypatch, bell_rho):
        # and None means the protecting u, resolved in that one check
        calls = []
        rule = diffusive._noise_correlation
        monkeypatch.setattr(diffusive, "_noise_correlation", lambda u: calls.append(u) or rule(u))
        model = LindbladModel(2, 1.0, 1.0)
        step_diffusive(bell_rho, model, None, np.random.default_rng(0), 1e-3)
        assert len(calls) == 1
        assert np.array_equal(
            current_expectations(bell_rho, model, None), current_expectations(bell_rho, model, PROTECTING_U)
        )
        assert len(calls) == 3

    def test_norm_violation_is_psd_failure(self):
        with pytest.raises(ValueError, match="two-norm"):
            _factor(np.array([[0.0, -1.5], [-1.5, 0.0]]))

    def test_check_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_noise_correlation(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_check_rejects_non_finite(self, bad, bell_rho):
        u = np.array([[bad, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="must be finite"):
            check_noise_correlation(u)
        with pytest.raises(ValueError, match="must be finite"):
            run_diffusive_trajectory(LindbladModel(2, 1.0, 1.0), u, bell_rho, 1e-3, 0.01, 1)


class TestStepDiffusive:
    def test_zero_rates_state_frozen_currents_noise(self, rng, bell_rho):
        model = LindbladModel(2, 0.0, 0.0)
        state, currents = step_diffusive(bell_rho, model, PROTECTING_U, rng, 1e-3)
        assert np.max(np.abs(state - bell_rho)) < 1e-14
        assert currents.shape == (2, 2)  # one (Y_-, Y_+) row per qubit
        assert np.all(np.abs(currents) > 0)  # pure noise, almost surely nonzero

    def test_protecting_current_expectations_vanish(self, rng):
        model = LindbladModel(2, 1.0, 1.0)
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            assert np.max(np.abs(current_expectations(rho, model, PROTECTING_U))) < 1e-14

    def test_nonprotecting_expectations_generally_nonzero(self, rng):
        model = LindbladModel(1, 1.0, 1.0)
        rho = random_density_matrix(2, rng)
        assert abs(current_expectations(rho, model, np.zeros((2, 2)))[0, 0]) > 1e-3

    def test_mean_increment_matches_rhs(self, rng, bell_rho):
        # noise and second-order terms are mean-zero by construction; the
        # brute-force sample average over fixed rho must reproduce L[rho] dt
        # (the same fixed r goes through every step of one block-built map stream)
        model = LindbladModel(2, 1.0, 1.0)
        ctx = _SMEContext(model, PROTECTING_U)
        dt, n = 1e-3, 40000
        r = pauli_coordinates(bell_rho)
        acc = np.zeros(16)
        dws = rng.standard_normal((n, ctx.n_noise)) * np.sqrt(dt)
        for maps, w in diffusive._step_maps(ctx, dws, dt):
            for maps_s, w_s in zip(maps, w):
                acc += diffusive._sme_step(r, maps_s, w_s)
        mean_step = from_pauli_coordinates(acc / n) - bell_rho
        expected = lindblad_rhs(model, bell_rho) * dt
        assert np.max(np.abs(mean_step - expected)) < 5e-4

    def test_eta_below_one_rejected(self, rng, bell_rho):
        model = LindbladModel(2, 1.0, 1.0, eta=0.9)
        with pytest.raises(ValueError, match="eta"):
            step_diffusive(bell_rho, model, PROTECTING_U, rng, 1e-3)
        with pytest.raises(ValueError, match="eta"):
            run_diffusive_trajectory(model, PROTECTING_U, bell_rho, 1e-3, 0.01, 1)
        # the current means do not depend on eta
        assert np.array_equal(
            current_expectations(bell_rho, model, np.zeros((2, 2))),
            current_expectations(bell_rho, LindbladModel(2, 1.0, 1.0), np.zeros((2, 2))),
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
        ((det_m, det_p),) = current_expectations(plus, LindbladModel(1, 1.0, gamma_plus), PROTECTING_U)
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
        want = np.array([self._closed_form(rho, model, u, qubit) for qubit in range(n)])
        assert np.max(np.abs(current_expectations(rho, model, u) - want)) < 1e-14
        assert np.max(np.abs(currents - dxi / dt - want)) < 1e-14


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
        got = from_pauli_coordinates(sme_update(pauli_coordinates(rho), ctx, dw, dt))
        assert np.max(np.abs(got - want)) < 1e-12


def _measured_operators(model, ctx):
    # L_m = sum_c sqrt(gamma_c) conj(C_cm) sigma_c, rebuilt from qcore.embed
    sig = [
        embed(op, a, model.n_qubits) for a in range(model.n_qubits) for op in (SIGMA_MINUS, SIGMA_PLUS)
    ]
    return [
        sum(np.sqrt(g) * np.conj(ctx.c[c, m]) * s for c, (g, s) in enumerate(zip(model.rates, sig)))
        for m in range(ctx.n_noise)
    ]


class TestCoordinateMaps:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        gm=st.lists(_rates, min_size=3, max_size=3),
        gp=st.lists(_rates, min_size=3, max_size=3),
        protecting=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_superoperators_match_matrix_maps(self, n, gm, gp, protecting, seed):
        rng = np.random.default_rng(seed)
        model = LindbladModel(n, gm[:n], gp[:n])
        ctx = _SMEContext(model, PROTECTING_U if protecting else _admissible_u(rng))
        d = 2**n
        assert ctx.a.shape == (ctx.n_noise, d * d, d * d) and ctx.drift.shape == (d * d, d * d)
        rho = random_density_matrix(d, rng)
        r = pauli_coordinates(rho)
        ls = _measured_operators(model, ctx)
        for a, l in zip(ctx.a, ls):
            want = l @ rho + rho @ l.conj().T
            assert np.max(np.abs(from_pauli_coordinates(a @ r) - want)) < 1e-13
        drift = from_pauli_coordinates(ctx.drift @ r)
        assert np.max(np.abs(drift - sum(dissipator(l, rho) for l in ls))) < 1e-13
        assert np.max(np.abs(drift - lindblad_rhs(model, rho))) < 1e-13


class TestEnginePaths:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        protecting=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_matches_step_loop(self, n, protecting, seed):
        # one _trajectory_rng stream: the trajectory's block draw and coordinate
        # loop against step_diffusive's per-step draw and matrix round trip
        rng = np.random.default_rng(seed)
        model = LindbladModel(n, rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 2.0, n))
        u = PROTECTING_U if protecting else _admissible_u(rng)
        rho0 = random_density_matrix(2**n, rng)
        dt, times = 1e-3, [0.0, 0.05, 0.13, 0.2]
        rec = run_diffusive_trajectory(model, u, rho0, dt, 0.2, seed, sample_times=times)
        stream = _trajectory_rng(seed)
        state, stepped = rho0, [rho0]
        for _ in range(200):
            state, _ = step_diffusive(state, model, u, stream, dt)
            stepped.append(state)
        assert len(rec.samples) == len(times)
        for t, sample in zip(times, rec.samples):
            assert np.max(np.abs(sample - stepped[round(t / dt)])) < 1e-12
        assert np.max(np.abs(rec.final_state - stepped[-1])) < 1e-12


def _rank_deficient_u(s):
    # the real covariance of diag(1, s) has an exactly-zero eigenvalue, so
    # each qubit carries three noise channels, not four
    return np.diag([1.0, s]).astype(complex)


def _block_steps(ctx):
    # the number of steps whose maps _step_maps forms together, read from its first block
    maps, _ = next(diffusive._step_maps(ctx, np.zeros((10**4, ctx.n_noise)), 1e-3))
    return len(maps)


def _edge_steps(block, n_steps):
    # every step on, just before and just after a block edge, and step 0
    edges = range(block, n_steps + 1, block)
    return sorted({0} | {s + k for s in edges for k in (-1, 0, 1) if 0 <= s + k <= n_steps})


class TestBlockedSteps:
    """The trajectory loop forms its per-step maps a block at a time; one step does one."""

    @staticmethod
    def _check_against_step_loop(model, u, rho0, dt, n_steps, steps, seed):
        rec = run_diffusive_trajectory(model, u, rho0, dt, n_steps * dt, seed, sample_times=np.array(steps) * dt)
        stream = _trajectory_rng(seed)
        state, stepped = rho0, [rho0]
        for _ in range(n_steps):
            state, _ = step_diffusive(state, model, u, stream, dt)
            stepped.append(state)
        assert len(rec.samples) == len(steps)
        for step, sample in zip(steps, rec.samples):
            assert np.max(np.abs(sample - stepped[step])) < 1e-12
        assert np.max(np.abs(rec.final_state - stepped[-1])) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        protecting=st.booleans(),
        block=st.integers(2, 6),
        full_blocks=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trajectory_matches_step_loop_across_block_edges(
        self, n, protecting, block, full_blocks, data, seed
    ):
        # the byte budget is shrunk so that block edges fall within a few
        # steps; the loop over blocks does not depend on their size
        rng = np.random.default_rng(seed)
        model = LindbladModel(n, rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 2.0, n))
        u = PROTECTING_U if protecting else _rank_deficient_u(rng.uniform(0.0, 1.0))
        ctx = _SMEContext(model, u)
        assert ctx.n_noise == (2 if protecting else 3) * n
        n_steps = full_blocks * block + data.draw(st.integers(1, block - 1), label="tail")
        rho0 = random_density_matrix(2**n, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diffusive, "_BLOCK_BYTES", block * ctx.a.itemsize * (ctx.n_noise + 1) * 16**n)
            assert _block_steps(ctx) == block
            self._check_against_step_loop(model, u, rho0, 1e-3, n_steps, _edge_steps(block, n_steps), seed)

    def test_bench_configuration_across_block_edges(self, bell_rho):
        # the blocks at their own size: Bell pair, protecting u, balanced rates
        model = LindbladModel(2, 1.0, 1.0)
        block = _block_steps(_SMEContext(model, PROTECTING_U))
        assert 1 < block < 1000
        n_steps = 2 * block + block // 2
        self._check_against_step_loop(
            model, PROTECTING_U, bell_rho, 1e-3, n_steps, _edge_steps(block, n_steps), seed=11
        )

    def test_memory_does_not_grow_with_steps_beyond_the_draws(self, bell_rho):
        # the maps of one block take a fixed 1 MiB, 3.3x the (n_steps, M) draws
        # here; holding every step's W would add 4x the draws, and every step's
        # P_s 64x
        model = LindbladModel(2, 1.0, 1.0)
        n_steps = 10**4
        tracemalloc.start()
        try:
            rec = run_diffusive_trajectory(model, PROTECTING_U, bell_rho, 1.0 / n_steps, 1.0, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec.samples) == 0
        draws = n_steps * _SMEContext(model, PROTECTING_U).n_noise * np.dtype(float).itemsize
        assert peak <= 6 * draws


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
        y_minus, y_plus = currents.T
        # Y+ = -conj(Y-) on every qubit: the homodyne pair is exactly real
        assert np.max(np.abs(y_plus + np.conj(y_minus))) < 1e-12
        i12, i34 = homodyne_currents(y_minus, y_plus)
        assert np.max(np.abs(i12.imag)) < 1e-12 and np.max(np.abs(i34.imag)) < 1e-12

    def test_general_u_pair_keeps_both_parts(self, rng, bell_rho):
        # for u = 0 the pair is complex in general: a real-only copy once dropped Im I12 and Im I34
        model = LindbladModel(2, 1.0, 0.5)
        _, currents = step_diffusive(bell_rho, model, np.zeros((2, 2)), rng, 1e-3)
        i12, i34 = homodyne_currents(*currents.T)
        assert np.min(np.abs(i12.imag)) > 0 and np.min(np.abs(i34.imag)) > 0
        back = np.stack(combine_currents(i12, i34), axis=-1)
        assert np.max(np.abs(back - currents)) <= 1e-12 * np.max(np.abs(currents))


@st.composite
def _sample_patterns(draw):
    """A step count and its sample steps: none, the start, the end, every step,
    or a dense head followed by one long tail."""
    n_steps = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(["none", "start", "end", "every", "head_tail"]))
    if kind == "none":
        return n_steps, None
    if kind == "start":
        return n_steps, [0]
    if kind == "end":
        return n_steps, [n_steps]
    if kind == "every":
        return n_steps, list(range(n_steps + 1))
    head = draw(st.integers(1, min(n_steps, 100)))
    return n_steps, list(range(head)) + [n_steps]


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
            sme_state = from_pauli_coordinates(sme_update(pauli_coordinates(bell_rho), ctx, dw, dt))
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
        # is the reference (1500 steps: the frames are tree products of them)
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

    @settings(max_examples=40, deadline=None)
    @given(pattern=_sample_patterns(), n=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_frames_match_sequential_products(self, pattern, n, seed):
        # the log-depth frame products against the left-multiplying loop of
        # step_protecting_unitary on the same Philox draws
        n_steps, steps = pattern
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(0.1, 3.0, n)
        ket = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        rho0 = density(ket / np.linalg.norm(ket))
        dt = 1e-3
        times = None if steps is None else np.array(steps) * dt
        rec = run_protecting_unitary_trajectory(
            LindbladModel(n, gammas, gammas), rho0, dt, n_steps * dt, seed, sample_times=times
        )
        stream = _trajectory_rng(seed)
        state, frame = rho0, np.tile(np.eye(2, dtype=complex), (n, 1, 1))
        frames = [frame]
        for _ in range(n_steps):
            state, frame = step_protecting_unitary(state, gammas, stream, dt, frame)
            frames.append(frame)
        wanted = steps or []
        assert rec.sample_frames.shape == (len(wanted), n, 2, 2)
        assert len(rec.samples) == len(wanted)
        for fr, step in zip(rec.sample_frames, wanted):
            assert np.max(np.abs(fr - frames[step])) <= 1e-13
        assert unitarity_defect(rec.sample_frames) <= 1e-12
        assert unitarity_defect(rec.frame) <= 1e-12
        assert np.max(np.abs(rec.frame - frames[-1])) <= 1e-13
        assert np.max(np.abs(rec.final_state - state)) <= 1e-12

    def test_memory_is_linear_in_steps_for_packed_samples(self):
        # 101 sample steps at the start leave one segment of 99 900 steps: a
        # design that pads every segment to the longest needs ~100x the draw
        # array, and building the (n_steps, n, 2, 2) stack of steps 3x; the
        # draws, the step pairs and the first tree level take about 1.65x
        model = LindbladModel(1, 1.0, 1.0)
        n_steps, dt = 10**5, 1e-5
        rho0 = density(computational_ket("0"))
        tracemalloc.start()
        try:
            rec = run_protecting_unitary_trajectory(
                model, rho0, dt, 1.0, seed=5, sample_times=np.arange(101) * dt
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.sample_frames.shape == (101, 1, 2, 2)
        draws = n_steps * model.n_qubits * 4 * np.dtype(complex).itemsize  # (n_steps, n, 2, 2)
        assert peak <= 2.5 * draws

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
