"""The exact master-equation solution and the closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtraj.diffusive import _SMEContext
from qtraj.entangle import concurrence, trace_distance
from qtraj.jumps import canonical_jumps, protecting_jumps
from qtraj.master import (
    LindbladModel,
    TimeSeries,
    analytic_bell_state,
    analytic_concurrence,
    disentanglement_time,
    integrate_master,
    lindblad_rhs,
)
from qtraj.qcore import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    InvariantViolation,
    computational_ket,
    density,
    embed,
    random_density_matrix,
    validate_density_matrix,
)

GROUND = density(computational_ket("0"))
EXCITED = density(computational_ket("1"))

# ln(1 + sqrt(2)) / 2, root of x + x^2/2 = 1/2 with x = e^{-2t}
T_CROSS = 0.4406867935097715


class TestModel:
    def test_scalar_rates_broadcast(self):
        m = LindbladModel(3, 1.0, 0.5)
        assert m.gamma_minus == (1.0, 1.0, 1.0)
        assert m.gamma_plus == (0.5, 0.5, 0.5)
        assert m.balanced is False

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(1, -1.0, 0.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            LindbladModel(1, 1.0, 1.0, eta=1.5)

    def test_rate_length_mismatch(self):
        with pytest.raises(ValueError):
            LindbladModel(2, (1.0,), 0.0)


class TestRhs:
    def test_zero_rates_zero_rhs(self, rng):
        model = LindbladModel(2, 0.0, 0.0)
        rho = random_density_matrix(4, rng)
        assert np.max(np.abs(lindblad_rhs(model, rho))) == 0.0

    def test_single_qubit_decay(self):
        # hand algebra: gamma=1 decay of |e><e| gives |g><g| - |e><e|
        model = LindbladModel(1, 1.0, 0.0)
        expected = GROUND - EXCITED
        assert np.allclose(lindblad_rhs(model, EXCITED), expected, atol=1e-15)

    def test_maximally_mixed_stationary_when_balanced(self):
        model = LindbladModel(1, 1.0, 1.0)
        assert np.max(np.abs(lindblad_rhs(model, np.eye(2, dtype=complex) / 2))) < 1e-15

    def test_hermitian_traceless(self, rng):
        model = LindbladModel(2, (0.7, 1.3), (0.2, 0.9))
        rho = random_density_matrix(4, rng)
        out = lindblad_rhs(model, rho)
        assert abs(out.trace()) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(LindbladModel(2, 1.0, 0.0), np.eye(2, dtype=complex) / 2)


def _grid(dt, t_max):
    return dt * np.arange(int(round(t_max / dt)) + 1)


def _rk4(model, rho0, dt, t_max):
    """Reference fixed-step RK4 over lindblad_rhs on the grid 0, dt, ..., t_max."""
    rho = rho0.astype(complex)
    states = [rho]
    for _ in range(int(round(t_max / dt))):
        k1 = lindblad_rhs(model, rho)
        k2 = lindblad_rhs(model, rho + 0.5 * dt * k1)
        k3 = lindblad_rhs(model, rho + 0.5 * dt * k2)
        k4 = lindblad_rhs(model, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return np.array(states)


class TestIntegrateMaster:
    def test_frozen_without_coupling(self, rng):
        model = LindbladModel(1, 0.0, 0.0)
        rho0 = random_density_matrix(2, rng)
        series = integrate_master(model, rho0, _grid(1e-3, 0.05))
        assert np.max(np.abs(series.values[-1] - rho0)) < 1e-14

    def test_zero_T_concurrence_curve(self, bell_rho):
        model = LindbladModel(2, 1.0, 0.0)
        series = integrate_master(model, bell_rho, _grid(1e-3, 1.0))
        for t, state in zip(series.times[::100], series.values[::100]):
            assert abs(concurrence(state) - np.exp(-t)) < 1e-6

    def test_infinite_T_concurrence_curve(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        series = integrate_master(model, bell_rho, _grid(1e-3, 1.0))
        expected = analytic_concurrence("infinite_T", 1.0, None, series.times)
        got = np.array([concurrence(s) for s in series.values])
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_analytic_states_match_integrator(self, bell_rho):
        for gm, gp, kind in ((1.0, 1.0, "infinite_T"), (1.0, 0.0, "zero_T")):
            series = integrate_master(LindbladModel(2, gm, gp), bell_rho, [0.2, 0.5, 0.8])
            for t in (0.2, 0.5, 0.8):
                assert trace_distance(series.at(t), analytic_bell_state(kind, 1.0, t)) < 1e-9

    def test_preserves_trace_and_hermiticity(self, bell_rho):
        model = LindbladModel(2, 1.0, 1.0)
        series = integrate_master(model, bell_rho, _grid(1e-3, 0.3))
        for state in series.values[::50]:
            assert abs(state.trace() - 1.0) < 1e-10
            assert np.max(np.abs(state - state.conj().T)) < 1e-10

    def test_fourth_order_convergence(self, bell_rho):
        # a test-side RK4 over lindblad_rhs converges to the exact solution:
        # halving dt in the gamma*dt in [1e-4, 1e-2] regime must shrink the
        # deviation by at least 8x (expected 16x)
        model = LindbladModel(2, 1.0, 1.0)
        errs = []
        for dt in (1e-2, 5e-3):
            exact = np.array(integrate_master(model, bell_rho, _grid(dt, 0.4)).values)
            errs.append(np.max(np.abs(_rk4(model, bell_rho, dt, 0.4) - exact)))
        assert errs[0] / errs[1] >= 8.0

    def test_balanced_drives_single_qubit_to_mixed(self, rng):
        model = LindbladModel(1, 1.0, 1.0)
        half = np.eye(2, dtype=complex) / 2
        for _ in range(5):
            rho0 = random_density_matrix(2, rng)
            series = integrate_master(model, rho0, _grid(0.025, 0.5))
            dists = [trace_distance(s, half) for s in series.values]
            assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize(
        "times",
        [[-0.1, 0.2], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [], [0.0, np.nan]],
        ids=["negative", "decreasing", "duplicate", "empty", "nan"],
    )
    def test_rejects_bad_times(self, bell_rho, times):
        with pytest.raises(ValueError, match="times"):
            integrate_master(LindbladModel(2, 1.0, 1.0), bell_rho, times)

    @pytest.mark.parametrize(
        "rho0",
        [
            np.diag([0.5, 0.6]).astype(complex),  # trace 1.1
            np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex),  # not Hermitian
            np.diag([1.2, -0.2]).astype(complex),  # not positive
        ],
        ids=["trace", "hermiticity", "positivity"],
    )
    def test_rejects_invalid_rho0(self, rho0):
        with pytest.raises(InvariantViolation, match="rho0"):
            integrate_master(LindbladModel(1, 1.0, 1.0), rho0, [0.1])

    def test_rejects_rho0_of_wrong_dimension(self, bell_rho):
        with pytest.raises(ValueError, match="dim"):
            integrate_master(LindbladModel(1, 1.0, 1.0), bell_rho, [0.1])


_rate = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@st.composite
def _models(draw):
    n = draw(st.integers(1, 3))
    gm = draw(st.lists(_rate, min_size=n, max_size=n))
    gp = draw(st.lists(_rate, min_size=n, max_size=n))
    rho0 = random_density_matrix(2**n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return LindbladModel(n, gm, gp), rho0


class TestExactPropagatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(_models(), st.floats(0.0, 2.0), st.floats(1e-3, 1.0))
    def test_generator_semigroup_and_validity(self, model_rho0, t, s):
        model, rho0 = model_rho0
        h = 1e-5
        series = integrate_master(model, rho0, [t, t + h, t + s, t + s + h, t + s + 2 * h])
        states = series.values
        for state in states:
            validate_density_matrix(state, herm_tol=1e-12, trace_tol=1e-12, eig_floor=-1e-12)
        # d/dt of the solution is the Lindblad right-hand side (central
        # difference at t + s + h; truncation ~h^2 |L^3|, rounding ~eps/h)
        slope = (states[4] - states[2]) / (2 * h)
        assert np.max(np.abs(slope - lindblad_rhs(model, states[3]))) < 1e-6
        # rho(t + s) = Phi_s(rho(t)) and rho(t + h) = Phi_h(rho(t))
        later = integrate_master(model, states[0], [h, s])
        assert np.max(np.abs(later.values[0] - states[1])) < 1e-12
        assert np.max(np.abs(later.values[1] - states[2])) < 1e-12


@st.composite
def _rate_models(draw):
    """Random rates with zeros; balanced (gp = gm) about half the time."""
    n = draw(st.integers(1, 3))
    gm = draw(st.lists(_rate, min_size=n, max_size=n))
    gp = gm if draw(st.booleans()) else draw(st.lists(_rate, min_size=n, max_size=n))
    return LindbladModel(n, gm, gp)


class TestChannelListProperties:
    @settings(max_examples=100, deadline=None)
    @given(_rate_models())
    def test_every_reader_sums_the_same_dissipative_term(self, model):
        # K = sum_c gamma_c c†c, read four ways from the one channel list
        n, dim = model.n_qubits, model.dim
        k_canonical = sum(
            (j.matrix.conj().T @ j.matrix for j in canonical_jumps(model)), np.zeros((dim, dim))
        )
        k_sme = _SMEContext(model).cc_sum
        # lindblad_rhs(1) = sum_c gamma_c (c c† - c†c); the c c† part is
        # rebuilt here from qcore.embed, independently of the channel list
        jump_term = sum(
            (
                g * embed(op, a, n) @ embed(op, a, n).conj().T
                for a in range(n)
                for g, op in ((model.gamma_minus[a], SIGMA_MINUS), (model.gamma_plus[a], SIGMA_PLUS))
            ),
            np.zeros((dim, dim)),
        )
        k_rhs = jump_term - lindblad_rhs(model, np.eye(dim, dtype=complex))
        assert np.max(np.abs(k_sme - k_canonical)) <= 1e-12
        assert np.max(np.abs(k_rhs - k_canonical)) <= 1e-12
        if model.balanced and min(model.gamma_minus) > 0.0:
            k_protecting = sum(j.matrix.conj().T @ j.matrix for j in protecting_jumps(model))
            assert np.max(np.abs(k_protecting - k_canonical)) <= 1e-12


class TestAnalyticConcurrence:
    def test_initial_value(self):
        assert analytic_concurrence("zero_T", 1.0, None, 0.0) == 1.0
        assert analytic_concurrence("infinite_T", 1.0, None, 0.0) == 1.0

    def test_infinite_T_frozen_value(self):
        # e^{-0.4} + e^{-0.8}/2 - 1/2 evaluated independently
        assert abs(analytic_concurrence("infinite_T", 1.0, None, 0.2) - 0.3949845280942501) < 1e-12

    def test_monitored_perfect_detection(self):
        for t in (0.0, 0.5, 3.0, 100.0):
            assert analytic_concurrence("monitored", 1.0, 1.0, t) == 1.0

    def test_monitored_equals_scaled_infinite_T(self, rng):
        for _ in range(20):
            g, eta, t = rng.uniform(0.1, 3), rng.uniform(0, 1), rng.uniform(0, 2)
            a = analytic_concurrence("monitored", g, eta, t)
            b = analytic_concurrence("infinite_T", g * (1 - eta), None, t)
            assert a == b

    def test_clamped_at_zero(self):
        assert analytic_concurrence("infinite_T", 1.0, None, 5.0) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            analytic_concurrence("lukewarm", 1.0, None, 0.1)


class TestDisentanglementTime:
    @pytest.mark.parametrize(
        "gamma, eta, expected",
        [
            (1.0, 0.0, T_CROSS),  # quadratic formula: e^{-2t} = sqrt(2) - 1
            (1.0, 0.9, T_CROSS / 0.1),  # previous divided by (1 - eta)
            (2.0, 0.0, T_CROSS / 2),  # 1/gamma scaling
        ],
    )
    def test_roots(self, gamma, eta, expected):
        assert abs(disentanglement_time(gamma, eta) - expected) < 1e-12

    def test_root_of_the_curve(self):
        t = disentanglement_time(1.3, 0.4)
        raw = np.exp(-2 * 1.3 * 0.6 * t) + np.exp(-4 * 1.3 * 0.6 * t) / 2 - 0.5
        assert abs(raw) < 1e-12

    def test_eta_one_signaled(self):
        with pytest.raises(ValueError, match="eta=1"):
            disentanglement_time(1.0, 1.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            disentanglement_time(0.0, 0.0)


class TestTimeSeries:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 0.0]), [1, 2])

    def test_at_requires_grid_time(self):
        ts = TimeSeries(np.array([0.0, 0.1]), [1, 2])
        assert ts.at(0.1) == 2
        with pytest.raises(KeyError):
            ts.at(0.05)
