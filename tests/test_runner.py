"""Ensemble orchestration, CSV contract, determinism, CLI surface."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qtraj
from qtraj.diffusive import MAX_SME_QUBITS
from qtraj.master import LindbladModel, analytic_bell_state, analytic_concurrence, disentanglement_time
from qtraj.qcore import FieldErrors
from qtraj.reservoir import DriveParams, balancing_drive, thermal_occupation
from qtraj.runner import (
    CSV_HEADER,
    UNRAVELINGS,
    ConfigError,
    EnsembleStatistics,
    ExperimentConfig,
    csv_text,
    emit_csv,
    figure3,
    parse_csv,
    resolve_initial_state,
    run_ensemble,
)


def _fields(message: str) -> list[str]:
    """The field each entry of a "; "-joined error message starts with, in order."""
    return [re.match(r"\w+", entry).group() for entry in message.split("; ")]


def _config(**kw):
    base = dict(
        model=LindbladModel(2, 1.0, 1.0),
        unraveling="jump_protecting",
        dt=1e-3,
        t_max=0.5,
        n_trajectories=40,
        master_seed=7,
        sample_times=np.array([0.0, 0.25, 0.5]),
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# one config that breaks every engine precondition at once (unbalanced rates,
# eta < 1, gamma*dt > 0.01 and a u given), and the message of each breach
def _breaks_every_precondition(unraveling):
    return _config(
        model=LindbladModel(2, 20.0, 10.0, eta=0.5),
        unraveling=unraveling,
        u=np.array([[0.0, -1.0], [-1.0, 0.0]]),
    )


_RATE = "dt: gamma_max*dt = 0.02 exceeds 0.01"
_BALANCE = "model: protecting unravelings require gamma_minus == gamma_plus on every qubit"
_ETA = (
    "eta: the diffusive engines model perfect detection (eta = 1), got eta = 0.5 "
    "(inefficiency curves come from the jump engine)"
)


def _bell_plus(index, value):
    """The Bell density with ``value`` added at one entry."""
    rho, _ = resolve_initial_state("bell", 2)
    rho[index] += value
    return rho


def _u_only(name):
    return f"u: only the diffusive unraveling reads u, not {name!r}"


class TestConfigValidation:
    def test_valid_passes(self):
        _config().validate()

    def test_bad_fields_enumerated(self):
        cfg = _config(dt=-1.0, n_trajectories=0, unraveling="telepathy")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert "dt" in msg and "n_trajectories" in msg and "unraveling" in msg

    def test_model_that_is_not_a_model_named(self):
        # a string model once raised AttributeError from the rate-step check,
        # losing the n_trajectories error
        cfg = ExperimentConfig("abc", "jump_protecting", 1e-3, 0.01, n_trajectories=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert sorted(_fields(str(err.value))) == ["model", "n_trajectories"]
        assert "model: must be a LindbladModel, got 'abc'" in str(err.value)

    @pytest.mark.parametrize("n_qubits", [MAX_SME_QUBITS + 1, 6])
    def test_sme_qubit_count_bounded(self, n_qubits):
        # 6 qubits once passed, though one trajectory's set-up needs about 35 GiB;
        # validate() only, no run
        def errors(n, unraveling):
            model = LindbladModel(n, 1.0, 1.0)
            return ExperimentConfig(model, unraveling, 1e-3, 0.01, initial_state="ground").field_errors()

        assert errors(n_qubits, "diffusive") == [
            f"model: the general-u SME runs at most {MAX_SME_QUBITS} qubits "
            f"(its set-up grows as 16**n), got {n_qubits}"
        ]
        assert errors(MAX_SME_QUBITS, "diffusive") == []
        assert errors(n_qubits, "diffusive_protecting_unitary") == []  # the exact path has no such bound

    @pytest.mark.parametrize("count", [2**32 + 1, 2**40])
    def test_trajectory_indices_fit_one_word(self, count):
        # 2**40 trajectories once passed every check; validate() only, no run
        with pytest.raises(ConfigError) as err:
            _config(n_trajectories=count, dt=-1.0).validate()
        assert _fields(str(err.value)) == ["dt", "n_trajectories"]
        assert f"n_trajectories: must be an integer in [1, {2**32}], got {count}" in str(err.value)
        assert _config(n_trajectories=2**32).field_errors() == []

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(unraveling="diffusive", u=object()), "u"),
            (dict(unraveling="diffusive", u=[[1.0, 0.0], [0.0]]), "u"),
            (dict(initial_state=object()), "initial_state"),
            (dict(initial_state=[[1.0, 0.0], [0.0]]), "initial_state"),
        ],
        ids=["object_u", "ragged_u", "object_state", "ragged_state"],
    )
    def test_array_that_is_not_numbers_named(self, kw, field):
        # an object once raised TypeError: must be real number, not object
        with pytest.raises(ConfigError) as err:
            _config(n_trajectories=0, **kw).validate()
        assert sorted(_fields(str(err.value))) == sorted([field, "n_trajectories"])
        assert "array of numbers" in str(err.value)

    def test_missing_model_runs_no_chunk(self, monkeypatch):
        # model=None once passed validate() and failed inside the first chunk
        import qtraj.runner as runner

        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(runner, "_run_chunk", no_chunk)
        cfg = ExperimentConfig(None, "jump_protecting", 1e-3, 0.01, n_trajectories=2, workers=1)
        with pytest.raises(ConfigError, match="^model: must be a LindbladModel, got None$"):
            run_ensemble(cfg)

    def test_off_grid_sample_times(self):
        with pytest.raises(ConfigError, match="sample_times"):
            _config(sample_times=np.array([0.12345e-1])).validate()

    @pytest.mark.parametrize(
        "unraveling",
        ["none", "jump_canonical", "jump_protecting", "diffusive", "diffusive_protecting_unitary"],
    )
    @pytest.mark.parametrize(
        "times", [[0.0, 0.1, 0.1, 0.2], [0.0, 0.2, 0.1], []], ids=["dup", "desc", "empty"]
    )
    def test_unordered_sample_times_rejected(self, unraveling, times):
        cfg = _config(unraveling=unraveling, n_trajectories=0, sample_times=np.array(times))
        with pytest.raises(ConfigError) as err:
            run_ensemble(cfg)
        msg = str(err.value)
        assert "sample_times" in msg and "n_trajectories" in msg

    @pytest.mark.parametrize(
        "unraveling, model, field",
        [
            ("jump_protecting", LindbladModel(2, 1.0, 0.5), "gamma_minus == gamma_plus"),
            ("jump_protecting", LindbladModel(2, 0.0, 0.0), "strictly positive"),
            ("diffusive_protecting_unitary", LindbladModel(2, 1.0, 0.5), "gamma_minus == gamma_plus"),
            ("diffusive_protecting_unitary", LindbladModel(2, 0.0, 0.0), "strictly positive"),
            ("diffusive", LindbladModel(2, 1.0, 1.0, eta=0.9), "eta:"),
            ("diffusive_protecting_unitary", LindbladModel(2, 1.0, 1.0, eta=0.9), "eta:"),
        ],
    )
    def test_engine_preconditions_listed(self, unraveling, model, field):
        cfg = _config(unraveling=unraveling, model=model, n_trajectories=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert field in msg and "n_trajectories" in msg

    def test_noise_correlation_checked(self):
        _config(unraveling="diffusive", u=np.array([[0.0, -1.0], [-1.0, 0.0]])).validate()
        with pytest.raises(ConfigError, match="u: .*two-norm"):
            _config(unraveling="diffusive", u=np.array([[0.0, -2.0], [-2.0, 0.0]])).validate()
        with pytest.raises(ConfigError, match="u: .*symmetric"):
            _config(unraveling="diffusive", u=np.array([[0.0, -1.0], [0.0, 0.0]])).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_noise_correlation_listed(self, bad):
        # [[inf, 0], [0, 0]] once passed (inf - inf is NaN, and NaN compares
        # false), and the ensemble then reported C = 1 at every sample time
        cfg = _config(unraveling="diffusive", u=np.array([[bad, 0.0], [0.0, 0.0]]), n_trajectories=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert "u: noise correlation must be finite" in msg and "n_trajectories" in msg

    @pytest.mark.parametrize(
        "unraveling", ["none", "jump_canonical", "jump_protecting", "diffusive_protecting_unitary"]
    )
    def test_u_only_for_diffusive(self, unraveling):
        cfg = _config(unraveling=unraveling, u=np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="u: only the diffusive"):
            cfg.validate()

    @pytest.mark.parametrize(
        "unraveling, parts",
        [
            ("none", [_u_only("none")]),
            ("jump_canonical", [_RATE, _u_only("jump_canonical")]),
            ("jump_protecting", [_RATE, _BALANCE, _u_only("jump_protecting")]),
            ("diffusive", [_RATE, _ETA]),
            (
                "diffusive_protecting_unitary",
                [_RATE, _BALANCE, _ETA, _u_only("diffusive_protecting_unitary")],
            ),
        ],
    )
    def test_every_precondition_message_per_unraveling(self, unraveling, parts):
        cfg = _breaks_every_precondition(unraveling)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == "; ".join(parts)

    def test_unhashable_unraveling_is_a_config_error(self):
        cfg = _breaks_every_precondition(["jump_protecting"])
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert msg.startswith("unraveling: unknown ['jump_protecting'], expected one of (")
        assert msg.endswith("; " + _u_only(["jump_protecting"]))

    def test_bad_workers_env_listed_with_the_other_fields(self, monkeypatch):
        from qtraj.runner import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ConfigError) as err:
            _config(workers=None, n_trajectories=0).validate()
        assert str(err.value) == (
            "n_trajectories: must be an integer in [1, 4294967296], got 0; "
            "QTRAJ_WORKERS: must be an integer >= 1, got 'zero'"
        )
        _config(workers=2).validate()  # an explicit count never reads the variable
        _config(unraveling="none", workers=None).validate()  # nor does the master alone

    def test_rate_step_product_guard(self):
        with pytest.raises(ConfigError, match="gamma_max"):
            _config(model=LindbladModel(2, 100.0, 100.0)).validate()

    @pytest.mark.parametrize("unraveling", ["jump_protecting", "none"])
    def test_step_count_bounded(self, unraveling):
        # 10**300 steps once passed validate(); checked only, never run
        cfg = ExperimentConfig(LindbladModel(2, 1.0, 1.0), unraveling, 1e-300, 1.0, n_trajectories=0)
        assert _fields("; ".join(cfg.field_errors())) == ["dt", "n_trajectories"]
        with pytest.raises(ConfigError, match=r"^dt: t_max / dt = 1e\+300 steps, more than MAX_STEPS"):
            cfg.validate()

    def test_master_takes_any_dt(self):
        # the closed-form master has no step, so the jump engine's
        # gamma*dt <= 0.01 rule does not apply to it
        cfg = _config(unraveling="none", dt=0.05, sample_times=None)
        stats = run_ensemble(cfg)
        assert np.allclose(stats.times, 0.05 * np.arange(11))
        expected = analytic_concurrence("infinite_T", 1.0, None, stats.times)
        assert np.max(np.abs(stats.mean_concurrence - expected)) < 1e-6

    def test_initial_state_names(self):
        rho, is_bell = resolve_initial_state("bell", 2)
        assert is_bell and abs(rho[1, 2] - 0.5) < 1e-15
        rho, is_bell = resolve_initial_state("ground", 3)
        assert not is_bell and rho[0, 0] == 1.0
        with pytest.raises(ValueError):
            resolve_initial_state("bell", 3)
        with pytest.raises(ValueError):
            resolve_initial_state("cat", 2)


    @pytest.mark.parametrize(
        "state, words",
        [
            (np.eye(4) / 2, "trace"),
            (np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) * 0.1, "Hermiticity"),
            (np.diag([0.75, 0.75, -0.5, 0.0]), "negative eigenvalue"),
            (np.zeros(4), "nonzero norm"),
            (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
            # once checked at 1e-10 here and at 1e-12 by the master oracle, which
            # raised only after every trajectory had run
            (_bell_plus((1, 2), 5e-11j), "Hermiticity"),
        ],
        ids=["trace_2", "non_hermitian", "negative_eigenvalue", "zero_ket", "nan_ket",
             "hermiticity_5e-11"],
    )
    def test_bad_explicit_initial_state_fails_before_any_chunk(self, monkeypatch, state, words):
        # these once passed validate() and failed inside a trajectory
        import qtraj.runner as runner

        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(runner, "_run_chunk", no_chunk)
        with pytest.raises(ConfigError, match=f"initial_state: .*{words}"):
            run_ensemble(_config(initial_state=state))


    @pytest.mark.parametrize(
        "field, value", [("dt", None), ("t_max", None), ("dt", "abc")], ids=["dt_none", "t_max_none", "dt_str"]
    )
    def test_non_numeric_grid_field_listed(self, field, value):
        # once a TypeError from float() or from the rate-step product, which lost the master_seed error
        grid = {"dt": 1e-3, "t_max": 1.0, field: value}
        cfg = ExperimentConfig(LindbladModel(2, 1.0, 1.0), "jump_protecting", master_seed=-1, **grid)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == (
            f"{field}: must be a real number, got {value!r}; master_seed: must be an integer >= 0, got -1"
        )

    @pytest.mark.parametrize(
        "times", [[1j], "abc", [[0.0], [0.5]]], ids=["complex", "string", "nested"]
    )
    def test_non_real_sample_times_listed(self, times):
        # a complex time once escaped validate() as a bare TypeError, losing every
        # other field's error, and a string was listed without its field name
        cfg = _config(sample_times=times, n_trajectories=0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value) == (
            f"sample_times: must be a real number or a 1-D sequence of them, got {times!r}; "
            "n_trajectories: must be an integer in [1, 4294967296], got 0"
        )

    def test_integer_fields_listed_before_any_chunk(self, monkeypatch):
        # master_seed = -1 once passed validate() and failed in the first chunk
        # with numpy's unnamed "expected non-negative integer"
        import qtraj.runner as runner

        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(runner, "_run_chunk", no_chunk)
        cfg = _config(n_trajectories=2.5, workers=0, master_seed=-1)
        for call in (cfg.validate, lambda: run_ensemble(cfg)):
            with pytest.raises(ConfigError) as err:
                call()
            msg = str(err.value)
            assert "n_trajectories" in msg and "workers" in msg and "master_seed" in msg


class TestRunEnsemble:
    def test_master_statistics(self):
        cfg = _config(unraveling="none")
        stats = run_ensemble(cfg)
        assert np.all(stats.stderr == 0.0)
        assert np.all(stats.n == 1)
        expected = analytic_concurrence("infinite_T", 1.0, None, stats.times)
        assert np.max(np.abs(stats.mean_concurrence - expected)) < 1e-6
        # oracle column holds the distance to the closed-form state
        assert np.max(stats.trace_dist_master) < 1e-9

    @pytest.mark.parametrize(
        "model, state, oracle",
        [
            (LindbladModel(2, 1.0, 0.0), "bell", True),
            (LindbladModel(2, 1.0, 0.3), "bell", False),
            (LindbladModel(2, 1.0, 1.0), "ground", False),
        ],
        ids=["zero_T", "no_closed_form", "not_bell"],
    )
    def test_master_oracle_column(self, model, state, oracle):
        # without a closed form no oracle is computed, so the column is NaN
        # and may not read as an exact 0
        stats = run_ensemble(_config(model=model, unraveling="none", initial_state=state))
        assert np.all(np.isfinite(stats.mean_concurrence))
        if oracle:
            assert np.max(stats.trace_dist_master) < 1e-9
            return
        assert np.all(np.isnan(stats.trace_dist_master))
        assert np.all(np.isnan(stats.recovered_trace_dist))
        for view in ("trajectory", "recovered"):
            assert ",nan," in csv_text(stats, view)

    def test_protecting_eta1_statistics(self):
        stats = run_ensemble(_config(n_trajectories=50))
        assert np.allclose(stats.mean_concurrence, 1.0, atol=1e-9)
        assert np.all(stats.stderr < 1e-10)
        assert np.all(stats.min_concurrence > 1 - 1e-9)
        # recovered average sits on the initial state when nothing is missed
        assert np.max(stats.recovered_trace_dist) < 1e-9

    def test_recovery_includes_clicks_at_the_sample_time(self):
        # sampling every step puts every click exactly at a sample time; at
        # eta = 1 each recovered sample is the Bell state only if the frame
        # at t folds the clicks at t and none after it, also for requested
        # times that sit just below the grid time they mean
        times = np.arange(201) * 1e-3
        below = np.concatenate([[0.0], times[1:] - 5e-10])
        for requested in (times, below):
            stats = run_ensemble(_config(n_trajectories=20, t_max=0.2, sample_times=requested))
            assert np.max(stats.recovered_trace_dist) < 1e-9
            assert np.array_equal(stats.times, requested)

    @pytest.mark.parametrize("unraveling", ["none", "jump_protecting"])
    def test_sample_time_within_grid_tolerance_is_looked_up(self, unraveling):
        # 2 - 1.5e-9 passes the grid check, so every later lookup must find it
        times = np.array([0.5, 2.0 - 1.5e-9])
        cfg = _config(unraveling=unraveling, n_trajectories=4, t_max=2.0, sample_times=times)
        stats = run_ensemble(cfg)
        assert len(csv_text(stats).splitlines()) == 1 + 2
        assert np.array_equal(stats.times, times)

    def test_raw_mean_tracks_master(self):
        stats = run_ensemble(_config(n_trajectories=400))
        assert np.max(stats.trace_dist_master) < 4 / np.sqrt(400)

    def test_inefficient_recovered_mean(self):
        cfg = _config(
            model=LindbladModel(2, 1.0, 1.0, eta=0.7),
            n_trajectories=2000,
            t_max=0.5,
        )
        stats = run_ensemble(cfg)
        expected = analytic_concurrence("monitored", 1.0, 0.7, stats.times)
        tol = np.maximum(0.03, 3 * stats.recovered_stderr)
        assert np.all(np.abs(stats.recovered_concurrence - expected) <= tol)
        # undoing the detected frames leaves the slowed (1-eta)-rate dynamics
        assert np.max(stats.recovered_trace_dist) < 4 / np.sqrt(2000)
        # while the raw (unrecovered) mean follows the full-rate master
        assert np.max(stats.trace_dist_master) < 4 / np.sqrt(2000)

    @pytest.mark.parametrize(
        "unraveling, model, engine",
        [
            ("jump_canonical", LindbladModel(2, 1.0, 0.0, eta=0.5), "run_jump_trajectory"),
            ("diffusive", LindbladModel(2, 1.0, 1.0), "run_diffusive_trajectory"),
        ],
        ids=["jump_canonical", "diffusive"],
    )
    def test_recovered_is_raw_without_a_frame(self, monkeypatch, unraveling, model, engine):
        # no frame undoes a click, so the recovered columns are the raw mean's,
        # against the full-rate master
        from qtraj.entangle import concurrence

        records = TestPureConcurrence._spy(monkeypatch, engine)
        n_traj = 30 if unraveling == "jump_canonical" else 4
        stats = run_ensemble(_config(model=model, unraveling=unraveling, n_trajectories=n_traj))
        raw_sum = np.zeros((len(stats.times), 4, 4), dtype=complex)
        for r in records:  # in index order, like the chunk
            raw_sum += np.stack(r.samples)
        assert np.array_equal(stats.recovered_trace_dist, stats.trace_dist_master)
        assert np.array_equal(stats.recovered_concurrence, concurrence(raw_sum / n_traj))

    @pytest.mark.parametrize(
        "unraveling, n_traj, t_max",
        [
            ("jump_protecting", 400, 0.5),
            ("jump_canonical", 400, 0.5),
            ("diffusive", 200, 0.25),
            ("diffusive_protecting_unitary", 200, 0.25),
        ],
    )
    def test_statistical_consistency_all_unravelings(self, unraveling, n_traj, t_max):
        cfg = _config(
            unraveling=unraveling,
            n_trajectories=n_traj,
            t_max=t_max,
            sample_times=np.array([t_max]),
        )
        stats = run_ensemble(cfg)
        assert np.max(stats.trace_dist_master) < 4 / np.sqrt(n_traj)

    def test_unknown_error_bars_are_nan(self):
        # one trajectory has no spread and one chunk (N <= 256) has no
        # chunk-to-chunk spread: neither error bar may read as an exact 0
        one = run_ensemble(_config(n_trajectories=1))
        assert np.all(np.isnan(one.stderr)) and np.all(np.isnan(one.recovered_stderr))
        chunk = run_ensemble(_config(model=LindbladModel(2, 1.0, 1.0, eta=0.5), n_trajectories=256))
        assert np.all(np.isfinite(chunk.stderr)) and np.all(np.isnan(chunk.recovered_stderr))
        two = run_ensemble(_config(model=LindbladModel(2, 1.0, 1.0, eta=0.5), n_trajectories=257))
        assert np.all(np.isfinite(two.recovered_stderr))
        assert ",nan," in csv_text(chunk, "recovered")

    def test_stderr_of_equal_concurrences_is_two_pass(self):
        # every trajectory starts in the Bell state, so t = 0 has no spread;
        # conc² - N·mean² would leave ~1e-9 of cancellation noise there
        from qtraj.entangle import concurrence
        from qtraj.jumps import protecting_jumps, run_jump_trajectory, trajectory_seed

        model = LindbladModel(2, 1.0, 1.0)
        rho0, _ = resolve_initial_state("bell", 2)
        for n_traj in (300, 600):  # two and three chunks
            cfg = _config(
                model=model, t_max=1.0, n_trajectories=n_traj, master_seed=4, sample_times=None
            )
            stats = run_ensemble(cfg)
            c = np.array(
                [
                    concurrence(
                        np.stack(
                            run_jump_trajectory(
                                model, protecting_jumps(model), rho0, 1e-3, 1.0,
                                trajectory_seed(4, i), sample_times=stats.times,
                            ).samples
                        )
                    )
                    for i in range(n_traj)
                ]
            )
            assert stats.stderr[0] < 1e-15
            expected = np.std(c, axis=0, ddof=1) / np.sqrt(n_traj)
            assert np.max(np.abs(stats.stderr - expected)) <= 1e-15
            assert np.max(np.abs(stats.mean_concurrence - c.mean(axis=0))) <= 1e-15
            assert np.max(np.abs(stats.min_concurrence - c.min(axis=0))) <= 1e-15

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_concurrence_beyond_two_qubits_is_nan(self, n_qubits):
        # two chunks of canonical clicks with no concurrence to reduce; NaN
        # must pass through the reduction without a warning (warnings are
        # errors in this suite), at any worker count
        model = LindbladModel(n_qubits, 1.0, 0.5)
        texts = []
        for workers in (1, 3):
            stats = run_ensemble(
                _config(
                    model=model, unraveling="jump_canonical", initial_state="excited",
                    t_max=0.2, sample_times=np.array([0.0, 0.1, 0.2]),
                    n_trajectories=300, workers=workers,
                )
            )
            for series in (stats.mean_concurrence, stats.stderr, stats.min_concurrence,
                           stats.recovered_concurrence, stats.recovered_stderr):
                assert np.all(np.isnan(series))
            assert np.all(np.isfinite(stats.trace_dist_master))
            assert np.all(np.isfinite(stats.recovered_trace_dist))
            texts.append(tuple(csv_text(stats, view) for view in ("trajectory", "recovered")))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_master_concurrence_beyond_two_qubits_is_nan(self, n_qubits):
        # a master-only run has concurrence only for a pair, and no closed form
        # for anything but a Bell pair
        model = LindbladModel(n_qubits, 1.0, 0.5)
        stats = run_ensemble(_config(model=model, unraveling="none", initial_state="excited"))
        for series in (stats.mean_concurrence, stats.recovered_concurrence, stats.min_concurrence,
                       stats.trace_dist_master, stats.recovered_trace_dist):
            assert np.all(np.isnan(series))
        assert np.all(stats.stderr == 0.0) and np.all(stats.recovered_stderr == 0.0)
        for view in ("trajectory", "recovered"):
            assert csv_text(stats, view).splitlines()[1] == "0.000000000000,nan,0.000000000000,nan,1"

    def test_worker_count_does_not_change_bytes(self):
        cfg1 = _config(n_trajectories=600, workers=1)
        cfg3 = _config(n_trajectories=600, workers=3)
        text1 = csv_text(run_ensemble(cfg1))
        text3 = csv_text(run_ensemble(cfg3))
        assert text1 == text3

    def test_seed_changes_records_not_means(self):
        a = run_ensemble(_config(master_seed=1, n_trajectories=500))
        b = run_ensemble(_config(master_seed=2, n_trajectories=500))
        assert not np.array_equal(a.mean_concurrence, b.mean_concurrence) or not np.array_equal(
            a.trace_dist_master, b.trace_dist_master
        )
        assert np.max(np.abs(a.mean_concurrence - b.mean_concurrence)) < 4 / np.sqrt(500)

    def test_workers_env_override(self, monkeypatch):
        from qtraj.runner import WORKERS_ENV, default_workers

        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        # text that is not an integer and an integer below 1: one entry each, in number's grammar
        for env, shown in (("zero", "'zero'"), ("0", "0")):
            monkeypatch.setenv(WORKERS_ENV, env)
            with pytest.raises(FieldErrors) as err:
                default_workers()
            assert err.value.entries == [f"QTRAJ_WORKERS: must be an integer >= 1, got {shown}"]

    def test_default_workers_follow_affinity(self, monkeypatch):
        import os

        from qtraj.runner import WORKERS_ENV, default_workers

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert default_workers() == 3
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert default_workers() == 2
        monkeypatch.delenv(WORKERS_ENV)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6

    def test_diffusive_unitary_ensemble(self):
        cfg = _config(
            unraveling="diffusive_protecting_unitary",
            n_trajectories=30,
            dt=1e-3,
            t_max=0.2,
            sample_times=np.array([0.0, 0.2]),
        )
        stats = run_ensemble(cfg)
        assert np.allclose(stats.mean_concurrence, 1.0, atol=1e-10)
        assert np.max(stats.recovered_trace_dist) < 1e-8

    def test_invariant_violation_names_its_trajectory(self, monkeypatch, capsys):
        # an engine failure at index 3 of 5 must carry (index, seed), so the
        # trajectory can be replayed on its own
        import qtraj.runner as runner
        from qtraj.cli import main
        from qtraj.jumps import trajectory_seed
        from qtraj.qcore import InvariantViolation

        master = 11
        bad = trajectory_seed(master, 3)
        engine = runner.run_jump_trajectory
        seen = []

        def failing(*args):
            seen.append(args[5])
            if args[5] == bad:
                raise InvariantViolation("injected: trace 2 deviates from 1")
            return engine(*args)

        monkeypatch.setattr(runner, "run_jump_trajectory", failing)
        cfg = _config(n_trajectories=5, master_seed=master, t_max=0.1, sample_times=None)
        with pytest.raises(InvariantViolation, match=rf"^trajectory 3 \(seed {bad}\): injected"):
            run_ensemble(cfg)
        assert seen == [trajectory_seed(master, i) for i in range(4)]

        argv = ["jump", "--n-traj", "5", "--seed", str(master), "--t-max", "0.1", "--workers", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert f"trajectory 3 (seed {bad}): injected" in captured.err and not captured.out

    def test_jump_walk_violation_names_trajectory_seed_and_step(self, monkeypatch):
        # trajectory 1 draws 0 at step 4's uniform: its click on an excited
        # population of 1e-16 leaves no state
        import qtraj.jumps as jumps
        from qtraj.jumps import trajectory_seed
        from qtraj.qcore import InvariantViolation

        bad, rng = trajectory_seed(5, 1), jumps._trajectory_rng

        class Forced:
            def random(self, n):
                us = np.full(n, 0.5)
                us[3] = 0.0
                return us

        monkeypatch.setattr(jumps, "_trajectory_rng", lambda key: Forced() if key == bad else rng(key))
        cfg = _config(
            model=LindbladModel(2, 1.0, 0.0), unraveling="jump_canonical", n_trajectories=3,
            master_seed=5, t_max=0.1, sample_times=None,
            initial_state=np.diag([1.0 - 1e-16, 0.0, 0.0, 1e-16]),
        )
        message = rf"^trajectory 1 \(seed {bad}\): step 4: normalization failure after jump 0: trace"
        with pytest.raises(InvariantViolation, match=message):
            run_ensemble(cfg)


class TestPureConcurrence:
    """Per-trajectory concurrence in the pure-state form where a run stays pure."""

    # an explicit ket with C ~ 0.81, so the protecting runs stay off C = 1
    KET = np.array([0.8, 0.3j, -0.1, 0.5])
    ENGINES = {
        "jump_canonical": "run_jump_trajectory",
        "jump_protecting": "run_jump_trajectory",
        "diffusive_protecting_unitary": "run_protecting_unitary_trajectory",
    }

    @staticmethod
    def _spy(monkeypatch, name):
        """Rebind a runner name to a wrapper that keeps what each call returns."""
        import qtraj.runner as runner

        fn = getattr(runner, name)
        kept = []

        def spy(*args):
            kept.append(fn(*args))
            return kept[-1]

        monkeypatch.setattr(runner, name, spy)
        return kept

    @pytest.mark.parametrize("unraveling", sorted(ENGINES))
    @pytest.mark.parametrize("initial_state", ["bell", "ket"])
    def test_equals_wootters_on_the_engine_samples(self, monkeypatch, unraveling, initial_state):
        from qtraj.entangle import concurrence

        records = self._spy(monkeypatch, self.ENGINES[unraveling])
        pure_calls = self._spy(monkeypatch, "pure_concurrence")
        model = LindbladModel(2, 1.0, 1.0 if unraveling != "jump_canonical" else 0.4)
        state = self.KET if initial_state == "ket" else "bell"
        stats = run_ensemble(
            _config(model=model, unraveling=unraveling, initial_state=state, n_trajectories=30,
                    t_max=0.4, sample_times=None)
        )
        # every trajectory's samples went through the pure form, however the blocks split them
        assert sum(len(c) for c in pure_calls) == len(records) == 30
        c = concurrence(np.stack([np.stack(r.samples) for r in records]))
        assert np.max(np.abs(stats.mean_concurrence - c.mean(axis=0))) <= 1e-14
        assert np.max(np.abs(stats.min_concurrence - c.min(axis=0))) <= 1e-14

    def test_mixed_initial_state_takes_wootters(self, monkeypatch):
        from qtraj.entangle import concurrence

        bell, _ = resolve_initial_state("bell", 2)
        mixed = 0.9 * bell + 0.1 * np.eye(4) / 4
        records = self._spy(monkeypatch, "run_jump_trajectory")
        pure_calls = self._spy(monkeypatch, "pure_concurrence")
        stats = run_ensemble(_config(initial_state=mixed, n_trajectories=20, sample_times=None))
        assert not pure_calls
        c = concurrence(np.stack([np.stack(r.samples) for r in records]))
        assert np.array_equal(stats.mean_concurrence, c.mean(axis=0))
        assert np.array_equal(stats.min_concurrence, c.min(axis=0))

    def test_general_sme_takes_wootters(self, monkeypatch):
        # its states are pure only to the step error
        pure_calls = self._spy(monkeypatch, "pure_concurrence")
        run_ensemble(_config(unraveling="diffusive", n_trajectories=2, t_max=0.05, sample_times=None))
        assert not pure_calls

    @pytest.mark.parametrize("unraveling", sorted(ENGINES))
    def test_nearly_pure_explicit_matrix_takes_wootters(self, monkeypatch, unraveling):
        # 1 - lambda_max = 9e-13 once passed a rank-one test at the guard's tolerance, and
        # the guard then failed: |1 - tr(rho^2)| is 1.8e-12 at the start, up to 2e-12 later
        from qtraj.entangle import concurrence

        rho0 = resolve_initial_state("bell", 2)[0] * (1 - 9e-13)
        rho0[0, 0] += 9e-13
        records = self._spy(monkeypatch, self.ENGINES[unraveling])
        pure_calls = self._spy(monkeypatch, "pure_concurrence")
        model = LindbladModel(2, 1.0, 0.0 if unraveling == "jump_canonical" else 1.0)
        stats = run_ensemble(
            _config(model=model, unraveling=unraveling, initial_state=rho0, n_trajectories=3,
                    t_max=0.1, sample_times=None)
        )
        assert not pure_calls and len(records) == 3
        c = concurrence(np.stack([np.stack(r.samples) for r in records]))
        assert np.array_equal(stats.mean_concurrence, c.mean(axis=0))
        assert np.array_equal(stats.min_concurrence, c.min(axis=0))

    def test_impure_sample_names_its_trajectory(self, monkeypatch):
        import qtraj.runner as runner
        from qtraj.jumps import trajectory_seed
        from qtraj.qcore import InvariantViolation

        master = 11
        bad = trajectory_seed(master, 2)
        engine = runner.run_jump_trajectory

        def mixing(*args):
            record = engine(*args)
            if args[5] == bad:
                # 1 - tr(rho^2) = 1.5e-12, just past the guard
                record.samples[1] = (1 - 1e-12) * record.samples[1] + 1e-12 * np.eye(4) / 4
            return record

        monkeypatch.setattr(runner, "run_jump_trajectory", mixing)
        cfg = _config(n_trajectories=5, master_seed=master)
        with pytest.raises(
            InvariantViolation, match=rf"^trajectory 2 \(seed {bad}\): sample 1 is not pure"
        ):
            run_ensemble(cfg)

    @pytest.mark.parametrize("where", ["past_the_first_block", "last_block_of_the_second_chunk"])
    def test_impure_sample_past_the_first_block_names_its_trajectory(self, monkeypatch, where):
        # the guard runs once per block of _BLOCK trajectories; a failure must still
        # name the exact trajectory, seed and sample, in any block of any chunk
        import qtraj.runner as runner
        from qtraj.entangle import concurrence, pure_concurrence
        from qtraj.jumps import trajectory_seed
        from qtraj.qcore import InvariantViolation
        from qtraj.recovery import frame_from_events, recover

        master = 5
        n_traj = runner.CHUNK + runner._BLOCK + 3  # the second chunk ends in a partial block
        # a ket off the Bell states, so that sums taken in another order would round apart
        cfg = _config(n_trajectories=n_traj, master_seed=master, t_max=0.05, sample_times=None,
                      model=LindbladModel(2, 1.0, 1.0, eta=0.8), initial_state=self.KET)
        records = self._spy(monkeypatch, "run_jump_trajectory")
        stats = run_ensemble(cfg)

        # the reference, one trajectory at a time from the engine's own records,
        # the recovered states summed per chunk in index order
        assert len(records) == n_traj
        grid = runner._sample_clock(cfg)[1]
        c = np.stack([pure_concurrence(np.stack(r.samples)) for r in records])
        chunk_sums = []
        for i, r in enumerate(records):
            if i % runner.CHUNK == 0:
                chunk_sums.append(np.zeros((len(grid), 4, 4), dtype=complex))
            rows = np.searchsorted([e.time for e in r.events], grid, side="right")
            chunk_sums[-1] += recover(np.stack(r.samples), frame_from_events(r.events, 2)[rows])
        assert np.array_equal(stats.mean_concurrence, c.mean(axis=0))
        assert np.array_equal(stats.min_concurrence, c.min(axis=0))
        assert np.array_equal(stats.stderr, c.std(axis=0, ddof=1) / np.sqrt(n_traj))
        assert np.array_equal(stats.recovered_concurrence, concurrence(sum(chunk_sums) / n_traj))

        index = runner._BLOCK + 1 if where == "past_the_first_block" else n_traj - 2
        bad = trajectory_seed(master, index)
        engine = runner.run_jump_trajectory

        def mixing(*args):
            record = engine(*args)
            if args[5] == bad:
                record.samples[7] = (1 - 1e-12) * record.samples[7] + 1e-12 * np.eye(4) / 4
            return record

        monkeypatch.setattr(runner, "run_jump_trajectory", mixing)
        with pytest.raises(
            InvariantViolation, match=rf"^trajectory {index} \(seed {bad}\): sample 7 is not pure"
        ):
            run_ensemble(cfg)


class TestValidateAgreesWithTheRun:
    """validate() accepts exactly the explicit states and correlations that a run accepts."""

    @settings(max_examples=30, deadline=None)
    @given(
        unraveling=st.sampled_from(sorted(TestPureConcurrence.ENGINES) + ["diffusive"]),
        log_herm=st.floats(-13.0, -10.0),
        log_impurity=st.floats(-14.0, -11.0),
        norm=st.floats(1.0 - 1e-11, 1.0 + 1e-11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_validate_passes_only_what_runs(self, unraveling, log_herm, log_impurity, norm, seed):
        rho0 = _bell_plus((1, 2), 1j * 10.0**log_herm) * (1 - 10.0**log_impurity)
        rho0[0, 0] += 10.0**log_impurity
        u = None
        if unraveling == "diffusive":
            a = np.random.default_rng(seed).standard_normal((2, 2, 2)) @ [1.0, 1j]
            u = norm * (a + a.T) / np.linalg.norm(a + a.T, 2)
        model = LindbladModel(2, 1.0, 0.0 if unraveling == "jump_canonical" else 1.0)
        cfg = _config(model=model, unraveling=unraveling, initial_state=rho0, u=u, n_trajectories=2,
                      t_max=0.05, sample_times=None)
        try:
            cfg.validate()
        except ConfigError as exc:
            assert str(exc).startswith(("initial_state: ", "u: "))
            return
        stats = run_ensemble(cfg)
        assert np.isfinite(stats.mean_concurrence).all()


def _good_or_bad(goods, bads):
    """A (value, is_bad) pair: a value from ``goods`` or one from ``bads``."""
    return st.one_of(
        st.sampled_from(goods).map(lambda v: (v, False)),
        st.sampled_from(bads).map(lambda v: (v, True)),
    )


def _drawn(values):
    return st.fixed_dictionaries({k: _good_or_bad(*v) for k, v in values.items()})


_NOT_NUMBERS = ["1", None, 1j, True, False]
_MODEL_VALUES = {
    "n_qubits": ([1, 2, np.int64(2)], [0, -1, 2.0, np.float64(2.0), np.nan, *_NOT_NUMBERS]),
    "gamma_minus": ([0.0, 1.0, np.float64(0.5), 2],
                    [-1.0, np.nan, np.inf, -np.inf, [1.0, None], 1 + 0.5j, *_NOT_NUMBERS]),
    "gamma_plus": ([0.0, 0.5, np.float32(1.0)], [-0.5, np.nan, np.inf, ["x"], *_NOT_NUMBERS]),
    "eta": ([0.0, 0.9, 1, np.float64(0.5)], [1.5, -0.1, np.nan, np.inf, -np.inf, *_NOT_NUMBERS]),
}
# good dt, t_max and sample_spacing lie on one grid; rates * dt stay within the jump step bound
_RUN_VALUES = {
    "model": ([LindbladModel(2, 1.0, 1.0, eta=0.5)], [None, "abc", 1.0]),
    "dt": ([1e-3, 2e-3, np.float64(1e-3)], [0.0, -1e-3, np.nan, np.inf, -np.inf, *_NOT_NUMBERS]),
    "t_max": ([0.01, 0.02, np.float64(0.04)],
              [0.0, -0.02, np.nan, np.inf, -np.inf, *_NOT_NUMBERS]),
    "n_trajectories": ([1, 2, np.int64(2)], [0, -2, 2.0, np.nan, np.inf, *_NOT_NUMBERS]),
    "master_seed": ([0, 7, np.int64(3)], [-1, 1.0, np.nan, *_NOT_NUMBERS]),
    "workers": ([None, 1, np.int64(1)], [0, -1, 1.5, np.inf, "1", 1j]),  # None: the default
}
_FIGURE3_VALUES = {
    "gamma": ([1.0, np.float64(0.5), 2], [0.0, -1.0, np.nan, np.inf, *_NOT_NUMBERS]),
    "n_trajectories": ([1, 2], [0, 2.0, np.nan, *_NOT_NUMBERS]),
    "dt": ([1e-3, 2e-3], [0.0, -1e-3, np.nan, np.inf, *_NOT_NUMBERS]),
    "t_max": ([0.02, 0.04], [0.0, -0.02, np.nan, np.inf, -np.inf, *_NOT_NUMBERS]),
    "sample_spacing": ([0.01, 0.02], [0.0, -0.01, np.nan, np.inf, *_NOT_NUMBERS]),
    "master_seed": ([0, 1905], [-1, 1.0, *_NOT_NUMBERS]),
    "workers": ([None, 1], [0, 1.5, "1"]),
}
# big_gamma divides the pump rate: 0 is out of its range, unlike for the other two
_DRIVE_VALUES = {
    "omega": ([0.0, 1.0, np.float64(0.5), 2], [-1.0, np.nan, np.inf, *_NOT_NUMBERS]),
    "big_gamma": ([100.0, 1, np.float32(50.0)], [0.0, -1.0, np.nan, np.inf, *_NOT_NUMBERS]),
    "gamma_minus": ([0.0, 0.05, np.int64(1)], [-0.05, np.nan, -np.inf, *_NOT_NUMBERS]),
}


class TestEveryBadFieldNamedOnce:
    """Strings, None, complex numbers, NaN, infinities, floats for integers and
    negatives: a call succeeds, or raises one ValueError naming each bad field
    once; never a TypeError or an AttributeError."""

    @staticmethod
    def _split(drawn):
        kwargs = {k: v for k, (v, _) in drawn.items()}
        return kwargs, sorted(k for k, (_, bad) in drawn.items() if bad)

    @settings(max_examples=200, deadline=None)
    @given(_drawn(_MODEL_VALUES))
    def test_model(self, drawn):
        kwargs, bad = self._split(drawn)
        try:
            LindbladModel(**kwargs)
        except ValueError as exc:
            assert sorted(_fields(str(exc))) == bad, str(exc)
        else:
            assert not bad

    @settings(max_examples=150, deadline=None)
    @given(_drawn(_RUN_VALUES))
    def test_config(self, drawn):
        kwargs, bad = self._split(drawn)
        config = ExperimentConfig(unraveling="jump_protecting", **kwargs)
        try:
            config.validate()
        except ConfigError as exc:
            assert sorted(_fields(str(exc))) == bad, str(exc)
            return
        assert not bad
        stats = run_ensemble(config)  # a run that validate() passed raises no ConfigError
        assert stats.n[0] == kwargs["n_trajectories"]

    @settings(max_examples=80, deadline=None)
    @given(_drawn(_FIGURE3_VALUES))
    def test_figure3(self, drawn):
        kwargs, bad = self._split(drawn)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "fig3"
            try:
                paths = figure3(out, **kwargs)
            except ConfigError as exc:
                assert sorted(_fields(str(exc))) == bad, str(exc)
                assert not out.exists()
            else:
                assert not bad and len(paths) == 5

    @settings(max_examples=150, deadline=None)
    @given(_drawn(_DRIVE_VALUES))
    def test_drive(self, drawn):
        kwargs, bad = self._split(drawn)
        try:
            DriveParams(**kwargs)
        except ValueError as exc:
            assert sorted(_fields(str(exc))) == bad, str(exc)
        else:
            assert not bad

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda: disentanglement_time(np.nan), "gamma"),
            (lambda: analytic_concurrence("zero_T", np.nan, None, 1.0), "gamma"),
            (lambda: analytic_bell_state("infinite_T", np.nan, 1.0), "gamma"),
            (lambda: analytic_bell_state("infinite_T", -1.0, 1.0), "gamma"),
            (lambda: thermal_occupation(1.0, np.nan), "gamma_plus"),
            (lambda: balancing_drive(np.nan, 1.0), "gamma_minus"),
        ],
        ids=["disentanglement_time", "analytic_concurrence", "analytic_bell_state",
             "analytic_bell_state_negative_gamma", "thermal_occupation", "balancing_drive"],
    )
    def test_helper_nan(self, call, field):
        # each once returned NaN, or for a negative argument a "state" with negative populations
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            call()


class TestEntriesJoinTheMessage:
    """"; " only joins entries: no entry holds it, so splitting the message gives
    the entries back, over the bad calls built above."""

    @staticmethod
    def _check(err):
        assert not [entry for entry in err.entries if "; " in entry], err.entries
        assert str(err).split("; ") == err.entries

    @pytest.mark.parametrize("unraveling", [*UNRAVELINGS, ["jump_protecting"]])
    def test_every_precondition(self, unraveling):
        with pytest.raises(ConfigError) as err:
            _breaks_every_precondition(unraveling).validate()
        self._check(err.value)

    @settings(max_examples=100, deadline=None)
    @given(_drawn(_MODEL_VALUES))
    def test_model(self, drawn):
        kwargs, bad = TestEveryBadFieldNamedOnce._split(drawn)
        assume(bad)
        with pytest.raises(FieldErrors) as err:
            LindbladModel(**kwargs)
        self._check(err.value)

    @settings(max_examples=100, deadline=None)
    @given(_drawn(_RUN_VALUES))
    def test_config(self, drawn):
        kwargs, bad = TestEveryBadFieldNamedOnce._split(drawn)
        assume(bad)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(unraveling="jump_protecting", **kwargs).validate()
        self._check(err.value)

    @settings(max_examples=60, deadline=None)
    @given(_drawn(_FIGURE3_VALUES))
    def test_figure3(self, drawn):
        kwargs, bad = TestEveryBadFieldNamedOnce._split(drawn)
        assume(bad)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ConfigError) as err:
                figure3(Path(tmp) / "fig3", **kwargs)
        self._check(err.value)


class TestRecoveryLookup:
    """The runner finds its recovery functions in its own namespace at call time."""

    # calls per trajectory ("traj") or per block of _BLOCK trajectories ("block")
    CALLS = {
        "jump_canonical": {},
        "jump_protecting": {"frame_from_events": "traj", "recover": "block"},
        "diffusive": {},
        "diffusive_protecting_unitary": {"recover_unitary": "block"},
    }

    @pytest.mark.parametrize("unraveling", sorted(CALLS))
    def test_recovery_calls_per_trajectory(self, monkeypatch, unraveling):
        import qtraj.runner as runner

        counts = {}
        for name in ("frame_from_events", "recover", "recover_unitary"):
            fn = getattr(runner, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(runner, name, counted)
        n_traj = runner._BLOCK + 3  # one full block and one partial block
        run_ensemble(_config(unraveling=unraveling, n_trajectories=n_traj, t_max=0.05,
                             sample_times=None))
        per = {"traj": n_traj, "block": -(-n_traj // runner._BLOCK)}
        assert counts == {name: per[unit] for name, unit in self.CALLS[unraveling].items()}


class TestCsv:
    def test_header_and_t0_row(self, tmp_path):
        stats = run_ensemble(_config(n_trajectories=10))
        path = emit_csv(stats, tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0.000000000000,1.000000000000,")
        assert path.read_text().endswith("\n")

    def test_round_trip(self, tmp_path):
        stats = run_ensemble(_config(n_trajectories=25))
        path = emit_csv(stats, tmp_path / "out.csv")
        back = parse_csv(path)
        assert np.max(np.abs(back["time"] - stats.times)) < 1e-12
        assert np.max(np.abs(back["mean_concurrence"] - stats.mean_concurrence)) < 1e-12
        assert np.max(np.abs(back["stderr"] - stats.stderr)) < 1e-12
        assert np.array_equal(back["n"], stats.n)

    def test_empty_statistics_header_only(self, tmp_path):
        empty = EnsembleStatistics(
            times=np.array([]),
            mean_concurrence=np.array([]),
            stderr=np.array([]),
            recovered_concurrence=np.array([]),
            recovered_stderr=np.array([]),
            trace_dist_master=np.array([]),
            recovered_trace_dist=np.array([]),
            min_concurrence=np.array([]),
            n=np.array([], dtype=int),
        )
        path = emit_csv(empty, tmp_path / "empty.csv")
        assert path.read_text() == CSV_HEADER + "\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            (CSV_HEADER + "\n0.5,0.9\n", "line 2: 2 cells, the header has 5"),
            (CSV_HEADER + "\n0,1,0,0,10\n\n0.5,x,0,0,10\n", "line 4: could not convert"),
            (CSV_HEADER + "\n0,1,0,0,10,7\n", "line 2: 6 cells"),
            ("", "no header row"),
            ("\n\n", "no header row"),
        ],
        ids=["short_row", "not_numeric", "long_row", "empty", "blank"],
    )
    def test_parse_rejects_malformed_file(self, tmp_path, text, where):
        # a short row once misaligned the columns silently, and an empty file
        # raised a bare IndexError
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {where}"):
            parse_csv(path)

    def test_write_error_carries_path(self, tmp_path):
        stats = run_ensemble(_config(n_trajectories=5))
        with pytest.raises(OSError, match="no/such"):
            emit_csv(stats, tmp_path / "no/such/dir/out.csv")
        # a view that forms no text once emptied the file before raising
        path = tmp_path / "kept.csv"
        path.write_text("precious")
        with pytest.raises(ValueError, match="unknown view"):
            emit_csv(stats, path, view="bogus")
        assert path.read_text() == "precious"


class TestFigure3:
    def test_small_run_series_shapes(self, tmp_path):
        paths = figure3(
            tmp_path, n_trajectories=40, dt=1e-3, t_max=0.2, sample_spacing=0.1,
            master_seed=3, workers=1,
        )
        assert len(paths) == 5
        names = sorted(p.name for p in paths)
        assert names[0].startswith("fig3_a") and names[4].startswith("fig3_e")
        # perfect monitoring: constant 1
        e = parse_csv([p for p in paths if "_e_" in p.name][0])
        assert np.allclose(e["mean_concurrence"], 1.0, atol=1e-9)
        # unmonitored infinite-T starts at 1 and decays
        a = parse_csv([p for p in paths if "_a_" in p.name][0])
        assert a["mean_concurrence"][0] == 1.0
        assert a["mean_concurrence"][-1] < 0.7

    @pytest.mark.parametrize("spacing", [0.0, -0.05, np.nan, np.inf])
    def test_non_positive_spacing_rejected_before_any_series(self, tmp_path, monkeypatch, spacing):
        # spacing 0 once ended in a ZeroDivisionError, and a negative spacing
        # reached the master oracle as an empty grid
        import qtraj.runner as runner

        def no_series(config):
            raise AssertionError("a series ran")

        monkeypatch.setattr(runner, "run_ensemble", no_series)
        with pytest.raises(ValueError, match="^sample_spacing: must be finite and > 0"):
            figure3(tmp_path, sample_spacing=spacing)


    @pytest.mark.parametrize(
        "field, value", [("n_trajectories", 0), ("workers", 0), ("master_seed", -1)]
    )
    def test_bad_run_field_rejected_before_any_file(self, tmp_path, field, value):
        # these once failed only after the two master series were written
        with pytest.raises(ConfigError, match=f"{field}: must be an integer"):
            figure3(tmp_path, t_max=0.1, sample_spacing=0.1, **{field: value})
        assert not list(tmp_path.iterdir())

    def test_bad_workers_env_rejected_before_any_file(self, tmp_path, monkeypatch):
        # the variable was once read inside the first ensemble, after the two
        # master series were written
        from qtraj.runner import WORKERS_ENV

        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ConfigError, match="^QTRAJ_WORKERS: must be an integer >= 1, got 'zero'$"):
            figure3(tmp_path, n_trajectories=10)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("t_max", [np.nan, np.inf])
    def test_non_finite_t_max_named_before_any_file(self, tmp_path, t_max):
        # np.arange over the sample times once failed first, naming no field
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError, match="^t_max: must be finite"):
            figure3(out, t_max=t_max)
        assert not out.exists()

    def test_non_numeric_fields_named_before_any_file(self, tmp_path):
        # np.isfinite once raised a TypeError on t_max = None, naming no field
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, t_max=None, sample_spacing="0.05", gamma=-1.0)
        assert str(err.value) == (
            "sample_spacing: must be a real number, got '0.05'; "
            "t_max: must be a real number, got None; gamma: must be finite and > 0, got -1.0"
        )
        assert not out.exists()

    def test_own_and_run_fields_in_one_error(self, tmp_path):
        # only gamma was once named; n_trajectories and dt came after it was fixed
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, n_trajectories=0, dt=-1.0, gamma=-2.0)
        assert str(err.value) == (
            "gamma: must be finite and > 0, got -2.0; dt: must be finite and > 0, got -1.0; "
            "n_trajectories: must be an integer in [1, 4294967296], got 0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("spacing", [1e-300, 5e-4])
    def test_spacing_below_dt_named_before_the_times(self, tmp_path, spacing):
        # 1e-300 once raised NumPy's "Maximum allowed size exceeded" from arange
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, sample_spacing=spacing, n_trajectories=0)
        assert _fields(str(err.value)) == ["sample_spacing", "n_trajectories"]
        assert str(err.value).startswith("sample_spacing: must be finite and >= 0.001, got ")
        assert not out.exists()

    def test_off_grid_spacing_named_before_the_times(self, tmp_path):
        # it once reached the runs' grid check as "sample_times: 0.0015 is not on the step grid"
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, sample_spacing=0.0015, t_max=0.003, n_trajectories=0)
        assert str(err.value) == (
            "sample_spacing: 0.0015 is not a whole number of steps (dt=0.001); "
            "n_trajectories: must be an integer in [1, 4294967296], got 0"
        )
        assert not out.exists()

    def test_times_stop_at_t_max(self, tmp_path):
        # a t_max that is no whole number of spacings once put 0.006 past t_max = 0.005
        paths = figure3(tmp_path, sample_spacing=0.003, t_max=0.005, n_trajectories=2, workers=1)
        for path in paths:
            assert parse_csv(path)["time"].tolist() == [0.0, 0.003]

    def test_ints_beyond_float_named(self, tmp_path):
        # 10**400 once raised TypeError from np.isfinite, and OverflowError as t_max
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, t_max=10**400, gamma=10**400)
        assert _fields(str(err.value)) == ["t_max", "gamma"]
        assert "within the float range" in str(err.value)
        assert not out.exists()

    def test_step_count_named_before_the_times(self, tmp_path):
        # 10**303 steps once reached np.arange, whose "Maximum allowed size
        # exceeded" named no field
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, t_max=1e300, sample_spacing=1.0, workers=0)
        assert _fields(str(err.value)) == ["dt", "workers"]
        assert not out.exists()

    def test_shared_t_max_named_once(self, tmp_path):
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError) as err:
            figure3(out, t_max=np.nan, dt=None, workers=0)
        assert _fields(str(err.value)) == ["t_max", "dt", "workers"]
        assert not out.exists()

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_gamma_named_before_any_file(self, tmp_path, gamma):
        # a NaN gamma was once reported under the models' gamma_minus and gamma_plus
        out = tmp_path / "fig3"
        with pytest.raises(ConfigError, match="^gamma: must be finite and > 0"):
            figure3(out, gamma=gamma)
        assert not out.exists()


class TestCli:
    def _run(self, *args):
        # the child imports the qtraj under test, whether or not PYTHONPATH names it
        src = str(Path(qtraj.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "qtraj.cli", *args],
            capture_output=True, text=True, env=os.environ | {"PYTHONPATH": path},
        )

    def test_params_output(self):
        res = self._run("params", "--omega", "1", "--big-gamma", "100", "--gamma-minus", "0.05")
        assert res.returncode == 0
        assert "gamma_plus = 0.04" in res.stdout
        assert "thermal_occupation = 4" in res.stdout

    def test_master_to_stdout(self):
        res = self._run(
            "master", "--gamma-minus", "1", "--gamma-plus", "0", "--dt", "1e-3",
            "--t-max", "0.1", "--sample-times", "0,0.05,0.1",
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == CSV_HEADER

    def test_jump_writes_file(self, tmp_path):
        out = tmp_path / "jump.csv"
        res = self._run(
            "jump", "--unraveling", "protecting", "--n-traj", "20", "--seed", "3",
            "--t-max", "0.2", "--sample-times", "0 0.1 0.2", "--output", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert out.exists()
        data = parse_csv(out)
        assert np.allclose(data["mean_concurrence"], 1.0, atol=1e-9)

    def test_config_error_exit_code(self):
        res = self._run("jump", "--n-traj", "0")
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_t_max_off_grid_exit_code(self):
        # dt = 0.3 once ran to t = 0.9 and printed a CSV for t_max = 1
        res = self._run(
            "jump", "--dt", "0.3", "--t-max", "1.0", "--n-traj", "2",
            "--gamma-minus", "0.01", "--gamma-plus", "0.01",
        )
        assert res.returncode == 2
        assert "t_max" in res.stderr and not res.stdout

    def test_u_outside_general_sme_exit_code(self, tmp_path):
        cfg = tmp_path / "u.ini"
        cfg.write_text("[run]\nn_trajectories = 2\nt_max = 0.1\nu12 = 3\n")
        for argv in (
            ["jump", "--config", str(cfg)],
            ["diffusive", "--exact-unitary", "--n-traj", "2", "--t-max", "0.1", "--u12", "3"],
        ):
            res = self._run(*argv)
            assert res.returncode == 2, argv
            assert "u: only the diffusive" in res.stderr and not res.stdout

    def test_master_coarse_dt_exit_code(self):
        # dt only places the master's default samples; it once exited 2
        # with "gamma_max*dt = 0.05 exceeds 0.01"
        res = self._run("master", "--dt", "0.05")
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 1 + 21

    def test_master_config_with_time_below_grid(self, tmp_path):
        cfg = tmp_path / "master.ini"
        cfg.write_text("[run]\ndt = 0.001\nt_max = 2\nsample_times = 0.5 1.9999999985\n")
        res = self._run("master", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 1 + 2

    def test_empty_sample_times_exit_code(self):
        # once passed validate() and exited 2 with numpy's "need at least one
        # array to stack" after a trajectory had run
        res = self._run("jump", "--sample-times", "", "--n-traj", "2", "--t-max", "0.1")
        assert res.returncode == 2
        assert "sample_times: must not be empty" in res.stderr and not res.stdout

    def test_figure3_zero_spacing_exit_code(self, tmp_path):
        res = self._run("figure3", "--output-dir", str(tmp_path), "--sample-spacing", "0")
        assert res.returncode == 2
        assert "sample_spacing" in res.stderr and "Traceback" not in res.stderr
        assert not list(tmp_path.iterdir())

    def test_figure3_off_grid_spacing_exit_code(self, tmp_path):
        # figure3 has no sample_times flag, yet its error once named that field
        out = tmp_path / "fig3"
        res = self._run("figure3", "--output-dir", str(out), "--sample-spacing", "0.0015", "--t-max", "0.003")
        assert res.returncode == 2
        assert res.stderr == "config error: sample_spacing: 0.0015 is not a whole number of steps (dt=0.001)\n"
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nddt = 0.001\n")
        res = self._run("master", "--config", str(cfg))
        assert res.returncode == 2
        assert "ddt" in res.stderr

    def _ini(self, tmp_path, run_lines):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[model]\ngamma_minus = 1.0\ngamma_plus = 1.0\neta = 0.5\n"
            "[run]\ndt = 0.001\nt_max = 0.1\nn_trajectories = 10\nmaster_seed = 4\n"
            "sample_times = 0 0.1\n" + run_lines
        )
        return str(cfg)

    def test_config_view_honoured_and_flag_wins(self, tmp_path, capsys):
        from qtraj.cli import main

        def csv(*argv):
            assert main(["jump", *argv]) == 0
            return capsys.readouterr().out

        ini = self._ini(tmp_path, "view = recovered\n")
        stats = run_ensemble(
            _config(
                model=LindbladModel(2, 1.0, 1.0, eta=0.5), t_max=0.1, n_trajectories=10,
                master_seed=4, sample_times=np.array([0.0, 0.1]),
            )
        )
        assert csv("--config", ini) == csv_text(stats, "recovered")
        assert csv("--config", ini, "--view", "trajectory") == csv_text(stats, "trajectory")
        assert main(["jump", "--config", self._ini(tmp_path, "view = raw\n")]) == 2
        assert "view: unknown 'raw', expected one of ('trajectory', 'recovered')" in capsys.readouterr().err

    def test_config_output_key_and_flag_wins(self, tmp_path, capsys):
        from qtraj.cli import main

        ini = self._ini(tmp_path, f"output = {tmp_path / 'ini.csv'}\n")
        assert main(["jump", "--config", ini]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'ini.csv'}\n"
        assert parse_csv(tmp_path / "ini.csv")["n"][0] == 10
        assert main(["jump", "--config", ini, "--output", str(tmp_path / "flag.csv")]) == 0
        assert (tmp_path / "flag.csv").read_text() == (tmp_path / "ini.csv").read_text()

    @pytest.mark.parametrize(
        "argv, key, ok",
        [
            (["jump"], "jump_protecting", True),
            (["jump", "--unraveling", "canonical"], "jump_canonical", True),
            (["jump"], "jump_canonical", False),
            (["jump", "--unraveling", "canonical"], "jump_protecting", False),
            (["master"], "jump_protecting", False),
            (["diffusive"], "diffusive_protecting_unitary", False),
        ],
    )
    def test_config_unraveling_must_agree(self, tmp_path, capsys, argv, key, ok):
        from qtraj.cli import main

        ini = self._ini(tmp_path, f"unraveling = {key}\n")
        code = main([*argv, "--config", ini, "--eta", "1"])
        err = capsys.readouterr().err
        assert code == (0 if ok else 2)
        assert ok or "unraveling" in err

    @pytest.mark.parametrize(
        "ini, words",
        [
            ("[model]\neta = x\n[run]\ndt = y\nfoo = 1\n", ("foo", "eta", "dt")),
            ("[run]\ndt = y\nt_max = z\n", ("dt", "t_max")),
        ],
        ids=["three_fields", "two_run_fields"],
    )
    def test_every_bad_field_in_one_error(self, tmp_path, capsys, ini, words):
        # each of these once reported only its first bad field
        from qtraj.cli import main

        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert main(["jump", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert all(word in err for word in words), err

    @pytest.mark.parametrize(
        "ini", ["dt = 0.001\n", "[run]\ndt = 0.001\ndt = 0.002\n"], ids=["no_section", "duplicate"]
    )
    def test_malformed_config_file_exit_code(self, tmp_path, capsys, ini):
        # configparser's own errors once ended in a traceback and exit code 1
        from qtraj.cli import main

        cfg = tmp_path / "malformed.ini"
        cfg.write_text(ini)
        assert main(["jump", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: config: ")

    def test_unraveling_and_model_errors_together(self, tmp_path, capsys):
        from qtraj.cli import main

        cfg = tmp_path / "diffusive.ini"
        cfg.write_text("[run]\nunraveling = diffusive\n")
        assert main(["jump", "--eta", "2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unraveling:" in err and "eta: must be finite and in [0, 1]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["master", "--gamma-minus", "nan"],
            ["jump", "--unraveling", "canonical", "--gamma-minus", "nan", "--n-traj", "2"],
            ["diffusive", "--gamma-plus", "inf", "--n-traj", "2"],
        ],
    )
    def test_non_finite_rate_exit_code(self, capsys, argv):
        # NaN rates once reached the engines and exited 3 on trajectory 0
        from qtraj.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: gamma_") and "finite" in err and not out

    @pytest.mark.parametrize(
        "argv",
        [
            ["diffusive", "--n-traj", "20", "--view", "recovered", "--sample-times", "0 0.5 1"],
            ["jump", "--unraveling", "canonical", "--gamma-plus", "0", "--eta", "0.5",
             "--n-traj", "300", "--view", "recovered", "--sample-times", "0 0.5 1"],
        ],
        ids=["diffusive", "jump_canonical"],
    )
    def test_recovered_view_without_a_frame_exit_code(self, capsys, argv):
        # nothing is undone: the recovered oracle is the raw mean's distance to the
        # full-rate master, not to the (1-eta) gamma master (at eta = 1, rho0 itself)
        from qtraj.cli import main

        columns = {}
        for view in ("recovered", "trajectory"):
            assert main([view if a == "recovered" else a for a in argv]) == 0
            out, err = capsys.readouterr()
            assert out.startswith(CSV_HEADER) and not err
            columns[view] = [line.split(",")[3] for line in out.splitlines()[1:]]
        assert columns["recovered"] == columns["trajectory"]

    @pytest.mark.parametrize(
        "argv",
        [["master"], ["jump", "--n-traj", "20"], ["diffusive", "--exact-unitary", "--n-traj", "4"]],
        ids=["master", "jump_protecting", "diffusive_protecting_unitary"],
    )
    def test_recovered_view_with_a_frame_runs(self, capsys, argv):
        from qtraj.cli import main

        assert main([*argv, "--view", "recovered", "--t-max", "0.1", "--sample-times", "0 0.1"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_every_bad_model_field_named(self, capsys):
        from qtraj.cli import main

        assert main(["master", "--n-qubits", "0", "--gamma-minus", "1 2"]) == 2
        err = capsys.readouterr().err
        assert "n_qubits" in err and "gamma_minus" in err

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["jump", "--eta", "2", "--dt", "-1"],
             ("eta: must be finite and in [0, 1]", "dt: must be finite and > 0")),
            (["master", "--n-qubits", "0", "--dt", "-1"],
             ("n_qubits: must be an integer in [1, 10]", "dt: must be finite and > 0")),
            # a value that does not convert once hid every other bad field
            (["jump", "--n-traj", "x", "--dt", "-1", "--seed", "-3"],
             ("n_trajectories: must be an integer >= 1, got 'x'", "dt: must be finite and > 0",
              "master_seed: must be an integer >= 0, got -3")),
            (["jump", "--n-qubits", "x", "--eta", "5", "--gamma-minus", "1 q"],
             ("n_qubits: must be an integer >= 1, got 'x'", "eta: must be finite and in [0, 1]",
              "gamma_minus: must be a real number, got '1 q'")),
            (["diffusive", "--u12", "q", "--t-max", "x"],
             ("u: noise correlation must be a 2x2 array of numbers, got [[0j, 'q'], ['q', 0j]]",
              "t_max: must be a real number, got 'x'")),
        ],
    )
    def test_model_and_run_errors_in_one_line(self, capsys, argv, words):
        # the run's fields were once checked only after the model had built
        from qtraj.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert all(word in err for word in words), err

    @pytest.mark.parametrize("flag, value", [("--n-traj", "2.5"), ("--dt", "x"), ("--seed", "s")])
    def test_unconverted_flag_same_entry_under_jump_and_figure3(self, tmp_path, capsys, flag, value):
        # one rule for text that does not convert: the check that owns the field names it
        from qtraj.cli import main

        errs = []
        for argv in (["jump"], ["figure3", "--output-dir", str(tmp_path / "fig3")]):
            assert main([*argv, flag, value]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and len(errs[0].splitlines()) == 1, errs
        assert f"got '{value}'" in errs[0]
        assert not (tmp_path / "fig3").exists()

    def test_figure3_non_finite_t_max_exit_code(self, tmp_path):
        out = tmp_path / "fig3"
        res = self._run("figure3", "--output-dir", str(out), "--t-max", "nan")
        assert res.returncode == 2
        assert res.stderr.startswith("config error: t_max: must be finite")
        assert not out.exists()

    def test_figure3_bad_gamma_and_spacing_in_one_line(self, tmp_path):
        out = tmp_path / "fig3"
        res = self._run("figure3", "--output-dir", str(out), "--gamma", "nan", "--sample-spacing", "0")
        assert res.returncode == 2
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and "sample_spacing:" in lines[0] and "gamma:" in lines[0]
        assert "gamma_minus" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (["--n-traj", "0", "--dt", "-1", "--gamma", "-2"], ["gamma", "dt", "n_trajectories"]),
            (["--n-traj", "abc", "--dt", "xyz", "--gamma", "q"], ["gamma", "dt", "n_trajectories"]),
            (["--seed", "1.5", "--t-max", "x", "--sample-spacing", "0", "--workers", "w"],
             ["sample_spacing", "t_max", "workers", "master_seed"]),
        ],
        ids=["out_of_range", "not_numbers", "mixed"],
    )
    def test_figure3_every_bad_flag_in_one_line(self, tmp_path, capsys, flags, fields):
        # these once stopped at the first bad flag: gamma, or argparse's usage
        # error naming only --n-traj
        from qtraj.cli import main

        out = tmp_path / "fig3"
        assert main(["figure3", "--output-dir", str(out), *flags]) == 2
        stdout, err = capsys.readouterr()
        assert not stdout and len(err.splitlines()) == 1
        assert err.startswith("config error: ")
        assert _fields(err.strip().removeprefix("config error: ")) == fields
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, words",
        [
            (["--omega", "1", "--big-gamma", "inf"], "big_gamma: must be finite and > 0, got inf"),
            (["--omega", "nan", "--big-gamma", "100"], "omega: must be finite and >= 0, got nan"),
            (["--omega", "abc", "--big-gamma", "-1"],
             "omega: must be a real number, got 'abc'; big_gamma: must be finite and > 0, got -1.0"),
            (["--omega", "-1", "--big-gamma", "0"],
             "omega: must be finite and >= 0, got -1.0; big_gamma: must be finite and > 0, got 0.0"),
        ],
    )
    def test_params_rejects_non_finite_values(self, capsys, flags, words):
        # an infinite Gamma once printed gamma_plus = 0 and exited 0, and a NaN
        # omega printed an infinite thermal occupation
        from qtraj.cli import main

        assert main(["params", *flags, "--gamma-minus", "0.05"]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"config error: {words}\n"

    def test_negative_seed_exit_code(self, capsys):
        from qtraj.cli import main

        assert main(["jump", "--seed", "-1", "--n-traj", "2", "--t-max", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert "master_seed" in err and not out

    def test_figure3_passes_only_given_flags(self, monkeypatch, capsys):
        # figure3's signature holds its defaults; the parser adds none
        import inspect

        import qtraj.cli as cli

        seen = []
        monkeypatch.setattr(cli, "figure3", lambda **kw: seen.append(kw) or [])
        assert cli.main(["figure3", "--output-dir", "d"]) == 0
        every = [
            "--output-dir", "d", "--gamma", "2", "--n-traj", "5", "--dt", "0.01",
            "--t-max", "0.5", "--sample-spacing", "0.1", "--seed", "3", "--workers", "1",
        ]
        assert cli.main(["figure3", *every]) == 0
        assert seen[0] == {"output_dir": "d"}
        assert set(seen[1]) == set(inspect.signature(figure3).parameters)

    _RUN_FLAGS = [
        "--help", "--config", "--n-qubits", "--gamma-minus", "--gamma-plus", "--eta", "--dt",
        "--t-max", "--n-traj", "--seed", "--initial-state", "--sample-times", "--workers",
        "--output", "--view",
    ]

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("master", _RUN_FLAGS),
            ("jump", _RUN_FLAGS + ["--unraveling"]),
            ("diffusive", _RUN_FLAGS + ["--exact-unitary", "--u11", "--u12", "--u22"]),
            ("figure3", ["--help", "--output-dir", "--gamma", "--n-traj", "--dt", "--t-max",
                         "--sample-spacing", "--seed", "--workers"]),
        ],
    )
    def test_command_flags(self, capsys, command, flags):
        import re

        from qtraj.cli import main

        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert set(re.findall(r"--[a-z0-9][a-z0-9-]*", capsys.readouterr().out)) == set(flags)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[model]\nn_qubits = 2\ngamma_minus = 1.0\ngamma_plus = 1.0\neta = 1.0\n"
            "[run]\nunraveling = jump_protecting\ndt = 0.001\nt_max = 0.2\n"
            "n_trajectories = 10\nmaster_seed = 4\nsample_times = 0 0.2\n"
        )
        out = tmp_path / "cfg.csv"
        res = self._run("jump", "--config", str(cfg), "--n-traj", "15", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert parse_csv(out)["n"][0] == 15  # flag wins over file
