"""Ensemble orchestration, CSV contract, determinism, CLI surface."""

import subprocess
import sys

import numpy as np
import pytest

from qtraj.master import LindbladModel, analytic_concurrence
from qtraj.runner import (
    CSV_HEADER,
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


class TestConfigValidation:
    def test_valid_passes(self):
        _config().validate()

    def test_bad_fields_enumerated(self):
        cfg = _config(dt=-1.0, n_trajectories=0, unraveling="telepathy")
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        assert "dt" in msg and "n_trajectories" in msg and "unraveling" in msg

    def test_off_grid_sample_times(self):
        with pytest.raises(ConfigError, match="sample_times"):
            _config(sample_times=np.array([0.12345e-1])).validate()

    @pytest.mark.parametrize(
        "unraveling",
        ["none", "jump_canonical", "jump_protecting", "diffusive", "diffusive_protecting_unitary"],
    )
    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.1, 0.2], [0.0, 0.2, 0.1]], ids=["dup", "desc"])
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

    @pytest.mark.parametrize(
        "unraveling", ["none", "jump_canonical", "jump_protecting", "diffusive_protecting_unitary"]
    )
    def test_u_only_for_diffusive(self, unraveling):
        cfg = _config(unraveling=unraveling, u=np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="u: only the diffusive"):
            cfg.validate()

    def test_rate_step_product_guard(self):
        with pytest.raises(ConfigError, match="gamma_max"):
            _config(model=LindbladModel(2, 100.0, 100.0)).validate()

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
        ],
        ids=["trace_2", "non_hermitian", "negative_eigenvalue", "zero_ket", "nan_ket"],
    )
    def test_bad_explicit_initial_state_fails_before_any_chunk(self, monkeypatch, state, words):
        # these once passed validate() and failed inside a trajectory
        import qtraj.runner as runner

        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(runner, "_run_chunk", no_chunk)
        with pytest.raises(ConfigError, match=f"initial_state: .*{words}"):
            run_ensemble(_config(initial_state=state))


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
        cfg = _config(model=model, t_max=1.0, n_trajectories=300, master_seed=4, sample_times=None)
        stats = run_ensemble(cfg)  # two chunks: 256 + 44
        rho0, _ = resolve_initial_state("bell", 2)
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
                for i in range(300)
            ]
        )
        assert stats.stderr[0] < 1e-15
        expected = np.std(c, axis=0, ddof=1) / np.sqrt(300)
        assert np.max(np.abs(stats.stderr - expected)) <= 1e-15

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
        monkeypatch.setenv(WORKERS_ENV, "zero")
        with pytest.raises(ConfigError):
            default_workers()

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

    def test_write_error_carries_path(self, tmp_path):
        stats = run_ensemble(_config(n_trajectories=5))
        with pytest.raises(OSError, match="no/such"):
            emit_csv(stats, tmp_path / "no/such/dir/out.csv")


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


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "qtraj.cli", *args],
            capture_output=True, text=True,
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

    def test_master_config_with_time_below_grid(self, tmp_path):
        cfg = tmp_path / "master.ini"
        cfg.write_text("[run]\ndt = 0.001\nt_max = 2\nsample_times = 0.5 1.9999999985\n")
        res = self._run("master", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 1 + 2

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
        assert "view" in capsys.readouterr().err

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
