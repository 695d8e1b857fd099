"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The ensemble criteria take
a few minutes in total on one core.
"""

import filecmp

import numpy as np
import pytest

from qtraj.diffusive import (
    PROTECTING_U,
    current_expectations,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
)
from qtraj.entangle import concurrence, concurrence_signed, fidelity_to_pure, trace_distance
from qtraj.jumps import (
    UnravelingTransform,
    canonical_jumps,
    no_jump_operator,
    protecting_jumps,
    run_jump_trajectory,
    trajectory_seed,
    transform_jumps,
)
from qtraj.master import LindbladModel, analytic_concurrence, integrate_master
from qtraj.qcore import (
    SIGMA_X,
    SIGMA_Y,
    bell_state,
    density,
    dissipator,
    random_density_matrix,
    random_unitary,
)
from qtraj.recovery import frame_from_events, recover, recover_unitary
from qtraj.runner import ExperimentConfig, figure3, run_ensemble

GAMMA = 1.0
BELL = density(bell_state())
T_CROSS = np.log(1.0 + np.sqrt(2.0)) / 2.0  # 0.44068679...


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_perfect_protection_jump():
    model = LindbladModel(2, GAMMA, GAMMA, eta=1.0)
    jumps = protecting_jumps(model)
    dt, t_max, n_traj = 1e-3, 2.0, 200
    times = np.round(np.arange(0.0, t_max + 1e-9, 0.1), 12)
    worst_dev = 0.0
    worst_fid = 1.0
    for i in range(n_traj):
        rec = run_jump_trajectory(
            model, jumps, BELL, dt, t_max, trajectory_seed(101, i), sample_times=times
        )
        worst_dev = max(worst_dev, max(abs(concurrence(s) - 1.0) for s in rec.samples))
        frame = frame_from_events(rec.events, 2)[-1]
        fid = fidelity_to_pure(recover(rec.final_state, frame), bell_state())
        worst_fid = min(worst_fid, fid)
    ok = worst_dev <= 1e-9 and worst_fid >= 1.0 - 1e-9
    report(
        1, ok,
        f"protecting jumps eta=1, N={n_traj}: max|C-1| = {worst_dev:.2e} (tol 1e-9), "
        f"min recovered fidelity = {1 - (1 - worst_fid):.15f} (>= 1 - 1e-9)",
    )


def test_criterion_2_unmonitored_infinite_T_curve():
    model = LindbladModel(2, GAMMA, GAMMA)
    dt = 1e-3
    series = integrate_master(model, BELL, dt * np.arange(1001))
    expected = analytic_concurrence("infinite_T", GAMMA, None, series.times)
    got = np.array([concurrence(s) for s in series.values])
    max_err = float(np.max(np.abs(got - expected)))
    signed = np.array([concurrence_signed(s) for s in series.values])
    idx = int(np.flatnonzero((signed[:-1] > 0) & (signed[1:] <= 0))[0])
    frac = signed[idx] / (signed[idx] - signed[idx + 1])
    t_cross = series.times[idx] + dt * frac
    cross_err = abs(t_cross - T_CROSS)
    ok = max_err <= 1e-6 and cross_err <= 1e-4
    report(
        2, ok,
        f"infinite-T master curve: max|C - closed form| = {max_err:.2e} (tol 1e-6), "
        f"zero crossing {t_cross:.6f} vs ln(1+sqrt2)/2 = {T_CROSS:.6f} "
        f"(err {cross_err:.2e}, tol 1e-4)",
    )


def test_criterion_3_unmonitored_zero_T_curve():
    model = LindbladModel(2, GAMMA, 0.0)
    series = integrate_master(model, BELL, 1e-3 * np.arange(1001))
    got = np.array([concurrence(s) for s in series.values])
    max_err = float(np.max(np.abs(got - np.exp(-GAMMA * series.times))))
    ok = max_err <= 1e-6
    report(3, ok, f"zero-T master curve: max|C - exp(-gt)| = {max_err:.2e} (tol 1e-6)")


@pytest.mark.parametrize("eta", [0.8, 0.9])
def test_criterion_4_inefficiency_curves(eta):
    times = np.array([0.25, 0.5, 1.0])
    cfg = ExperimentConfig(
        model=LindbladModel(2, GAMMA, GAMMA, eta=eta),
        unraveling="jump_protecting",
        dt=1e-3 / GAMMA,
        t_max=1.0,
        n_trajectories=10_000,
        master_seed=404 + int(eta * 10),
        sample_times=times,
        workers=1,
    )
    stats = run_ensemble(cfg)
    expected = analytic_concurrence("monitored", GAMMA, eta, times)
    tol = np.maximum(0.02, 3.0 * stats.recovered_stderr)
    errs = np.abs(stats.recovered_concurrence - expected)
    ok = bool(np.all(errs <= tol))
    report(
        4, ok,
        f"eta={eta}, N=10^4 recovered-average concurrence at gt={list(times)}: "
        f"errors {np.round(errs, 4).tolist()} vs tol {np.round(tol, 4).tolist()}",
    )


def test_criterion_5_zero_T_monitored_average():
    times = np.array([0.5, 1.0])
    cfg = ExperimentConfig(
        model=LindbladModel(2, GAMMA, 0.0, eta=1.0),
        unraveling="jump_canonical",
        dt=1e-3,
        t_max=1.0,
        n_trajectories=10_000,
        master_seed=505,
        sample_times=times,
        workers=1,
    )
    stats = run_ensemble(cfg)
    expected = np.exp(-GAMMA * times)
    errs = np.abs(stats.mean_concurrence - expected)
    tol = 3.0 * stats.stderr
    ok = bool(np.all(errs <= tol))
    report(
        5, ok,
        f"canonical zero-T, N=10^4: mean concurrence errors {np.round(errs, 5).tolist()} "
        f"vs 3*stderr {np.round(tol, 5).tolist()} at gt={list(times)}",
    )


def test_criterion_6_diffusive_protection():
    model = LindbladModel(2, GAMMA, GAMMA)
    n_traj = 100
    # exact-unitary path at dt = 1e-4
    times = np.round(np.arange(0.0, 1.0 + 1e-9, 0.1), 12)
    worst_dev = 0.0
    worst_rec = 0.0
    for i in range(n_traj):
        rec = run_protecting_unitary_trajectory(
            model, BELL, 1e-4, 1.0, trajectory_seed(606, i), sample_times=times
        )
        worst_dev = max(worst_dev, max(abs(concurrence(s) - 1.0) for s in rec.samples))
        worst_rec = max(
            worst_rec, trace_distance(recover_unitary(rec.final_state, rec.frame), BELL)
        )
    unitary_ok = worst_dev <= 1e-10 and worst_rec < 1e-8

    # general-SME path with the protecting u: deviation shrinks at least ~dt
    devs = []
    for dt in (4e-4, 2e-4, 1e-4):
        dev = 0.0
        for i in range(n_traj):
            rec = run_diffusive_trajectory(
                model, PROTECTING_U, BELL, dt, 1.0, trajectory_seed(607, i),
                sample_times=[0.5, 1.0],
            )
            dev = max(dev, max(abs(concurrence(s) - 1.0) for s in rec.samples))
        devs.append(dev)
    shrink1 = devs[1] / devs[0]
    shrink2 = devs[2] / devs[1]
    sme_ok = shrink1 <= 0.65 and shrink2 <= 0.65
    ok = unitary_ok and sme_ok
    report(
        6, ok,
        f"unitary path: max|C-1| = {worst_dev:.2e} (tol 1e-10), recovery dist "
        f"{worst_rec:.2e} (tol 1e-8); SME deviations {[f'{d:.2e}' for d in devs]} "
        f"shrink factors {shrink1:.2f}, {shrink2:.2f} (need <= 0.65 per halving)",
    )


def test_criterion_7_unraveling_invariance():
    model = LindbladModel(2, GAMMA, GAMMA)
    base = canonical_jumps(model)
    n_traj = 5000
    times = [0.5, 1.0]
    master = integrate_master(model, BELL, times)
    gen = np.random.default_rng(707)
    worst = 0.0
    for k in range(10):
        u = UnravelingTransform(random_unitary(2, gen))
        jumps = []
        for q in (0, 1):
            jumps.extend(transform_jumps([base[2 * q], base[2 * q + 1]], u))
        acc = {t: np.zeros((4, 4), dtype=complex) for t in times}
        for i in range(n_traj):
            rec = run_jump_trajectory(
                model, jumps, BELL, 1e-3, 1.0, trajectory_seed(708 + k, i), sample_times=times
            )
            for t, s in zip(times, rec.samples):
                acc[t] += s
        for t in times:
            worst = max(worst, trace_distance(acc[t] / n_traj, master.at(t)))
    bound = 4.0 / np.sqrt(n_traj)
    ok = worst < bound
    report(
        7, ok,
        f"10 random left-unitary transforms, N={n_traj}: worst trace distance to "
        f"master {worst:.4f} < 4/sqrt(N) = {bound:.4f}",
    )


def test_criterion_8_current_nullity():
    model = LindbladModel(2, GAMMA, GAMMA)
    gen = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix(4, gen)
        for qubit in (0, 1):
            det_m, det_p = current_expectations(rho, model, PROTECTING_U, qubit)
            worst = max(worst, abs(det_m), abs(det_p))
    ok = worst < 1e-14
    report(
        8, ok,
        f"protecting-u deterministic current parts over 100 random states: "
        f"max magnitude {worst:.2e} (tol 1e-14)",
    )


def test_criterion_9_commutation_lemma_suite():
    model = LindbladModel(2, GAMMA, GAMMA)
    m = no_jump_operator(protecting_jumps(model), 1e-3)
    m_dev = float(np.max(np.abs(m - m[0, 0] * np.eye(4))))

    gen = np.random.default_rng(909)
    comm_dev = 0.0
    for _ in range(100):
        rho = random_density_matrix(2, gen)
        d = dissipator(SIGMA_X, rho) + dissipator(SIGMA_Y, rho)
        for p in (SIGMA_X, SIGMA_Y):
            conj = p @ rho @ p.conj().T
            d_conj = dissipator(SIGMA_X, conj) + dissipator(SIGMA_Y, conj)
            comm_dev = max(comm_dev, float(np.max(np.abs(d_conj - p @ d @ p.conj().T))))
    ok = m_dev < 1e-12 and comm_dev < 1e-12
    report(
        9, ok,
        f"balanced no-jump operator scalar to {m_dev:.2e} (tol 1e-12); "
        f"dissipator-conjugation commutator over 100 random states: {comm_dev:.2e} (tol 1e-12)",
    )


def test_criterion_10_determinism_across_workers(tmp_path):
    kwargs = dict(n_trajectories=400, dt=1e-3, t_max=0.5, sample_spacing=0.05, master_seed=1010)
    paths1 = figure3(tmp_path / "w1", workers=1, **kwargs)
    paths8 = figure3(tmp_path / "w8", workers=8, **kwargs)
    identical = all(
        filecmp.cmp(a, b, shallow=False) for a, b in zip(sorted(paths1), sorted(paths8))
    )
    report(
        10, identical,
        f"figure3 at 1 and 8 workers: {len(paths1)} CSV files byte-identical = {identical}",
    )
