"""Ensemble orchestration, reproducible seeding, statistics and CSV output.

Trajectories are partitioned into fixed-size index chunks (256, independent of
the worker count); each chunk is reduced sequentially in index order and chunk
partials are merged in chunk order, so ensemble output is bitwise identical
for a given configuration at any parallelism degree. Per-trajectory random
streams are counter-based Philox keyed by (master_seed, trajectory_index), so
results do not depend on scheduling either.

Every ensemble reports two distinct concurrence series: the mean of
per-trajectory concurrences (the per-trajectory protection claim) and the
concurrence of the recovered-then-averaged state (the detection-inefficiency
closed form is about the latter). Conflating them is the classic mistake; the
CSV writer picks one via its ``view`` argument.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .diffusive import (
    check_noise_correlation,
    check_perfect_detection,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
)
from .entangle import concurrence, trace_distance
from .jumps import (
    canonical_jumps,
    check_protecting_rates,
    check_rate_step,
    protecting_jumps,
    run_jump_trajectory,
    trajectory_seed,
)
from .master import (
    LindbladModel,
    analytic_bell_state,
    integrate_master,
    oracle_kind,
)
from .qcore import (
    InvariantViolation,
    bell_state,
    computational_ket,
    density,
    step_grid,
    validate_density_matrix,
)
from .recovery import frame_from_events, recover, recover_unitary

WORKERS_ENV = "QTRAJ_WORKERS"
CHUNK = 256  # fixed reduction granularity; must not depend on the worker count

UNRAVELINGS = (
    "none",
    "jump_canonical",
    "jump_protecting",
    "diffusive",
    "diffusive_protecting_unitary",
)

CSV_HEADER = "time,mean_concurrence,stderr,mean_trace_dist_oracle,n"


class ConfigError(ValueError):
    """Invalid experiment configuration; message enumerates offending fields."""


def default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            val = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}: not an integer: {env!r}") from None
        if val < 1:
            raise ConfigError(f"{WORKERS_ENV}: must be >= 1, got {val}")
        return val
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    model: LindbladModel
    unraveling: str
    dt: float
    t_max: float
    n_trajectories: int = 1
    master_seed: int = 0
    initial_state: str | np.ndarray = "bell"
    sample_times: np.ndarray | None = None
    u: np.ndarray | None = None
    output: str | None = None
    workers: int | None = None

    def validate(self) -> None:
        """Raise one ConfigError that lists every bad field, before any work starts."""
        errors = []

        def check(field, fn, *args):
            try:
                fn(*args)
            except ValueError as exc:
                errors.append(f"{field}: {exc}" if field else str(exc))

        if self.unraveling not in UNRAVELINGS:
            errors.append(f"unraveling: unknown {self.unraveling!r}, expected one of {UNRAVELINGS}")
        check(None, step_grid, self.dt, self.t_max, self.sample_times)
        if self.n_trajectories < 1:
            errors.append(f"n_trajectories: must be >= 1, got {self.n_trajectories}")
        if self.workers is not None and self.workers < 1:
            errors.append(f"workers: must be >= 1, got {self.workers}")
        if self.dt > 0:
            check("dt", check_rate_step, self.model, self.dt)
        check("initial_state", resolve_initial_state, self.initial_state, self.model.n_qubits)
        # the engines' own preconditions, checked here so that no worker starts
        if self.unraveling in ("jump_protecting", "diffusive_protecting_unitary"):
            check("model", check_protecting_rates, self.model)
        if self.unraveling in ("diffusive", "diffusive_protecting_unitary"):
            check("eta", check_perfect_detection, self.model)
        if self.u is not None:
            if self.unraveling == "diffusive":
                check("u", check_noise_correlation, self.u)
            else:
                errors.append(f"u: only the diffusive unraveling reads u, not {self.unraveling!r}")
        if errors:
            raise ConfigError("; ".join(errors))


def resolve_initial_state(spec, n_qubits: int) -> tuple[np.ndarray, bool]:
    """Named or explicit initial state; returns (rho0, is_bell_pair)."""
    if isinstance(spec, str):
        if spec == "bell":
            if n_qubits != 2:
                raise ValueError("the bell initial state needs exactly 2 qubits")
            return density(bell_state()), True
        if spec == "ground":
            return density(computational_ket("0" * n_qubits)), False
        if spec == "excited":
            return density(computational_ket("1" * n_qubits)), False
        raise ValueError(f"unknown named state {spec!r} (use bell/ground/excited)")
    arr = np.asarray(spec, dtype=complex)
    dim = 2**n_qubits
    if arr.shape == (dim,):
        norm = np.linalg.norm(arr)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError(f"explicit ket must be finite with a nonzero norm, got norm {norm}")
        return density(arr / norm), False
    if arr.shape == (dim, dim):
        try:
            validate_density_matrix(arr, context="explicit state")
        except InvariantViolation as exc:
            raise ValueError(str(exc)) from None
        return arr, False
    raise ValueError(f"explicit state must be a {dim}-ket or {dim}x{dim} matrix")


@dataclass
class EnsembleStatistics:
    """Per-sample-time ensemble summaries.

    ``mean_concurrence``/``stderr`` are over per-trajectory concurrences;
    ``recovered_concurrence`` is the concurrence of the recovered-then-averaged
    state with a chunk-blocked stderr estimate (NaN with a single chunk, like
    ``stderr`` with a single trajectory). Trace distances compare the raw
    mean against the full-rate master solution and the recovered mean against
    the master run at rates (1-eta)*gamma.
    """

    times: np.ndarray
    mean_concurrence: np.ndarray
    stderr: np.ndarray
    recovered_concurrence: np.ndarray
    recovered_stderr: np.ndarray
    trace_dist_master: np.ndarray
    recovered_trace_dist: np.ndarray
    min_concurrence: np.ndarray
    n: np.ndarray

    def columns(self, view: str = "trajectory"):
        if view == "trajectory":
            return self.mean_concurrence, self.stderr, self.trace_dist_master
        if view == "recovered":
            return self.recovered_concurrence, self.recovered_stderr, self.recovered_trace_dist
        raise ValueError(f"unknown view {view!r} (use trajectory/recovered)")


def _sample_clock(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The requested sample times (the CSV's time column) and their grid times.

    Every state is taken and every click compared at the grid time
    ``dt * step``, the same product the engines stamp on their clicks, so the
    two clocks agree exactly; without requested times, up to 21 evenly spaced
    grid times are sampled.
    """
    n_steps, steps = step_grid(config.dt, config.t_max, config.sample_times)
    if config.sample_times is None:
        steps = np.unique(np.round(np.linspace(0, n_steps, min(21, n_steps + 1))).astype(int))
        return config.dt * steps, config.dt * steps
    return np.atleast_1d(np.asarray(config.sample_times, dtype=float)), config.dt * np.array(steps)


@dataclass
class _ChunkPartial:
    conc_sum: np.ndarray
    conc_m2: np.ndarray  # sum of squared deviations from the chunk mean
    conc_min: np.ndarray
    raw_sum: np.ndarray
    rec_sum: np.ndarray
    count: int


def _run_chunk(config: ExperimentConfig, grid: np.ndarray, lo: int, hi: int) -> _ChunkPartial:
    model = config.model
    n = model.n_qubits
    rho0, _ = resolve_initial_state(config.initial_state, n)
    nt = len(grid)
    dim = model.dim
    two_qubit = n == 2

    conc_sum = np.zeros(nt)
    conc = np.zeros((hi - lo, nt))
    raw_sum = np.zeros((nt, dim, dim), dtype=complex)
    rec_sum = np.zeros((nt, dim, dim), dtype=complex)

    kind = config.unraveling
    if kind == "diffusive":
        engine, lead = run_diffusive_trajectory, (model, config.u)
    elif kind == "diffusive_protecting_unitary":
        engine, lead = run_protecting_unitary_trajectory, (model,)
    else:
        jumps = protecting_jumps(model) if kind == "jump_protecting" else canonical_jumps(model)
        engine, lead = run_jump_trajectory, (model, jumps)

    for idx in range(lo, hi):
        seed = trajectory_seed(config.master_seed, idx)
        record = engine(*lead, rho0, config.dt, config.t_max, seed, grid)
        states = np.stack(record.samples)
        if kind == "jump_protecting":
            # the frame at t folds the clicks at or before t
            rows = np.searchsorted([e.time for e in record.events], grid, side="right")
            recovered = recover(states, frame_from_events(record.events, n)[rows])
        elif kind == "diffusive_protecting_unitary":
            recovered = recover_unitary(states, record.sample_frames)
        else:
            recovered = states

        raw_sum += states
        rec_sum += recovered
        if two_qubit:
            c = concurrence(states)
            conc_sum += c
            conc[idx - lo] = c

    # two passes: deviations from the chunk mean, not conc² - N·mean², which
    # cancels when the concurrences are nearly equal
    m2 = ((conc - conc_sum / (hi - lo)) ** 2).sum(axis=0)
    return _ChunkPartial(conc_sum, m2, conc.min(axis=0), raw_sum, rec_sum, hi - lo)


def _master_statistics(
    config: ExperimentConfig, times: np.ndarray, grid: np.ndarray
) -> EnsembleStatistics:
    model = config.model
    rho0, is_bell = resolve_initial_state(config.initial_state, model.n_qubits)
    series = integrate_master(model, rho0, grid)
    states = np.stack([series.at(t) for t in grid])
    conc = concurrence(states) if model.n_qubits == 2 else np.full(len(times), np.nan)
    kind = oracle_kind(model) if is_bell else None
    if kind is not None:
        dist = np.array(
            [
                trace_distance(s, analytic_bell_state(kind, model.gamma_minus[0], t))
                for t, s in zip(grid, states)
            ]
        )
    else:
        dist = np.zeros(len(times))
    zero = np.zeros(len(times))
    return EnsembleStatistics(
        times=times,
        mean_concurrence=conc,
        stderr=zero.copy(),
        recovered_concurrence=conc.copy(),
        recovered_stderr=zero.copy(),
        trace_dist_master=dist,
        recovered_trace_dist=dist.copy(),
        min_concurrence=conc.copy(),
        n=np.ones(len(times), dtype=int),
    )


def run_ensemble(config: ExperimentConfig) -> EnsembleStatistics:
    """Run the configured ensemble and reduce it deterministically."""
    config.validate()
    times, grid = _sample_clock(config)
    if config.unraveling == "none":
        return _master_statistics(config, times, grid)

    model = config.model
    n_traj = config.n_trajectories
    bounds = [(lo, min(lo + CHUNK, n_traj)) for lo in range(0, n_traj, CHUNK)]
    workers = config.workers if config.workers is not None else default_workers()

    if workers == 1 or len(bounds) == 1:
        partials = [_run_chunk(config, grid, lo, hi) for lo, hi in bounds]
    else:
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=min(workers, len(bounds)), mp_context=ctx) as pool:
            futures = [pool.submit(_run_chunk, config, grid, lo, hi) for lo, hi in bounds]
            partials = [f.result() for f in futures]

    nt = len(grid)
    conc_sum = np.zeros(nt)
    count, chan_mean, m2 = 0, np.zeros(nt), np.zeros(nt)
    conc_min = np.full(nt, np.inf)
    raw_sum = np.zeros((nt, model.dim, model.dim), dtype=complex)
    rec_sum = np.zeros_like(raw_sum)
    for part in partials:  # chunk order fixed by construction
        conc_sum += part.conc_sum
        # Chan, Golub & LeVeque: merge the chunk's mean and M2 into the running pair
        delta = part.conc_sum / part.count - chan_mean
        total = count + part.count
        chan_mean += delta * (part.count / total)
        m2 += part.conc_m2 + delta**2 * (count * part.count / total)
        count = total
        conc_min = np.minimum(conc_min, part.conc_min)
        raw_sum += part.raw_sum
        rec_sum += part.rec_sum

    # an error bar that cannot be estimated (one trajectory, one chunk, or no
    # concurrence beyond two qubits) is NaN, never a 0 that reads as exact
    two_qubit = model.n_qubits == 2
    mean_c = conc_sum / n_traj if two_qubit else np.full(nt, np.nan)
    if two_qubit and n_traj > 1:
        stderr = np.sqrt(m2 / (n_traj - 1) / n_traj)
    else:
        stderr = np.full(nt, np.nan)
    raw_mean = raw_sum / n_traj
    rec_mean = rec_sum / n_traj
    rec_conc = concurrence(rec_mean) if two_qubit else np.full(nt, np.nan)

    if two_qubit and len(partials) > 1:
        block = np.stack([concurrence(p.rec_sum / p.count) for p in partials], axis=1)
        rec_stderr = block.std(axis=1, ddof=1) / np.sqrt(len(partials))
    else:
        rec_stderr = np.full(nt, np.nan)

    rho0 = resolve_initial_state(config.initial_state, model.n_qubits)[0]
    oracle = integrate_master(model, rho0, grid)
    eta_oracle = integrate_master(model.scaled(1.0 - model.eta), rho0, grid)
    dist = np.array([trace_distance(raw_mean[i], oracle.at(t)) for i, t in enumerate(grid)])
    rec_dist = np.array(
        [trace_distance(rec_mean[i], eta_oracle.at(t)) for i, t in enumerate(grid)]
    )
    if not two_qubit:
        conc_min = np.full(nt, np.nan)

    return EnsembleStatistics(
        times=times,
        mean_concurrence=mean_c,
        stderr=stderr,
        recovered_concurrence=rec_conc,
        recovered_stderr=rec_stderr,
        trace_dist_master=dist,
        recovered_trace_dist=rec_dist,
        min_concurrence=conc_min,
        n=np.full(nt, n_traj, dtype=int),
    )


def csv_text(stats: EnsembleStatistics, view: str = "trajectory") -> str:
    """The pinned 5-column schema; cells carry 12 fixed decimals."""
    conc, err, dist = stats.columns(view)
    lines = [CSV_HEADER]
    for i, t in enumerate(stats.times):
        lines.append(
            f"{t:.12f},{conc[i]:.12f},{err[i]:.12f},{dist[i]:.12f},{int(stats.n[i])}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(stats: EnsembleStatistics, path, view: str = "trajectory") -> Path:
    """Write the CSV schema (newline-terminated rows) to ``path``."""
    path = Path(path)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(csv_text(stats, view))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def parse_csv(path) -> dict[str, np.ndarray]:
    """Read back an emitted CSV into arrays keyed by column name."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for ln in lines[1:]:
        for name, cell in zip(header, ln.split(",")):
            cols[name].append(float(cell))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def figure3(
    output_dir,
    gamma: float = 1.0,
    n_trajectories: int = 2000,
    dt: float = 1e-3,
    t_max: float = 1.0,
    sample_spacing: float = 0.05,
    master_seed: int = 1905,
    workers: int | None = None,
) -> list[Path]:
    """Emit the five concurrence-vs-time series as CSV files.

    (a) unmonitored infinite temperature, (b) unmonitored zero temperature,
    (c)-(e) protecting-jump monitoring at eta = 0.8, 0.9, 1.0. Unmonitored
    series carry the trace distance of the master state to the closed-form
    state in the oracle column; monitored series report the recovered-average
    statistics. Output is byte-identical at any worker count.
    """
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    times = np.round(np.arange(0.0, t_max + sample_spacing / 2, sample_spacing), 12)

    paths = []
    masters = [
        ("a_infinite_T_master", LindbladModel(2, gamma, gamma)),
        ("b_zero_T_master", LindbladModel(2, gamma, 0.0)),
    ]
    for name, model in masters:
        cfg = ExperimentConfig(
            model=model, unraveling="none", dt=dt, t_max=t_max, sample_times=times,
        )
        stats = run_ensemble(cfg)
        paths.append(emit_csv(stats, outdir / f"fig3_{name}.csv"))

    for k, eta in enumerate((0.8, 0.9, 1.0)):
        cfg = ExperimentConfig(
            model=LindbladModel(2, gamma, gamma, eta=eta),
            unraveling="jump_protecting",
            dt=dt,
            t_max=t_max,
            n_trajectories=n_trajectories,
            master_seed=trajectory_seed(master_seed, k + 2),
            sample_times=times,
            workers=workers,
        )
        stats = run_ensemble(cfg)
        tag = f"{'cde'[k]}_monitored_eta{int(round(eta * 100)):03d}"
        paths.append(emit_csv(stats, outdir / f"fig3_{tag}.csv", view="recovered"))
    return paths
