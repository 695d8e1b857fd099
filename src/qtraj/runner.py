"""Ensemble orchestration, reproducible seeding, statistics and CSV output.

Trajectories are partitioned into fixed-size index chunks (256, independent of
the worker count). Each chunk returns its trajectories' concurrences and its
state sums, and ``run_ensemble`` reduces them in chunk order: the mean, the
two-pass stderr and the minimum over all concurrences at once, and the state
sums added chunk by chunk. Ensemble output is therefore bitwise identical for a given
configuration at any parallelism degree. Per-trajectory random streams are
counter-based Philox keyed by the word pair (trajectory_index, digest of
master_seed), so results do not depend on scheduling either. A chunk takes the
digest once (``jumps.trajectory_seeds``), and each trajectory re-keys its
thread's Philox stream with both words rather than building a generator.

Inside a chunk the engine runs once per trajectory, in index order, and its
samples fill one row of a block of 8 trajectories. Each block then takes one
call each of the purity guard, the concurrence and the frame recovery; the
state sums still add one trajectory at a time, in index order, so the bits do
not depend on the block size.

Every ensemble reports two distinct concurrence series: the mean of
per-trajectory concurrences (the per-trajectory protection claim) and the
concurrence of the recovered-then-averaged state (the detection-inefficiency
closed form is about the latter). Conflating them is the classic mistake; the
CSV writer picks one via its ``view`` argument.

Per-trajectory concurrences take the pure-state closed form
(``entangle.pure_concurrence``) when ``run_ensemble`` finds, once per run, that
every sample is a pure pair state: 4x4 states, an initial ket or named state
and an engine that keeps a pure state pure (the ``pure`` column of
``UNRAVELING_TABLE``). Each trajectory's samples must then pass a purity check,
and one that fails raises ``InvariantViolation`` naming the trajectory, its
seed and the sample. Every other concurrence takes Wootters' form: the general-u SME, an
explicit initial matrix, even a rank-one one, the recovered-then-averaged
state, its chunk-blocked stderr and the master-only series.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .diffusive import (
    check_noise_correlation,
    check_perfect_detection,
    check_sme_qubits,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
)
from .entangle import concurrence, pure_concurrence, trace_distance
from .jumps import (
    canonical_jumps,
    check_protecting_rates,
    check_rate_step,
    protecting_jumps,
    run_jump_trajectory,
    trajectory_seed,
    trajectory_seeds,
)
from .master import (
    LindbladModel,
    analytic_bell_state,
    check_initial_state,
    integrate_master,
    oracle_kind,
)
from .qcore import (
    FieldErrors,
    InvariantViolation,
    bell_state,
    computational_ket,
    convert_or_text,
    density,
    number,
    step_grid,
)
from .recovery import frame_from_events, recover, recover_unitary

WORKERS_ENV = "QTRAJ_WORKERS"
CHUNK = 256  # fixed reduction granularity; must not depend on the worker count
_BLOCK = 8  # trajectories post-processed per call; divides CHUNK; kept small for peak memory

CSV_HEADER = "time,mean_concurrence,stderr,mean_trace_dist_oracle,n"

# the purity guard: a sample of a run on the pure path is pure when |1 - tr(rho^2)| is within this
PURITY_TOL = 1e-12


class ConfigError(FieldErrors):
    """Invalid experiment configuration; its entries name every offending field once."""


def _frames_at(record, grid, n):
    # the frame at t folds the clicks at or before t
    rows = np.searchsorted([e.time for e in record.events], grid, side="right")
    return frame_from_events(record.events, n)[rows]


def _undo_clicks(records, states, grid, n):
    return recover(states, np.stack([_frames_at(r, grid, n) for r in records]))


def _undo_unitaries(records, states, grid, n):
    return recover_unitary(states, np.stack([r.sample_frames for r in records]))


# unraveling -> (checks, engine, recovery, pure): the engine's preconditions as
# (field, check(model)) pairs; (model, u) -> (engine, its leading arguments), None
# for the master alone; (records, states, grid, n_qubits) -> the recovered states of
# a block of trajectories, None without a frame; whether the engine keeps a pure
# state pure (the SME only to its step error). Rows read this module's names when
# called, so rebinding one works.
_BALANCED, _PERFECT = ("model", check_protecting_rates), ("eta", check_perfect_detection)
UNRAVELING_TABLE = {
    "none": ((), None, None, False),
    "jump_canonical": ((), lambda m, u: (run_jump_trajectory, (m, canonical_jumps(m))), None, True),
    "jump_protecting": (
        (_BALANCED,), lambda m, u: (run_jump_trajectory, (m, protecting_jumps(m))),
        _undo_clicks, True,
    ),
    "diffusive": (
        (_PERFECT, ("model", check_sme_qubits)), lambda m, u: (run_diffusive_trajectory, (m, u)),
        None, False,
    ),
    "diffusive_protecting_unitary": (
        (_BALANCED, _PERFECT), lambda m, u: (run_protecting_unitary_trajectory, (m,)),
        _undo_unitaries, True,
    ),
}
UNRAVELINGS = tuple(UNRAVELING_TABLE)


def default_workers() -> int:
    """``QTRAJ_WORKERS``, else the CPUs this process may use; a bad variable is a named ValueError."""
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        return number(WORKERS_ENV, convert_or_text(int, env), True, 1)
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
    workers: int | None = None

    def validate(self) -> None:
        """Raise one ConfigError that lists every bad field, before any work starts."""
        ConfigError(*self.field_errors()).raise_any()

    def field_errors(self) -> list[str]:
        """One "<field>: ..." entry per bad field; empty when the run can start.

        A model that is not a ``LindbladModel`` is one ``model:`` entry, and the
        checks that read the model are skipped.
        """
        errors = ConfigError()
        known = self.unraveling in UNRAVELINGS  # a tuple test: a list cannot key the table
        checks, engine = UNRAVELING_TABLE[self.unraveling][:2] if known else ((), None)
        if not known:
            errors.add(f"unraveling: unknown {self.unraveling!r}, expected one of {UNRAVELINGS}")
        grid_ok = errors.check(step_grid, self.dt, self.t_max, self.sample_times) is not None
        for field, value, low, high in (
            ("n_trajectories", self.n_trajectories, 1, 2**32),  # key index cap; no run that can finish nears it
            ("workers", 1 if self.workers is None else self.workers, 1, None),
            ("master_seed", self.master_seed, 0, None),
        ):
            errors.check(number, field, value, True, low, high)
        if self.workers is None and engine is not None:  # the count comes from the environment
            errors.check(default_workers)
        if not isinstance(self.model, LindbladModel):
            errors.add(f"model: must be a LindbladModel, got {self.model!r}")
        else:
            # the closed-form master has no step; its dt only places the default samples
            if engine is not None and grid_ok:  # a dt that failed the grid check is not a number
                errors.check(check_rate_step, self.model, self.dt, field="dt")
            errors.check(resolve_initial_state, self.initial_state, self.model.n_qubits, field="initial_state")
            # the engines' own preconditions, checked here so that no worker starts
            for field, fn in checks:
                errors.check(fn, self.model, field=field)
        if self.u is not None:
            if self.unraveling == "diffusive":
                errors.check(check_noise_correlation, self.u, field="u")
            else:
                errors.add(f"u: only the diffusive unraveling reads u, not {self.unraveling!r}")
        return errors.entries


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
    try:
        arr = np.asarray(spec, dtype=complex)
    except (TypeError, ValueError):  # an object or a ragged nesting
        raise ValueError(f"explicit state must be an array of numbers, got {spec!r}") from None
    dim = 2**n_qubits
    if arr.shape == (dim,):
        norm = np.linalg.norm(arr)
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError(f"explicit ket must be finite with a nonzero norm, got norm {norm}")
        return density(arr / norm), False
    try:  # the rule the master oracle applies to its rho0, shape included
        return check_initial_state(arr, dim, context="explicit state"), False
    except InvariantViolation as exc:
        raise ValueError(str(exc)) from None


# the CSV's views: each one's concurrence series, stderr and oracle distance
VIEWS = {
    "trajectory": ("mean_concurrence", "stderr", "trace_dist_master"),
    "recovered": ("recovered_concurrence", "recovered_stderr", "recovered_trace_dist"),
}


@dataclass
class EnsembleStatistics:
    """Per-sample-time ensemble summaries.

    ``mean_concurrence``, ``stderr`` and ``min_concurrence`` come from one
    two-pass over all per-trajectory concurrences, in chunk order (NaN beyond
    two qubits); ``recovered_concurrence`` is the concurrence of the
    recovered-then-averaged state with a chunk-blocked stderr estimate (NaN
    with a single chunk, like ``stderr`` with a single trajectory). Trace
    distances compare each mean against the master at the rates left once the
    frame is undone: gamma for the raw mean, (1-eta)*gamma for the recovered
    mean with a frame and gamma without one, where the recovered state is the
    raw one. A master-only run without a closed form has no oracle and
    reports NaN there.
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
        if view not in VIEWS:
            raise ValueError(f"unknown view {view!r}, expected one of {tuple(VIEWS)}")
        return tuple(getattr(self, name) for name in VIEWS[view])


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


def _concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrence of each state in a ``(..., d, d)`` stack; NaN unless d = 4, where it is undefined."""
    return concurrence(states) if states.shape[-1] == 4 else np.full(states.shape[:-2], np.nan)


def _checked_pure_concurrence(states: np.ndarray, first: int, seeds: list[int]) -> np.ndarray:
    """Pure-state concurrence of a block's ``(B, nt, 4, 4)`` samples, each purity-checked first.

    Row b holds trajectory ``first + b``, keyed ``seeds[b]``. A failure names the
    block's first impure trajectory, its seed and its least pure sample.
    """
    impurity = np.abs(1.0 - np.einsum("bsij,bsij->bs", states, states.conj()).real)
    impure = ~(impurity <= PURITY_TOL)  # NaN fails too
    if impure.any():
        row = int(impure.any(axis=1).argmax())
        worst = int(np.argmax(impurity[row]))
        raise InvariantViolation(
            f"trajectory {first + row} (seed {seeds[row]}): sample {worst} is not pure: "
            f"|1 - tr(rho^2)| = {impurity[row, worst]:.2e} > {PURITY_TOL:g}"
        )
    return pure_concurrence(states)


@dataclass
class _ChunkPartial:
    conc: np.ndarray  # (trajectories, samples); NaN beyond two qubits
    raw_sum: np.ndarray  # the states added one trajectory at a time, in index order
    rec_sum: np.ndarray  # likewise the recovered states; raw_sum itself without a frame


def _run_chunk(
    config: ExperimentConfig, rho0: np.ndarray, grid: np.ndarray, lo: int, hi: int, pure: bool
) -> _ChunkPartial:
    model = config.model
    n = model.n_qubits
    nt = len(grid)
    conc = np.empty((hi - lo, nt))
    raw_sum = np.zeros((nt, model.dim, model.dim), dtype=complex)
    block = np.empty((_BLOCK, nt, model.dim, model.dim), dtype=complex)

    _, pick, recovery, _ = UNRAVELING_TABLE[config.unraveling]
    # without a frame the recovered states are the raw ones: one sum serves both
    rec_sum = raw_sum if recovery is None else np.zeros_like(raw_sum)
    engine, lead = pick(model, config.u)

    chunk_seeds = trajectory_seeds(config.master_seed, range(lo, hi))
    for start in range(lo, hi, _BLOCK):
        # one engine call per trajectory, in index order; the rest once per block
        stop = min(start + _BLOCK, hi)
        seeds = chunk_seeds[start - lo : stop - lo]
        records = []
        for row, seed in enumerate(seeds):
            try:
                record = engine(*lead, rho0, config.dt, config.t_max, seed, grid)
            except InvariantViolation as exc:
                # name the trajectory, so that it can be replayed on its own
                raise InvariantViolation(f"trajectory {start + row} (seed {seed}): {exc}") from exc
            np.stack(record.samples, out=block[row])
            records.append(record)
        states = block[: stop - start]
        rows = slice(start - lo, stop - lo)
        conc[rows] = _checked_pure_concurrence(states, start, seeds) if pure else _concurrence(states)
        for s in states:  # one at a time: a block sum would reassociate the additions
            raw_sum += s
        if recovery is not None:
            for s in recovery(records, states, grid, n):
                rec_sum += s
    return _ChunkPartial(conc, raw_sum, rec_sum)


def _master_states(model: LindbladModel, rho0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    series = integrate_master(model, rho0, grid)  # read through .at, whose reads the benchmark counts
    return np.stack([series.at(t) for t in grid])


def _master_statistics(
    model: LindbladModel, rho0: np.ndarray, is_bell: bool, times: np.ndarray, grid: np.ndarray
) -> EnsembleStatistics:
    states = _master_states(model, rho0, grid)
    conc = _concurrence(states)
    kind = oracle_kind(model) if is_bell else None
    dist = np.full(len(times), np.nan)  # without a closed form: NaN, never a 0 that reads as exact
    if kind is not None:
        dist = trace_distance(states, analytic_bell_state(kind, model.gamma_minus[0], grid))
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
    model = config.model
    rho0, is_bell = resolve_initial_state(config.initial_state, model.n_qubits)
    _, engine, recovery, keeps_pure = UNRAVELING_TABLE[config.unraveling]
    if engine is None:
        return _master_statistics(model, rho0, is_bell, times, grid)

    n_traj = config.n_trajectories
    bounds = [(lo, min(lo + CHUNK, n_traj)) for lo in range(0, n_traj, CHUNK)]
    workers = config.workers if config.workers is not None else default_workers()
    # every sample is a pure pair state: a ket or named rho0 on an engine that keeps it pure
    pure = rho0.shape == (4, 4) and keeps_pure and np.ndim(config.initial_state) < 2

    if workers == 1 or len(bounds) == 1:
        partials = [_run_chunk(config, rho0, grid, lo, hi, pure) for lo, hi in bounds]
    else:
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=min(workers, len(bounds)), mp_context=ctx) as pool:
            futures = [
                pool.submit(_run_chunk, config, rho0, grid, lo, hi, pure) for lo, hi in bounds
            ]
            partials = [f.result() for f in futures]

    # one two-pass over every trajectory in chunk order; NaN concurrences
    # (beyond two qubits) carry through mean, std and min. An error bar that
    # cannot be estimated (one trajectory, one chunk, or no concurrence) is
    # NaN, never a 0 that reads as exact
    nt = len(grid)
    conc = np.concatenate([p.conc for p in partials])
    stderr = conc.std(axis=0, ddof=1) / np.sqrt(n_traj) if n_traj > 1 else np.full(nt, np.nan)
    raw_mean = sum(p.raw_sum for p in partials) / n_traj
    dist = trace_distance(raw_mean, _master_states(model, rho0, grid))
    rec_mean, rec_dist = raw_mean, dist.copy()  # without a frame nothing is undone
    if recovery is not None:  # a frame undoes the detected clicks; the (1-eta) gamma master remains
        rec_mean = sum(p.rec_sum for p in partials) / n_traj
        rec_dist = trace_distance(rec_mean, _master_states(model.scaled(1.0 - model.eta), rho0, grid))
    rec_conc = _concurrence(rec_mean)
    if len(partials) > 1:
        block = _concurrence(np.stack([p.rec_sum / len(p.conc) for p in partials], axis=1))
        rec_stderr = block.std(axis=1, ddof=1) / np.sqrt(len(partials))
    else:
        rec_stderr = np.full(nt, np.nan)
    return EnsembleStatistics(
        times=times,
        mean_concurrence=conc.mean(axis=0),
        stderr=stderr,
        recovered_concurrence=rec_conc,
        recovered_stderr=rec_stderr,
        trace_dist_master=dist,
        recovered_trace_dist=rec_dist,
        min_concurrence=conc.min(axis=0),
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
    """Write the CSV schema (newline-terminated rows) to ``path``; a bad view leaves it untouched."""
    path, text = Path(path), csv_text(stats, view)  # formed before open() truncates the file
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def parse_csv(path) -> dict[str, np.ndarray]:
    """Read back an emitted CSV into arrays keyed by column name.

    Raises ValueError naming the path, and the line where there is one, for a
    file without a header row and for a row that is short, long or not numeric.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    rows = [(line, ln.split(",")) for line, ln in enumerate(text.splitlines(), 1) if ln]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header = rows[0][1]
    values = []
    for line, cells in rows[1:]:
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, the header has {len(header)}")
            values.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return dict(zip(header, np.array(values, dtype=float).reshape(-1, len(header)).T))


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

    One ConfigError names every bad argument once, figure3's own three
    (sample_spacing, t_max, gamma) with those of the five runs, before any
    series runs or any file is written.
    """
    # figure3's own fields, then the runs'. A bad gamma, the models' one rate, leaves
    # no model: its entry stands for the runs' model entries
    errors = ConfigError()
    spacing_ok = errors.check(number, "sample_spacing", sample_spacing, above=0) is not None
    errors.check(number, "t_max", t_max)
    gamma_ok = errors.check(number, "gamma", gamma, above=0, field="model") is not None
    times = None
    # the spacing is a whole number of steps, judged before the times are allocated:
    # below dt it would repeat grid times, off the grid it would leave it
    grid = errors.check(step_grid, dt, t_max)
    if (
        grid is not None
        and spacing_ok
        and errors.check(number, "sample_spacing", sample_spacing, low=dt) is not None
    ):
        # the remainder is exact and, unlike spacing / dt, cannot overflow
        if abs(math.remainder(sample_spacing, dt)) > 1e-9 + 1e-9 * sample_spacing:
            errors.add(f"sample_spacing: {sample_spacing} is not a whole number of steps (dt={dt})")
        else:  # every whole spacing up to t_max
            times = np.round(np.arange(0, grid[0] + 1, np.round(sample_spacing / dt)) * dt, 12)
    series = []
    for name, gamma_plus, eta, unraveling, view in (
        ("a_infinite_T_master", gamma, 1.0, "none", "trajectory"),
        ("b_zero_T_master", 0.0, 1.0, "none", "trajectory"),
        ("c_monitored_eta080", gamma, 0.8, "jump_protecting", "recovered"),
        ("d_monitored_eta090", gamma, 0.9, "jump_protecting", "recovered"),
        ("e_monitored_eta100", gamma, 1.0, "jump_protecting", "recovered"),
    ):
        model = LindbladModel(2, gamma, gamma_plus, eta) if gamma_ok else None
        cfg = ExperimentConfig(model, unraveling, dt, t_max, n_trajectories, master_seed,
                               sample_times=times, workers=workers)
        errors.add(*cfg.field_errors())
        series.append((name, view, cfg))
    errors.raise_any()
    for k, (_, _, cfg) in enumerate(series[2:], 2):  # derived only from a master_seed that passed
        cfg.master_seed = trajectory_seed(master_seed, k)

    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return [
        emit_csv(run_ensemble(cfg), outdir / f"fig3_{name}.csv", view=view)
        for name, view, cfg in series
    ]
