"""qtraj ensemble benchmark: end-to-end time and traced per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload protect_jump --seed 0 --seconds 20 --trace 0

One run builds the workload's configuration from ``--seed``, makes one
untimed warm-up call of ``qtraj.run_ensemble`` and then calls it again until
``--seconds`` have passed, checking every result against the paper's closed
forms and against the warm-up call's CSV bytes. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics (see ``spans.py``), writing the spans to
``bench/out/``. End-to-end times are rescaled to a reference host speed
(see ``PROBE_REF_S``); the raw wall times are reported beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance, sample counts, raw wall times and check
deviations.
"""

import os

# one BLAS thread, set before numpy is first imported by this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "qtraj" / "__init__.py").is_file():
    sys.exit(f"error: no qtraj sources under {SRC}")
for _path in (str(SRC), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import qtraj  # noqa: E402

SETUP_REPEATS = 7  # fresh interpreters timed per run; setup_s is their median
MIN_SAMPLES = 3  # timed ensemble calls per run, even past --seconds

END_TO_END_UNITS = {
    "ensemble_s": "s",
    "traj_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# what setup_s times: a fresh interpreter importing qtraj and validating the
# workload's configuration
_SETUP = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_config(sys.argv[3], int(sys.argv[4])).validate()"
)


# The shared 2-core host this was written on drifts in speed by up to 2x
# over minutes, and CPU time drifts with wall time. So every timed interval is
# bracketed by a fixed probe of the kind of work an ensemble does -- small
# complex numpy products and eigensolves driven from a Python loop -- and
# rescaled to a host on which the probe takes PROBE_REF_S. That cut the
# spread of a run's median across seeds from 10-22 % to about 4 %. The probe
# uses no qtraj code, so a change to qtraj cannot move it.
PROBE_REF_S = 0.1  # the probe took 0.07 to 0.15 s on that host
_PROBE_ITERS = 1500
_PROBE_MATS = np.random.default_rng(2011).standard_normal((64, 4, 4, 2)).view(complex)[..., 0]


def speed_probe() -> float:
    """Wall time of the fixed host-speed probe."""
    mats = _PROBE_MATS
    t0 = time.perf_counter()
    for k in range(_PROBE_ITERS):
        a, b = mats[k % 64], mats[(7 * k) % 64]
        r = a @ b @ a.conj().T
        np.linalg.eigvals(r)
        np.kron(a[:2, :2], b[:2, :2])
    return time.perf_counter() - t0


def host_scaled(wall: float, probe_before: float) -> float:
    """``wall`` at the reference host speed, from the probes on either side of it."""
    return wall * PROBE_REF_S / (0.5 * (probe_before + speed_probe()))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": git_commit(),
    }


def measure_setup(name: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up interpreters, raw and host-scaled."""
    cmd = [sys.executable, "-c", _SETUP, str(SRC), str(BENCH_DIR), name, str(seed)]
    # untimed: the first interpreter may write bytecode caches
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    walls, scaled = [], []
    for _ in range(repeats):
        before = speed_probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        scaled.append(host_scaled(walls[-1], before))
    return walls, scaled


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "samples": len(values),
        "min": min(values),
        "q1": q[0],
        "median": statistics.median(values),
        "q3": q[2],
        "max": max(values),
    }


class Run:
    """Calls, checks and timings of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.config = workloads.build_config(name, seed)
        n = self.config.n_trajectories
        self.seed_index = {qtraj.trajectory_seed(seed, i): i for i in range(n)}
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.failures: list[dict] = []
        self.tracers = []

    def call(self, traced: bool):
        """One checked ensemble call: (wall seconds, tracer or None), or None if it raised."""
        self.attempted += 1
        try:
            if traced:
                stats, tracer = spans.traced_call(qtraj.run_ensemble, self.config, self.seed_index)
                wall = tracer.end[0] - tracer.start[0]
            else:
                t0 = time.perf_counter()
                stats = qtraj.run_ensemble(self.config)
                wall = time.perf_counter() - t0
                tracer = None
        except Exception as exc:  # a raising call is a failed run; measuring goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.failures.append({"call": self.attempted, "error": repr(exc)})
            return None
        checks = workloads.check_results(self.name, stats, self.config.n_trajectories)
        csv = tuple(qtraj.runner.csv_text(stats, view) for view in ("trajectory", "recovered"))
        if self.reference is None:
            self.reference = csv
        checks.append({"check": "csv_identical_to_first_call", "ok": csv == self.reference})
        if not self.checks:
            self.checks = checks
        bad = [c for c in checks if not c["ok"]]
        if bad:
            self.failed += 1
            self.failures.append({"call": self.attempted, "checks": bad})
        if tracer is not None:
            self.tracers.append(tracer)
        return wall, tracer


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, "Run"]:
    setup_walls, setup = ([], []) if trace else measure_setup(name, seed, SETUP_REPEATS)
    run = Run(name, seed)
    run.call(traced=False)  # warm-up: caches fill, lazy set-up finishes
    walls, scaled, traced_walls, traced_scaled, layers = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or run.attempted <= MIN_SAMPLES:
        before = speed_probe()
        out = run.call(traced=False)
        if out is not None:
            walls.append(out[0])
            scaled.append(host_scaled(out[0], before))
        if trace:
            before = speed_probe()
            out = run.call(traced=True)
            if out is not None:
                traced_walls.append(out[0])
                traced_scaled.append(host_scaled(out[0], before))
                layers.append(spans.layer_metrics(out[1], workloads.N_STEPS))
    if not walls or (trace and not traced_walls):
        raise RuntimeError(f"every ensemble call of {name} raised")

    ensemble_s = statistics.median(scaled)
    info = {"ensemble_s": summary(scaled), "ensemble_wall_s": summary(walls)}
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced_scaled) / ensemble_s - 1.0
        info["traced_ensemble_s"] = summary(traced_scaled)
        info["traced_ensemble_wall_s"] = summary(traced_walls)
        units = spans.UNITS
    else:
        metrics = {
            "ensemble_s": ensemble_s,
            "traj_steps_per_s": workloads.traj_steps(name) / ensemble_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["setup_s"] = summary(setup)
        info["setup_wall_s"] = summary(setup_walls)
        units = END_TO_END_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, info, run


def write_spans(run: "Run", seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{run.name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"calls": [t.to_json() for t in run.tracers]}, fh)
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics, info, run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info.update(
        workload=args.workload,
        seed=args.seed,
        n_trajectories=run.config.n_trajectories,
        workers=run.config.workers,
        checks=run.checks,
        failures=run.failures,
        provenance=provenance(),
    )
    if args.trace:
        info["spans_file"] = os.path.relpath(write_spans(run, args.seed), ROOT)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
