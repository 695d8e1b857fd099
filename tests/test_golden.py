"""Golden CSVs: the exact text of small runs, checked in under ``tests/golden/``.

Each run is regenerated at 1 and 2 workers and compared with its file, so a
change that moves one bit of output fails here even where every statistical
test still passes. A file holds the CSV of both views and then every
``EnsembleStatistics`` field at full precision (``repr`` round-trips a float),
because the CSV's 12 decimals can hide a reassociated sum; ``figure3``'s file
holds its five CSVs. The per-qubit-rate run has more than ``CHUNK``
trajectories, so that two workers really fork.

The text can depend on the numpy and BLAS build: ``golden/NUMPY_VERSION``
names the numpy that wrote the files. A change that moves cells on purpose
rewrites every file with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file, whether its text changed and how many lines
moved in each ``# `` section; the diff of ``tests/golden/`` is then its list
of moved cells.
"""

import tempfile
from dataclasses import fields
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from qtraj import PROTECTING_U, ExperimentConfig, LindbladModel, run_ensemble
from qtraj.runner import CHUNK, csv_text, figure3

GOLDEN = Path(__file__).parent / "golden"
VERSION_FILE = GOLDEN / "NUMPY_VERSION"


def _exact(stats) -> str:
    names = [f.name for f in fields(stats)]
    rows = zip(*(getattr(stats, name).tolist() for name in names))
    return "\n".join([",".join(names), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _ensemble(model, unraveling, n_trajectories, t_max=1.0, **kw):
    """The golden text of one run: both views' CSVs, then every field exactly."""

    def text(workers: int) -> str:
        config = ExperimentConfig(model, unraveling, 1e-3, t_max, n_trajectories, master_seed=7,
                                  workers=workers, **kw)
        stats = run_ensemble(config)
        views = "".join(f"# view {view}\n{csv_text(stats, view)}" for view in ("trajectory", "recovered"))
        return views + "# every field\n" + _exact(stats)

    return text


def _figure3(workers: int) -> str:
    with tempfile.TemporaryDirectory() as out:
        paths = figure3(out, n_trajectories=40, t_max=0.2, sample_spacing=0.05, master_seed=11,
                        workers=workers)
        return "".join(f"# {path.name}\n{path.read_text()}" for path in paths)


BALANCED = LindbladModel(2, 1.0, 1.0)
V_NULL = np.array([[0.6, 0.8j], [0.8j, 0.6]])  # a fixed unitary
RUNS = {
    # the four bench workloads at small N
    "protect_jump": _ensemble(LindbladModel(2, 1.0, 1.0, eta=0.9), "jump_protecting", 64),
    "zeroT_canonical": _ensemble(LindbladModel(2, 1.0, 0.0), "jump_canonical", 64),
    "sme_protecting": _ensemble(BALANCED, "diffusive", 16, u=PROTECTING_U),
    "protect_diffusion": _ensemble(BALANCED, "diffusive_protecting_unitary", 32),
    # the general-u SME off the protecting u: four noise channels per qubit, unbalanced rates
    "sme_general_u": _ensemble(LindbladModel(2, (1.0, 0.5), (0.25, 0.75)), "diffusive", 6,
                               t_max=0.2, u=np.zeros((2, 2))),
    # a rank-deficient complex u = V diag(1, 0.5) V^T: its covariance has a rotated null
    # eigenvector, which eigh returns as rounding noise: three noise channels per qubit
    "sme_rank_deficient_u": _ensemble(LindbladModel(2, (1.0, 0.5), (0.25, 0.75)), "diffusive", 6,
                                      t_max=0.2, u=V_NULL @ np.diag([1.0, 0.5]) @ V_NULL.T),
    "master": _ensemble(BALANCED, "none", 1),
    "three_qubit_jump": _ensemble(LindbladModel(3, 1.0, 1.0, eta=0.8), "jump_protecting", 32,
                                  initial_state="excited"),
    # more than one chunk
    "per_qubit_rates": _ensemble(LindbladModel(2, (1.0, 0.5), (0.25, 0.0), eta=0.7),
                                 "jump_canonical", CHUNK + 44, t_max=0.2),
    "figure3": _figure3,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_output_matches_golden_text(name, workers):
    written_with = VERSION_FILE.read_text().strip()
    assert np.__version__ == written_with, (
        f"the golden files were written with numpy {written_with}, this is numpy "
        f"{np.__version__}: rewrite them (python tests/test_golden.py) and check the moved cells"
    )
    assert RUNS[name](workers) == (GOLDEN / f"{name}.txt").read_text(), (
        f"{name} at {workers} workers moved from tests/golden/{name}.txt"
    )


def _moved(old: str, new: str) -> str:
    """Which lines of a golden text moved, counted per ``# `` section, line by line."""
    counts: dict[str, int] = {}
    section = ""
    for before, after in zip_longest(old.splitlines(), new.splitlines()):
        if (after or "").startswith("# "):
            section = after[2:]
        counts[section] = counts.get(section, 0) + (before != after)
    total = sum(counts.values())
    if not total:
        return "unchanged"
    return f"changed, {total} lines moved (" + ", ".join(f"{k}: {v}" for k, v in counts.items()) + ")"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, text in RUNS.items():
        path = GOLDEN / f"{name}.txt"
        old = path.read_text() if path.exists() else ""
        new = text(1)
        path.write_text(new, newline="\n")
        print(f"{path.name}: {_moved(old, new)}")
    VERSION_FILE.write_text(np.__version__ + "\n")
    print(f"wrote {len(RUNS)} golden files under {GOLDEN} (numpy {np.__version__})")


if __name__ == "__main__":
    main()
