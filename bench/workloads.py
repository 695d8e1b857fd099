"""The four benchmark workloads and the checks of their results.

Every workload is a 2-qubit Bell pair under balanced or zero-temperature
local reservoirs with gamma = 1, dt = 1e-3, t_max = 1 and the 21 default
sample times, run through ``qtraj.run_ensemble`` with ``workers=1``. Only the
master seed changes between runs. Trajectory counts put one ensemble call at
1.2 to 2 s on a 2-core x86 box, so a 20 s run times ten or more calls.

Each check returns its measured deviation next to its tolerance, so the
output shows how close a correct run comes to failing.
"""

from dataclasses import dataclass

import numpy as np

from qtraj import PROTECTING_U, ExperimentConfig, LindbladModel
from qtraj.master import analytic_concurrence

GAMMA = 1.0
DT = 1e-3
T_MAX = 1.0
N_STEPS = int(round(T_MAX / DT))

# Gates on statistical checks sit at five standard errors: the master seed is
# free, and at three the zero-T check failed 3 of 60 seeds (0-59) of the
# unchanged seed commit.
N_SIGMA = 5.0

# 1 - min C of the general SME at dt = 1e-3 with 14 trajectories is O(dt);
# across seeds 0-19 of the seed commit it ranged over 1.7e-3 to 3.15e-3, and
# the gate leaves a factor-of-three margin above the largest.
SME_MEASURED = 3.2e-3
SME_ENVELOPE = 3.0 * SME_MEASURED


@dataclass(frozen=True)
class Workload:
    unraveling: str
    gamma_plus: float
    eta: float
    n_trajectories: int
    u: np.ndarray | None = None


WORKLOADS = {
    # Figure 3(d): Pauli-frame recovery at eta = 0.9; post-processing bound
    "protect_jump": Workload("jump_protecting", GAMMA, 0.9, 512),
    # zero-T canonical clicks: diagonal-scan kernel, no frame recovery
    "zeroT_canonical": Workload("jump_canonical", 0.0, 1.0, 1024),
    # criterion 6's general-u SME path; kernel bound
    "sme_protecting": Workload("diffusive", GAMMA, 1.0, 14, PROTECTING_U),
    # exact-unitary protecting path with LocalUnitaryFrame recovery
    "protect_diffusion": Workload("diffusive_protecting_unitary", GAMMA, 1.0, 48),
}


def build_config(name: str, seed: int) -> ExperimentConfig:
    w = WORKLOADS[name]
    return ExperimentConfig(
        model=LindbladModel(2, GAMMA, w.gamma_plus, eta=w.eta),
        unraveling=w.unraveling,
        dt=DT,
        t_max=T_MAX,
        n_trajectories=w.n_trajectories,
        master_seed=seed,
        initial_state="bell",
        u=w.u,
        workers=1,
    )


def _check(name: str, deviation: float, tol: float) -> dict:
    return {"check": name, "ok": bool(deviation <= tol), "deviation": deviation, "tol": tol}


def check_results(name: str, stats, n_trajectories: int) -> list[dict]:
    """Compare an ensemble against the paper's closed forms."""
    t = stats.times
    if name == "protect_jump":
        # Each recovered trajectory is exactly one of the four Bell states, so
        # the recovered concurrence is 2p - 1 with p a binomial share; its
        # standard error at the closed form sets the gate (criterion 4 keeps
        # the 0.02 floor).
        expected = analytic_concurrence("monitored", GAMMA, WORKLOADS[name].eta, t)
        p = (1.0 + expected) / 2.0
        sigma = 2.0 * np.sqrt(p * (1.0 - p) / n_trajectories)
        err = np.abs(stats.recovered_concurrence - expected)
        tol = np.maximum(0.02, N_SIGMA * sigma)
        i = int(np.argmax(err / tol))
        return [_check("recovered_C_vs_closed_form", float(err[i]), float(tol[i]))]
    if name == "zeroT_canonical":
        pos = t > 0
        err = np.abs(stats.mean_concurrence - np.exp(-GAMMA * t))[pos]
        tol = N_SIGMA * stats.stderr[pos]
        i = int(np.argmax(err / tol))
        return [_check("mean_C_vs_exp(-t)", float(err[i]), float(tol[i]))]
    if name == "sme_protecting":
        dev = float(np.max(1.0 - stats.min_concurrence))
        return [_check("1-min_C", dev, SME_ENVELOPE)]
    if name == "protect_diffusion":
        return [
            _check("1-min_C", float(np.max(1.0 - stats.min_concurrence)), 1e-10),
            _check("recovered_trace_dist", float(np.max(stats.recovered_trace_dist)), 1e-8),
        ]
    raise KeyError(name)


def traj_steps(name: str) -> int:
    return WORKLOADS[name].n_trajectories * N_STEPS

