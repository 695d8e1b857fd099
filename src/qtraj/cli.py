"""Command-line surface.

Subcommands: ``master`` (exact unconditioned solution), ``jump`` and ``diffusive``
(trajectory ensembles), ``figure3`` (the five concurrence-vs-time CSV series)
and ``params`` (engineered-reservoir rate helper). Options can come from an
INI config file ([model] and [run] sections, see the README schema); explicit
flags win over the file. Unknown config keys are errors, and so is an
``unraveling`` key that disagrees with the subcommand and its flags.

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation,
4 I/O error.
"""

import argparse
import configparser
import sys
import warnings

import numpy as np

from .master import LindbladModel
from .qcore import InvariantViolation
from .reservoir import (
    AdiabaticityWarning,
    DriveParams,
    balancing_drive,
    engineered_pump_rate,
    thermal_occupation,
)
from .runner import (
    ConfigError,
    ExperimentConfig,
    csv_text,
    emit_csv,
    figure3,
    run_ensemble,
)

_VIEWS = ("trajectory", "recovered")
_MODEL_KEYS = {"n_qubits", "gamma_minus", "gamma_plus", "eta"}
_RUN_KEYS = {
    "unraveling",
    "initial_state",
    "dt",
    "t_max",
    "n_trajectories",
    "master_seed",
    "sample_times",
    "output",
    "workers",
    "u11",
    "u12",
    "u22",
    "view",
}


def _parse_times(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.replace(",", " ").split()])


def _parse_rates(text: str):
    vals = _parse_times(text).tolist()
    return vals[0] if len(vals) == 1 else vals


def load_config_file(path: str) -> dict:
    """Read the [model]/[run] INI schema; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise OSError(f"cannot read config file {path}")
    out: dict = {}
    for section in parser.sections():
        if section == "model":
            allowed = _MODEL_KEYS
        elif section == "run":
            allowed = _RUN_KEYS
        else:
            raise ConfigError(f"config: unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"config: unknown key {key!r} in [{section}]")
            out[key] = value
    return out


def _merged(args: argparse.Namespace, flag: str, cfg: dict, key: str, convert, default=None):
    flag_val = getattr(args, flag, None)
    if flag_val is not None:
        return flag_val
    if key in cfg:
        try:
            return convert(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"config: {key}: {exc}") from None
    return default


def _build_config(args: argparse.Namespace, unraveling: str, cfg: dict) -> ExperimentConfig:
    if cfg.get("unraveling", unraveling) != unraveling:
        raise ConfigError(
            f"config: unraveling = {cfg['unraveling']} disagrees with the command line ({unraveling})"
        )
    n_qubits = _merged(args, "n_qubits", cfg, "n_qubits", int, 2)
    gamma_minus = _merged(args, "gamma_minus", cfg, "gamma_minus", _parse_rates, 1.0)
    gamma_plus = _merged(args, "gamma_plus", cfg, "gamma_plus", _parse_rates, 1.0)
    eta = _merged(args, "eta", cfg, "eta", float, 1.0)
    try:
        model = LindbladModel(n_qubits, gamma_minus, gamma_plus, eta)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    # any u key reaches validate(), which rejects it outside the general SME;
    # plain diffusive defaults to the protecting u
    u = None
    if unraveling == "diffusive" or any(
        getattr(args, key, None) is not None or key in cfg for key in ("u11", "u12", "u22")
    ):
        u11 = _merged(args, "u11", cfg, "u11", complex, 0.0)
        u12 = _merged(args, "u12", cfg, "u12", complex, -1.0)
        u22 = _merged(args, "u22", cfg, "u22", complex, 0.0)
        u = np.array([[u11, u12], [u12, u22]], dtype=complex)

    return ExperimentConfig(
        model=model,
        unraveling=unraveling,
        dt=_merged(args, "dt", cfg, "dt", float, 1e-3),
        t_max=_merged(args, "t_max", cfg, "t_max", float, 1.0),
        n_trajectories=_merged(args, "n_traj", cfg, "n_trajectories", int, 1000),
        master_seed=_merged(args, "seed", cfg, "master_seed", int, 0),
        initial_state=_merged(args, "initial_state", cfg, "initial_state", str, "bell"),
        sample_times=_merged(args, "sample_times", cfg, "sample_times", _parse_times),
        u=u,
        workers=_merged(args, "workers", cfg, "workers", int),
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file ([model]/[run] sections)")
    sub.add_argument("--n-qubits", type=int, dest="n_qubits")
    sub.add_argument("--gamma-minus", type=_parse_rates, dest="gamma_minus",
                     help="decay rate(s), one value or per-qubit list")
    sub.add_argument("--gamma-plus", type=_parse_rates, dest="gamma_plus",
                     help="pump rate(s), one value or per-qubit list")
    sub.add_argument("--eta", type=float, help="detection efficiency in [0, 1]")
    sub.add_argument("--dt", type=float)
    sub.add_argument("--t-max", type=float, dest="t_max")
    sub.add_argument("--n-traj", type=int, dest="n_traj")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--initial-state", dest="initial_state",
                     help="bell, ground or excited")
    sub.add_argument("--sample-times", type=_parse_times, dest="sample_times",
                     help="comma/space separated times on the dt grid")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--output", help="CSV output path (default: stdout)")
    sub.add_argument("--view", choices=_VIEWS,
                     help="which concurrence series the CSV carries")


def _run_and_emit(args: argparse.Namespace, unraveling: str) -> None:
    cfg = load_config_file(args.config) if args.config else {}
    config = _build_config(args, unraveling, cfg)
    view = _merged(args, "view", cfg, "view", str, "trajectory")
    if view not in _VIEWS:
        raise ConfigError(f"config: view: unknown {view!r}, expected one of {_VIEWS}")
    output = _merged(args, "output", cfg, "output", str)
    stats = run_ensemble(config)
    if output:
        emit_csv(stats, output, view=view)
        print(f"wrote {output}")
    else:
        sys.stdout.write(csv_text(stats, view=view))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Stochastic trajectory simulator for locally monitored qubit reservoirs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_master = subs.add_parser("master", help="solve the unconditioned master equation")
    _add_common(p_master)

    p_jump = subs.add_parser("jump", help="quantum-jump trajectory ensemble")
    _add_common(p_jump)
    p_jump.add_argument(
        "--unraveling", choices=("canonical", "protecting"), default="protecting",
        help="bare decay/pump clicks, or the entanglement-preserving Pauli mix",
    )

    p_diff = subs.add_parser("diffusive", help="diffusive (homodyne-like) ensemble")
    _add_common(p_diff)
    p_diff.add_argument("--exact-unitary", action="store_true",
                        help="use the exact local-unitary protecting path")
    p_diff.add_argument("--u11", type=complex, help="noise correlation u[--]")
    p_diff.add_argument("--u12", type=complex, help="noise correlation u[-+] (default -1)")
    p_diff.add_argument("--u22", type=complex, help="noise correlation u[++]")

    p_fig = subs.add_parser("figure3", help="emit the five concurrence-vs-time CSV series")
    p_fig.add_argument("--output-dir", required=True)
    p_fig.add_argument("--gamma", type=float, default=1.0)
    p_fig.add_argument("--n-traj", type=int, default=2000, dest="n_traj")
    p_fig.add_argument("--dt", type=float, default=1e-3)
    p_fig.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p_fig.add_argument("--sample-spacing", type=float, default=0.05)
    p_fig.add_argument("--seed", type=int, default=1905)
    p_fig.add_argument("--workers", type=int)

    p_par = subs.add_parser("params", help="engineered-reservoir rate calculator")
    p_par.add_argument("--omega", type=float, required=True, help="classical drive strength")
    p_par.add_argument("--big-gamma", type=float, required=True, dest="big_gamma",
                       help="auxiliary-level decay rate")
    p_par.add_argument("--gamma-minus", type=float, default=0.0, dest="gamma_minus",
                       help="natural decay rate (enables occupation/balance output)")

    args = parser.parse_args(argv)
    try:
        if args.command == "master":
            _run_and_emit(args, "none")
        elif args.command == "jump":
            kind = "jump_canonical" if args.unraveling == "canonical" else "jump_protecting"
            _run_and_emit(args, kind)
        elif args.command == "diffusive":
            kind = "diffusive_protecting_unitary" if args.exact_unitary else "diffusive"
            _run_and_emit(args, kind)
        elif args.command == "figure3":
            paths = figure3(
                args.output_dir,
                gamma=args.gamma,
                n_trajectories=args.n_traj,
                dt=args.dt,
                t_max=args.t_max,
                sample_spacing=args.sample_spacing,
                master_seed=args.seed,
                workers=args.workers,
            )
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "params":
            drive = DriveParams(args.omega, args.big_gamma, args.gamma_minus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AdiabaticityWarning)
                gp = engineered_pump_rate(drive)
            print(f"gamma_plus = {gp:.12g}")
            print(f"adiabatic_ok = {drive.adiabatic_ok()}")
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if args.gamma_minus > 0:
                print(f"balancing_omega = {balancing_drive(args.gamma_minus, args.big_gamma):.12g}")
                if gp < args.gamma_minus:
                    print(f"thermal_occupation = {thermal_occupation(args.gamma_minus, gp):.12g}")
                else:
                    print("thermal_occupation = infinite (balanced or inverted)")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
