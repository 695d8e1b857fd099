"""Command-line surface.

Subcommands: ``master`` (exact unconditioned solution), ``jump`` and ``diffusive``
(trajectory ensembles), ``figure3`` (the five concurrence-vs-time CSV series)
and ``params`` (engineered-reservoir rate helper). Options can come from an
INI config file ([model] and [run] sections, see the README schema); explicit
flags win over the file. One ``ConfigError`` lists every bad option before
any work starts: unknown sections and keys, values that do not convert, a
view other than ``trajectory`` or ``recovered``, an ``unraveling`` key that
disagrees with the subcommand and its flags, and the model's and the run's
own checks. A value that does not convert reaches the check that owns its
field as text (``qcore.convert_or_text``), for ``figure3`` (its own fields with
the run's) and ``DriveParams`` (finite numbers, big_gamma > 0) too, so that it
is named with every other bad value in one error.

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation,
4 I/O error.
"""

import argparse
import configparser
import sys
import warnings
from dataclasses import fields

import numpy as np

from .diffusive import PROTECTING_U
from .master import LindbladModel
from .qcore import InvariantViolation, convert_or_text
from .reservoir import (
    AdiabaticityWarning,
    DriveParams,
    balancing_drive,
    engineered_pump_rate,
    thermal_occupation,
)
from .runner import (
    VIEWS,
    ConfigError,
    ExperimentConfig,
    csv_text,
    emit_csv,
    figure3,
    run_ensemble,
)


def _parse_times(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.replace(",", " ").split()])


def _parse_rates(text: str):
    vals = _parse_times(text).tolist()
    return vals[0] if len(vals) == 1 else vals


# Every run option once: INI key (also the argparse dest) -> INI section,
# conversion, default, flag and help. Flag values take the same conversion as
# file values, so that a bad flag is listed with every other bad field.
_OPTIONS = {
    "n_qubits": ("model", int, 2, "--n-qubits", None),
    "gamma_minus": ("model", _parse_rates, 1.0, "--gamma-minus",
                    "decay rate(s), one value or per-qubit list"),
    "gamma_plus": ("model", _parse_rates, 1.0, "--gamma-plus",
                   "pump rate(s), one value or per-qubit list"),
    "eta": ("model", float, 1.0, "--eta", "detection efficiency in [0, 1]"),
    "unraveling": ("run", str, None, None, None),  # the subcommand's flags choose it
    "dt": ("run", float, 1e-3, "--dt", None),
    "t_max": ("run", float, 1.0, "--t-max", None),
    "n_trajectories": ("run", int, 1000, "--n-traj", None),
    "master_seed": ("run", int, 0, "--seed",
                    "master seed, an integer >= 0: every trajectory's Philox stream derives from it"),
    "initial_state": ("run", str, "bell", "--initial-state", "bell, ground or excited"),
    "sample_times": ("run", _parse_times, None, "--sample-times",
                     "comma/space separated times on the dt grid"),
    "workers": ("run", int, None, "--workers", None),
    "output": ("run", str, None, "--output", "CSV output path (default: stdout)"),
    "view": ("run", str, "trajectory", "--view",
             f"which concurrence series the CSV carries: {' or '.join(VIEWS)}"),
    "u11": ("run", complex, complex(PROTECTING_U[0, 0]), "--u11", "noise correlation u[--]"),
    "u12": ("run", complex, complex(PROTECTING_U[0, 1]), "--u12", "noise correlation u[-+]"),
    "u22": ("run", complex, complex(PROTECTING_U[1, 1]), "--u22", "noise correlation u[++]"),
}
_U_KEYS = ("u11", "u12", "u22")
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"unraveling"}
# the commands whose function judges its own arguments: flag (dest) -> conversion
_FIGURE3_RUN_KEYS = ("n_trajectories", "dt", "t_max", "master_seed", "workers")
_FIGURE3 = {"gamma": float, "sample_spacing": float} | {k: _OPTIONS[k][1] for k in _FIGURE3_RUN_KEYS}
_PARAMS = {"omega": float, "big_gamma": float, "gamma_minus": float}


def _converted(args: argparse.Namespace, converts: dict) -> dict:
    """The command's arguments, each flag through its conversion; one that does not convert stays text."""
    return {
        key: convert_or_text(converts[key], value) if key in converts else value
        for key, value in vars(args).items()
        if key != "command"
    }


def _resolve(args: argparse.Namespace, unraveling: str) -> tuple[ExperimentConfig, str, str | None]:
    """Merge flag > INI file > default; every bad field goes into one ConfigError."""
    errors, given = ConfigError(), {}
    if args.config:
        ini = configparser.ConfigParser()
        try:
            if not ini.read(args.config):
                raise OSError(f"cannot read config file {args.config}")
        except configparser.Error as exc:
            raise ConfigError(f"config: {exc}") from None
        for section in ini.sections():
            if section not in ("model", "run"):
                errors.add(f"unknown section [{section}]")
                continue
            for key, text in ini.items(section):
                if key in _OPTIONS and _OPTIONS[key][0] == section:
                    given[key] = text
                else:
                    errors.add(f"unknown key {key!r} in [{section}]")
    given.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)

    values = {
        key: convert_or_text(convert, given[key]) if key in given else default
        for key, (_, convert, default, _, _) in _OPTIONS.items()
    }
    if values["view"] not in VIEWS:
        errors.add(f"view: unknown {values['view']!r}, expected one of {tuple(VIEWS)}")
    if values["unraveling"] not in (None, unraveling):
        errors.add(
            f"unraveling: {values['unraveling']} disagrees with the command line ({unraveling})"
        )
    # the model names its own fields, which stand for the run's model entry
    model_values = (v for k, v in values.items() if _OPTIONS[k][0] == "model")
    model = errors.check(LindbladModel, *model_values, field="model")
    # any u key reaches validate(), which rejects it outside the general SME; the
    # entries not given, or every entry without one, are those of the protecting u
    u = None
    if any(k in given for k in _U_KEYS):
        u11, u12, u22 = (values[k] for k in _U_KEYS)
        u = [[u11, u12], [u12, u22]]
    run = {k: v for k, v in values.items() if k in _CONFIG_FIELDS}
    config = ExperimentConfig(model=model, unraveling=unraveling, u=u, **run)
    errors.add(*config.field_errors())
    errors.raise_any()
    return config, values["view"], values["output"]


def _run_and_emit(args: argparse.Namespace, unraveling: str) -> None:
    config, view, output = _resolve(args, unraveling)
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
    runs = {
        name: subs.add_parser(name, help=text)
        for name, text in (
            ("master", "solve the unconditioned master equation"),
            ("jump", "quantum-jump trajectory ensemble"),
            ("diffusive", "diffusive (homodyne-like) ensemble"),
        )
    }
    for name, sub in runs.items():
        sub.add_argument("--config", help="INI config file ([model]/[run] sections)")
        for key, (_, _, _, flag, help_text) in _OPTIONS.items():
            if flag and (name == "diffusive" or key not in _U_KEYS):
                sub.add_argument(flag, dest=key, help=help_text)
    # the dest is not "unraveling", which is the INI key
    runs["jump"].add_argument(
        "--unraveling", choices=("canonical", "protecting"), default="protecting",
        dest="jump_set",
        help="bare decay/pump clicks, or the entanglement-preserving Pauli mix",
    )
    runs["diffusive"].add_argument("--exact-unitary", action="store_true",
                                   help="use the exact local-unitary protecting path")

    # only the flags given reach figure3, whose signature holds the defaults
    p_fig = subs.add_parser("figure3", help="emit the five concurrence-vs-time CSV series",
                            argument_default=argparse.SUPPRESS)
    p_fig.add_argument("--output-dir", required=True)
    p_fig.add_argument("--gamma")
    p_fig.add_argument("--sample-spacing")
    for key in _FIGURE3_RUN_KEYS:
        _, _, _, flag, help_text = _OPTIONS[key]
        p_fig.add_argument(flag, dest=key, help=help_text)

    p_par = subs.add_parser("params", help="engineered-reservoir rate calculator")
    p_par.add_argument("--omega", required=True, help="classical drive strength")
    p_par.add_argument("--big-gamma", required=True, dest="big_gamma",
                       help="auxiliary-level decay rate")
    p_par.add_argument("--gamma-minus", default=0.0, dest="gamma_minus",
                       help="natural decay rate (enables occupation/balance output)")

    args = parser.parse_args(argv)
    try:
        if args.command == "master":
            _run_and_emit(args, "none")
        elif args.command == "jump":
            _run_and_emit(args, f"jump_{args.jump_set}")
        elif args.command == "diffusive":
            kind = "diffusive_protecting_unitary" if args.exact_unitary else "diffusive"
            _run_and_emit(args, kind)
        elif args.command == "figure3":
            paths = figure3(**_converted(args, _FIGURE3))
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "params":
            drive = DriveParams(**_converted(args, _PARAMS))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AdiabaticityWarning)
                gp = engineered_pump_rate(drive)
            print(f"gamma_plus = {gp:.12g}")
            print(f"adiabatic_ok = {drive.adiabatic_ok()}")
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if drive.gamma_minus > 0:
                print(f"balancing_omega = {balancing_drive(drive.gamma_minus, drive.big_gamma):.12g}")
                if gp < drive.gamma_minus:
                    print(f"thermal_occupation = {thermal_occupation(drive.gamma_minus, gp):.12g}")
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
