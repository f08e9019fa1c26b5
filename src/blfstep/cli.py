"""Configuration parsing, run orchestration, and CSV/report emission.

The run configuration is a single JSON document with tagged signal
records. Parsing is strict: unknown keys, missing fields, and invariant
violations are reported as field-level diagnostics naming the offending
key. Exit codes encode the run outcome so CI can assert a reproduction
without parsing text: 0 all checks pass, 1 configuration problem, an
initial state already outside its envelope (the run never starts) or a
file that cannot be read or written, 2 constraint failure or numerical
blowup.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
from importlib import resources

from .approximator import RbfNetwork
from .barrier import BarrierViolation
from .controller import ConstraintConfig, GainConfig, RecordLayout, lyapunov_decay_rates
from .plant import Monomial, PlantSpec
from .signals import SIGNALS, ConfigError, plain, read_record, write_record
from .simengine import (
    InfeasibleInitialCondition,
    NonFiniteState,
    RunConfig,
    SimResult,
    run,
)


# The run document's record formats; see signals.read_record.
_MONOMIAL = (Monomial, plain("coeff", "exponents"))
_PLANT = (PlantSpec, (*plain("n"), ("f", "f", [_MONOMIAL]), *plain("beta"),
                      ("disturbances", "disturbances", [SIGNALS])))
_CONSTRAINTS = (ConstraintConfig, (("Psi", "state_bounds", [SIGNALS]),
                                    ("A", "virtual_bounds", None)))
_GAINS = (GainConfig, (*plain("k"), ("lambda", "lam", None), *plain("eta", "delta")))
_RBF = (RbfNetwork.read, plain("l", "centers", "widths"))
_RUN = (RunConfig, (("plant", "plant", _PLANT), ("constraints", "constraints", _CONSTRAINTS),
                    ("rbf", "rbf", _RBF), ("gains", "gains", _GAINS), *plain("observer_gains"),
                    ("reference", "reference", SIGNALS),
                    *plain("initial_x", "horizon", "step", "decimation", "output_path")))


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Reads the document as the record format _RUN: read_record checks its
    shape and hands the values to the component constructors and to
    RunConfig, which check them. Raises ConfigError carrying (path,
    message) diagnostics for every problem found, named as the document
    names the field; unknown keys are errors. When a component fails, the
    run-level fields are still checked, so both are named in one attempt.
    """
    problems = []
    try:
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
            raise ConfigError([("(document)", f"malformed JSON: {exc}")]) from exc
        config = read_record(doc, "", _RUN, problems)
    except RecursionError:  # signal sums nested some 500 deep
        raise ConfigError([("(document)", "nested too deeply to read")]) from None
    if config is None:
        raise ConfigError(problems)
    return config


def config_to_dict(config: RunConfig) -> dict:
    """Serialize a RunConfig back to its JSON document form, with every
    field written: an unset output_path as None (JSON null)."""
    return write_record(config, _RUN)


def paper_sec6_path() -> str:
    """Filesystem path of the bundled flagship configuration."""
    return str(resources.files("blfstep.configs") / "paper_sec6.json")


def load_config_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# The CSV's record groups, in column order.
_CSV_GROUPS = ("t", "x", "Psi", "psi", "z", "v", "u", "eps_hat", "zeta", "theta_norm", "y_d")


def csv_header(n: int) -> list:
    """The CSV's column names for a plant of order n."""
    return RecordLayout(n, 0).columns(_CSV_GROUPS)


def emit_csv(result: SimResult, path: str) -> None:
    """Write the recorded trajectory as CSV, one row per recorded step.

    The columns come from the run's record table, read from its flat
    cells 256 rows at a time. Numbers are written in round-trippable
    decimal form, so reading a cell back with float() reproduces the
    in-memory value exactly.
    """
    layout, flat = result.records.layout, result.records.flat
    header = layout.columns(_CSV_GROUPS)
    at = [layout.index[name] for name in header]
    chunk = 256 * layout.width  # the cells of the rows converted and written at a time
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(flat), chunk):
            columns = [flat[start + c:start + chunk:layout.width].tolist() for c in at]
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in zip(*columns)]))


def _ratio_line(label: str, ratios) -> str:
    body = ", ".join(f"{r:.4f}" for r in ratios)
    return f"  {label}: {body}"


def emit_report(outcome) -> str:
    """Human-readable run summary.

    Accepts a completed SimResult or one of the run's failure exceptions
    (BarrierViolation, InfeasibleInitialCondition, NonFiniteState).
    """
    if isinstance(outcome, BarrierViolation):
        return (
            "run aborted\n"
            f"constraints: FAIL at level {outcome.level}, t={outcome.t:.6g}\n"
            f"  |z| = {abs(outcome.z):.6g} reached psi = {outcome.psi:.6g}\n"
        )
    if isinstance(outcome, InfeasibleInitialCondition):
        return (
            "run not started\n"
            f"initial condition: FAIL at level {outcome.level}\n"
            f"  |z({outcome.level})(0)| = {abs(outcome.z0):.6g} >= psi({outcome.level})(0) "
            f"= {outcome.psi0:.6g}\n"
        )
    if isinstance(outcome, NonFiniteState):
        return (
            "run aborted\n"
            f"state: FAIL non-finite at t={outcome.t:.6g}\n"
        )

    result: SimResult = outcome
    cfg = result.config
    m = result.metrics
    n = cfg.plant.n
    # every verdict from the metrics and the configuration: constraints is the exit code;
    # a completed run is bounded, as a non-finite state ends in NonFiniteState instead
    passed = verdict_code(result) == 0
    transient_ok = m.late_max_abs_z1 < m.early_max_abs_z1
    end = cfg.steps * cfg.step  # the last accepted time, the last row's t
    tail_start = end / 2.0

    lines = ["closed-loop run report", ""]
    lines.append(f"horizon: {cfg.horizon:g} s   step: {cfg.step:g} s   levels: {n}   "
                 f"rbf nodes: {cfg.rbf.l}")
    lines.append("")
    lines.append(f"constraints: {'PASS' if passed else 'FAIL'}")
    lines.append(_ratio_line("max |x_i| / Psi_i", m.max_constraint_ratio))
    lines.append(_ratio_line("max |z_i| / psi_i", m.max_error_ratio))
    lines.append("boundedness: PASS")
    lines.append(f"  max |u| = {m.max_abs_u:.6g}   max ||theta|| = {m.max_theta_norm:.6g}")
    lines.append(_ratio_line("max |zeta_i|", m.max_abs_zeta))
    lines.append(_ratio_line("max |eps_hat_i|", m.max_abs_eps_hat))
    lines.append(_ratio_line("max |d eps_hat_i/dt| (diagnostic)", m.max_abs_eps_hat_rate))
    lines.append(f"tracking transient decay: {'PASS' if transient_ok else 'FAIL'}")
    lines.append(f"  rmse of y - y_d over [{tail_start:g}, {end:g}]: "
                 f"{m.tracking_rmse_tail:.6g}")
    lines.append("")

    basis_bound = cfg.rbf.norm_bound()
    rates = lyapunov_decay_rates(cfg.gains, cfg.observer_gains, basis_bound)
    lines.append("diagnostics")
    lines.append("  guaranteed decay rates mu: " + ", ".join(f"{r:g}" for r in rates))
    for i, r in enumerate(rates):
        if r <= 0:
            lines.append(
                f"  warning: mu[{i + 1}] = {r:g} is not positive at observer gain "
                f"k_eps[{i + 1}] = {cfg.observer_gains[i]:g} under the conservative basis bound "
                f"{basis_bound:.4f}; the sufficient stability condition is not certified "
                "for this configuration"
            )
    # |x_i| < Psi_i follows from |z_i| < psi_i only while the signal z_i is
    # measured from (y_d at level 1, v_{i-1} above) stays inside the reserve
    # Psi_i - psi_i = A_{i-1} exp(-r_i t) that the envelope still holds
    for i in range(n):
        if i == 0:
            label = f"reference bound: max |y_d| = {m.max_abs_y_d:.6g}"
        else:
            label = f"virtual control bound: max |v{i}| = {m.observed_max_abs_v[i - 1]:.6g}"
        reserve = cfg.constraints.virtual_bounds[i]
        rate = cfg.constraints.release_rates[i]
        released = f"{reserve:g}*exp(-{rate:g} t)" if rate else f"{reserve:g}"
        t_fail = m.reserve_exceeded_at[i]
        status = "OK" if t_fail is None else f"EXCEEDED, first at t = {t_fail:.6g}"
        lines.append(f"  {label} vs level-{i + 1} reserve {released} : {status}")
        if t_fail is not None:
            lines.append(f"  warning: |x{i + 1}| < Psi{i + 1} is not guaranteed where the "
                         f"level-{i + 1} reserve is exceeded")
    lines.append("")
    lines.append(f"verdict: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def verdict_code(outcome) -> int:
    """0 when all constraint checks pass, 1 when the initial state already
    lies outside an envelope (InfeasibleInitialCondition), 2 on any other
    constraint failure or a numerical blowup."""
    if isinstance(outcome, (BarrierViolation, NonFiniteState)):
        return 2
    if isinstance(outcome, InfeasibleInitialCondition):
        return 1
    return 0 if all(r < 1.0 for r in outcome.metrics.max_constraint_ratio) else 2


def _file_identity(path: str):
    """The file at path: its device and inode where it exists, so that a
    link is the file it links, and else its real path."""
    try:
        status = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return status.st_dev, status.st_ino


def main(argv=None) -> int:
    import argparse  # only the command line needs it

    parser = argparse.ArgumentParser(
        prog="blfstep",
        description="Constrained adaptive backstepping simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run one closed-loop simulation")
    sim.add_argument("config", help="path to a JSON run configuration "
                                    "(the name of a bundled config also works)")
    sim.add_argument("--out", help="write the recorded trajectory as CSV to this path")
    sim.add_argument("--report", help="also write the text report to this path")
    sim.add_argument("--step", type=float, help="override the integration step")
    sim.add_argument("--horizon", type=float, help="override the horizon")
    args = parser.parse_args(argv)

    source = args.config  # the file the configuration is read from
    try:
        try:
            config = load_config_file(source)
        except FileNotFoundError:
            bundled = resources.files("blfstep.configs") / args.config
            if bundled.is_file():
                print(f"using bundled configuration {args.config}", file=sys.stderr)
                source = str(bundled)
                config = load_config_file(source)
            else:
                print(f"error: {args.config}: no such configuration file", file=sys.stderr)
                return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory, an unreadable file
        print(f"error: {args.config}: {exc.strerror}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.config}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 1

    # each flag given overrides its field, which RunConfig checks again; a
    # problem is named after its flag where one was given, else its path
    flags = {".step": ("--step", args.step), ".horizon": ("--horizon", args.horizon),
             ".output_path": ("--out", args.out)}
    overrides = {path[1:]: value for path, (_, value) in flags.items() if value is not None}
    problems = []
    if args.report == "":  # not a path, as for --out
        problems.append(("--report", "expected a file path, got an empty string"))
    try:
        if overrides:
            config = dataclasses.replace(config, **overrides)
        # no output may write over the configuration or the other output
        taken = {_file_identity(source): "the configuration file"}
        for name, path in (("--out" if args.out else ".output_path", config.output_path),
                           ("--report", args.report)):
            file = path and _file_identity(path)
            if file in taken:
                problems.append((name, f"{path} is {taken[file]}"))
            elif file:
                taken[file] = f"the {name} file"
        if not problems:
            outcome = run(config)
    except (BarrierViolation, InfeasibleInitialCondition, NonFiniteState) as exc:
        outcome = exc
    except ConfigError as exc:  # an override, or a record table that cannot be allocated
        problems = [(flags[path][0] if path[1:] in overrides else path, message)
                    for path, message in exc.problems] + problems
    for name, message in problems:
        print(f"error: {name}: {message}", file=sys.stderr)
    if problems:
        return 1

    report = emit_report(outcome)
    begun = []  # the output files this run has begun, in order
    try:
        if config.output_path is not None and isinstance(outcome, SimResult):
            begun.append(config.output_path)
            emit_csv(outcome, config.output_path)
        if args.report is not None:
            begun.append(args.report)
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report)
    except OSError as exc:  # a missing directory, a directory in the way, a full disk
        # no file of this run is left: one whose open failed (the error
        # names it; a failed write names none) was not touched, and a
        # device or a link is not a file of the run
        for path in begun:
            if path != exc.filename and os.path.isfile(path) and not os.path.islink(path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        print(f"error: {exc.filename or begun[-1]}: {exc.strerror}", file=sys.stderr)
        return 1
    print(report, end="")
    return verdict_code(outcome)


if __name__ == "__main__":
    sys.exit(main())
