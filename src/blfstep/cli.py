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

import argparse
import dataclasses
import json
import sys
from importlib import resources

import numpy as np

from .approximator import RbfNetwork, lattice_problems
from .barrier import BarrierViolation
from .controller import ConstraintConfig, GainConfig, RecordLayout, lyapunov_decay_rates
from .plant import Monomial, PlantSpec
from .signals import ConfigError, SignalError, signal_from_dict, signal_to_dict
from .simengine import (
    InfeasibleInitialCondition,
    NonFiniteState,
    RunConfig,
    SimResult,
    check_run_fields,
    run,
)


def _record(value, path: str, allowed, required, problems: list) -> bool:
    """Whether value is an object with the required keys and no others;
    records a problem for each key at fault."""
    if not isinstance(value, dict):
        problems.append((path, "expected an object"))
        return False
    prefix = f"{path}." if path else ""
    missing = [(prefix + key, "missing required field") for key in required if key not in value]
    unknown = [(prefix + key, "unknown key") for key in sorted(set(value) - set(allowed))]
    problems += missing + unknown
    return not (missing or unknown)


def _items(value, path: str, parse, problems: list) -> tuple | None:
    """parse(item, path[i], problems) for each item of value, at the
    document's own index, if value is a list; otherwise None after
    recording a problem."""
    if not isinstance(value, list):
        problems.append((path, "expected a list"))
        return None
    return tuple(parse(item, f"{path}[{i}]", problems) for i, item in enumerate(value))


def _build(make, path: str, problems: list, *args, **kwargs):
    """make(*args, **kwargs), or None after recording the problems it
    names under the record's path."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        problems += exc.under(path)
        return None


def _parse_signal(record, path: str, problems: list):
    try:
        return signal_from_dict(record, path)
    except SignalError as exc:
        problems += exc.problems
        return None


# Each component record below is checked for its shape only: an object
# with the allowed keys, its nested lists and records. The values go to
# the component's constructor, which checks them. A nested part that fails
# (a monomial, a signal) goes to it as None, in its place in the list, so
# the record's own fields are still checked in the same attempt.

def _parse_monomial(record, path: str, problems: list) -> Monomial | None:
    keys = ("coeff", "exponents")
    if not _record(record, path, keys, keys, problems):
        return None
    return _build(Monomial, path, problems, record["coeff"], record["exponents"])


def _parse_plant(record, problems: list) -> PlantSpec | None:
    path = "plant"
    keys = ("n", "f", "beta", "disturbances")
    if not _record(record, path, keys, keys, problems):
        return None
    monos = _items(record["f"], f"{path}.f", _parse_monomial, problems)
    dist = _items(record["disturbances"], f"{path}.disturbances", _parse_signal, problems)
    if monos is None or dist is None:
        return None
    return _build(PlantSpec, path, problems, record["n"], monos, record["beta"], dist)


def _parse_constraints(record, problems: list) -> ConstraintConfig | None:
    path = "constraints"
    if not _record(record, path, ("Psi", "A"), ("Psi", "A"), problems):
        return None
    bounds = _items(record["Psi"], f"{path}.Psi", _parse_signal, problems)
    return None if bounds is None else _build(ConstraintConfig, path, problems, bounds, record["A"])


def _parse_rbf(record, n: int | None, problems: list) -> RbfNetwork | None:
    path = "rbf"
    if not _record(record, path, ("l", "centers", "widths"), ("l",), problems):
        return None
    if ("centers" in record) != ("widths" in record):
        problems.append((path, "centers and widths must be given together or both omitted"))
        return None
    if "centers" not in record:
        # the lattice's dimension is the plant order; without a plant only
        # its node count is checked
        if n is None:
            problems += [(f"{path}.{name}", message)
                         for name, message in lattice_problems(l=record["l"])]
            return None
        return _build(RbfNetwork.lattice, path, problems, record["l"], n)
    net = _build(RbfNetwork, path, problems, record["centers"], record["widths"])
    if net is not None and net.l != record["l"]:
        problems.append((f"{path}.centers", f"{net.l} centers listed but l = {record['l']!r}"))
        return None
    return net


def _parse_gains(record, problems: list) -> GainConfig | None:
    path = "gains"
    if not _record(record, path, ("k", "lambda", "eta", "delta"), ("k", "lambda", "eta"),
                   problems):
        return None
    return _build(GainConfig, path, problems,
                  **{"lam" if key == "lambda" else key: value for key, value in record.items()})


_TOP_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
_TOP_REQUIRED = (
    "plant", "constraints", "rbf", "gains", "observer_gains", "reference", "initial_x",
)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Checks the document's shape and hands the values to the component
    constructors and to RunConfig, which check them. Raises ConfigError
    carrying (path, message) diagnostics for every problem found, named
    as the document names the field; unknown keys are errors. When a
    component fails, the run-level fields are still checked, so both are
    named in one attempt.
    """
    problems = []
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ConfigError([("(document)", f"malformed JSON: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("(document)", "expected a JSON object")])

    if not _record(doc, "", _TOP_KEYS, _TOP_REQUIRED, problems):
        raise ConfigError(problems)

    plant = _parse_plant(doc["plant"], problems)
    components = dict(
        plant=plant,
        constraints=_parse_constraints(doc["constraints"], problems),
        rbf=_parse_rbf(doc["rbf"], plant.n if plant else None, problems),
        gains=_parse_gains(doc["gains"], problems),
        reference=_parse_signal(doc["reference"], "reference", problems),
    )
    if problems:
        check_run_fields(doc, problems)
        raise ConfigError(problems)
    return RunConfig(**{**doc, **components})


def config_to_dict(config: RunConfig) -> dict:
    """Serialize a RunConfig back to its JSON document form."""
    doc = {
        "plant": {
            "n": config.plant.n,
            "f": [{"coeff": m.coeff, "exponents": list(m.exponents)} for m in config.plant.f],
            "beta": config.plant.beta,
            "disturbances": [signal_to_dict(d) for d in config.plant.disturbances],
        },
        "constraints": {
            "Psi": [signal_to_dict(b) for b in config.constraints.state_bounds],
            "A": list(config.constraints.virtual_bounds),
        },
        "rbf": {
            "l": config.rbf.l,
            "centers": config.rbf.centers.tolist(),
            "widths": config.rbf.widths.tolist(),
        },
        "gains": {
            "k": list(config.gains.k),
            "lambda": config.gains.lam,
            "eta": config.gains.eta,
            "delta": config.gains.delta,
        },
        "observer_gains": list(config.observer_gains),
        "reference": signal_to_dict(config.reference),
        "horizon": config.horizon,
        "step": config.step,
        "decimation": config.decimation,
        "initial_x": list(config.initial_x),
    }
    if config.output_path is not None:
        doc["output_path"] = config.output_path
    return doc


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

    The columns come from the run's record table. Numbers are written in
    round-trippable decimal form, so reading a cell back with float()
    reproduces the in-memory value exactly.
    """
    header = result.records.layout.columns(_CSV_GROUPS)
    cells = result.records.columns(header)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cells), 256):  # rows converted and written at a time
            rows = cells[start:start + 256].tolist()
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


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
    passed = verdict_code(result) == 0
    t, z1 = result.records.columns(["t", "z1"]).T
    tail_start = t[-1] / 2.0 if len(t) else 0.0

    early = np.abs(z1[t <= 2.0])
    late = np.abs(z1[t >= tail_start])
    transient_ok = bool(late.size and early.size and late.max() < early.max())

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
    lines.append(f"  rmse of y - y_d over [{tail_start:g}, {cfg.horizon:g}]: "
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
    return 0 if bool(np.all(outcome.metrics.max_constraint_ratio < 1.0)) else 2


def main(argv=None) -> int:
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

    try:
        try:
            config = load_config_file(args.config)
        except FileNotFoundError:
            bundled = resources.files("blfstep.configs") / args.config
            if bundled.is_file():
                print(f"using bundled configuration {args.config}", file=sys.stderr)
                config = parse_config(bundled.read_text(encoding="utf-8"))
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

    overrides = {name: value for name, value in (("step", args.step), ("horizon", args.horizon))
                 if value is not None}
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ConfigError as exc:
            for path, message in exc.problems:
                print(f"error: --{path.lstrip('.')}: {message}", file=sys.stderr)
            return 1

    try:
        outcome = run(config)
    except (BarrierViolation, InfeasibleInitialCondition, NonFiniteState) as exc:
        outcome = exc

    out_path = args.out or config.output_path
    report = emit_report(outcome)
    try:
        if out_path and isinstance(outcome, SimResult):
            emit_csv(outcome, out_path)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report)
    except OSError as exc:  # a missing directory, a directory in the way
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    print(report, end="")
    return verdict_code(outcome)


if __name__ == "__main__":
    sys.exit(main())
