"""Configuration parsing, run orchestration, and CSV/report emission.

The run configuration is a single JSON document with tagged signal
records. Parsing is strict: unknown keys, missing fields, and invariant
violations are reported as field-level diagnostics naming the offending
key. Exit codes encode the run outcome so CI can assert a reproduction
without parsing text: 0 all checks pass, 1 configuration problem,
2 constraint failure or numerical blowup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources

import numpy as np

from .approximator import RbfError, RbfNetwork
from .barrier import BarrierViolation
from .controller import (
    ConstraintConfig,
    ControllerError,
    GainConfig,
    lyapunov_decay_rates,
)
from .observer import gain_warnings
from .plant import Monomial, PlantError, PlantSpec
from .signals import SignalError, finite_number, finite_numbers, signal_from_dict, signal_to_dict
from .simengine import (
    ConfigError,
    InfeasibleInitialCondition,
    NonFiniteState,
    RunConfig,
    SimResult,
    run,
)


def _check_keys(record: dict, allowed, required, path: str, problems: list) -> bool:
    ok = True
    for key in required:
        if key not in record:
            problems.append((f"{path}.{key}" if path else key, "missing required field"))
            ok = False
    unknown = set(record) - set(allowed)
    for key in sorted(unknown):
        problems.append((f"{path}.{key}" if path else key, "unknown key"))
        ok = False
    return ok


def _number(record: dict, key: str, path: str, problems: list):
    try:
        return finite_number(record[key])
    except ValueError as exc:
        problems.append((f"{path}.{key}", str(exc)))
        return None


def _int(record: dict, key: str, path: str, problems: list):
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append((f"{path}.{key}", f"expected an integer, got {value!r}"))
        return None
    return value


def _parse_signal(record, path: str, problems: list):
    try:
        return signal_from_dict(record, path)
    except SignalError as exc:
        problems.append((exc.path or path, exc.message))
        return None


def _parse_plant(record, problems: list) -> PlantSpec | None:
    path = "plant"
    if not isinstance(record, dict):
        problems.append((path, "expected an object"))
        return None
    if not _check_keys(record, ("n", "f", "beta", "disturbances"),
                       ("n", "f", "beta", "disturbances"), path, problems):
        return None
    n = _int(record, "n", path, problems)
    beta = _number(record, "beta", path, problems)
    monos = []
    if not isinstance(record["f"], list):
        problems.append((f"{path}.f", "expected a list of monomials"))
        return None
    for i, mrec in enumerate(record["f"]):
        mpath = f"{path}.f[{i}]"
        if not isinstance(mrec, dict) or set(mrec) != {"coeff", "exponents"}:
            problems.append((mpath, 'expected {"coeff": ..., "exponents": [...]}'))
            continue
        coeff = _number(mrec, "coeff", mpath, problems)
        exps = mrec["exponents"]
        if not isinstance(exps, list) or any(
            isinstance(e, bool) or not isinstance(e, int) for e in exps
        ):
            problems.append((f"{mpath}.exponents", "expected a list of integers"))
            continue
        if coeff is not None:
            try:
                monos.append(Monomial(coeff, tuple(exps)))
            except PlantError as exc:
                problems.append((mpath, str(exc)))
    if not isinstance(record["disturbances"], list):
        problems.append((f"{path}.disturbances", "expected a list of signal records"))
        return None
    dist = [
        _parse_signal(d, f"{path}.disturbances[{i}]", problems)
        for i, d in enumerate(record["disturbances"])
    ]
    if n is None or beta is None or any(d is None for d in dist):
        return None
    try:
        return PlantSpec(n=n, f=tuple(monos), beta=beta, disturbances=tuple(dist))
    except PlantError as exc:
        problems.append((path, str(exc)))
        return None


def _parse_constraints(record, problems: list) -> ConstraintConfig | None:
    path = "constraints"
    if not isinstance(record, dict):
        problems.append((path, "expected an object"))
        return None
    if not _check_keys(record, ("Psi", "A"), ("Psi", "A"), path, problems):
        return None
    if not isinstance(record["Psi"], list):
        problems.append((f"{path}.Psi", "expected a list of signal records"))
        return None
    bounds = [
        _parse_signal(b, f"{path}.Psi[{i}]", problems) for i, b in enumerate(record["Psi"])
    ]
    reserves = finite_numbers(record["A"], f"{path}.A", problems)
    if any(b is None for b in bounds) or reserves is None:
        return None
    try:
        return ConstraintConfig(tuple(bounds), reserves)
    except ControllerError as exc:
        problems.append((path, str(exc)))
        return None


def _parse_rbf(record, n: int | None, problems: list) -> RbfNetwork | None:
    path = "rbf"
    if not isinstance(record, dict):
        problems.append((path, "expected an object"))
        return None
    if not _check_keys(record, ("l", "centers", "widths"), ("l",), path, problems):
        return None
    nodes = _int(record, "l", path, problems)
    if nodes is None:
        return None
    has_centers = "centers" in record
    has_widths = "widths" in record
    if has_centers != has_widths:
        problems.append((path, "centers and widths must be given together or both omitted"))
        return None
    try:
        if not has_centers:
            if n is None:
                return None
            return RbfNetwork.lattice(nodes, n)
        centers = record["centers"]
        widths = record["widths"]
        net = RbfNetwork(centers, widths)
        if net.l != nodes:
            problems.append((f"{path}.centers", f"{net.l} centers listed but l = {nodes}"))
            return None
        for key, values in (("centers", net.centers), ("widths", net.widths)):
            if not np.isfinite(values).all():
                problems.append((f"{path}.{key}", "expected finite numbers"))
                return None
        return net
    except (RbfError, ValueError, TypeError) as exc:  # TypeError: a non-number in the lists
        problems.append((path, str(exc)))
        return None


def _parse_gains(record, problems: list) -> GainConfig | None:
    path = "gains"
    if not isinstance(record, dict):
        problems.append((path, "expected an object"))
        return None
    if not _check_keys(record, ("k", "lambda", "eta", "delta"), ("k", "lambda", "eta"),
                       path, problems):
        return None
    k = finite_numbers(record["k"], f"{path}.k", problems)
    numbers = {name: _number(record, key, path, problems)
               for name, key in (("lam", "lambda"), ("eta", "eta"), ("delta", "delta"))
               if key in record}
    if k is None or None in numbers.values():
        return None
    try:
        return GainConfig(k=k, **numbers)
    except ControllerError as exc:
        problems.append((path, str(exc)))
        return None


_TOP_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))
_TOP_REQUIRED = (
    "plant", "constraints", "rbf", "gains", "observer_gains", "reference", "initial_x",
)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Parses the document's shape and its five component records; the
    run-level fields go to RunConfig as given, which checks them and the
    relations between the components. Raises ConfigError carrying
    (path, message) diagnostics for every problem found; unknown keys are
    errors.
    """
    problems = []
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ConfigError([("(document)", f"malformed JSON: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("(document)", "expected a JSON object")])

    _check_keys(doc, _TOP_KEYS, _TOP_REQUIRED, "", problems)
    if problems:
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


def _fmt(value: float) -> str:
    return repr(float(value))


def csv_header(n: int) -> list:
    cols = ["t"]
    cols += [f"x{i}" for i in range(1, n + 1)]
    cols += [f"Psi{i}" for i in range(1, n + 1)]
    cols += [f"psi{i}" for i in range(1, n + 1)]
    cols += [f"z{i}" for i in range(1, n + 1)]
    cols += [f"v{i}" for i in range(1, n)]
    cols += ["u"]
    cols += [f"eps_hat{i}" for i in range(1, n + 1)]
    cols += [f"zeta{i}" for i in range(1, n + 1)]
    cols += ["theta_norm", "y_d"]
    return cols


def emit_csv(result: SimResult, path: str) -> None:
    """Write the recorded trajectory as CSV, one row per recorded step.

    Numbers are written in round-trippable decimal form, so reading a
    cell back with float() reproduces the in-memory value exactly.
    """
    cfg = result.config
    n = cfg.plant.n
    lines = [",".join(csv_header(n))]
    for t, state, rec in zip(result.times.tolist(), result.trajectory, result.records):
        values = state.tolist()
        theta = state[3 * n:]
        row = [t]
        row += values[:n]
        row += [cfg.constraints.state_bound(i, t) for i in range(n)]
        row += [cfg.constraints.envelope(i, t) for i in range(n)]
        row += rec.z.tolist()
        row += rec.v.tolist()
        row += [rec.u]
        row += rec.eps_hat.tolist()
        row += values[2 * n:3 * n]
        # what np.linalg.norm computes for a vector
        row += [math.sqrt(theta @ theta), cfg.reference.value(t)]
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    tail_start = result.times[-1] / 2.0 if len(result.times) else 0.0

    early = [abs(rec.z[0]) for t, rec in zip(result.times, result.records) if t <= 2.0]
    late = [abs(rec.z[0]) for t, rec in zip(result.times, result.records) if t >= tail_start]
    transient_ok = bool(late and early and max(late) < max(early))

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
                f"  warning: mu[{i + 1}] = {r:g} is not positive under the conservative "
                f"basis bound {basis_bound:.4f}; the sufficient stability condition is "
                "not certified for this configuration"
            )
    for w in gain_warnings(cfg.observer_gains, basis_bound):
        lines.append(f"  warning: {w}")
    # |x_i| < Psi_i follows from |z_i| < psi_i only while the signal z_i is
    # measured from (y_d at level 1, v_{i-1} above) stays inside the reserve
    # Psi_i - psi_i = A_{i-1} exp(-r_i t) that the envelope still holds
    ref_peak = max((abs(cfg.reference.value(float(t))) for t in result.times), default=0.0)
    for i in range(n):
        if i == 0:
            label = f"reference bound: max |y_d| = {ref_peak:.6g}"
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
    """0 when all constraint checks pass, 2 otherwise."""
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
                print(f"error: no such configuration file: {args.config}", file=sys.stderr)
                return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
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

    if isinstance(outcome, SimResult):
        out_path = args.out or config.output_path
        if out_path:
            emit_csv(outcome, out_path)

    report = emit_report(outcome)
    print(report, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    return verdict_code(outcome)


if __name__ == "__main__":
    sys.exit(main())
