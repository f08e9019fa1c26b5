"""The closed-loop pass and the run loop, generated once per run.

The pass carries the whole closed loop at a time t and an augmented
state: the time signals, the RBF basis, the cascade levels, the weight
law, and the plant and observer rates. It is written from the loop's
constants and compiled once. The levels are unrolled, the state is held
in locals, and the gains, centers, widths, drift monomials and beta
appear as repr literals, which read back as the same floats. Every
expression keeps the operation order of the maths below, so the results
are the same bits as evaluating it step by step. CPython does not
contract a*b + c, and folds only products of two literals, as the
run-time product would round them.

The pass, per level i = 1..n (v_0 = y_d, the reference):

    z_i = x_i - v_{i-1}, checked against |z_i| < psi_i(t)
    q_i = z_i / ((psi_i - z_i)(psi_i + z_i))           barrier factor
    eps_hat_i = dhat_i + k_eps_i z_i                     observer estimate
    alpha_i = k_i z_i + eps_hat_i + q_i - (z_i / psi_i) dpsi_i/dt
    v_i = N(zeta_i) alpha_i, N(zeta) = zeta^2 cos(zeta)  gain search

with, at the last level, 0.5 q_n in place of q_n, plus the network output
theta . phi and the damped inverse q_n / (q_n^2 + delta) k_eps_n^4 / 8;
v_n is the input u. The weight law is
lam (q_n phi - k_eps_n^2 theta - eta theta), the zeta rates are q_i alpha_i,
and the plant and observer rates are

    x_i' = x_{i+1} + d_i(t),  x_n' = f(x) + beta u + d_n(t)
    dhat_i' = -k_eps_i (x_{i+1} + eps_hat_i),  dhat_n' = -k_eps_n (theta . phi + u + eps_hat_n)

A float-weight network (see RbfNetwork.float_weights) is written out on
floats with no numpy call, so its bits do not depend on CPU dispatch:
each squared distance (c - x_i)^2 once per distinct center coordinate,
node j as one math.exp of its squares summed over the axes divided by
-b_j, theta . phi as theta1 * p1 + theta2 * p2 + ... and ||theta|| as
sqrt(theta1 * theta1 + theta2 * theta2 + ...), every sum left to right.
A larger one keeps its weights as one float64 array theta, with
RbfNetwork.basis (np.exp) and numpy's BLAS dot. The state, in every
signature below, is x1..xn, dhat1..dhatn, zeta1..zetan and the weights,
theta1..thetal or theta. A local that fills a record column is named
after the column (see controller.RecordLayout): eps_hat1, alpha1,
zeta_rate1, theta_rate1, nn_out, theta_norm and so on.

A closed loop compiles to three functions:

    rates(t, state...) -> ds/dt, a tuple in the state's order
    integrate(rates, table, t0, steps, h, decimation, state...) -> metrics
    signals(t) -> (y_d, Psi, psi, dpsi), the last three tuples over the levels

integrate is the whole run. At each time point t = t0 + k h, k = 0..steps,
it makes the pass inline, with its outputs as locals, and then, in this
order:

  - updates the metrics: ||theta||; the maxima of |x_i| / Psi_i,
    |z_i| / psi_i, |zeta_i|, |eps_hat_i|, |eps_hat_i - its previous
    value| / h (from the second point on), |v_i|, |y_d|, |u| and
    ||theta||; per level the first t at which |x_i - z_i| exceeds the
    reserve Psi_i - psi_i; the maximum of |z_1| over t <= 2; and from
    k >= steps / 2 on the tail sum of z_1^2 and the maximum of |z_1|;
  - at every decimation-th point and the last one, writes the record-table
    row at t, in the column order of controller.RecordLayout, to the
    table's next row: table is a flat writable buffer of doubles, rows by
    the layout's width, and the row's doubles are packed into it by one
    call;
  - stops at the last point, where no rate is taken;
  - takes the plant and observer rates as k1, calls rates at t + h/2,
    t + h/2 and t + h on the stage inputs y + (h/2) k1, y + (h/2) k2 and
    y + h k3, and combines y + (h/6)(k1 + 2 k2 + 2 k3 + k4) entry by
    entry, as rk4_step forms them;
  - checks that every state entry is finite.

It returns the run's metrics as a dict of RunMetrics fields. A state that
left the finite range, or an overflow, a ZeroDivisionError or a
ValueError (other than a ConfigError) in step k, ends it in
NonFiniteState at t0 + (k + 1) h. A run integrates from t0 = 0.0, where
t0 + k h is k h exactly; a zero-step integrate from t0 = t is the
cascade map at t (BacksteppingCascade._eval). The array layout's
integrate runs with numpy's floating-point warnings off, so the map and
a run alike say what went wrong through their own checks; its rates,
called three times a step, is left bare.

The time signals of the last distinct t, and the disturbances of the last
distinct t a rate was taken at, are kept in the closure and shared by
all the functions: a pure function of t, evaluated once per distinct
stage time. This closure is their only memo. A t that differs in the
last bit is a new time. So a run that reads signals(0.0) for its
feasibility check before integrate starts does not read them again at
t = 0.
"""

from __future__ import annotations

import math
import struct

from .barrier import BarrierViolation
from .signals import ConfigError


class NonFiniteState(RuntimeError):
    """The integrated state left the representable range (NaN or overflow)."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state became non-finite at t={t:.6g}")


_GLOBALS = {"exp": math.exp, "cos": math.cos, "sqrt": math.sqrt, "log1p": math.log1p,
            "isfinite": math.isfinite, "BarrierViolation": BarrierViolation,
            "ConfigError": ConfigError, "NonFiniteState": NonFiniteState}


def _lit(value) -> str:
    """A float as Python source that reads back as the same float."""
    value = float(value)
    if not math.isfinite(value):
        return f"float('{value!r}')"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _unpack(names: list) -> str:
    """An assignment target for names; a lone name keeps its comma."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


def _tuple(names: list) -> str:
    return f"({_unpack(names)})"


# The most terms a generated statement sums: CPython's compiler recurses
# once per + of a chain, and fails at a few thousand.
_CHAIN = 256


def _sum(terms: list, name: str) -> tuple:
    """(statements, expression) that sum terms left to right, at most
    _CHAIN to a statement: the statements set name, which the expression
    continues. A short sum is the expression alone."""
    lines = []
    while len(terms) > _CHAIN:
        lines.append(f"{name} = {' + '.join(terms[:_CHAIN])}")
        terms = [name] + terms[_CHAIN:]
    return lines, " + ".join(terms)


def _indent(lines: list, depth: int) -> list:
    return [" " * depth + line if line else "" for text in lines for line in text.split("\n")]


class _Loop:
    """The names and the code sections of one generated loop."""

    def __init__(self, config, layout):
        self.config, self.layout = config, layout
        n, rbf, names = config.plant.n, config.rbf, layout.names
        self.n, self.rbf, self.floats = n, rbf, rbf.float_weights
        self.x, self.dhat, self.zeta = names["x"], names["dhat"], names["zeta"]
        self.weights = names["theta"] if self.floats else ["theta"]
        # ||theta||, the square root of the weights' dot with themselves
        squares = (" + ".join(f"{w} * {w}" for w in self.weights) if self.floats
                   else "theta.dot(theta)")
        self.norm = f"theta_norm = sqrt({squares})"
        self.state = self.x + self.dhat + self.zeta + self.weights
        self.z, self.q, self.e, self.a, self.v = (names[group] for group in
                                                  ("z", "q", "eps_hat", "alpha", "v"))
        self.big_psi, self.psi, self.dpsi = names["Psi"], names["psi"], _names("dpsi", n)
        self.dzeta = names["zeta_rate"]
        self.dweights = names["theta_rate"] if self.floats else ["theta_rate"]
        self.rates = _names("dx", n) + _names("ddhat", n) + self.dzeta + self.dweights
        self.memo = (["memo_t", "y_d"] + self.big_psi + self.psi + self.dpsi
                     + ["dist_t"] + _names("d", n))

    def head(self) -> list:
        """The factory's start: the signals' bound methods and the memo."""
        n = self.n
        return ["def make(reference, bounds, disturbances, basis):",
                "    reference = reference.value",
                f"    {_unpack(_names('bound', n))} = [b.value_and_derivative for b in bounds]",
                f"    {_unpack(_names('dist', n))} = [d.value for d in disturbances]",
                f"    {' = '.join(self.memo)} = None"]

    def signals(self) -> list:
        """The time signals at t, as ConstraintConfig.level_signals states
        them: read into the memo unless t is its time."""
        lines = ["if t != memo_t:"]
        constraints = self.config.constraints
        for j, (big_psi, psi, dpsi, reserve, r) in enumerate(zip(
                self.big_psi, self.psi, self.dpsi, constraints.virtual_bounds,
                constraints.release_rates), 1):
            lines.append(f"    {big_psi}, {dpsi} = bound{j}(t)")
            if reserve == 0.0:
                lines.append(f"    {psi} = {big_psi}")
            else:
                lines += [f"    held = exp(-{_lit(r)} * t)",
                          f"    {psi} = {big_psi} - {_lit(reserve)} * held",
                          f"    {dpsi} = {dpsi} + {_lit(r)} * {_lit(reserve)} * held"]
        return lines + ["    y_d = reference(t)", "    memo_t = t"]

    def pass_(self) -> list:
        """The pass at (t, state), up to the weight law and zeta rates."""
        n, rbf, floats = self.n, self.rbf, self.floats
        if floats:
            # each distinct center coordinate's squared distance once, then
            # per node one exp of the axes' squares summed left to right
            lines, nodes = [], [[] for _ in range(rbf.l)]
            for axis in range(n):
                squares = {}
                for node, center in zip(nodes, rbf.center_values):
                    node.append(squares.setdefault(_lit(center[axis]),
                                                   f"sq{axis + 1}_{len(squares) + 1}"))
                x = self.x[axis]
                lines += [f"{name} = ({c} - {x}) * ({c} - {x})" for c, name in squares.items()]
            for j, (node, b) in enumerate(zip(nodes, rbf.width_values)):
                sums, total = _sum(node, "sq")
                lines += sums + [f"p{j + 1} = exp(({total}) / {_lit(-b)})"]
        else:
            lines = [f"phi = basis({_tuple(self.x)})"]

        lines += self.signals()

        gains, kobs = self.config.gains, self.config.observer_gains
        reciprocal_gain = kobs[-1] ** 4 / 8.0
        for j, (prev, x, dhat, zeta, z, psi, dpsi, q, e, a, out, dzeta, k, g) in enumerate(zip(
                ["y_d"] + self.v, self.x, self.dhat, self.zeta, self.z, self.psi, self.dpsi,
                self.q, self.e, self.a, self.v + ["u"], self.dzeta, gains.k, kobs), 1):
            lines += [f"{z} = {x} - {prev}",
                      f"if not (abs({z}) < {psi}):",
                      f"    raise BarrierViolation({z}, {psi}, level={j}, t=t)",
                      f"{q} = {z} / (({psi} - {z}) * ({psi} + {z}))",
                      f"{e} = {dhat} + {_lit(g)} * {z}"]
            if j < n:
                lines.append(f"{a} = {_lit(k)} * {z} + {e} + {q} - ({z} / {psi}) * {dpsi}")
            else:
                lines += ["nn_out = " + " + ".join(f"{w} * p{i}" for i, w in enumerate(self.weights, 1))
                          if floats else "theta = asarray(theta)\nnn_out = float(theta.dot(phi))",
                          f"{a} = ({_lit(k)} * {z} + {e} + 0.5 * {q} - ({z} / {psi}) * {dpsi}"
                          f" + nn_out + {q} / ({q} * {q} + {_lit(gains.delta)})"
                          f" * {_lit(reciprocal_gain)})"]
            lines += [f"{out} = {zeta} * {zeta} * cos({zeta}) * {a}", f"{dzeta} = {q} * {a}"]

        lam, kn_sq, eta = _lit(gains.lam), _lit(kobs[-1] ** 2), _lit(gains.eta)
        qn = self.q[-1]
        if floats:
            lines += [f"{dw} = {lam} * ({qn} * p{i} - {kn_sq} * {w} - {eta} * {w})"
                      for i, (w, dw) in enumerate(zip(self.weights, self.dweights), 1)]
        else:
            lines.append(f"theta_rate = {lam} * ({qn} * phi - {kn_sq} * theta - {eta} * theta)")
        return lines

    def row(self) -> list:
        """The statements that write the record-table row at t into the
        flat table from byte at on, after the pass: the local of each of
        the layout's columns in order (the array layout's theta and
        theta_rate as their floats, the energy inline as blf_value's
        terms), packed as doubles by one pack_row call."""
        sums, energy = _sum(["0.0"] + [f"-0.5 * log1p(-({z} / {psi}) ** 2)"
                                       for z, psi in zip(self.z, self.psi)], "energy")
        cells = {"barrier_energy": [energy]}
        if not self.floats:
            cells.update(theta=["*theta.tolist()"], theta_rate=["*theta_rate.tolist()"])
        return sums + ["pack_row(table, at, " + ", ".join(
                           c for group, names in self.layout.names.items()
                           for c in cells.get(group, names)) + ")",
                       f"at += {8 * self.layout.width}"]

    def plant_rates(self) -> list:
        """The plant and observer rates at (t, state), after the pass."""
        n, plant, kobs = self.n, self.config.plant, self.config.observer_gains
        lines = ["if t != dist_t:"]
        lines += [f"    d{j} = dist{j}(t)" for j in range(1, n + 1)]
        lines.append("    dist_t = t")
        # the drift as PlantSpec.nonlinearity sums it: from 0.0, each
        # monomial its coefficient times its powers, left to right
        drift = ["0.0"] + [" * ".join([_lit(coeff)] + [f"{self.x[j]} ** {e!r}" for j, e in powers])
                           for coeff, powers in plant._drift]
        sums, total = _sum(drift, "drift")
        lines += sums + [f"drift = {total}"]
        lines += [f"dx{j} = {self.x[j]} + d{j}" for j in range(1, n)]
        lines.append(f"dx{n} = drift + {_lit(plant.beta)} * u + d{n}")
        lines += [f"ddhat{j} = {_lit(-kobs[j - 1])} * ({self.x[j]} + {self.e[j - 1]})"
                  for j in range(1, n)]
        lines.append(f"ddhat{n} = {_lit(-kobs[n - 1])} * (nn_out + u + {self.e[-1]})")
        return lines

    def metrics(self) -> tuple:
        """The metric locals' start, their update at a time point, and the
        dict of RunMetrics fields they end as. Each maximum is a (field,
        local, value) from 0.0; a list of values, one per level, ends as a
        tuple. last_e starts at NaN, whose difference compares greater than
        nothing, so the rate's maximum starts at the second point."""
        last_e = [f"last_{e}" for e in self.e]
        maxima = [("max_constraint_ratio", "ratio_x", [f"abs({x}) / {b}"
                                                       for x, b in zip(self.x, self.big_psi)]),
                  ("max_error_ratio", "ratio_z", [f"abs({z}) / {p}"
                                                  for z, p in zip(self.z, self.psi)]),
                  ("max_abs_zeta", "max_zeta", [f"abs({z})" for z in self.zeta]),
                  ("max_abs_eps_hat", "max_e", [f"abs({e})" for e in self.e]),
                  ("max_abs_eps_hat_rate", "max_de", [f"abs({e} - last_{e}) / h" for e in self.e]),
                  ("observed_max_abs_v", "max_v", [f"abs({v})" for v in self.v]),
                  ("max_abs_y_d", "max_y_d", "abs(y_d)"), ("max_abs_u", "max_u", "abs(u)"),
                  ("max_theta_norm", "max_norm", "theta_norm")]
        reserve = _names("reserve", self.n)
        start, update = ["tail", "early_z1", "late_z1"], [self.norm]
        fields = ["tracking_rmse_tail=sqrt(tail / tail_count)", "final_theta_norm=theta_norm",
                  f"reserve_exceeded_at={_tuple(reserve)}", "early_max_abs_z1=early_z1",
                  "late_max_abs_z1=late_z1"]
        for name, local, values in maxima:
            vector = isinstance(values, list)
            names = _names(local, len(values)) if vector else [local]
            start += names
            for m, value in zip(names, values if vector else [values]):
                update += [f"if {value} > {m}:", f"    {m} = {value}"]
            fields.append(f"{name}=" + (_tuple(names) if vector else local))
        for r, x, z, big_psi, psi in zip(reserve, self.x, self.z, self.big_psi, self.psi):
            update += [f"if {r} is None and abs({x} - {z}) > {big_psi} - {psi}:", f"    {r} = t"]
        update += [f"{_unpack(last_e)} = {_unpack(self.e)}",
                   "if t <= 2.0 and abs(z1) > early_z1:", "    early_z1 = abs(z1)",
                   "if 2 * k >= steps:", "    tail += z1 ** 2", "    tail_count += 1",
                   "    if abs(z1) > late_z1:", "        late_z1 = abs(z1)"]
        start = [" = ".join(start + ["0.0"]), " = ".join(last_e + ["float('nan')"]),
                 " = ".join(reserve + ["None"]), "tail_count = 0"]
        return start, update, "dict(" + ",\n     ".join(fields) + ")"

    def step(self) -> list:
        """The RK4 stages after k1 and the combine, then the finiteness check."""
        k2, k3, k4 = ([f"k{s}_{i + 1}" for i in range(len(self.state))] for s in (2, 3, 4))
        lines, n = [], self.n
        for time, scale, rates, out in (("t + half", "half", self.rates, k2),
                                        ("t + half", "half", k2, k3), ("t + h", "h", k3, k4)):
            inputs = [f"{y} + {scale} * {r}" for y, r in zip(self.state, rates)]
            parts = [inputs[:n], inputs[n:2 * n], inputs[2 * n:3 * n], inputs[3 * n:]]
            lines.append(f"{_unpack(out)} = rates({time},\n    "
                         + ",\n    ".join(", ".join(part) for part in parts) + ")")
        lines += [f"{y} = {y} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
                  for y, a, b, c, d in zip(self.state, self.rates, k2, k3, k4)]
        if self.floats:
            finite = [f"isfinite({y})" for y in self.state]
        else:
            finite = [f"isfinite({y})" for y in self.state[:-1]] + ["np_isfinite(theta).all()"]
        lines += ["if not (" + "\n        and ".join(finite) + "):",
                  "    raise NonFiniteState(t0 + (k + 1) * h)"]
        return lines


def compile_pass(config, layout) -> tuple:
    """(source, (rates, integrate, signals)) for a checked RunConfig whose
    rows are written in layout's order. The source is one factory, make,
    compiled once under a filename that names it, such as <blfstep pass
    n=2 l=12>, so tracebacks and profiles point at it; the functions are
    what make returns."""
    g = _Loop(config, layout)
    state = ", ".join(g.state)
    nonlocal_ = f"    nonlocal {', '.join(g.memo)}"
    start, update, fields = g.metrics()
    body = [f"def rates(t, {state}):", nonlocal_,
            *_indent(g.pass_() + g.plant_rates(), 4),
            f"    return {_tuple(g.rates)}",
            "",
            f"def integrate(rates, table, t0, steps, h, decimation, {state}):",
            nonlocal_,
            "    half = 0.5 * h",
            "    sixth = h / 6.0",
            *_indent(start, 4),
            "    at = 0",
            "    try:",
            "        for k in range(steps + 1):",
            "            t = t0 + k * h",
            *_indent(g.pass_() + update, 12),
            "            if k % decimation == 0 or k == steps:",
            *_indent(g.row(), 16),
            "            if k == steps:",
            "                break",
            *_indent(g.plant_rates() + g.step(), 12),
            "    except ConfigError:",
            "        raise",
            "    except (OverflowError, ValueError, ZeroDivisionError) as exc:",
            "        raise NonFiniteState(t0 + (k + 1) * h) from exc",
            *_indent(["return " + fields], 4),
            "",
            "def signals(t):",
            nonlocal_,
            *_indent(g.signals(), 4),
            f"    return y_d, {_tuple(g.big_psi)}, {_tuple(g.psi)}, {_tuple(g.dpsi)}"]
    source = "\n".join(g.head() + [""] + _indent(body, 4)
                       + ["    return rates, integrate, signals", ""])
    # one row's doubles packed straight into the table: quicker than a
    # store per cell or a numpy row store
    namespace = dict(_GLOBALS, pack_row=struct.Struct(f"{layout.width}d").pack_into)
    exec(compile(source, f"<blfstep pass n={g.n} l={g.rbf.l}>", "exec"), namespace)
    # popped, so that no cycle through the namespace holds the compiled
    # code: it is freed with the functions make returns, not by a later
    # garbage collection
    rates, integrate, signals = namespace.pop("make")(
        config.reference, config.constraints.state_bounds, config.plant.disturbances,
        config.rbf.basis)
    if not g.floats:  # only the array layout calls numpy, from globals read at call time
        import numpy as np

        namespace.update(asarray=np.asarray, np_isfinite=np.isfinite)
        integrate = np.errstate(all="ignore")(integrate)
    return source, (rates, integrate, signals)
