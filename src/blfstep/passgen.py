"""The closed-loop pass, generated once per run from its constants.

One Python function carries the whole pass at a time t and an augmented
state s: the time signals, the RBF basis, the cascade levels, the weight
law, and, for a closed loop, the plant and observer rates. It is written
from the loop's constants and compiled once. The levels are unrolled,
the state is unpacked into locals, and the gains, centers, widths, drift
monomials and beta appear as repr literals, which read back as the same
floats. Every expression keeps the operation order of the maths below
and the same numpy calls (np.exp of the basis list, the BLAS dot
np.asarray(theta).dot(phi)), so the results are the same bits as
evaluating it step by step on floats and float64 arrays. CPython does
not contract a*b + c, and folds only products of two literals, as the
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

The generated function is

    closed_loop_pass(t, s, rate=True, outputs=None)

It returns ds/dt in the state's layout (see simengine.ClosedLoop). Given
a list as outputs, it first fills it with the pass's outputs

    z, q, eps_hat, alpha, v, u, zeta_rate, theta_rate, nn_out, weights, y_d, Psi, psi

where z to alpha, v, zeta_rate, Psi and psi are per-level lists,
theta_rate is a list of floats for a float-weight network and an array
beyond, and weights is theta as the array the dot read. With rate false
it then stops and returns None. A cascade without a plant compiles to
cascade_pass, which only fills outputs.

The time signals of the last distinct t, and the disturbances of the last
distinct t a rate was taken at, are kept in the closure: a pure function
of t, evaluated once per distinct stage time. The pass starts from the
cascade's own time-signal memo, so a run that read the signals at t = 0
before its first pass does not read them again.
"""

from __future__ import annotations

import math

import numpy as np

from .barrier import BarrierViolation

_GLOBALS = {"exp": math.exp, "cos": math.cos, "np_exp": np.exp, "asarray": np.asarray,
            "BarrierViolation": BarrierViolation}


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


def generate(cascade, plant=None) -> str:
    """The source of the pass for a cascade and, for the closed loop, its
    plant: one factory, make, whose closed_loop_pass (cascade_pass without
    a plant) is the pass."""
    n, rbf = cascade.n, cascade.rbf
    floats = rbf.float_weights
    x, dhat, zeta = _names("x", n), _names("dhat", n), _names("zeta", n)
    z, q, e, a = _names("z", n), _names("q", n), _names("e", n), _names("a", n)
    v, psi, big_psi = _names("v", n - 1), _names("psi", n), _names("Psi", n)
    w, p, dw = _names("w", rbf.l), _names("p", rbf.l), _names("dw", rbf.l)
    memo = ["memo_t", "y_d"] + [name for i in range(n) for name in (big_psi[i], psi[i], f"dpsi{i + 1}")]
    dist = _names("d", n) if plant is not None else []
    name = "closed_loop_pass" if plant is not None else "cascade_pass"

    head = [
        "def make(reference, bounds, disturbances, basis, memo_t, memo):",
        "    reference = reference.value",
        f"    {_unpack(_names('bound', n))} = [b.value_and_derivative for b in bounds]",
        f"    {_unpack(memo[1:])} = [None] * {len(memo) - 1}",
        "    if memo_t is not None:",
        f"        y_d, ({_unpack(big_psi)}), ({_unpack(psi)}), ({_unpack(_names('dpsi', n))}) = memo",
    ]
    if plant is not None:
        head += [f"    {_unpack(_names('dist', n))} = [d.value for d in disturbances]",
                 f"    dist_t = {' = '.join(dist)} = None"]
        memo += ["dist_t"] + dist
    body = [f"def {name}(t, s, rate=True, outputs=None):",
            f"    nonlocal {', '.join(memo)}"]
    theta = w if floats else ["theta"]
    body.append(f"    {_unpack(x + dhat + zeta + theta)} = s")

    # the basis: np.exp of a list of the two-axis distances over -b, which
    # numpy's row sum of fewer than 8 squares gives alike; else the array form
    if floats and n == 2:
        terms = [f"(({_lit(c1)} - x1) * ({_lit(c1)} - x1) + ({_lit(c2)} - x2) * ({_lit(c2)} - x2))"
                 f" / {_lit(-b)}"
                 for (c1, c2), b in zip(rbf.centers.tolist(), rbf.widths.tolist())]
        body.append("    phi = np_exp([" + ",\n                  ".join(terms) + "])")
    else:
        body.append(f"    phi = basis(({_unpack(x)}))")

    # the time signals, as ConstraintConfig.level_signals states them
    body.append("    if t != memo_t:")
    for i, (reserve, r) in enumerate(zip(cascade.constraints.virtual_bounds,
                                         cascade.constraints.release_rates)):
        j = i + 1
        if reserve == 0.0:
            body += [f"        Psi{j}, dpsi{j} = bound{j}(t)", f"        psi{j} = Psi{j}"]
        else:
            body += [f"        Psi{j}, dpsi{j} = bound{j}(t)",
                     f"        held = exp(-{_lit(r)} * t)",
                     f"        psi{j} = Psi{j} - {_lit(reserve)} * held",
                     f"        dpsi{j} = dpsi{j} + {_lit(r)} * {_lit(reserve)} * held"]
    body += ["        y_d = reference(t)", "        memo_t = t"]

    gains, kobs = cascade.gains, cascade.observer_gains
    reciprocal_gain = kobs[-1] ** 4 / 8.0
    for i, (k, g) in enumerate(zip(gains.k, kobs)):
        j = i + 1
        prev = "y_d" if i == 0 else f"v{i}"
        body += [f"    z{j} = x{j} - {prev}",
                 f"    if not (abs(z{j}) < psi{j}):",
                 f"        raise BarrierViolation(z{j}, psi{j}, level={j}, t=t)",
                 f"    q{j} = z{j} / ((psi{j} - z{j}) * (psi{j} + z{j}))",
                 f"    e{j} = dhat{j} + {_lit(g)} * z{j}"]
        if j < n:
            body += [f"    a{j} = {_lit(k)} * z{j} + e{j} + q{j} - (z{j} / psi{j}) * dpsi{j}",
                     f"    v{j} = zeta{j} * zeta{j} * cos(zeta{j}) * a{j}"]
        else:
            body += [f"    weights = asarray({'s[%d:]' % (3 * n) if floats else 'theta'})",
                     "    nn = float(weights.dot(phi))",
                     f"    a{j} = ({_lit(k)} * z{j} + e{j} + 0.5 * q{j} - (z{j} / psi{j}) * dpsi{j}"
                     f" + nn + q{j} / (q{j} * q{j} + {_lit(gains.delta)}) * {_lit(reciprocal_gain)})",
                     f"    u = zeta{j} * zeta{j} * cos(zeta{j}) * a{j}"]

    lam, kn_sq, eta = _lit(gains.lam), _lit(kobs[-1] ** 2), _lit(gains.eta)
    qn = f"q{n}"
    if floats:
        body.append(f"    {_unpack(p)} = phi.tolist()")
        body += [f"    dw{j + 1} = {lam} * ({qn} * {p[j]} - {kn_sq} * {w[j]} - {eta} * {w[j]})"
                 for j in range(rbf.l)]
        theta_rate = f"[{', '.join(dw)}]"
    else:
        body.append(f"    theta_rate = {lam} * ({qn} * phi - {kn_sq} * weights - {eta} * weights)")
        theta_rate = "theta_rate"
    zeta_rate = [f"{q[i]} * {a[i]}" for i in range(n)]
    body += ["    if outputs is not None:",
             f"        outputs[:] = ([{', '.join(z)}], [{', '.join(q)}], [{', '.join(e)}],\n"
             f"                      [{', '.join(a)}], [{', '.join(v)}], u, [{', '.join(zeta_rate)}],\n"
             f"                      {theta_rate},\n"
             f"                      nn, weights, y_d, [{', '.join(big_psi)}], [{', '.join(psi)}])"]

    if plant is not None:
        body += ["        if not rate:", "            return None",
                 "    if t != dist_t:"]
        body += [f"        d{j} = dist{j}(t)" for j in range(1, n + 1)]
        body.append("        dist_t = t")
        # the drift as PlantSpec.nonlinearity sums it: from 0.0, each
        # monomial its coefficient times its powers, left to right
        drift = ["0.0"] + [" * ".join([_lit(coeff)] + [f"x{j + 1} ** {e!r}" for j, e in powers])
                           for coeff, powers in plant._drift]
        body.append(f"    drift = {' + '.join(drift)}")
        neg_kobs = [_lit(-g) for g in kobs]
        rates = [f"x{j + 1} + d{j}" for j in range(1, n)]
        rates.append(f"drift + {_lit(plant.beta)} * u + d{n}")
        rates += [f"{neg_kobs[i]} * (x{i + 2} + e{i + 1})" for i in range(n - 1)]
        rates.append(f"{neg_kobs[n - 1]} * (nn + u + e{n})")
        rates += zeta_rate + (dw if floats else ["theta_rate"])
        body.append("    return [" + ",\n            ".join(rates) + "]")

    lines = head + ["", *("    " + line for text in body for line in text.split("\n")),
                    f"    return {name}", ""]
    return "\n".join(lines)


def compile_pass(cascade, plant=None):
    """The pass for a cascade and, for the closed loop, its plant, compiled
    under a filename that names it, such as <blfstep pass n=2 l=12>, so
    tracebacks and profiles point at it; generate gives its text."""
    kind = "pass" if plant is not None else "cascade pass"
    filename = f"<blfstep {kind} n={cascade.n} l={cascade.rbf.l}>"
    namespace = dict(_GLOBALS)
    exec(compile(generate(cascade, plant), filename, "exec"), namespace)
    return namespace["make"](
        cascade.reference, cascade.constraints.state_bounds,
        plant.disturbances if plant is not None else (), cascade.rbf.basis,
        cascade._memo_t, cascade._memo)
