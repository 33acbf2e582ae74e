"""The four workloads: seeded batches, independent references, output checks.

Every batch is a pure function of the seed.  References come from
``reference.py`` (numpy only) and are computed before the worker starts,
so they sit outside both the timed region and ``setup_s``.  Operation 0 of
each batch is of a fixed kind, because it is also the warm-up operation
behind ``setup_s``.
"""

from __future__ import annotations

import json
from math import pi

import numpy as np

import reference as ref

VALUE_TOL = 1e-9        # closed form vs the two-angle maximum
FORMULA_TOL = 1e-12     # closed form vs a formula of the paper
ORACLE_SLACK = 1e-4     # oracle may fall short of the reference by this much
LINE_TOL = 1e-10        # scan line CSV vs the reference line profile
JSON_KEYS = {"command", "params", "value_ebits", "critical", "method",
             "residuals", "seed"}
SCAN_N = 401            # default n of `epower scan line`

# gate_sweep batch: generic chamber points, the y = 0 dispatch, and the two
# solvable families
SWEEP_COUNTS = {"generic": 64, "rank2": 8, "example1": 12, "example2": 12}
# phase_gates batch: n -> (clustered, spread).  Sorted by latency, the
# classes are spread (~0.3 ms, 8 lists), clustered n = 4 (~1.2 ms, 9),
# n = 5 (~25 ms, 3), n = 6 (~0.2 s, 2), n = 7 (~1.9 s, 1): the median
# (12th of 23) sits in the middle of the clustered n = 4 class.
PHASE_COUNTS = {4: (9, 2), 5: (3, 2), 6: (2, 2), 7: (1, 2)}
ARC_MARGIN = 0.2        # clustered arcs <= pi - margin; spread gaps <= pi - margin


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _chamber_point(rng):
    x = float(rng.uniform(0.05, pi / 4 - 0.005))
    return x, float(rng.uniform(0.02, x))


def _clustered(rng, n):
    arc = rng.uniform(0.5, pi - ARC_MARGIN)
    start = rng.uniform(0.0, 2 * pi)
    inner = rng.uniform(0.0, arc, n - 2)
    return [float((start + t) % (2 * pi)) for t in (0.0, arc, *inner)]


def _spread(rng, n):
    while True:
        th = rng.uniform(0.0, 2 * pi, n)
        if ref.largest_circular_gap(th) <= pi - ARC_MARGIN:
            return [float(t) for t in th]


def _shuffled_tail(rng, first, rest):
    order = rng.permutation(len(rest))
    return [first] + [rest[i] for i in order]


# ---------------------------------------------------------------- gate_sweep

def gate_sweep_ops(seed):
    rng = _rng(seed, 1)
    ops = []
    for _ in range(SWEEP_COUNTS["generic"]):
        x, y = _chamber_point(rng)
        ops.append({"x": x, "y": y, "family": None})
    for _ in range(SWEEP_COUNTS["rank2"]):
        ops.append({"x": float(rng.uniform(0.05, pi / 4)), "y": 0.0, "family": None})
    for _ in range(SWEEP_COUNTS["example1"]):
        x = float(rng.uniform(0.02, pi / 4))
        ops.append({"x": x, "y": x, "family": "example1"})
    for _ in range(SWEEP_COUNTS["example2"]):
        ops.append({"x": pi / 4, "y": float(rng.uniform(0.02, pi / 4 - 0.02)),
                    "family": "example2"})
    return _shuffled_tail(rng, ops[0], ops[1:])


def gate_sweep_refs(ops):
    refs = []
    for op in ops:
        family = None
        if op["family"] == "example1":
            family = ref.example1_power(op["x"])
        elif op["family"] == "example2":
            family = ref.example2_power(op["y"])
        refs.append({"chamber": ref.chamber_power(op["x"], op["y"]), "family": family})
    return refs


def gate_sweep_check(op, r, out):
    value, family = out
    problems = []
    if abs(value - r["chamber"]) > VALUE_TOL:
        problems.append(f"c2eqc3 {value!r} vs two-angle {r['chamber']!r}")
    if r["family"] is not None:
        if abs(family - r["family"]) > FORMULA_TOL:
            problems.append(f"{op['family']} {family!r} vs formula {r['family']!r}")
        if abs(family - r["chamber"]) > VALUE_TOL:
            problems.append(f"{op['family']} {family!r} vs two-angle {r['chamber']!r}")
    return problems


# --------------------------------------------------------------- phase_gates

def phase_gates_ops(seed):
    rng = _rng(seed, 2)
    ops = []
    for n, (n_clustered, n_spread) in PHASE_COUNTS.items():
        ops += [{"thetas": _clustered(rng, n)} for _ in range(n_clustered)]
        ops += [{"thetas": _spread(rng, n)} for _ in range(n_spread)]
    return _shuffled_tail(rng, ops[0], ops[1:])   # op 0: clustered, n = 4


def phase_gates_refs(ops):
    return [ref.phase_gate_power(op["thetas"]) for op in ops]


def phase_gates_check(op, r, out):
    if abs(out[0] - r) > FORMULA_TOL:
        return [f"phase gate {out[0]!r} vs gap formula {r!r}"]
    return []


# ------------------------------------------------------------ oracle_certify

ORACLE_PANEL = {"swap": (pi / 4, pi / 4), "cnot": (pi / 4, 0.0),
                "sqrt_swap": (pi / 8, pi / 8)}
ORACLE_RANDOM = 2     # 10 gates: one pass outlasts the run length


def oracle_certify_ops(seed):
    rng = _rng(seed, 3)
    points = list(ORACLE_PANEL.items())
    points += [(f"random{i}", _chamber_point(rng)) for i in range(ORACLE_RANDOM)]
    ops = []
    for name, (x, y) in points:
        gate = ref.canonical_gate(x, y, y)
        sandwiched = ref.random_local_unitary(rng) @ gate @ ref.random_local_unitary(rng)
        for label, g in ((name, gate), (name + "~local", sandwiched)):
            ops.append({"label": label, "x": x, "y": y,
                        "re": g.real.tolist(), "im": g.imag.tolist()})
    return ops


def oracle_certify_refs(ops):
    cache = {}
    for op in ops:
        key = (op["x"], op["y"])
        if key not in cache:
            cache[key] = ref.chamber_power(*key)
    return [cache[(op["x"], op["y"])] for op in ops]


def oracle_certify_check(op, r, out):
    value = out[0]
    if value > r + VALUE_TOL:
        return [f"{op['label']}: oracle {value!r} exceeds reference {r!r}"]
    if value < r - ORACLE_SLACK:
        return [f"{op['label']}: oracle {value!r} below reference {r!r} - {ORACLE_SLACK}"]
    return []


# --------------------------------------------------------------- cli_oneshot

def cli_oneshot_ops(seed):
    rng = _rng(seed, 4)
    x, y = _chamber_point(rng)
    x2, y2 = _chamber_point(rng)
    xs, ys = _chamber_point(rng)
    n = int(rng.integers(2, 4))
    thetas = [float(t) for t in rng.uniform(0.0, 2 * pi, n)]
    e1 = float(rng.uniform(0.02, pi / 4))
    e2 = float(rng.uniform(0.02, pi / 4 - 0.02))
    r = repr
    return [
        {"kind": "xyz", "x": x, "y": y,
         "argv": ["compute", "--xyz", r(x), r(y), r(y), "--json"]},
        {"kind": "xyz", "x": x2, "y": y2, "argv": ["compute", "--xyz", r(x2), r(y2), r(y2)]},
        {"kind": "example1", "x": e1, "argv": ["compute", "--example1", r(e1)]},
        {"kind": "example2", "y": e2, "argv": ["compute", "--example2", r(e2), "--json"]},
        {"kind": "phases", "thetas": thetas,
         "argv": ["compute", "--phases", ",".join(r(t) for t in thetas), "--json"]},
        {"kind": "scan", "x": xs, "y": ys,
         "argv": ["scan", "line", "--x", r(xs), "--y", r(ys)]},
    ]


def cli_oneshot_refs(ops):
    refs = []
    for op in ops:
        kind = op["kind"]
        if kind == "xyz":
            refs.append({"value": ref.chamber_power(op["x"], op["y"]), "tol": VALUE_TOL})
        elif kind == "example1":
            refs.append({"value": ref.example1_power(op["x"]), "tol": FORMULA_TOL,
                         "chamber": ref.chamber_power(op["x"], op["x"])})
        elif kind == "example2":
            refs.append({"value": ref.example2_power(op["y"]), "tol": FORMULA_TOL,
                         "chamber": ref.chamber_power(pi / 4, op["y"])})
        elif kind == "phases":
            refs.append({"value": ref.phase_gate_power(op["thetas"]), "tol": FORMULA_TOL})
        else:
            alphas = np.linspace(0.0, pi / 4, SCAN_N)
            refs.append({"alphas": alphas,
                         "values": ref.line_entropies(op["x"], op["y"], alphas)})
    return refs


def _cli_value(op, stdout):
    if "--json" in op["argv"]:
        record = json.loads(stdout)
        if set(record) != JSON_KEYS:
            raise ValueError(f"JSON keys {sorted(record)}")
        return record["value_ebits"]
    first = stdout.splitlines()[0]
    if not first.startswith("value_ebits = "):
        raise ValueError(f"unexpected first line {first!r}")
    return float(first[len("value_ebits = "):])


def cli_oneshot_check(op, r, out):
    code, stdout = out[0], out[1]
    if code != 0:
        return [f"{op['argv']}: exit code {code}"]
    if len(out) > 2 and out[2:] != [0, stdout]:
        return [f"{op['argv']}: in-process main differs from the CLI process"]
    if op["kind"] == "scan":
        lines = stdout.splitlines()
        if lines[0] != "alpha,E" or len(lines) != SCAN_N + 1:
            return [f"scan line: header {lines[0]!r}, {len(lines) - 1} rows"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if np.abs(rows[:, 0] - r["alphas"]).max() > 1e-15:
            return ["scan line: alpha grid differs from linspace(0, pi/4, 401)"]
        gap = float(np.abs(rows[:, 1] - r["values"]).max())
        return [f"scan line: E off by {gap:.3e}"] if gap > LINE_TOL else []
    try:
        value = _cli_value(op, stdout)
    except (ValueError, IndexError) as exc:
        return [f"{op['argv']}: unreadable output ({exc})"]
    problems = []
    if abs(value - r["value"]) > r["tol"]:
        problems.append(f"{op['argv']}: {value!r} vs reference {r['value']!r}")
    if "chamber" in r and abs(value - r["chamber"]) > VALUE_TOL:
        problems.append(f"{op['argv']}: {value!r} vs two-angle {r['chamber']!r}")
    return problems


WORKLOADS = {
    "cli_oneshot": (cli_oneshot_ops, cli_oneshot_refs, cli_oneshot_check),
    "gate_sweep": (gate_sweep_ops, gate_sweep_refs, gate_sweep_check),
    "phase_gates": (phase_gates_ops, phase_gates_refs, phase_gates_check),
    "oracle_certify": (oracle_certify_ops, oracle_certify_refs, oracle_certify_check),
}


def check_outputs(workload, ops, refs, passes):
    """(attempted, failed, problems) over every pass of the batch.

    An operation that raised or exited non-zero counts as failed; every
    other output is checked against its reference.  On cli_oneshot the
    stdout of each command must also be byte-identical in every pass.
    """
    check = WORKLOADS[workload][2]
    attempted = failed = 0
    problems = []
    for outs in passes:
        for i, (op, r, out) in enumerate(zip(ops, refs, outs)):
            attempted += 1
            if isinstance(out, dict) or (workload == "cli_oneshot" and out[0] != 0):
                failed += 1
                continue
            problems += check(op, r, out)
            if workload == "cli_oneshot" and out[1] != passes[0][i][1]:
                problems.append(f"{op['argv']}: stdout differs between passes")
    return attempted, failed, problems
