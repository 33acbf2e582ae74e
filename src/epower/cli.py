"""Command-line front end: compute entangling power, emit scan data,
run the verification suites.

Angles are radians unless ``--deg`` is given.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error, 141 (128 + SIGPIPE)
when the reader of stdout closes it early, as ``| head`` does.  The
default seed comes from the EPOWER_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import pi, radians

import numpy as np

from . import verify as verify_mod
from .canonical import CanonicalParams, coefficients_from_xyz, assemble_unitary, schmidt_rank
from .epower2q import (
    e2_derivative,
    e2_derivative_limit_lower,
    e2_derivative_limit_upper,
    entangling_power_c2eqc3,
    example1_line_entropy,
    example1_power,
    example2_power,
    line_profile_values,
)
from .oracle import SearchConfig, brute_force_power
from .qmath import DomainError
from .schmidt2 import PhaseGateSpec, entangling_power_phase_gate, phase_gate_matrix

__all__ = ["main"]

# numpy refuses a float64 array of more entries than this with a ValueError;
# f2 scans n + 2 points
MAX_SCAN_COUNT = np.iinfo(np.intp).max // 8 - 2


def _seed(args) -> int:
    """``--seed``, else EPOWER_SEED, else 0; a nonnegative integer."""
    raw = os.environ.get("EPOWER_SEED", "0") if args.seed is None else args.seed
    try:
        seed = int(raw)
    except ValueError:
        raise DomainError(f"EPOWER_SEED={raw!r} is not an integer") from None
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return seed


def _print_record(rec: dict, as_json: bool):
    """Print one computation, as text or in the stable JSON schema.

    The JSON form carries exactly {command, params, value_ebits, critical,
    method, residuals, seed} so identical inputs and seed produce
    byte-identical output.
    """
    if as_json:
        print(json.dumps(rec, sort_keys=True))
        return
    print(f"value_ebits = {rec['value_ebits']!r}")
    print(f"critical    = {rec['critical']}")
    print(f"method      = {rec['method']}")
    for key, val in rec["residuals"].items():
        print(f"{key} = {val!r}")


def _cmd_compute(args) -> int:
    seed = _seed(args)

    def conv(v):
        try:
            v = float(v)
        except ValueError:
            raise DomainError(f"angle {v!r} is not a number") from None
        return radians(v) if args.deg else v

    residuals: dict = {}

    if args.xyz is not None:
        x, y, z = (conv(v) for v in args.xyz)
        params = {"x": x, "y": y, "z": z}
        if abs(y - z) <= 1e-12:
            result = entangling_power_c2eqc3(x, y)
        else:
            rank = schmidt_rank(coefficients_from_xyz(CanonicalParams(x, y, z)))
            raise DomainError(
                f"gates with y != z and Schmidt rank {rank} are unsupported")
        command = "compute--xyz"
    elif args.example1 is not None:
        x = conv(args.example1)
        y = x
        params = {"x": x}
        result = example1_power(x)
        command = "compute--example1"
    elif args.example2 is not None:
        x = pi / 4
        y = conv(args.example2)
        params = {"y": y}
        result = example2_power(y)
        command = "compute--example2"
    else:
        thetas = tuple(conv(v) for v in args.phases.split(","))
        params = {"thetas": list(thetas)}
        spec = PhaseGateSpec(thetas)
        # two phases are checked by the brute-force oracle below instead
        result = entangling_power_phase_gate(
            spec, cross_check=args.verify and spec.n > 2, seed=seed)
        gate = phase_gate_matrix(spec) if spec.n == 2 else None
        if args.verify and gate is None:
            residuals["oracle_gap"] = result.diagnostics["oracle_gap"]
        command = "compute--phases"
    if args.phases is None:
        gate = assemble_unitary(coefficients_from_xyz(CanonicalParams(x, y, y)))

    if args.verify and gate is not None:
        oracle = brute_force_power(gate, SearchConfig(seed=seed))
        residuals["oracle_gap"] = oracle.value - result.value
        residuals["oracle_value"] = oracle.value

    rec = {"command": command, "params": params, "value_ebits": result.value,
           "critical": result.critical, "method": result.method,
           "residuals": residuals, "seed": seed}
    _print_record(rec, args.json)
    return 0


def _cmd_scan(args) -> int:
    n = args.n if args.mode == "line" else args.grid
    if n > MAX_SCAN_COUNT:
        raise DomainError(f"scan count {n} is more than a numpy array can hold "
                          f"({MAX_SCAN_COUNT} points at most)")
    if args.mode == "line":
        if n < 2:
            raise DomainError("line scan needs at least 2 points")
        c = coefficients_from_xyz(CanonicalParams(args.x, args.y, args.y))
        alphas = np.linspace(0.0, pi / 4, n)
        values = line_profile_values(c, alphas)
        print("alpha,E")
        for a, v in zip(alphas, values):
            print(f"{float(a)!r},{float(v)!r}")
        return 0

    if n < 3:
        raise DomainError("derivative grids need at least 3 points")
    print("y,csq,value")
    if args.mode == "f1":
        ys = np.linspace(-1.0, 1.0, n)
        csqs = np.linspace(0.125, 0.25, n, endpoint=False)
        for csq in csqs:
            for yv in ys:
                if yv <= -1.0 + 1e-15:
                    val = e2_derivative_limit_lower(csq)
                elif yv >= 1.0 - 1e-15:
                    val = e2_derivative_limit_upper(csq)
                else:
                    val = e2_derivative(yv, csq)
                print(f"{float(yv)!r},{float(csq)!r},{float(val)!r}")
        return 0

    # f2: second central difference of the line-profile entropy
    ys = np.linspace(-1.0, 1.0, n + 2)
    h = ys[1] - ys[0]
    csqs = np.linspace(0.0, 0.125, n + 2)[1:-1]
    for csq in csqs:
        e2 = np.array([example1_line_entropy(yv, csq) for yv in ys])
        second = (e2[2:] - 2.0 * e2[1:-1] + e2[:-2]) / (h * h)
        for yv, val in zip(ys[1:-1], second):
            print(f"{float(yv)!r},{float(csq)!r},{float(val)!r}")
    return 0


def _cmd_verify(args) -> int:
    seed = _seed(args)
    results = verify_mod.run_all(seed=seed, samples=args.samples)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = {
            "seed": seed,
            "samples": args.samples,
            "passed": not failed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "findings": r.findings}
                for r in results
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
            for finding in r.findings:
                print(f"  finding: {json.dumps(finding, sort_keys=True)}")
        print(f"{'all checks passed' if not failed else 'FAILURES: ' + ', '.join(r.name for r in failed)}")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epower",
        description="Entangling power of two-qubit and controlled-phase gates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute entangling power")
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--xyz", nargs=3, type=float, metavar=("X", "Y", "Z"),
                       help="chamber angles (requires y = z)")
    group.add_argument("--example1", type=float, metavar="X",
                       help="equal-tail family at angle x")
    group.add_argument("--example2", type=float, metavar="Y",
                       help="x = pi/4 family at angle y")
    group.add_argument("--phases", type=str, metavar="T1,T2,...",
                       help="controlled-phase gate phase list")
    p_compute.add_argument("--verify", action="store_true",
                           help="also run the brute-force oracle and print the gap")
    p_compute.add_argument("--deg", action="store_true",
                           help="interpret input angles as degrees")
    p_compute.add_argument("--seed", type=int, default=None)
    p_compute.add_argument("--json", action="store_true",
                           help="emit the run record as JSON")
    p_compute.set_defaults(func=_cmd_compute)

    p_scan = sub.add_parser("scan", help="emit CSV scan data")
    scan_sub = p_scan.add_subparsers(dest="mode", required=True)
    p_line = scan_sub.add_parser("line", help="line profile alpha -> E")
    p_line.add_argument("--x", type=float, required=True)
    p_line.add_argument("--y", type=float, required=True)
    p_line.add_argument("--n", type=int, default=401)
    p_line.set_defaults(func=_cmd_scan)
    for mode, hint in (("f1", "line-profile derivative grid"),
                       ("f2", "line-profile second-difference grid")):
        p_f = scan_sub.add_parser(mode, help=hint)
        p_f.add_argument("--grid", type=int, default=101)
        p_f.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None,
                          help="scale the per-suite sample counts (default full)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the flush at exit would raise again; send what is left nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
