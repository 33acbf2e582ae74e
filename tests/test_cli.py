import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import epower
import epower.epower2q as epower2q
import epower.verify as verify_mod
from epower.cli import main

SWAP_ANGLE = "0.7853981633974483"

# stdout of `compute --phases P --json` with the default seed, recorded
# before the n > 3 solver became the largest-gap closed form (n = 2: before
# two phases went through that solver too)
PINNED_PHASE_OUTPUT = {
    "0,3.141592653589793":
        '{"command": "compute--phases", "critical": "pair (0, 1) at weights '
        '(1/2, 1/2)", "method": "closed_form", "params": {"thetas": [0.0, '
        '3.141592653589793]}, "residuals": {}, "seed": 0, "value_ebits": 1.0}\n',
    "0,1.3":
        '{"command": "compute--phases", "critical": "pair (0, 1) at weights '
        '(1/2, 1/2)", "method": "closed_form", "params": {"thetas": [0.0, 1.3]}, '
        '"residuals": {}, "seed": 0, "value_ebits": 0.4751720719032304}\n',
    "1,1":
        '{"command": "compute--phases", "critical": "pair (0, 1) at weights '
        '(1/2, 1/2)", "method": "closed_form", "params": {"thetas": [1.0, 1.0]}, '
        '"residuals": {}, "seed": 0, "value_ebits": 0.0}\n',
    "0,1.5,3.0,4.5":
        '{"command": "compute--phases", "critical": "stationary simplex point '
        '(full ebit)", "method": "closed_form", "params": {"thetas": [0.0, 1.5, '
        '3.0, 4.5]}, "residuals": {}, "seed": 0, "value_ebits": 1.0}\n',
    "0.2,1.4,0.7,2.9,0.1":
        '{"command": "compute--phases", "critical": "pair (3, 4) at weights '
        '(1/2, 1/2)", "method": "closed_form", "params": {"thetas": [0.2, 1.4, '
        '0.7, 2.9, 0.1]}, "residuals": {}, "seed": 0, "value_ebits": '
        '0.9790596014837318}\n',
    "0,0.5,1.0,3.141592653589793":
        '{"command": "compute--phases", "critical": "stationary simplex point '
        '(full ebit)", "method": "closed_form", "params": {"thetas": [0.0, 0.5, '
        '1.0, 3.141592653589793]}, "residuals": {}, "seed": 0, "value_ebits": '
        '1.0}\n',
}

# stdout of `compute ARGS` for the chamber-angle forms, recorded before the
# c2 = c3 boundary candidates were factored out of the solver
PINNED_CHAMBER_OUTPUT = {
    ("--xyz", SWAP_ANGLE, SWAP_ANGLE, SWAP_ANGLE, "--json"):
        '{"command": "compute--xyz", "critical": "maximally entangled '
        '(alpha=pi/4)", "method": "line_scan", "params": {"x": 0.7853981633974483, '
        '"y": 0.7853981633974483, "z": 0.7853981633974483}, "residuals": {}, '
        '"seed": 0, "value_ebits": 2.0}\n',
    ("--xyz", "0.6", "0.3", "0.3"):
        'value_ebits = 1.5544370141056678\ncritical    = maximally entangled '
        '(alpha=pi/4)\nmethod      = line_scan\n',
    ("--xyz", "0.05", "0.05", "0.05", "--json"):
        '{"command": "compute--xyz", "critical": "product (alpha=0 line edge)", '
        '"method": "line_scan", "params": {"x": 0.05, "y": 0.05, "z": 0.05}, '
        '"residuals": {}, "seed": 0, "value_ebits": 0.08057237093705515}\n',
    ("--xyz", SWAP_ANGLE, "0", "0", "--json"):
        '{"command": "compute--xyz", "critical": "pair (0, 1) at weights '
        '(1/2, 1/2)", "method": "rank2_dispatch", "params": {"x": '
        '0.7853981633974483, "y": 0.0, "z": 0.0}, "residuals": {}, "seed": 0, '
        '"value_ebits": 1.0}\n',
    # x + y = pi/4: the cos(2x+2y) branch is decided by rounding
    ("--xyz", "0.5", "0.2853981633974483", "0.2853981633974483", "--json"):
        '{"command": "compute--xyz", "critical": "maximally entangled '
        '(alpha=pi/4)", "method": "line_scan", "params": {"x": 0.5, "y": '
        '0.2853981633974483, "z": 0.2853981633974483}, "residuals": {}, "seed": 0, '
        '"value_ebits": 1.4157009937367646}\n',
    ("--example1", "0.05"):
        'value_ebits = 0.08057237093705545\ncritical    = product (alpha=0 line '
        'edge)\nmethod      = closed_form\n',
    ("--example1", "0.5"):
        'value_ebits = 1.8389178506960986\ncritical    = maximally entangled '
        '(alpha=pi/4)\nmethod      = closed_form\n',
    ("--example2", "0.3", "--json"):
        '{"command": "compute--example2", "critical": "maximally entangled '
        '(alpha=beta=pi/4)", "method": "closed_form", "params": {"y": 0.3}, '
        '"residuals": {}, "seed": 0, "value_ebits": 1.632897563747085}\n',
}

# stdout recorded before the numeric kernels were merged
PINNED_LINE_SCAN = (
    "alpha,E\n0.0,0.9624363026310064\n0.19634954084936207,1.013144098148465\n"
    "0.39269908169872414,1.2127516957971425\n0.5890486225480862,1.4508204036241703\n"
    "0.7853981633974483,1.5544370141056678\n")
PINNED_VERIFY_JSON = (
    '{"checks": [{"detail": "max residual 3.331e-16 over 10 strict chamber points '
    '(tol 1e-12)", "findings": [], "name": "coefficient identities", "passed": true}, '
    '{"detail": "max closed-form vs eigensolver deviation 3.331e-16 over 10 samples '
    '(tol 1e-10)", "findings": [], "name": "spectrum equivalence", "passed": true}, '
    '{"detail": "max |analytic - central difference| 5.079e-10 over 2 interior points '
    '(tol 1e-6)", "findings": [], "name": "analytic derivatives", "passed": true}, '
    '{"detail": "max 2-D surface excess over the alpha+beta=pi/2 line 0.000e+00 over 1 '
    'gates (tol 1e-6)", "findings": [], "name": "line necessity", "passed": true}, '
    '{"detail": "max numeric rank 3 over 2 specs up to n=12 (bound 3)", "findings": [], '
    '"name": "phase-matrix rank bound", "passed": true}, {"detail": "max |closed - '
    'oracle| 0.000e+00 over 5 triples (tol 1e-6)", "findings": [], "name": "three-phase '
    'closed form vs simplex oracle", "passed": true}, {"detail": "max interior excess '
    '0.000e+00 over 1 gates; 0 finding(s) above 1e-9 (reported, not failed)", '
    '"findings": [], "name": "edge-maximum conjecture harness", "passed": true}], '
    '"passed": true, "samples": 10, "seed": 0}\n')

# stdout of `compute --phases P --verify` in text form and in `--json` form
# with seed 0, recorded while the solver still ran the simplex oracle itself;
# both seeds print the same digits
PINNED_VERIFY_PHASES = {
    # n = 3, pair
    "0,1,2": (
        'value_ebits = 0.7777477169623613\ncritical    = pair (0, 2) at weights '
        '(1/2, 1/2)\nmethod      = closed_form\noracle_gap = 0.0\n',
        '{"command": "compute--phases", "critical": "pair (0, 2) at weights (1/2, '
        '1/2)", "method": "closed_form", "params": {"thetas": [0.0, 1.0, 2.0]}, '
        '"residuals": {"oracle_gap": 0.0}, "seed": 0, "value_ebits": '
        '0.7777477169623613}\n'),
    # n = 3, interior
    "0,2.0943951023931953,4.1887902047863905": (
        'value_ebits = 1.0\ncritical    = interior stationary weights\nmethod      = '
        'closed_form\noracle_gap = -1.1102230246251565e-16\n',
        '{"command": "compute--phases", "critical": "interior stationary weights", '
        '"method": "closed_form", "params": {"thetas": [0.0, 2.0943951023931953, '
        '4.1887902047863905]}, "residuals": {"oracle_gap": -1.1102230246251565e-16}, '
        '"seed": 0, "value_ebits": 1.0}\n'),
    # certificate
    "0,1.5707963267948966,3.141592653589793,4.71238898038469": (
        'value_ebits = 1.0\ncritical    = stationary simplex point (full ebit)\n'
        'method      = closed_form\noracle_gap = 0.0\n',
        '{"command": "compute--phases", "critical": "stationary simplex point (full '
        'ebit)", "method": "closed_form", "params": {"thetas": [0.0, '
        '1.5707963267948966, 3.141592653589793, 4.71238898038469]}, "residuals": '
        '{"oracle_gap": 0.0}, "seed": 0, "value_ebits": 1.0}\n'),
    # n = 5, pair; the oracle adds seeded restarts
    "0,0.3,0.9,1.4,2.0": (
        'value_ebits = 0.7777477169623613\ncritical    = pair (0, 4) at weights '
        '(1/2, 1/2)\nmethod      = closed_form\noracle_gap = 0.0\n',
        '{"command": "compute--phases", "critical": "pair (0, 4) at weights (1/2, '
        '1/2)", "method": "closed_form", "params": {"thetas": [0.0, 0.3, 0.9, 1.4, '
        '2.0]}, "residuals": {"oracle_gap": 0.0}, "seed": 0, "value_ebits": '
        '0.7777477169623613}\n'),
    "0,0.7,1.4,2.1,2.8,3.5,4.2,4.9,5.6": (
        'value_ebits = 1.0\ncritical    = stationary simplex point (full ebit)\n'
        'method      = closed_form\noracle_gap = -1.1102230246251565e-16\n',
        '{"command": "compute--phases", "critical": "stationary simplex point (full '
        'ebit)", "method": "closed_form", "params": {"thetas": [0.0, 0.7, 1.4, 2.1, '
        '2.8, 3.5, 4.2, 4.9, 5.6]}, "residuals": {"oracle_gap": '
        '-1.1102230246251565e-16}, "seed": 0, "value_ebits": 1.0}\n'),
    # n = 2 goes to the brute-force oracle
    "0,1.3": (
        'value_ebits = 0.4751720719032304\ncritical    = pair (0, 1) at weights '
        '(1/2, 1/2)\nmethod      = closed_form\noracle_gap = 8.992806499463768e-15\n'
        'oracle_value = 0.4751720719032394\n',
        '{"command": "compute--phases", "critical": "pair (0, 1) at weights (1/2, '
        '1/2)", "method": "closed_form", "params": {"thetas": [0.0, 1.3]}, '
        '"residuals": {"oracle_gap": 8.992806499463768e-15, "oracle_value": '
        '0.4751720719032394}, "seed": 0, "value_ebits": 0.4751720719032304}\n'),
}

# SHA-256 of the stdout of `scan MODE --grid 31`
PINNED_SCAN_SHA256 = {
    "f1": "e35dfec7d7982aeec3d6adcc6b5aec37d16c4b06b87334a5b42f571f43c6b37c",
    "f2": "ce171c6a41e283ca294ed6b09539d351d471df4e04c7aa6cf094e4fa1a1371a6",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_swap(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--xyz",
                               SWAP_ANGLE, SWAP_ANGLE, SWAP_ANGLE)
        assert code == 0
        assert "value_ebits = 2.0" in out

    def test_phase_gate(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--phases",
                               "0,3.141592653589793", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["value_ebits"] == 1.0
        assert rec["method"] == "closed_form"

    def test_json_schema_fields(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--example2", "0.3", "--json")
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"command", "params", "value_ebits", "critical",
                            "method", "residuals", "seed"}

    def test_byte_identical_reruns(self, capsys):
        args = ("compute", "--example1", "0.37", "--json", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_value_roundtrips_losslessly(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "--example1", "0.37", "--json")
        rec = json.loads(out)
        assert rec["value_ebits"] == epower2q.example1_power(0.37).value

    def test_degrees_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--phases", "0,180",
                               "--deg", "--json")
        assert code == 0
        assert json.loads(out)["value_ebits"] == 1.0

    def test_unsupported_gate_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--xyz", "0.3", "0.2", "0.1")
        assert code == 2
        assert "unsupported" in err

    def test_chamber_violation_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--xyz", "0.2", "0.3", "0.3")
        assert code == 2
        assert "chamber" in err

    def test_bad_usage_exits_two(self, capsys):
        assert run_cli(capsys, "compute")[0] == 2

    def test_verify_flag_reports_small_gap(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--example1", "0.05",
                               "--verify", "--json")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["residuals"]["oracle_gap"]) <= 1e-4

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("EPOWER_SEED", "42")
        _, out, _ = run_cli(capsys, "compute", "--example2", "0.3", "--json")
        assert json.loads(out)["seed"] == 42

    @pytest.mark.parametrize("argv", [
        ("compute", "--xyz", "0.6", "0.3", "0.3", "--verify", "--json"),
        ("compute", "--xyz", "0.6", "0.3", "0.3", "--json"),
        ("verify", "--samples", "10", "--json"),
    ])
    def test_seed_beyond_float_range_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", str(10**400))
        assert code == 0, err
        assert json.loads(out)["seed"] == 10**400

    def test_bad_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("EPOWER_SEED", "abc")
        code, out, err = run_cli(capsys, "compute", "--phases", "0,3.14159", "--json")
        assert code == 2
        assert out == ""
        assert "EPOWER_SEED" in err

    @pytest.mark.parametrize("phases", ["0,0.3,2.0,4.5,nan", "0,nan"])
    def test_non_finite_phases_exit_two(self, capsys, phases):
        code, out, err = run_cli(capsys, "compute", "--phases", phases, "--json")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("phases", ["1e308,-1e308", "1e308,-1e308,0", "1e308,-1e308,0,1",
                                        "-1e308,1e308"])
    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_overflowing_phase_difference_exits_two(self, capsys, phases, verify):
        code, out, err = run_cli(capsys, "compute", "--phases", phases, "--json", *verify)
        assert code == 2
        assert out == ""
        assert "phase differences must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, first_line", [
        (("-1,2",), "value_ebits = 0.9963875399506483"),
        (("-0.5,1,2", "--json"), '{"command": "compute--phases", "critical": "pair (0, 2) '
         'at weights (1/2, 1/2)", "method": "closed_form", "params": {"thetas": [-0.5, '
         '1.0, 2.0]}, "residuals": {}, "seed": 0, "value_ebits": 0.9270392293984567}'),
    ])
    def test_phase_list_may_start_negative(self, capsys, monkeypatch, argv, first_line):
        monkeypatch.delenv("EPOWER_SEED", raising=False)
        code, out, err = run_cli(capsys, "compute", "--phases", *argv)
        assert code == 0, err
        assert out.splitlines()[0] == first_line
        assert out == run_cli(capsys, "compute", f"--phases={argv[0]}", *argv[1:])[1]

    @pytest.mark.parametrize("argv", [("--phase", "-1,2"), ("--ph", "-0.5,1,2", "--json"),
                                      ("--p", "-1,2")])
    def test_abbreviated_phases_flag_takes_negative_list(self, capsys, argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 0, err
        assert out == run_cli(capsys, "compute", f"--phases={argv[1]}", *argv[2:])[1]

    def test_double_dash_is_not_joined(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--", "-1,2")
        assert code == 2
        assert out == ""
        assert "one of the arguments --xyz --example1 --example2 --phases is required" in err

    def test_phases_without_value_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--phases", "--json")
        assert code == 2
        assert out == ""
        assert "argument --phases: expected one argument" in err

    def test_near_antipodal_triple(self, capsys):
        # the stationary weights sum to 1 - 1.2e-10, within the 1e-9 tolerance
        code, out, _ = run_cli(
            capsys, "compute", "--phases",
            "8.464810659186385,-0.9599673015830934,-7.2431488711143865", "--json")
        assert code == 0
        assert json.loads(out)["value_ebits"] == 1.0

    @pytest.mark.parametrize("phases", ["0,", "0,abc"])
    def test_malformed_phases_exit_two(self, capsys, phases):
        code, out, err = run_cli(capsys, "compute", "--phases", phases)
        assert code == 2
        assert out == ""
        assert "not a number" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "--xyz", "0.6", "0.3", "0.3", "--verify", "--seed", "-1"),
        ("compute", "--phases", "0,1", "--seed", "-1"),
        ("verify", "--seed", "-1"),
    ])
    def test_negative_seed_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    def test_negative_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("EPOWER_SEED", "-2")
        code, out, err = run_cli(capsys, "verify")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("phases", sorted(PINNED_PHASE_OUTPUT))
    def test_phase_gate_output_pinned(self, capsys, monkeypatch, phases):
        monkeypatch.delenv("EPOWER_SEED", raising=False)
        code, out, _ = run_cli(capsys, "compute", "--phases", phases, "--json")
        assert code == 0
        assert out == PINNED_PHASE_OUTPUT[phases]

    @pytest.mark.parametrize("args", list(PINNED_CHAMBER_OUTPUT),
                             ids=" ".join)
    def test_chamber_output_pinned(self, capsys, monkeypatch, args):
        monkeypatch.delenv("EPOWER_SEED", raising=False)
        code, out, _ = run_cli(capsys, "compute", *args)
        assert code == 0
        assert out == PINNED_CHAMBER_OUTPUT[args]

    @pytest.mark.parametrize("phases, keys", [
        ("0,1.3", {"oracle_gap", "oracle_value"}),
        ("0,1,2", {"oracle_gap"}),
    ])
    def test_verify_residual_keys(self, capsys, phases, keys):
        # two phases are checked by the brute-force oracle, more by the
        # simplex oracle; the oracle digits themselves are not pinned
        code, out, _ = run_cli(capsys, "compute", "--phases", phases,
                               "--verify", "--json")
        assert code == 0
        assert set(json.loads(out)["residuals"]) == keys

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("phases", list(PINNED_VERIFY_PHASES))
    def test_verify_output_pinned(self, capsys, phases, seed, fmt):
        text, as_json = PINNED_VERIFY_PHASES[phases]
        argv = ["compute", "--phases", phases, "--verify", "--seed", str(seed)]
        if fmt == "json":
            argv.append("--json")
            expected = as_json.replace('"seed": 0,', f'"seed": {seed},')
        else:
            expected = text
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == expected


class TestScan:
    def test_line_row_count_and_max(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "line", "--x", "0.6",
                               "--y", "0.3", "--n", "401")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,E"
        assert len(lines) == 402
        values = [float(row.split(",")[1]) for row in lines[1:]]
        result = epower2q.entangling_power_c2eqc3(0.6, 0.3)
        assert max(values) == pytest.approx(result.value, abs=1e-6)

    def test_line_csv_deterministic(self, capsys):
        args = ("scan", "line", "--x", "0.5", "--y", "0.2", "--n", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_f1_nonnegative(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "f1", "--grid", "31")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "y,csq,value"
        vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert len(vals) == 31 * 31
        assert vals.min() >= -1e-9

    def test_f2_nonnegative(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "f2", "--grid", "31")
        assert code == 0
        rows = out.strip().splitlines()
        vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert len(vals) == 31 * 31
        assert vals.min() >= -1e-9

    @pytest.mark.parametrize("mode", sorted(PINNED_SCAN_SHA256))
    def test_grid_output_digest(self, capsys, mode):
        code, out, _ = run_cli(capsys, "scan", mode, "--grid", "31")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_SHA256[mode]

    def test_line_output_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "line", "--x", "0.6", "--y", "0.3",
                               "--n", "5")
        assert code == 0
        assert out == PINNED_LINE_SCAN

    def test_bad_range_exits_two(self, capsys):
        assert run_cli(capsys, "scan", "line", "--x", "0.6", "--y", "0.3",
                       "--n", "1")[0] == 2

    # 10**20 is past what numpy will try to allocate; never test a count
    # below that, which would really allocate
    @pytest.mark.parametrize("argv", [("line", "--x", "0.6", "--y", "0.3", "--n"),
                                      ("f1", "--grid"), ("f2", "--grid")])
    def test_oversized_count_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "scan", *argv, str(10**20))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: scan count {10**20} is more than")

    def test_closed_stdout_exits_141_without_traceback(self):
        # the output (about 8 MB) outgrows the pipe, so a write meets the
        # closed reader, as under `| head -c 50`
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(epower.__file__))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "epower.cli", "scan", "line", "--x", "0.6", "--y", "0.3",
             "--n", "200000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(50).startswith(b"alpha,E\n")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert b"Traceback" not in stderr


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "--samples", "10", "--seed", "7", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["passed"]

    def test_json_output_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "0",
                               "--json")
        assert code == 0
        assert out == PINNED_VERIFY_JSON

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_two(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--samples", samples, "--json")
        assert code == 2
        assert out == ""
        assert "samples" in err

    def test_injected_sign_bug_fails_spectrum_check(self, capsys, monkeypatch):
        # flipping the sign of the second block trace must be caught by the
        # closed-form vs eigensolver comparison
        original = epower2q._constants

        def broken(c):
            b, a2, k, k2, l1, l2 = original(c)
            return b, a2, k, -k2, l1, l2

        monkeypatch.setattr(epower2q, "_constants", broken)
        results = verify_mod.run_all(seed=7, samples=10)
        failed = [r.name for r in results if not r.passed]
        assert "spectrum equivalence" in failed

    def test_derivative_suite_fails_when_derivatives_always_raise(self, monkeypatch):
        # only DomainError marks a point as skipped; any other exception
        # must end the suite instead of redrawing points forever
        def broken(c, alpha, beta):
            raise RuntimeError("injected")

        monkeypatch.setattr(epower2q, "partial_derivatives", broken)
        results = verify_mod.run_all(seed=7, samples=10)
        failed = {r.name: r.detail for r in results if not r.passed}
        assert list(failed) == ["analytic derivatives"]
        assert "RuntimeError" in failed["analytic derivatives"]

    def test_injected_bug_cli_exit_code(self, capsys, monkeypatch):
        original = epower2q._constants

        def broken(c):
            b, a2, k, k2, l1, l2 = original(c)
            return b, a2, k, -k2, l1, l2

        monkeypatch.setattr(epower2q, "_constants", broken)
        code, out, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "7")
        assert code == 1
        assert "spectrum equivalence" in out
