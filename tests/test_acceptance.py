"""Acceptance criteria, one test per criterion, each printing a
[PASS]/[FAIL] line (visible with ``pytest -s tests/test_acceptance.py``).
"""

import json
import time
from math import pi

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import log as mlog, sqrt as msqrt

import epower.verify as verify_mod
from epower.canonical import (
    CanonicalParams,
    assemble_unitary,
    coefficients_from_xyz,
    schmidt_strength,
    verify_identities,
)
from epower.epower2q import (
    conjecture_gap,
    e2_derivative_limit_lower,
    e2_derivative_limit_upper,
    entanglement_at,
    entanglement_grid,
    entangling_power_c2eqc3,
    example1_power,
    example1_threshold,
    example2_power,
    line_profile_values,
    partial_derivatives,
    reduced_density_closed_form,
    spectrum,
)
from epower.oracle import SearchConfig, brute_force_power
from epower.qmath import shannon_entropy
from epower.schmidt2 import (
    PhaseGateSpec,
    SimplexWeights,
    entangling_power_phase_gate,
    m_matrix,
    n3_closed_form,
    rank_bound_check,
    rank_one_parts,
    simplex_oracle,
    y_value,
)

from conftest import random_chamber, random_unitary

SEED = 321
LIGHT = SearchConfig(grid_points_per_axis=9, refinement_iterations=150,
                     multi_starts=6, seed=2)


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def gate(x, y, z=None):
    return coefficients_from_xyz(CanonicalParams(x, y, y if z is None else z))


def gate_matrix(x, y, z=None):
    return assemble_unitary(gate(x, y, z))


def test_criterion_01_swap():
    t0 = time.perf_counter()
    closed = entangling_power_c2eqc3(pi / 4, pi / 4)
    oracle = brute_force_power(gate_matrix(pi / 4, pi / 4), SearchConfig(seed=SEED))
    elapsed = time.perf_counter() - t0
    ok = (abs(closed.value - 2.0) <= 1e-9
          and oracle.value >= 2.0 - 1e-6
          and elapsed < 15.0)
    report(1, ok, f"closed={closed.value!r} oracle={oracle.value!r} "
                  f"elapsed={elapsed:.2f}s")


def test_criterion_02_cnot_equivalent():
    closed = entangling_power_phase_gate(PhaseGateSpec((0.0, pi)))
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    oracle = brute_force_power(cz, SearchConfig(seed=SEED))
    ok = abs(closed.value - 1.0) <= 1e-12 and oracle.value >= 1.0 - 1e-6
    report(2, ok, f"phase-gate value={closed.value!r} oracle={oracle.value!r}")


def test_criterion_03_equal_tail_branches():
    x0 = example1_threshold()
    ok = abs(x0 - 0.1018) <= 5e-4
    details = [f"x0={x0:.6f}"]
    for x in (0.05, 0.08):
        val = example1_power(x).value
        formula = shannon_entropy([np.cos(2 * x) ** 2, np.sin(2 * x) ** 2])
        scan = entangling_power_c2eqc3(x, x).value
        oracle = brute_force_power(gate_matrix(x, x, x),
                                   SearchConfig(seed=SEED)).value
        ok &= (abs(val - formula) <= 1e-12 and abs(val - scan) <= 1e-9
               and abs(val - oracle) <= 1e-4)
        details.append(f"x={x}: val={val:.9f} scan_gap={val - scan:.1e} "
                       f"oracle_gap={val - oracle:.1e}")
    for x in (0.15, 0.5):
        val = example1_power(x).value
        csq = np.sin(x) ** 2 * np.cos(x) ** 2
        formula = shannon_entropy([1 - 3 * csq, csq, csq, csq])
        scan = entangling_power_c2eqc3(x, x).value
        oracle = brute_force_power(gate_matrix(x, x, x),
                                   SearchConfig(seed=SEED)).value
        ok &= (abs(val - formula) <= 1e-12 and abs(val - scan) <= 1e-9
               and abs(val - oracle) <= 1e-4)
        details.append(f"x={x}: val={val:.9f} scan_gap={val - scan:.1e} "
                       f"oracle_gap={val - oracle:.1e}")
    report(3, ok, "; ".join(details))


def test_criterion_04_balanced_family():
    ok = True
    details = []
    for y in (0.2, pi / 8, 0.7):
        closed = example2_power(y)
        scan = entangling_power_c2eqc3(pi / 4, y)
        oracle = brute_force_power(gate_matrix(pi / 4, y),
                                   SearchConfig(seed=SEED)).value
        argmax = scan.diagnostics["line_argmax"]
        ok &= (abs(closed.value - scan.value) <= 1e-9
               and abs(closed.value - oracle) <= 1e-4
               and closed.value >= 1.0 - 1e-12
               and abs(argmax - pi / 4) <= 1e-4)
        details.append(f"y={y:.4f}: val={closed.value:.9f} "
                       f"oracle_gap={closed.value - oracle:.1e} "
                       f"argmax={argmax:.6f}")
    report(4, ok, "; ".join(details))


def test_criterion_05_octant_lower_bound():
    val = example1_power(pi / 8).value
    ok = abs(val - 1.55) <= 0.01 and val > 1.0
    report(5, ok, f"balanced-input value at x=pi/8 is {val:.6f} (targets 1.55 +- 0.01)")


def test_criterion_06_identity_suite():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_violation = 0.0
    for _ in range(1000):
        params = CanonicalParams(*random_chamber(rng, strict=True))
        rep = verify_identities(params)
        worst = max(worst, max(r for _, r in rep.residuals))
        worst_violation = max(worst_violation, max(v for _, v in rep.violations))
    ok = worst <= 1e-12 and worst_violation == 0.0
    report(6, ok, f"max equality residual {worst:.2e}; "
                  f"max sign violation {worst_violation:.2e} over 1000 points")


def test_criterion_07_spectrum_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        c = gate(*random_chamber(rng))
        a, b = rng.uniform(0.0, pi / 2, 2)
        lam = spectrum(c, a, b).lam
        ev = reduced_density_closed_form(c, a, b).eigenvalues
        worst = max(worst, np.abs(np.sort(lam) - np.sort(ev)).max())
    ok = worst <= 1e-10
    report(7, ok, f"max |closed-form - eigensolver| = {worst:.2e} over 1000 samples")


def _line_derivative_highprec(sign, eps_exp, csq, dps=60):
    """High-precision evaluation of the analytic line-profile derivative
    at y = sign*(1 - 10^-eps_exp); an independent check of the limits."""
    with mp.workdps(dps):
        y = mpf(sign) * (1 - mpf(10) ** (-eps_exp))
        v = mpf(csq)
        u0 = 1 - 3 * v
        l22 = (u0 + v * y + msqrt((u0 - v) * (u0 - v * y ** 2))) / 2
        l12 = u0 * v * (1 + y) ** 2 / (4 * l22)
        c2a = msqrt((1 - y) / 2)
        l32 = (1 - c2a) ** 2 * v
        l42 = (1 + c2a) ** 2 * v
        ln2 = mlog(2)
        t1 = -msqrt(2 / (1 - y)) * (mlog(l32) - mlog(l42)) / ln2
        t2 = (-msqrt((1 - 4 * v) / (1 - v * (3 + y ** 2))) * y
              * (mlog(l12) - mlog(l22)) / ln2)
        t3 = mlog(v / (1 - 3 * v)) / ln2
        return float(v / 2 * (t1 + t2 + t3))


def test_criterion_08_derivatives():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    count = 0
    step = 1e-5
    while count < 200:
        x, y, _ = random_chamber(rng, strict=True)
        c = gate(x, y)
        a = rng.uniform(0.05, pi / 4 - 0.05)
        b = rng.uniform(0.05, pi / 2 - 0.05)
        try:
            fa, fb = partial_derivatives(c, a, b)
        except Exception:
            continue
        fd_a = (entanglement_at(c, a + step, b)
                - entanglement_at(c, a - step, b)) / (2 * step)
        fd_b = (entanglement_at(c, a, b + step)
                - entanglement_at(c, a, b - step)) / (2 * step)
        worst = max(worst, abs(fa - fd_a), abs(fb - fd_b))
        count += 1
    limit_dev = 0.0
    for csq in (0.05, 0.11, 0.2):
        upper = _line_derivative_highprec(+1, 20, csq)
        lower = _line_derivative_highprec(-1, 20, csq)
        limit_dev = max(limit_dev,
                        abs(upper - e2_derivative_limit_upper(csq)),
                        abs(lower - e2_derivative_limit_lower(csq)))
    ok = worst <= 1e-6 and limit_dev <= 1e-9
    report(8, ok, f"max derivative deviation {worst:.2e} over 200 points; "
                  f"max endpoint-limit deviation {limit_dev:.2e}")


def test_criterion_09_line_necessity():
    rng = np.random.default_rng(SEED)
    alphas = np.linspace(0.0, pi / 4, 401)
    betas = np.linspace(0.0, pi / 2, 801)
    worst = -np.inf
    for _ in range(50):
        x, y, _ = random_chamber(rng, strict=True)
        c = gate(x, y)
        surface = entanglement_grid(c, alphas, betas).max()
        line = line_profile_values(c, alphas).max()
        worst = max(worst, surface - line)
    ok = worst <= 1e-6
    report(9, ok, f"max 2-D excess over the line {worst:.2e} over 50 gates")


def test_criterion_10_conjecture_harness():
    rng = np.random.default_rng(SEED)
    findings = []
    worst = -np.inf
    for _ in range(100):
        x, y, _ = random_chamber(rng, strict=True)
        gap = conjecture_gap(x, y)
        worst = max(worst, gap)
        if gap > 1e-9:
            findings.append({"x": x, "y": y, "interior_excess": gap})
    for finding in findings:
        print("conjecture finding:", json.dumps(finding, sort_keys=True))
    # positive excess is evidence against the conjecture, reported, not failed
    report(10, np.isfinite(worst),
           f"max interior excess {worst:.2e} over 100 gates; "
           f"{len(findings)} finding(s) serialized")


def test_criterion_11_schmidt_rank_two():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        th = tuple(rng.uniform(0.0, 2 * pi, 3))
        closed = n3_closed_form(*th).max_y
        oracle_y, _ = simplex_oracle(PhaseGateSpec(th))
        worst = max(worst, abs(closed - oracle_y))
    res = n3_closed_form(0.0, 2 * pi / 3, 4 * pi / 3)
    equilateral_ok = (res.case == "interior"
                      and np.allclose(res.weights, [1 / 3] * 3, atol=1e-10)
                      and abs(sum(res.weights) - 1.0) <= 1e-10)
    max_rank = 0
    recon = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        spec = PhaseGateSpec(tuple(rng.uniform(0.0, 2 * pi, n)))
        max_rank = max(max_rank, rank_bound_check(spec))
        p1, p2, p3 = rank_one_parts(spec)
        recon = max(recon, np.abs(m_matrix(spec) - (p1 + p2 + p3)).max())
    ok = worst <= 1e-6 and equilateral_ok and max_rank <= 3 and recon <= 1e-12
    report(11, ok, f"max |closed - oracle| {worst:.2e} over 500 triples; "
                   f"equilateral case (i) ok={equilateral_ok}; "
                   f"max rank {max_rank}; reconstruction {recon:.2e}")


def _computed_gates():
    rng = np.random.default_rng(SEED)
    cases = [(pi / 4, pi / 4), (0.05, 0.05), (0.08, 0.08), (0.15, 0.15),
             (0.5, 0.5), (pi / 4, 0.2), (pi / 4, 0.7), (pi / 4, 0.0)]
    for _ in range(30):
        x, y, _ = random_chamber(rng)
        cases.append((x, y))
    return cases


def test_criterion_12_lower_bound_chain():
    worst = -np.inf
    for x, y in _computed_gates():
        strength = schmidt_strength(gate(x, y))
        value = entangling_power_c2eqc3(x, y).value
        worst = max(worst, strength - value)
    ok = worst <= 1e-9
    report("12 (lower-bound chain)", ok,
           f"max strength - power = {worst:.2e} over {len(_computed_gates())} gates")


def test_criterion_12_strict_gap_as_specified():
    # stated threshold: power exceeds Schmidt strength by at least 0.01 ebits
    # at x in {0.05, 0.08}
    gaps = {}
    for x in (0.05, 0.08):
        gaps[x] = example1_power(x).value - schmidt_strength(gate(x, x, x))
    ok = all(g >= 0.01 for g in gaps.values())
    report("12 (strict gap >= 0.01)", ok,
           "measured gaps " + ", ".join(f"x={x}: {g:.6f}" for x, g in gaps.items())
           + " (strictly positive, but the 0.01 threshold is not attained)")


def test_criterion_13_local_unitary_invariance():
    rng = np.random.default_rng(SEED)
    gates = [
        gate_matrix(pi / 4, pi / 4),
        np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
        gate_matrix(0.3, 0.2),
        gate_matrix(pi / 4, 0.2),
        gate_matrix(0.05, 0.05, 0.05),
    ]
    worst = 0.0
    for U in gates:
        base = brute_force_power(U, LIGHT).value
        for _ in range(20):
            locals_ = [random_unitary(rng, 2) for _ in range(4)]
            dressed = (np.kron(locals_[0], locals_[1]) @ U
                       @ np.kron(locals_[2], locals_[3]))
            val = brute_force_power(dressed, LIGHT).value
            worst = max(worst, abs(val - base))
    ok = worst <= 1e-4
    report(13, ok, f"max |K_E(U) - K_E(dressed)| = {worst:.2e} "
                   f"over 5 gates x 20 dressings")


def test_criterion_14_full_verify_suite():
    t0 = time.perf_counter()
    results = verify_mod.run_all(seed=SEED)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 600.0
    report(14, ok, f"{len(results)} suites in {elapsed:.1f}s; "
                   f"failures: {failed or 'none'}")
