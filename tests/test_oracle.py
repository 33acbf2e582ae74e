import ast
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from math import pi

import epower
from epower.canonical import CanonicalParams, assemble_unitary, coefficients_from_xyz
from epower.epower2q import (
    entangling_power_c2eqc3,
    line_profile_values,
    reduced_density_closed_form,
)
from epower import oracle
from epower.oracle import (
    ProductInputParams,
    SearchConfig,
    brute_force_power,
    entanglement_of_product_input,
    output_state,
)
from epower.qmath import DomainError, entropy_bits, partial_trace, von_neumann_entropy

from conftest import non_finite_gates, random_unitary

LIGHT = SearchConfig(grid_points_per_axis=9, refinement_iterations=150,
                     multi_starts=6, seed=1)


def gate_matrix(x, y):
    return assemble_unitary(coefficients_from_xyz(CanonicalParams(x, y, y)))


class TestOutputState:
    def test_identity_returns_product_input(self):
        psi = output_state(np.eye(4, dtype=complex),
                           ProductInputParams(alpha=0.3, beta=1.0, mu=0.8, nu=1.2))
        rho = partial_trace(psi, {2, 3})
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_swap_balanced_input_maximal(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        psi = output_state(swap, ProductInputParams(alpha=pi / 4, beta=pi / 4))
        rho = partial_trace(psi, {2, 3})
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_reduction_matches_closed_form(self):
        c = coefficients_from_xyz(CanonicalParams(0.5, 0.2, 0.2))
        U = assemble_unitary(c)
        psi = output_state(U, ProductInputParams(alpha=0.4, beta=0.9))
        rho = partial_trace(psi, {2, 3})
        closed = reduced_density_closed_form(c, 0.4, 0.9)
        np.testing.assert_allclose(rho.entries, closed.entries, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            output_state(np.ones((4, 4), dtype=complex),
                         ProductInputParams(alpha=0.1, beta=0.1))


class TestBruteForce:
    def test_swap_reaches_two_ebits(self):
        res = brute_force_power(gate_matrix(pi / 4, pi / 4), LIGHT)
        assert res.value >= 2.0 - 1e-6
        assert res.method == "oracle"
        assert res.diagnostics["lower_bound"]

    def test_controlled_phase_reaches_one_ebit(self):
        res = brute_force_power(np.diag([1, 1, 1, -1]).astype(complex), LIGHT)
        assert res.value >= 1.0 - 1e-6

    def test_never_exceeds_two(self, rng):
        U = random_unitary(rng, 4)
        res = brute_force_power(U, LIGHT)
        assert res.value <= 2.0

    def test_matches_closed_form_on_generic_gate(self):
        closed = entangling_power_c2eqc3(0.3, 0.2)
        res = brute_force_power(gate_matrix(0.3, 0.2), LIGHT)
        assert abs(res.value - closed.value) <= 1e-4

    def test_dominates_restricted_line_scan(self):
        c = coefficients_from_xyz(CanonicalParams(0.45, 0.15, 0.15))
        line_best = line_profile_values(c, np.linspace(0, pi / 4, 801)).max()
        res = brute_force_power(gate_matrix(0.45, 0.15), LIGHT)
        assert res.value >= line_best - 1e-9

    def test_deterministic_for_fixed_seed(self):
        U = gate_matrix(0.4, 0.25)
        r1 = brute_force_power(U, LIGHT)
        r2 = brute_force_power(U, LIGHT)
        assert r1.value == r2.value
        assert r1.diagnostics["angles"] == r2.diagnostics["angles"]

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            brute_force_power(np.eye(4) * 2.0)


def dressed_gate():
    rng = np.random.default_rng(9)
    a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
    return np.kron(a, b) @ gate_matrix(0.3, 0.2) @ np.kron(c, d)


# repr of (value, angles, n_evaluations, converged, grid_best), recorded
# with the one-start-at-a-time scipy refinement that the lockstep search
# replaced; any moved bit in the search shows here.
PINNED = {
    "swap": (lambda: gate_matrix(pi / 4, pi / 4), LIGHT,
             ("2.0", "(0.7853981571440685, 0.7853981621127208, 3.1939509780753745, "
              "8.333086153889635e-05, 1.5707963249674928, 1.5707963267948966)",
              "25606", "False", "2.0")),
    "cz": (lambda: np.diag([1, 1, 1, -1]).astype(complex), LIGHT,
           ("1.000000000000008", "(0.7853981656627145, 0.7853981667048775, "
            "1.4959192526509758e-05, 3.1626860978898055, 1.1728524685422035, "
            "0.3929075577950876)", "25569", "True", "1.0000000000000056")),
    "sqrt_swap": (lambda: gate_matrix(pi / 8, pi / 8), LIGHT,
                  ("1.5487949406953994", "(0.7853981640549068, 0.7853981594756917, "
                   "4.790930623766027, 3.1939531499661062, 1.5707963267948966, "
                   "1.5707963267948966)", "25809", "True", "1.5487949406953985")),
    "xyz_0.6_0.3": (lambda: gate_matrix(0.6, 0.3), LIGHT,
                    ("1.5544370141056687", "(0.7853981637416775, 0.7853981623298522, "
                     "2.001939725579543e-05, 1.595375281804697, 1.5707963267948966, "
                     "1.5707963261818105)", "25829", "False", "1.5544370141056683")),
    "xyz_0.05": (lambda: gate_matrix(0.05, 0.05), LIGHT,
                 ("0.08057237093707283", "(0.0, 1.5707963267948966, 4.772495235214587, "
                  "6.377943997840866e-05, 0.7953922933654252, 1.1874121922605112)",
                  "25252", "True", "0.08057237093706157")),
    "dressed": (dressed_gate, LIGHT,
                ("0.8625359082692149", "(0.785398164080064, 0.7853981628567726, "
                 "1.6367799648492434, 4.726552893715336, 1.5707963267792682, "
                 "1.5707963267948966)", "25589", "False", "0.8625359082692148")),
    "default_0.6_0.3": (lambda: gate_matrix(0.6, 0.3), SearchConfig(),
                        ("1.5544370141056687", "(0.7853981675601778, 0.7853981657248139, "
                         "8.333515472449957e-05, 4.790930513345167, 1.5707963267948966, "
                         "1.570796324234863)", "111279", "True", "1.5544370141056683")),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_oracle_output_pinned(name):
    make_gate, cfg, expected = PINNED[name]
    res = brute_force_power(make_gate(), cfg)
    d = res.diagnostics
    got = (repr(res.value), repr(d["angles"]), repr(d["n_evaluations"]),
           repr(d["converged"]), repr(d["grid_best"]))
    assert got == expected


# repr of (value, angles, n_evaluations, refine_evaluations): the two
# criterion-13 gates that PINNED lacks, and a call whose 616-point initial
# simplex (88 starts of 7 vertices) exceeds the kernel's 512-point workspace
REFINE_PINNED = {
    "xyz_0.3_0.2": (lambda: gate_matrix(0.3, 0.2), LIGHT,
                    ("0.862535908269215", "(0.7853981634163159, 0.7853981633879314, "
                     "3.1419711780307606, 1.571005308740363, 1.5707963267948966, "
                     "1.5707963267924008)", "26095", "5359")),
    "xyz_pi/4_0.2": (lambda: gate_matrix(pi / 4, 0.2), LIGHT,
                     ("1.3872886449116166", "(0.785398163418396, 0.7853981634600818, "
                      "1.5887950346321278, 3.143228899615617, 1.5707963267948966, "
                      "1.5707963267948966)", "25601", "4865")),
    "wide_simplex_0.6_0.3": (lambda: gate_matrix(0.6, 0.3),
                             SearchConfig(grid_points_per_axis=5, refinement_iterations=20,
                                          multi_starts=80),
                             ("1.5544370141056683", "(0.7853981633974483, 0.7853981633974483, "
                              "3.141592653589793, 1.5707963267948966, 1.5707963267948966, "
                              "1.5707963267948966)", "9515", "3115")),
}


@pytest.mark.parametrize("name", sorted(REFINE_PINNED))
def test_oracle_refinement_pinned(name):
    make_gate, cfg, expected = REFINE_PINNED[name]
    res = brute_force_power(make_gate(), cfg)
    d = res.diagnostics
    got = (repr(res.value), repr(d["angles"]), repr(d["n_evaluations"]),
           repr(d["refine_evaluations"]))
    assert got == expected


def sandwiched_swap():
    rng = np.random.default_rng(25)
    a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
    return np.kron(a, b) @ gate_matrix(pi / 4, pi / 4) @ np.kron(c, d)


# repr of (value, angles, n_evaluations, refine_evaluations, refine_calls)
# under the default SearchConfig, for gates shaped like the benchmark's
# oracle operations: a dressed random gate and a locally sandwiched SWAP
DEFAULT_PINNED = {
    "dressed": (dressed_gate,
                ("0.8625359082692149", "(0.785398164080064, 0.7853981628567726, "
                 "1.6367799648492434, 4.726552893715336, 1.5707963267792682, "
                 "1.5707963267948966)", "111517", "14173", "815")),
    "sandwiched_swap": (sandwiched_swap,
                        ("2.0", "(0.7853981633118514, 0.7853981644658633, "
                         "1.583886422507109, 4.751659267521326, 1.5707963266527447, "
                         "1.5707963267948966)", "111069", "13725", "712")),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_PINNED))
def test_oracle_default_config_pinned(name):
    make_gate, expected = DEFAULT_PINNED[name]
    res = brute_force_power(make_gate())
    d = res.diagnostics
    got = (repr(res.value), repr(d["angles"]), repr(d["n_evaluations"]),
           repr(d["refine_evaluations"]), repr(d["refine_calls"]))
    assert got == expected


@pytest.mark.parametrize("phases", ["grid", "seeded"])
def test_complex_exponential_is_cos_plus_i_sin(phases):
    # the kernel may form e^{i theta} from the cos and sin it has taken;
    # that keeps every bit only while np.exp agrees with them exactly
    if phases == "grid":
        theta = np.append(oracle._grid_axes(SearchConfig())[2], oracle._HIGHS[2])
    else:
        theta = np.random.default_rng(2025).uniform(0.0, oracle._HIGHS[2], 10**5)
    e = np.exp(1j * theta)
    assert same_bits(e.real, np.cos(theta)) and same_bits(e.imag, np.sin(theta))


@pytest.mark.parametrize("points", [1, 7, 40, 280])
def test_batch_entropies_in_a_strided_view_of_a_full_workspace(points):
    # a batch of `points` points in a 512-point workspace that first held
    # a 512-point batch, so no stale entry may leak: the kernel cuts the
    # strided view of the first `points` factors and the start of each
    # flat buffer
    rng = np.random.default_rng(points)
    U = random_unitary(rng, 4)
    box = oracle._HIGHS - oracle._LOWS
    full = oracle._Workspace(512)
    oracle._batch_entropies(U, *oracle._factors(oracle._LOWS + box * rng.random((512, 6)), full),
                            full)
    x = oracle._LOWS + box * rng.random((points, 6))
    got = oracle._batch_entropies(U, *oracle._factors(x, full), full)
    assert same_bits(got, batch_entropies(U, x))
    assert same_bits(got, reference_entropies(U, *np.ascontiguousarray(x.T)))


def test_diagnostics_split_the_stages():
    d = brute_force_power(np.diag([1, 1, 1, -1]).astype(complex), LIGHT).diagnostics
    assert d["grid_evaluations"] == 9 * 9 * 4 * 4 * 4 * 4
    assert d["refine_evaluations"] > 0
    assert d["grid_evaluations"] + d["refine_evaluations"] == d["n_evaluations"]
    assert d["grid_distinct"] == 129 * 129
    assert 0 < d["refine_calls"] < d["refine_evaluations"]
    assert sorted(d["timings"]) == ["grid_s", "polish_s", "refine_s"]
    assert all(t > 0 for t in d["timings"].values())
    assert 0 < d["timings"]["polish_s"] < d["timings"]["refine_s"]


def test_default_call_peak_traced_memory():
    # measured: 2.2 MiB, most of it the grid's 512-point workspace (1.25
    # MiB) and the 289 x 289 pair table; the workspace is freed before the
    # 97,344 grid values are gathered (1.55 MiB then), and the values and
    # their order before the refinement's workspace is made.  Holding the
    # workspace over the gather took 2.8 MiB, the six-angle grid columns
    # 7.5 MiB and the 8,192-point chunk loop 24.2 MiB.
    U = gate_matrix(0.6, 0.3)
    tracemalloc.start()
    try:
        brute_force_power(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * 2**20


def test_peak_traced_memory_does_not_grow_with_the_start_count():
    # 200 starts make a 1,400-point first simplex; it goes through the
    # 512-point workspace in chunks, so the default call's bound holds
    U = gate_matrix(0.6, 0.3)
    cfg = SearchConfig(grid_points_per_axis=5, refinement_iterations=20, multi_starts=200)
    tracemalloc.start()
    try:
        brute_force_power(U, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * 2**20


def test_default_grid_scores_each_distinct_pair_once():
    d = brute_force_power(gate_matrix(0.6, 0.3)).diagnostics
    assert d["grid_evaluations"] == 13 * 13 * 4 * 4 * 6 * 6
    # 13 * 4 * 6 = 312 triples per side, the 24 at angle 0 as one state
    assert d["grid_distinct"] == 289 * 289
    # 495 batched calls for the 40 starts and 300 for the one-start polish
    assert d["refine_calls"] == 795


@pytest.mark.parametrize("name", sorted(non_finite_gates()))
def test_oracle_entry_points_reject_non_finite_gates(name):
    U = non_finite_gates()[name]
    with pytest.raises(DomainError, match="finite"):
        output_state(U, ProductInputParams(alpha=0.1, beta=0.1))
    with pytest.raises(DomainError, match="finite"):
        brute_force_power(U, LIGHT)
    with pytest.raises(DomainError, match="finite"):
        entanglement_of_product_input(U, 0.1, 0.2)


def test_oracle_entry_points_take_any_memory_layout():
    # the kernel reads U through a float view of a C-ordered array; the
    # entry points hand it one whatever layout the caller's gate has
    U = dressed_gate()
    for other in (np.asfortranarray(U), U.T.copy().T, U.real + 1j * U.imag):
        params = ProductInputParams(alpha=0.3, beta=0.7, theta=1.1, xi=2.3, mu=0.4, nu=1.2)
        assert same_bits(output_state(other, params).amplitudes, output_state(U, params).amplitudes)
        assert (entanglement_of_product_input(other, 0.3, 0.7, 1.1)
                == entanglement_of_product_input(U, 0.3, 0.7, 1.1))
        a, b = brute_force_power(other, LIGHT), brute_force_power(U, LIGHT)
        assert (a.value, a.diagnostics["angles"]) == (b.value, b.diagnostics["angles"])


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_product_input_rejects_non_finite_angle(position, bad):
    angles = [0.4, 0.9, 0.0, 0.0, pi / 2, pi / 2]
    angles[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before any numpy warning
        with pytest.raises(DomainError, match="finite"):
            entanglement_of_product_input(gate_matrix(0.6, 0.3), *angles)


# chamber angles (x, y, z) whose oracle maximizer lies on a closed face of
# the search box, with the config, the angle on the face and its value
BOX_FACE_GATES = [
    ((0.02802322541829137, 0.01442884547582272, 0.0067268146993160905), "default", "mu", 0.0),
    ((0.15111229051979438, 0.10457455889972594, 0.10457455889972594), "default", "mu", 0.0),
    ((0.3161214241014658, 0.030570235890145344, 0.0295867318216621), "default", "mu", 0.0),
    ((0.5825855397195878, 0.053304016457624705, 0.02884513916059428), "light", "xi", 2 * pi),
]


@pytest.mark.parametrize("xyz, config, face, bound", BOX_FACE_GATES)
def test_oracle_angles_construct_a_product_input(xyz, config, face, bound):
    U = assemble_unitary(coefficients_from_xyz(CanonicalParams(*xyz)))
    res = brute_force_power(U, {"default": SearchConfig(), "light": LIGHT}[config])
    angles = res.diagnostics["angles"]
    params = ProductInputParams(*angles)
    assert getattr(params, face) == bound
    assert entanglement_of_product_input(U, *angles) == res.value
    rho = partial_trace(output_state(U, params), [0, 1])
    assert abs(von_neumann_entropy(rho) - res.value) <= 1e-12


def test_product_input_ranges_are_the_search_box():
    U = gate_matrix(0.6, 0.3)
    for corner in (oracle._LOWS, oracle._HIGHS):
        assert entanglement_of_product_input(U, *corner) >= 0.0
    ProductInputParams(alpha=0.1, beta=0.1, mu=0.0)
    ProductInputParams(alpha=0.1, beta=0.1, xi=2 * pi)
    for name, bad in (("mu", -1e-6), ("xi", 2 * pi + 1e-6)):
        with pytest.raises(DomainError, match=f"{name}="):
            ProductInputParams(alpha=0.1, beta=0.1, **{name: bad})
        with pytest.raises(DomainError, match=f"{name}="):
            entanglement_of_product_input(U, 0.1, 0.1, **{name: bad})
    # theta = 7 lies outside [0, 2pi]; only non-finite angles were refused before
    with pytest.raises(DomainError, match="theta="):
        entanglement_of_product_input(U, 0.1, 0.2, 7.0)


def scipy_halton(n, seed):
    """scipy's scrambled Halton points, the reference for ``oracle._halton``."""
    from scipy.stats import qmc

    return qmc.Halton(d=6, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("n", [1, 8, 32, 33, 97, 1024])
def test_halton_matches_scipy(n):
    for seed in range(200):
        assert oracle._halton(n, seed).tobytes() == scipy_halton(n, seed).tobytes()


@pytest.mark.parametrize("seed", [2**64, 10**400])
def test_halton_matches_scipy_for_large_seeds(seed):
    assert oracle._halton(40, seed).tobytes() == scipy_halton(40, seed).tobytes()


@pytest.mark.parametrize("make_gate, cfg", [
    (lambda: np.diag([1, 1, 1, -1]).astype(complex), LIGHT),
    (dressed_gate, LIGHT),
    (dressed_gate, SearchConfig()),
], ids=["cz-light", "dressed-light", "dressed-default"])
def test_oracle_unchanged_with_scipy_starts(make_gate, cfg, monkeypatch):
    def summary():
        res = brute_force_power(make_gate(), cfg)
        return repr(res.value), repr(res.diagnostics["angles"]), \
            repr(res.diagnostics["n_evaluations"])

    ours = summary()
    monkeypatch.setattr(oracle, "_halton", scipy_halton)
    assert summary() == ours


class TestLockstepNelderMead:
    """``oracle.minimize`` against scipy's own bounded Nelder-Mead, start by start."""

    U = random_unitary(np.random.default_rng(3), 4)

    def six_angle_starts(self):
        lows, highs = oracle._LOWS, oracle._HIGHS
        rng = np.random.default_rng(17)
        return np.vstack([
            lows + (highs - lows) * rng.random((4, 6)),
            [0.0, 0.4, 0.0, 2.0, 0.0, 1.1],           # zero coordinates
            highs * 0.97,                             # within 5 % of the upper bound
            highs * (1 - 1e-3) * np.array([1, 0.5, 1, 0.3, 1, 0.6]),
            highs,                                    # on the upper bound
            lows,                                     # on the lower bound
            np.where(np.arange(6) % 2, highs, lows),  # mixed bounds
        ])

    def pair_starts(self):
        rng = np.random.default_rng(23)
        return np.vstack([(pi / 2) * rng.random((3, 2)), [0.0, 0.9], [pi / 2, 0.0],
                          [0.97 * pi / 2, 1.53], [pi / 2, pi / 2], [0.0, 0.0]])

    def six_angle_objective(self, x):
        return -entropies(self.U, x)

    def pair_objective(self, x):
        tail = np.broadcast_to((0.0, 0.0, pi / 2, pi / 2), (len(x), 4))
        return -entropies(self.U, np.hstack([x, tail]))

    def compare(self, batched, scalar, starts, lb, ub, maxiter, xatol, fatol):
        from scipy.optimize import minimize as scipy_minimize

        res = oracle.minimize(batched, starts, lb, ub, maxiter, xatol, fatol)
        total = 0
        for k, x0 in enumerate(starts):
            ref = scipy_minimize(scalar, x0, method="Nelder-Mead", bounds=list(zip(lb, ub)),
                                 options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
            one = oracle.minimize(batched, x0[None], lb, ub, maxiter, xatol, fatol)
            assert res.x[k].tobytes() == ref.x.tobytes() == one.x[0].tobytes()
            assert res.fun[k] == ref.fun == one.fun[0]
            assert bool(res.success[k]) == ref.success == bool(one.success[0])
            assert one.nfev == ref.nfev
            total += ref.nfev
        assert res.nfev == total
        return res

    def test_six_angles(self):
        def scalar(v):
            return -entanglement_of_product_input(self.U, *v)

        res = self.compare(self.six_angle_objective, scalar, self.six_angle_starts(),
                           oracle._LOWS, oracle._HIGHS, 400, 1e-8, 1e-12)
        assert res.success.any() and not res.success.all()

    def test_pair(self):
        def scalar(v):
            return -entanglement_of_product_input(self.U, v[0], v[1])

        res = self.compare(self.pair_objective, scalar, self.pair_starts(),
                           oracle._LOWS[:2], oracle._HIGHS[:2], 400, 1e-9, 1e-13)
        assert res.success.all()

    def test_iteration_cap_reports_failure(self):
        def scalar(v):
            return -entanglement_of_product_input(self.U, *v)

        res = self.compare(self.six_angle_objective, scalar, self.six_angle_starts(),
                           oracle._LOWS, oracle._HIGHS, 5, 1e-8, 1e-12)
        assert not res.success.any()


def test_batched_entropies_match_point_by_point():
    rng = np.random.default_rng(31)
    U = random_unitary(rng, 4)
    x = oracle._LOWS + (oracle._HIGHS - oracle._LOWS) * rng.random((300, 6))
    batch = entropies(U, x)
    for k in (0, 1, 7, 150, 299):
        assert entropies(U, x[:k + 1])[k] == batch[k]
    assert all(entanglement_of_product_input(U, *v) == b for v, b in zip(x, batch))


class TestReductionToTwoAngles:
    def test_unrestricted_gains_nothing_on_equal_tail_gates(self):
        for x, y in [(0.45, 0.15), (0.3, 0.3), (pi / 4, 0.2)]:
            U = gate_matrix(x, y)
            full = brute_force_power(U, LIGHT).value
            assert full - entangling_power_c2eqc3(x, y).value <= 1e-4

    def test_scalar_evaluator_consistency(self):
        U = gate_matrix(0.5, 0.3)
        val = entanglement_of_product_input(U, 0.4, 0.9)
        psi = output_state(U, ProductInputParams(alpha=0.4, beta=0.9))
        assert val == pytest.approx(
            von_neumann_entropy(partial_trace(psi, {2, 3})), abs=1e-12)


def test_local_unitary_invariance_quick(rng):
    U = gate_matrix(0.35, 0.2)
    base = brute_force_power(U, LIGHT).value
    for _ in range(2):
        a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
        dressed = np.kron(a, b) @ U @ np.kron(c, d)
        res = brute_force_power(dressed, LIGHT)
        assert abs(res.value - base) <= 1e-4


def test_scipy_loads_only_with_the_oracle():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(epower.__file__))}
    code = ("import sys, epower, epower.cli; "
            "epower.entangling_power_phase_gate(epower.PhaseGateSpec((0.0, 1.0, 2.0, 4.0))); "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_and_oracle_run_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(epower.__file__))}
    code = ("import sys, numpy as np, epower, epower.cli; "
            "epower.cli.main(['compute', '--xyz', '0.6', '0.3', '0.3', '--verify']); "
            "epower.brute_force_power(np.diag([1, 1, 1, -1]).astype(complex)); "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_no_module_imports_scipy():
    package = Path(epower.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "scipy", f"{path.name}:{node.lineno} imports {name}"


def test_only_the_front_ends_call_the_oracles():
    # the solvers never run an oracle; cli and verify pick and run them
    package = Path(epower.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("simplex_oracle", "brute_force_power"):
                    callers.add(path.stem)
    assert callers == {"cli", "verify"}


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(grid_points_per_axis=0)


def test_search_config_rejects_negative_seed():
    with pytest.raises(DomainError, match="nonnegative"):
        SearchConfig(seed=-1)


@pytest.mark.parametrize("field", ["grid_points_per_axis", "refinement_iterations",
                                   "multi_starts", "seed"])
@pytest.mark.parametrize("bad", [1.5, 9.5, True, np.int64(1) + 0.5])
def test_search_config_rejects_non_integer(field, bad):
    with pytest.raises(DomainError, match="integers"):
        SearchConfig(**{field: bad})


@pytest.mark.parametrize("field", ["grid_points_per_axis", "refinement_iterations",
                                   "multi_starts", "seed"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_search_config_rejects_non_finite(field, bad):
    with pytest.raises(DomainError, match="finite"):
        SearchConfig(**{field: bad})


def test_search_config_accepts_seed_beyond_float_range():
    cfg = replace(LIGHT, seed=10**400)
    assert cfg.seed == 10**400
    res = brute_force_power(np.diag([1, 1, 1, -1]).astype(complex), cfg)
    assert res.value >= 1.0 - 1e-6


def reference_output(U, alpha, beta, theta, xi, mu, nu):
    """Output states, shape (N, 2, 2, 2, 2), by the einsum contraction that
    the oracle's points-last kernel replaced; kept as its bit-for-bit
    reference."""
    n = alpha.size
    psi = np.zeros((n, 4), dtype=complex)
    psi[:, 0] = np.cos(alpha)
    psi[:, 2] = np.sin(alpha) * np.exp(1j * theta) * np.cos(mu)
    psi[:, 3] = np.sin(alpha) * np.sin(mu)
    phi = np.zeros((n, 4), dtype=complex)
    phi[:, 0] = np.cos(beta)
    phi[:, 2] = np.sin(beta) * np.exp(1j * xi) * np.cos(nu)
    phi[:, 3] = np.sin(beta) * np.sin(nu)
    full = (psi[:, :, None] * phi[:, None, :]).reshape(n, 2, 2, 2, 2)
    return np.einsum("xyab,narbt->nxryt", U.reshape(2, 2, 2, 2), full)


def reference_entropies(U, *angles):
    out = reference_output(U, *angles).reshape(-1, 4, 4)
    rho = np.einsum("nmk,nml->nkl", out, out.conj())
    return entropy_bits(np.linalg.eigvalsh(rho))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


def entropies(U, x):
    """``oracle._entropies`` of the rows of x, through a workspace of the batch's size."""
    return oracle._entropies(U, x, oracle._Workspace(min(len(x), oracle._CHUNK)))


def batch_entropies(U, x):
    """``oracle._batch_entropies`` of the rows of x, in one workspace of their size."""
    ws = oracle._Workspace(len(x))
    return oracle._batch_entropies(U, *oracle._factors(x, ws), ws)


def kernel_gates():
    rng = np.random.default_rng(1804)
    return {"swap": gate_matrix(pi / 4, pi / 4),
            "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
            "haar_a": random_unitary(rng, 4), "haar_b": random_unitary(rng, 4)}


@pytest.mark.parametrize("name", ["swap", "cnot", "haar_a", "haar_b"])
def test_grid_kernel_matches_einsum_reference(name):
    U = kernel_gates()[name]
    ab, mn, ph = oracle._grid_axes(SearchConfig())
    flat = [g.ravel() for g in np.meshgrid(ab, ab, ph, ph, mn, mn, indexing="ij")]
    n_grid = flat[0].size
    for lo in range(0, n_grid, 8192):
        cols = [f[lo:lo + 8192] for f in flat]
        assert same_bits(batch_entropies(U, np.stack(cols, axis=1)), reference_entropies(U, *cols))
    for i in range(0, n_grid, 977):
        point = [float(f[i]) for f in flat]
        amps = output_state(U, ProductInputParams(*point)).amplitudes
        assert same_bits(amps, reference_output(U, *np.array(point)[:, None])[0].reshape(16))


@pytest.mark.parametrize("rows", [1, 17, 280])
def test_batch_kernel_matches_einsum_reference(rows):
    rng = np.random.default_rng(rows)
    U = random_unitary(rng, 4)
    x = oracle._LOWS + (oracle._HIGHS - oracle._LOWS) * rng.random((rows, 6))
    cols = np.ascontiguousarray(x.T)
    assert same_bits(entropies(U, x), reference_entropies(U, *cols))
    assert same_bits(batch_entropies(U, x), reference_entropies(U, *cols))


# SHA-256 of the grid-stage entropies of brute_force_power, recorded with
# the 8,192-point chunk loop over all six-angle grid points that the
# pair grid of side states replaced; any moved bit in the grid shows here.
GRID_DIGESTS = {
    ("swap", "default"): "00fdd1479d446aad761a17237d8dfe6f4b208315cb9194f21e175786e0948427",
    ("cnot", "default"): "fd4f36b0c6fe5248eea8aff8cfa15096ca4bd693b3c3daae0d57e8dd43f1094c",
    ("haar_a", "default"): "57dcccd5538a430186a1c49fda444e17a7a6fc7ae591600953cc2fa9484ed291",
    ("haar_b", "default"): "d0fd73de5b393cd5eb321750458503093e819c0553b418eb3251b3bd874814ff",
    ("dressed", "default"): "b0300d2c9fd78b89a6067e65ed043c2dda8e695e0584a996f61fe92a2154cd0c",
    ("swap", "light"): "47f4c2067d831bfe02581d4c96eb33c28876be97c07f09e482c81fae63771a32",
    ("cnot", "light"): "4dde7f207ca6976b8d74b082554fc0cf52f3bdb28e8bb6eca13bcdabf71c7319",
    ("haar_a", "light"): "b96dd7d021d662571063894ede862b0d45a6eb7d03a8b703d29e9b6d06443365",
    ("haar_b", "light"): "85d33a9b637ab18e1a5110b561c37e28e8dc74b06b1a4027e3a709c33211f3d3",
    ("dressed", "light"): "7d346e36c729ec44aab44ccde59a56e633aa0e25f51143712c6e03194b1c547e",
}


@pytest.mark.parametrize("gate, config", sorted(GRID_DIGESTS))
def test_grid_values_pinned(gate, config):
    U = {**kernel_gates(), "dressed": dressed_gate()}[gate]
    cfg = {"default": SearchConfig(), "light": LIGHT}[config]
    vals, _ = oracle._grid_entropies(U, *oracle._grid_axes(cfg))
    assert hashlib.sha256(vals.tobytes()).hexdigest() == GRID_DIGESTS[gate, config]


@pytest.mark.parametrize("config", ["default", "light"])
@pytest.mark.parametrize("gate", ["swap", "cnot", "haar_a", "haar_b", "dressed"])
def test_zero_angle_inputs_give_one_bit_pattern(gate, config):
    # sin(0.0) = 0.0, so at angle 0 every (phase, weight) gives the side
    # input (1, 0, 0, 0) up to the sign of zeros, and the kernel's sums
    # from +0.0 leave no trace of those signs
    U = {**kernel_gates(), "dressed": dressed_gate()}[gate]
    cfg = {"default": SearchConfig(), "light": LIGHT}[config]
    ab, mn, ph = oracle._grid_axes(cfg)
    triples = np.stack([g.ravel() for g in np.meshgrid(ab, ph, mn, indexing="ij")], axis=1)
    zero = triples[triples[:, 0] == 0.0]
    assert len(zero) == ph.size * mn.size
    variants = np.repeat(zero, len(triples), axis=0)
    others = np.tile(triples, (len(zero), 1))
    for a, b in ((variants, others), (others, variants)):
        x = np.column_stack([a[:, 0], b[:, 0], a[:, 1], b[:, 1], a[:, 2], b[:, 2]])
        vals = entropies(U, x).reshape(len(zero), len(triples))
        assert all(same_bits(v, vals[0]) for v in vals)
