import os
import subprocess
import sys

import numpy as np
import pytest
from math import pi

import epower
from epower.canonical import CanonicalParams, assemble_unitary, coefficients_from_xyz
from epower.epower2q import (
    ProductInputParams,
    entangling_power_c2eqc3,
    line_profile_values,
    reduced_density_closed_form,
)
from epower.oracle import (
    SearchConfig,
    brute_force_power,
    entanglement_of_product_input,
    output_state,
    product_pair_power,
)
from epower.qmath import DomainError, partial_trace, von_neumann_entropy

from conftest import random_unitary

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


class TestReductionToTwoAngles:
    def test_unrestricted_gains_nothing_on_equal_tail_gates(self):
        for x, y in [(0.45, 0.15), (0.3, 0.3), (pi / 4, 0.2)]:
            U = gate_matrix(x, y)
            full = brute_force_power(U, LIGHT).value
            restricted = product_pair_power(U, grid_n=161)
            assert full - restricted <= 1e-4

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


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(grid_points_per_axis=0)


def test_search_config_rejects_negative_seed():
    with pytest.raises(DomainError, match="nonnegative"):
        SearchConfig(seed=-1)


@pytest.mark.parametrize("field", ["grid_points_per_axis", "refinement_iterations",
                                   "multi_starts", "seed"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_search_config_rejects_non_finite(field, bad):
    with pytest.raises(DomainError, match="finite"):
        SearchConfig(**{field: bad})
