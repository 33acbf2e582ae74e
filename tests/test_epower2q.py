import hashlib

import numpy as np
import pytest
from math import pi

from epower.canonical import (
    CanonicalParams,
    PauliCoefficients,
    assemble_unitary,
    coefficients_from_xyz,
    schmidt_strength,
)
import epower.epower2q as epower2q
from epower.epower2q import (
    ProductInputParams,
    Spectrum,
    boundary_maximum,
    conjecture_gap,
    e2_derivative,
    e2_derivative_limit_lower,
    e2_derivative_limit_upper,
    entangling_power_c2eqc3,
    entanglement_at,
    entanglement_grid,
    example1_line_entropy,
    example1_power,
    example1_threshold,
    example2_pair_sum_derivative,
    example2_power,
    line_profile_value,
    line_profile_values,
    partial_derivatives,
    reduced_density_closed_form,
    spectrum,
)
from epower.oracle import output_state
from epower.qmath import (
    DomainError,
    entropy_bits,
    entropy_bits4,
    majorizes,
    partial_trace,
    shannon_entropy,
)

from conftest import random_chamber


def gate(x, y, z=None):
    return coefficients_from_xyz(CanonicalParams(x, y, y if z is None else z))


class TestReducedDensity:
    def test_identity_gate_is_pure(self):
        rho = reduced_density_closed_form(PauliCoefficients(1, 0, 0, 0), 0.4, 1.1)
        assert shannon_entropy(rho.eigenvalues) == pytest.approx(0.0, abs=1e-12)

    def test_swap_balanced_input_is_maximally_mixed(self):
        c = gate(pi / 4, pi / 4)
        rho = reduced_density_closed_form(c, pi / 4, pi / 4)
        np.testing.assert_allclose(rho.eigenvalues, [0.25] * 4, atol=1e-12)

    def test_matches_explicit_sixteen_dim_reduction(self):
        c = gate(0.6, 0.3)
        U = assemble_unitary(c)
        psi = output_state(U, ProductInputParams(alpha=0.5, beta=0.7))
        direct = partial_trace(psi, {2, 3})
        closed = reduced_density_closed_form(c, 0.5, 0.7)
        np.testing.assert_allclose(closed.entries, direct.entries, atol=1e-10)

    def test_matches_reduction_for_unequal_tails(self, rng):
        # the closed form only needs the gate to be in coefficient form
        for _ in range(20):
            c = gate(*random_chamber(rng))
            U = assemble_unitary(c)
            a, b = rng.uniform(0.0, pi / 2, 2)
            psi = output_state(U, ProductInputParams(alpha=a, beta=b))
            direct = partial_trace(psi, {2, 3})
            closed = reduced_density_closed_form(c, a, b)
            np.testing.assert_allclose(closed.entries, direct.entries, atol=1e-10)


class TestSpectrum:
    def test_balanced_point_gives_moduli(self):
        c = gate(0.6, 0.3)
        lam = spectrum(c, pi / 4, pi / 4).lam
        m = np.abs(c.as_array()) ** 2
        np.testing.assert_allclose(lam, [m[3], m[0], m[2], m[1]], atol=1e-13)

    def test_zero_angles(self):
        c = gate(0.6, 0.3)
        lam = spectrum(c, 0.0, 0.0).lam
        expected = [0.0, abs(c.c0 + c.c3) ** 2, 0.0, abs(c.c1 - c.c2) ** 2]
        np.testing.assert_allclose(lam, expected, atol=1e-13)

    def test_agrees_with_eigensolver(self, rng):
        worst = 0.0
        for _ in range(300):
            c = gate(*random_chamber(rng))
            a, b = rng.uniform(0.0, pi / 2, 2)
            lam = spectrum(c, a, b).lam
            ev = reduced_density_closed_form(c, a, b).eigenvalues
            worst = max(worst, np.abs(np.sort(lam) - np.sort(ev)).max())
        assert worst <= 1e-10

    def test_specific_point_against_eigensolver(self):
        c = gate(0.5, 0.2)
        lam = spectrum(c, 0.3, 0.9).lam
        ev = reduced_density_closed_form(c, 0.3, 0.9).eigenvalues
        assert np.abs(np.sort(lam) - np.sort(ev)).max() <= 1e-10

    def test_invariant_rejection(self):
        with pytest.raises(DomainError):
            Spectrum(np.array([0.3, 0.3, 0.3, 0.3]), 0.6, 0.6)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
CLOSED_FORM_ENTRY_POINTS = {
    "entanglement_grid": lambda c, a, b: entanglement_grid(c, [0.2, a], [b]),
    "spectrum": spectrum,
    "entanglement_at": entanglement_at,
    "partial_derivatives": partial_derivatives,
}


@pytest.mark.parametrize("entry", sorted(CLOSED_FORM_ENTRY_POINTS))
@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_closed_form_rejects_non_finite_angle(entry, bad, name):
    angles = {"alpha": 0.3, "beta": 0.4, name: bad}
    with pytest.raises(DomainError, match=f"{name}={bad!r} must be finite"):
        CLOSED_FORM_ENTRY_POINTS[entry](gate(0.6, 0.3), angles["alpha"], angles["beta"])


class TestEntanglementAt:
    def test_identity_gate(self):
        assert entanglement_at(PauliCoefficients(1, 0, 0, 0), 0.7, 0.2) == pytest.approx(
            0.0, abs=1e-12)

    def test_swap_balanced(self):
        assert entanglement_at(gate(pi / 4, pi / 4), pi / 4, pi / 4) == pytest.approx(
            2.0, abs=1e-12)

    def test_reflection_symmetry(self, rng):
        c = gate(0.55, 0.25)
        for _ in range(50):
            a, b = rng.uniform(0.0, pi / 2, 2)
            assert entanglement_at(c, a, b) == pytest.approx(
                entanglement_at(c, pi / 2 - a, pi / 2 - b), abs=1e-12)


class TestBoundaryMaximum:
    def test_swap_branch(self):
        res = boundary_maximum(pi / 4, pi / 4)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.diagnostics["branch"] == "cos(2x+2y)<=0"

    def test_small_angle_branch(self):
        x, y = 0.1, 0.05
        c = gate(x, y)
        res = boundary_maximum(x, y)
        e44 = entanglement_at(c, pi / 4, pi / 4)
        e0 = shannon_entropy([abs(c.c0 - c.c3) ** 2, abs(c.c1 + c.c2) ** 2])
        assert res.diagnostics["branch"] == "cos(2x+2y)>0"
        assert res.value == pytest.approx(max(e44, e0), abs=1e-12)

    def test_product_edge_closed_form(self, rng):
        for _ in range(30):
            x, y, _ = random_chamber(rng)
            c = gate(x, y)
            expected = shannon_entropy(
                [np.cos(x + y) ** 2, np.sin(x + y) ** 2])
            assert entanglement_at(c, 0.0, pi / 2) == pytest.approx(
                expected, abs=1e-12)

    def test_shared_table_with_solver(self, rng):
        # the solver is the boundary table plus the line interior
        q = pi / 4
        points = [(x, rng.uniform(0.0, x)) for x in rng.uniform(0.0, q, 200)]
        points += [(x, 0.0) for x in rng.uniform(0.05, q, 10)]
        points += [(x, x) for x in rng.uniform(0.0, q, 10)]
        points += [(x, q - x) for x in rng.uniform(q / 2, q, 10)]
        points += [(q, 0.0), (q, q), (q / 2, q / 2)]
        edge_labels = ("maximally entangled (alpha=pi/4)",
                       "product (alpha=0 line edge)", "balanced boundary (alpha=0)")
        for x, y in points:
            res = entangling_power_c2eqc3(x, y)
            bound = boundary_maximum(x, y)
            assert res.value >= bound.value - 1e-15
            if res.critical in edge_labels:
                assert res.value == pytest.approx(bound.value, abs=1e-12)
            if res.method != "rank2_dispatch":
                assert res.diagnostics["branch"] == bound.diagnostics["branch"]


class TestPartialDerivatives:
    def test_flat_at_balanced_point(self):
        fa, fb = partial_derivatives(gate(0.6, 0.3), pi / 4, pi / 4)
        assert abs(fa) <= 1e-12 and abs(fb) <= 1e-12

    def test_matches_finite_differences(self):
        c = gate(0.6, 0.3)
        fa, fb = partial_derivatives(c, 0.3, 0.5)
        h = 1e-5
        fd_a = (entanglement_at(c, 0.3 + h, 0.5) - entanglement_at(c, 0.3 - h, 0.5)) / (2 * h)
        fd_b = (entanglement_at(c, 0.3, 0.5 + h) - entanglement_at(c, 0.3, 0.5 - h)) / (2 * h)
        assert fa == pytest.approx(fd_a, abs=1e-6)
        assert fb == pytest.approx(fd_b, abs=1e-6)

    def test_sign_matches_line_slope(self):
        c = gate(0.6, 0.3)
        a = 0.7 * pi / 4
        fa, fb = partial_derivatives(c, a, pi / 2 - a)
        h = 1e-6
        slope = (line_profile_value(c, a + h) - line_profile_value(c, a - h)) / (2 * h)
        # moving along the line changes alpha by +1 and beta by -1
        assert np.sign(fa - fb) == np.sign(slope)

    def test_degenerate_spectrum_rejected(self):
        # equal-tail gates have a coincident pair on the diagonal beta=alpha
        c = gate(0.3, 0.3, 0.3)
        with pytest.raises(DomainError):
            partial_derivatives(c, 0.3, 0.3)

    def test_constants_ordering(self, rng):
        for _ in range(100):
            b, _, _, _, l1, l2 = epower2q._constants(gate(*random_chamber(rng)))
            assert l1 >= l2 - 1e-12
            assert b >= 0.5 - 1e-12


def test_constants_are_kept_per_object_not_per_value():
    # equal coefficients that differ in the sign of a zero give a k of
    # +0.0 and -0.0; a cache keyed by value would hand one the other's
    plus = PauliCoefficients(1.0, 0.0, 0.0, 0.0)
    minus = PauliCoefficients(1.0, 0.0, 0.0, complex(-0.0, -0.0))
    assert plus == minus
    k_plus = epower2q._constants(plus)[2]
    k_minus = epower2q._constants(minus)[2]
    assert (np.signbit(k_plus), np.signbit(k_minus)) == (False, True)
    assert epower2q._constants(plus) is epower2q._constants(plus)


class TestLineProfile:
    def test_balanced_edge_equals_strength(self):
        c = gate(0.6, 0.3)
        assert line_profile_value(c, pi / 4) == pytest.approx(
            schmidt_strength(c), abs=1e-12)

    def test_product_edge(self):
        c = gate(0.6, 0.3)
        expected = shannon_entropy([abs(c.c0 - c.c3) ** 2, abs(c.c1 + c.c2) ** 2])
        assert line_profile_value(c, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_general_formula(self, rng):
        c = gate(0.6, 0.3)
        for a in rng.uniform(0.0, pi / 4, 50):
            assert line_profile_value(c, a) == pytest.approx(
                entanglement_at(c, a, pi / 2 - a), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            line_profile_value(gate(0.6, 0.3), 1.0)

    @pytest.mark.parametrize("bad", [1.0, -1e-11, pi / 4 + 1e-11, float("nan")])
    def test_both_paths_reject_the_same_alphas(self, bad):
        c = gate(0.6, 0.3)
        with pytest.raises(DomainError):
            line_profile_value(c, bad)
        with pytest.raises(DomainError):
            line_profile_values(c, [0.2, bad])
        with pytest.raises(DomainError):
            line_profile_values(c, bad)

    def test_both_paths_accept_rounding_slack(self):
        c = gate(0.6, 0.3)
        for a in (-1e-13, pi / 4 + 1e-13):
            assert line_profile_values(c, [a])[0] == pytest.approx(
                line_profile_value(c, a), abs=1e-15)

    def test_default_grid_is_the_solver_grid(self):
        c = gate(0.6, 0.3)
        alphas = np.linspace(0.0, pi / 4, epower2q.LINE_GRID_N)
        assert line_profile_values(c).tobytes() == line_profile_values(c, alphas).tobytes()

    def test_cached_grid_is_fresh_and_read_only(self):
        alphas, cc, s_sq = epower2q._line_grid()
        fresh = np.linspace(0.0, pi / 4, epower2q.LINE_GRID_N)
        assert alphas.tobytes() == fresh.tobytes()
        assert cc.tobytes() == (-np.cos(2 * fresh) ** 2).tobytes()
        assert s_sq.tobytes() == (np.sin(2 * fresh) ** 4).tobytes()
        for arr in (alphas, cc, s_sq):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_vectorized_matches_scalar(self):
        c = gate(0.5, 0.1)
        alphas = np.linspace(0.0, pi / 4, 17)
        vec = line_profile_values(c, alphas)
        scal = [line_profile_value(c, a) for a in alphas]
        np.testing.assert_allclose(vec, scal, atol=1e-15)


class TestEntanglingPower:
    def test_swap(self):
        res = entangling_power_c2eqc3(pi / 4, pi / 4)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.critical_alpha == pytest.approx(pi / 4)

    def test_controlled_phase_dispatch(self):
        res = entangling_power_c2eqc3(pi / 4, 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.method == "rank2_dispatch"

    def test_identity_gate(self):
        res = entangling_power_c2eqc3(0.0, 0.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_dispatch_agrees_with_line_formula(self, rng):
        # for y=0 the line profile is flat at the dispatched value
        for x in rng.uniform(0.05, pi / 4, 10):
            res = entangling_power_c2eqc3(x, 0.0)
            expected = shannon_entropy([np.cos(x) ** 2, np.sin(x) ** 2])
            assert res.value == pytest.approx(expected, abs=1e-12)

    def test_chamber_violation(self):
        with pytest.raises(DomainError):
            entangling_power_c2eqc3(0.2, 0.3)

    def test_value_dominates_schmidt_strength(self, rng):
        for _ in range(25):
            x, y, _ = random_chamber(rng)
            res = entangling_power_c2eqc3(x, y)
            assert res.value >= schmidt_strength(gate(x, y)) - 1e-9


def _count_calls(monkeypatch, name):
    """Replace ``epower2q.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(epower2q, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(epower2q, name, counted)
    return calls


def test_line_search_calls_module_level_profiles(monkeypatch):
    # the solver reaches both profiles through the module globals, so a
    # wrapper installed there sees one grid call and every golden step
    grid_calls = _count_calls(monkeypatch, "line_profile_values")
    point_calls = _count_calls(monkeypatch, "line_profile_value")
    entangling_power_c2eqc3(0.6, 0.3)
    assert len(grid_calls) == 1
    assert len(point_calls) == 35


@pytest.mark.parametrize("x, y", [(0.6, 0.3), (pi / 4, pi / 4), (0.3, 0.3), (0.7, 0.01)])
def test_line_diagnostics_count_and_time_the_stages(monkeypatch, x, y):
    point_calls = _count_calls(monkeypatch, "line_profile_value")
    d = entangling_power_c2eqc3(x, y).diagnostics
    assert d["line_evaluations"] == len(point_calls)
    assert sorted(d["timings"]) == ["grid_s", "refine_s"]
    assert all(t >= 0.0 for t in d["timings"].values())


class TestConjectureGap:
    def test_symmetric_point(self):
        assert conjecture_gap(pi / 4, pi / 4) <= 1e-9

    def test_generic_gate(self):
        assert conjecture_gap(0.3, 0.1) <= 1e-9

    def test_random_sample(self, rng):
        for _ in range(20):
            x, y, _ = random_chamber(rng, strict=True)
            assert conjecture_gap(x, y) <= 1e-9


class TestExample1:
    def test_threshold_location(self):
        assert example1_threshold() == pytest.approx(0.1018, abs=5e-4)

    def test_small_angle_uses_product_state(self):
        res = example1_power(0.05)
        expected = shannon_entropy([np.cos(0.1) ** 2, np.sin(0.1) ** 2])
        assert res.value == pytest.approx(expected, abs=1e-13)
        assert res.critical_alpha == 0.0

    def test_symmetric_point(self):
        assert example1_power(pi / 4).value == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_line_scan(self):
        for x in (0.05, 0.08, 0.15, 0.5, pi / 4):
            assert example1_power(x).value == pytest.approx(
                entangling_power_c2eqc3(x, x).value, abs=1e-9)

    def test_strict_gap_over_strength_below_threshold(self):
        for x in (0.05, 0.08):
            res = example1_power(x)
            assert res.value > schmidt_strength(gate(x, x, x))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            example1_power(0.0)
        with pytest.raises(DomainError):
            example1_power(1.0)


class TestExample2:
    def test_octant_value(self):
        expected = 3.0 - 0.75 * np.log2(3.0)  # H(3/8, 3/8, 1/8, 1/8)
        assert example2_power(pi / 8).value == pytest.approx(expected, abs=1e-13)

    def test_small_angle_limit_is_one_ebit(self):
        assert example2_power(1e-6).value == pytest.approx(1.0, abs=1e-9)

    def test_at_least_one_ebit(self):
        for y in np.linspace(0.01, pi / 4 - 0.01, 25):
            assert example2_power(y).value >= 1.0 - 1e-12

    def test_agrees_with_line_scan(self):
        for y in (0.2, pi / 8, 0.7):
            assert example2_power(y).value == pytest.approx(
                entangling_power_c2eqc3(pi / 4, y).value, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            example2_power(pi / 4)


class TestLineDerivative:
    def test_matches_finite_difference(self):
        for yv, csq in [(0.0, 0.15), (0.37, 0.08), (-0.5, 0.2)]:
            h = 1e-6
            fd = (example1_line_entropy(yv + h, csq)
                  - example1_line_entropy(yv - h, csq)) / (2 * h)
            assert e2_derivative(yv, csq) == pytest.approx(fd, abs=1e-6)

    def test_profile_matches_line_scan(self, rng):
        x = 0.35
        c = gate(x, x, x)
        csq = np.sin(x) ** 2 * np.cos(x) ** 2
        for a in rng.uniform(0.0, pi / 4, 25):
            yv = -np.cos(4 * a)
            assert example1_line_entropy(yv, csq) == pytest.approx(
                line_profile_value(c, a), abs=1e-12)

    def test_endpoints_rejected(self):
        with pytest.raises(DomainError):
            e2_derivative(1.0, 0.1)
        with pytest.raises(DomainError):
            e2_derivative(-1.0, 0.1)

    def test_limit_values(self):
        csq = 0.11
        assert e2_derivative_limit_upper(csq) == pytest.approx(
            2 * csq / np.log(2.0), abs=1e-15)
        expected = csq * (np.log2(4 * csq) - np.log2(1 - 4 * csq))
        assert e2_derivative_limit_lower(csq) == pytest.approx(expected, abs=1e-15)

    def test_limits_continue_the_derivative(self):
        # one-sided finite differences of the profile approach the limits
        for csq in (0.05, 0.2):
            eps = 1e-7
            upper_fd = (example1_line_entropy(1.0, csq)
                        - example1_line_entropy(1.0 - eps, csq)) / eps
            assert upper_fd == pytest.approx(
                e2_derivative_limit_upper(csq), abs=1e-4)


class TestExample2Monotonicity:
    def test_derivative_matches_finite_difference(self):
        y = 0.3
        c = gate(pi / 4, y)
        h = 1e-6

        def pair_sum(u):
            a = 0.5 * np.arccos(np.sqrt(u))
            lam = spectrum(c, a, pi / 2 - a).lam
            return lam[1] + lam[3]

        for u in (0.2, 0.5, 0.8):
            fd = (pair_sum(u + h) - pair_sum(u - h)) / (2 * h)
            assert example2_pair_sum_derivative(u, y) == pytest.approx(fd, abs=1e-5)

    def test_nonnegative_on_grid(self):
        for y in (0.1, 0.3, 0.6):
            us = np.linspace(0.0, 1.0, 1001)
            vals = [example2_pair_sum_derivative(u, y) for u in us]
            assert min(vals) >= -1e-12

    def test_pair_sum_nondecreasing(self):
        c = gate(pi / 4, 0.3)
        us = np.linspace(0.0, 1.0, 1001)
        alphas = 0.5 * np.arccos(np.sqrt(us))
        lam = np.array([spectrum(c, a, pi / 2 - a).lam for a in alphas])
        sums = lam[:, 1] + lam[:, 3]
        assert np.all(np.diff(sums) >= -1e-12)


def test_equal_angle_diagonal_majorization(rng):
    for _ in range(50):
        x, y, _ = random_chamber(rng, strict=True)
        c = gate(x, y)
        a = rng.uniform(0.0, pi / 4)
        assert majorizes(c.moduli_squared(), spectrum(c, a, a).lam)
        assert entanglement_at(c, a, a) <= entanglement_at(c, pi / 4, pi / 4) + 1e-12


def test_two_dim_surface_never_beats_line(rng):
    alphas = np.linspace(0.0, pi / 4, 201)
    betas = np.linspace(0.0, pi / 2, 401)
    for _ in range(10):
        x, y, _ = random_chamber(rng, strict=True)
        c = gate(x, y)
        surface = entanglement_grid(c, alphas, betas).max()
        line = line_profile_values(c, alphas).max()
        assert surface - line <= 1e-6


def test_product_input_validation():
    with pytest.raises(DomainError):
        ProductInputParams(alpha=2.0, beta=0.0)
    with pytest.raises(DomainError):
        ProductInputParams(alpha=0.1, beta=0.1, mu=0.0)
    with pytest.raises(DomainError):
        ProductInputParams(alpha=0.1, beta=0.1, theta=7.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "theta", "xi", "mu", "nu"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_product_input_rejects_non_finite(field, bad):
    kwargs = {"alpha": 0.1, "beta": 0.1, field: bad}
    with pytest.raises(DomainError):
        ProductInputParams(**kwargs)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _solver_points():
    """Seeded chamber points (x, y): generic gates, y = 0, x = y = z,
    x = pi/4, and a few named ones."""
    rng = np.random.default_rng(1804)
    points = [(0.0, 0.0), (pi / 4, pi / 4), (pi / 4, 0.0), (pi / 8, pi / 8), (0.6, 0.3)]
    points += [random_chamber(rng)[:2] for _ in range(200)]
    points += [(x, 0.0) for x in rng.uniform(0.0, pi / 4, 30)]
    points += [(x, x) for x in rng.uniform(0.0, pi / 4, 40)]
    points += [(pi / 4, y) for y in rng.uniform(0.0, pi / 4, 40)]
    return points


# SHA-256 of the reprs below, recorded with the numpy 0-d line profile
# that the scalar one replaced; any moved bit in the solver shows here.
SOLVER_DIGEST = "594e768570cad2f53fb6daf24d9553a48059605cf03aacef33574aa7a893da17"
LINE_PROFILE_DIGEST = "a17f2743cdceb13412feb17786614c10589234aff69590a8acda2909019ba771"


def test_solver_output_digest():
    lines = []
    for x, y in _solver_points():
        r = entangling_power_c2eqc3(x, y)
        d = r.diagnostics
        lines.append(repr((x, y, r.value, r.method, r.critical, r.critical_alpha,
                           r.critical_beta, d.get("branch"), d.get("line_max"),
                           d.get("line_argmax"), d.get("edge_values"))))
    assert len(lines) >= 300
    assert _digest(lines) == SOLVER_DIGEST


def test_line_profile_digest():
    rng = np.random.default_rng(1805)
    lines = []
    for _ in range(100):
        x, y, _ = random_chamber(rng)
        c = gate(x, y)
        for a in [0.0, pi / 4, *rng.uniform(0.0, pi / 4, 98)]:
            lines.append(repr((x, y, float(a), line_profile_value(c, a))))
    assert len(lines) == 10_000
    assert _digest(lines) == LINE_PROFILE_DIGEST


def _array_gates():
    """Fifty seeded chamber gates (x, y) for the array paths of the closed
    form: generic ones, y = x, x = pi/4 and a few named ones."""
    rng = np.random.default_rng(1606)
    points = [(0.0, 0.0), (pi / 4, pi / 4), (pi / 4, 0.0), (0.6, 0.3)]
    points += [random_chamber(rng)[:2] for _ in range(30)]
    points += [(x, x) for x in rng.uniform(0.0, pi / 4, 8)]
    points += [(pi / 4, y) for y in rng.uniform(0.0, pi / 4, 8)]
    return points


def _arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _solver_grid_profiles():
    return [line_profile_values(gate(x, y)) for x, y in _array_gates()]


def _seeded_alpha_profiles():
    rng = np.random.default_rng(1607)
    return [line_profile_values(gate(x, y), rng.uniform(0.0, pi / 4, n))
            for x, y in _array_gates() for n in (1, 2, 7, 401)]


def _seeded_outer_grids():
    rng = np.random.default_rng(1608)
    return [entanglement_grid(gate(x, y), rng.uniform(0.0, pi / 2, na),
                              rng.uniform(0.0, pi / 2, nb))
            for x, y in _array_gates() for na, nb in ((1, 1), (3, 5), (17, 11))]


# SHA-256 of the shapes and bytes of the closed-form spectrum's array
# paths, recorded with the spectrum laid out points-first as a C-ordered
# (..., 4) array; any moved bit shows here.
ARRAY_DIGESTS = {
    "outer_grid": "f973e22cf95fa8e4e03813f991ed70a055134a9fd112297961e38ffabfd4551b",
    "seeded_alphas": "2d3377027d587792397fa823dfd3f5936418a7bffbf49b7d9958ffae06a7a0f1",
    "solver_grid": "3e7a9fb97352ab4a59cbc1ce543105d7f443bc7c36f1b1efd7db6c2c243d3838",
}
ARRAY_PANELS = {"outer_grid": _seeded_outer_grids, "seeded_alphas": _seeded_alpha_profiles,
                "solver_grid": _solver_grid_profiles}


@pytest.mark.parametrize("panel", sorted(ARRAY_DIGESTS))
def test_closed_form_array_digest(panel):
    assert len(_array_gates()) == 50
    assert _arrays_digest(ARRAY_PANELS[panel]()) == ARRAY_DIGESTS[panel]


def test_scalar_line_profile_keeps_entropy_bits(monkeypatch):
    # line_profile_value sums its spectrum in Python floats; the value must
    # be the bits entropy_bits gives on that spectrum as a 4-vector
    spectra = []

    def recorded(p):
        spectra.append(p)
        return entropy_bits4(p)

    monkeypatch.setattr(epower2q, "entropy_bits4", recorded)
    rng = np.random.default_rng(1702)
    for _ in range(100):
        x, y, _ = random_chamber(rng)
        c = gate(x, y)
        for a in [0.0, pi / 4, *rng.uniform(0.0, pi / 4, 48)]:
            v = line_profile_value(c, a)
            assert type(v) is float
            want = entropy_bits(np.array(spectra[-1]))
            assert np.float64(v).tobytes() == want.tobytes()
    assert len(spectra) == 5_000


def _golden_gates():
    """About 200 seeded chamber gates (x, y) with y > 0, so each runs the
    golden search: generic ones, y = x and x = pi/4."""
    rng = np.random.default_rng(1701)
    points = [(0.6, 0.3), (pi / 4, pi / 4), (pi / 8, pi / 8), (0.7, 0.01)]
    points += [random_chamber(rng, strict=True)[:2] for _ in range(156)]
    points += [(x, x) for x in rng.uniform(1e-3, pi / 4, 20)]
    points += [(pi / 4, y) for y in rng.uniform(1e-3, pi / 4, 20)]
    return points


# SHA-256 of every (alpha, value) pair the golden search passed to its
# function and got back, and of its (repr(argmax), max, nfev), recorded
# with the search on numpy scalars; any moved point or bit shows here.
GOLDEN_TRACE_DIGEST = "5aacbaca1cbe42ab5dbfd48796f81add6e38be6e8a861a33eb776e47d4bebe5b"


def test_golden_search_trace_digest(monkeypatch):
    golden = epower2q._golden_max
    lines = []

    def traced(f, lo, hi):
        def g(a):
            v = f(a)
            lines.append(repr((float(a), float(v))))
            return v

        a_star, v_star, nfev = golden(g, lo, hi)
        lines.append(repr((repr(a_star), float(v_star), nfev)))
        return a_star, v_star, nfev

    monkeypatch.setattr(epower2q, "_golden_max", traced)
    gates = _golden_gates()
    for x, y in gates:
        entangling_power_c2eqc3(x, y)
    assert len(gates) == 200
    assert len(lines) == 36 * len(gates)
    assert _digest(lines) == GOLDEN_TRACE_DIGEST
