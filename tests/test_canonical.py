import numpy as np
import pytest
from math import pi

from epower.canonical import (
    CanonicalParams,
    PauliCoefficients,
    assemble_unitary,
    coefficients_from_xyz,
    commutant_unitary,
    schmidt_rank,
    schmidt_strength,
    verify_identities,
    x_shaped_matrix,
)
from epower.qmath import DomainError, shannon_entropy

from conftest import align_global_phase, random_chamber

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestChamber:
    def test_accepts_boundaries(self):
        CanonicalParams(pi / 4, pi / 4, pi / 4)
        CanonicalParams(0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "xyz,fragment",
        [((0.9, 0.1, 0.1), "x <= pi/4"),
         ((0.3, 0.4, 0.1), "x >= y"),
         ((0.3, 0.1, 0.2), "y >= z"),
         ((0.3, 0.2, -0.1), "z >= 0")],
    )
    def test_violations_name_inequality(self, xyz, fragment):
        with pytest.raises(DomainError, match=fragment.replace("<=", "<=")):
            CanonicalParams(*xyz)

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, index, bad):
        xyz = [0.3, 0.2, 0.1]
        xyz[index] = bad
        with pytest.raises(DomainError, match="finite"):
            CanonicalParams(*xyz)

    def test_strict_flag(self):
        assert CanonicalParams(0.5, 0.3, 0.1).strict
        assert not CanonicalParams(0.5, 0.0, 0.0).strict
        assert not CanonicalParams(pi / 4, pi / 4, 0.1).strict


class TestCoefficients:
    def test_identity_gate(self):
        c = coefficients_from_xyz(CanonicalParams(0, 0, 0))
        np.testing.assert_allclose(c.as_array(), [1, 0, 0, 0], atol=1e-15)

    def test_single_angle(self):
        x = 0.3
        c = coefficients_from_xyz(CanonicalParams(x, 0, 0))
        np.testing.assert_allclose(
            c.as_array(), [np.cos(x), 1j * np.sin(x), 0, 0], atol=1e-15)

    def test_symmetric_point_moduli(self):
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        np.testing.assert_allclose(c.moduli_squared(), [0.25] * 4, atol=1e-15)

    def test_normalization_random(self, rng):
        for _ in range(200):
            c = coefficients_from_xyz(CanonicalParams(*random_chamber(rng)))
            assert abs((c.moduli_squared()).sum() - 1.0) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            PauliCoefficients(1.0, 1.0, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            PauliCoefficients(float("nan"), 0.0, 0.0, 0.0)


class TestAssemble:
    def test_identity(self):
        U = assemble_unitary(PauliCoefficients(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(U, np.eye(4), atol=1e-15)

    def test_swap_up_to_global_phase(self):
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        U = align_global_phase(assemble_unitary(c), SWAP)
        np.testing.assert_allclose(U, SWAP, atol=1e-12)

    def test_controlled_phase_equivalence(self):
        # x=pi/4, y=z=0 is a controlled phase diag(1,1,1,e^{4ix}) up to
        # explicit local unitaries (Hadamards plus diagonal phases)
        x = pi / 4
        c = coefficients_from_xyz(CanonicalParams(x, 0, 0))
        U = assemble_unitary(c)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        d = np.diag([1.0, np.exp(2j * x)])
        dressed = np.kron(d, d) @ np.kron(h, h) @ U @ np.kron(h, h)
        target = np.diag([1.0, 1.0, 1.0, np.exp(4j * x)])
        np.testing.assert_allclose(
            align_global_phase(dressed, target), target, atol=1e-12)

    def test_matches_x_shaped_matrix(self, rng):
        for _ in range(50):
            x, y, _ = random_chamber(rng)
            c = coefficients_from_xyz(CanonicalParams(x, y, y))
            np.testing.assert_allclose(
                assemble_unitary(c), x_shaped_matrix(x, y), atol=1e-12)

    def test_rejects_nonunitary_coefficients(self):
        # normalized moduli but not a unitary assembly
        with pytest.raises(DomainError):
            assemble_unitary(PauliCoefficients(np.sqrt(0.5), np.sqrt(0.5), 0, 0))


class TestIdentities:
    def test_symmetric_point(self):
        rep = verify_identities(CanonicalParams(pi / 4, pi / 4, pi / 4))
        assert rep.max_residual <= 1e-12
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        mass = abs(c.c0) ** 2 + abs(c.c3) ** 2
        assert mass == pytest.approx(0.5, abs=1e-15)

    def test_generic_point(self):
        rep = verify_identities(CanonicalParams(0.7, 0.5, 0.3))
        assert rep.max_residual <= 1e-12
        assert rep.strict_window

    def test_cross_term_value(self):
        c = coefficients_from_xyz(CanonicalParams(0.5, 0.4, 0.4))
        k = (c.c0 * np.conj(c.c3) + np.conj(c.c0) * c.c3).real
        assert k == pytest.approx(0.5 * np.sin(1.0) * np.sin(0.8), abs=1e-15)
        assert k > 0

    def test_thousand_random_points(self, rng):
        worst = 0.0
        for _ in range(1000):
            rep = verify_identities(CanonicalParams(*random_chamber(rng)))
            worst = max(worst, rep.max_residual)
        assert worst <= 1e-12

    def test_equal_modulus_consequence(self, rng):
        # |c0| = |c1| at x = pi/4 forces |c2| = |c3|
        for _ in range(50):
            y = rng.uniform(0.0, pi / 4)
            z = rng.uniform(0.0, y)
            c = coefficients_from_xyz(CanonicalParams(pi / 4, y, z))
            assert abs(abs(c.c0) - abs(c.c1)) <= 1e-10
            assert abs(abs(c.c2) - abs(c.c3)) <= 1e-10
        # |c0| = |c3| at z = pi/4 forces |c1| = |c2| (all angles pi/4)
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        assert abs(abs(c.c1) - abs(c.c2)) <= 1e-10


class TestSchmidtRank:
    def test_rank_one(self):
        assert schmidt_rank(PauliCoefficients(1, 0, 0, 0)) == 1

    def test_rank_two(self):
        c = coefficients_from_xyz(CanonicalParams(0.3, 0, 0))
        assert schmidt_rank(c) == 2

    def test_rank_four(self):
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        assert schmidt_rank(c) == 4

    def test_strict_window_with_positive_z_gives_rank_four(self, rng):
        for _ in range(100):
            x, y, z = random_chamber(rng, strict=True)
            if z <= 1e-6:
                z = y / 2
            c = coefficients_from_xyz(CanonicalParams(x, y, z))
            assert schmidt_rank(c) == 4


class TestSchmidtStrength:
    def test_rank_one_gate(self):
        assert schmidt_strength(PauliCoefficients(1, 0, 0, 0)) == 0.0

    def test_uniform_moduli(self):
        c = coefficients_from_xyz(CanonicalParams(pi / 4, pi / 4, pi / 4))
        assert schmidt_strength(c) == pytest.approx(2.0, abs=1e-12)

    def test_equal_tail_family_formula(self):
        x = 0.3
        c = coefficients_from_xyz(CanonicalParams(x, x, x))
        sc = np.sin(x) ** 2 * np.cos(x) ** 2
        expected = shannon_entropy(
            [np.cos(x) ** 6 + np.sin(x) ** 6, sc, sc, sc])
        assert schmidt_strength(c) == pytest.approx(expected, abs=1e-13)


def test_commutant_commutes_with_equal_tail_gates(rng):
    for _ in range(50):
        x, y, _ = random_chamber(rng)
        U = assemble_unitary(coefficients_from_xyz(CanonicalParams(x, y, y)))
        gamma = rng.uniform(0.0, 2 * pi)
        V = commutant_unitary(gamma)
        assert np.abs(V @ V.conj().T - np.eye(2)).max() <= 1e-12
        VV = np.kron(V, V)
        assert np.abs(VV @ U - U @ VV).max() <= 1e-12
