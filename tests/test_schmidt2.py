import itertools

import numpy as np
import pytest
from math import pi

from hypothesis import given, strategies as st

from epower import schmidt2
from epower.qmath import DomainError
from epower.schmidt2 import (
    PhaseGateSpec,
    _simplex_grid,
    SimplexWeights,
    ebits_from_quadratic_max,
    entangling_power_phase_gate,
    m_matrix,
    n3_closed_form,
    phase_gate_matrix,
    rank3_certificate,
    rank_bound_check,
    rank_one_parts,
    simplex_oracle,
    y_value,
)

EQUILATERAL = (0.0, 2 * pi / 3, 4 * pi / 3)
# an antipodal pair plus a near-copy of one end: the stationary weights
# sum to 1 - 1.2e-10 here
NEAR_ANTIPODAL = (8.464810659186385, -0.9599673015830934, -7.2431488711143865)
# the solver's diagnostics hold its maximum and the weights or pair at it, no oracle
SOLVER_DIAGNOSTICS = ({"weights", "case", "max_y"}, {"pair", "case", "max_y"})


def oracle_gap(spec, value):
    """Simplex-oracle value minus ``value``, in ebits, with the oracle's
    maximum clipped to 1/4 as ``compute --verify`` does."""
    oracle_y, _ = simplex_oracle(spec)
    return ebits_from_quadratic_max(min(oracle_y, 0.25)) - value


def near_antipodal_triple(rng):
    """Phases a, a + pi + d1 and a near-copy of the second, 2 pi aliased."""
    a = rng.uniform(-7.0, 7.0)
    d1 = rng.choice([-1, 1]) * 10 ** rng.uniform(-16, -6)
    d2 = rng.choice([-1, 1]) * 10 ** rng.uniform(-7, -4)
    k1, k2 = rng.integers(-2, 3, 2)
    th = [a, a + pi + d1 + 2 * pi * k1, a + pi + d1 + d2 + 2 * pi * k2]
    rng.shuffle(th)
    return tuple(th)


class TestYValue:
    def test_concentrated_weight_vanishes(self):
        spec = PhaseGateSpec((0.3, 1.1, 2.9))
        assert y_value(spec, SimplexWeights((1.0, 0.0, 0.0))) == 0.0

    def test_opposed_pair(self):
        spec = PhaseGateSpec((0.0, pi))
        assert y_value(spec, SimplexWeights((0.5, 0.5))) == pytest.approx(
            0.25, abs=1e-15)

    def test_equilateral_uniform(self):
        spec = PhaseGateSpec(EQUILATERAL)
        w = SimplexWeights((1 / 3, 1 / 3, 1 / 3))
        assert y_value(spec, w) == pytest.approx(0.25, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            y_value(PhaseGateSpec((0.0, pi)), SimplexWeights((1 / 3,) * 3))

    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_equals_half_quadratic_form(self, n, seed):
        gen = np.random.default_rng(seed)
        spec = PhaseGateSpec(tuple(gen.uniform(0, 2 * pi, n)))
        w = gen.dirichlet(np.ones(n))
        direct = y_value(spec, SimplexWeights(tuple(w)))
        quad = 0.5 * w @ m_matrix(spec) @ w
        assert direct == pytest.approx(quad, abs=1e-14)
        assert -1e-15 <= direct <= 0.25 + 1e-12


@pytest.mark.parametrize("c", [(-0.5, 1.5), (0.5, 0.6), (float("nan"), 1.0)])
def test_simplex_weights_reject(c):
    with pytest.raises(DomainError):
        SimplexWeights(c)


class TestMMatrix:
    def test_opposed_pair(self):
        np.testing.assert_allclose(
            m_matrix(PhaseGateSpec((0.0, pi))), [[0, 1], [1, 0]], atol=1e-15)

    def test_equilateral(self):
        m = m_matrix(PhaseGateSpec(EQUILATERAL))
        np.testing.assert_allclose(m - np.diag(np.diag(m)),
                                   0.75 * (np.ones((3, 3)) - np.eye(3)), atol=1e-14)

    def test_rank_at_most_three(self, rng):
        for _ in range(30):
            spec = PhaseGateSpec(tuple(rng.uniform(0, 2 * pi, 12)))
            assert np.linalg.matrix_rank(m_matrix(spec), tol=1e-9) <= 3


class TestRankBound:
    def test_opposed_pair_rank_two(self):
        assert rank_bound_check(PhaseGateSpec((0.0, pi))) == 2

    def test_equal_phases_rank_zero(self):
        assert rank_bound_check(PhaseGateSpec((0.7, 0.7, 0.7))) == 0

    def test_random_specs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            spec = PhaseGateSpec(tuple(rng.uniform(0, 2 * pi, n)))
            assert rank_bound_check(spec) <= 3

    def test_rank_one_reconstruction(self, rng):
        spec = PhaseGateSpec(tuple(rng.uniform(0, 2 * pi, 9)))
        p1, p2, p3 = rank_one_parts(spec)
        assert np.abs(m_matrix(spec) - (p1 + p2 + p3)).max() <= 1e-12
        for p in (p1, p2, p3):
            assert np.linalg.matrix_rank(p, tol=1e-12) <= 1


class TestN3ClosedForm:
    def test_equilateral_interior(self):
        res = n3_closed_form(*EQUILATERAL)
        assert res.case == "interior"
        assert res.max_y == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(res.weights, [1 / 3] * 3, atol=1e-12)
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-10)

    def test_clustered_phases_boundary(self):
        res = n3_closed_form(0.0, 0.2, 0.4)
        assert res.case == "pair"
        assert res.pair == (0, 2)
        assert res.max_y == pytest.approx(0.25 * np.sin(0.2) ** 2, abs=1e-15)

    def test_degenerate_product_routes_to_pair(self):
        res = n3_closed_form(0.0, pi, pi)
        assert res.case == "pair"
        assert res.max_y == pytest.approx(0.25, abs=1e-15)

    def test_near_antipodal_interior(self):
        res = n3_closed_form(*NEAR_ANTIPODAL)
        assert res.case == "interior"
        assert res.max_y == 0.25
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-9)

    def test_near_antipodal_family_matches_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            th = near_antipodal_triple(rng)
            closed = ebits_from_quadratic_max(n3_closed_form(*th).max_y)
            oracle_y, _ = simplex_oracle(PhaseGateSpec(th))
            worst = max(worst, abs(closed - ebits_from_quadratic_max(min(oracle_y, 0.25))))
        assert worst <= 1e-9

    def test_matches_oracle_on_random_triples(self, rng):
        worst = 0.0
        for _ in range(100):
            th = tuple(rng.uniform(0, 2 * pi, 3))
            closed = n3_closed_form(*th).max_y
            oracle_y, _ = simplex_oracle(PhaseGateSpec(th))
            worst = max(worst, abs(closed - oracle_y))
        assert worst <= 1e-6


class TestEntanglingPowerPhaseGate:
    def test_opposed_pair_gives_one_ebit(self):
        res = entangling_power_phase_gate(PhaseGateSpec((0.0, pi)))
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_equilateral_gives_one_ebit(self):
        res = entangling_power_phase_gate(PhaseGateSpec(EQUILATERAL))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_clustered_phases_value(self):
        res = entangling_power_phase_gate(PhaseGateSpec((0.0, 0.2, 0.4)))
        expected = ebits_from_quadratic_max(0.25 * np.sin(0.2) ** 2)
        assert res.value == pytest.approx(expected, abs=1e-14)
        assert res.value == pytest.approx(0.0806, abs=2e-4)

    def test_four_phase_certificate(self):
        spec = PhaseGateSpec((0.0, pi / 2, pi, 3 * pi / 2))
        res = entangling_power_phase_gate(spec)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.diagnostics["case"] == "certificate"
        assert set(res.diagnostics) == SOLVER_DIAGNOSTICS[0]
        assert abs(oracle_gap(spec, res.value)) <= 1e-4

    def test_shift_and_permutation_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            th = rng.uniform(0, 2 * pi, n)
            base = entangling_power_phase_gate(PhaseGateSpec(tuple(th))).value
            shifted = entangling_power_phase_gate(
                PhaseGateSpec(tuple(th + rng.uniform(-5, 5)))).value
            permuted = entangling_power_phase_gate(
                PhaseGateSpec(tuple(rng.permutation(th)))).value
            assert shifted == pytest.approx(base, abs=1e-12)
            assert permuted == pytest.approx(base, abs=1e-12)

    def test_oracle_cross_check_clean_on_random_specs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            spec = PhaseGateSpec(tuple(rng.uniform(0, 2 * pi, n)))
            res = entangling_power_phase_gate(spec)
            assert set(res.diagnostics) in SOLVER_DIAGNOSTICS
            assert abs(oracle_gap(spec, res.value)) <= 1e-4

    def test_rejects_single_phase(self):
        with pytest.raises(DomainError):
            PhaseGateSpec((0.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_phase(self, bad):
        with pytest.raises(DomainError, match="finite"):
            PhaseGateSpec((0.0, 0.3, 2.0, bad))

    @pytest.mark.parametrize("thetas", [
        (1e308, -1e308), (1e308, -1e308, 0.0), (1e308, -1e308, 0.0, 1.0),
        (0.0, 1.7e308, -1e307)])
    def test_rejects_overflowing_phase_difference(self, thetas):
        with pytest.raises(DomainError, match="differences must be finite"):
            PhaseGateSpec(thetas)

    @pytest.mark.parametrize("thetas", [(8e307, -8e307), (8e307, -8e307, 0.0),
                                        (8e307, -8e307, 0.0, 1.0)])
    def test_accepts_large_finite_phase_difference(self, thetas):
        assert PhaseGateSpec(thetas).thetas == thetas
        assert 0.0 <= entangling_power_phase_gate(PhaseGateSpec(thetas)).value <= 1.0

    @pytest.mark.parametrize("thetas,case", [
        ((0.0, 0.5, 1.0, pi), "certificate"),
        ((0.0, 0.7, 2.0, pi - 1e-9), "pair"),
        ((0.0, 0.7, 2.0, pi - 1e-13), "certificate"),
        ((0.0, 0.7, 2.0, pi + 1e-7), "certificate"),
        ((0.0, 0.0, pi, pi), "pair"),
        ((0.0, 2.0, 2.0, 4.0), "certificate"),
        ((0.3, 0.3, 0.3, 1.0), "pair"),
        ((0.0, 2 * pi, 4 * pi, 0.5, -2 * pi), "pair"),
        ((0.0, 2.0 + 2 * pi, 4.0 - 4 * pi, 1.0), "certificate"),
        ((8.464810659186385, 8.464810659186385, -0.9599673015830934,
          -7.2431488711143865, -7.243207428011151), "certificate"),
    ])
    def test_largest_gap_boundary(self, thetas, case):
        res = entangling_power_phase_gate(PhaseGateSpec(thetas))
        assert res.diagnostics["case"] == case
        if case == "certificate":
            assert res.value == 1.0
        else:
            arc = max(abs(np.sin((a - b) / 2.0)) for a in thetas for b in thetas)
            assert res.value == pytest.approx(
                ebits_from_quadratic_max(0.25 * arc ** 2), abs=1e-14)


class TestEbitsMap:
    def test_monotone(self):
        ys = np.linspace(0.0, 0.25, 200)
        vals = [ebits_from_quadratic_max(y) for y in ys]
        assert np.all(np.diff(vals) > 0)

    def test_one_ebit_iff_quarter(self):
        assert ebits_from_quadratic_max(0.25) == pytest.approx(1.0, abs=1e-15)
        assert ebits_from_quadratic_max(0.25 - 1e-6) < 1.0 - 1e-7

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ebits_from_quadratic_max(0.3)


class TestSimplexOracle:
    def test_opposed_pair(self):
        y, w = simplex_oracle(PhaseGateSpec((0.0, pi)))
        assert y == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)

    def test_equilateral(self):
        y, _ = simplex_oracle(PhaseGateSpec(EQUILATERAL))
        assert y == pytest.approx(0.25, abs=1e-6)

    def test_clustered(self):
        y, _ = simplex_oracle(PhaseGateSpec((0.0, 0.2, 0.4)))
        assert y == pytest.approx(0.25 * np.sin(0.2) ** 2, abs=1e-6)

    def test_deterministic(self):
        spec = PhaseGateSpec((0.1, 1.3, 2.9, 4.4, 5.6, 0.7, 2.2, 3.3, 1.9))
        y1, w1 = simplex_oracle(spec, seed=5)
        y2, w2 = simplex_oracle(spec, seed=5)
        assert y1 == y2
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("n, restarts", [(4, 0), (5, 1), (9, 1)])
    def test_random_restarts_exactly_when_the_grid_is_coarsened(self, monkeypatch, n, restarts):
        # from n = 5 on the full-resolution grid exceeds GRID_BUDGET, so a
        # coarsened grid alone decides whether the seeded restarts run
        calls = []
        original = schmidt2.np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(schmidt2.np.random, "default_rng", counted)
        simplex_oracle(PhaseGateSpec(tuple(0.7 * k for k in range(n))))
        assert len(calls) == restarts

    @pytest.mark.parametrize("n", range(2, 7))
    def test_grid_rows_in_lexicographic_order(self, n):
        # the oracle's starts come from an argsort of the grid values, so
        # ties resolve by this row order
        for r in range(1, 7):
            rows = [k for k in itertools.product(range(r + 1), repeat=n) if sum(k) == r]
            np.testing.assert_array_equal(_simplex_grid(n, r), np.array(rows) / r)


class TestCertificate:
    def test_certificate_weights_achieve_quarter(self, rng):
        found = 0
        for _ in range(30):
            n = int(rng.integers(4, 7))
            spec = PhaseGateSpec(tuple(rng.uniform(0, 2 * pi, n)))
            cert = rank3_certificate(spec)
            if cert is not None:
                found += 1
                w = SimplexWeights(tuple(cert))
                assert y_value(spec, w) == pytest.approx(0.25, abs=1e-9)
        assert found > 0  # spread random phases certify routinely

    def test_no_certificate_for_clustered_phases(self):
        assert rank3_certificate(PhaseGateSpec((0.0, 0.1, 0.2, 0.3))) is None

    def test_certificate_weights_achieve_quarter_n64(self):
        spread, clustered = large_phase_lists(64)
        spec = PhaseGateSpec(spread)
        cert = rank3_certificate(spec)
        assert np.abs(m_matrix(spec) @ cert - 0.5).max() <= 1e-9
        assert y_value(spec, SimplexWeights(tuple(cert))) == pytest.approx(0.25, abs=1e-9)
        assert rank3_certificate(PhaseGateSpec(clustered)) is None


def large_phase_lists(n):
    """One spread list (every gap below 4 pi / n) and one clustered list
    (inside an arc of 2.5 < pi), seeded by n."""
    gen = np.random.default_rng(n)
    spread = (np.arange(n) + gen.uniform(0, 1, n)) * (2 * pi / n) + gen.uniform(-5, 5)
    clustered = gen.uniform(-5, 5) + gen.uniform(0, 2.5, n)
    return tuple(gen.permutation(spread)), tuple(clustered)


class TestLargeN:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_simplex_oracle(self, n):
        for thetas, case in zip(large_phase_lists(n), ("certificate", "pair")):
            spec = PhaseGateSpec(thetas)
            res = entangling_power_phase_gate(spec)
            diag = res.diagnostics
            assert diag["case"] == case
            assert set(diag) in SOLVER_DIAGNOSTICS
            oracle_y, _ = simplex_oracle(spec)
            assert oracle_y <= diag["max_y"] + 1e-12
            assert diag["max_y"] - oracle_y <= 1e-9
            assert abs(ebits_from_quadratic_max(min(oracle_y, 0.25)) - res.value) <= 1e-4

    def test_shift_and_permutation_invariance_n64(self, rng):
        for thetas in large_phase_lists(64):
            th = np.asarray(thetas)
            base = entangling_power_phase_gate(PhaseGateSpec(thetas))
            for variant in (th + rng.uniform(-5, 5), rng.permutation(th),
                            th + 2 * pi * rng.integers(-3, 4, th.size)):
                res = entangling_power_phase_gate(PhaseGateSpec(tuple(variant)))
                assert res.diagnostics["case"] == base.diagnostics["case"]
                assert res.value == pytest.approx(base.value, abs=1e-12)


def test_phase_gate_matrix_unitary():
    v = phase_gate_matrix(PhaseGateSpec((0.0, 1.0, 2.5)))
    assert np.abs(v @ v.conj().T - np.eye(6)).max() <= 1e-12
