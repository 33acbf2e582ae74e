import numpy as np
import pytest
from hypothesis import given, strategies as st

from epower.qmath import (
    DensityMatrix,
    DomainError,
    ProbVector,
    StateVector,
    check_unitary,
    entropy_bits,
    entropy_bits4,
    majorizes,
    partial_trace,
    shannon_entropy,
    von_neumann_entropy,
)
from epower.canonical import CanonicalParams, coefficients_from_xyz
from epower.epower2q import spectrum

from conftest import non_finite_gates, random_chamber, random_unitary

# exact: H(3/8, 3/8, 1/8, 1/8) = 3 - (3/4) log2 3
H_3344 = 3.0 - 0.75 * np.log2(3.0)


def four_entry_panel():
    """Seeded 4-rows with zeros, -0.0, negatives down to -1e-10,
    subnormals and entries within 1e-12 of 1."""
    rng = np.random.default_rng(1701)
    rows = rng.dirichlet(np.ones(4), size=4000)
    rows[::2, 1] = 0.0
    rows[::3, 3] = -0.0
    rows[::5, 0] = -10.0 ** rng.uniform(-17.0, -10.0, rows[::5].shape[0])
    rows[1::7, 2] = 5e-324 * rng.integers(1, 2**52, rows[1::7].shape[0])
    near_one = rows[2::9]
    near_one[:, 0] = 1.0 - 10.0 ** rng.uniform(-16.0, -12.0, near_one.shape[0])
    near_one[:, 1:] = (1.0 - near_one[:, :1]) * rng.dirichlet(np.ones(3), near_one.shape[0])
    rows[2::9] = near_one
    rows[3::11] = rng.permuted(rows[3::11], axis=1)
    rows[::101] = 0.0
    rows[1::103] = -0.0
    return rows


class TestShannonEntropy:
    def test_uniform_two(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_pure(self):
        assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)

    def test_skewed_four(self):
        assert shannon_entropy([0.375, 0.375, 0.125, 0.125]) == pytest.approx(
            H_3344, abs=1e-14)

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            shannon_entropy([1.1e-9 * -1, 1.0])
        with pytest.raises(DomainError):
            shannon_entropy([-0.2, 1.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            shannon_entropy([0.5, 0.6])

    def test_renormalizes_small_drift(self):
        p = ProbVector(np.array([0.5 + 3e-7, 0.5]))
        assert p.entries.sum() == pytest.approx(1.0, abs=1e-15)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestEntropyBits:
    def test_batch_matches_shannon_entropy_bitwise(self, rng):
        rows = rng.dirichlet(np.ones(4), size=300)
        rows[::2, 1] = 0.0
        rows[::3, 3] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        vectors = [ProbVector(r) for r in rows]
        batch = entropy_bits(np.array([v.entries for v in vectors]))
        assert batch.shape == (300,)
        assert batch.tolist() == [shannon_entropy(v) for v in vectors]

    def test_nonpositive_entries_contribute_zero(self):
        assert entropy_bits([0.5, 0.0, 0.5, -1e-3]) == 1.0
        assert entropy_bits([[0.25] * 4, [1.0, 0.0, -0.0, -1e-12]]).tolist() == [2.0, 0.0]

    def test_zero_entropy_is_not_negative_zero(self):
        assert np.copysign(1.0, entropy_bits([1.0, 0.0])) == 1.0

    def test_same_bits_as_reference_expression(self):
        # the expression entropy_bits had when its callers' digests were
        # recorded; any rewrite of the kernel must keep its bits
        def reference(p):
            p = np.asarray(p, dtype=float)
            return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1) + 0.0

        rng = np.random.default_rng(1506)
        panel = [rng.dirichlet(np.ones(n), size=200) for n in (2, 4)]
        rows = rng.dirichlet(np.ones(4), size=300)
        rows[::2, 1] = 0.0
        rows[::3, 3] = -0.0
        rows[::5, 0] = -1e-17
        rows[::7, 2] = -1e-12
        rows[::11] = 0.0
        rows[1::13] = -0.0
        panel += [rows, rows[:, :2], rows.reshape(30, 10, 4),
                  np.array([1.0, 0.0]), np.array([1.0, -0.0, -1e-17, 0.0])]
        panel += [row for row in rows[:60]]
        for p in panel:
            got = np.asarray(entropy_bits(p))
            want = np.asarray(reference(p))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got[got == 0.0]).any()

    def test_components_first_view_keeps_the_bits(self):
        # a row of fewer than eight entries is added left to right in
        # either memory layout, so a components-first (K, ...) array read
        # through a transposed view gives the bits of its C-ordered copy
        rng = np.random.default_rng(1606)

        def columns(shape, k):
            cols = 10.0 ** rng.uniform(-8.0, 8.0, (k, *shape))
            cols[rng.random(cols.shape) < 0.2] = 0.0
            return cols

        views = [columns((n,), k).T
                 for k in (2, 4) for n in (1, 2, 3, 7, 8, 9, 17, 401, 2001)]
        views += [columns(shape, 4).transpose((1, 2, 0))
                  for shape in ((1, 1), (3, 5), (17, 11), (40, 50))]
        for view in views:
            copy = np.ascontiguousarray(view)
            assert not view.flags.c_contiguous or view.shape[0] == 1
            got, want = entropy_bits(view), entropy_bits(copy)
            assert got.shape == want.shape == view.shape[:-1]
            assert got.tobytes() == want.tobytes()

    def test_four_entry_row_is_summed_left_to_right(self):
        # numpy's log2 on a contiguous 4-vector and its add.reduce of a
        # row of four, left to right, reproduced on Python floats; a numpy
        # whose loops round or associate differently fails here
        for row in four_entry_panel():
            p0, p1, p2, p3 = row.tolist()
            l0, l1, l2, l3 = np.log2(
                [v if v > 0.0 else 1.0 for v in row.tolist()]).tolist()
            want = 0.0 - (((p0 * l0 + p1 * l1) + p2 * l2) + p3 * l3)
            got = entropy_bits(np.array(row.tolist()))
            assert got.tobytes() == np.float64(want).tobytes()

    def test_scalar_twin_matches_bitwise(self):
        rows = four_entry_panel()
        got = [entropy_bits4(row.tolist()) for row in rows]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == entropy_bits(rows).tobytes()
        for row, v in zip(rows[:500], got):
            assert np.float64(v).tobytes() == entropy_bits(row).tobytes()
        assert not np.signbit([v for v in got if v == 0.0]).any()


class TestCheckUnitary:
    def test_accepts_unitary(self, rng):
        u = random_unitary(rng, 4)
        np.testing.assert_array_equal(check_unitary(u), u)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (16,)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(DomainError, match="expected a 4x4 unitary"):
            check_unitary(np.ones(shape))

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError, match="deviates from unitary"):
            check_unitary(np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9]))


@pytest.mark.parametrize("name", sorted(non_finite_gates()))
def test_check_unitary_rejects_non_finite(name):
    with pytest.raises(DomainError, match="finite"):
        check_unitary(non_finite_gates()[name])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_entropies_reject_non_finite(bad):
    with pytest.raises(DomainError, match="finite"):
        shannon_entropy([bad, 1.0])
    with pytest.raises(DomainError, match="finite"):
        ProbVector(np.array([0.5, bad, 0.5]))
    with pytest.raises(DomainError, match="finite"):
        von_neumann_entropy(np.diag([bad, 1.0]))
    with pytest.raises(DomainError, match="finite"):
        DensityMatrix(np.array([[1.0, bad], [bad, 0.0]]))


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)

    def test_pure_projector(self):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 1.0
        assert von_neumann_entropy(rho) == 0.0

    def test_diagonal_four(self):
        rho = np.diag([0.375, 0.375, 0.125, 0.125]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(H_3344, abs=1e-14)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            von_neumann_entropy(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(np.eye(2))

    def test_invariant_under_unitary_conjugation(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            u = random_unitary(rng, 4)
            rho = (u * p) @ u.conj().T
            assert von_neumann_entropy(rho) == pytest.approx(
                shannon_entropy(p), abs=1e-9)


def bell_pair():
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestPartialTrace:
    def test_bell_state_keep_first(self):
        psi = StateVector(bell_pair(), (2, 2))
        rho = partial_trace(psi, {0})
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_state_keep_second(self):
        amps = np.kron([1, 0], [0, 1]).astype(complex)
        rho = partial_trace(StateVector(amps, (2, 2)), {1})
        np.testing.assert_allclose(rho.entries, np.diag([0.0, 1.0]), atol=1e-15)

    def test_swap_on_two_bell_pairs_gives_maximally_mixed(self):
        # state ordered (A, R_A, B, R_B); swap acts on (A, B)
        state = np.kron(bell_pair(), bell_pair()).reshape(2, 2, 2, 2)
        swapped = state.transpose(2, 1, 0, 3)
        psi = StateVector(swapped.reshape(16), (2, 2, 2, 2))
        rho = partial_trace(psi, {2, 3})
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_subsystem_index(self):
        psi = StateVector(bell_pair(), (2, 2))
        with pytest.raises(DomainError):
            partial_trace(psi, {2})
        with pytest.raises(DomainError):
            partial_trace(psi, set())
        with pytest.raises(DomainError):
            partial_trace(psi, {0, 1})

    def test_complementary_cuts_share_spectrum(self, rng):
        for dims in [(2, 4), (2, 2, 2), (3, 2, 2)]:
            n = int(np.prod(dims))
            amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            amps /= np.linalg.norm(amps)
            psi = StateVector(amps, dims)
            keep = {0}
            rest = set(range(len(dims))) - keep
            ev_a = partial_trace(psi, keep).eigenvalues
            ev_b = partial_trace(psi, rest).eigenvalues
            ev_a = np.sort(ev_a[ev_a > 1e-12])
            ev_b = np.sort(ev_b[ev_b > 1e-12])
            np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)


class TestMajorizes:
    def test_uniform_below_pure(self):
        assert majorizes([0.5, 0.5], [1.0, 0.0])

    def test_reverse_direction_false(self):
        assert not majorizes([1.0, 0.0], [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            majorizes([0.5, 0.5], [0.5, 0.25, 0.25])

    def test_gate_moduli_below_equal_angle_spectrum(self):
        c = coefficients_from_xyz(CanonicalParams(0.3, 0.3, 0.3))
        lam = spectrum(c, 0.2, 0.2).lam
        assert majorizes(c.moduli_squared(), lam)

    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_mixing_lowers_in_order_and_entropy(self, n, seed):
        # averaging permutations of q produces p majorized by q
        gen = np.random.default_rng(seed)
        q = gen.dirichlet(np.ones(n))
        weights = gen.dirichlet(np.ones(3))
        p = sum(w * gen.permutation(q) for w in weights)
        assert majorizes(p, q)
        assert shannon_entropy(p) >= shannon_entropy(q) - 1e-12


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StateVector(np.array([1.0, 1.0]), (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DomainError):
            StateVector(bell_pair(), (2, 3))


class TestDensityMatrix:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_clamps_rounding_noise(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert rho.eigenvalues.min() == 0.0


def test_chamber_spectra_relate_entropy(rng):
    # majorization between distributions implies the entropy inequality
    for _ in range(50):
        x, y, z = random_chamber(rng)
        c = coefficients_from_xyz(CanonicalParams(x, y, y))
        alpha = rng.uniform(0.0, np.pi / 4)
        lam = spectrum(c, alpha, alpha).lam
        m2 = c.moduli_squared()
        if majorizes(m2, lam):
            assert shannon_entropy(lam) <= shannon_entropy(m2) + 1e-12
