"""Known values of the benchmark's independent references.

    python3 -m pytest perfbench/test_reference.py -q
"""

from math import pi

import numpy as np
import pytest

import reference as ref


def test_swap_is_two_ebits():
    assert ref.chamber_power(pi / 4, pi / 4) == pytest.approx(2.0, abs=1e-12)


def test_cnot_class_is_one_ebit():
    assert ref.chamber_power(pi / 4, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_identity_class_is_zero():
    assert ref.chamber_power(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_antipodal_phases_are_one_ebit():
    assert ref.phase_gate_power([0.0, pi]) == pytest.approx(1.0, abs=1e-15)


def test_equilateral_triple_is_one_ebit():
    assert ref.phase_gate_power([0.0, 2 * pi / 3, 4 * pi / 3]) == pytest.approx(1.0, abs=1e-15)


def test_clustered_phases_use_the_bounding_pair():
    # gap 3pi/2: y = sin^2(3pi/4)/4 = 1/8, so r = 1/sqrt(2)
    r = 2 ** -0.5
    expected = ref.entropy_bits([(1 - r) / 2, (1 + r) / 2])
    assert ref.phase_gate_power([0.0, 0.2, pi / 2]) == pytest.approx(expected, abs=1e-15)


def test_canonical_gate_is_the_pauli_exponential():
    x = 0.3
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    expected = np.cos(x) * np.eye(4) + 1j * np.sin(x) * xx
    assert np.abs(ref.canonical_gate(x, 0.0, 0.0) - expected).max() < 1e-15


def test_examples_agree_with_the_two_angle_maximum():
    assert ref.example1_power(pi / 4) == pytest.approx(2.0, abs=1e-15)
    for x in (0.05, 0.2, 0.6):
        assert ref.example1_power(x) == pytest.approx(ref.chamber_power(x, x), abs=1e-12)
    for y in (0.1, 0.4, 0.7):
        assert ref.example2_power(y) == pytest.approx(ref.chamber_power(pi / 4, y), abs=1e-12)


def test_local_unitaries_are_seeded_and_unitary():
    a = ref.random_local_unitary(np.random.default_rng(7))
    b = ref.random_local_unitary(np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.abs(a @ a.conj().T - np.eye(4)).max() < 1e-14
