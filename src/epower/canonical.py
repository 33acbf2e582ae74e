"""Canonical form of two-qubit gates.

A normalized two-qubit gate is U = sum_j c_j sigma_j (x) sigma_j with the
four complex coefficients determined by three chamber angles
pi/4 >= x >= y >= z >= 0.  This module builds the coefficients and the
4x4 matrix, classifies Schmidt rank, computes Schmidt strength, and
evaluates the algebraic identities the coefficients satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, sin, pi

import numpy as np

from .qmath import DomainError, check_unitary, shannon_entropy

__all__ = [
    "PAULI",
    "CanonicalParams",
    "PauliCoefficients",
    "coefficients_from_xyz",
    "assemble_unitary",
    "x_shaped_matrix",
    "verify_identities",
    "IdentityReport",
    "schmidt_rank",
    "schmidt_strength",
    "commutant_unitary",
]

COEFF_NORM_TOL = 1e-12
RANK_TOL = 1e-10
CHAMBER_TOL = 1e-12

_s0 = np.eye(2, dtype=complex)
_s1 = np.array([[0, 1], [1, 0]], dtype=complex)
_s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_s3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (_s0, _s1, _s2, _s3)

_PAULI_KRON = tuple(np.kron(s, s) for s in PAULI)


@dataclass(frozen=True)
class CanonicalParams:
    """Chamber angles (x, y, z) of a normalized two-qubit gate, in radians.

    Valid range is pi/4 >= x >= y >= z >= 0; violations raise DomainError
    naming the failed inequality.  ``strict`` records whether the open
    window pi/4 > y > 0 holds, under which the full Schmidt-rank-four
    sign claims apply.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        if not all(isfinite(v) for v in (x, y, z)):
            raise DomainError(f"chamber angles must be finite (x={x!r}, y={y!r}, z={z!r})")
        if x > pi / 4 + CHAMBER_TOL:
            raise DomainError(f"chamber violation: x <= pi/4 failed (x={x!r})")
        if y > x + CHAMBER_TOL:
            raise DomainError(f"chamber violation: x >= y failed (x={x!r}, y={y!r})")
        if z > y + CHAMBER_TOL:
            raise DomainError(f"chamber violation: y >= z failed (y={y!r}, z={z!r})")
        if z < -CHAMBER_TOL:
            raise DomainError(f"chamber violation: z >= 0 failed (z={z!r})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def strict(self) -> bool:
        """True when pi/4 > y > 0 holds."""
        return 0.0 < self.y < pi / 4


@dataclass(frozen=True)
class PauliCoefficients:
    """Coefficients c0..c3 of U = sum_j c_j sigma_j (x) sigma_j.

    The moduli must satisfy sum |c_j|^2 = 1; the assembled matrix is
    checked for unitarity when requested via :func:`assemble_unitary`.
    """

    c0: complex
    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        norm = sum(abs(c) ** 2 for c in self.as_array())
        if not abs(norm - 1.0) <= COEFF_NORM_TOL:
            raise DomainError(f"sum |c_j|^2 = {norm!r}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2, self.c3], dtype=complex)

    def moduli_squared(self) -> np.ndarray:
        return np.abs(self.as_array()) ** 2


def coefficients_from_xyz(params: CanonicalParams) -> PauliCoefficients:
    """Coefficients of the normalized gate for chamber angles (x, y, z)."""
    cx, cy, cz = cos(params.x), cos(params.y), cos(params.z)
    sx, sy, sz = sin(params.x), sin(params.y), sin(params.z)
    c0 = cx * cy * cz + 1j * sx * sy * sz
    c1 = cx * sy * sz + 1j * sx * cy * cz
    c2 = sx * cy * sz + 1j * cx * sy * cz
    c3 = sx * sy * cz + 1j * cx * cy * sz
    return PauliCoefficients(c0, c1, c2, c3)


def assemble_unitary(c: PauliCoefficients) -> np.ndarray:
    """4x4 matrix sum_j c_j sigma_j (x) sigma_j; rejects non-unitary input."""
    arr = c.as_array()
    return check_unitary(sum(arr[j] * _PAULI_KRON[j] for j in range(4)))


def x_shaped_matrix(x: float, y: float) -> np.ndarray:
    """Explicit matrix of the gate with equal last two coefficients (z = y).

    The nonzero entries sit on the two diagonals, with corner block
    e^{iy} cos(x-y) / i e^{iy} sin(x-y) and middle block
    e^{-iy} cos(x+y) / i e^{-iy} sin(x+y).
    """
    eiy = np.exp(1j * y)
    emy = np.exp(-1j * y)
    return np.array(
        [
            [eiy * cos(x - y), 0, 0, 1j * eiy * sin(x - y)],
            [0, emy * cos(x + y), 1j * emy * sin(x + y), 0],
            [0, 1j * emy * sin(x + y), emy * cos(x + y), 0],
            [1j * eiy * sin(x - y), 0, 0, eiy * cos(x - y)],
        ]
    )


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the coefficient identities at one chamber point.

    ``residuals`` holds |lhs - rhs| for each equality, keyed by a formula
    string; ``violations`` holds the amount by which each inequality claim
    fails (0 when satisfied).  Claims valid only on the open window
    pi/4 > y > 0 are included only when ``strict_window`` is True.
    """

    residuals: tuple[tuple[str, float], ...]
    violations: tuple[tuple[str, float], ...]
    strict_window: bool

    @property
    def max_residual(self) -> float:
        values = [r for _, r in self.residuals] + [v for _, v in self.violations]
        return max(values) if values else 0.0


def verify_identities(params: CanonicalParams) -> IdentityReport:
    """Evaluate every coefficient identity and sign claim at (x, y, z)."""
    x, y, z = params.x, params.y, params.z
    c = coefficients_from_xyz(params)
    c0, c1, c2, c3 = c.as_array()
    a0, a1, a2, a3 = (abs(v) for v in (c0, c1, c2, c3))

    k03 = (c0 * np.conj(c3) + np.conj(c0) * c3).real
    k12 = (c1 * np.conj(c2) + np.conj(c1) * c2).real
    w03 = c0 * np.conj(c3) - np.conj(c0) * c3
    w12 = c1 * np.conj(c2) - np.conj(c1) * c2

    res: list[tuple[str, float]] = [
        ("|c0+c3|^2-|c1-c2|^2 = cos2(x-y)",
         abs(abs(c0 + c3) ** 2 - abs(c1 - c2) ** 2 - cos(2 * (x - y)))),
        ("|c0-c3|^2-|c1+c2|^2 = cos2(x+y)",
         abs(abs(c0 - c3) ** 2 - abs(c1 + c2) ** 2 - cos(2 * (x + y)))),
        ("|c0+c3|^2+|c1-c2|^2 = 1",
         abs(abs(c0 + c3) ** 2 + abs(c1 - c2) ** 2 - 1.0)),
        ("|c0-c3|^2+|c1+c2|^2 = 1",
         abs(abs(c0 - c3) ** 2 + abs(c1 + c2) ** 2 - 1.0)),
        ("|c0|^2+|c3|^2 = (1+cos2x cos2y)/2",
         abs(a0 ** 2 + a3 ** 2 - 0.5 * (1 + cos(2 * x) * cos(2 * y)))),
        ("c0 c3*+c0* c3 = sin2x sin2y / 2",
         abs(k03 - 0.5 * sin(2 * x) * sin(2 * y))),
        ("c1 c2*+c1* c2 = sin2x sin2y / 2",
         abs(k12 - 0.5 * sin(2 * x) * sin(2 * y))),
        ("(c0 c3*-c0* c3)^2 = -(cos2x+cos2y)^2 sin^2(2z)/4",
         abs(w03 ** 2 + 0.25 * (cos(2 * x) + cos(2 * y)) ** 2 * sin(2 * z) ** 2)),
        ("(c1 c2*-c1* c2)^2 = -(cos2x-cos2y)^2 sin^2(2z)/4",
         abs(w12 ** 2 + 0.25 * (cos(2 * x) - cos(2 * y)) ** 2 * sin(2 * z) ** 2)),
        ("|c0 c3|^2-|c1 c2|^2 = cos2x cos2y sin^2(2z)/4",
         abs((a0 * a3) ** 2 - (a1 * a2) ** 2
             - 0.25 * cos(2 * x) * cos(2 * y) * sin(2 * z) ** 2)),
        ("|c0|^2-|c1|^2 = cos2x (cos2y+cos2z)/2",
         abs(a0 ** 2 - a1 ** 2 - 0.5 * cos(2 * x) * (cos(2 * y) + cos(2 * z)))),
        ("|c0|^2-|c2|^2 = cos2y (cos2x+cos2z)/2",
         abs(a0 ** 2 - a2 ** 2 - 0.5 * cos(2 * y) * (cos(2 * x) + cos(2 * z)))),
        ("|c0|^2-|c3|^2 = cos2z (cos2x+cos2y)/2",
         abs(a0 ** 2 - a3 ** 2 - 0.5 * cos(2 * z) * (cos(2 * x) + cos(2 * y)))),
    ]

    viol: list[tuple[str, float]] = [
        ("|c0| >= max |c_j|", max(0.0, max(a1, a2, a3) - a0)),
        ("(c0 c3*-c0* c3)^2 <= 0", max(0.0, (w03 ** 2).real)),
        ("(c1 c2*-c1* c2)^2 <= 0", max(0.0, (w12 ** 2).real)),
        ("|c0 c3|^2 >= |c1 c2|^2", max(0.0, (a1 * a2) ** 2 - (a0 * a3) ** 2)),
    ]
    if params.strict:
        viol += [
            ("|c0| > 1/2", max(0.0, 0.5 - a0)),
            ("|c0|^2+|c3|^2 > 1/2", max(0.0, 0.5 - (a0 ** 2 + a3 ** 2))),
            ("|c1|^2+|c2|^2 < 1/2", max(0.0, (a1 ** 2 + a2 ** 2) - 0.5)),
            ("c0 c3*+c0* c3 > 0", max(0.0, -k03)),
        ]

    return IdentityReport(tuple(res), tuple(viol), params.strict)


def schmidt_rank(c: PauliCoefficients) -> int:
    """Number of coefficients with |c_j| above RANK_TOL (1, 2, 3 or 4)."""
    return int(np.count_nonzero(np.abs(c.as_array()) > RANK_TOL))


def schmidt_strength(c: PauliCoefficients) -> float:
    """Shannon entropy in ebits of the distribution (|c0|^2, ..., |c3|^2).

    For a normalized two-qubit gate the operator Schmidt coefficients are
    2|c_j| over an orthonormal Pauli basis, so the normalized squared
    weights are exactly the |c_j|^2.
    """
    return shannon_entropy(c.moduli_squared())


def commutant_unitary(gamma: float) -> np.ndarray:
    """The 2x2 unitary cos(gamma) sigma_2 + sin(gamma) sigma_3.

    Its tensor square commutes with every gate whose last two coefficients
    are equal, which is what reduces the critical-state search to the
    two-angle product family.
    """
    return cos(gamma) * _s2 + sin(gamma) * _s3
