"""Independent reference values for the benchmark's correctness checks.

Written with numpy only; it never imports ``epower``.  Each value is
computed from the physics directly rather than from the program's closed
forms:

- ``canonical_gate`` builds U = exp(i(x XX + y YY + z ZZ)) by
  diagonalising the Hamiltonian.
- ``two_angle_power`` maximises the output entanglement of U over the
  two-angle product inputs cos(a)|00> + sin(a)|11> on (A, R_A) and
  (B, R_B), by a dense (alpha, beta) grid and a shrinking-stencil
  refinement, from the full state and an eigensolver.
- ``phase_gate_power`` uses the largest circular gap g of the phase list:
  the quadratic-form maximum is 1/4 when g <= pi and sin^2(g/2)/4 otherwise.
- ``example1_power`` and ``example2_power`` are the paper's two solvable
  families, written from their entropy formulas.
- ``random_local_unitary`` draws seeded Haar-random one-qubit unitaries.
"""

from __future__ import annotations

from math import cos, pi, sin, sqrt

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GRID_N = 33            # odd, so alpha = beta = pi/4 is a grid point
REFINE_STARTS = 6
REFINE_STEP_MIN = 1e-10


def entropy_bits(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def canonical_gate(x: float, y: float, z: float) -> np.ndarray:
    """U = exp(i(x XX + y YY + z ZZ)) as a 4x4 matrix."""
    h = x * np.kron(_X, _X) + y * np.kron(_Y, _Y) + z * np.kron(_Z, _Z)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """u1 (x) u2 with u1, u2 Haar-random on U(2)."""
    def haar2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        return q * (d / np.abs(d))
    return np.kron(haar2(), haar2())


def two_angle_entropies(u: np.ndarray, alpha, beta) -> np.ndarray:
    """Entanglement across (A, R_A) : (B, R_B) of U applied to the inputs
    (cos a|00> + sin a|11>)_{A R_A} (x) (cos b|00> + sin b|11>)_{B R_B}.

    With both inputs diagonal in the computational basis the output
    amplitude is psi[a', r, b', s] = U[a' b', r s] w_A[r] w_B[s].
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    wa = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)         # (N, r)
    wb = np.stack([np.cos(beta), np.sin(beta)], axis=-1)           # (N, s)
    u4 = u.reshape(2, 2, 2, 2)                                     # a' b' r s
    psi = np.einsum("pqrs,nr,ns->nprqs", u4, wa, wb).reshape(-1, 4, 4)
    rho = psi @ psi.conj().transpose(0, 2, 1)
    ev = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ev > 0.0, ev * np.log2(np.where(ev > 0.0, ev, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def two_angle_power(u: np.ndarray) -> float:
    """Maximum of ``two_angle_entropies`` over [0, pi/2]^2.

    A GRID_N x GRID_N grid seeds REFINE_STARTS distinct local maxima; each
    is refined by a 5 x 5 stencil that moves to its best point, or halves
    its step when the centre is best, down to REFINE_STEP_MIN.  All points
    are clipped to the square, so maxima on its edges are reached too.
    """
    axis = np.linspace(0.0, pi / 2, GRID_N)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    vals = two_angle_entropies(u, a.ravel(), b.ravel()).reshape(a.shape)
    padded = np.pad(vals, 1, constant_values=-np.inf)
    neighbours = np.stack([padded[1 + di:1 + di + GRID_N, 1 + dj:1 + dj + GRID_N]
                           for di in (-1, 0, 1) for dj in (-1, 0, 1)
                           if di or dj])
    local = np.argwhere(vals >= neighbours.max(axis=0))
    local = local[np.argsort(-vals[local[:, 0], local[:, 1]])][:REFINE_STARTS]
    centres = np.stack([axis[local[:, 0]], axis[local[:, 1]]], axis=-1)
    best = two_angle_entropies(u, centres[:, 0], centres[:, 1])
    step = np.full(len(centres), axis[1] - axis[0])
    offsets = np.array([(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)],
                       dtype=float) / 2.0
    while step.max() > REFINE_STEP_MIN:
        pts = np.clip(centres[:, None, :] + step[:, None, None] * offsets[None],
                      0.0, pi / 2)
        e = two_angle_entropies(u, pts[..., 0].ravel(), pts[..., 1].ravel())
        e = e.reshape(len(centres), len(offsets))
        k = np.argmax(e, axis=1)
        moved = e[np.arange(len(centres)), k] > best
        centres[moved] = pts[moved, k[moved]]
        best = np.maximum(best, e.max(axis=1))
        step = np.where(moved, step, step / 2.0)
    return float(best.max())


def chamber_power(x: float, y: float) -> float:
    """Entangling power of the chamber gate (x, y, z = y) by ``two_angle_power``."""
    return two_angle_power(canonical_gate(x, y, y))


def line_entropies(x: float, y: float, alphas) -> np.ndarray:
    """Output entanglement of gate (x, y, y) on the line beta = pi/2 - alpha."""
    alphas = np.asarray(alphas, dtype=float)
    return two_angle_entropies(canonical_gate(x, y, y), alphas, pi / 2 - alphas)


def largest_circular_gap(thetas) -> float:
    """Largest gap between consecutive phases on the circle."""
    th = np.sort(np.mod(np.asarray(thetas, dtype=float), 2 * pi))
    gaps = np.diff(np.concatenate([th, [th[0] + 2 * pi]]))
    return float(gaps.max())


def phase_gate_power(thetas) -> float:
    """Entangling power in ebits of the controlled-phase gate with ``thetas``.

    The quadratic form equals (1 - |sum c_j e^{i theta_j}|^2) / 4, so its
    maximum on the simplex is 1/4 when the origin lies in the convex hull
    of the phases (largest gap g <= pi) and sin^2(g/2)/4 otherwise, at
    weights 1/2 on the two phases bounding the gap.
    """
    g = largest_circular_gap(thetas)
    y = 0.25 if g <= pi else sin(g / 2.0) ** 2 / 4.0
    r = sqrt(max(1.0 - 4.0 * y, 0.0))
    return entropy_bits([(1.0 - r) / 2.0, (1.0 + r) / 2.0])


def example1_power(x: float) -> float:
    """Example 1 (x = y = z): the larger of the product-input entropy
    H(cos^2 2x, sin^2 2x) and the maximally-entangled-input entropy
    H(1 - 3s, s, s, s) with s = sin^2 x cos^2 x."""
    s = sin(x) ** 2 * cos(x) ** 2
    return max(entropy_bits([cos(2 * x) ** 2, sin(2 * x) ** 2]),
               entropy_bits([1.0 - 3.0 * s, s, s, s]))


def example2_power(y: float) -> float:
    """Example 2 (x = pi/4, z = y): H(h, h, s, s) with
    h = (cos^4 y + sin^4 y)/2 and s = sin^2 y cos^2 y."""
    h = 0.5 * (cos(y) ** 4 + sin(y) ** 4)
    s = sin(y) ** 2 * cos(y) ** 2
    return entropy_bits([h, h, s, s])
