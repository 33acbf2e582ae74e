"""Brute-force entangling-power estimator for arbitrary two-qubit gates.

Builds the full four-qubit output state over ancilla-assisted product
inputs parametrized by six angles, and maximizes the output entanglement
numerically: a vectorized coarse grid followed by Nelder-Mead refinement
from the best cells and low-discrepancy restarts.  The result is a lower
bound on the true entangling power by construction, which is exactly
what makes it a one-sided certifier for the closed forms.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import isfinite, pi

import numpy as np

from .epower2q import ProductInputParams
from .qmath import DomainError, StateVector, check_unitary, entropy_bits
from .results import EntanglingPowerResult

__all__ = [
    "SearchConfig",
    "output_state",
    "entanglement_of_product_input",
    "brute_force_power",
    "product_pair_power",
]

_BOUNDS = ((0.0, pi / 2), (0.0, pi / 2), (0.0, 2 * pi), (0.0, 2 * pi),
           (0.0, pi / 2), (0.0, pi / 2))


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seed of the brute-force search; deterministic per seed."""

    grid_points_per_axis: int = 13
    refinement_iterations: int = 200
    multi_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        if not all(isfinite(v) for v in astuple(self)):
            raise DomainError("search configuration values must be finite")
        if (self.grid_points_per_axis < 1 or self.refinement_iterations < 1
                or self.multi_starts < 1):
            raise DomainError("search configuration values must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first use so that scipy
    (about 70 MiB of resident memory) loads only when the oracle runs."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def output_state(U: np.ndarray, params: ProductInputParams) -> StateVector:
    """Apply U to the (A, B) factors of the six-angle product input.

    Returns the 16-dimensional pure state with subsystem order
    (A, R_A, B, R_B); the gate acts as identity on the references.
    """
    U = check_unitary(U)
    amps = _batch_output(
        U,
        np.array([params.alpha]), np.array([params.beta]),
        np.array([params.theta]), np.array([params.xi]),
        np.array([params.mu]), np.array([params.nu]),
    )[0]
    return StateVector(amps.reshape(16), (2, 2, 2, 2))


def _batch_output(U, alpha, beta, theta, xi, mu, nu):
    """Output states for batched angle arrays; shape (N, 2, 2, 2, 2)."""
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
    U4 = U.reshape(2, 2, 2, 2)
    return np.einsum("xyab,narbt->nxryt", U4, full)


def _batch_entropies(U, alpha, beta, theta, xi, mu, nu):
    out = _batch_output(U, alpha, beta, theta, xi, mu, nu).reshape(-1, 4, 4)
    rho = np.einsum("nmk,nml->nkl", out, out.conj())
    return entropy_bits(np.linalg.eigvalsh(rho))


def _point_entropy(U, angles) -> float:
    """Output entanglement for one input given as six scalar angles."""
    return float(_batch_entropies(
        U, *[np.atleast_1d(np.asarray(v, dtype=float)) for v in angles])[0])


def entanglement_of_product_input(U, alpha, beta, theta=0.0, xi=0.0,
                                  mu=pi / 2, nu=pi / 2) -> float:
    """Output entanglement across (A, R_A) : (B, R_B) for one input."""
    return _point_entropy(check_unitary(U), (alpha, beta, theta, xi, mu, nu))


def _grid_axes(cfg: SearchConfig):
    g = cfg.grid_points_per_axis
    gm = max(4, g // 2)
    ab = np.linspace(0.0, pi / 2, g)
    mn = np.linspace(pi / (2 * gm), pi / 2, gm)
    ph = np.linspace(0.0, 2 * pi, 4, endpoint=False)
    return ab, mn, ph


def brute_force_power(U: np.ndarray, cfg: SearchConfig = SearchConfig()) -> EntanglingPowerResult:
    """Numerically maximized output entanglement over all product inputs.

    Args:
        U: 4x4 unitary (any two-qubit gate, canonical or not).
        cfg: search budget and seed.

    Returns:
        EntanglingPowerResult with method "oracle".  The value is a lower
        bound on the true entangling power; diagnostics carry the grid
        stage maximum, the refined angles and the evaluation count.
    """
    U = check_unitary(U)
    ab, mn, ph = _grid_axes(cfg)
    grids = np.meshgrid(ab, ab, ph, ph, mn, mn, indexing="ij")
    flat = [g.ravel() for g in grids]
    n_grid = flat[0].size
    vals = np.empty(n_grid)
    chunk = 65536
    for lo in range(0, n_grid, chunk):
        hi = min(lo + chunk, n_grid)
        vals[lo:hi] = _batch_entropies(
            U, flat[0][lo:hi], flat[1][lo:hi], flat[2][lo:hi],
            flat[3][lo:hi], flat[4][lo:hi], flat[5][lo:hi])
    order = np.argsort(vals)[::-1][:8]
    grid_best = float(vals[order[0]])
    starts = [np.array([flat[k][i] for k in range(6)]) for i in order]

    from scipy.stats import qmc

    halton = qmc.Halton(d=6, scramble=True, seed=cfg.seed)
    lows = np.array([b[0] for b in _BOUNDS])
    highs = np.array([b[1] for b in _BOUNDS])
    starts.extend(lows + (highs - lows) * halton.random(cfg.multi_starts))

    def objective(v):
        return -_point_entropy(U, v)

    best_val, best_x, n_evals, converged = grid_best, starts[0], n_grid, True

    def refine(x0, maxiter, xatol, fatol):
        nonlocal best_val, best_x, n_evals, converged
        res = minimize(objective, x0, method="Nelder-Mead", bounds=_BOUNDS,
                       options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
        n_evals += res.nfev
        if -res.fun > best_val:
            best_val, best_x = -res.fun, np.asarray(res.x)
            converged = bool(res.success)

    for x0 in starts:
        refine(x0, cfg.refinement_iterations, 1e-8, 1e-12)
    # final polish from the incumbent
    refine(best_x, 2 * cfg.refinement_iterations, 1e-9, 1e-13)

    return EntanglingPowerResult(
        value=best_val, method="oracle",
        critical="six-angle product input",
        critical_alpha=float(best_x[0]), critical_beta=float(best_x[1]),
        diagnostics={
            "angles": tuple(float(v) for v in best_x),
            "grid_best": grid_best,
            "n_evaluations": int(n_evals),
            "converged": converged,
            "lower_bound": True,
        },
    )


def product_pair_power(U: np.ndarray, grid_n: int = 201) -> float:
    """Restricted maximum with mu = nu = pi/2 (two-angle product inputs).

    Grid over (alpha, beta) plus a local 2-D refinement; used to measure
    how much the unrestricted search gains over the reduced family.
    """
    U = check_unitary(U)
    ab = np.linspace(0.0, pi / 2, grid_n)
    A, B = np.meshgrid(ab, ab, indexing="ij")
    zeros = np.zeros(A.size)
    half = np.full(A.size, pi / 2)
    vals = _batch_entropies(U, A.ravel(), B.ravel(), zeros, zeros, half, half)
    i = int(np.argmax(vals))
    x0 = np.array([A.ravel()[i], B.ravel()[i]])

    def objective(v):
        return -_point_entropy(U, (v[0], v[1], 0.0, 0.0, pi / 2, pi / 2))

    res = minimize(objective, x0, method="Nelder-Mead",
                   bounds=_BOUNDS[:2],
                   options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-13})
    return max(float(vals[i]), -float(res.fun))
