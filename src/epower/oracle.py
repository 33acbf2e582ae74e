"""Brute-force entangling-power estimator for arbitrary two-qubit gates.

Builds the full four-qubit output state over ancilla-assisted product
inputs parametrized by six angles, and maximizes the output entanglement
numerically: a vectorized coarse grid, then a bounded Nelder-Mead search
from the best cells and low-discrepancy restarts.  The search advances
every start in lockstep, so each step evaluates all of them in one
batched call; each start still follows scipy's Nelder-Mead path exactly.
The result is a lower bound on the true entangling power by
construction, which is exactly what makes it a one-sided certifier for
the closed forms.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from math import ceil, isfinite, log2, pi
from numbers import Integral
from typing import NamedTuple

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

# search box of the six angles (alpha, beta, theta, xi, mu, nu)
_LOWS = np.zeros(6)
_HIGHS = np.array([pi / 2, pi / 2, 2 * pi, 2 * pi, pi / 2, pi / 2])
# lower triangle (row >= column) of a 4x4 matrix
_TRIL = np.tril_indices(4)


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seed of the brute-force search; deterministic per seed."""

    grid_points_per_axis: int = 13
    refinement_iterations: int = 200
    multi_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        values = astuple(self)
        # isfinite would overflow on an integer beyond float range
        if not all(isinstance(v, Integral) or isfinite(v) for v in values):
            raise DomainError("search configuration values must be finite")
        if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in values):
            raise DomainError("search configuration values must be integers")
        if (self.grid_points_per_axis < 1 or self.refinement_iterations < 1
                or self.multi_starts < 1):
            raise DomainError("search configuration values must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


class LockstepResult(NamedTuple):
    """Outcome of ``minimize`` for K starts in N dimensions."""

    x: np.ndarray        # (K, N) best vertex of each start
    fun: np.ndarray      # (K,) objective value at x
    success: np.ndarray  # (K,) True where xatol and fatol were met in time
    nfev: int            # objective evaluations, summed over the starts


# Nelder-Mead coefficients and initial-simplex steps, as in scipy.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def minimize(fun, x0, lb, ub, maxiter, xatol, fatol) -> LockstepResult:
    """Bounded Nelder-Mead from K starts at once, advanced in lockstep.

    ``fun`` maps an (M, N) array of points to their M objective values;
    ``x0`` is the (K, N) array of starts.  Each start takes exactly the
    path of ``scipy.optimize.minimize(f, x0[k], method="Nelder-Mead",
    bounds=..., options={"maxiter", "xatol", "fatol"})`` (scipy 1.17) and
    returns its ``x``, ``fun``, ``success`` and evaluation count bit for
    bit, but a step costs at most three calls of ``fun`` for all starts
    together: the reflections, then the expansion and contraction
    candidates, then the shrink vertices.
    """
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    x0 = np.clip(np.asarray(x0, dtype=float), lb, ub)
    k, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    # reflect vertices pushed past an upper bound back into the box
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    fsim = fun(sim.reshape(-1, n)).reshape(k, n + 1)
    nfev = k * (n + 1)
    for _ in range(2):  # as scipy does; tied values may move on the second sort
        sim, fsim = _sort_vertices(sim, fsim)

    active = np.ones(k, dtype=bool)
    iterations = 1
    while iterations < maxiter:
        active &= ~((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                    & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        s, f = sim[rows], fsim[rows]
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = np.clip((1 + _RHO) * xbar - _RHO * worst, lb, ub)
        fxr = fun(xr)
        nfev += rows.size

        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        inside = ~(expand | accept | outside)
        trial = np.where(
            expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
            np.where(outside[:, None], (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                     (1 - _PSI) * xbar + _PSI * worst))
        trial = np.clip(trial, lb, ub)
        ftrial = np.full(rows.size, np.nan)
        probe = ~accept
        if probe.any():
            ftrial[probe] = fun(trial[probe])
            nfev += int(probe.sum())

        take_trial = ((expand & (ftrial < fxr)) | (outside & (ftrial <= fxr))
                      | (inside & (ftrial < f[:, -1])))
        shrink = (outside | inside) & ~take_trial
        keep = ~shrink
        s[keep, -1] = np.where(take_trial[:, None], trial, xr)[keep]
        f[keep, -1] = np.where(take_trial, ftrial, fxr)[keep]
        if shrink.any():
            best = s[shrink, :1]
            moved = np.clip(best + _SIGMA * (s[shrink, 1:] - best), lb, ub)
            s[shrink, 1:] = moved
            f[shrink, 1:] = fun(moved.reshape(-1, n)).reshape(-1, n)
            nfev += moved.shape[0] * n
        iterations += 1
        sim[rows], fsim[rows] = _sort_vertices(s, f)

    return LockstepResult(x=sim[:, 0], fun=np.min(fsim, axis=1),
                          success=~active, nfev=nfev)


def _sort_vertices(sim, fsim):
    """Order each simplex by objective value, best vertex first."""
    ind = np.argsort(fsim, axis=1)
    return np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)


def output_state(U: np.ndarray, params: ProductInputParams) -> StateVector:
    """Apply U to the (A, B) factors of the six-angle product input.

    Returns the 16-dimensional pure state with subsystem order
    (A, R_A, B, R_B); the gate acts as identity on the references.
    """
    U = check_unitary(U)
    out_re, out_im = _batch_output(U, *(np.array([v]) for v in astuple(params)))
    amps = np.stack((out_re, out_im), axis=-1).view(complex)
    return StateVector(amps.reshape(16), (2, 2, 2, 2))


def _input_factor(angle, phase, weight):
    """One side's qubit-and-reference input state, shape (4, P), points last."""
    v = np.zeros((4, angle.size), dtype=complex)
    v[0] = np.cos(angle)
    v[2] = np.sin(angle) * np.exp(1j * phase) * np.cos(weight)
    v[3] = np.sin(angle) * np.sin(weight)
    return v


def _batch_output(U, alpha, beta, theta, xi, mu, nu):
    """Output states for batched angle arrays, points last.

    Returns the real and imaginary parts, each of shape (4, 4, P) and
    indexed [(x, r), (y, t), point] in the subsystem order (A, R_A, B, R_B):
    out[x, r, y, t] = sum over (a, b) of U[(x, y), (a, b)] psi[a, r] phi[b, t].
    The sum runs from zero over (a, b) in order, a outer and b inner, and
    each product with U is written out on float arrays: the operations of
    ``np.einsum``, so the bits are einsum's.  numpy's complex multiply
    ufunc uses FMA and does not match it; it forms psi[a, r] phi[b, t],
    as it always has.
    """
    n = alpha.size
    full = (_input_factor(alpha, theta, mu).reshape(2, 1, 2, 1, n)
            * _input_factor(beta, xi, nu).reshape(1, 2, 1, 2, n)).reshape(1, 4, 4, n)
    f_re, f_im = full.real, full.imag  # [., (a, b), (r, t), point]
    u_re, u_im = U.real[:, :, None, None], U.imag[:, :, None, None]
    # an add.reduce over a leading axis adds its slices one after another
    out_re = np.add.reduce(u_re * f_re - u_im * f_im, axis=1, initial=0.0)
    out_im = np.add.reduce(u_re * f_im + u_im * f_re, axis=1, initial=0.0)
    # [(x, y), (r, t)] -> [(x, r), (y, t)]
    return tuple(o.reshape(2, 2, 2, 2, n).transpose(0, 2, 1, 3, 4).reshape(4, 4, n)
                 for o in (out_re, out_im))


def _batch_entropies(U, alpha, beta, theta, xi, mu, nu):
    """Entanglement across (A, R_A) : (B, R_B) of each batched output state.

    rho[k, l] = sum over m of out[m, k] conj(out[m, l]), summed from zero
    in order of m as einsum does, on the lower triangle only: the part
    that ``eigvalsh`` reads.
    """
    out_re, out_im = _batch_output(U, alpha, beta, theta, xi, mu, nu)
    k, l = _TRIL
    k_re, k_im, l_re, l_im = out_re[:, k], out_im[:, k], out_re[:, l], out_im[:, l]
    rho = np.zeros((4, 4, alpha.size, 2))
    rho[k, l, :, 0] = np.add.reduce(k_re * l_re + k_im * l_im, axis=0, initial=0.0)
    rho[k, l, :, 1] = np.add.reduce(k_im * l_re - k_re * l_im, axis=0, initial=0.0)
    rho = rho.view(complex)[..., 0].transpose(2, 0, 1)
    return entropy_bits(np.linalg.eigvalsh(rho, UPLO="L"))


def _entropies(U, x):
    """Output entanglement at each row of an (M, 6) array of angles."""
    return _batch_entropies(U, *np.ascontiguousarray(np.transpose(x)))


def entanglement_of_product_input(U, alpha, beta, theta=0.0, xi=0.0,
                                  mu=pi / 2, nu=pi / 2) -> float:
    """Output entanglement across (A, R_A) : (B, R_B) for one input."""
    angles = np.array([[alpha, beta, theta, xi, mu, nu]], dtype=float)
    return float(_entropies(check_unitary(U), angles)[0])


def _grid_axes(cfg: SearchConfig):
    g = cfg.grid_points_per_axis
    gm = max(4, g // 2)
    ab = np.linspace(0.0, pi / 2, g)
    mn = np.linspace(pi / (2 * gm), pi / 2, gm)
    ph = np.linspace(0.0, 2 * pi, 4, endpoint=False)
    return ab, mn, ph


def _halton(n: int, seed: int) -> np.ndarray:
    """The first n points, shape (n, 6), of a seeded scrambled Halton sequence.

    Bit for bit ``scipy.stats.qmc.Halton(d=6, scramble=True, seed=seed)
    .random(n)`` (scipy 1.17; Owen, arXiv 1706.02808).  One generator
    shuffles a permutation of the digits for each digit position of each
    base, bases in order; coordinate q of a column is the sum over j of
    perm_j[digit_j(q)] * w_j, where w_j comes from dividing by the base
    j + 1 times and the sum runs from zero in order of j, as scipy's loop
    does.
    """
    rng = np.random.default_rng(seed)
    q = np.arange(n)
    cols = []
    for base in (2, 3, 5, 7, 11, 13):
        count = ceil(54 / log2(base)) - 1  # until base**-count < 2**-54
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for row in perms:
            rng.shuffle(row)
        weights = [1.0 / base]
        while len(weights) < count:
            weights.append(weights[-1] / base)
        j = np.arange(count)[:, None]
        terms = perms[j, q // base ** j % base] * np.array(weights)[:, None]
        # cumsum adds the terms one after another; np.sum may pair them up
        cols.append(np.cumsum(terms, axis=0)[-1])
    return np.stack(cols, axis=1)


def brute_force_power(U: np.ndarray, cfg: SearchConfig = SearchConfig()) -> EntanglingPowerResult:
    """Numerically maximized output entanglement over all product inputs.

    Args:
        U: 4x4 unitary (any two-qubit gate, canonical or not).
        cfg: search budget and seed.

    Returns:
        EntanglingPowerResult with method "oracle".  The value is a lower
        bound on the true entangling power; diagnostics carry the grid
        stage maximum, the refined angles and the evaluation count.

    The 8 best grid cells and ``cfg.multi_starts`` scrambled Halton points
    are refined together by the lockstep ``minimize``.  The Halton points
    are scipy's seeded ``qmc.Halton(d=6, scramble=True)`` points with
    ``cfg.seed``, reproduced in numpy by ``_halton`` and tested bit for
    bit against scipy, scaled to the search box.  The results are taken
    in that order, each only if strictly better than the incumbent, and
    one more search polishes the winner.  Every start follows scipy's
    Nelder-Mead path, so the outcome is the one a start-by-start scipy
    search gives, to the last bit.
    """
    U = check_unitary(U)
    ab, mn, ph = _grid_axes(cfg)
    grids = np.meshgrid(ab, ab, ph, ph, mn, mn, indexing="ij")
    flat = [g.ravel() for g in grids]
    n_grid = flat[0].size
    vals = np.empty(n_grid)
    chunk = 8192
    for lo in range(0, n_grid, chunk):
        hi = min(lo + chunk, n_grid)
        vals[lo:hi] = _batch_entropies(
            U, flat[0][lo:hi], flat[1][lo:hi], flat[2][lo:hi],
            flat[3][lo:hi], flat[4][lo:hi], flat[5][lo:hi])
    order = np.argsort(vals)[::-1][:8]
    grid_best = float(vals[order[0]])

    starts = np.vstack([np.stack([f[order] for f in flat], axis=1),
                        _LOWS + (_HIGHS - _LOWS) * _halton(cfg.multi_starts, cfg.seed)])

    def objective(x):
        return -_entropies(U, x)

    best_val, best_x, n_evals, converged = grid_best, starts[0], n_grid, True
    for maxiter, xatol, fatol in ((cfg.refinement_iterations, 1e-8, 1e-12),
                                  (2 * cfg.refinement_iterations, 1e-9, 1e-13)):
        res = minimize(objective, starts, _LOWS, _HIGHS, maxiter, xatol, fatol)
        n_evals += res.nfev
        for x, fx, success in zip(res.x, res.fun, res.success):
            if -fx > best_val:
                best_val, best_x, converged = -fx, x, bool(success)
        starts = best_x[None]  # the final polish runs from the incumbent

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
    if grid_n < 1:
        raise DomainError(f"grid_n must be at least 1, got {grid_n}")
    U = check_unitary(U)
    ab = np.linspace(0.0, pi / 2, grid_n)
    A, B = np.meshgrid(ab, ab, indexing="ij")
    zeros = np.zeros(A.size)
    half = np.full(A.size, pi / 2)
    vals = _batch_entropies(U, A.ravel(), B.ravel(), zeros, zeros, half, half)
    i = int(np.argmax(vals))
    x0 = np.array([A.ravel()[i], B.ravel()[i]])

    def objective(x):
        tail = np.broadcast_to((0.0, 0.0, pi / 2, pi / 2), (len(x), 4))
        return -_entropies(U, np.hstack([x, tail]))

    res = minimize(objective, x0[None], _LOWS[:2], _HIGHS[:2], 400, 1e-9, 1e-13)
    return max(float(vals[i]), -float(res.fun[0]))
