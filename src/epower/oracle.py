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
from time import perf_counter
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
]

# search box of the six angles (alpha, beta, theta, xi, mu, nu)
_LOWS = np.zeros(6)
_HIGHS = np.array([pi / 2, pi / 2, 2 * pi, 2 * pi, pi / 2, pi / 2])
# lower triangle (row >= column) of a 4x4 matrix
_TRIL = np.tril_indices(4)
# points per chunk of a grid.  In a sweep from 128 to 8,192 points, 256 to
# 2,048 ran alike, 128 paid per-chunk overhead and 4,096 up faulted again;
# at 512 the kernel's workspace is about 2 MiB.
_CHUNK = 512


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
    rows = np.arange(len(ind))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def output_state(U: np.ndarray, params: ProductInputParams) -> StateVector:
    """Apply U to the (A, B) factors of the six-angle product input.

    Returns the 16-dimensional pure state with subsystem order
    (A, R_A, B, R_B); the gate acts as identity on the references.
    """
    U = check_unitary(U)
    out_re, out_im = _batch_output(U, *_factors(np.array([astuple(params)], dtype=float)))
    amps = np.stack((out_re, out_im), axis=-1).view(complex)
    return StateVector(amps.reshape(16), (2, 2, 2, 2))


def _input_factor(angle, phase, weight):
    """One side's qubit-and-reference input state, shape (4, P), points last."""
    v = np.zeros((4, angle.size), dtype=complex)
    sin = np.sin(angle)
    v[0] = np.cos(angle)
    v[2] = sin * np.exp(1j * phase) * np.cos(weight)
    v[3] = sin * np.sin(weight)
    return v


def _factors(x):
    """The A and B input factors, each (4, M), of an (M, 6) array of angles."""
    alpha, beta, theta, xi, mu, nu = np.ascontiguousarray(np.transpose(x))
    return _input_factor(alpha, theta, mu), _input_factor(beta, xi, nu)


class _Workspace(NamedTuple):
    """The kernel's intermediates for P points, written in place."""

    full: np.ndarray   # (2, 2, 2, 2, P) complex input, [a, b, r, t, point]
    prod: np.ndarray   # (2, 4, 4, 4, P) two products with U
    sums: np.ndarray   # (2, 4, 4, P) output, re and im, [(x, y), (r, t), point]
    state: np.ndarray  # (2, 4, 4, P) output, re and im, [(x, r), (y, t), point]
    terms: np.ndarray  # (4, 4, 10, P) k_re, k_im, l_re, l_im of the lower triangle
    pairs: np.ndarray  # (2, 4, 10, P) two products of terms
    tril: np.ndarray   # (10, P, 2) lower triangle of rho, re and im last
    rho: np.ndarray    # (4, 4, P, 2) rho; the upper triangle stays zero


def _workspace(n):
    """A workspace for n points."""
    return _Workspace(np.empty((2, 2, 2, 2, n), dtype=complex), np.empty((2, 4, 4, 4, n)),
                      np.empty((2, 4, 4, n)), np.empty((2, 4, 4, n)), np.empty((4, 4, 10, n)),
                      np.empty((2, 4, 10, n)), np.empty((10, n, 2)), np.zeros((4, 4, n, 2)))


def _sum_of_products(a, b, combine, c, d, work, axis, out):
    """add.reduce(combine(a * b, c * d), axis) from zero into out.

    An add.reduce over a leading axis adds its slices one after another.
    """
    p, q = work
    np.multiply(a, b, out=p)
    np.multiply(c, d, out=q)
    return np.add.reduce(combine(p, q, out=p), axis=axis, initial=0.0, out=out)


def _batch_output(U, fa, fb, ws=None):
    """Output states for batched input factors, points last.

    Returns the real and imaginary parts, each of shape (4, 4, P) and
    indexed [(x, r), (y, t), point] in the subsystem order (A, R_A, B, R_B):
    out[x, r, y, t] = sum over (a, b) of U[(x, y), (a, b)] psi[a, r] phi[b, t],
    where psi and phi are the (4, P) blocks ``fa`` and ``fb`` of
    ``_input_factor``, indexed [(a, r), point] and [(b, t), point].
    The sum runs from zero over (a, b) in order, a outer and b inner, and
    each product with U is written out on float arrays: the operations of
    ``np.einsum``, so the bits are einsum's.  numpy's complex multiply
    ufunc uses FMA and does not match it; it forms psi[a, r] phi[b, t],
    as it always has.  The intermediates go to ``ws``, a fresh workspace
    unless one for P points is given, and the result is a view into it.
    """
    n = fa.shape[1]
    ws = _workspace(n) if ws is None else ws
    full = np.multiply(fa.reshape(2, 1, 2, 1, n), fb.reshape(1, 2, 1, 2, n), out=ws.full)
    f_re, f_im = (f.reshape(1, 4, 4, n) for f in (full.real, full.imag))  # [., (a, b), (r, t), point]
    u_re, u_im = U.real[:, :, None, None], U.imag[:, :, None, None]
    _sum_of_products(u_re, f_re, np.subtract, u_im, f_im, ws.prod, 1, ws.sums[0])
    _sum_of_products(u_re, f_im, np.add, u_im, f_re, ws.prod, 1, ws.sums[1])
    # [(x, y), (r, t)] -> [(x, r), (y, t)]
    np.copyto(ws.state.reshape(2, 2, 2, 2, 2, n),
              ws.sums.reshape(2, 2, 2, 2, 2, n).transpose(0, 1, 3, 2, 4, 5))
    return ws.state[0], ws.state[1]


def _batch_entropies(U, fa, fb, ws=None):
    """Entanglement across (A, R_A) : (B, R_B) of each batched output state.

    rho[k, l] = sum over m of out[m, k] conj(out[m, l]), summed from zero
    in order of m as einsum does, on the lower triangle only: the part
    that ``eigvalsh`` reads.  The intermediates go to ``ws`` as in
    ``_batch_output``.
    """
    ws = _workspace(fa.shape[1]) if ws is None else ws
    _batch_output(U, fa, fb, ws)
    k, l = _TRIL
    # out[:, k] and out[:, l], re and im; mode "raise" would buffer out
    ws.state.take(k, axis=2, out=ws.terms[:2], mode="clip")
    ws.state.take(l, axis=2, out=ws.terms[2:], mode="clip")
    k_re, k_im, l_re, l_im = ws.terms
    _sum_of_products(k_re, l_re, np.add, k_im, l_im, ws.pairs, 0, ws.tril[..., 0])
    _sum_of_products(k_im, l_re, np.subtract, k_re, l_im, ws.pairs, 0, ws.tril[..., 1])
    ws.rho[k, l] = ws.tril
    rho = ws.rho.view(complex)[..., 0].transpose(2, 0, 1)
    return entropy_bits(np.linalg.eigvalsh(rho, UPLO="L"))


def _pair_entropies(U, fa, fb):
    """``_batch_entropies`` of every pair of an A factor and a B factor.

    ``fa`` and ``fb`` are (4, m) and (4, n) blocks of ``_input_factor``;
    the result has shape (m, n).  The pairs go in chunks of ``_CHUNK``
    through one workspace reused for every full chunk, so the chunks
    allocate none of the kernel's large intermediates; a short last chunk
    gets its own exact-size one.
    """
    m, n = fa.shape[1], fb.shape[1]
    vals = np.empty(m * n)
    ws = _workspace(_CHUNK)
    for lo in range(0, m * n, _CHUNK):
        hi = min(lo + _CHUNK, m * n)
        i, j = np.divmod(np.arange(lo, hi), n)
        vals[lo:hi] = _batch_entropies(U, fa[:, i], fb[:, j],
                                       ws=ws if hi - lo == _CHUNK else None)
    return vals.reshape(m, n)


def _grid_entropies(U, ab, mn, ph):
    """Grid-stage entropies and the number of input pairs the kernel scored.

    The entropies are flat, in ``np.meshgrid`` order of the axes
    (alpha, beta, theta, xi, mu, nu) = (ab, ab, ph, ph, mn, mn).  Both sides take the same (angle, phase, weight) triples, so the grid
    is every pair of one side's input states, and each distinct pair is
    scored once.  sin(0.0) = 0.0, so every triple with angle 0 gives the
    state (1, 0, 0, 0) up to the sign of zeros; the kernel's sums start
    from +0.0 and leave no trace of those signs, so these triples share
    one state and every grid value keeps its bits.
    """
    angle, phase, weight = (g.ravel() for g in np.meshgrid(ab, ph, mn, indexing="ij"))
    # the first ph.size * mn.size triples have angle ab[0] = 0; keep the last of them
    dup = ph.size * mn.size - 1
    states = _input_factor(angle[dup:], phase[dup:], weight[dup:])
    side = np.maximum(np.arange(angle.size) - dup, 0).reshape(ab.size, ph.size, mn.size)
    table = _pair_entropies(U, states, states)
    vals = table[side[:, None, :, None, :, None], side[None, :, None, :, None, :]]
    return vals.ravel(), table.size


def _entropies(U, x):
    """Output entanglement at each row of an (M, 6) array of angles."""
    return _batch_entropies(U, *_factors(x))


def entanglement_of_product_input(U, alpha, beta, theta=0.0, xi=0.0,
                                  mu=pi / 2, nu=pi / 2) -> float:
    """Output entanglement across (A, R_A) : (B, R_B) for one input."""
    angles = np.array([[alpha, beta, theta, xi, mu, nu]], dtype=float)
    if not np.isfinite(angles).all():
        raise DomainError(f"input angles must be finite, got {angles[0].tolist()}")
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
        stage maximum, the refined angles, the evaluation counts of the
        grid and refinement stages and their sum, the number of distinct
        input pairs the grid stage scored (``grid_distinct``), and the wall
        time of each stage (``timings``: ``grid_s`` up to the choice of the
        8 best cells, ``refine_s`` from there on).

    The grid takes ``cfg.grid_points_per_axis`` angles in [0, pi/2], four
    phases and max(4, g // 2) weights per side, in every combination.
    Both sides take the same (angle, phase, weight) triples, so the grid
    is scored as every pair of one side's input states: 312 triples per
    side on the default grid.  At angle 0 all triples give the state
    (1, 0, 0, 0), apart from the sign of zeros, since sin(0.0) = 0.0;
    the kernel's sums start from +0.0, so those signs leave no trace and
    the triples share one state.  That leaves 289 states per side and
    83,521 distinct pairs for the 97,344 grid points, each with the bits
    of its own six-angle evaluation.

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
    t_grid = perf_counter()
    ab, mn, ph = _grid_axes(cfg)
    vals, n_distinct = _grid_entropies(U, ab, mn, ph)
    order = np.argsort(vals)[::-1][:8]
    grid_best = float(vals[order[0]])

    t_refine = perf_counter()
    axes = (ab, ab, ph, ph, mn, mn)
    cells = np.unravel_index(order, [a.size for a in axes])
    starts = np.vstack([np.stack([a[c] for a, c in zip(axes, cells)], axis=1),
                        _LOWS + (_HIGHS - _LOWS) * _halton(cfg.multi_starts, cfg.seed)])

    def objective(x):
        return -_entropies(U, x)

    best_val, best_x, n_refine, converged = grid_best, starts[0], 0, True
    for maxiter, xatol, fatol in ((cfg.refinement_iterations, 1e-8, 1e-12),
                                  (2 * cfg.refinement_iterations, 1e-9, 1e-13)):
        res = minimize(objective, starts, _LOWS, _HIGHS, maxiter, xatol, fatol)
        n_refine += res.nfev
        for x, fx, success in zip(res.x, res.fun, res.success):
            if -fx > best_val:
                best_val, best_x, converged = -fx, x, bool(success)
        starts = best_x[None]  # the final polish runs from the incumbent
    t_end = perf_counter()

    return EntanglingPowerResult(
        value=best_val, method="oracle",
        critical="six-angle product input",
        critical_alpha=float(best_x[0]), critical_beta=float(best_x[1]),
        diagnostics={
            "angles": tuple(float(v) for v in best_x),
            "grid_best": grid_best,
            "n_evaluations": vals.size + n_refine,
            "grid_evaluations": vals.size,
            "grid_distinct": n_distinct,
            "refine_evaluations": n_refine,
            "timings": {"grid_s": t_refine - t_grid, "refine_s": t_end - t_refine},
            "converged": converged,
            "lower_bound": True,
        },
    )
