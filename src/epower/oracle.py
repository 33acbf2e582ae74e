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

from dataclasses import astuple, dataclass, fields
from math import ceil, isfinite, log2, pi
from numbers import Integral
from time import perf_counter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qmath import DomainError, StateVector, check_unitary, entropy_bits
from .results import EntanglingPowerResult

__all__ = [
    "ProductInputParams",
    "SearchConfig",
    "output_state",
    "entanglement_of_product_input",
    "brute_force_power",
]

# search box of the six angles (alpha, beta, theta, xi, mu, nu)
_LOWS = np.zeros(6)
_HIGHS = np.array([pi / 2, pi / 2, 2 * pi, 2 * pi, pi / 2, pi / 2])
# lower triangle (row >= column) of a 4x4 matrix, and the flat 4x4 matrix
# read from it: an entry above the diagonal repeats its mirror image
_TRIL = np.tril_indices(4)
_FROM_TRIL = np.zeros((4, 4), dtype=int)
_FROM_TRIL[_TRIL] = _FROM_TRIL.T[_TRIL] = np.arange(10)
_FROM_TRIL = _FROM_TRIL.ravel()
# points per chunk of a grid.  Over 256, 512, 1,024 and 2,048 points the
# default grid stage ran alike up to 1,024 and about 5 % slower at 2,048;
# at 512 the products with U run without numpy's buffers, and the kernel's
# workspace is about 1.25 MiB.
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


@dataclass(frozen=True)
class ProductInputParams:
    """Six angles of an ancilla-assisted product input state.

    Side A's input on (A, R_A) is cos(alpha)|00> + sin(alpha) e^{i theta}
    (cos(mu)|10> + sin(mu)|11>), side B's the same in (beta, xi, nu).  The
    ranges are the search box ``_LOWS``, ``_HIGHS``, closed and with 1e-12
    of slack (alpha, beta, mu, nu in [0, pi/2]; theta, xi in [0, 2pi]), so
    the angles of every ``brute_force_power`` result construct a record.
    """

    alpha: float
    beta: float
    theta: float = 0.0
    xi: float = 0.0
    mu: float = pi / 2
    nu: float = pi / 2

    def __post_init__(self):
        for f, lo, hi in zip(fields(self), _LOWS.tolist(), _HIGHS.tolist()):
            v = float(getattr(self, f.name))
            if not isfinite(v):
                raise DomainError(f"{f.name}={v!r} must be finite")
            if not lo - 1e-12 <= v <= hi + 1e-12:
                raise DomainError(f"{f.name}={v!r} outside [{lo!r}, {hi!r}]")


class LockstepResult(NamedTuple):
    """Outcome of ``minimize`` for K starts in N dimensions."""

    x: np.ndarray        # (K, N) best vertex of each start
    fun: np.ndarray      # (K,) objective value at x
    success: np.ndarray  # (K,) True where xatol and fatol were met in time
    nfev: int            # objective evaluations, summed over the starts


# Nelder-Mead coefficients and initial-simplex steps, as in scipy.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# A step's candidate points are a * xbar - b * worst, one row per case in
# the order of its case code: 0 inside contraction, 1 outside contraction,
# 2 reflection, 3 expansion.  scipy's inside contraction
# (1 - psi) * xbar + psi * worst is written with b = -psi; negation is exact.
_A = np.array([1 - _PSI, 1 + _PSI * _RHO, 1 + _RHO, 1 + _RHO * _CHI])[:, None, None]
_B = np.array([-_PSI, _PSI * _RHO, _RHO, _RHO * _CHI])[:, None, None]
# the vertices whose values decide the case: best, second worst, worst
_CASE_VERTICES = np.array([0, -2, -1])


def minimize(fun, x0, lb, ub, maxiter, xatol, fatol) -> LockstepResult:
    """Bounded Nelder-Mead from K starts at once, advanced in lockstep.

    ``fun`` maps an (M, N) array of points to their M objective values;
    ``x0`` is the (K, N) array of starts.  Each start takes exactly the
    path of ``scipy.optimize.minimize(f, x0[k], method="Nelder-Mead",
    bounds=..., options={"maxiter", "xatol", "fatol"})`` (scipy 1.17) and
    returns its ``x``, ``fun``, ``success`` and evaluation count bit for
    bit, but a step costs at most three calls of ``fun`` for all starts
    together: the reflections, then the expansion and contraction
    candidates, then the shrink vertices.  The simplices are held vertex
    by vertex, [vertex, start], so that a step works on contiguous rows;
    a start that has converged leaves the arrays that the steps work on.
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
    sim, fsim = sim.transpose(1, 0, 2).copy(), fsim.T.copy()
    at = np.arange(k)  # np.arange(rows.size), cut as starts retire
    for _ in range(2):  # as scipy does; tied values may move on the second sort
        sim, fsim = _sort_vertices(sim, fsim, at)
    rows, s, f = np.arange(k), sim, fsim  # the starts still running and their simplices
    success = np.zeros(k, dtype=bool)

    for _ in range(1, maxiter):  # scipy counts the first simplex as iteration 1
        # f is sorted, so its largest |f[0] - f[j]| is f[-1] - f[0]; the
        # x test runs only where the f test passed
        done = (f[-1] - f[0] <= fatol).nonzero()[0]
        if done.size:
            d = s[:, done]
            d = d[1:] - d[0]
            done = done[np.maximum.reduce(np.abs(d, out=d), axis=(0, 2)) <= xatol]
        if done.size:
            sim[:, rows[done]], fsim[:, rows[done]], success[rows[done]] = s[:, done], f[:, done], True
            rows, s, f = np.delete(rows, done), np.delete(s, done, 1), np.delete(f, done, 1)
            if rows.size == 0:
                break
            at = at[:rows.size]
        xbar = np.add.reduce(s[:-1], 0)
        xbar /= n
        pts = _A * xbar
        pts -= _B * s[-1]
        np.maximum(pts, lb, out=pts)
        np.minimum(pts, ub, out=pts)
        fxr = fun(pts[2])
        nfev += rows.size

        # case code: 3 expand, 2 accept the reflection, 1 contract outside,
        # 0 contract inside; f is sorted, so the count of scipy's three
        # tests that pass is the first one that does
        code = np.add.reduce(fxr < f.take(_CASE_VERTICES, 0), 0)
        probe = (code != 2).nonzero()[0]
        ftrial = fxr.copy()  # the reflection's value where no other point is scored
        if probe.size:
            ftrial[probe] = fun(pts[code[probe], probe])
            nfev += probe.size

        # expand: keep the better of the two; contract outside: take it if
        # no worse than the reflection; inside: if better than the worst
        # vertex.  min(fxr, f[-1]) is f[-1] for an inside contraction, fxr
        # for every other case
        take = (ftrial < np.minimum(fxr, f[-1])) | ((code == 1) & (ftrial == fxr))
        pick = np.where(take, code, 2)  # the candidate that replaces the worst vertex
        shrink = (pick > code).nonzero()[0]  # a contraction that was not taken
        if shrink.size:
            best = s[0, shrink]
            moved = best + _SIGMA * (s[1:, shrink] - best)
            np.maximum(moved, lb, out=moved)
            np.minimum(moved, ub, out=moved)
        s[-1] = pts[pick, at]
        # the new vertex's value: a candidate taken is the smaller of the
        # two, and a shrink overwrites what this leaves
        np.minimum(ftrial, fxr, out=f[-1])
        if shrink.size:
            s[1:, shrink] = moved
            # passed start by start, the order the calls have always had
            f[1:, shrink] = fun(moved.transpose(1, 0, 2).reshape(-1, n)).reshape(-1, n).T
            nfev += shrink.size * n
        s, f = _sort_vertices(s, f, at)

    sim[:, rows], fsim[:, rows] = s, f
    return LockstepResult(x=sim[0], fun=np.min(fsim, axis=0), success=success, nfev=nfev)


def _sort_vertices(sim, fsim, at):
    """Order each simplex by objective value, best vertex first.

    ``sim`` and ``fsim`` are held [vertex, start]; ``at`` is
    np.arange(the number of starts).
    """
    m, k = fsim.shape
    flat = fsim.argsort(axis=0)
    flat *= k
    flat += at
    return sim.reshape(m * k, -1).take(flat, axis=0), fsim.take(flat)


def output_state(U: np.ndarray, params: ProductInputParams) -> StateVector:
    """Apply U to the (A, B) factors of the six-angle product input.

    Returns the 16-dimensional pure state with subsystem order
    (A, R_A, B, R_B); the gate acts as identity on the references.
    """
    U = np.ascontiguousarray(check_unitary(U))
    ws = _Workspace(1)
    out_re, out_im = _batch_output(U, *_factors(np.array([astuple(params)], dtype=float), ws), ws)
    amps = np.stack((out_re, out_im), axis=-1).view(complex)
    return StateVector(amps.reshape(16), (2, 2, 2, 2))


def _factors(x, ws):
    """The A and B input factors of an (M, 6) array of angles.

    Returns each side's qubit-and-reference input state, a (4, M) complex
    view [(a, r), point] into the factor buffer of ``ws``, a workspace for
    at least M points; its entry (0, 1) and the imaginary parts of (0, 0)
    and (1, 1) are zero and stay so.  The phase factor is cos + i sin of
    the phase, the bits of np.exp(1j * phase), and its products with real
    factors are taken part by part, which rounds as numpy's complex
    multiply by a real does; only the sign of a zero may differ, and the
    kernel's sums from +0.0 leave no trace of it.
    """
    v = ws.views(len(x))
    np.cos(x, out=v.cos_x)
    np.sin(x, out=v.sin_x)
    cos_a, sin_a, phase, cos_w, sin_w = v.trig
    re_0, re_im_2, re_3 = v.fac_parts
    np.copyto(re_0, cos_a)
    np.multiply(sin_a, phase, out=re_im_2)    # sin(angle) e^{i phase}
    np.multiply(re_im_2, cos_w, out=re_im_2)  # times cos(weight)
    np.multiply(sin_a, sin_w, out=re_3)
    return v.sides


class _Workspace:
    """Buffers for the kernel's intermediates, for batches of up to n points.

    ``io`` holds 48 floats a point, ``prod`` 256 and ``fac``, the input
    factors, (2, 4, n) complex.  A batch of P points uses the start of
    ``io`` and ``prod`` and the first P points of ``fac``, so one workspace
    serves every batch up to its size.  ``views(P)`` cuts the kernel's
    ``_Views`` of them once per batch size; a buffer is reused once what it
    held is spent.
    """

    def __init__(self, n):
        self.io, self.prod = np.empty(48 * n), np.empty(256 * n)
        self.fac = np.zeros((2, 4, n), dtype=complex)
        self._views = {}

    def views(self, n):
        if n not in self._views:
            self._views[n] = _Views(self, n)
        return self._views[n]


class _Views:
    """The kernel's shaped views of a workspace, for a batch of n points.

    Each buffer's views are cut in the order the kernel fills them; a tuple
    holds the operands of one step, in the order the step uses them.
    """

    def __init__(self, ws, n):
        # fac, [side, (a, r), point]: each side's (4, n) factor, and the
        # parts ``_factors`` writes: re of entry (0, 0), re and im of (1, 0),
        # re of (1, 1)
        fac = ws.fac[..., :n]
        self.sides = tuple(fac)
        self.fac_parts = (fac[:, 0].real, _planes(fac[:, 2]), fac[:, 3].real)
        # io, first: the cos and sin of the inputs, [cos/sin, angle/phase/weight,
        # side, point], and as (n, 6) arrays laid out as x is; the operands
        # cos and sin of the angle, both of the phase, cos and sin of the weight
        cos, sin = trig = ws.io[:12 * n].reshape(2, 3, 2, n)
        self.cos_x, self.sin_x = cos.reshape(6, n).T, sin.reshape(6, n).T
        self.trig = (cos[0], sin[0], trig[:, 1], cos[2], sin[2])
        # io, then: the input's planes -im, re, im, [(a, b), plane, (r, t, point)],
        # as the targets (re, im), im and -im; their windows of 8 n floats,
        # (re, im) then (-im, re), as (2, 1, 4, 8 n)
        planes = ws.io[:48 * n].reshape(4, 3, 4 * n)
        self.planes = (planes[:, 1:], planes[:, 2], planes[:, 0])
        by_u = sliding_window_view(planes.reshape(4, 12 * n), 8 * n, axis=1)[:, 4 * n::-4 * n]
        self.by_u = by_u.transpose(1, 0, 2)[:, None]
        # io, last: the output state, [re/im, (x, r), (y, t), point], also
        # as [re/im, x, y, r, t, point]
        self.state = ws.io[:32 * n].reshape(2, 4, 4, n)
        self.out_xyrt = self.state.reshape(2, 2, 2, 2, 2, n).transpose(0, 1, 3, 2, 4, 5)
        # prod, first: the complex input [a, b, r, t, point] at its end, and
        # its planes as [(a, b), re/im, (r, t, point)]
        self.full = ws.prod[224 * n:256 * n].view(complex).reshape(2, 2, 2, 2, n)
        self.full_planes = _planes(self.full).reshape(2, 4, 4 * n).transpose(1, 0, 2)
        # prod, then: U's re and im times by_u, (2, 4, 4, 8 n) as [., (x, y),
        # (a, b), .], and each; their sum as [re/im, x, y, (a, b), r, t, point]
        uf = ws.prod[:256 * n].reshape(2, 4, 4, 8 * n)
        self.uf = (uf, *uf)
        self.uf_xyrt = uf[0].reshape(2, 2, 4, 2, 2, 2, n).transpose(3, 0, 1, 2, 4, 5, 6)
        # prod, then: rho's terms k and l, re and im, as [., m, (k, l) pair,
        # point], then l's re and im; products p over k and q after the
        # terms, then their planes
        terms = ws.prod[:160 * n].reshape(2, 2, 4, 10, n)
        self.terms = (*terms, *terms[1])
        p, q = terms[0], ws.prod[160 * n:240 * n].reshape(2, 4, 10, n)
        self.pq = (p, q, *p, *q)
        # prod, last: rho's complex lower triangle over q, (10, n), and its
        # planes; rho over the terms, (16, n), and its (n, 4, 4) matrices
        self.tril = ws.prod[160 * n:180 * n].view(complex).reshape(10, n)
        self.tril_planes = _planes(self.tril)
        rho = ws.prod[:32 * n].view(complex).reshape(16, n)
        self.rho = (rho, rho.reshape(4, 4, n).transpose(2, 0, 1))


def _planes(z):
    """The re and im planes of a complex array, stacked on a new leading axis: a view."""
    return z.view(float).reshape(z.shape + (2,)).transpose((z.ndim,) + tuple(range(z.ndim)))


def _batch_output(U, fa, fb, ws):
    """Output states for batched input factors, points last.

    Returns the real and imaginary parts, stacked: shape (2, 4, 4, P),
    indexed [re/im, (x, r), (y, t), point] in the subsystem order
    (A, R_A, B, R_B):
    out[x, r, y, t] = sum over (a, b) of U[(x, y), (a, b)] psi[a, r] phi[b, t],
    where psi and phi are the (4, P) factors ``fa`` and ``fb`` of
    ``_factors``, indexed [(a, r), point] and [(b, t), point].
    The sum runs from zero over (a, b) in order, a outer and b inner, and
    each product with U is written out on float arrays: the operations of
    ``np.einsum``, so the bits are einsum's.  numpy's complex multiply
    ufunc uses FMA and does not match it; it forms psi[a, r] phi[b, t],
    as it always has.  The planes of that product are copied out as -im,
    re, im, so that one multiply forms u_re (re, im) and u_im (-im, re)
    over runs of 8 P contiguous floats, which numpy runs without its
    buffers at P = ``_CHUNK``, and one add forms each term:
    u_re re + (-(u_im im)) is u_re re - u_im im to the bit.  U is a
    C-contiguous complex array, read through a float view.  The
    intermediates go to ``ws``, a workspace for at least P points, and the
    result is a view into it.
    """
    n = fa.shape[1]
    v = ws.views(n)
    np.multiply(fa.reshape(2, 1, 2, 1, n), fb.reshape(1, 2, 1, 2, n), out=v.full)
    re_im, im, neg_im = v.planes
    np.copyto(re_im, v.full_planes)
    np.negative(im, out=neg_im)
    uf, by_re, by_im = v.uf
    # U's re and im planes, [., (x, y), (a, b), .]
    np.multiply(U.view(float).reshape(4, 4, 2, 1).transpose(2, 0, 1, 3), v.by_u, out=uf)
    np.add(by_re, by_im, out=by_re)
    # an add.reduce over a leading axis adds its slices one after another;
    # it writes [x, y, r, t] straight into the [(x, r), (y, t)] layout
    np.add.reduce(v.uf_xyrt, axis=3, initial=0.0, out=v.out_xyrt)
    return v.state


def _batch_entropies(U, fa, fb, ws):
    """Entanglement across (A, R_A) : (B, R_B) of each batched output state.

    rho[k, l] = sum over m of out[m, k] conj(out[m, l]), summed from zero
    in order of m as einsum does, on the lower triangle only: the part
    that ``eigvalsh`` reads.  The intermediates go to ``ws`` as in
    ``_batch_output``.
    """
    state = _batch_output(U, fa, fb, ws)
    v = ws.views(fa.shape[1])
    k_terms, l_terms, l_re, l_im = v.terms
    p, q, p_re, p_im, q_re, q_im = v.pq
    # out[:, k] and out[:, l], re and im; mode "raise" would buffer out
    state.take(_TRIL[0], axis=2, out=k_terms, mode="clip")
    state.take(_TRIL[1], axis=2, out=l_terms, mode="clip")
    np.multiply(k_terms, l_im, out=q)  # k_re l_im, k_im l_im
    np.multiply(k_terms, l_re, out=p)  # k_re l_re, k_im l_re
    np.add(p_re, q_im, out=p_re)       # re: k_re l_re + k_im l_im
    np.subtract(p_im, q_re, out=p_im)  # im: k_im l_re - k_re l_im
    np.add.reduce(p, axis=1, initial=0.0, out=v.tril_planes)
    rho, matrices = v.rho
    v.tril.take(_FROM_TRIL, axis=0, out=rho, mode="clip")
    return entropy_bits(np.linalg.eigvalsh(matrices, UPLO="L"))


def _grid_entropies(U, ab, mn, ph):
    """Grid-stage entropies and the number of input pairs the kernel scored.

    The entropies are flat, in ``np.meshgrid`` order of the axes
    (alpha, beta, theta, xi, mu, nu) = (ab, ab, ph, ph, mn, mn).  Both
    sides take the same (angle, phase, weight) triples, so the grid is
    every pair of one side's input states, and each distinct pair is
    scored once.  sin(0.0) = 0.0, so every triple with angle 0 gives the
    state (1, 0, 0, 0) up to the sign of zeros; the kernel's sums start
    from +0.0 and leave no trace of those signs, so these triples share
    one state and every grid value keeps its bits.  The states are built
    in a workspace of their size; the pairs go in chunks of ``_CHUNK``
    through a workspace of that size, each chunk gathering its factors
    into the factor buffer, and that workspace is freed before the grid
    values are gathered from the table of pairs.
    """
    angle, phase, weight = (g.ravel() for g in np.meshgrid(ab, ph, mn, indexing="ij"))
    # the first ph.size * mn.size triples have angle ab[0] = 0; keep the last of them
    dup = ph.size * mn.size - 1
    n = angle.size - dup
    # both sides of the rows (angle, angle, phase, phase, weight, weight)
    states = _factors(np.repeat(np.array([angle[dup:], phase[dup:], weight[dup:]]).T, 2, 1),
                      _Workspace(n))[0]
    side = np.maximum(np.arange(angle.size) - dup, 0).reshape(ab.size, ph.size, mn.size)
    ws, table = _Workspace(_CHUNK), np.empty(n * n)
    for lo in range(0, n * n, _CHUNK):
        i, j = np.divmod(np.arange(lo, min(lo + _CHUNK, n * n)), n)
        sa, sb = ws.views(i.size).sides
        states.take(i, axis=1, out=sa, mode="clip")
        states.take(j, axis=1, out=sb, mode="clip")
        table[lo:lo + i.size] = _batch_entropies(U, sa, sb, ws)
    del ws, sa, sb  # held over the gather, they would raise the peak memory
    vals = table.reshape(n, n)[side[:, None, :, None, :, None], side[None, :, None, :, None, :]]
    return vals.ravel(), table.size


def _entropies(U, x, ws):
    """Output entanglement at each row of an (M, 6) array of angles.

    The rows go in chunks of at most ``_CHUNK`` through ``ws``, a workspace
    for at least min(M, ``_CHUNK``) points.
    """
    vals = [_batch_entropies(U, *_factors(x[lo:lo + _CHUNK], ws), ws)
            for lo in range(0, len(x), _CHUNK)]
    return vals[0] if len(vals) == 1 else np.concatenate(vals)


def entanglement_of_product_input(U, *angles, **named) -> float:
    """Output entanglement across (A, R_A) : (B, R_B) for one input, given
    by the angles of a ``ProductInputParams``, in order or by name."""
    p = ProductInputParams(*angles, **named)
    x = np.array([[getattr(p, f.name) for f in fields(p)]], dtype=float)
    return float(_entropies(np.ascontiguousarray(check_unitary(U)), x, _Workspace(1))[0])


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
        input pairs the grid stage scored (``grid_distinct``), the number
        of batched objective calls of the refinement (``refine_calls``),
        and the wall time of each stage (``timings``: ``grid_s`` up to the
        choice of the 8 best cells, ``refine_s`` from there on, and
        ``polish_s``, the final polish's share of ``refine_s``).

    The grid takes ``cfg.grid_points_per_axis`` angles in [0, pi/2], four
    phases and max(4, g // 2) weights per side, in every combination.
    ``_grid_entropies`` scores it as every pair of one side's input states,
    each pair with the bits of its own six-angle evaluation: on the default
    grid, 289 distinct states per side (the 24 triples at angle 0 share
    one) and 83,521 pairs for the 97,344 grid points.

    The 8 best grid cells and ``cfg.multi_starts`` scrambled Halton points
    are refined together by the lockstep ``minimize``.  The Halton points
    are scipy's seeded ``qmc.Halton(d=6, scramble=True)`` points with
    ``cfg.seed``, reproduced in numpy by ``_halton`` and tested bit for
    bit against scipy, scaled to the search box.  The results are taken
    in that order, each only if strictly better than the incumbent, and
    one more search polishes the winner.  Every start follows scipy's
    Nelder-Mead path, so the outcome is the one a start-by-start scipy
    search gives, to the last bit.  The grid stage and the refinement
    each write the kernel's intermediates into a workspace of ``_CHUNK``
    points of their own; a larger batch, such as the first simplices of
    many starts, goes through it in chunks.  The grid's workspace is freed
    before its values are gathered, and the values before the refinement,
    which keeps only their count and the 8 best cells.
    """
    U = np.ascontiguousarray(check_unitary(U))
    t_grid = perf_counter()
    ab, mn, ph = _grid_axes(cfg)
    vals, n_distinct = _grid_entropies(U, ab, mn, ph)
    # keep the count and the 8 best cells, not the grid values or their order
    n_grid, order = vals.size, np.argsort(vals)[::-1][:8].copy()
    grid_best = float(vals[order[0]])
    del vals

    t_refine = perf_counter()
    axes = (ab, ab, ph, ph, mn, mn)
    cells = np.unravel_index(order, [a.size for a in axes])
    starts = np.vstack([np.stack([a[c] for a, c in zip(axes, cells)], axis=1),
                        _LOWS + (_HIGHS - _LOWS) * _halton(cfg.multi_starts, cfg.seed)])
    ws = _Workspace(_CHUNK)
    refine_calls = 0

    def objective(x):
        nonlocal refine_calls
        refine_calls += 1
        return -_entropies(U, x, ws)

    best_val, best_x, n_refine, converged = grid_best, starts[0], 0, True
    for maxiter, xatol, fatol in ((cfg.refinement_iterations, 1e-8, 1e-12),
                                  (2 * cfg.refinement_iterations, 1e-9, 1e-13)):
        t_pass = perf_counter()
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
            "n_evaluations": n_grid + n_refine,
            "grid_evaluations": n_grid,
            "grid_distinct": n_distinct,
            "refine_evaluations": n_refine,
            "refine_calls": refine_calls,
            "timings": {"grid_s": t_refine - t_grid, "refine_s": t_end - t_refine,
                        "polish_s": t_end - t_pass},
            "converged": converged,
            "lower_bound": True,
        },
    )
