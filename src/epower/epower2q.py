"""Entangling power of two-qubit gates whose last two coefficients agree.

For such gates the critical inputs reduce to pairs of two-qubit states
cos(a)|00> + sin(a)|11>, the two-angle face of the oracle's six-angle
``ProductInputParams``; the output spectrum on one side has a closed
form, and the maximum lies on the line alpha + beta = pi/2.  This module
implements the closed-form spectrum, the boundary analysis, the line
maximization, analytic values for the two solvable families, derivative
diagnostics, and a falsification harness for the edge-maximum conjecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, sin, sqrt, pi, log2
from time import perf_counter

import numpy as np

from .canonical import (
    CanonicalParams,
    PauliCoefficients,
    coefficients_from_xyz,
    schmidt_rank,
)
from .qmath import DensityMatrix, DomainError, entropy_bits, entropy_bits4, shannon_entropy
from .results import EntanglingPowerResult
from .schmidt2 import PhaseGateSpec, entangling_power_phase_gate

__all__ = [
    "Spectrum",
    "reduced_density_closed_form",
    "spectrum",
    "entanglement_at",
    "line_profile_value",
    "line_profile_values",
    "entanglement_grid",
    "partial_derivatives",
    "entangling_power_c2eqc3",
    "conjecture_gap",
    "example1_threshold",
    "example1_power",
    "example2_power",
    "example1_line_entropy",
    "e2_derivative",
    "e2_derivative_limit_upper",
    "e2_derivative_limit_lower",
]

SPECTRUM_CLAMP = 1e-10
DEGENERATE_LAMBDA = 1e-12
# the derivative formula divides by the gap inside each eigenvalue pair;
# below this the gap is dominated by rounding noise in the discriminant
DEGENERATE_GAP = 1e-7
LINE_GRID_N = 2001
BRACKET_TOL = 1e-10
TIE_TOL = 1e-9
# rounding slack on the line parameter's range [0, pi/4]
ALPHA_SLACK = 1e-12
CONJECTURE_GRID_N = 4001
# (alpha, beta, critical tag) of the line ends alpha = pi/4 and alpha = 0,
# in the solver's tie order
_LINE_ENDS = ((pi / 4, pi / 4, "maximally entangled (alpha=pi/4)"),
              (0.0, pi / 2, "product (alpha=0 line edge)"))

_LIMIT_NOTE = (
    "d/dy limits at the endpoints: 2|c|^2/ln2 at y=+1, "
    "|c|^2 (log2 4|c|^2 - log2(1-4|c|^2)) at y=-1"
)


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigenvalues of the one-sided reduced output state.

    ``lam`` is ordered (lam1, lam2, lam3, lam4) with lam1 <= lam2 and
    lam3 <= lam4; ``t1``/``t2`` are the two block traces.
    """

    lam: np.ndarray
    t1: float
    t2: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.min() < -SPECTRUM_CLAMP:
            raise DomainError(f"spectrum entry {lam.min():.3e} below clamp")
        lam = np.clip(lam, 0.0, None)
        if not abs(lam.sum() - 1.0) <= 1e-9:
            raise DomainError(f"spectrum sums to {lam.sum()!r}, not 1")
        if lam[0] > lam[1] + 1e-12 or lam[2] > lam[3] + 1e-12:
            raise DomainError("spectrum pairs out of order")
        if not abs(self.t1 + self.t2 - 1.0) <= 1e-10:
            raise DomainError(f"block traces sum to {self.t1 + self.t2!r}, not 1")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    def entropy(self) -> float:
        return shannon_entropy(self.lam)


def _constants(c: PauliCoefficients):
    """Gate constants (b, a2, k, k2, l1, l2) of the closed-form spectrum,
    in plain Python complex arithmetic (the bits of numpy's scalars).

    Computed once per coefficient object and kept in its ``__dict__``, as
    ``functools.cached_property`` does on a frozen dataclass.  The cache
    is never keyed by value: coefficients that compare equal but differ
    in the sign of a zero can give constants that differ in that sign.
    """
    consts = c.__dict__.get("_spectrum_constants")
    if consts is None:
        c0, c1, c2, c3 = (complex(v) for v in (c.c0, c.c1, c.c2, c.c3))
        b = abs(c0) ** 2 + abs(c3) ** 2
        a2 = abs(c1) ** 2 + abs(c2) ** 2
        k = (c0 * c3.conjugate() + c3 * c0.conjugate()).real
        k2 = (c1 * c2.conjugate() + c2 * c1.conjugate()).real
        l1 = abs(c0 * c3) ** 2
        l2 = abs(c1 * c2) ** 2
        consts = c.__dict__["_spectrum_constants"] = (b, a2, k, k2, l1, l2)
    return consts


def _lambda_pair(t, big_l):
    """Stable eigenvalue pair ((t -+ sqrt(t^2-4L))/2) with product form.

    The small root is recovered from lam_lo * lam_hi = L, dividing by at
    least 1e-300, to avoid the cancellation in t - sqrt(t^2 - 4L).
    """
    disc = t * t - 4.0 * big_l
    if (disc < -1e-10).any():
        raise RuntimeError(f"negative discriminant {disc.min():.3e} in spectrum")
    hi = 0.5 * (t + np.sqrt(np.clip(disc, 0.0, None)))
    pos = hi > 1e-300
    lo = np.where(pos, big_l / np.where(pos, hi, 1.0), 0.0)
    return lo, hi


def _spectrum_arrays(c: PauliCoefficients, alpha, beta):
    """Broadcast closed-form spectrum; returns (lam[..., 4], t1, t2).

    A NaN or inf angle raises DomainError here, before it can reach the
    spectrum as NaN.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    for name, v in (("alpha", alpha), ("beta", beta)):
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(f"{name}={float(v[bad][0])!r} must be finite")
    return _block_spectrum(c, np.cos(2 * alpha) * np.cos(2 * beta),
                           np.sin(2 * alpha) ** 2 * np.sin(2 * beta) ** 2)


def _block_spectrum(c: PauliCoefficients, cc, s_sq):
    """Spectrum from cc = cos 2a cos 2b and s_sq = sin^2 2a sin^2 2b; ``lam`` is
    components-first in memory, so entropy_bits sums its rows as vector adds."""
    b, a2, k, k2, l1, l2 = _constants(c)
    t1 = b + cc * k
    t2 = a2 - cc * k2
    lo1, hi1 = _lambda_pair(t1, l1 * s_sq)
    lo2, hi2 = _lambda_pair(t2, l2 * s_sq)
    lam = np.array([lo1, hi1, lo2, hi2])
    return lam.transpose((*range(1, lam.ndim), 0)), t1, t2


def reduced_density_closed_form(c: PauliCoefficients, alpha: float, beta: float) -> DensityMatrix:
    """Closed-form reduced state on (B, R_B) for the two-angle product input.

    The matrix is X-shaped in the computational basis of B (x) R_B: one
    2x2 block on |00>,|11> and one on |01>,|10>.
    """
    c0, c1, c2, c3 = c.as_array()
    ca = cos(2 * alpha)
    cb2, sb2, s2b = cos(beta) ** 2, sin(beta) ** 2, sin(2 * beta)
    k = c0 * np.conj(c3) + c3 * np.conj(c0)
    k2 = c1 * np.conj(c2) + c2 * np.conj(c1)
    w = c0 * np.conj(c3) - c3 * np.conj(c0)
    w2 = c1 * np.conj(c2) - c2 * np.conj(c1)
    b = abs(c0) ** 2 + abs(c3) ** 2
    a2 = abs(c1) ** 2 + abs(c2) ** 2
    d = abs(c0) ** 2 - abs(c3) ** 2
    d2 = abs(c1) ** 2 - abs(c2) ** 2

    m11 = cb2 * (b + ca * k)
    m44 = sb2 * (b - ca * k)
    m14 = 0.5 * s2b * (d - ca * w)
    m41 = 0.5 * s2b * (d + ca * w)
    m22 = cb2 * (a2 - ca * k2)
    m33 = sb2 * (a2 + ca * k2)
    m23 = 0.5 * s2b * (d2 + ca * w2)
    m32 = 0.5 * s2b * (d2 - ca * w2)

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[0, 3], rho[3, 0], rho[3, 3] = m11, m14, m41, m44
    rho[2, 2], rho[2, 1], rho[1, 2], rho[1, 1] = m22, m23, m32, m33
    return DensityMatrix(rho)


def spectrum(c: PauliCoefficients, alpha: float, beta: float) -> Spectrum:
    """Closed-form eigenvalues of the reduced output state."""
    lam, t1, t2 = _spectrum_arrays(c, alpha, beta)
    return Spectrum(lam, float(t1), float(t2))


def entanglement_at(c: PauliCoefficients, alpha: float, beta: float) -> float:
    """Output entanglement in ebits at input angles (alpha, beta)."""
    return spectrum(c, alpha, beta).entropy()


def _scalar_pair(t: float, big_l: float):
    """``_lambda_pair`` for one Python float t and L, by the same operations."""
    disc = t * t - 4.0 * big_l
    if disc < -1e-10:
        raise RuntimeError(f"negative discriminant {disc:.3e} in spectrum")
    hi = 0.5 * (t + sqrt(max(disc, 0.0)))
    return (big_l / hi if hi > 1e-300 else 0.0), hi


def line_profile_value(c: PauliCoefficients, alpha: float) -> float:
    """Entanglement at (alpha, pi/2 - alpha) for alpha in [0, pi/4].

    The golden-section refinement calls this once per point, so it works
    on Python floats and ``math`` to the end, where numpy 0-d arrays or a
    4-vector through ``entropy_bits`` would spend most of the time in
    dispatch; ``entropy_bits4`` sums the entropy with the bits
    ``entropy_bits`` gives.  Python's ``**`` runs libm ``pow``; numpy's
    array power does not, so ``line_profile_values`` can differ from this
    in the last bit.
    """
    if not -ALPHA_SLACK <= alpha <= pi / 4 + ALPHA_SLACK:
        raise DomainError(f"alpha={alpha!r} outside [0, pi/4]")
    b, a2, k, k2, l1, l2 = _constants(c)
    cc = -cos(2 * alpha) ** 2
    s_sq = sin(2 * alpha) ** 4
    lo1, hi1 = _scalar_pair(b + cc * k, l1 * s_sq)
    lo2, hi2 = _scalar_pair(a2 - cc * k2, l2 * s_sq)
    return entropy_bits4((lo1, hi1, lo2, hi2))


def _line_columns(alphas: np.ndarray):
    """(cc, s_sq) on the line beta = pi/2 - alpha: -cos^2 2a and sin^4 2a."""
    return -np.cos(2 * alphas) ** 2, np.sin(2 * alphas) ** 4


@lru_cache(maxsize=None)
def _line_grid():
    """The solver's alpha grid linspace(0, pi/4, LINE_GRID_N) and its two
    line columns, built once per process and read-only."""
    alphas = np.linspace(0.0, pi / 4, LINE_GRID_N)
    grid = (alphas, *_line_columns(alphas))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def line_profile_values(c: PauliCoefficients, alphas=None) -> np.ndarray:
    """Vectorized line profile over an array of alpha values in [0, pi/4].

    Without ``alphas`` the profile is taken on the solver's grid,
    ``linspace(0, pi/4, LINE_GRID_N)``, whose trig columns are computed
    once per process.
    """
    if alphas is None:
        _, cc, s_sq = _line_grid()
    else:
        alphas = np.asarray(alphas, dtype=float)
        bad = ~((alphas >= -ALPHA_SLACK) & (alphas <= pi / 4 + ALPHA_SLACK))
        if bad.any():
            raise DomainError(f"alpha={float(alphas[bad][0])!r} outside [0, pi/4]")
        cc, s_sq = _line_columns(alphas)
    lam, _, _ = _block_spectrum(c, cc, s_sq)
    return entropy_bits(lam)


def entanglement_grid(c: PauliCoefficients, alphas, betas) -> np.ndarray:
    """Entanglement on the outer grid alphas x betas (closed form)."""
    a = np.asarray(alphas, dtype=float)[:, None]
    b = np.asarray(betas, dtype=float)[None, :]
    lam, _, _ = _spectrum_arrays(c, a, b)
    return entropy_bits(lam)


def partial_derivatives(c: PauliCoefficients, alpha: float, beta: float):
    """Analytic (d/d alpha, d/d beta) of the entanglement surface.

    Valid only at interior points with a nondegenerate spectrum; the
    formula divides by the gap inside each eigenvalue pair.
    """
    b, a2, k, k2, l1, l2 = _constants(c)
    lam, t1, t2 = _spectrum_arrays(c, alpha, beta)
    if np.any(lam <= DEGENERATE_LAMBDA):
        raise DomainError("degenerate spectrum: derivative formula singular")
    s_sq = sin(2 * alpha) ** 2 * sin(2 * beta) ** 2
    r1 = float(np.sqrt(max(t1 * t1 - 4 * l1 * s_sq, 0.0)))
    r2 = float(np.sqrt(max(t2 * t2 - 4 * l2 * s_sq, 0.0)))
    if r1 <= DEGENERATE_GAP or r2 <= DEGENERATE_GAP:
        raise DomainError("coincident eigenvalue pair: derivative formula singular")
    lg21 = log2(lam[1] / lam[0])
    lg43 = log2(lam[3] / lam[2])
    g = log2(l1 / l2) + t1 / r1 * lg21 - t2 / r2 * lg43
    h = 4 * l1 / r1 * lg21 + 4 * l2 / r2 * lg43
    f_alpha = (k * sin(2 * alpha) * cos(2 * beta) * g
               + sin(2 * alpha) * cos(2 * alpha) * sin(2 * beta) ** 2 * h)
    f_beta = (k * cos(2 * alpha) * sin(2 * beta) * g
              + sin(2 * beta) * cos(2 * beta) * sin(2 * alpha) ** 2 * h)
    return float(f_alpha), float(f_beta)


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a unimodal-enough scalar function;
    returns (argmax, max, number of calls of f).

    The search runs on Python floats, whose +, -, * and sqrt round as
    numpy's do, at a fraction of the cost of numpy scalars.  The argmax is
    handed back as ``np.float64``, the type the search had when it ran on
    the numpy grid's scalars, so its ``repr`` in the solver's diagnostics
    stays as recorded.
    """
    inv_phi = (sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c_pt = b - inv_phi * (b - a)
    d_pt = a + inv_phi * (b - a)
    fc, fd = f(c_pt), f(d_pt)
    nfev = 3  # the two above and the final one
    while b - a > BRACKET_TOL:
        nfev += 1
        if fc >= fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - inv_phi * (b - a)
            fc = f(c_pt)
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + inv_phi * (b - a)
            fd = f(d_pt)
    x_best = 0.5 * (a + b)
    return np.float64(x_best), f(x_best), nfev


def entangling_power_c2eqc3(x: float, y: float) -> EntanglingPowerResult:
    """Entangling power of the gate with chamber angles (x, y, z=y).

    Schmidt-rank-deficient gates (y = 0, a controlled phase up to local
    unitaries) are routed to the phase-gate solver.  Otherwise the line
    alpha + beta = pi/2 is scanned densely and refined by golden section.
    The candidates, in tie order, are the line ends alpha = pi/4 and
    alpha = 0, the balanced-boundary value 1 if cos(2x+2y) <= 0, and the
    line interior; the earliest within TIE_TOL of the maximum names it, so
    a tie goes to the boundary.
    """
    c = coefficients_from_xyz(CanonicalParams(x, y, y))
    if schmidt_rank(c) < 4:
        sub = entangling_power_phase_gate(PhaseGateSpec((0.0, 4.0 * x)))
        return EntanglingPowerResult(
            value=sub.value, method="rank2_dispatch", critical=sub.critical,
            diagnostics={"phases": (0.0, 4.0 * x), "sub_method": sub.method,
                         **sub.diagnostics},
        )

    t0 = perf_counter()
    alphas = _line_grid()[0]
    vals = line_profile_values(c)
    i = int(np.argmax(vals))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, LINE_GRID_N - 1)]
    t1 = perf_counter()
    a_star, v_star, nfev = _golden_max(lambda a: line_profile_value(c, a), lo, hi)
    # the grid's array profile and the scalar profile can differ in the last bit
    if vals[i] > v_star:
        a_star, v_star = float(alphas[i]), float(vals[i])
    timings = {"grid_s": t1 - t0, "refine_s": perf_counter() - t1}

    v0, v4 = float(vals[0]), float(vals[-1])
    candidates = [(v, *end, "line_scan") for v, end in zip((v4, v0), _LINE_ENDS)]
    branch = "cos(2x+2y)>0"
    if cos(2 * x + 2 * y) <= 0.0:
        branch = "cos(2x+2y)<=0"
        # beta at alpha = 0 where both block traces equal 1/2: cos 2beta is
        # (a2 - b) / (k + k2), which rounds a few ulps below -1 near x + y = pi/4
        b, a2, k, k2, _, _ = _constants(c)
        beta = 0.5 * float(np.arccos(min(max((a2 - b) / (k + k2), -1.0), 1.0)))
        candidates.append((1.0, 0.0, beta, "balanced boundary (alpha=0)", "boundary"))
    candidates.append((v_star, a_star, pi / 2 - a_star, "line interior", "line_scan"))
    best = max(v for v, *_ in candidates)
    _, alpha, beta, tag, method = next(
        cand for cand in candidates if cand[0] >= best - TIE_TOL)
    return EntanglingPowerResult(
        value=best, method=method, critical=tag,
        critical_alpha=alpha, critical_beta=beta,
        diagnostics={"branch": branch, "line_max": v_star, "line_argmax": a_star,
                     "edge_values": (v0, v4), "grid_n": LINE_GRID_N,
                     "timings": timings, "line_evaluations": nfev})


def conjecture_gap(x: float, y: float) -> float:
    """Excess of the line-profile grid maximum over its two edge values.

    A value above 1e-9 would place the maximum strictly inside the line,
    falsifying the edge-maximum conjecture for this gate.
    """
    c = coefficients_from_xyz(CanonicalParams(x, y, y))
    alphas = np.linspace(0.0, pi / 4, CONJECTURE_GRID_N)
    vals = line_profile_values(c, alphas)
    return float(vals.max() - max(vals[0], vals[-1]))


def _example1_candidates(x: float) -> tuple[float, float]:
    """Values of the equal-tail family at the product and at the maximally
    entangled input."""
    csq = sin(x) ** 2 * cos(x) ** 2
    return (shannon_entropy([cos(2 * x) ** 2, sin(2 * x) ** 2]),
            shannon_entropy([1 - 3 * csq, csq, csq, csq]))


@lru_cache(maxsize=None)
def example1_threshold() -> float:
    """Crossover angle where the two candidate maxima of the equal-tail
    family agree (root near 0.1018), found by bisection on [0.01, pi/8]."""

    def diff(t: float) -> float:
        prod, me = _example1_candidates(t)
        return prod - me

    lo, hi = 0.01, pi / 8
    f_lo, f_hi = diff(lo), diff(hi)
    if not (f_lo > 0 > f_hi):
        raise RuntimeError(f"bisection bracket invalid: f({lo})={f_lo}, f({hi})={f_hi}")
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def example1_power(x: float) -> EntanglingPowerResult:
    """Entangling power of the family with all three tail coefficients
    equal (chamber angles x = y = z), for x in (0, pi/4].

    Below the crossover the product input wins with value
    H(cos^2 2x, sin^2 2x); above it the maximally entangled input wins
    with value H(cos^6 x + sin^6 x, (cos^2 x sin^2 x) * 3).
    """
    if not 0.0 < x <= pi / 4 + 1e-12:
        raise DomainError(f"x={x!r} outside (0, pi/4]")
    x0 = example1_threshold()
    v_prod, v_me = _example1_candidates(x)
    tie = abs(v_prod - v_me) <= TIE_TOL
    value, (alpha, beta, tag) = ((v_prod, _LINE_ENDS[1]) if x <= x0 or tie
                                 else (v_me, _LINE_ENDS[0]))
    return EntanglingPowerResult(
        value=value, method="closed_form", critical=tag,
        critical_alpha=alpha, critical_beta=beta,
        diagnostics={"threshold": x0, "product_value": v_prod,
                     "max_entangled_value": v_me, "tie": tie})


def example2_power(y: float) -> EntanglingPowerResult:
    """Entangling power of the family with x = pi/4 and z = y, y in (0, pi/4).

    The maximum always sits at the maximally entangled input and equals
    H((cos^4 y + sin^4 y)/2 twice, sin^2 y cos^2 y twice).
    """
    if not 0.0 < y < pi / 4:
        raise DomainError(f"y={y!r} outside (0, pi/4)")
    half = 0.5 * (cos(y) ** 4 + sin(y) ** 4)
    cross = sin(y) ** 2 * cos(y) ** 2
    value = shannon_entropy([half, half, cross, cross])
    return EntanglingPowerResult(
        value=value, method="closed_form",
        critical="maximally entangled (alpha=beta=pi/4)",
        critical_alpha=pi / 4, critical_beta=pi / 4,
        diagnostics={"spectrum": (half, half, cross, cross)},
    )


def _example1_line_lambdas(yvar: float, csq: float):
    """Spectrum of the equal-tail family on the line, in y = -cos(4 alpha)."""
    u0 = 1.0 - 3.0 * csq
    disc = (u0 - csq) * (u0 - csq * yvar * yvar)
    hi = 0.5 * (u0 + csq * yvar + np.sqrt(max(disc, 0.0)))
    # lo * hi = |c0 c|^2 sin^4(2 alpha) exactly; recover lo stably
    lo = u0 * csq * (1.0 + yvar) ** 2 / (4.0 * hi) if hi > 0 else 0.0
    c2a = np.sqrt(max((1.0 - yvar) / 2.0, 0.0))
    return lo, hi, (1.0 - c2a) ** 2 * csq, (1.0 + c2a) ** 2 * csq


def _check_e2_domain(csq: float, *, open_y=None):
    if not 0.0 < csq < 0.25:
        raise DomainError(f"|c|^2={csq!r} outside (0, 1/4)")
    if open_y is not None and not -1.0 < open_y < 1.0:
        raise DomainError(
            f"y={open_y!r} outside the open interval (-1, 1); {_LIMIT_NOTE}")


def example1_line_entropy(yvar: float, csq: float) -> float:
    """Line-profile entropy of the equal-tail family as a function of
    y = -cos(4 alpha) in [-1, 1] and tail weight |c|^2 in (0, 1/4)."""
    _check_e2_domain(csq)
    if not -1.0 <= yvar <= 1.0:
        raise DomainError(f"y={yvar!r} outside [-1, 1]")
    return float(entropy_bits4(_example1_line_lambdas(yvar, csq)))


def e2_derivative(yvar: float, csq: float) -> float:
    """Analytic d/dy of the equal-tail line profile, y in the open (-1, 1)."""
    _check_e2_domain(csq, open_y=yvar)
    l12, l22, l32, l42 = _example1_line_lambdas(yvar, csq)
    term1 = -np.sqrt(2.0 / (1.0 - yvar)) * (log2(l32) - log2(l42))
    term2 = (-np.sqrt((1.0 - 4.0 * csq) / (1.0 - csq * (3.0 + yvar * yvar)))
             * yvar * (log2(l12) - log2(l22)))
    term3 = log2(csq / (1.0 - 3.0 * csq))
    return float(0.5 * csq * (term1 + term2 + term3))


def e2_derivative_limit_upper(csq: float) -> float:
    """Limit of the line-profile derivative as y -> +1: 2|c|^2 / ln 2."""
    _check_e2_domain(csq)
    return 2.0 * csq / np.log(2.0)


def e2_derivative_limit_lower(csq: float) -> float:
    """Limit as y -> -1: |c|^2 (log2 4|c|^2 - log2(1 - 4|c|^2))."""
    _check_e2_domain(csq)
    return csq * (log2(4.0 * csq) - log2(1.0 - 4.0 * csq))
