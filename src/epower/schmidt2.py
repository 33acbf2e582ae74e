"""Entangling power of two-sided controlled-phase unitaries of any size.

Gates of the form |1><1| (x) I + |2><2| (x) diag(e^{i theta_j}) have
Schmidt rank two, and their entangling power reduces to maximizing the
quadratic form y({c_j}) = sum_{j>k} c_j c_k sin^2((theta_j - theta_k)/2)
over the probability simplex, then mapping through a binary entropy.
For any n the maximum follows from the largest circular gap between the
phases: it is 1/4 (one full ebit) when that gap is at most pi, and is
reached on the best-separated phase pair otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, cos, isfinite, sin, pi

import numpy as np

from .qmath import DomainError, shannon_entropy
from .results import EntanglingPowerResult

__all__ = [
    "PhaseGateSpec",
    "SimplexWeights",
    "N3Result",
    "y_value",
    "m_matrix",
    "rank_one_parts",
    "rank_bound_check",
    "n3_closed_form",
    "rank3_certificate",
    "ebits_from_quadratic_max",
    "entangling_power_phase_gate",
    "simplex_oracle",
    "phase_gate_matrix",
]

SIN2_ZERO_TOL = 1e-12
NONNEG_TOL = 1e-12
CERT_RESIDUAL_TOL = 1e-9
# rounding slack on "largest circular gap <= pi"; M c = 1/2 then decides
GAP_SLACK = 1e-12
GRID_BUDGET = 200_000
ORACLE_RESOLUTION = 60
ASCENT_MAX_SWEEPS = 500
# critical tag of a full ebit, by the solver's case
_FULL_EBIT_TAGS = {"interior": "interior stationary weights",
                   "certificate": "stationary simplex point (full ebit)"}


@dataclass(frozen=True)
class PhaseGateSpec:
    """Phase list theta_1..theta_n of a two-sided controlled-phase gate.

    Phases are stored as given; every formula downstream depends only on
    pairwise differences, so no modular reduction is applied.
    """

    thetas: tuple[float, ...]

    def __post_init__(self):
        th = tuple(float(t) for t in self.thetas)
        if len(th) < 2:
            raise DomainError("phase gate needs at least two phases")
        if not all(isfinite(t) for t in th):
            raise DomainError(f"phases must be finite, got {th!r}")
        # every formula takes pairwise differences, the largest of them included
        if not isfinite(max(th) - min(th)):
            raise DomainError(f"phase differences must be finite, got {th!r}")
        object.__setattr__(self, "thetas", th)

    @property
    def n(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights summing to one."""

    c: tuple[float, ...]

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float)
        if np.any(arr < -NONNEG_TOL):
            raise DomainError(f"weight {arr.min():.3e} is negative")
        if not abs(arr.sum() - 1.0) <= 1e-12:
            raise DomainError(f"weights sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "c", tuple(np.clip(arr, 0.0, None)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)


def y_value(spec: PhaseGateSpec, w: SimplexWeights) -> float:
    """The quadratic form sum_{j>k} c_j c_k sin^2((theta_j - theta_k)/2)."""
    th = np.asarray(spec.thetas)
    c = w.as_array()
    if c.size != th.size:
        raise DomainError(f"length mismatch: {c.size} weights for {th.size} phases")
    total = 0.0
    for j in range(1, th.size):
        for k in range(j):
            total += c[j] * c[k] * sin((th[j] - th[k]) / 2.0) ** 2
    return float(total)


def m_matrix(spec: PhaseGateSpec) -> np.ndarray:
    """Symmetric matrix with entries sin^2((theta_i - theta_j)/2)."""
    th = np.asarray(spec.thetas)
    return np.sin((th[:, None] - th[None, :]) / 2.0) ** 2


def rank_one_parts(spec: PhaseGateSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three rank-one matrices summing to m_matrix.

    Uses sin^2(a+b) = sin^2 a cos^2 b + cos^2 a sin^2 b
    + sin(2a) sin(2b) / 2 with a_i = theta_i/2 and b_j = -theta_j/2,
    which bounds the rank of m_matrix by three for every n.
    """
    a = np.asarray(spec.thetas) / 2.0
    b = -np.asarray(spec.thetas) / 2.0
    p1 = np.outer(np.sin(a) ** 2, np.cos(b) ** 2)
    p2 = np.outer(np.cos(a) ** 2, np.sin(b) ** 2)
    p3 = 0.5 * np.outer(np.sin(2 * a), np.sin(2 * b))
    return p1, p2, p3


def rank_bound_check(spec: PhaseGateSpec) -> int:
    """Numeric rank of m_matrix via singular values.

    Also re-verifies the three-term rank-one reconstruction; failure of
    that reconstruction indicates an internal error, not bad input.
    """
    m = m_matrix(spec)
    p1, p2, p3 = rank_one_parts(spec)
    recon = np.abs(m - (p1 + p2 + p3)).max()
    if recon > 1e-12:
        raise RuntimeError(f"rank-one reconstruction off by {recon:.3e}")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    threshold = spec.n * np.finfo(float).eps * sv[0] * 16
    return int(np.count_nonzero(sv > threshold))


@dataclass(frozen=True)
class N3Result:
    """Outcome of the three-phase maximization."""

    max_y: float
    case: str  # "interior" or "pair"
    weights: tuple[float, float, float] | None
    pair: tuple[int, int] | None


def _csc(u: float) -> float:
    return 1.0 / sin(u)


def _stationary_weights(th) -> tuple[float, float, float] | None:
    """Stationary point of the three-phase quadratic form, or None.

    None when the pairwise sin^2 product vanishes (two phases coincide
    mod 2 pi).  The weights are not clipped: a negative one means the
    origin lies outside the triangle of the points e^{i theta}.
    """
    d = {(i, j): (th[i] - th[j]) / 2.0 for i in range(3) for j in range(3) if i != j}
    if (sin(d[(0, 1)]) ** 2) * (sin(d[(1, 2)]) ** 2) * (sin(d[(2, 0)]) ** 2) <= SIN2_ZERO_TOL:
        return None
    return (
        0.5 * cos(d[(1, 2)]) * _csc(d[(0, 1)]) * _csc(d[(0, 2)]),
        0.5 * cos(d[(0, 2)]) * _csc(d[(1, 0)]) * _csc(d[(1, 2)]),
        0.5 * cos(d[(0, 1)]) * _csc(d[(2, 0)]) * _csc(d[(2, 1)]),
    )


def _pair_scan(th):
    """Best-separated phase pair and its value 1/4 sin^2 of half the gap."""
    pairs = list(combinations(range(len(th)), 2))
    vals = [sin((th[i] - th[j]) / 2.0) ** 2 for i, j in pairs]
    best = int(np.argmax(vals))
    return pairs[best], 0.25 * vals[best]


def n3_closed_form(theta1: float, theta2: float, theta3: float) -> N3Result:
    """Maximum of the quadratic form over the 3-simplex.

    When the three pairwise half-differences have a positive sin^2
    product and the interior stationary point has nonnegative weights,
    the maximum is exactly 1/4 there.  Otherwise it sits on an edge at
    weights (1/2, 1/2) on the best-separated pair.
    """
    th = (theta1, theta2, theta3)
    weights = _stationary_weights(th)
    # the three-phase sign test is on the doubled weights, to NONNEG_TOL
    if weights is not None and min(weights) >= -NONNEG_TOL / 2:
        weights = tuple(max(w, 0.0) for w in weights)
        total = sum(weights)
        # near-antipodal triples round to 1 +- 1.2e-10; rank3_certificate's tolerance
        if abs(total - 1.0) > CERT_RESIDUAL_TOL:
            raise RuntimeError(f"stationary weights sum to {total!r}, not 1")
        return N3Result(0.25, "interior", weights, None)
    pair, max_y = _pair_scan(th)
    return N3Result(max_y, "pair", None, pair)


def rank3_certificate(spec: PhaseGateSpec):
    """Simplex weights certifying the maximum value 1/4, or None.

    Largest-gap closed form: y(c) = (1 - |sum_j c_j e^{i theta_j}|^2) / 4
    reaches 1/4 exactly when the origin lies in the convex hull of the
    points e^{i theta_j}, that is when no circular gap between the sorted
    phases exceeds pi.  Then for some start phase p, with q the last phase
    at or below p + pi and r the phase after q, the triangle (p, q, r)
    holds the origin, and its three-phase stationary point is the
    candidate.  A candidate is accepted only if it sums to one and solves
    M c = 1/2 to 1e-9.
    """
    th = np.asarray(spec.thetas)
    n = spec.n
    wrapped = np.mod(th, 2 * pi)
    order = np.argsort(wrapped, kind="stable")
    ring = wrapped[order]
    if np.diff(ring, append=ring[0] + 2 * pi).max() > pi + GAP_SLACK:
        return None
    unrolled = np.concatenate([ring, ring + 2 * pi])
    m = m_matrix(spec)
    for i in range(n):
        q = int(np.searchsorted(unrolled, ring[i] + pi, side="right")) - 1
        tri = [order[i], order[q % n], order[(q + 1) % n]]
        weights = _stationary_weights(th[tri])
        if weights is None or min(weights) < -NONNEG_TOL:
            continue
        c = np.zeros(n)
        c[tri] = weights
        if (abs(c.sum() - 1.0) <= CERT_RESIDUAL_TOL
                and np.abs(m @ c - 0.5).max() <= CERT_RESIDUAL_TOL):
            return np.clip(c, 0.0, None)
    return None


def ebits_from_quadratic_max(y: float) -> float:
    """Entangling power in ebits for a quadratic-form maximum y in [0, 1/4]."""
    if not -1e-12 <= y <= 0.25 + 1e-12:
        raise DomainError(f"quadratic maximum {y!r} outside [0, 1/4]")
    r = np.sqrt(1.0 - 4.0 * min(max(y, 0.0), 0.25))
    return shannon_entropy([(1.0 - r) / 2.0, (1.0 + r) / 2.0])


def entangling_power_phase_gate(spec: PhaseGateSpec) -> EntanglingPowerResult:
    """Entangling power of a two-sided controlled-phase gate.

    n = 3 uses its closed form; every other n uses the largest-gap closed
    form: one full ebit, with certificate weights, when no circular gap
    between the phases exceeds pi, and otherwise the best phase pair.
    ``simplex_oracle`` is the independent cross-check of this value.
    """
    th = np.asarray(spec.thetas)
    if spec.n == 3:
        res = n3_closed_form(*th)
        case, weights, pair, max_y = res.case, res.weights, res.pair, res.max_y
    elif (cert := rank3_certificate(spec)) is not None:
        case, weights, pair, max_y = "certificate", tuple(cert), None, 0.25
    else:
        pair, max_y = _pair_scan(th)
        case, weights = "pair", None
    if case == "pair":
        critical, diag = f"pair {pair} at weights (1/2, 1/2)", {"pair": pair}
    else:
        critical, diag = _FULL_EBIT_TAGS[case], {"weights": weights}
    diag.update(case=case, max_y=max_y)
    return EntanglingPowerResult(value=ebits_from_quadratic_max(max_y),
                                 method="closed_form", critical=critical, diagnostics=diag)


def _simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All compositions of ``resolution`` into n parts, as weights, in
    lexicographic order: stars and bars over n - 1 of resolution + n - 1 slots."""
    slots = resolution + n - 1
    rows = comb(slots, n - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), n - 1)),
                       dtype=float, count=rows * (n - 1)).reshape(rows, n - 1)
    edges = np.hstack([np.full((rows, 1), -1.0), bars, np.full((rows, 1), float(slots))])
    return (np.diff(edges, axis=1) - 1.0) / resolution


def _coordinate_ascent(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact pairwise ascent for y = c^T M c / 2 on the simplex.

    Moving mass t from j to i changes y by t ((Mc)_i - (Mc)_j) - t^2 M_ij,
    a concave quadratic whose maximizer is clipped to keep c >= 0.
    """
    c = c.copy()
    n = c.size
    for _ in range(ASCENT_MAX_SWEEPS):
        improved = 0.0
        mc = m @ c
        for i in range(n):
            for j in range(i + 1, n):
                slope = mc[i] - mc[j]
                curv = m[i, j]
                if curv > 0:
                    t = slope / (2.0 * curv)
                else:
                    t = c[j] if slope > 0 else (-c[i] if slope < 0 else 0.0)
                t = min(max(t, -c[i]), c[j])
                gain = t * slope - t * t * curv
                if gain > 1e-15:
                    c[i] += t
                    c[j] -= t
                    mc = mc + t * (m[:, i] - m[:, j])
                    improved += gain
        if improved <= 1e-15:
            break
    return c


def simplex_oracle(spec: PhaseGateSpec, seed: int = 0):
    """Independent brute-force maximum of the quadratic form.

    Exhaustively grids the simplex at resolution 1/ORACLE_RESOLUTION
    (coarser for larger n, to keep the point count within GRID_BUDGET),
    polishes the best grid points by exact pairwise coordinate ascent,
    and adds seeded random restarts whenever the grid was coarsened,
    which is every n >= 5.  Deterministic for a fixed seed.

    Returns:
        (max_y, weights) with weights an ndarray on the simplex.
    """
    n = spec.n
    m = m_matrix(spec)
    res = ORACLE_RESOLUTION
    while res > 2 and comb(res + n - 1, n - 1) > GRID_BUDGET:
        res -= 1
    grid = _simplex_grid(n, res)
    vals = 0.5 * np.einsum("ij,jk,ik->i", grid, m, grid)
    order = np.argsort(vals)[::-1][:10]
    starts = [grid[i] for i in order]
    if res < ORACLE_RESOLUTION:
        rng = np.random.default_rng(seed)
        starts.extend(rng.dirichlet(np.ones(n), size=200))
    best_y, best_c = -1.0, None
    for c0 in starts:
        c = _coordinate_ascent(m, np.asarray(c0, dtype=float))
        yv = float(0.5 * c @ m @ c)
        if yv > best_y + 1e-15:
            best_y, best_c = yv, c
    return best_y, best_c


def phase_gate_matrix(spec: PhaseGateSpec) -> np.ndarray:
    """The 2n x 2n block unitary |1><1| (x) I + |2><2| (x) diag(e^{i theta})."""
    n = spec.n
    v = np.zeros((2 * n, 2 * n), dtype=complex)
    v[:n, :n] = np.eye(n)
    v[n:, n:] = np.diag(np.exp(1j * np.asarray(spec.thetas)))
    return v
