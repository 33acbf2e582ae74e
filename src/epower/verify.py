"""Randomized property suites behind the ``verify`` CLI command.

Each suite draws seeded samples, checks one family of claims at its
stated tolerance, and returns (passed, detail) or (passed, detail,
findings); ``run_all`` names the record from ``_SUITES``.  The conjecture
harness is special: a positive interior excess is serialized as a
finding, not a failure, because the edge-maximum statement is evidence,
not a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from . import canonical, epower2q, schmidt2
from .qmath import DomainError

__all__ = ["CheckResult", "run_all", "DEFAULT_SAMPLES"]

DEFAULT_SAMPLES = 1000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    findings: list = field(default_factory=list)


def _random_chamber(rng, strict=False):
    while True:
        x = rng.uniform(0.0, pi / 4)
        y = rng.uniform(0.0, x)
        z = rng.uniform(0.0, y)
        p = canonical.CanonicalParams(x, y, z)
        if not strict or p.strict:
            return p


def _scaled(base: int, samples: int | None) -> int:
    if samples is None:
        return base
    return max(1, round(base * samples / DEFAULT_SAMPLES))


def check_identities(rng, samples=None) -> tuple:
    n = _scaled(1000, samples)
    worst = 0.0
    for _ in range(n):
        report = canonical.verify_identities(_random_chamber(rng, strict=True))
        worst = max(worst, report.max_residual)
    return (bool(worst <= 1e-12),
            f"max residual {worst:.3e} over {n} strict chamber points (tol 1e-12)")


def check_spectrum_equivalence(rng, samples=None) -> tuple:
    n = _scaled(1000, samples)
    worst = 0.0
    for _ in range(n):
        c = canonical.coefficients_from_xyz(_random_chamber(rng))
        a, b = rng.uniform(0.0, pi / 2, 2)
        lam = epower2q.spectrum(c, a, b).lam
        ev = epower2q.reduced_density_closed_form(c, a, b).eigenvalues
        worst = max(worst, np.abs(np.sort(lam) - np.sort(ev)).max())
    return (bool(worst <= 1e-10),
            f"max closed-form vs eigensolver deviation {worst:.3e} "
            f"over {n} samples (tol 1e-10)")


def check_derivatives(rng, samples=None) -> tuple:
    n = _scaled(200, samples)
    step = 1e-5
    worst = 0.0
    count = 0
    while count < n:
        p = _random_chamber(rng, strict=True)
        c = canonical.coefficients_from_xyz(canonical.CanonicalParams(p.x, p.y, p.y))
        a = rng.uniform(0.05, pi / 4 - 0.05)
        b = rng.uniform(0.05, pi / 2 - 0.05)
        try:
            fa, fb = epower2q.partial_derivatives(c, a, b)
        except DomainError:
            continue
        fd_a = (epower2q.entanglement_at(c, a + step, b)
                - epower2q.entanglement_at(c, a - step, b)) / (2 * step)
        fd_b = (epower2q.entanglement_at(c, a, b + step)
                - epower2q.entanglement_at(c, a, b - step)) / (2 * step)
        worst = max(worst, abs(fa - fd_a), abs(fb - fd_b))
        count += 1
    return (bool(worst <= 1e-6),
            f"max |analytic - central difference| {worst:.3e} "
            f"over {n} interior points (tol 1e-6)")


def check_line_necessity(rng, samples=None) -> tuple:
    n = _scaled(50, samples)
    worst = -np.inf
    alphas = np.linspace(0.0, pi / 4, 401)
    betas = np.linspace(0.0, pi / 2, 801)
    for _ in range(n):
        p = _random_chamber(rng, strict=True)
        c = canonical.coefficients_from_xyz(canonical.CanonicalParams(p.x, p.y, p.y))
        surface = epower2q.entanglement_grid(c, alphas, betas).max()
        line = epower2q.line_profile_values(c, alphas).max()
        worst = max(worst, surface - line)
    return (bool(worst <= 1e-6),
            f"max 2-D surface excess over the alpha+beta=pi/2 line {worst:.3e} "
            f"over {n} gates (tol 1e-6)")


def check_rank_bound(rng, samples=None) -> tuple:
    n = _scaled(200, samples)
    worst_rank = 0
    for _ in range(n):
        size = int(rng.integers(2, 13))
        spec = schmidt2.PhaseGateSpec(tuple(rng.uniform(0.0, 2 * pi, size)))
        worst_rank = max(worst_rank, schmidt2.rank_bound_check(spec))
    return (bool(worst_rank <= 3),
            f"max numeric rank {worst_rank} over {n} specs up to n=12 (bound 3)")


def check_n3_vs_oracle(rng, samples=None) -> tuple:
    n = _scaled(500, samples)
    worst = 0.0
    for _ in range(n):
        th = tuple(rng.uniform(0.0, 2 * pi, 3))
        closed = schmidt2.n3_closed_form(*th).max_y
        oracle_y, _ = schmidt2.simplex_oracle(schmidt2.PhaseGateSpec(th))
        worst = max(worst, abs(closed - oracle_y))
    return (bool(worst <= 1e-6),
            f"max |closed - oracle| {worst:.3e} over {n} triples (tol 1e-6)")


def check_conjecture_harness(rng, samples=None) -> tuple:
    n = _scaled(100, samples)
    findings = []
    worst = -np.inf
    for _ in range(n):
        x = rng.uniform(1e-3, pi / 4)
        y = rng.uniform(1e-3, x)
        gap = epower2q.conjecture_gap(x, y)
        worst = max(worst, gap)
        if gap > 1e-9:
            findings.append({"x": x, "y": y, "interior_excess": gap})
    detail = (f"max interior excess {worst:.3e} over {n} gates; "
              f"{len(findings)} finding(s) above 1e-9 (reported, not failed)")
    return True, detail, findings


_SUITES = (
    ("coefficient identities", check_identities),
    ("spectrum equivalence", check_spectrum_equivalence),
    ("analytic derivatives", check_derivatives),
    ("line necessity", check_line_necessity),
    ("phase-matrix rank bound", check_rank_bound),
    ("three-phase closed form vs simplex oracle", check_n3_vs_oracle),
    ("edge-maximum conjecture harness", check_conjecture_harness),
)


def run_all(seed: int = 0, samples: int | None = None) -> list[CheckResult]:
    """Run every suite with one seeded generator; deterministic per seed.

    A suite that raises is reported as failed under its own name instead
    of aborting the run.  ``samples`` below 1 raises ``DomainError``.
    """
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in _SUITES:
        try:
            results.append(CheckResult(name, *fn(rng, samples)))
        except Exception as exc:  # noqa: BLE001 - converted into a failure
            results.append(CheckResult(
                name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
