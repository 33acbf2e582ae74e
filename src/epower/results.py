"""Shared result record for every entangling-power computation path."""

from __future__ import annotations

from dataclasses import dataclass, field

from .qmath import DomainError

__all__ = ["EntanglingPowerResult", "METHODS"]

METHODS = ("closed_form", "line_scan", "boundary", "rank2_dispatch", "oracle")


@dataclass(frozen=True)
class EntanglingPowerResult:
    """Entangling power in ebits plus the argmax description.

    ``critical`` is a short human-readable tag for the maximizing input;
    ``critical_alpha``/``critical_beta`` carry the two-angle parameters
    when the path produces them.  ``diagnostics`` holds residuals, branch
    tags and any cross-check data a path wants to surface.
    """

    value: float
    method: str
    critical: str = ""
    critical_alpha: float | None = None
    critical_beta: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        v = float(self.value)
        if not -1e-9 <= v <= 2.0 + 1e-9:
            raise DomainError(f"entangling power {v!r} outside [0, 2]")
        object.__setattr__(self, "value", min(max(v, 0.0), 2.0))
