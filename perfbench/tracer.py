"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced public function by a timing
wrapper on every ``epower`` module that holds it, so calls between
modules (``cli`` -> ``epower2q`` -> ``schmidt2`` -> ``qmath``) are
counted too.  The oracle's ``minimize`` is wrapped the same way to split
its refinement stage from its grid stage.  Spans stay in memory; the
worker reads them when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import pi
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "canonical": ("coefficients_from_xyz", "assemble_unitary", "schmidt_rank"),
    "epower2q": ("entangling_power_c2eqc3", "line_profile_values",
                 "line_profile_value", "example1_power", "example2_power"),
    "qmath": ("shannon_entropy",),
    "schmidt2": ("entangling_power_phase_gate", "rank3_certificate"),
    "oracle": ("brute_force_power",),
}


def is_clustered(thetas) -> bool:
    """True when all phases lie inside an arc shorter than pi."""
    th = sorted(t % (2 * pi) for t in thetas)
    gaps = [b - a for a, b in zip(th, th[1:])] + [th[0] + 2 * pi - th[-1]]
    return max(gaps) > pi


class Tracer:
    """Call counts and busy seconds per span name, plus event counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "counts": dict(self.counts)}

    def _add(self, name: str, dt: float):
        self.calls[name] += 1
        self.seconds[name] += dt

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._add(name, dt)
            if after is not None:
                after(dt, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _after_phase_gate(self, dt, args, result):
        spec = args[0]
        if spec.n < 4:
            return
        self._add(f"schmidt2.solve.n{spec.n}", dt)
        self._add("schmidt2.clustered" if is_clustered(spec.thetas) else "schmidt2.spread", dt)
        case = result.diagnostics.get("case")
        if case in ("certificate", "pair"):
            self.counts[f"schmidt2.case_{case}"] += 1

    def _after_oracle(self, dt, args, result):
        self.counts["oracle.n_evaluations"] += result.diagnostics["n_evaluations"]

    def _after_minimize(self, dt, args, result):
        self.counts["oracle.refine_evals"] += int(result.nfev)

    def install(self):
        import epower.cli  # noqa: F401  (loads every module that holds a name)

        modules = [m for k, m in sys.modules.items()
                   if k == "epower" or k.startswith("epower.")]
        hooks = {"schmidt2.entangling_power_phase_gate": self._after_phase_gate,
                 "oracle.brute_force_power": self._after_oracle}
        for layer, names in TRACED.items():
            home = sys.modules[f"epower.{layer}"]
            for name in names:
                original = getattr(home, name)
                span = f"{layer}.{name}"
                _replace(modules, original, self._wrap(span, original, hooks.get(span)))
        oracle = sys.modules["epower.oracle"]
        oracle.minimize = self._wrap("oracle.minimize", oracle.minimize,
                                     self._after_minimize)


def _replace(modules, original, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
