"""Fixed speed probe: a constant piece of pure-Python and small numpy work.

It never calls ``epower``.  The worker runs it only between operations,
when the program has no work in flight, and scales every measured time by
NOMINAL_S / (mean probe time at the boundaries around the measurement).
A change to the program cannot move the probe, so the scaling removes
machine drift without hiding a real change.  On the reference machine
the probe reads about 1.4 ms or 2.3 ms depending on which of two speed
states the machine is in; both states last 0.1-1 s.
"""

from __future__ import annotations

from time import perf_counter, sleep

import numpy as np

# Typical probe time on the reference machine (2-core VM, Python 3.11,
# numpy 2.4, one BLAS thread).  Fixed once; normalised figures are in
# seconds of that machine.
NOMINAL_S = 0.0020
SAMPLES_PER_BOUNDARY = 2

_RNG = np.random.default_rng(12345)
_A = _RNG.normal(size=(32, 4, 4)) + 1j * _RNG.normal(size=(32, 4, 4))
_H = _A @ _A.conj().transpose(0, 2, 1)
_V = _RNG.normal(size=256)


def probe_once() -> float:
    """Wall seconds of one fixed unit of work."""
    t0 = perf_counter()
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
    table = {}
    for i in range(600):
        table[i & 63] = table.get(i & 63, 0.0) + float(i)
    for _ in range(12):
        acc += float(np.linalg.eigvalsh(_H).sum())
        acc += float(np.log2(np.abs(_V) + 1.0).sum())
        acc += float(np.einsum("nij,nji->", _A, _H).real)
    if acc != acc:  # keeps the result live
        raise RuntimeError("probe produced NaN")
    return perf_counter() - t0


def probe_samples(n: int = SAMPLES_PER_BOUNDARY, gap_s: float = 0.0) -> list[float]:
    """``n`` probe times, ``gap_s`` seconds apart.

    The machine switches between a fast and a slow state (about 1.6x apart)
    every 0.1-1 s.  Samples spaced by ``gap_s`` see independent states, so
    their mean follows the share of slow time across a long operation.
    """
    out = []
    for i in range(n):
        if i and gap_s:
            sleep(gap_s)
        out.append(probe_once())
    return out
