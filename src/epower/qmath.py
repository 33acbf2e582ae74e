"""Foundation numerics for small quantum systems.

Probability vectors, density matrices and pure states of a few qubits,
with base-2 entropies, a unitarity check, partial traces and
majorization tests.  Everything here is a pure function of immutable
inputs; matrices never exceed 16x16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

__all__ = [
    "DomainError",
    "ProbVector",
    "DensityMatrix",
    "StateVector",
    "entropy_bits",
    "entropy_bits4",
    "check_unitary",
    "shannon_entropy",
    "von_neumann_entropy",
    "partial_trace",
    "majorizes",
]

# Eigenvalues in [-EIG_CLAMP, 0) are treated as rounding noise and clamped
# to zero; anything more negative signals an upstream bug and is rejected.
EIG_CLAMP = 1e-10
PROB_CLAMP = 1e-9
SUM_TOL = 1e-6
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
MAJORIZE_SLACK = 1e-12


class DomainError(ValueError):
    """An input violates a documented precondition."""


def entropy_bits(p):
    """-sum p log2 p over the last axis; entries <= 0 contribute 0.

    The array kernel; ``entropy_bits4`` is its twin for one row of four
    Python floats and gives the same bits under the same contract.
    """
    p = np.asarray(p, dtype=float)
    # 0.0 - s gives +0.0 for a sum of either signed zero
    return 0.0 - np.add.reduce(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1)


def entropy_bits4(p) -> float:
    """``entropy_bits`` of one row of four floats, as a Python float.

    The scalar twin of ``entropy_bits``, for callers that score one point
    at a time, where array dispatch would cost more than the arithmetic.
    Same contract and same bits: entries <= 0 contribute 0, and the result
    is never -0.0.  The logs come from one ``np.log2`` call on a contiguous
    4-vector, the loop ``entropy_bits`` runs (``math.log2`` differs from it
    in the last bit on some inputs).  Float products round as numpy's do,
    and numpy's ``add.reduce`` sums a row of fewer than eight entries left
    to right, as below; a longer row is summed pairwise, so this form holds
    only for short rows.
    """
    p0, p1, p2, p3 = p
    l0, l1, l2, l3 = np.log2([v if v > 0.0 else 1.0 for v in p]).tolist()
    return 0.0 - (((p0 * l0 + p1 * l1) + p2 * l2) + p3 * l3)


def check_unitary(U) -> np.ndarray:
    """U as a complex 4x4 array; DomainError unless it is finite and U U^dagger = I."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise DomainError(f"expected a 4x4 unitary, got shape {U.shape}")
    # a NaN or inf entry would leave a NaN in dev, and NaN > tol is False
    if not np.isfinite(U).all():
        raise DomainError("unitary entries must be finite")
    dev = np.abs(U @ U.conj().T - np.eye(4)).max()
    if dev > UNITARY_TOL:
        raise DomainError(f"matrix deviates from unitary by {dev:.3e}")
    return U


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over finitely many outcomes.

    Entries may carry rounding noise on input: values in [-1e-9, 0) are
    clamped to zero and the vector is renormalized when the total is
    within 1e-6 of one.  Larger violations, NaN and inf are rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float).ravel()
        if p.size == 0:
            raise DomainError("probability vector must be nonempty")
        total = p.sum()
        if not isfinite(total):  # some entry is NaN or infinite
            raise DomainError(f"probability entries must be finite, got {p!r}")
        if np.any(p < -PROB_CLAMP):
            raise DomainError(
                f"probability entry {p.min():.3e} below -{PROB_CLAMP:.0e}"
            )
        if abs(total - 1.0) > SUM_TOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        p = np.clip(p, 0.0, 1.0)
        p = p / p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "entries", p)

    def __len__(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DomainError(f"density matrix must be square, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise DomainError("density matrix entries must be finite")
        dev = np.abs(rho - rho.conj().T).max()
        if dev > HERMITIAN_TOL:
            raise DomainError(f"matrix deviates from Hermitian by {dev:.3e}")
        tr = rho.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace is {tr!r}, not 1")
        rho = 0.5 * (rho + rho.conj().T)
        ev = np.linalg.eigvalsh(rho)
        if ev.min() < -EIG_CLAMP:
            raise DomainError(f"negative eigenvalue {ev.min():.3e} beyond clamp")
        ev = np.clip(ev, 0.0, 1.0)
        rho.flags.writeable = False
        ev.flags.writeable = False
        object.__setattr__(self, "entries", rho)
        object.__setattr__(self, "eigenvalues", ev)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over a tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise DomainError(f"invalid subsystem dimensions {dims}")
        if int(np.prod(dims)) != amps.size:
            raise DomainError(
                f"dims {dims} imply length {int(np.prod(dims))}, got {amps.size}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise DomainError(f"squared norm is {norm2!r}, not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability distribution.

    Accepts a ProbVector or anything convertible to one.  Returns a value
    in [0, log2 n].
    """
    if not isinstance(p, ProbVector):
        p = ProbVector(np.asarray(p, dtype=float))
    # zeros left in would regroup numpy's pairwise sum and move the last bit
    return float(entropy_bits(p.entries[p.entries > 0.0]))


def von_neumann_entropy(rho) -> float:
    """Entropy in ebits of a density matrix: Shannon entropy of its spectrum."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(np.asarray(rho, dtype=complex))
    return float(entropy_bits(rho.eigenvalues[rho.eigenvalues > 0.0]))


def partial_trace(psi: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept subsystems.

    Args:
        psi: pure state with declared subsystem dimensions.
        keep: indices of subsystems to keep (nonempty proper subset);
            the result orders them ascending.

    Returns:
        DensityMatrix on the kept factors.
    """
    if not isinstance(psi, StateVector):
        raise DomainError("partial_trace expects a StateVector")
    n = len(psi.dims)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise DomainError("keep set must be nonempty")
    if any(i < 0 or i >= n for i in keep):
        raise DomainError(f"subsystem index out of range for {n} subsystems")
    if len(keep) == n:
        raise DomainError("keep set must be a proper subset")
    traced = [i for i in range(n) if i not in keep]
    tensor = psi.amplitudes.reshape(psi.dims)
    # group axes as (kept, traced) and contract the traced side
    perm = keep + traced
    dk = int(np.prod([psi.dims[i] for i in keep]))
    dt = int(np.prod([psi.dims[i] for i in traced]))
    mat = tensor.transpose(perm).reshape(dk, dt)
    rho = mat @ mat.conj().T
    return DensityMatrix(rho)


def majorizes(p, q) -> bool:
    """True when distribution ``p`` is majorized by ``q`` (p < q).

    Checked as: descending prefix sums of ``q`` dominate those of ``p`` at
    every prefix, with a small slack for rounding.
    """
    if not isinstance(p, ProbVector):
        p = ProbVector(np.asarray(p, dtype=float))
    if not isinstance(q, ProbVector):
        q = ProbVector(np.asarray(q, dtype=float))
    if len(p) != len(q):
        raise DomainError(f"length mismatch: {len(p)} vs {len(q)}")
    ps = np.cumsum(np.sort(p.entries)[::-1])
    qs = np.cumsum(np.sort(q.entries)[::-1])
    return bool(np.all(ps <= qs + MAJORIZE_SLACK))
