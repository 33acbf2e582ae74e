import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240802)


def random_chamber(rng, strict=False):
    """Draw chamber angles pi/4 >= x >= y >= z >= 0, optionally strict in y."""
    while True:
        x = rng.uniform(0.0, np.pi / 4)
        y = rng.uniform(0.0, x)
        z = rng.uniform(0.0, y)
        if not strict or 0.0 < y < np.pi / 4:
            return x, y, z


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def align_global_phase(a, ref):
    """Rotate ``a`` by the phase that matches ``ref`` at its largest entry."""
    idx = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    return a * (ref[idx] / a[idx])


def non_finite_gates():
    """An all-NaN matrix, and the identity with one NaN, inf or -inf entry."""
    gates = {"all_nan": np.full((4, 4), np.nan)}
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf),
                      ("nan_imag", complex(0.0, np.nan))):
        U = np.eye(4, dtype=complex)
        U[2, 1] = bad
        gates[name] = U
    return gates
