import numpy as np
import pytest

from entbath import bathsim
from entbath.gaussian import SYMPLECTIC_FORM, GaussianState


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_symplectic(rng, n_modes=2, strength=0.6):
    """Random symplectic matrix exp(J H) from a random symmetric generator."""
    from scipy.linalg import expm

    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim)) * strength
    h = 0.5 * (h + h.T)
    j = SYMPLECTIC_FORM if n_modes == 2 else None
    return expm(j @ h)


def random_physical_state(rng, max_nbar=2.0):
    """Random two-mode Gaussian state: thermal core under a random symplectic."""
    nus = 0.5 + max_nbar * rng.random(2)
    core = np.diag(np.repeat(nus, 2))
    s = random_symplectic(rng)
    return GaussianState(rng.normal(size=4), s @ core @ s.T)


def single_mode_symplectic(theta, r):
    """Rotation by theta followed by squeezing r, one mode."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    sq = np.diag([np.exp(r), np.exp(-r)])
    return sq @ rot


@pytest.fixture
def integrals(monkeypatch):
    """(Theta of each bath, quadrature nodes per Theta, drift of each) of every
    thermal product, in call order."""
    calls = []
    thermal = bathsim._PlusSector.thermal

    def spy(solver, baths, times):
        a2, thetas, nodes, drifts, feeds = thermal(solver, baths, times)
        calls.append((thetas, nodes, drifts))
        return a2, thetas, nodes, drifts, feeds

    monkeypatch.setattr(bathsim._PlusSector, "thermal", spy)
    return calls


@pytest.fixture(scope="session")
def acceptance_cache():
    """Shared storage for expensive objects reused across acceptance criteria."""
    return {}
