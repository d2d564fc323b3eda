"""Gaussian states of two bosonic modes and their symplectic algebra.

Covariance matrices are ordered as r = (x1, p1, x2, p2) with hbar = 1, so the
vacuum variance of every quadrature of a unit-mass, unit-frequency mode is 1/2.
Entanglement is measured by the logarithmic negativity computed from the
partially transposed covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
DEGENERACY_RTOL = 1e-9

#: 4x4 symplectic form for the (x1, p1, x2, p2) ordering.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

#: Momentum sign flip on mode 2, implementing the partial transpose.
_PT = np.diag([1.0, 1.0, 1.0, -1.0])

#: 50/50 beam splitter sending (x1,p1,x2,p2) to (x+,p+,x-,p-) with
#: x± = (x1 ± x2)/sqrt(2).  Orthogonal, symplectic and involutive.
BEAM_SPLITTER = np.array(
    [
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
) / math.sqrt(2.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for ``n_modes`` modes, (x,p) interleaved."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j2
    return out


@dataclass(frozen=True)
class ModeSpec:
    """Mass and frequency of a single harmonic mode."""

    mass: float
    frequency: float

    def __post_init__(self):
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise ValidationError(f"mode mass must be positive, got {self.mass}")
        if not (self.frequency > 0.0 and np.isfinite(self.frequency)):
            raise ValidationError(f"mode frequency must be positive, got {self.frequency}")

    @property
    def xp_scale(self) -> float:
        """The m*omega product setting the x/p variance ratio of its vacuum."""
        return self.mass * self.frequency


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: first moments and 4x4 covariance matrix.

    The covariance is symmetrized on construction (rejecting asymmetry beyond
    ``SYMMETRY_TOL``) and checked for physicality: all eigenvalues of
    V + (i/2)J must be >= -``PHYSICALITY_TOL``.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,):
            raise ValidationError(f"mean must have 4 entries, got shape {np.shape(self.mean)}")
        if cov.shape != (4, 4):
            raise ValidationError(f"covariance must be 4x4, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)) or not np.all(np.isfinite(mean)):
            raise ValidationError("non-finite entries in state")
        asym = np.max(np.abs(cov - cov.T))
        scale = max(1.0, float(np.max(np.abs(cov))))
        if asym > SYMMETRY_TOL * scale:
            raise ValidationError(f"covariance asymmetry {asym:.3e} exceeds tolerance")
        cov = 0.5 * (cov + cov.T)
        defect = physicality_defect(cov)
        if defect < -PHYSICALITY_TOL * scale:
            raise ValidationError(
                f"unphysical covariance: min eig of V + iJ/2 is {defect:.3e}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def from_cov(cls, cov: np.ndarray) -> "GaussianState":
        """State with zero means and the given covariance."""
        return cls(np.zeros(4), cov)


def physicality_defect(cov: np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2)J; non-negative for physical states."""
    h = np.asarray(cov, dtype=complex) + 0.5j * SYMPLECTIC_FORM
    return float(np.linalg.eigvalsh(h).min())


def symplectic_eigenvalues(cov: np.ndarray) -> tuple[float, float]:
    """Symplectic spectrum of a 4x4 covariance matrix, ascending.

    The two values are the moduli of the eigenvalues of iJV, which come in
    degenerate pairs; the pairs are averaged (they agree to roundoff).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"covariance must be 4x4, got {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * scale:
        raise ValidationError("covariance matrix is not symmetric")
    mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ cov)))
    nu_minus = 0.5 * (mods[0] + mods[1])
    nu_plus = 0.5 * (mods[2] + mods[3])
    if mods[1] - mods[0] > DEGENERACY_RTOL * max(1.0, mods[1]) or (
        mods[3] - mods[2] > DEGENERACY_RTOL * max(1.0, mods[3])
    ):
        # pairs should be exactly degenerate; large splitting signals bad input
        raise ValidationError("symplectic spectrum does not form degenerate pairs")
    return float(nu_minus), float(nu_plus)


def partial_transpose(cov: np.ndarray) -> np.ndarray:
    """Covariance of the partial transpose on mode 2 (momentum sign flip)."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"covariance must be 4x4, got {cov.shape}")
    return _PT @ cov @ _PT


def log_negativity(state: GaussianState) -> float:
    """Logarithmic negativity E_N = max{0, -ln(2 nu_min)} of the partial transpose."""
    nu_min, _ = symplectic_eigenvalues(partial_transpose(state.cov))
    if nu_min <= 0.0:
        raise ValidationError("vanishing symplectic eigenvalue; state is not physical")
    return max(0.0, -math.log(2.0 * nu_min))


def beam_splitter(state: GaussianState) -> GaussianState:
    """Apply the 50/50 beam splitter mapping site modes to (+,-) virtual modes.

    The map is its own inverse, so it also converts a state expressed in the
    virtual ordering (x+, p+, x-, p-) back to the site ordering.
    """
    s = BEAM_SPLITTER
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def mode_squeezing(dx: float, dp: float, mode: ModeSpec) -> float:
    """Squeezing parameter (1/2) ln[m*omega*dx/dp] of a pair of dispersions."""
    if not (dx > 0.0 and dp > 0.0):
        raise ValidationError("dispersions must be positive")
    return 0.5 * math.log(mode.xp_scale * dx / dp)


def purity(state: GaussianState) -> float:
    """Purity of a two-mode Gaussian state, 1/(4 sqrt(det V))."""
    det = float(np.linalg.det(state.cov))
    if det <= 0.0:
        raise ValidationError("covariance determinant must be positive")
    return 1.0 / (4.0 * math.sqrt(det))


# ---------------------------------------------------------------------------
# covariance builders


def squeezed_cov(r: float, mode: ModeSpec, area_product: float = 0.5) -> np.ndarray:
    """2x2 covariance of a squeezed (possibly mixed) single mode.

    ``r`` fixes the dispersion ratio dx/dp = exp(2r)/(m*omega); ``area_product``
    is dx*dp (1/2 for a pure state, larger for mixed ones).
    """
    if area_product < 0.5 - 1e-12:
        raise ValidationError(f"area product {area_product} below the Heisenberg limit 1/2")
    s = mode.xp_scale
    return np.diag([area_product * math.exp(2.0 * r) / s, area_product * math.exp(-2.0 * r) * s])


def thermal_cov(nbar: float, mode: ModeSpec) -> np.ndarray:
    """2x2 covariance of a thermal single mode with occupation ``nbar``."""
    if nbar < 0.0:
        raise ValidationError("thermal occupation must be non-negative")
    return squeezed_cov(0.0, mode, area_product=nbar + 0.5)


def state_from_virtual_blocks(
    plus_cov: np.ndarray,
    minus_cov: np.ndarray,
    cross: np.ndarray | None = None,
    mean_virtual: np.ndarray | None = None,
) -> GaussianState:
    """Assemble a site-basis state from covariance blocks of the (+,-) modes."""
    v = np.zeros((4, 4))
    v[:2, :2] = plus_cov
    v[2:, 2:] = minus_cov
    if cross is not None:
        v[:2, 2:] = cross
        v[2:, :2] = np.asarray(cross).T
    mu = np.zeros(4) if mean_virtual is None else np.asarray(mean_virtual, dtype=float)
    return beam_splitter(GaussianState(mu, v))


def two_mode_squeezed_state(r: float, mode: ModeSpec, area_product: float = 0.5) -> GaussianState:
    """Two-mode squeezed state whose (-) virtual mode carries squeezing ``r``.

    The (+) mode carries the opposite squeezing; for a pure state
    (``area_product`` = 1/2 on the minus mode) the logarithmic negativity is 2|r|.
    """
    return state_from_virtual_blocks(
        squeezed_cov(-r, mode), squeezed_cov(r, mode, area_product=area_product)
    )


def squeezed_product_state(r: float, mode: ModeSpec, area_product: float = 0.5) -> GaussianState:
    """Product of two identical squeezed modes; separable, both virtual modes squeezed by ``r``."""
    return state_from_virtual_blocks(
        squeezed_cov(r, mode), squeezed_cov(r, mode, area_product=area_product)
    )


def coherent_product_state(mode: ModeSpec, mean: np.ndarray | None = None) -> GaussianState:
    """Product of coherent states (vacuum covariance, optional displacement)."""
    v = np.zeros((4, 4))
    v[:2, :2] = v[2:, 2:] = squeezed_cov(0.0, mode)  # vacuum
    mu = np.zeros(4) if mean is None else np.asarray(mean, dtype=float)
    return GaussianState(mu, v)
