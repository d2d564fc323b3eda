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

#: 4x4 symplectic form for the (x1, p1, x2, p2) ordering.
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

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
        cov, _ = check_states(mean, cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def check_states(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks of :class:`GaussianState` over a stack of states.

    ``mean`` is (..., 4) and ``cov`` (..., 4, 4); every entry must be finite,
    each covariance symmetric within ``SYMMETRY_TOL`` and physical within
    ``PHYSICALITY_TOL``, both relative to its scale max(1, max|V|).  Returns the
    symmetrized covariances and each state's physicality defect over its scale.
    The first failing state in row-major order raises ValidationError with
    that state's flat index as ``index``.
    """
    finite = np.isfinite(cov).all(axis=(-2, -1)) & np.isfinite(mean).all(axis=-1)
    scale = np.maximum(1.0, np.abs(np.where(finite[..., None, None], cov, 0.0)).max(axis=(-2, -1)))
    asym = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1))
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    defect = physicality_defect(np.where(finite[..., None, None], cov, 0.0))
    bad_asym = finite & (asym > SYMMETRY_TOL * scale)
    bad_defect = finite & ~bad_asym & (defect < -PHYSICALITY_TOL * scale)
    bad = (~finite | bad_asym | bad_defect).reshape(-1)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite.reshape(-1)[i]:
            message = "non-finite entries in state"
        elif bad_asym.reshape(-1)[i]:
            message = f"covariance asymmetry {asym.reshape(-1)[i]:.3e} exceeds tolerance"
        else:
            message = f"unphysical covariance: min eig of V + iJ/2 is {np.reshape(defect, -1)[i]:.3e}"
        raise ValidationError(message, index=i)
    return cov, defect / scale


def physicality_defect(cov: np.ndarray):
    """Smallest eigenvalue of V + (i/2)J; non-negative for physical states.

    ``cov`` is one 4x4 covariance (a float comes back) or a stack (..., 4, 4).
    """
    h = np.asarray(cov, dtype=complex) + 0.5j * SYMPLECTIC_FORM
    defect = np.linalg.eigvalsh(h).min(axis=-1)
    return float(defect) if defect.ndim == 0 else defect


def _four_by_four(cov) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (4, 4):
        raise ValidationError(f"covariance must be 4x4, got {cov.shape}")
    return cov


def log_negativity(state):
    """Logarithmic negativity E_N = max{0, -ln(2 nu_min)} of the partial transpose.

    ``state`` is a GaussianState (a float comes back) or a stack of validated
    covariances (..., 4, 4) (an array of shape (...) comes back).  For
    V = [[A, C], [C^T, B]] the smaller symplectic eigenvalue of the partial
    transpose is nu^2 = 2 det V / (D + sqrt(D^2 - 4 det V)), D = det A + det B
    - 2 det C, the cancellation-free root (Serafini, Illuminati & De Siena,
    J. Phys. B 37, L21 (2004)).
    """
    cov = _four_by_four(state.cov if isinstance(state, GaussianState) else state)
    delta = _det2(cov[..., :2, :2]) + _det2(cov[..., 2:, 2:]) - 2.0 * _det2(cov[..., :2, 2:])
    det = np.linalg.det(cov)
    nu_sq = 2.0 * det / (delta + np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0)))
    if np.any(~(nu_sq > 0.0)):
        raise ValidationError("vanishing symplectic eigenvalue; state is not physical")
    # math.log, not np.log: the two differ in the last bit
    energies = [max(0.0, -0.5 * math.log(4.0 * v)) for v in nu_sq.reshape(-1).tolist()]
    return energies[0] if nu_sq.ndim == 0 else np.array(energies).reshape(nu_sq.shape)


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def mode_squeezing(dx: float, dp: float, mode: ModeSpec) -> float:
    """Squeezing parameter (1/2) ln[m*omega*dx/dp] of a pair of dispersions."""
    if not (dx > 0.0 and dp > 0.0):
        raise ValidationError("dispersions must be positive")
    return 0.5 * math.log(mode.xp_scale * dx / dp)


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


def state_from_virtual_blocks(plus_cov: np.ndarray, minus_cov: np.ndarray) -> GaussianState:
    """Site-basis state, zero means, from the covariances of the (+,-) modes.

    The beam splitter is orthogonal and symplectic, so the one check of the
    site-basis state also decides the virtual one.
    """
    v = np.zeros((4, 4))
    v[:2, :2] = plus_cov
    v[2:, 2:] = minus_cov
    return GaussianState(np.zeros(4), BEAM_SPLITTER @ v @ BEAM_SPLITTER.T)

