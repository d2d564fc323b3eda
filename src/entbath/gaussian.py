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
        cov, _ = check_states(mean, cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def from_cov(cls, cov: np.ndarray) -> "GaussianState":
        """State with zero means and the given covariance."""
        return cls(np.zeros(4), cov)


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


def symplectic_eigenvalues(cov: np.ndarray):
    """Symplectic spectrum of a 4x4 covariance matrix, ascending.

    The two values are the moduli of the eigenvalues of iJV, which come in
    degenerate pairs; the pairs are averaged (they agree to roundoff).  A stack
    (..., 4, 4) gives two arrays of shape (...), one covariance two floats.
    """
    cov = _four_by_four(cov)
    scale = np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if np.any(np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise ValidationError("covariance matrix is not symmetric")
    mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ cov)), axis=-1)
    m0, m1, m2, m3 = np.moveaxis(mods, -1, 0)
    nu_minus = 0.5 * (m0 + m1)
    nu_plus = 0.5 * (m2 + m3)
    if np.any(m1 - m0 > DEGENERACY_RTOL * np.maximum(1.0, m1)) or np.any(
        m3 - m2 > DEGENERACY_RTOL * np.maximum(1.0, m3)
    ):
        # pairs should be exactly degenerate; large splitting signals bad input
        raise ValidationError("symplectic spectrum does not form degenerate pairs")
    if cov.ndim == 2:
        return float(nu_minus), float(nu_plus)
    return nu_minus, nu_plus


def partial_transpose(cov: np.ndarray) -> np.ndarray:
    """Covariance of the partial transpose on mode 2 (momentum sign flip)."""
    return _PT @ _four_by_four(cov) @ _PT


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
