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
    ``SYMMETRY_TOL``) and checked for physicality by :func:`check_states`:
    V + (i/2)J must have no eigenvalue below -``PHYSICALITY_TOL`` times the
    state's scale.
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


def check_states(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The checks of :class:`GaussianState` over a stack of states.

    ``mean`` is (..., 4) and ``cov`` (..., 4, 4); every entry must be finite,
    each covariance symmetric within ``SYMMETRY_TOL`` and physical within
    ``PHYSICALITY_TOL``, both relative to its scale max(1, max|V|).  Physical
    means that (V + iJ/2)/scale + PHYSICALITY_TOL*I is positive definite: every
    pivot of its LDL^H factorisation, taken for the whole stack at once, is
    > 0.  That is min eig(V + iJ/2) >= -PHYSICALITY_TOL*scale, up to rounding
    at the threshold.  Returns the symmetrized covariances and the flat index
    of the state with the smallest pivot (None for an empty stack), whose
    ``physicality_defect`` a run reports.  The first failing state in
    row-major order raises ValidationError with that state's flat index as
    ``index``; its message is the one place an eigenvalue is taken.
    """
    n = cov.size // 16
    rows = np.ascontiguousarray(cov.reshape(n, 16).T).reshape(4, 4, n)
    size = np.abs(rows).max(axis=(0, 1))  # not finite where an entry is not
    finite = np.isfinite(size)
    if not finite.all():
        rows = np.where(finite, rows, 0.0)
        size = np.where(finite, size, 0.0)
    finite &= np.isfinite(mean).all(axis=-1).reshape(-1)
    scale = np.maximum(1.0, size)
    swapped = rows.transpose(1, 0, 2)
    asym = np.abs(rows - swapped).max(axis=(0, 1))
    half = 0.5 / scale  # real arithmetic first: a complex division costs more
    pivots = _ldl_pivots((rows + swapped) * half + _SHIFT + _HALF_J * (2.0 * half))
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    bad_asym = finite & (asym > SYMMETRY_TOL * scale)
    bad = ~finite | bad_asym | ~(pivots > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            message = "non-finite entries in state"
        elif bad_asym[i]:
            message = f"covariance asymmetry {asym[i]:.3e} exceeds tolerance"
        else:
            defect = physicality_defect(cov.reshape(-1, 4, 4)[i])
            message = f"unphysical covariance: min eig of V + iJ/2 is {defect:.3e}"
        raise ValidationError(message, index=i)
    return cov, int(np.argmin(pivots)) if n else None


def check_each(mean: np.ndarray, cov: np.ndarray,
               check=check_states) -> tuple[np.ndarray, int | None, dict]:
    """``check`` over P stacks of states (P, ..., 4) and (P, ..., 4, 4), where a
    failed stack leaves and the rest are checked again: the covariances that
    passed, their tightest flat index and {stack index: ValidationError}."""
    per = math.prod(cov.shape[1:-2])
    kept, failed = list(range(len(cov))), {}
    while True:
        try:
            checked, tightest = check(mean[kept], cov[kept])
            return checked, tightest, failed
        except ValidationError as exc:
            failed[kept.pop(exc.index // per)] = exc


_HALF_J = (0.5j * SYMPLECTIC_FORM)[..., None]
_SHIFT = (PHYSICALITY_TOL * np.eye(4))[..., None]


def _ldl_pivots(h: np.ndarray) -> np.ndarray:
    """Smallest pivot of the LDL^H factorisation of each Hermitian h[:, :, s],
    (4, 4, n) and overwritten: four right-looking steps over the whole stack.
    A pivot that is not > 0 ends that state's factorisation in effect: it is
    replaced by 1 for the steps that follow, which cannot make it pass."""
    smallest = h[0, 0].real.copy()
    for k in range(3):
        pivot = h[k, k].real
        np.minimum(smallest, pivot, out=smallest)
        row = h[k, k + 1:]
        h[k + 1:, k + 1:] -= (row.conj() / np.where(pivot > 0.0, pivot, 1.0))[:, None] * row
    return np.minimum(smallest, h[3, 3].real)


def physicality_defect(cov: np.ndarray):
    """Smallest eigenvalue of V + (i/2)J; non-negative for physical states.

    ``cov`` is one 4x4 covariance (a float comes back) or a stack (..., 4, 4).
    """
    h = np.asarray(cov, dtype=complex) + 0.5j * SYMPLECTIC_FORM
    defect = np.linalg.eigvalsh(h).min(axis=-1)
    return float(defect) if defect.ndim == 0 else defect


def relative_defect(cov: np.ndarray) -> float:
    """``physicality_defect`` of one covariance over its scale max(1, max|V|),
    the scale of :func:`check_states`."""
    return physicality_defect(cov) / max(1.0, float(np.abs(cov).max()))


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
    energies = np.maximum(-0.5 * np.log(4.0 * nu_sq), 0.0)  # this order maps -0.0 to 0.0
    return float(energies) if energies.ndim == 0 else energies


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


def site_cov(plus_cov: np.ndarray, minus_cov: np.ndarray) -> np.ndarray:
    """Site-basis covariance, unchecked, from the covariances of the (+,-) modes."""
    v = np.zeros((4, 4))
    v[:2, :2] = plus_cov
    v[2:, 2:] = minus_cov
    return BEAM_SPLITTER @ v @ BEAM_SPLITTER.T

