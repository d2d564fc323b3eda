"""Ohmic spectral density, thermal occupation, kernels, and bath discretization.

The continuum density J(w) = (2/pi) m gamma0 w theta(cutoff - w) is realized as
N discrete modes on a midpoint grid.  Each mode carries the local spectral
weight both in the position-coupling convention (couplings c_k, defined through
J(w) = sum_k c_k^2 delta(w - w_k) / (2 m_k w_k)) and, when a ladder scale
m*omega is supplied, in the ladder convention (couplings g_k, defined through
J_ladder(w) = sum_k g_k^2 delta(w - w_k) = 2 J(w)/(m omega)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """Ohmic density with a hard high-frequency cutoff."""

    gamma0: float
    cutoff: float
    mass: float = 1.0

    def __post_init__(self):
        if self.gamma0 < 0.0:
            raise ValidationError("gamma0 must be non-negative")
        if not self.cutoff > 0.0:
            raise ValidationError("cutoff must be positive")
        if not self.mass > 0.0:
            raise ValidationError("mass must be positive")

    def j(self, w):
        """Density value(s) at frequency ``w`` (zero above the cutoff)."""
        w = np.asarray(w, dtype=float)
        if np.any(w < 0.0):
            raise ValidationError("frequency must be non-negative")
        out = (2.0 / math.pi) * self.mass * self.gamma0 * w * (w < self.cutoff)
        return float(out) if out.ndim == 0 else out

    @property
    def total_weight(self) -> float:
        """Integral of J over all frequencies, m gamma0 cutoff^2 / pi."""
        return self.mass * self.gamma0 * self.cutoff**2 / math.pi

    @property
    def static_self_energy(self) -> float:
        """Integral of J(w)/w, equal to 2 m gamma0 cutoff / pi."""
        return 2.0 * self.mass * self.gamma0 * self.cutoff / math.pi

    @property
    def delta_omega_sq(self) -> float:
        """Static frequency-squared shift -(2/m) * integral J/w = -4 gamma0 cutoff / pi."""
        return -2.0 * self.static_self_energy / self.mass

    def ladder_level_shift(self, w, ladder_omega: float):
        """Ladder level shift P int J_ladder(w')/(w - w') dw', J_ladder = 2 J / (m omega),
        at 0 < w < cutoff: (4 gamma0 / pi omega)(-cutoff + w ln(w / (cutoff - w)))."""
        w = np.asarray(w, dtype=float)
        lam = self.cutoff
        out = 4.0 * self.gamma0 / (math.pi * ladder_omega) * (-lam + w * np.log(w / (lam - w)))
        return float(out) if out.ndim == 0 else out


def thermal_occupation(w: float, temperature: float):
    """Bose occupation 1/(exp(w/T) - 1); zero at T = 0."""
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr <= 0.0):
        raise ValidationError("frequency must be positive for a thermal occupation")
    if temperature < 0.0:
        raise ValidationError("temperature must be non-negative")
    out = np.zeros_like(w_arr) if temperature == 0.0 else 1.0 / np.expm1(w_arr / temperature)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DiscretizedBath:
    """Finite-mode realization of a spectral density on a linear frequency grid."""

    frequencies: np.ndarray
    position_couplings: np.ndarray
    masses: np.ndarray
    temperature: float
    spacing: float
    ladder_scale: float | None = None

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        if freqs.size < 1:
            raise ValidationError("bath needs at least one mode")
        if np.any(freqs <= 0.0) or np.any(np.diff(freqs) <= 0.0):
            raise ValidationError("bath frequencies must be positive and strictly increasing")
        if self.temperature < 0.0:
            raise ValidationError("temperature must be non-negative")
        for name in ("frequencies", "position_couplings", "masses"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    @property
    def recurrence_time(self) -> float:
        """Time 2 pi / spacing at which the discrete bath re-coheres."""
        return 2.0 * math.pi / self.spacing

    @cached_property
    def occupations(self) -> np.ndarray:
        return thermal_occupation(self.frequencies, self.temperature)

    @cached_property
    def ladder_couplings(self) -> np.ndarray:
        """Per-mode couplings g_k of the ladder (symmetric) convention."""
        if self.ladder_scale is None:
            raise ValidationError("bath was discretized without a ladder scale")
        g2 = self.position_couplings**2 / (self.ladder_scale * self.masses * self.frequencies)
        return np.sqrt(g2)

    def weight_sum(self) -> float:
        """Sum of c_k^2 / (2 m_k w_k); approximates the integral of J."""
        return float(
            np.sum(self.position_couplings**2 / (2.0 * self.masses * self.frequencies))
        )


def discretize(
    density: OhmicSpectralDensity,
    n_modes: int,
    temperature: float,
    ladder_scale: float | None = None,
) -> DiscretizedBath:
    """Discretize a density into ``n_modes`` midpoint-sampled modes of unit mass.

    Mode k sits at w_k = (k - 1/2) * cutoff/N and carries the local weight
    c_k^2 = 2 m_k w_k J(w_k) dw, which makes the position sum rule exact for a
    linear-in-w density.
    """
    if n_modes < 1:
        raise ValidationError("n_modes must be at least 1")
    dw = density.cutoff / n_modes
    freqs = (np.arange(n_modes) + 0.5) * dw
    masses = np.ones(n_modes)
    c2 = 2.0 * masses * freqs * density.j(freqs) * dw
    return DiscretizedBath(
        frequencies=freqs,
        position_couplings=np.sqrt(c2),
        masses=masses,
        temperature=float(temperature),
        spacing=dw,
        ladder_scale=ladder_scale,
    )


# Taylor coefficients 1/(n! (n+2)) of the kernel bracket; 20 terms reach
# double precision for L s < 1 (the first omitted term is below 1e-19).
_KERNEL_SERIES = tuple(1.0 / (math.factorial(n) * (n + 2)) for n in range(20))


def eta_kernel(density: OhmicSpectralDensity, s: float) -> complex:
    """Memory kernel eta(s) = integral of J(w) exp(-i w s) dw.

    For the hard-cutoff Ohmic density the integral is elementary:
    eta(s) = (2/pi) m gamma0 [(1 + i L s) exp(-i L s) - 1] / s^2, L the cutoff.
    Below L s = 1 the bracket cancels to O((L s)^2), so there the series
    (2/pi) m gamma0 L^2 sum_n (-i L s)^n / (n! (n + 2)) is summed instead.
    """
    if s < 0.0:
        raise ValidationError("kernel argument must be non-negative")
    a = (2.0 / math.pi) * density.mass * density.gamma0
    lam = density.cutoff
    z = lam * s
    if z < 1.0:
        x = complex(0.0, -z)
        series = 0j
        for c in reversed(_KERNEL_SERIES):
            series = series * x + c
        return a * lam**2 * series
    cos_z, sin_z = math.cos(z), math.sin(z)
    return complex(
        a * (cos_z + z * sin_z - 1.0) / s**2,
        a * (z * cos_z - sin_z) / s**2,
    )


def eta_kernel_discrete(bath: DiscretizedBath, s: float) -> complex:
    """Discrete-sum kernel sum_k g_k^2 exp(-i w_k s) of the ladder convention."""
    g2 = bath.ladder_couplings**2
    return complex(np.sum(g2 * np.exp(-1j * bath.frequencies * s)))
