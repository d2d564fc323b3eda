"""Ohmic spectral density, thermal occupation, kernels, and bath discretization.

The continuum density J(w) = (2/pi) m gamma0 w theta(cutoff - w) is realized as
N discrete modes on a midpoint grid.  Each mode carries the local spectral
weight both in the position-coupling convention (couplings c_k, defined through
J(w) = sum_k c_k^2 delta(w - w_k) / (2 m_k w_k)) and, when a ladder scale
m*omega is supplied, in the ladder convention (couplings g_k, defined through
J_ladder(w) = sum_k g_k^2 delta(w - w_k) = 2 J(w)/(m omega)).  A bath coupled
to one coordinate makes an arrowhead matrix, which ``arrowhead_eigh`` solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError, ValidationError


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
    if temperature == 0.0:
        out = np.zeros_like(w_arr)
    else:
        with np.errstate(over="ignore"):  # w >> T: expm1 overflows to inf, and 1/inf = 0 is right
            out = 1.0 / np.expm1(w_arr / temperature)
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


def arrowhead_eigh(a: float, z, d) -> tuple[np.ndarray, np.ndarray, dict]:
    """Eigenpairs of the symmetric arrowhead [[a, z^T], [z, diag(d)]] in O(N^2).

    Returns the eigenvalues (ascending), the orthonormal eigenvectors (columns;
    row 0 is the border coordinate) and the largest iteration count of any root
    and max |z_hat - z| / |z|.  Raises NumericsError unless d strictly increases.

    The eigenvalues are the roots of f(l) = l - a + sum_k z_k^2 / (d_k - l): one
    between each two neighbouring poles d_k, one beyond each end within the
    Weyl bounds.  Each is solved relative to its nearer pole, so that l - d_k
    keeps full relative accuracy, by a rational model safeguarded by bisection:
    two poles inside ("middle way", Li 1993; LAPACK dlaed4), one pole plus the
    linear term at the edges.  The eigenvectors [1, z_hat_k / (l - d_k)] use
    the z_hat for which the computed roots are exact, so they are orthogonal to
    working precision (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172
    (1995)).  A coupling below eps * |A| deflates: (d_k, e_k) is an eigenpair.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    n = d.size
    if np.any(np.diff(d) <= 0.0):
        raise NumericsError("arrowhead diagonal must be strictly increasing")
    if n == 0:
        return np.array([float(a)]), np.ones((1, 1)), {"secular_iterations": 0, "secular_z_drift": 0.0}
    norm = max(abs(a), abs(d[0]), abs(d[-1])) + math.sqrt(z @ z)
    keep = np.abs(z) > np.finfo(float).eps * norm
    if not keep.all():
        lam, sub, health = arrowhead_eigh(a, z[keep], d[keep])
        gone = np.flatnonzero(~keep)
        vecs = np.zeros((n + 1, n + 1))
        vecs[np.r_[0, 1 + np.flatnonzero(keep)], : lam.size] = sub
        vecs[1 + gone, lam.size + np.arange(gone.size)] = 1.0
        lam = np.concatenate((lam, d[gone]))
        order = np.argsort(lam, kind="stable")
        return lam[order], vecs[:, order], health
    tau, org, iters = _secular_roots(a, z * z, d)
    diff = np.subtract(d[org][:, None], d)  # lambda_i - d_k, accurate through the shift
    diff += tau[:, None]
    # Loewner: z_hat_k^2 = -prod_i (lambda_i - d_k) / prod_{j != k} (d_j - d_k),
    # taken as a product of interlacing ratios (lambda_j - d_k) / (d_j - d_k)
    ratio = np.empty((n + 1, n))
    np.subtract(d[:, None], d, out=ratio[:n])
    ratio[n] = 1.0
    np.fill_diagonal(ratio, 1.0)
    np.divide(diff, ratio, out=ratio)
    zhat = np.copysign(np.sqrt(np.maximum(-ratio.prod(axis=0), 0.0)), z)
    del ratio
    vecs = np.empty((n + 1, n + 1))  # eigenvectors as rows
    np.divide(zhat, diff, out=vecs[:, 1:])
    del diff
    vecs[:, 0] = 1.0
    vecs /= np.sqrt(np.einsum("ij,ij->i", vecs, vecs))[:, None]
    drift = float(np.abs(zhat / z - 1.0).max())
    return d[org] + tau, vecs.T, {"secular_iterations": iters, "secular_z_drift": drift}


def _secular_roots(a: float, z2: np.ndarray, d: np.ndarray):
    """Roots lambda_i = d[org_i] + tau_i of l - a + sum z2 / (d - l), and the
    largest iteration count."""
    n = d.size
    eps = np.finfo(float).eps
    nz = math.sqrt(z2.sum())
    org = np.minimum(np.arange(n + 1), n - 1)  # origin pole of each root
    lo, hi = np.zeros(n + 1), np.zeros(n + 1)  # brackets, shifted to the origin
    lo[0], hi[n] = min(a, d[0]) - nz - d[0], max(a, d[-1]) + nz - d[-1]
    if n > 1:  # an interior root takes the pole on its side of f(mid) = 0
        mid = 0.5 * (d[:-1] + d[1:])
        buf = d - mid[:, None]
        np.divide(z2, buf, out=buf)
        left = mid - a + buf.sum(axis=1) >= 0.0
        del buf
        org[1:n] -= left
        to_mid = mid - d[org[1:n]]
        lo[1:n] = np.where(left, 0.0, to_mid)
        hi[1:n] = np.where(left, to_mid, 0.0)
    tau = np.where(lo == 0.0, hi, lo)  # the bracket end where f's sign is known
    # flat buffers with one spare zero, so that reduceat sums an empty
    # right-hand group at the end of the last row to 0
    flat_t, flat_u = np.empty((n + 1) * n + 1), np.empty((n + 1) * n + 1)
    active = np.arange(n + 1)  # root i lies between poles i - 1 and i
    iters = 0
    while active.size:
        iters += 1
        if iters > 100:  # bisection alone would be done in about 60
            raise NumericsError(f"secular equation: {active.size} root(s) unconverged")
        r, k = active.size, active
        do, ta = d[org[k]], tau[k]
        u = flat_u[: r * n].reshape(r, n)
        t = flat_t[: r * n].reshape(r, n)
        np.subtract(d, do[:, None], out=u)
        u -= ta[:, None]  # d_j - lambda
        np.divide(z2, u, out=t)
        np.divide(t, u, out=u)
        flat_t[r * n] = flat_u[r * n] = 0.0
        starts = np.arange(r) * n
        groups = np.column_stack((starts, starts + k)).ravel()
        # poles left and right of the root: psi, phi and their derivatives
        # (reduceat gives the first element for the empty left group of root 0)
        psi, phi = np.add.reduceat(flat_t[: r * n + 1], groups).reshape(r, 2).T
        dpsi, dphi = np.add.reduceat(flat_u[: r * n + 1], groups).reshape(r, 2).T
        psi, dpsi = np.where(k == 0, 0.0, psi), np.where(k == 0, 0.0, dpsi)
        f = (do - a) + ta + psi + phi
        tol = eps * (8.0 * (phi - psi + np.abs(do - a) + np.abs(ta))
                     + np.abs(ta) * (1.0 + dpsi + dphi))
        lo_a = np.where(f < 0.0, ta, lo[active])
        hi_a = np.where(f > 0.0, ta, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = (k > 0) & (k < n)
            dl = (d[np.maximum(k - 1, 0)] - do) - ta  # nearest poles minus lambda
            dr = (d[np.minimum(k, n - 1)] - do) - ta
            sl, sr = dl * dl * dpsi, dr * dr * (dphi + inner)
            c = f - sl / dl - sr / dr
            # model c + sl/(dl - eta) + sr/(dr - eta) = 0 inside; at the edges, where
            # sl or sr is 0, f + s (1/(de - eta) - 1/de) + eta = 0: qa eta^2 - qb eta + qc
            de = np.where(k == 0, dr, dl)
            qa = np.where(inner, c, 1.0)
            qb = np.where(inner, c * (dl + dr) + sl + sr, de - f + (sl + sr) / de)
            qc = np.where(inner, dl * dr * f, -f * de)
            root = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
            eta1 = 2.0 * qc / (qb + np.copysign(root, qb))
            eta2 = qc / (qa * eta1)
        t1, t2 = ta + eta1, ta + eta2  # the model root in the bracket, else bisect
        new = np.where((lo_a < t1) & (t1 < hi_a), t1,
                       np.where((lo_a < t2) & (t2 < hi_a), t2, 0.5 * (lo_a + hi_a)))
        done = (np.abs(f) <= tol) | (hi_a - lo_a <= 4.0 * eps * np.maximum(-lo_a, hi_a))
        new = np.where(done, ta, new)
        done |= np.abs(new - ta) <= 2.0 * eps * np.abs(ta)
        tau[active], lo[active], hi[active] = new, lo_a, hi_a
        active = active[~done]
    return tau, org, iters
