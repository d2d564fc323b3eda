"""Ohmic spectral density, thermal occupation, kernels, and bath discretization.

The continuum density J(w) = (2/pi) m gamma0 w theta(cutoff - w) is realized as
N discrete modes on a midpoint grid.  Each mode carries the local spectral
weight both in the position-coupling convention (couplings c_k, defined through
J(w) = sum_k c_k^2 delta(w - w_k) / (2 m_k w_k)) and, when a ladder scale
m*omega is supplied, in the ladder convention (couplings g_k, defined through
J_ladder(w) = sum_k g_k^2 delta(w - w_k) = 2 J(w)/(m omega)).  A bath coupled
to one coordinate makes an arrowhead matrix, which ``arrowhead_eigh`` solves
in O(N^2) time and O(N) memory: its ``NormalModes`` keep the eigenvalues, the
secular weights z_hat and the eigenvector norms, and form eigenvectors only a
row block of ``_BLOCK`` doubles at a time (about 2 MB of arrays at N = 4000,
where the (N+1)^2 eigenvectors and (N+1) x N secular buffers took 258 MB).
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


#: doubles in one row block of the secular sweeps and the eigenvector products
#: (256 KB): a solve and its products hold O(N) vectors plus a few such blocks
_BLOCK = 1 << 15


#: most sweeps of the secular iteration; bisection alone would be done in about 60
_MAX_SWEEPS = 100


def _blocks(rows: int, width: int):
    """(lo, hi) of consecutive row blocks of a (rows, width) array, each at most
    ``_BLOCK`` doubles (one row at least)."""
    step = max(1, _BLOCK // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Eigenpairs of the symmetric arrowhead [[a, z^T], [z, diag(d)]], held in O(N).

    ``values`` are the eigenvalues (ascending), d[origin] + offset.  Eigenvector
    i is [1, zhat_k / (values_i - d_k)] / norms_i, with values_i - d_k taken as
    (d[origin_i] - d_k) + offset_i, which keeps its full relative accuracy; the
    modes in ``units`` (mode, pole) are unit vectors of deflated bath
    coordinates (their zhat is 0 and their norm inf).  Its products form the
    eigenvectors a row block at a time and never hold the (N+1)^2 matrix.
    """

    values: np.ndarray
    poles: np.ndarray
    origin: np.ndarray
    offset: np.ndarray
    zhat: np.ndarray
    norms: np.ndarray
    units: np.ndarray
    health: dict

    @cached_property
    def first_row(self) -> np.ndarray:
        """Border (row 0) entry of every eigenvector, 1/norms."""
        return 1.0 / self.norms

    def _vectors(self, lo: int, hi: int) -> np.ndarray:
        """Bath entries of the eigenvectors lo..hi, one per row, (hi - lo, N)."""
        rows = _differences(self.poles, self.origin, self.offset, lo, hi)
        modes, poles = self.units
        inside = (lo <= modes) & (modes < hi)
        if modes.size:  # deflated: no coupling to or from a unit mode (zhat is 0)
            rows[:, poles] = 1.0
            rows[modes[inside] - lo] = np.inf
        np.divide(self.zhat, rows, out=rows)
        rows /= self.norms[lo:hi, None]
        rows[modes[inside] - lo, poles[inside]] = 1.0
        return rows

    def products(self, left: np.ndarray | None = None, bath: np.ndarray | None = None):
        """``left @ V.T`` (m, N+1) and ``V[1:].T @ bath`` (N+1, p), real or
        complex, of the eigenvector matrix V (columns), from one pass over its
        row blocks."""
        n = self.poles.size
        rows = weights = None
        if left is not None:
            rows = np.zeros((left.shape[0], n + 1), left.dtype)
            rows[:, 0] = left @ self.first_row
        if bath is not None:
            weights = np.empty((n + 1, bath.shape[1]), bath.dtype)
        for lo, hi in _blocks(n + 1, n):
            v = self._vectors(lo, hi)
            if left is not None:
                rows[:, 1:] += left[:, lo:hi] @ v
            if bath is not None:
                weights[lo:hi] = v @ bath
        return rows, weights


def _differences(d, origin, offset, lo: int, hi: int) -> np.ndarray:
    """lambda_i - d_k for the roots lo..hi, as (d[origin_i] - d_k) + offset_i."""
    diff = np.subtract.outer(d[origin[lo:hi]], d) if d.size else np.empty((hi - lo, 0))
    diff += offset[lo:hi, None]
    return diff


def arrowhead_eigh(a: float, z, d) -> NormalModes:
    """Eigenpairs of the symmetric arrowhead [[a, z^T], [z, diag(d)]] in O(N^2)
    time and O(N) memory.

    Returns them as :class:`NormalModes`, whose ``health`` holds the largest
    iteration count of any root and max |z_hat - z| / |z|.  Raises
    NumericsError unless d strictly increases.

    The eigenvalues are the roots of f(l) = l - a + sum_k z_k^2 / (d_k - l): one
    between each two neighbouring poles d_k, one beyond each end within the
    Weyl bounds.  Each is solved relative to its nearer pole, so that l - d_k
    keeps full relative accuracy, by a rational model safeguarded by bisection:
    two poles inside ("middle way", Li 1993; LAPACK dlaed4), one pole plus the
    linear term at the edges.  The eigenvectors [1, z_hat_k / (l - d_k)] use
    the z_hat for which the computed roots are exact, so they are orthogonal to
    working precision (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172
    (1995)).  A coupling below eps * |A| deflates: (d_k, e_k) is an eigenpair.
    The sweeps, z_hat and the norms go over row blocks of ``_BLOCK`` doubles.
    """
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    n = d.size
    if np.any(np.diff(d) <= 0.0):
        raise NumericsError("arrowhead diagonal must be strictly increasing")
    norm = max(abs(a), abs(d[0]), abs(d[-1])) + math.sqrt(z @ z) if n else abs(a)
    keep = np.abs(z) > np.finfo(float).eps * norm
    kept, gone = np.flatnonzero(keep), np.flatnonzero(~keep)
    if kept.size:
        sub = d[kept]
        tau, org, iters = _secular_roots(a, z[kept] ** 2, sub)
        zhat, norms = _vector_scales(z[kept], sub, org, tau)
        values, origin = sub[org] + tau, kept[org]
        drift = float(np.abs(zhat / z[kept] - 1.0).max())
    else:  # a free border: its own eigenvector
        values, origin, tau = np.array([float(a)]), np.zeros(1, dtype=int), np.zeros(1)
        zhat, norms, iters, drift = np.zeros(0), np.ones(1), 0, 0.0
    full_zhat = np.zeros(n)
    full_zhat[kept] = zhat
    health = {"secular_iterations": iters, "secular_z_drift": drift}
    if not gone.size:
        return NormalModes(values, d, origin, tau, full_zhat, norms, np.zeros((2, 0), int), health)
    values = np.concatenate((values, d[gone]))
    order = np.argsort(values, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    units = np.stack((place[values.size - gone.size:], gone))
    return NormalModes(values[order], d, np.concatenate((origin, gone))[order],
                       np.concatenate((tau, np.zeros(gone.size)))[order], full_zhat,
                       np.concatenate((norms, np.full(gone.size, np.inf)))[order], units, health)


def _vector_scales(z: np.ndarray, d: np.ndarray, org: np.ndarray, tau: np.ndarray):
    """z_hat, for which the roots d[org] + tau are exact, and the norms of the
    eigenvectors [1, z_hat / (lambda_i - d)], each in one pass over row blocks."""
    n = d.size
    # Loewner: z_hat_k^2 = -prod_i (lambda_i - d_k) / prod_{j != k} (d_j - d_k),
    # taken as a product of interlacing ratios (lambda_j - d_k) / (d_j - d_k); each
    # block's product starts from the running one, so the order is that of one sweep
    running = np.ones(n)
    for lo, hi in _blocks(n + 1, n):
        ratio = np.empty((hi - lo + 1, n))
        ratio[0] = running
        den = ratio[1:]
        np.subtract.outer(d[lo:min(hi, n)], d, out=den[: min(hi, n) - lo])
        den[n - lo:] = 1.0  # the row of the last root has no pole of its own
        den[np.arange(min(hi, n) - lo), np.arange(lo, min(hi, n))] = 1.0
        np.divide(_differences(d, org, tau, lo, hi), den, out=den)
        running = ratio.prod(axis=0)
    zhat = np.copysign(np.sqrt(np.maximum(-running, 0.0)), z)
    norms = np.empty(n + 1)
    for lo, hi in _blocks(n + 1, n):
        row = np.empty((hi - lo, n + 1))
        row[:, 0] = 1.0
        np.divide(zhat, _differences(d, org, tau, lo, hi), out=row[:, 1:])
        norms[lo:hi] = np.sqrt(np.einsum("ij,ij->i", row, row))
    return zhat, norms


def _pole_sums(z2: np.ndarray, d: np.ndarray, k: np.ndarray, origin: np.ndarray,
               offset: np.ndarray) -> np.ndarray:
    """psi, phi, dpsi, dphi of each root k at lambda = origin + offset, (4, k.size):
    the sums of z2_j / (d_j - lambda) over the poles j < k and j >= k, and of
    z2_j / (d_j - lambda)^2 over the same, in row blocks."""
    n = d.size
    out = np.empty((4, k.size))
    step = max(1, _BLOCK // n)
    # flat buffers with one spare zero, so that reduceat sums an empty
    # right-hand group at the end of a block's last row to 0
    buffers = np.empty((2, min(step, k.size) * n + 1))
    row = np.arange(k.size) % step * n
    groups = np.column_stack((row, row + k)).ravel()  # each root's two groups in its block
    for lo, hi in _blocks(k.size, n):
        size = (hi - lo) * n
        flat_t, flat_u = buffers[0, : size + 1], buffers[1, : size + 1]
        u = flat_u[:size].reshape(hi - lo, n)
        t = flat_t[:size].reshape(hi - lo, n)
        np.subtract(d, origin[lo:hi, None], out=u)
        u -= offset[lo:hi, None]  # d_j - lambda
        np.divide(z2, u, out=t)
        np.divide(t, u, out=u)
        flat_t[size] = flat_u[size] = 0.0
        # (reduceat gives the first element for the empty left group of root 0)
        out[:2, lo:hi] = np.add.reduceat(flat_t, groups[2 * lo : 2 * hi]).reshape(-1, 2).T
        out[2:, lo:hi] = np.add.reduceat(flat_u, groups[2 * lo : 2 * hi]).reshape(-1, 2).T
    out[[0, 2]] = np.where(k == 0, 0.0, out[[0, 2]])
    return out


def _secular_roots(a: float, z2: np.ndarray, d: np.ndarray):
    """Roots lambda_i = d[org_i] + tau_i of l - a + sum z2 / (d - l), and the
    largest iteration count."""
    n = d.size
    eps = np.finfo(float).eps
    nz = math.sqrt(z2.sum())
    org = np.minimum(np.arange(n + 1), n - 1)  # origin pole of each root
    lo, hi = np.zeros(n + 1), np.zeros(n + 1)  # brackets, shifted to the origin
    lo[0], hi[n] = min(a, d[0]) - nz - d[0], max(a, d[-1]) + nz - d[-1]
    sums = np.empty((4, n + 1))  # psi, phi, dpsi, dphi of each root at its first tau
    if n > 1:  # an interior root takes the pole on its side of f(mid) = 0
        mid = 0.5 * (d[:-1] + d[1:])
        sums[:, 1:n] = _pole_sums(z2, d, np.arange(1, n), mid, np.zeros(n - 1))
        left = (mid - a) + sums[0, 1:n] + sums[1, 1:n] >= 0.0
        org[1:n] -= left
        to_mid = mid - d[org[1:n]]
        lo[1:n] = np.where(left, 0.0, to_mid)
        hi[1:n] = np.where(left, to_mid, 0.0)
    tau = np.where(lo == 0.0, hi, lo)  # the bracket end where f's sign is known
    edges = np.array([0, n])  # the interior roots start from their f(mid) sums
    sums[:, edges] = _pole_sums(z2, d, edges, d[org[edges]], tau[edges])
    active = np.arange(n + 1)  # root i lies between poles i - 1 and i
    iters = 0
    while active.size:
        iters += 1
        if iters > _MAX_SWEEPS:
            raise NumericsError(f"secular equation: {active.size} root(s) unconverged")
        k = active
        do, ta = d[org[k]], tau[k]
        if iters > 1:
            sums = _pole_sums(z2, d, k, do, ta)
        psi, phi, dpsi, dphi = sums
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
