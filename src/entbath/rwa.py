"""Exact master-equation machinery for the symmetric (ladder) coupling.

The system amplitude a(t) = u(t) a(0) + sum_n p_n(t) b_n(0) solves a Volterra
equation whose memory kernel is the discrete-mode sum over the bath.  Because
the kernel is a finite sum of exponentials, the equation is equivalent to the
(N+1)-dimensional linear system generated by the real symmetric one-excitation
matrix, an arrowhead, and is propagated exactly through its eigendecomposition
(an O(N^2) secular solve, ``spectra.arrowhead_eigh``).

From (u, p_n) the time-dependent dissipation, frequency-shift and diffusion
coefficients of the exact master equation follow from closed sums; the dense
q_kn table is never materialized (the diffusion sum collapses to O(N)
accumulators per time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericsError, ValidationError
from .spectra import DiscretizedBath, arrowhead_eigh

_MAX_GRID_PRODUCT = 0.1  # largest cutoff * dt, as the config loader allows
_FLOOR_FACTOR = 3.0
_TIME_CHUNK = 2048

UNITARITY_TOL = 1e-8
CONSTRAINT_TOL = 1e-8


def _validate_grid(bath: DiscretizedBath, times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("times must be a 1-D grid with at least two points")
    if times[0] != 0.0:
        raise ValidationError("amplitude grid must start at t = 0")
    dt = np.diff(times)
    if np.any(dt <= 0.0):
        raise ValidationError("times must be strictly increasing")
    cutoff = float(bath.frequencies[-1] + 0.5 * bath.spacing)
    if dt.max() * cutoff > _MAX_GRID_PRODUCT * (1.0 + 1e-9):
        raise ValidationError(
            f"grid too coarse: cutoff*dt = {dt.max() * cutoff:.3g} exceeds {_MAX_GRID_PRODUCT}"
        )
    return times


@dataclass
class AmplitudeSolution:
    """System amplitude and bath-mode amplitudes of the one-excitation sector.

    ``u`` is on the printed rotation branch (free limit u = e^{+i w t}), the
    complex conjugate of the standard branch that the eigenbasis propagates;
    |u| and all master-equation coefficients are the same on both.
    """

    times: np.ndarray
    omega: float
    bath: DiscretizedBath
    _eigvals: np.ndarray = field(repr=False)
    _eigvecs: np.ndarray = field(repr=False)
    solve_health: dict = field(default_factory=dict)

    def _rows(self, modes: bool = True):
        """(slice, u, p) per chunk of the grid on the standard branch; p, the
        bath amplitudes p_n(t), is one (T x N)(N x N) product (None unless
        ``modes``)."""
        b0 = self._eigvecs * self._eigvecs[0]
        for lo in range(0, self.times.size, _TIME_CHUNK):
            ts = self.times[lo : lo + _TIME_CHUNK]
            phases = np.exp(-1j * np.outer(ts, self._eigvals))
            p = phases @ b0[1:].T if modes else None
            yield slice(lo, lo + ts.size), phases @ b0[0], p

    @cached_property
    def u(self) -> np.ndarray:
        """System amplitude on the grid, on the printed branch."""
        return np.concatenate([u for _, u, _ in self._rows(modes=False)]).conj()

    def unitarity_defect(self) -> np.ndarray:
        """|u|^2 + sum_n |p_n|^2 - 1 on the grid (zero for exact evolution)."""
        return np.concatenate([
            np.abs(u) ** 2 + np.sum(np.abs(p) ** 2, axis=1) - 1.0 for _, u, p in self._rows()
        ])

    def _propagator(self, t: float) -> np.ndarray:
        phases = np.exp(-1j * self._eigvals * t)
        return (self._eigvecs * phases) @ self._eigvecs.T

    def constraint_residual(self, t: float) -> float:
        """Max |d_k + sum_n q_kn p_n^*| at time t (commutator preservation).

        Evaluated directly from the propagator row sums, without using the
        orthogonality identity that would make the check circular.
        """
        uprop = self._propagator(t)
        u_std = complex(uprop[0, 0])
        if abs(u_std) < 1e-12:
            raise NumericsError(f"|u({t})| too small to form d_k")
        p = uprop[0, 1:]
        d = uprop[1:, 0] / u_std
        row_sum = uprop[1:, 1:] @ p.conj()  # sum_n U_kn p_n^*
        q_dot_p = row_sum - d * np.sum(np.abs(p) ** 2)
        return float(np.max(np.abs(d + q_dot_p)))


def solve_amplitude(bath: DiscretizedBath, omega: float, times) -> AmplitudeSolution:
    """Exact amplitude solution on the grid via the one-excitation eigenbasis."""
    times = _validate_grid(bath, times)
    modes = arrowhead_eigh(omega, bath.ladder_couplings, bath.frequencies)
    return AmplitudeSolution(
        times=times, omega=omega, bath=bath, _eigvals=modes.values, _eigvecs=modes.dense(),
        solve_health=modes.health,
    )


@dataclass
class CoefficientTrace:
    """Time-dependent master-equation coefficients of the (+) mode.

    ``diffusion`` stores D(t)/(m omega), which shares units with ``gamma``;
    ``delta_omega2`` is defined so that the dressed phase rate is
    omega + delta_omega2/omega^2.  ``amplitude_mod`` (|u(t)|) delimits the
    window where the extraction is meaningful: once |u| decays to the
    finite-bath fluctuation floor the coefficients blow up at the near-zeros
    of u, so everything past that plateau is discarded.
    """

    times: np.ndarray
    gamma: np.ndarray
    delta_omega2: np.ndarray
    diffusion: np.ndarray
    omega: float
    cutoff: float
    amplitude_mod: np.ndarray

    @cached_property
    def amplitude_floor(self) -> float:
        """Empirical late-time fluctuation floor of |u|; 0 when none is reached.

        The hazard is near-zeros of u, which only occur once |u| has decayed to
        the finite-bath fluctuation level.  There, log|u| stops being smooth:
        a noisy log-linear fit residual over the trailing grid segment marks
        the floor, whose level is the tail median.
        """
        mod = self.amplitude_mod
        n_tail = max(20, mod.size // 8)
        if mod.size < 2 * n_tail or float(mod.min()) >= 0.01:
            return 0.0
        t_tail = self.times[-n_tail:]
        log_tail = np.log(np.maximum(mod[-n_tail:], 1e-300))
        coeffs = np.polyfit(t_tail, log_tail, 1)
        resid = log_tail - np.polyval(coeffs, t_tail)
        if float(np.sqrt(np.mean(resid**2))) < 0.15:
            return 0.0  # tail still follows a clean exponential
        return float(np.median(mod[-n_tail:]))

    @property
    def valid_until_index(self) -> int:
        """Index one past the last grid point where |u| is safely above the floor."""
        floor = self.amplitude_floor
        if floor == 0.0:
            return self.times.size
        bad = np.nonzero(self.amplitude_mod < _FLOOR_FACTOR * floor)[0]
        return int(bad[0]) if bad.size else self.times.size

    @property
    def t_valid(self) -> float:
        return float(self.times[self.valid_until_index - 1])


def extract_coefficients(sol: AmplitudeSolution) -> CoefficientTrace:
    """Master-equation coefficient series from an amplitude solution.

    gamma(t)       = (i/4) sum_k g_k (d_k - d_k^*)
    delta_omega2/w^2 = (1/2) sum_k g_k (d_k + d_k^*)
    D(t)/(m w)     = (i/4) sum_{k,l} g_k (q_kl^* p_l - q_kl p_l^*) (2 n_l + 1)

    evaluated on the standard rotation branch (the printed-branch quantities are
    their conjugates, leaving gamma and D unchanged).  The double sum is
    contracted analytically to O(N) per time; as Im((w - w_l) |p_l|^2) = 0,
    its term in p_l is g_l Im(u p_l^*) (2 n_l + 1), one product of p with
    g (2n + 1).  The same pass over the rows checks unitarity
    (``AmplitudeSolution.unitarity_defect``).
    """
    bath = sol.bath
    g = bath.ladder_couplings
    two_n_plus_1 = 2.0 * bath.occupations + 1.0
    noise = g * two_n_plus_1
    omega = sol.omega

    n_t = sol.times.size
    gamma = np.empty(n_t)
    shift = np.empty(n_t)
    diff = np.empty(n_t)
    umod = np.empty(n_t)
    defect = 0.0
    for rows, u, p in sol._rows():
        if np.any(np.abs(u) < 1e-300):
            raise NumericsError("system amplitude vanished; cannot form coefficients")
        p_sq = np.abs(p) ** 2
        defect = max(defect, float(np.abs(np.abs(u) ** 2 + np.sum(p_sq, axis=1) - 1.0).max()))
        big_g = (p @ g) / u
        gamma[rows] = -0.5 * np.imag(big_g)
        shift[rows] = omega**2 * np.real(big_g)
        diff[rows] = 0.5 * (np.imag(u * np.conj(p @ noise)) - np.imag(big_g) * (p_sq @ two_n_plus_1))
        umod[rows] = np.abs(u)
    if defect > UNITARITY_TOL:
        raise ValidationError(f"amplitude solution violates unitarity by {defect:.3e}")
    for t in sol.times[:: max(1, sol.times.size // 4)][1:]:
        res = sol.constraint_residual(float(t))
        if res > CONSTRAINT_TOL:
            raise ValidationError(f"commutator constraint violated by {res:.3e} at t={t:.4g}")
    return CoefficientTrace(
        times=sol.times,
        gamma=gamma,
        delta_omega2=shift,
        diffusion=diff,
        omega=omega,
        cutoff=float(bath.frequencies[-1] + 0.5 * bath.spacing),
        amplitude_mod=umod,
    )


@dataclass(frozen=True)
class MomentEvolution:
    """First moment <a> and symmetrized occupation <a a^+ + a^+ a> in time."""

    times: np.ndarray
    mean_a: np.ndarray
    sym_occupation: np.ndarray


def evolve_moments_me(
    trace: CoefficientTrace,
    mean_a0: complex,
    sym_occupation0: float,
    times=None,
) -> MomentEvolution:
    """Integrate the master-equation moment ODEs with the extracted coefficients.

    d<a>/dt = (-2 gamma(t) + i Omega_R(t)) <a>,  Omega_R = omega + delta_omega2/omega^2
    d<s>/dt = -4 gamma(t) <s> + 4 D(t)/(m omega)

    Both equations are integrated with exact integrating factors and
    trapezoidal quadrature of the coefficient series.
    """
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.shape != trace.times.shape or not np.allclose(times, trace.times):
            raise ValidationError("moment grid must coincide with the coefficient grid")
    t = trace.times
    omega_r = trace.omega + trace.delta_omega2 / trace.omega**2

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
        return out

    gamma_int = cumtrapz(trace.gamma)
    phase_int = cumtrapz(omega_r)
    mean_a = mean_a0 * np.exp(-2.0 * gamma_int + 1j * phase_int)

    factor = np.exp(4.0 * gamma_int)
    drive = cumtrapz(4.0 * trace.diffusion * factor)
    sym = (sym_occupation0 + drive) / factor
    return MomentEvolution(times=t, mean_a=mean_a, sym_occupation=sym)
