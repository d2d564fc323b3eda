"""Exact master-equation machinery for the symmetric (ladder) coupling.

The system amplitude a(t) = u(t) a(0) + sum_k p_k(t) b_k(0) solves a Volterra
equation whose memory kernel is the discrete-mode sum over the bath, so it is
the (N+1)-dimensional rotation exp(-i G t) of the one-excitation matrix G, an
arrowhead (``spectra.arrowhead_eigh``).  The coefficients of the exact master
equation need u and three bath sums: G_u = sum_k g_k p_k, H = sum_k (2 n_k + 1)
g_k p_k and Q = sum_k (2 n_k + 1) |p_k|^2.  The (+)-sector flow of ``evolve``
(``bathsim._PlusSector.thermal``) gives them all on the ladder arrowhead with
unit system scale: u from its system block, Q/2 and H/2 as its thermal
variance and sum c' - i mu' for the bath, G_u/2 and Q_0/2 (Q_0 = sum_k
|p_k|^2) for a zero-temperature twin.  Q is integrated from its rate, the
single-integral noise kernel (Hu, Paz & Zhang, Phys. Rev. D 45, 2843 (1992)),
so no eigenvector matrix and no (T x N) table of p_k is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .bathsim import _THERMAL_DRIFT_TOL, _PlusSector, _validate_times
from .errors import NumericsError, ValidationError
from .spectra import DiscretizedBath, NormalModes

_MAX_GRID_PRODUCT = 0.1  # largest cutoff * dt, as the config loader allows
_FLOOR_FACTOR = 3.0

UNITARITY_TOL = 1e-8
CONSTRAINT_TOL = 1e-8


def _validate_grid(bath: DiscretizedBath, times) -> np.ndarray:
    """``times`` as a uniform grid (``bathsim._validate_times``) from t = 0 of at
    least two times, fine enough for the cutoff; there is no horizon."""
    times = _validate_times(times)
    if times.size < 2:
        raise ValidationError("times must be a 1-D grid with at least two points")
    if times[0] != 0.0:
        raise ValidationError("amplitude grid must start at t = 0")
    dt = np.diff(times)
    cutoff = float(bath.frequencies[-1] + 0.5 * bath.spacing)
    if dt.max() * cutoff > _MAX_GRID_PRODUCT * (1.0 + 1e-9):
        raise ValidationError(
            f"grid too coarse: cutoff*dt = {dt.max() * cutoff:.3g} exceeds {_MAX_GRID_PRODUCT}"
        )
    return times


@dataclass
class AmplitudeSolution:
    """System amplitude and bath sums of the one-excitation sector on a grid.

    ``u`` is on the printed rotation branch (free limit u = e^{+i w t}), the
    complex conjugate of the standard branch exp(-i G t) of the sums
    ``force`` G_u, ``noise`` H, ``spread`` Q and ``spread_zero`` Q_0; |u| and
    all master-equation coefficients are the same on both.
    """

    times: np.ndarray
    omega: float
    bath: DiscretizedBath
    u: np.ndarray
    force: np.ndarray
    noise: np.ndarray
    spread: np.ndarray
    spread_zero: np.ndarray
    modes: NormalModes = field(repr=False)
    solve_health: dict = field(default_factory=dict)

    def unitarity_defect(self) -> np.ndarray:
        """|u|^2 + sum_k |p_k|^2 - 1 on the grid (zero for exact evolution),
        with sum_k |p_k|^2 the integrated Q_0."""
        return np.abs(self.u) ** 2 + self.spread_zero - 1.0

    def constraint_residual(self, t):
        """Max over k of |d_k + sum_n q_kn p_n^*| at time(s) t (commutator
        preservation), a float for one time.  U = exp(-i G t) = V e V^T enters
        through products with the normal modes only: U[0] = (V[0] e) V^T and
        U[1:] conj(U[0]) = V[1:] (e (V^T conj(U[0]))).  Neither forms U nor
        uses V V^T = I, which would make the check circular.
        """
        modes = self.modes
        phase = np.exp(-1j * np.outer(np.atleast_1d(np.asarray(t, dtype=float)), modes.values))
        first = modes.products(modes.first_row * phase)[0]
        u_std, p = first[:, 0], first[:, 1:]
        if np.any(np.abs(u_std) < 1e-12):
            raise NumericsError(f"|u({t})| too small to form d_k")
        back = modes.products(bath=p.conj().T)[1] + modes.first_row[:, None] * u_std.conj()
        row_sum = modes.products(phase * back.T)[0][:, 1:] - p * u_std.conj()[:, None]
        d = p / u_std[:, None]  # U[1:, 0] / u, as U is symmetric
        q_dot_p = row_sum - d * np.sum(np.abs(p) ** 2, axis=1, keepdims=True)
        residual = np.abs(d + q_dot_p).max(axis=1)
        return float(residual[0]) if np.ndim(t) == 0 else residual


def solve_amplitude(bath: DiscretizedBath, omega: float, times) -> AmplitudeSolution:
    """Exact amplitude and bath sums on a uniform grid from the (+)-sector flow
    of a level at ``omega`` coupled to ``bath`` and to its zero-temperature twin."""
    times = _validate_grid(bath, times)
    sector = _PlusSector(bath, omega, 1.0, position=False)
    zero = replace(bath, temperature=0.0)
    a2, theta, nodes, drift, feeds = sector.thermal([bath, zero], times)
    return AmplitudeSolution(
        times=times, omega=omega, bath=bath, u=a2[:, 0, 0] + 1j * a2[:, 0, 1],
        force=2.0 * feeds[1], noise=2.0 * feeds[0],
        spread=2.0 * theta[0, :, 0, 0], spread_zero=2.0 * theta[1, :, 0, 0],
        modes=sector.modes,
        solve_health={**sector.health, "thermal_nodes": nodes,
                      "thermal_drift": float(drift.max())},
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
    health: dict = field(default_factory=dict)

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

    gamma(t)       = (i/4) sum_k g_k (d_k - d_k^*)    = -(1/2) Im(G_u/u)
    delta_omega2/w^2 = (1/2) sum_k g_k (d_k + d_k^*)  = Re(G_u/u)
    D(t)/(m w)     = (i/4) sum_{k,l} g_k (q_kl^* p_l - q_kl p_l^*) (2 n_l + 1)
                   = (1/2) (Im(u H^*) - Im(G_u/u) Q), as Im((w - w_l) |p_l|^2) = 0,

    on the standard rotation branch (the printed-branch quantities are their
    conjugates, leaving gamma and D unchanged), d_k = p_k/u.  First come the
    checks whose worst values ``health`` records: unitarity at every sample,
    Q and Q_0 against their direct sums at the last time, and the commutator
    constraint at four times.
    """
    bath = sol.bath
    u = sol.u.conj()
    if np.any(np.abs(u) < 1e-300):
        raise NumericsError("system amplitude vanished; cannot form coefficients")
    defect = float(np.abs(sol.unitarity_defect()).max())
    if defect > UNITARITY_TOL:
        raise ValidationError(f"amplitude solution violates unitarity by {defect:.3e}")
    drift = sol.solve_health["thermal_drift"]
    if drift > _THERMAL_DRIFT_TOL:
        raise NumericsError(
            f"numerical instability: the integrated bath sums drifted by {drift:.3e} from "
            f"their direct values at t={sol.times[-1]:.6g}; the normal modes do not give the flow"
        )
    checked = sol.times[:: max(1, sol.times.size // 4)][1:]
    residuals = sol.constraint_residual(checked)
    for t, res in zip(checked, residuals):
        if res > CONSTRAINT_TOL:
            raise ValidationError(f"commutator constraint violated by {res:.3e} at t={t:.4g}")
    big_g = sol.force / u
    return CoefficientTrace(
        times=sol.times,
        gamma=-0.5 * np.imag(big_g),
        delta_omega2=sol.omega**2 * np.real(big_g),
        diffusion=0.5 * (np.imag(u * np.conj(sol.noise)) - np.imag(big_g) * sol.spread),
        omega=sol.omega,
        cutoff=float(bath.frequencies[-1] + 0.5 * bath.spacing),
        amplitude_mod=np.abs(u),
        health={"unitarity_defect": defect, "constraint_residual": float(residuals.max())},
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
