"""Exact symplectic evolution of two oscillators plus a discretized bath.

The full model is Gaussian and time-independent, so the flow exp(A t) is
evaluated in closed form from the normal modes of the quadratic Hamiltonian:
for position coupling from the mass-weighted stiffness matrix, for symmetric
(position-momentum) coupling from the single rotation matrix that generates
both quadrature channels.  Both are arrowheads (a diagonal bath plus the row
and column of x+), so the normal modes come from an O(N^2) secular solve
(``spectra.arrowhead_eigh``), not a dense eigendecomposition, and are held in
O(N) memory: the eigenvectors are only contracted, a row block at a time.  The
thermal bath term of the (+) covariance is integrated from its time
derivative, which needs only the system block of the flow and one
bath-weighted vector per normal mode, O(N) per time (the single-integral form
of the noise kernel in the exact master equation; Hu, Paz & Zhang, Phys. Rev.
D 45, 2843 (1992)).  Propagator rows are formed at the first and last output
time only: the start of the integral and its check.  Temperature enters only
through the bath occupations and squeezing only through the initial state, so
one model gives the flows of several temperatures from one normal-mode solve
and one pass over their time grid (``plus_flows``), and its states are
assembled as one stack on each flow.

Internally the virtual ordering (x+, p+, x-, p-, q_1, pi_1, ...) is used: the
bath couples to the (+) mode only and the (-) mode rotates freely.  States
enter and leave in the site ordering (x1, p1, x2, p2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    HorizonError,
    NumericsError,
    ParameterRegimeError,
    ValidationError,
)
from .gaussian import (
    BEAM_SPLITTER,
    GaussianState,
    ModeSpec,
    check_each,
    check_states,
    log_negativity,
    relative_defect,
    site_cov,
    squeezed_cov,
)
from .spectra import DiscretizedBath, OhmicSpectralDensity, arrowhead_eigh, discretize

POSITION = "position"
SYMMETRIC = "symmetric"
_COUPLINGS = (POSITION, SYMMETRIC)

RENORMALIZED = "renormalized"
BARE = "bare"

_TIME_CHUNK = 256  # sub-intervals per phase block
_THERMAL_DRIFT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class FullModel:
    """Two resonant oscillators coupled to a common discretized Ohmic bath.

    ``omega0`` and ``c12`` are the bare Hamiltonian constants.  Use
    :meth:`renormalized` to build a model whose dressed (+) and (-) frequencies
    hit physical targets independent of the cutoff, or :meth:`bare` to take the
    Hamiltonian constants literally (the latter reproduces cutoff-dependent
    late-time oscillations).
    """

    mass: float
    omega0: float
    c12: float
    coupling_type: str
    bath: DiscretizedBath
    density: OhmicSpectralDensity
    renormalization: str
    omega_r_target: float | None = None
    c12_target: float | None = None

    def __post_init__(self):
        if self.coupling_type not in _COUPLINGS:
            raise ValidationError(f"coupling_type must be one of {_COUPLINGS}")
        if self.renormalization not in (RENORMALIZED, BARE):
            raise ValidationError("renormalization must be 'renormalized' or 'bare'")
        if not (self.mass > 0.0 and self.omega0 > 0.0):
            raise ValidationError("mass and omega0 must be positive")
        if self.coupling_type == SYMMETRIC:
            scale = self.bath.ladder_scale
            if scale is None or abs(scale - self.mass * self.omega0) > 1e-9 * scale:
                raise ValidationError(
                    "symmetric coupling requires the bath ladder scale to equal "
                    "mass * omega0 (momentum and position channels must balance)"
                )
        # validate the (-) frequency; it never feels the bath
        _ = self.minus_mode

    # -- constructors ------------------------------------------------------

    @classmethod
    def renormalized(
        cls,
        density: OhmicSpectralDensity,
        n_modes: int,
        temperature: float,
        omega_r: float,
        c12: float = 0.0,
        coupling_type: str = POSITION,
    ) -> "FullModel":
        """Model with physical (cutoff-independent) frequency targets.

        ``omega_r`` and ``c12`` are the renormalized frequency of the real
        oscillators and their renormalized coupling; the bare constants are
        chosen so that the dressed virtual frequencies come out at
        Omega+^2 = omega_r^2 + c12 and omega-^2 = omega_r^2 - c12 (position
        coupling) or their ladder analogues (symmetric coupling).
        """
        m = density.mass
        if coupling_type == POSITION:
            om_plus_sq = omega_r**2 + c12
            om_minus_sq = omega_r**2 - c12
            if om_plus_sq <= 0.0 or om_minus_sq <= 0.0:
                raise ParameterRegimeError(
                    "renormalized virtual frequencies must be positive: "
                    f"Omega+^2={om_plus_sq}, omega-^2={om_minus_sq}"
                )
            dos = density.delta_omega_sq
            omega0 = math.sqrt(omega_r**2 - dos / 2.0)
            c12_bare = c12 - dos / 2.0
        elif coupling_type == SYMMETRIC:
            om_plus_t = omega_r + c12 / omega_r
            om_minus_t = omega_r - c12 / omega_r
            if om_plus_t <= 0.0 or om_minus_t <= 0.0:
                raise ParameterRegimeError(
                    "renormalized virtual frequencies must be positive: "
                    f"Omega+={om_plus_t}, omega-={om_minus_t}"
                )
            omega0 = _symmetric_bare_frequency(density, om_plus_t, om_minus_t)
            om_plus_bare = om_plus_t - density.ladder_level_shift(om_plus_t, omega0)
            c12_bare = omega0 * (om_plus_bare - omega0)
        else:
            raise ValidationError(f"coupling_type must be one of {_COUPLINGS}")
        bath = discretize(density, n_modes, temperature, ladder_scale=m * omega0)
        return cls(
            mass=m,
            omega0=omega0,
            c12=c12_bare,
            coupling_type=coupling_type,
            bath=bath,
            density=density,
            renormalization=RENORMALIZED,
            omega_r_target=omega_r,
            c12_target=c12,
        )

    @classmethod
    def bare(
        cls,
        density: OhmicSpectralDensity,
        n_modes: int,
        temperature: float,
        omega0: float,
        c12: float = 0.0,
        coupling_type: str = POSITION,
    ) -> "FullModel":
        """Model with the Hamiltonian constants taken literally (no counterterm)."""
        m = density.mass
        bath = discretize(density, n_modes, temperature, ladder_scale=m * omega0)
        return cls(
            mass=m,
            omega0=omega0,
            c12=c12,
            coupling_type=coupling_type,
            bath=bath,
            density=density,
            renormalization=BARE,
        )

    # -- derived quantities -------------------------------------------------

    @property
    def omega_minus(self) -> float:
        if self.coupling_type == POSITION:
            w2 = self.omega0**2 - self.c12
            if w2 <= 0.0:
                raise ParameterRegimeError(f"omega_minus^2 = {w2} is not positive")
            return math.sqrt(w2)
        f = 1.0 - self.c12 / self.omega0**2
        if f <= 0.0:
            raise ParameterRegimeError("minus-mode frequency factor is not positive")
        return self.omega0 * f

    @property
    def minus_mode(self) -> ModeSpec:
        """Mass and frequency of the decoupled (-) virtual oscillator."""
        if self.coupling_type == POSITION:
            return ModeSpec(self.mass, self.omega_minus)
        # symmetric coupling rescales the (-) mass so that m- * omega- = m * omega0
        return ModeSpec(self.mass * self.omega0 / self.omega_minus, self.omega_minus)

    @property
    def omega_plus_bare(self) -> float:
        """Bare (undressed) frequency of the (+) oscillator."""
        if self.coupling_type == POSITION:
            w2 = self.omega0**2 + self.c12
            if w2 <= 0.0:
                raise ParameterRegimeError(f"bare omega_plus^2 = {w2} is not positive")
            return math.sqrt(w2)
        return self.omega0 + self.c12 / self.omega0

    @property
    def omega_plus_dressed(self) -> float | None:
        """Best available estimate of the dressed (+) frequency."""
        if self.renormalization == RENORMALIZED:
            if self.coupling_type == POSITION:
                return math.sqrt(self.omega_r_target**2 + self.c12_target)
            return self.omega_r_target + self.c12_target / self.omega_r_target
        if self.coupling_type == POSITION:
            w2 = self.omega0**2 + self.c12 + self.density.delta_omega_sq
            return math.sqrt(w2) if w2 > 0.0 else None
        return None

    @property
    def plus_state_mode(self) -> ModeSpec:
        """Reference mode used to build initial (+)-block covariances."""
        freq = self.omega_plus_dressed or self.omega_plus_bare
        if self.coupling_type == SYMMETRIC:
            # keep mass*frequency = m*omega0, the scale of the ladder operators
            return ModeSpec(self.mass * self.omega0 / freq, freq)
        return ModeSpec(self.mass, freq)

    @property
    def validity_horizon(self) -> float:
        """Half the recurrence time of the discretized bath."""
        return 0.5 * self.bath.recurrence_time


def _symmetric_bare_frequency(
    density: OhmicSpectralDensity, om_plus_t: float, om_minus_t: float
) -> float:
    """Bare omega0 of the symmetric model whose dressed frequencies hit the targets.

    The level shift Delta(Omega+) scales as 1/omega0 through the ladder
    couplings, so omega0 = (Omega+ - Delta(Omega+) + omega-)/2 is the quadratic
    omega0^2 - a omega0 + c = 0, with a the mean target and c = omega0 Delta/2.
    Its weak-coupling root (omega0 -> a as gamma0 -> 0) is (a + sqrt(a^2 - 4c))/2.
    """
    lam = density.cutoff
    if not 0.0 < om_plus_t < lam:
        raise ParameterRegimeError(f"dressed frequency {om_plus_t} outside the band (0, {lam})")
    a = 0.5 * (om_plus_t + om_minus_t)
    c = 0.5 * density.ladder_level_shift(om_plus_t, 1.0)
    if a * a < 4.0 * c:
        raise ParameterRegimeError("no bare frequency reproduces the requested targets")
    return 0.5 * (a + math.sqrt(a * a - 4.0 * c))


# ---------------------------------------------------------------------------
# sector solvers


class _PlusSector:
    """Normal modes of the (x+, bath) sector, and the (+)-mode blocks they give.

    Both couplings make the sector matrix an arrowhead (a diagonal bath plus
    the row and column of x+), which ``arrowhead_eigh`` diagonalizes in
    O(N^2) time and O(N) memory.  Position coupling: the mass-weighted
    stiffness K = [[w+^2, z], [z, w_k^2]], z_k = c_k / sqrt(m m_k), has the
    squared normal frequencies as eigenvalues.  Symmetric coupling: in
    quadratures scaled by sqrt(m_i w_i) the Hamiltonian is
    (X^T G X + P^T G P)/2 with the one-excitation matrix G = [[w+, g], [g, w_k]],
    so the flow is the rotation generated by G acting identically on both
    quadrature channels.

    In the quadratures X = s x, P = p / s of ``scales`` each (x+, p+) entry of
    the flow sums, over the normal modes a, a fixed vector against cos(w_a t)
    or a sine kernel: sigma = sin(w_a t) / w_a and mu = w_a sin(w_a t) for
    position coupling, sigma = mu = sin(w_a t) for symmetric coupling.  A
    position-coupling normal mode at or below zero frequency is a regime error.
    The eigenvectors are only ever contracted, a row block at a time
    (``NormalModes.products``): into the propagator rows at two times and the
    thermal vector of each temperature.
    """

    def __init__(self, bath: DiscretizedBath, omega: float, scale: float, position: bool):
        """The sector of an x+ of bare frequency ``omega`` and x-to-p scale
        ``scale`` (m for position coupling, m omega0 for symmetric) on ``bath``."""
        self.position = position
        if position:
            self.arrowhead = (omega**2, bath.position_couplings / np.sqrt(scale * bath.masses),
                              bath.frequencies**2)
            scales = np.concatenate(([scale], bath.masses))
        else:
            self.arrowhead = (omega, bath.ladder_couplings, bath.frequencies)
            scales = np.concatenate(([scale], bath.masses * bath.frequencies))
        self.scales = np.sqrt(scales)  # square roots of each coordinate's x-to-p scale
        self.modes = arrowhead_eigh(*self.arrowhead)
        self.health = self.modes.health
        _, z, d = self.arrowhead
        # per mode, cos, sigma and mu as Re(kernel e^{i w t})
        ones = np.ones_like(self.modes.values)
        if self.position:
            w2 = self.modes.values
            if not w2[0] > 0.0:
                raise ParameterRegimeError(
                    "dressed (+) sector is unstable (normal frequency squared "
                    f"{w2[0]:.3e}); the bath shift reaches the bare stiffness"
                )
            self.freqs = np.sqrt(w2)
            inverse = 1.0 / self.freqs
            self.kernels = np.array([ones, -1j * inverse, -1j * w2 * inverse])
            self.noise = z / np.sqrt(d)  # s_k c_k var(q_k) / (s_0 (n_k + 1/2))
            self.feeds_momentum = 0.0
        else:
            self.freqs = self.modes.values
            self.kernels = np.array([ones, -1j * ones, -1j * ones])
            self.noise = z
            self.feeds_momentum = 1.0  # the bath also drives x+, through pi_k

    @classmethod
    def of(cls, model: FullModel) -> "_PlusSector":
        position = model.coupling_type == POSITION
        scale = model.mass if position else model.mass * model.omega0
        return cls(model.bath, model.omega_plus_bare, scale, position)

    def sine(self, phases: np.ndarray) -> np.ndarray:
        """The sine kernel sigma of each mode at the given phases."""
        return np.sin(phases) / self.freqs if self.position else np.sin(phases)

    def flow(self, crow, srow, left_scale):
        """Blocks (xx, xp, px, pp) of the propagator rows whose cosine and sine
        sums over the modes are ``crow`` and ``srow``."""
        s = self.scales
        mom = srow
        if self.position:  # p = -K sin(wt)/w x0, as K commutes with the flow; O(T n)
            a, z, d = self.arrowhead
            mom = srow * np.concatenate(([a], d))
            mom[..., 0] += srow[..., 1:] @ z
            mom[..., 1:] += srow[..., :1] * z
        sl = left_scale
        return crow * (s / sl), srow / (s * sl), mom * -(s * sl), crow * (sl / s)

    def rows(self, times: np.ndarray, bath: np.ndarray | None = None):
        """Propagator rows of (x+, p+) over the sector inputs at ``times``,
        (T, n+1) each, and ``bath`` (N, p) summed against the bath entries of
        each normal mode, (n+1, p): one pass over the eigenvectors."""
        phases = np.outer(times, self.freqs)
        u = self.modes.first_row
        left = np.concatenate((np.cos(phases) * u, self.sine(phases) * u))
        rows, weights = self.modes.products(left, bath)
        return self.flow(*np.split(rows, 2), self.scales[0]), weights

    def thermal(self, baths: list, times: np.ndarray):
        """The system block a2 of the sector propagator at ``times``, (T, 2, 2);
        the thermal covariance Theta of (x+, p+) of each bath, (B, T, 2, 2);
        the quadrature nodes each Theta took; the relative drift of each from
        its direct value at the last time, (B,); and the sums c' - i mu' of
        each bath at ``times``, (B, T) complex.

        Theta = B V_b B^T, B the bath columns of the (x+, p+) rows and V_b the
        thermal bath covariance.  As dS/dt = S A and the free bath keeps V_b,
        dTheta/dt = a2 K^T + K a2^T with K = B V_b A_sb^T, A_sb the generator
        block that feeds the bath into (x+, p+).  Scaled, with c, sigma, mu
        summed against u^2 and c', mu' against u y (u the first row of the
        eigenvectors V, y_a = sum_k V[k, a] (n_k + 1/2) noise_k, b = feeds_momentum):
        a2 = [[c, sigma], [-mu, c]] and K = [[b mu', -c'], [b c', mu']], as
        b = 1 only where sigma = mu.  Theta starts at the direct row
        contraction and is integrated by Gauss-Legendre on equal sub-intervals
        no longer than 1/w_max.  Only c' and mu' depend on the occupations, so
        one pass over the eigenvectors gives the rows at the two end times and
        every bath's y, and one product per time chunk sums c, sigma, mu and
        every bath's c', mu'.  At t = 0 the flow is the identity and Theta 0,
        exactly, and so are c' - i mu' = sum_k (n_k + 1/2) g_k p_k for symmetric
        coupling, p_k = (exp(-i G t))[0, k].
        """
        scaled = np.stack([(bath.occupations + 0.5) * self.noise for bath in baths], axis=1)
        rows, y = self.rows(times[[0, -1]], scaled)
        a2 = np.empty((times.size, 2, 2))
        a2[-1] = [[rows[0][-1, 0], rows[1][-1, 0]], [rows[2][-1, 0], rows[3][-1, 0]]]
        ends = np.stack([_row_theta(rows, bath) for bath in baths])
        theta = np.empty((len(baths), times.size, 2, 2))
        theta[:, 0] = 0.0 if times[0] == 0.0 else ends[:, 0]
        u = self.modes.first_row
        feeds = np.empty((len(baths), times.size), dtype=complex)
        end = (u * y.T) @ (self.kernels[[0, 2]] * np.exp(1j * self.freqs * times[-1])).T
        feeds[:, -1] = end[:, 0].real - 1j * end[:, 1].real
        nodes, drift = 0, np.zeros(len(baths))
        if times.size > 1:
            grid = _TimeGrid(self.freqs, times)
            coef = np.concatenate(((u * u) * self.kernels,
                                   ((u * y.T)[:, None] * self.kernels[[0, 2]]).reshape(-1, u.size)))
            b = self.feeds_momentum
            starts, gains = [], []
            for values in grid.node_sums(coef):
                starts.append(values[:, :, 0])
                c, sigma = values[:, :2, None, 1:].transpose(1, 0, 2, 3)
                c1, mu1 = values[:, 3::2, 1:], values[:, 4::2, 1:]
                # xx, xp and pp of a2 K^T + K a2^T at the nodes, per bath
                rates = np.stack((2.0 * (b * c * mu1 - sigma * c1),
                                  (1.0 - b) * (sigma * mu1 - c * c1),
                                  2.0 * (c * mu1 - b * sigma * c1)), axis=2)
                gains.append(0.5 * grid.h * rates @ grid.weights)
            s0sq = self.scales[0] ** 2
            first = np.concatenate(starts)[grid.first]
            c, sigma, mu = first[:, :3].T
            feeds[:, :-1] = (first[:, 3::2] - 1j * first[:, 4::2]).T
            a2[:-1] = np.stack((c, sigma / s0sq, -mu * s0sq, c), axis=1).reshape(-1, 2, 2)
            gain = np.cumsum(np.concatenate(gains), axis=0)[grid.first + grid.per - 1]
            gain = (gain[..., [0, 1, 1, 2]] * [1 / s0sq, 1, 1, s0sq]).reshape(-1, len(baths), 2, 2)
            theta[:, 1:] = theta[:, :1] + gain.transpose(1, 0, 2, 3)
            drift = (np.abs(theta[:, -1] - ends[:, -1]).max(axis=(1, 2))
                     / np.maximum(1.0, np.abs(ends[:, -1]).max(axis=(1, 2))))
            nodes = grid.done * grid.weights.size
        if times[0] == 0.0:
            a2[0], feeds[:, 0] = np.eye(2), 0.0
        _read_only(a2, theta, feeds)
        return a2, theta, nodes, drift, feeds


class _TimeGrid:
    """The Gauss-Legendre sub-intervals and nodes of a grid of at least two
    times and its (chunk x N) phase block.  ``times`` is uniform to rounding
    (``_validate_times``).  Every array it keeps is read-only."""

    def __init__(self, freqs: np.ndarray, times: np.ndarray):
        steps = times.size - 1
        step = (times[-1] - times[0]) / steps
        self.per = math.ceil(step * freqs[-1])  # sub-intervals per step
        self.h, self.done = step / self.per, self.per * steps
        x, self.weights = np.polynomial.legendre.leggauss(_gauss_nodes(self.h * freqs[-1]))
        offsets = np.r_[0.0, 0.5 * (x + 1.0)]  # the sub-interval's start, then its nodes
        self.turn = np.exp(1j * np.outer(freqs, self.h * offsets))
        self.block = _phase_block(freqs, self.h, min(_TIME_CHUNK, self.done))
        self.first = self.per * np.arange(steps)
        self.start, self.freqs = times[0], freqs
        _read_only(self.weights, self.turn, self.block, self.first)

    def node_sums(self, coef: np.ndarray):
        """Each row of ``coef`` (k, N) summed against the mode phases at each
        sub-interval's start and nodes, one (chunk, k, 1 + nodes) array per
        chunk: a thin product with the phase block, so O(N) per node."""
        base = (coef.T[:, :, None] * self.turn[:, None]).reshape(self.freqs.size, -1)
        for lo in range(0, self.done, _TIME_CHUNK):
            rhs = base * np.exp(1j * (self.start + lo * self.h) * self.freqs)[:, None]
            values = self.block[: self.done - lo] @ np.concatenate((rhs.real, -rhs.imag))
            yield values.reshape(-1, coef.shape[0], self.turn.shape[1])


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _row_theta(rows, bath: DiscretizedBath) -> np.ndarray:
    """The thermal covariance of (x+, p+), (k, 2, 2), from the propagator rows
    at k times contracted with the thermal bath variances."""
    xx, xp, px, pp = rows
    occ, scale = bath.occupations + 0.5, bath.masses * bath.frequencies
    bq, bp = np.stack((xx, px), axis=1)[:, :, 1:], np.stack((xp, pp), axis=1)[:, :, 1:]
    theta = (np.einsum("tik,k,tjk->tij", bq, occ / scale, bq)
             + np.einsum("tik,k,tjk->tij", bp, occ * scale, bp))
    theta[:, 1, 0] = theta[:, 0, 1]
    return theta


def _gauss_nodes(h_omega: float) -> int:
    """Fewest Gauss-Legendre nodes whose remainder for frequencies up to 2 w_max
    over a sub-interval h, (2 h w_max)^2n (n!)^4 / ((2n+1) ((2n)!)^3), is below
    double precision: 8 at h w_max = 1."""
    n = 1
    while (2.0 * h_omega) ** (2 * n) * math.factorial(n) ** 4 > (
            _EPS * (2 * n + 1) * math.factorial(2 * n) ** 3):
        n += 1
    return n


def _phase_block(freqs: np.ndarray, h: float, size: int) -> np.ndarray:
    """[cos | sin](w j h) for j < size, (size, 2 n): the rows j = 2^k from the
    angles, each other row a rotation by at most log2(size) of them, formed in
    place so that no temporary exceeds half the block's rows."""
    n = freqs.size
    block = np.empty((size, 2 * n))
    cos, sin = block[:, :n], block[:, n:]
    cos[0], sin[0] = 1.0, 0.0
    k = 1
    while k < size:
        m = min(k, size - k)
        angle = (k * h) * freqs
        ck, sk = np.cos(angle), np.sin(angle)
        np.multiply(cos[:m], ck, out=cos[k : k + m])
        cos[k : k + m] -= sin[:m] * sk
        np.multiply(sin[:m], ck, out=sin[k : k + m])
        sin[k : k + m] += cos[:m] * sk
        k *= 2
    return block


def _minus_rotation(model: FullModel, times: np.ndarray) -> np.ndarray:
    mode = model.minus_mode
    w = mode.frequency
    s = mode.xp_scale
    c = np.cos(w * times)
    sn = np.sin(w * times)
    out = np.empty((times.size, 2, 2))
    out[:, 0, 0] = c
    out[:, 0, 1] = sn / s
    out[:, 1, 0] = -s * sn
    out[:, 1, 1] = c
    return out


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Reduced system states on a time grid (site ordering), as stacked arrays.

    ``means`` is (T, 4) and ``covs`` (T, 4, 4), with a leading state axis when
    ``evolve`` ran a list of states; both are validated and read-only.
    ``info`` records the sizes, timings and the worst relative physicality
    defect of the run that made it.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    validity_horizon: float
    info: dict = field(default_factory=dict)

    @cached_property
    def states(self) -> tuple:
        """The samples of one state's trajectory as GaussianStates, built on
        first access."""
        return tuple(GaussianState(m, c) for m, c in zip(self.means, self.covs))


def _validate_times(times, horizon: float = math.inf) -> np.ndarray:
    """``times`` as floats: a 1-D grid of finite, non-negative, strictly
    increasing times with equal steps up to rounding (as ``_TimeGrid`` takes
    it), whose last time is inside ``horizon``."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-D grid")
    if np.any(~np.isfinite(times)) or np.any(times < 0.0):
        raise ValidationError("times must be finite and non-negative")
    if np.any(np.diff(times) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    step = (times[-1] - times[0]) / max(times.size - 1, 1)
    if np.abs(times - times[0] - step * np.arange(times.size)).max() > 8 * _EPS * times[-1]:
        raise ValidationError("times must be a uniform grid (equal steps up to rounding)")
    if times[-1] > horizon * (1.0 + 1e-12):
        raise HorizonError(
            f"requested time {times[-1]:.6g} exceeds the validity horizon "
            f"{horizon:.6g} (= recurrence time / 2); increase the "
            "number of bath modes or pass override_horizon=True"
        )
    return times


@dataclass(frozen=True, eq=False)
class PlusFlow:
    """The (+)-sector part of V(t) = S(t) V0 S(t)^T + Theta(t) of one model at
    one temperature on one time grid: the system block ``a2`` of the flow and
    the thermal covariance ``theta`` of (x+, p+), each (T, 2, 2) and
    read-only, and the ``thermal_nodes`` and ``thermal_drift`` of the integral
    that gave ``theta``."""

    a2: np.ndarray
    theta: np.ndarray
    info: dict


def plus_flows(model: FullModel, temperatures, times,
               override_horizon: bool = False) -> tuple[list[PlusFlow], dict]:
    """The PlusFlow of ``model`` at each temperature on ``times``, from one
    normal-mode solve and one thermal product, and the health of that solve
    (``secular_*``) with the wall times of the solve (``normal_modes_s``) and
    of the thermal product (``thermal_s``).  Temperature enters only through
    the bath occupations, so each flow takes ``model.bath`` at its
    temperature; the flows share ``a2``."""
    times = _validate_times(times, math.inf if override_horizon else model.validity_horizon)
    start = time.perf_counter()
    solver = _PlusSector.of(model)
    solve_s = time.perf_counter() - start
    baths = [replace(model.bath, temperature=t) for t in temperatures]
    start = time.perf_counter()
    a2, thetas, nodes, drifts, _ = solver.thermal(baths, times)
    thermal_s = time.perf_counter() - start
    flows = [PlusFlow(a2, theta, {"thermal_nodes": nodes, "thermal_drift": float(drift)})
             for theta, drift in zip(thetas, drifts)]
    return flows, {**solver.health, "normal_modes_s": solve_s, "thermal_s": thermal_s}


def check_thermal_drift(drift: float, t: float, what: str = "thermal bath term",
                        whose: str = "its direct value") -> None:
    """Raise NumericsError when an integrated thermal term drifted by more than
    ``_THERMAL_DRIFT_TOL`` from ``whose`` at the last time ``t``."""
    if drift > _THERMAL_DRIFT_TOL:
        raise NumericsError(
            f"numerical instability: the integrated {what} drifted by {drift:.3e} "
            f"from {whose} at t={t:.6g}; the normal modes do not give the flow"
        )


def evolve(
    model: FullModel,
    initial_system,
    times,
    override_horizon: bool = False,
    flow: PlusFlow | None = None,
) -> Trajectory:
    """Exact reduced dynamics of the two-oscillator system on a uniform grid.

    ``times`` is strictly increasing, with equal steps up to rounding, and
    ends inside the validity horizon unless ``override_horizon``.  The bath
    starts thermal and factorized from the system.  Output states are in the
    site ordering and validated for physicality in one stacked check; an
    unphysical sample raises NumericsError, and so does a thermal integral
    that drifted from its direct value at the last time.

    ``initial_system`` is one GaussianState, a list or tuple of P of them, or a
    (P, 4, 4) array of zero-mean site covariances that ``check_states`` passed:
    as V(t) = S(t) V0 S(t)^T + Theta(t), they share the flow and Theta and are
    assembled as one (P, T, 4, 4) stack.  ``means`` and ``covs`` then hold the
    states whose every sample is physical, in order, with a leading state
    axis, and ``info["unphysical"]`` maps the index of each other state to its
    NumericsError.  ``flow`` is the model's PlusFlow on ``times`` at the
    temperature to simulate, one of several that ``plus_flows`` gives from one
    solve; ``info`` then counts no solve.  By default ``evolve`` makes its own
    at the bath's temperature.
    """
    times = _validate_times(times, math.inf if override_horizon else model.validity_horizon)
    solve = {"normal_mode_solves": 0, "thermal_grids": 0}
    if flow is None:
        (flow,), health = plus_flows(model, [model.bath.temperature], times, override_horizon)
        solve = {**health, "normal_mode_solves": 1, "thermal_grids": 1}
    check_thermal_drift(flow.info["thermal_drift"], times[-1])
    start = time.perf_counter()
    single = not isinstance(initial_system, (list, tuple, np.ndarray))
    if isinstance(initial_system, np.ndarray):
        covs0, means0 = initial_system, np.zeros((len(initial_system), 4))
    else:
        states = [initial_system] if single else initial_system
        covs0 = np.array([state.cov for state in states])
        means0 = np.array([state.mean for state in states])
    sbs = BEAM_SPLITTER
    v0 = sbs @ covs0 @ sbs.T
    m0 = sbs @ means0[..., None]
    flow_4 = np.zeros((times.size, 4, 4))  # block-diagonal: the (+) and (-) sectors
    flow_4[:, :2, :2], flow_4[:, 2:, 2:] = flow.a2, _minus_rotation(model, times)
    virtual_cov = flow_4 @ v0[:, None] @ np.swapaxes(flow_4, 1, 2)
    virtual_cov[..., :2, :2] += flow.theta
    virtual_cov[..., 2:, :2] = np.swapaxes(virtual_cov[..., :2, 2:], -1, -2)
    virtual_mean = flow_4 @ m0[:, None]
    cov_site = sbs @ virtual_cov @ sbs.T
    cov_site = 0.5 * (cov_site + np.swapaxes(cov_site, -1, -2))
    means = (sbs @ virtual_mean)[..., 0]
    covs, tightest, failed = check_each(means, cov_site, check_states)
    unphysical = {state: NumericsError("numerical instability: reduced state unphysical at "
                                       f"t={times[exc.index % times.size]:.6g} ({exc})")
                  for state, exc in failed.items()}
    if single and unphysical:
        raise unphysical[0]
    means = np.delete(means, list(unphysical), axis=0)
    _read_only(means, covs)
    info = {
        "bath_modes": model.bath.n_modes,
        "samples": times.size,
        **solve,
        **flow.info,
        "states_s": time.perf_counter() - start,
        # of the state with the smallest pivot of the check, not a minimum over all
        "min_physicality_defect": (None if tightest is None
                                   else relative_defect(covs.reshape(-1, 4, 4)[tightest])),
        "unphysical": unphysical,
    }
    if single:
        means, covs = means[0], covs[0]
    return Trajectory(times=times, means=means, covs=covs,
                      validity_horizon=model.validity_horizon, info=info)


def entanglement_trajectory(
    model: FullModel,
    initial_system,
    times,
    override_horizon: bool = False,
    flow: PlusFlow | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Trajectory plus the logarithmic negativity at every grid time (of each
    physical state, for a list of initial states as ``evolve`` takes it)."""
    traj = evolve(model, initial_system, times, override_horizon=override_horizon, flow=flow)
    start = time.perf_counter()
    energies = log_negativity(traj.covs)
    traj.info["entanglement_s"] = time.perf_counter() - start
    return traj, energies


# ---------------------------------------------------------------------------
# initial states


#: the initial states ``initial_state`` builds from (r, purity_product), as a
#: config file names them
STANDARD_STATE_KINDS = ("two-mode-squeezed", "squeezed-product", "coherent-product")


def initial_covariance(
    model: FullModel,
    kind: str,
    r: float = 0.0,
    purity_product: float = 0.5,
) -> np.ndarray:
    """Site covariance of a standard initial state, unchecked: ``initial_state``
    checks one, ``verify`` the states of a (C12, T) group as one stack.

    The (-) virtual block is a squeezed (optionally mixed) state with squeezing
    factor ``r`` measured against the (-) mode's m*omega, so the classifier's
    squeezing parameter equals ``r`` exactly; ``purity_product`` is the area
    dx- * dp- (1/2 for pure states).
    """
    if kind not in STANDARD_STATE_KINDS:
        raise ValidationError(f"unknown initial state kind {kind!r}")
    minus = squeezed_cov(r, model.minus_mode, area_product=purity_product)
    if kind == "two-mode-squeezed":
        plus = squeezed_cov(-r, model.plus_state_mode)
    elif kind == "squeezed-product":
        plus = squeezed_cov(r, model.plus_state_mode)
    else:  # coherent-product
        plus = squeezed_cov(0.0, model.plus_state_mode)
        minus = squeezed_cov(0.0, model.minus_mode, area_product=purity_product)
    return site_cov(plus, minus)


def initial_state(
    model: FullModel,
    kind: str,
    r: float = 0.0,
    purity_product: float = 0.5,
    mean: np.ndarray | None = None,
) -> GaussianState:
    """Standard initial system state, built in the model's own mode frames
    (``initial_covariance``), zero-mean unless ``mean`` is given."""
    mean = np.zeros(4) if mean is None else np.asarray(mean, dtype=float)
    return GaussianState(mean, initial_covariance(model, kind, r, purity_product))
