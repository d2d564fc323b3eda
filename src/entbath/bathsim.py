"""Exact symplectic evolution of two oscillators plus a discretized bath.

The full model is Gaussian and time-independent, so the flow exp(A t) is
evaluated in closed form from the normal modes of the quadratic Hamiltonian:
for position coupling from the mass-weighted stiffness matrix, for symmetric
(position-momentum) coupling from the single rotation matrix that generates
both quadrature channels.  Both are arrowheads (a diagonal bath plus the row
and column of x+), so the normal modes come from an O(N^2) secular solve
(``spectra.arrowhead_eigh``), not a dense eigendecomposition.  The thermal
bath term of the (+) covariance is integrated from its time derivative, which
needs only the system block of the flow and one bath-weighted vector per
normal mode, O(N) per time (the single-integral form of the noise kernel in
the exact master equation; Hu, Paz & Zhang, Phys. Rev. D 45, 2843 (1992)).
Dense propagator rows are formed at the first and last output time only: the
start of the integral and its check.  Temperature enters only through the
bath occupations and squeezing only through the initial state, so
consecutive runs of one model physics share the normal modes, and those on one
time grid the part of the thermal integral that the occupations do not
enter, until ``release_shared_solver`` (the CLI calls it when a command ends).
The states of one run differ only in their initial block and share its
thermal integral; they are assembled as one stack.

Internally the virtual ordering (x+, p+, x-, p-, q_1, pi_1, ...) is used: the
bath couples to the (+) mode only and the (-) mode rotates freely.  States
enter and leave in the site ordering (x1, p1, x2, p2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
    check_states,
    log_negativity,
    squeezed_cov,
    state_from_virtual_blocks,
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
    O(N^2).  Position coupling: the mass-weighted stiffness
    K = [[w+^2, z], [z, w_k^2]], z_k = c_k / sqrt(m m_k), has the squared
    normal frequencies as eigenvalues.  Symmetric coupling: in quadratures
    scaled by sqrt(m_i w_i) the Hamiltonian is (X^T G X + P^T G P)/2 with the
    one-excitation matrix G = [[w+, g], [g, w_k]], so the flow is the rotation
    generated by G acting identically on both quadrature channels.

    In the quadratures X = s x, P = p / s of ``scales`` each (x+, p+) entry of
    the flow sums, over the normal modes a, a fixed vector against cos(w_a t)
    or a sine kernel: sigma = sin(w_a t) / w_a and mu = w_a sin(w_a t) for
    position coupling, sigma = mu = sin(w_a t) for symmetric coupling.  A
    position-coupling normal mode at or below zero frequency is a regime error.

    T enters a model only through the bath occupations and r only through the
    initial state, so every point of a verify grid at one C12 shares one
    normal-mode solve and one ``_TimeGrid`` pass (``plus_blocks`` keeps the
    last grid), and the points at one (C12, T), evolved as one stack, one
    thermal integral.
    """

    def __init__(self, model: FullModel):
        bath = model.bath
        self.position = model.coupling_type == POSITION
        if self.position:
            self.arrowhead = (model.omega_plus_bare**2,
                              bath.position_couplings / np.sqrt(model.mass * bath.masses),
                              bath.frequencies**2)
            scales = np.concatenate(([model.mass], bath.masses))
        else:
            self.arrowhead = (model.omega_plus_bare, bath.ladder_couplings, bath.frequencies)
            scales = np.concatenate(([model.mass * model.omega0], bath.masses * bath.frequencies))
        self.scales = np.sqrt(scales)  # square roots of each coordinate's x-to-p scale
        self.freqs, self.modes, self.health = arrowhead_eigh(*self.arrowhead)
        self._grid = None  # _TimeGrid of the last times
        _, z, d = self.arrowhead
        # per mode, cos, sigma and mu as Re(kernel e^{i w t})
        ones = np.ones_like(self.freqs)
        if self.position:
            w2 = self.freqs
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
            self.kernels = np.array([ones, -1j * ones, -1j * ones])
            self.noise = z
            self.feeds_momentum = 1.0  # the bath also drives x+, through pi_k

    def _flow(self, phases, left, left_scale):
        """Blocks (xx, xp, px, pp) of the propagator rows ``left`` (of the
        modes) at the given phases: two products, the cosine and the sine rows."""
        o, s = self.modes, self.scales
        sine = np.sin(phases)
        if self.position:
            sine = sine / self.freqs
        crow = (np.cos(phases) * left) @ o.T
        srow = (sine * left) @ o.T
        mom = srow
        if self.position:  # p = -K sin(wt)/w x0, as K commutes with the flow; O(T n)
            a, z, d = self.arrowhead
            mom = srow * np.concatenate(([a], d))
            mom[..., 0] += srow[..., 1:] @ z
            mom[..., 1:] += srow[..., :1] * z
        sl = left_scale
        return crow * (s / sl), srow / (s * sl), mom * -(s * sl), crow * (sl / s)

    def rows(self, times: np.ndarray):
        """Propagator rows of (x+, p+) over the sector inputs, shape (T, n+1) each."""
        return self._flow(np.outer(times, self.freqs), self.modes[0], self.scales[0])

    def plus_blocks(self, bath: DiscretizedBath, times: np.ndarray):
        """a2 and Theta of ``_integrate``, each (T, 2, 2) and read-only, and the
        health of this call: ``thermal_grids`` is 1 when it made the grid part
        of the integral and 0 when it reused the last call's for the same times."""
        grid = self._grid
        if grid is None or grid.key != times.tobytes():
            self._grid = None  # free the last grid's phase block first
            grid = self._grid = _TimeGrid(self, times)
        fresh = grid.a2 is None
        theta, nodes, drift = self._integrate(grid, bath, times)
        _read_only(theta)
        return grid.a2, theta, {"thermal_grids": int(fresh), "thermal_nodes": nodes,
                                "thermal_drift": drift}

    def _integrate(self, grid: "_TimeGrid", bath: DiscretizedBath, times: np.ndarray):
        """Thermal covariance Theta of (x+, p+) at ``times``, (T, 2, 2);
        quadrature nodes used; relative drift of Theta from its direct value at
        the last time.  The first call on ``grid`` also keeps on it the system
        block a2 of the sector propagator, (T, 2, 2).

        Theta = B V_b B^T, B the bath columns of the (x+, p+) rows and V_b the
        thermal bath covariance.  As dS/dt = S A and the free bath keeps V_b,
        dTheta/dt = a2 K^T + K a2^T with K = B V_b A_sb^T, A_sb the generator
        block that feeds the bath into (x+, p+).  Scaled, with c, sigma, mu
        summed against u^2 and c', mu' against u y (u = modes[0],
        y_a = sum_k modes[k, a] (n_k + 1/2) noise_k, b = feeds_momentum):
        a2 = [[c, sigma], [-mu, c]] and K = [[b mu', -c'], [b c', mu']], as
        b = 1 only where sigma = mu.  Theta starts at the direct row
        contraction and is integrated by Gauss-Legendre on equal sub-intervals
        no longer than 1/w_max.  Only c' and mu' depend on the occupations: the
        first call on a grid sums all five columns in one product per chunk
        and keeps a2 and the c, sigma node values on it; a call at another
        temperature on the same grid sums only c' and mu'.
        """
        a2_ends, theta_ends = _row_blocks(grid.ends, bath)
        theta = np.empty((times.size, 2, 2))
        theta[0] = theta_ends[0]
        fresh = grid.a2 is None
        if not grid.steps:
            if fresh:
                grid.a2 = a2_ends[-1:]
                _read_only(grid.a2)
            return theta, 0, 0.0
        u = self.modes[0]
        y = ((bath.occupations + 0.5) * self.noise) @ self.modes[1:]
        coef = (u * y) * self.kernels[[0, 2]]
        if fresh:  # c, sigma, mu of u^2 in the same product
            coef = np.concatenate(((u * u) * self.kernels, coef))
        b = self.feeds_momentum
        starts, sums, gains = [], [], []
        for chunk, values in enumerate(grid.node_sums(coef)):
            if fresh:
                starts.append(values[:, :3, 0])
                sums.append(values[:, :2, 1:].copy())
            c, sigma = (sums if fresh else grid.sums)[chunk].transpose(1, 0, 2)
            c1, mu1 = values[:, -2:, 1:].transpose(1, 0, 2)
            # xx, xp and pp of a2 K^T + K a2^T at the nodes
            rates = np.stack((2.0 * (b * c * mu1 - sigma * c1), (1.0 - b) * (sigma * mu1 - c * c1),
                              2.0 * (c * mu1 - b * sigma * c1)), axis=1)
            gains.append(0.5 * grid.h * rates @ grid.weights)
        s0sq = self.scales[0] ** 2
        if fresh:
            c, sigma, mu = np.concatenate(starts)[grid.first].T
            a2 = np.empty((times.size, 2, 2))
            a2[:-1] = np.stack((c, sigma / s0sq, -mu * s0sq, c), axis=1).reshape(-1, 2, 2)
            a2[-1] = a2_ends[-1]
            grid.a2, grid.sums = a2, sums
            _read_only(a2, *sums)
        gain = np.cumsum(np.concatenate(gains), axis=0)[grid.first + grid.per - 1]
        theta[1:] = theta[0] + (gain[:, [0, 1, 1, 2]] * [1 / s0sq, 1, 1, s0sq]).reshape(-1, 2, 2)
        drift = float(np.abs(theta[-1] - theta_ends[-1]).max()
                      / max(1.0, np.abs(theta_ends[-1]).max()))
        if drift > _THERMAL_DRIFT_TOL:
            raise NumericsError(
                f"numerical instability: the integrated thermal bath term drifted by {drift:.3e} "
                f"from its direct value at t={times[-1]:.6g}; the normal modes do not give the flow"
            )
        return theta, grid.done * grid.weights.size, drift


class _TimeGrid:
    """The part of the thermal integral that the normal modes and the time grid
    fix, whatever the occupations: the propagator rows at the first and last
    time, the Gauss-Legendre sub-intervals and nodes, the (chunk x N) phase
    block, and, once the first integral on the grid has summed them, a2 and
    the c, sigma node values.  ``times`` is uniform to rounding
    (``_validate_times``).  Every array it keeps is read-only."""

    def __init__(self, solver: _PlusSector, times: np.ndarray):
        self.key = times.tobytes()
        self.ends = solver.rows(times[[0, -1]])
        self.a2, self.sums = None, None
        self.steps = times.size - 1
        if not self.steps:
            return
        step = (times[-1] - times[0]) / self.steps
        self.per = math.ceil(step * solver.freqs[-1])  # sub-intervals per step
        self.h, self.done = step / self.per, self.per * self.steps
        x, self.weights = np.polynomial.legendre.leggauss(_gauss_nodes(self.h * solver.freqs[-1]))
        offsets = np.r_[0.0, 0.5 * (x + 1.0)]  # the sub-interval's start, then its nodes
        self.turn = np.exp(1j * np.outer(solver.freqs, self.h * offsets))
        self.block = _phase_block(solver.freqs, self.h, min(_TIME_CHUNK, self.done))
        self.first = self.per * np.arange(self.steps)
        self.start, self.freqs = times[0], solver.freqs
        _read_only(*self.ends, self.weights, self.turn, self.block, self.first)

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


def _row_blocks(rows, bath: DiscretizedBath) -> tuple[np.ndarray, np.ndarray]:
    """a2 and the thermal covariance of (x+, p+), each (k, 2, 2), from the dense
    propagator rows at k times contracted with the thermal bath variances."""
    xx, xp, px, pp = rows
    occ, scale = bath.occupations + 0.5, bath.masses * bath.frequencies
    a2 = np.stack([xx[:, 0], xp[:, 0], px[:, 0], pp[:, 0]], axis=1).reshape(-1, 2, 2)
    bq, bp = np.stack((xx, px), axis=1)[:, :, 1:], np.stack((xp, pp), axis=1)[:, :, 1:]
    theta = (np.einsum("tik,k,tjk->tij", bq, occ / scale, bq)
             + np.einsum("tik,k,tjk->tij", bp, occ * scale, bp))
    theta[:, 1, 0] = theta[:, 0, 1]
    return a2, theta


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
    """[cos | sin](w j h) for j < size, (size, 2 n): the rows j = 2^k from exp,
    each other row a product of at most log2(size) of them."""
    block = np.empty((size, freqs.size), dtype=complex)
    block[0] = 1.0
    k = 1
    while k < size:
        block[k : 2 * k] = block[: min(k, size - k)] * np.exp(1j * (k * h) * freqs)
        k *= 2
    return np.concatenate((block.real, block.imag), axis=1)


def _physics_key(model: FullModel) -> tuple:
    """What the (+)-sector matrix is built from; the temperature is not part of it."""
    bath = model.bath
    return (
        model.coupling_type, model.mass, model.omega0, model.c12, bath.ladder_scale,
        bath.frequencies.tobytes(), bath.position_couplings.tobytes(), bath.masses.tobytes(),
    )


#: (physics key, solver) of the last model evolved, or None
_shared: tuple | None = None


def _plus_solver(model: FullModel) -> tuple[_PlusSector, float | None]:
    """The shared solver of ``model``'s physics, and the seconds its normal
    modes took in this call (None when shared); a new physics replaces the last."""
    global _shared
    key = _physics_key(model)
    if _shared is not None and _shared[0] == key:
        return _shared[1], None
    _shared = None  # free the old normal modes before the new solve
    start = time.perf_counter()
    solver = _PlusSector(model)
    _shared = (key, solver)
    return solver, time.perf_counter() - start


def release_shared_solver() -> None:
    """End the sharing of normal modes; one command is its scope."""
    global _shared
    _shared = None


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


def _validate_times(model: FullModel, times, override_horizon: bool) -> np.ndarray:
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
    if not override_horizon and times[-1] > model.validity_horizon * (1.0 + 1e-12):
        raise HorizonError(
            f"requested time {times[-1]:.6g} exceeds the validity horizon "
            f"{model.validity_horizon:.6g} (= recurrence time / 2); increase the "
            "number of bath modes or pass override_horizon=True"
        )
    return times


def evolve(
    model: FullModel,
    initial_system,
    times,
    override_horizon: bool = False,
) -> Trajectory:
    """Exact reduced dynamics of the two-oscillator system on a uniform grid.

    ``times`` is strictly increasing, with equal steps up to rounding, and
    ends inside the validity horizon unless ``override_horizon``.  The bath
    starts thermal and factorized from the system.  Output states are in the
    site ordering and validated for physicality in one stacked check; an
    unphysical sample raises NumericsError.

    ``initial_system`` is one GaussianState, or a list or tuple of P of them: as
    V(t) = S(t) V0 S(t)^T + Theta(t), they share the flow and Theta and are
    assembled as one (P, T, 4, 4) stack.  ``means`` and ``covs`` then hold the
    states whose every sample is physical, in order, with a leading state
    axis, and ``info["unphysical"]`` maps the index of each other state to its
    NumericsError.
    """
    times = _validate_times(model, times, override_horizon)
    bath = model.bath
    solver, solve_s = _plus_solver(model)
    start = time.perf_counter()

    single = not isinstance(initial_system, (list, tuple))
    states = [initial_system] if single else initial_system
    sbs = BEAM_SPLITTER
    v0 = sbs @ np.array([state.cov for state in states]) @ sbs.T
    m0 = sbs @ np.array([state.mean for state in states])[..., None]
    a2, theta, health = solver.plus_blocks(bath, times)
    flow = np.zeros((times.size, 4, 4))  # block-diagonal: the (+) and (-) sectors
    flow[:, :2, :2], flow[:, 2:, 2:] = a2, _minus_rotation(model, times)
    virtual_cov = flow @ v0[:, None] @ np.swapaxes(flow, 1, 2)
    virtual_cov[..., :2, :2] += theta
    virtual_cov[..., 2:, :2] = np.swapaxes(virtual_cov[..., :2, 2:], -1, -2)
    virtual_mean = flow @ m0[:, None]
    cov_site = sbs @ virtual_cov @ sbs.T
    cov_site = 0.5 * (cov_site + np.swapaxes(cov_site, -1, -2))
    means = (sbs @ virtual_mean)[..., 0]
    kept, unphysical = list(range(len(states))), {}
    while True:  # a failed state leaves the stack, and the rest are checked again
        try:
            covs, defects = check_states(means[kept], cov_site[kept])
            break
        except ValidationError as exc:
            state, sample = divmod(exc.index, times.size)
            unphysical[kept.pop(state)] = NumericsError(
                "numerical instability: reduced state unphysical at "
                f"t={times[sample]:.6g} ({exc})")
    if single and unphysical:
        raise unphysical[0]
    means = means[kept]
    _read_only(means, covs)
    info = {
        "bath_modes": bath.n_modes,
        "samples": times.size,
        "normal_mode_solves": int(solve_s is not None),
        "normal_modes_s": solve_s or 0.0,
        **solver.health,
        **health,
        "states_s": time.perf_counter() - start,
        "min_physicality_defect": float(defects.min()) if defects.size else None,
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
) -> tuple[Trajectory, np.ndarray]:
    """Trajectory plus the logarithmic negativity at every grid time (of each
    physical state, for a list of initial states as ``evolve`` takes it)."""
    traj = evolve(model, initial_system, times, override_horizon=override_horizon)
    start = time.perf_counter()
    energies = log_negativity(traj.covs)
    traj.info["entanglement_s"] = time.perf_counter() - start
    return traj, energies


# ---------------------------------------------------------------------------
# initial states


#: the initial states ``initial_state`` builds from (r, purity_product), as a
#: config file names them
STANDARD_STATE_KINDS = ("two-mode-squeezed", "squeezed-product", "coherent-product")


def initial_state(
    model: FullModel,
    kind: str,
    r: float = 0.0,
    purity_product: float = 0.5,
    mean: np.ndarray | None = None,
) -> GaussianState:
    """Standard initial system states, built in the model's own mode frames.

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
    state = state_from_virtual_blocks(plus, minus)
    if mean is not None:
        state = GaussianState(np.asarray(mean, dtype=float), state.cov)
    return state
