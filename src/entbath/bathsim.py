"""Exact symplectic evolution of two oscillators plus a discretized bath.

The full model is Gaussian and time-independent, so the flow exp(A t) is
evaluated in closed form from the normal modes of the quadratic Hamiltonian:
for position coupling from the mass-weighted stiffness matrix, for symmetric
(position-momentum) coupling from the single rotation matrix that generates
both quadrature channels.  Only the rows of the propagator that land on the
system are ever materialized, so the cost per output time is linear in the
number of bath modes after one dense eigendecomposition.

Internally the virtual ordering (x+, p+, x-, p-, q_1, pi_1, ...) is used: the
bath couples to the (+) mode only and the (-) mode rotates freely.  States
enter and leave in the site ordering (x1, p1, x2, p2).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

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
    log_negativity,
    squeezed_cov,
    state_from_virtual_blocks,
    symplectic_form,
)
from .rwa import _one_excitation_matrix
from .spectra import DiscretizedBath, OhmicSpectralDensity, discretize

POSITION = "position"
SYMMETRIC = "symmetric"
_COUPLINGS = (POSITION, SYMMETRIC)

RENORMALIZED = "renormalized"
BARE = "bare"

_TIME_CHUNK = 512


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
# quadratic form and generator


def hamiltonian_matrix(model: FullModel, basis: str = "virtual") -> np.ndarray:
    """Symmetric quadratic form H of the full system+bath Hamiltonian.

    Phase-space ordering: (x+, p+, x-, p-, q_1, pi_1, ..., q_N, pi_N) for
    ``basis='virtual'``; ``basis='site'`` rotates the system block to
    (x1, p1, x2, p2).
    """
    bath = model.bath
    n = bath.n_modes
    dim = 2 * (n + 2)
    h = np.zeros((dim, dim))
    m = model.mass
    om0sq = model.omega0**2
    ck = bath.position_couplings
    wk = bath.frequencies
    mk = bath.masses

    if model.coupling_type == POSITION:
        h[0, 0] = m * (om0sq + model.c12)
        h[1, 1] = 1.0 / m
        h[2, 2] = m * (om0sq - model.c12)
        h[3, 3] = 1.0 / m
    else:
        f_plus = 1.0 + model.c12 / om0sq
        f_minus = 1.0 - model.c12 / om0sq
        h[0, 0] = m * om0sq * f_plus
        h[1, 1] = f_plus / m
        h[2, 2] = m * om0sq * f_minus
        h[3, 3] = f_minus / m

    qi = 4 + 2 * np.arange(n)
    pi_ = qi + 1
    h[qi, qi] = mk * wk**2
    h[pi_, pi_] = 1.0 / mk
    h[0, qi] = ck
    h[qi, 0] = ck
    if model.coupling_type == SYMMETRIC:
        gp = ck / (m * model.omega0 * mk * wk)
        h[1, pi_] = gp
        h[pi_, 1] = gp

    if basis == "site":
        t = np.eye(dim)
        t[:4, :4] = BEAM_SPLITTER
        h = t.T @ h @ t
    elif basis != "virtual":
        raise ValidationError("basis must be 'virtual' or 'site'")
    return h


def build_generator(model: FullModel, basis: str = "virtual") -> np.ndarray:
    """Drift matrix A = J H of the full Gaussian model, d<r>/dt = A <r>."""
    h = hamiltonian_matrix(model, basis=basis)
    return symplectic_form(model.bath.n_modes + 2) @ h


# ---------------------------------------------------------------------------
# sector solvers


class _PlusSectorPosition:
    """Normal modes of the (x+, bath) sector for position coupling."""

    def __init__(self, model: FullModel):
        bath = model.bath
        n = bath.n_modes
        k = np.zeros((n + 1, n + 1))
        k[0, 0] = model.mass * model.omega_plus_bare**2
        k[0, 1:] = bath.position_couplings
        k[1:, 0] = bath.position_couplings
        idx = np.arange(1, n + 1)
        k[idx, idx] = bath.masses * bath.frequencies**2
        mu = np.concatenate(([model.mass], bath.masses))
        smu = np.sqrt(mu)
        w2, modes = np.linalg.eigh(k / smu[:, None] / smu[None, :])
        scale = max(1.0, float(np.abs(w2).max()))
        if w2.min() < -1e-12 * scale:
            raise ParameterRegimeError(
                "dressed (+) sector is unstable (negative normal frequency "
                f"{w2.min():.3e}); the bath shift exceeds the bare stiffness"
            )
        self.freqs = np.sqrt(np.clip(w2, 0.0, None))
        self.modes = modes
        self.smu = smu

    def rows(self, times: np.ndarray):
        """Propagator rows of (x+, p+) over the sector inputs, shape (T, n+1) each."""
        o = self.modes
        o0 = o[0]
        ph = np.outer(times, self.freqs)
        c = np.cos(ph)
        s = np.sin(ph)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_over = np.where(self.freqs > 0.0, s / self.freqs, times[:, None])
        smu = self.smu
        xx = ((c * o0) @ o.T) * (smu / smu[0])
        xp = ((s_over * o0) @ o.T) / (smu * smu[0])
        px = -(((s * self.freqs) * o0) @ o.T) * (smu * smu[0])
        pp = ((c * o0) @ o.T) * (smu[0] / smu)
        return xx, xp, px, pp

    def full_blocks(self, t: float):
        """Dense cos/sin blocks of the sector propagator at one time."""
        o = self.modes
        c = (o * np.cos(self.freqs * t)) @ o.T
        s = (o * np.sin(self.freqs * t)) @ o.T
        with np.errstate(divide="ignore", invalid="ignore"):
            sov = (o * np.where(self.freqs > 0.0, np.sin(self.freqs * t) / self.freqs, t)) @ o.T
        sf = (o * (self.freqs * np.sin(self.freqs * t))) @ o.T
        smu = self.smu
        xx = c / smu[:, None] * smu[None, :]
        xp = sov / smu[:, None] / smu[None, :]
        px = -sf * smu[:, None] * smu[None, :]
        pp = c * smu[:, None] / smu[None, :]
        return xx, xp, px, pp


class _PlusSectorLadder:
    """Rotation generator of the (x+, bath) sector for symmetric coupling.

    In quadratures scaled by sqrt(m_i w_i) the Hamiltonian is
    (X^T G X + P^T G P)/2 with one symmetric matrix G, so the flow is the
    rotation generated by G acting identically on both quadrature channels.
    """

    def __init__(self, model: FullModel):
        bath = model.bath
        lam, modes = np.linalg.eigh(_one_excitation_matrix(bath, model.omega_plus_bare))
        self.lam = lam
        self.modes = modes
        self.scales = np.sqrt(
            np.concatenate(([model.mass * model.omega0], bath.masses * bath.frequencies))
        )

    def rows(self, times: np.ndarray):
        o = self.modes
        o0 = o[0]
        ph = np.outer(times, self.lam)
        crow = (np.cos(ph) * o0) @ o.T
        srow = (np.sin(ph) * o0) @ o.T
        s = self.scales
        xx = crow * (s / s[0])
        xp = srow / (s * s[0])
        px = -srow * (s * s[0])
        pp = crow * (s[0] / s)
        return xx, xp, px, pp

    def full_blocks(self, t: float):
        o = self.modes
        c = (o * np.cos(self.lam * t)) @ o.T
        s_ = (o * np.sin(self.lam * t)) @ o.T
        s = self.scales
        xx = c / s[:, None] * s[None, :]
        xp = s_ / s[:, None] / s[None, :]
        px = -s_ * s[:, None] * s[None, :]
        pp = c * s[:, None] / s[None, :]
        return xx, xp, px, pp


_solver_cache: "weakref.WeakKeyDictionary[FullModel, object]" = weakref.WeakKeyDictionary()


def _plus_solver(model: FullModel):
    solver = _solver_cache.get(model)
    if solver is None:
        cls = _PlusSectorPosition if model.coupling_type == POSITION else _PlusSectorLadder
        solver = cls(model)
        _solver_cache[model] = solver
    return solver


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


def full_propagator(model: FullModel, t: float) -> np.ndarray:
    """Dense propagator exp(A t) in the virtual ordering (for diagnostics)."""
    n = model.bath.n_modes
    dim = 2 * (n + 2)
    s = np.zeros((dim, dim))
    solver = _plus_solver(model)
    xx, xp, px, pp = solver.full_blocks(t)
    # plus-sector phase indices: positions (x+, q_k) -> 0, 4+2k ; momenta 1, 5+2k
    pos = np.concatenate(([0], 4 + 2 * np.arange(n)))
    mom = pos + 1
    s[np.ix_(pos, pos)] = xx
    s[np.ix_(pos, mom)] = xp
    s[np.ix_(mom, pos)] = px
    s[np.ix_(mom, mom)] = pp
    s[2:4, 2:4] = _minus_rotation(model, np.array([t]))[0]
    return s


def full_initial_covariance(model: FullModel, initial_system: GaussianState) -> np.ndarray:
    """Factorized initial covariance (system x thermal bath), virtual ordering."""
    bath = model.bath
    n = bath.n_modes
    dim = 2 * (n + 2)
    v = np.zeros((dim, dim))
    v[:4, :4] = BEAM_SPLITTER @ initial_system.cov @ BEAM_SPLITTER.T
    occ = bath.occupations + 0.5
    qi = 4 + 2 * np.arange(n)
    v[qi, qi] = occ / (bath.masses * bath.frequencies)
    v[qi + 1, qi + 1] = occ * bath.masses * bath.frequencies
    return v


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Reduced system states on a time grid (site ordering)."""

    times: np.ndarray
    states: tuple
    validity_horizon: float

    def covariances(self) -> np.ndarray:
        return np.stack([s.cov for s in self.states])

    def entanglement(self) -> np.ndarray:
        return np.array([log_negativity(s) for s in self.states])


def _validate_times(model: FullModel, times, override_horizon: bool) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-D grid")
    if np.any(~np.isfinite(times)) or np.any(times < 0.0):
        raise ValidationError("times must be finite and non-negative")
    if np.any(np.diff(times) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    if not override_horizon and times[-1] > model.validity_horizon * (1.0 + 1e-12):
        raise HorizonError(
            f"requested time {times[-1]:.6g} exceeds the validity horizon "
            f"{model.validity_horizon:.6g} (= recurrence time / 2); increase the "
            "number of bath modes or pass override_horizon=True"
        )
    return times


def evolve(
    model: FullModel,
    initial_system: GaussianState,
    times,
    override_horizon: bool = False,
) -> Trajectory:
    """Exact reduced dynamics of the two-oscillator system.

    The bath starts thermal and factorized from the system.  Output states are
    in the site ordering; each is validated for physicality as it is built.
    """
    times = _validate_times(model, times, override_horizon)
    bath = model.bath
    solver = _plus_solver(model)

    sbs = BEAM_SPLITTER
    v0 = sbs @ initial_system.cov @ sbs.T
    m0 = sbs @ initial_system.mean
    v_pp, v_pm, v_mm = v0[:2, :2], v0[:2, 2:], v0[2:, 2:]
    occ = bath.occupations + 0.5
    var_q = occ / (bath.masses * bath.frequencies)
    var_p = occ * bath.masses * bath.frequencies

    states = []
    for lo in range(0, times.size, _TIME_CHUNK):
        chunk = times[lo : lo + _TIME_CHUNK]
        xx, xp, px, pp = solver.rows(chunk)
        a2 = np.empty((chunk.size, 2, 2))
        a2[:, 0, 0] = xx[:, 0]
        a2[:, 0, 1] = xp[:, 0]
        a2[:, 1, 0] = px[:, 0]
        a2[:, 1, 1] = pp[:, 0]
        bq = np.stack([xx[:, 1:], px[:, 1:]], axis=1)  # (T, 2, n)
        bp = np.stack([xp[:, 1:], pp[:, 1:]], axis=1)
        r2 = _minus_rotation(model, chunk)

        vpp_t = np.einsum("tik,kl,tjl->tij", a2, v_pp, a2)
        vpp_t += np.einsum("tik,k,tjk->tij", bq, var_q, bq)
        vpp_t += np.einsum("tik,k,tjk->tij", bp, var_p, bp)
        vpm_t = np.einsum("tik,kl,tjl->tij", a2, v_pm, r2)
        vmm_t = np.einsum("tik,kl,tjl->tij", r2, v_mm, r2)
        mean_p = np.einsum("tij,j->ti", a2, m0[:2])
        mean_m = np.einsum("tij,j->ti", r2, m0[2:])

        for i, t in enumerate(chunk):
            vv = np.empty((4, 4))
            vv[:2, :2] = vpp_t[i]
            vv[:2, 2:] = vpm_t[i]
            vv[2:, :2] = vpm_t[i].T
            vv[2:, 2:] = vmm_t[i]
            cov_site = sbs @ vv @ sbs.T
            mean_site = sbs @ np.concatenate([mean_p[i], mean_m[i]])
            try:
                states.append(GaussianState(mean_site, 0.5 * (cov_site + cov_site.T)))
            except ValidationError as exc:
                raise NumericsError(
                    f"numerical instability: reduced state unphysical at t={t:.6g} ({exc})"
                ) from exc
    return Trajectory(times=times, states=tuple(states), validity_horizon=model.validity_horizon)


def entanglement_trajectory(
    model: FullModel,
    initial_system: GaussianState,
    times,
    override_horizon: bool = False,
) -> tuple[Trajectory, np.ndarray]:
    """Trajectory plus the logarithmic negativity at every grid time."""
    traj = evolve(model, initial_system, times, override_horizon=override_horizon)
    return traj, traj.entanglement()


# ---------------------------------------------------------------------------
# initial states


#: initial states that (r, purity_product) alone define, as a config file can
#: name them; an explicit covariance has to be passed in
STANDARD_STATE_KINDS = ("two-mode-squeezed", "squeezed-product", "coherent-product")


def initial_state(
    model: FullModel,
    kind: str,
    r: float = 0.0,
    purity_product: float = 0.5,
    cov: np.ndarray | None = None,
    mean: np.ndarray | None = None,
) -> GaussianState:
    """Standard initial system states, built in the model's own mode frames.

    The (-) virtual block is a squeezed (optionally mixed) state with squeezing
    factor ``r`` measured against the (-) mode's m*omega, so the classifier's
    squeezing parameter equals ``r`` exactly; ``purity_product`` is the area
    dx- * dp- (1/2 for pure states).
    """
    if kind == "explicit-covariance":
        if cov is None:
            raise ValidationError("explicit-covariance initial state needs a covariance")
        return GaussianState(np.zeros(4) if mean is None else mean, cov)
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


# ---------------------------------------------------------------------------
# equilibrium extraction


def plus_variance_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series (<x+^2>, <p+^2>, <{x+,p+}>/2) of the virtual (+) mode."""
    sbs = BEAM_SPLITTER
    covs = np.einsum("ij,tjk,lk->til", sbs, traj.covariances(), sbs)
    return covs[:, 0, 0], covs[:, 1, 1], covs[:, 0, 1]


def equilibrium_variances_sim(
    model: FullModel,
    initial_system: GaussianState | None = None,
    rel_drift: float = 1e-3,
    n_samples: int = 2400,
) -> tuple[float, float]:
    """Stationary dispersions (dx+, dp+) extracted from a long exact run.

    Evolves until the windowed relative drift of both (+) variances falls
    below ``rel_drift`` (window = one period of the dressed (+) mode), then
    averages over one (-) period.  Raises HorizonError when the drift target is
    not reached inside the validity horizon.
    """
    if initial_system is None:
        initial_system = initial_state(model, "coherent-product")
    ref_freq = model.omega_plus_dressed or model.omega_plus_bare
    period = 2.0 * math.pi / ref_freq
    period_minus = 2.0 * math.pi / model.minus_mode.frequency
    t_end = 0.98 * model.validity_horizon
    if t_end <= 6.0 * period:
        raise HorizonError("validity horizon too short; increase the number of bath modes")
    times = np.linspace(t_end / n_samples, t_end, n_samples)
    traj = evolve(model, initial_system, times)
    vx, vp, _ = plus_variance_series(traj)

    dt = times[1] - times[0]
    wlen = max(2, int(round(period / dt)))
    kernel = np.ones(wlen) / wlen
    sx = np.convolve(vx, kernel, mode="valid")
    sp = np.convolve(vp, kernel, mode="valid")
    lag = wlen
    drift = np.maximum(
        np.abs(sx[lag:] / sx[:-lag] - 1.0), np.abs(sp[lag:] / sp[:-lag] - 1.0)
    )
    # index i of `drift` corresponds to smoothed sample i+lag, raw sample ~ i+lag+wlen/2
    settle = np.nonzero(drift < rel_drift)[0]
    t_star = None
    for i in settle:
        t_candidate = times[min(i + lag + wlen // 2, times.size - 1)]
        if t_candidate + period_minus <= t_end:
            t_star = t_candidate
            break
    if t_star is None:
        raise HorizonError(
            "variances did not settle below the drift target before the horizon; "
            "increase the number of bath modes"
        )
    sel = (times >= t_star) & (times <= t_star + period_minus)
    return float(np.sqrt(vx[sel].mean())), float(np.sqrt(vp[sel].mean()))
