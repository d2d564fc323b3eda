"""Exact symplectic evolution of two oscillators plus a discretized bath.

The full model is Gaussian and time-independent, so the flow exp(A t) is
evaluated in closed form from the normal modes of the quadratic Hamiltonian:
for position coupling from the mass-weighted stiffness matrix, for symmetric
(position-momentum) coupling from the single rotation matrix that generates
both quadrature channels.  Both are arrowheads (a diagonal bath plus the row
and column of x+), so the normal modes come from an O(N^2) secular solve
(``spectra.arrowhead_eigh``), not a dense eigendecomposition.  Only the rows
of the propagator that land on the system are ever materialized: a cosine and
a sine row per output time, two (T, N) x (N, N) products; the momentum row
follows from the sine row in O(N).  Temperature enters only through the bath
occupations and squeezing only through the initial state, so consecutive runs
of one model physics share the normal modes and the propagator rows of their
last time grid, until ``release_shared_solver`` (the CLI calls it when a
command ends).

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
    symplectic_form,
)
from .spectra import DiscretizedBath, OhmicSpectralDensity, arrowhead_eigh, discretize

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


class _PlusSector:
    """Normal modes of the (x+, bath) sector, and its propagator rows for the
    last time grid.

    Both couplings make the sector matrix an arrowhead (a diagonal bath plus
    the row and column of x+), which ``arrowhead_eigh`` diagonalizes in
    O(N^2).  Position coupling: the mass-weighted stiffness
    K = [[w+^2, z], [z, w_k^2]], z_k = c_k / sqrt(m m_k), has the squared
    normal frequencies as eigenvalues.  Symmetric coupling: in quadratures
    scaled by sqrt(m_i w_i) the Hamiltonian is (X^T G X + P^T G P)/2 with the
    one-excitation matrix G = [[w+, g], [g, w_k]], so the flow is the rotation
    generated by G acting identically on both quadrature channels.

    T enters a model only through the bath occupations and r only through the
    initial state, so every point of a verify grid at one C12 shares one
    normal-mode solve and, on one time grid, one set of rows.
    """

    _times: np.ndarray | None = None
    _blocks: tuple | None = None

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
        if self.position:
            w2 = self.freqs
            if w2[0] < -1e-12 * max(1.0, float(np.abs(w2).max())):
                raise ParameterRegimeError(
                    "dressed (+) sector is unstable (negative normal frequency "
                    f"{w2[0]:.3e}); the bath shift exceeds the bare stiffness"
                )
            self.freqs = np.sqrt(np.clip(w2, 0.0, None))

    def _flow(self, phases, times, left, left_scale):
        """Blocks (xx, xp, px, pp) of the propagator rows ``left`` (of the
        modes) at the given phases: two products, the cosine and the sine rows."""
        o, s = self.modes, self.scales
        sine = np.sin(phases)
        if self.position:
            with np.errstate(divide="ignore", invalid="ignore"):
                sine = np.where(self.freqs > 0.0, sine / self.freqs, times)
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
        return self._flow(np.outer(times, self.freqs), times[:, None], self.modes[0], self.scales[0])

    def full_blocks(self, t: float):
        """Dense cos/sin blocks of the sector propagator at one time."""
        return self._flow(self.freqs * t, t, self.modes, self.scales[:, None])

    def blocks(self, times: np.ndarray):
        """(+)-sector propagator blocks at ``times``: the 2x2 system block
        (T, 2, 2), and the bath rows of (x+, p+) over the bath positions,
        bq = (xx, px), and momenta, bp = (xp, pp), each a (T, n) view.
        The blocks of the last grid are kept; a new grid replaces them."""
        if self._times is not None and np.array_equal(self._times, times):
            return self._blocks
        self._times = self._blocks = None  # free the old rows before the new ones
        xx, xp, px, pp = self.rows(times)
        a2 = np.stack([xx[:, 0], xp[:, 0], px[:, 0], pp[:, 0]], axis=1).reshape(-1, 2, 2)
        for block in (a2, xx, xp, px, pp):  # every later caller on this grid gets them too
            block.setflags(write=False)
        bq = (xx[:, 1:], px[:, 1:])
        bp = (xp[:, 1:], pp[:, 1:])
        self._times, self._blocks = times.copy(), (a2, bq, bp)
        return self._blocks


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
    """End the sharing of normal modes and rows; one command is its scope."""
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


def full_propagator(model: FullModel, t: float) -> np.ndarray:
    """Dense propagator exp(A t) in the virtual ordering (for diagnostics)."""
    n = model.bath.n_modes
    dim = 2 * (n + 2)
    s = np.zeros((dim, dim))
    xx, xp, px, pp = _plus_solver(model)[0].full_blocks(t)
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Reduced system states on a time grid (site ordering), as stacked arrays.

    ``means`` is (T, 4) and ``covs`` (T, 4, 4); both are validated and
    read-only.  ``info`` records the sizes, timings and the worst relative
    physicality defect of the run that made it.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    validity_horizon: float
    info: dict = field(default_factory=dict)

    @cached_property
    def states(self) -> tuple:
        """The samples as GaussianStates, built on first access."""
        return tuple(GaussianState(m, c) for m, c in zip(self.means, self.covs))

    def covariances(self) -> np.ndarray:
        return self.covs

    def entanglement(self) -> np.ndarray:
        return log_negativity(self.covs)


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
    in the site ordering and validated for physicality in one stacked check.
    """
    times = _validate_times(model, times, override_horizon)
    bath = model.bath
    solver, solve_s = _plus_solver(model)
    start = time.perf_counter()

    sbs = BEAM_SPLITTER
    v0 = sbs @ initial_system.cov @ sbs.T
    m0 = sbs @ initial_system.mean
    v_pp, v_pm, v_mm = v0[:2, :2], v0[:2, 2:], v0[2:, 2:]
    occ = bath.occupations + 0.5
    var_q = occ / (bath.masses * bath.frequencies)
    var_p = occ * bath.masses * bath.frequencies

    virtual_cov = np.empty((times.size, 4, 4))
    virtual_mean = np.empty((times.size, 4))
    for lo in range(0, times.size, _TIME_CHUNK):
        chunk = times[lo : lo + _TIME_CHUNK]
        a2, bq, bp = solver.blocks(chunk)
        r2 = _minus_rotation(model, chunk)
        vv = virtual_cov[lo : lo + chunk.size]
        vv[:, :2, :2] = np.einsum("tik,kl,tjl->tij", a2, v_pp, a2)
        for i, j in ((0, 0), (0, 1), (1, 1)):  # the thermal bath: weighted row sums
            vv[:, i, j] += np.einsum("tk,k,tk->t", bq[i], var_q, bq[j])
            vv[:, i, j] += np.einsum("tk,k,tk->t", bp[i], var_p, bp[j])
        vv[:, 1, 0] = vv[:, 0, 1]
        vv[:, :2, 2:] = np.einsum("tik,kl,tjl->tij", a2, v_pm, r2)
        vv[:, 2:, :2] = np.swapaxes(vv[:, :2, 2:], 1, 2)
        vv[:, 2:, 2:] = np.einsum("tik,kl,tjl->tij", r2, v_mm, r2)
        virtual_mean[lo : lo + chunk.size, :2] = np.einsum("tij,j->ti", a2, m0[:2])
        virtual_mean[lo : lo + chunk.size, 2:] = np.einsum("tij,j->ti", r2, m0[2:])
    # per sample a 4x4 @ 4x4 and a 4x4 @ 4-vector, as for one state
    cov_site = sbs @ virtual_cov @ sbs.T
    means = (sbs @ virtual_mean[:, :, None])[:, :, 0]
    try:
        covs, defects = check_states(means, 0.5 * (cov_site + np.swapaxes(cov_site, 1, 2)))
    except ValidationError as exc:
        raise NumericsError(
            f"numerical instability: reduced state unphysical at t={times[exc.index]:.6g} ({exc})"
        ) from exc
    means.setflags(write=False)
    covs.setflags(write=False)
    info = {
        "bath_modes": bath.n_modes,
        "samples": times.size,
        "normal_mode_solves": int(solve_s is not None),
        "normal_modes_s": solve_s or 0.0,
        **solver.health,
        "states_s": time.perf_counter() - start,
        "min_physicality_defect": float(defects.min()),
    }
    return Trajectory(times=times, means=means, covs=covs,
                      validity_horizon=model.validity_horizon, info=info)


def entanglement_trajectory(
    model: FullModel,
    initial_system: GaussianState,
    times,
    override_horizon: bool = False,
) -> tuple[Trajectory, np.ndarray]:
    """Trajectory plus the logarithmic negativity at every grid time."""
    traj = evolve(model, initial_system, times, override_horizon=override_horizon)
    start = time.perf_counter()
    energies = traj.entanglement()
    traj.info["entanglement_s"] = time.perf_counter() - start
    return traj, energies


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
