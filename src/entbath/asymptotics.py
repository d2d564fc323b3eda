"""Closed-form asymptotics: equilibrium dispersions, envelopes, and phase labels.

In the long-time regime the (+) virtual mode sits in a stationary state with
dispersions (dx+, dp+) while the (-) mode rotates freely, so the logarithmic
negativity oscillates between closed-form extremes.  Three quantities control
everything: the initial (-) squeezing r, the equilibrium squeezing r_crit, and
the area threshold S_crit.  Sustained entanglement (NSD), an infinite train of
deaths and revivals (SDR), or a final sudden death (SD) follow from the
inequality pattern among |r|, |r_crit| and S_crit.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError, ParameterRegimeError, ValidationError
from .gaussian import GaussianState, ModeSpec, state_from_virtual_blocks
from .rwa import CoefficientTrace
from .spectra import OhmicSpectralDensity

PHASE_TIE_TOL = 1e-9


class Phase(enum.Enum):
    """Long-time entanglement behavior."""

    NSD = "NSD"
    SDR = "SDR"
    SD = "SD"

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


FrequencySet = namedtuple("FrequencySet", "omega_plus omega_minus omega_r c12_renorm")
ResourceFlags = namedtuple("ResourceFlags", "coherent_entangles environment_amplifies")


@dataclass(frozen=True)
class PhaseSummary:
    """Asymptotic quantities and phase label at one parameter point."""

    dx_plus: float
    dp_plus: float
    r: float
    r_crit: float
    s_crit: float
    e_mean: float
    e_amp: float
    phase: Phase
    coherent_entangles: bool
    environment_amplifies: bool


# ---------------------------------------------------------------------------
# stationary dispersions


def ohmic_susceptibility_im(
    w: np.ndarray, density: OhmicSpectralDensity, omega_plus: float
) -> np.ndarray:
    """Imaginary part of the exact (+)-mode susceptibility at frequency w.

    Written in the cutoff-regular form: the static part of the bath self-energy
    is absorbed into the dressed frequency ``omega_plus``, leaving only the
    principal-value remainder, which is analytic for the hard-cutoff Ohmic
    density.
    """
    w = np.asarray(w, dtype=float)
    m = density.mass
    lam = density.cutoff
    j = density.j(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        remainder = np.where(
            w < lam,
            (4.0 * m * density.gamma0 / math.pi) * (w / 2.0) * np.log((lam - w) / (lam + w)),
            0.0,
        )
    denom = m * (omega_plus**2 - w**2) - remainder
    out = math.pi * j / (denom**2 + (math.pi * j) ** 2)
    return out


#: Gauss-Legendre nodes and weights on [-1, 1]: the rule applied on every
#: panel, and the coarser rule on the same panels that estimates its error
_GAUSS_FINE = np.polynomial.legendre.leggauss(24)
_GAUSS_COARSE = np.polynomial.legendre.leggauss(12)


def _panel_edges(density: OhmicSpectralDensity, omega_plus: float) -> np.ndarray:
    """Breakpoints of the composite stationary quadrature on [0, cutoff].

    - octaves of Omega+ up to the cutoff, and down to Omega+/4 or, for an
      overdamped mode, to the scale Omega+^2/(4 gamma0) of its slow pole;
    - offsets from Omega+ graded in powers of two from 3 gamma0/4 out to
      Omega+: the resonance has half-width gamma0 whatever Omega+ is;
    - cutoff (1 - 10^-k), k = 1..14, grading into the logarithmic zero of
      Im chi at the cutoff.
    """
    lam = density.cutoff
    offsets = [0.75 * density.gamma0]
    while 2.0 * offsets[-1] < omega_plus:
        offsets.append(2.0 * offsets[-1])
    below = [0.5 * omega_plus, 0.25 * omega_plus]
    while 0.5 * below[-1] >= omega_plus**2 / (4.0 * density.gamma0):
        below.append(0.5 * below[-1])
    above = [2.0 * omega_plus]
    while 2.0 * above[-1] < lam:
        above.append(2.0 * above[-1])
    points = [0.0, omega_plus, lam, *below, *above]
    points += [omega_plus + sign * d for d in offsets for sign in (1.0, -1.0)]
    points += [lam * (1.0 - 10.0**-k) for k in range(1, 15)]
    return np.unique([p for p in points if 0.0 <= p <= lam])


@lru_cache(maxsize=16)
def _position_rules(density: OhmicSpectralDensity, omega_plus: float) -> tuple:
    """Temperature-independent part of the stationary quadrature.

    For the fine and the coarse rule: the nodes w and a (2, n) array holding
    the rule weights times Im chi(w)/pi, and those times m^2 w^2, so that
    dx+^2 and dp+^2 at any temperature are sums against coth(w/2T).
    Read-only, because every caller shares them.
    """
    edges = _panel_edges(density, omega_plus)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    rules = []
    for x, w in (_GAUSS_FINE, _GAUSS_COARSE):
        nodes = (mid + half * x).ravel()
        base = (half * w).ravel() * ohmic_susceptibility_im(nodes, density, omega_plus) / math.pi
        weights = np.stack([base, (density.mass * nodes) ** 2 * base])
        nodes.flags.writeable = False
        weights.flags.writeable = False
        rules.append((nodes, weights))
    return tuple(rules)


def _thermal_sums(nodes: np.ndarray, weights: np.ndarray, temperature: float) -> np.ndarray:
    """Rows of ``weights`` summed against coth(w/2T); plain sums at T = 0."""
    if temperature == 0.0:
        return weights.sum(axis=1)
    return (weights / np.tanh(nodes / (2.0 * temperature))).sum(axis=1)


def stationary_variances_position(
    density: OhmicSpectralDensity,
    omega_plus: float,
    temperature: float,
) -> tuple[float, float]:
    """Exact stationary dispersions (dx+, dp+) for position coupling.

    Fluctuation-dissipation quadratures over the bath band:
    dx+^2 = (1/pi) int coth(w/2T) Im chi(w) dw and
    dp+^2 = (m^2/pi) int w^2 coth(w/2T) Im chi(w) dw,
    with the exact Ohmic susceptibility built from the same self-energy as the
    simulator.  ``omega_plus`` is the dressed (renormalized) (+) frequency.
    The rule is a fixed composite Gauss-Legendre one (24 nodes per panel,
    panels from ``_panel_edges``) whose Im chi weights are built once per
    (density, omega_plus); the 12-node rule on the same panels estimates
    its error.
    """
    if density.gamma0 <= 0.0:
        raise ValidationError("stationary variances need gamma0 > 0")
    if temperature < 0.0:
        raise ValidationError("temperature must be non-negative")
    lam = density.cutoff
    if not 0.0 < omega_plus < 0.98 * lam:
        raise ParameterRegimeError(
            f"dressed frequency {omega_plus} must lie well inside the bath band (0, {lam})"
        )
    fine, coarse = _position_rules(density, omega_plus)
    values = _thermal_sums(*fine, temperature)
    errors = np.abs(values - _thermal_sums(*coarse, temperature))
    for val, err in zip(values.tolist(), errors.tolist()):
        if not (val > 0.0 and err <= 1e-5 * val):
            raise NumericsError(
                f"stationary-variance quadrature failed (value {val:.3e}, error {err:.3e})",
                achieved=err / max(abs(val), 1e-300),
            )
    dx2, dp2 = values.tolist()
    return math.sqrt(dx2), math.sqrt(dp2)


def stationary_variances_symmetric(
    trace: CoefficientTrace, mass_omega: float, max_drift: float = 0.01
) -> tuple[float, float]:
    """Balanced stationary dispersions for symmetric coupling.

    dp+ = M Omega dx+ = sqrt(D / 2 gamma), with ``mass_omega`` the invariant
    M*Omega (= m*omega0) product of the (+) mode.  The ratio D/gamma is the
    stationary symmetrized occupation; it is evaluated pointwise over the
    trailing quarter of the trace, where it has settled even when the two
    coefficients individually still breathe (they oscillate together once the
    occupation is stationary).  A drifting ratio raises a validation error.
    """
    n = trace.times.size
    start = max(1, n - max(4, n // 4))
    gam = trace.gamma[start:]
    dif = trace.diffusion[start:]
    good = np.abs(gam) > 1e-12 * np.abs(gam).max()
    if good.sum() < 4:
        raise ValidationError("dissipation coefficient vanishes on the late window")
    ratio = dif[good] / gam[good]
    sym_occ = float(np.median(ratio))
    drift = float((ratio.max() - ratio.min()) / max(abs(sym_occ), 1e-300))
    if drift > max_drift:
        raise ValidationError(
            f"stationary occupation not settled (drift {drift:.3g} over the "
            "late window); extend the trace"
        )
    if sym_occ <= 0.0:
        raise ValidationError("stationary occupation must be positive")
    dp = math.sqrt(0.5 * sym_occ * mass_omega)
    dx = dp / mass_omega
    return dx, dp


# ---------------------------------------------------------------------------
# envelope and phases


def r_crit(
    dx_plus: float,
    dp_plus: float,
    minus_mode: ModeSpec,
    omega_plus: float | None = None,
    interacting: bool = False,
) -> float:
    """Squeezing of the (+)-mode equilibrium state, measured in (-)-mode units.

    r_crit = (1/2) ln[m_- omega_- dx+ / dp+].  With ``interacting=True`` the
    same value is assembled from the (+)-frequency form
    (1/2) ln[m Omega dx+/dp+] + (1/2) ln[omega_-/Omega]; the split is exact for
    equal masses and the two routes always coincide when omega_- = Omega.
    """
    if not (dx_plus > 0.0 and dp_plus > 0.0):
        raise ValidationError("dispersions must be positive")
    if interacting:
        if omega_plus is None:
            raise ValidationError("interacting r_crit needs the dressed (+) frequency")
        return 0.5 * math.log(
            minus_mode.mass * omega_plus * dx_plus / dp_plus
        ) + 0.5 * math.log(minus_mode.frequency / omega_plus)
    return 0.5 * math.log(minus_mode.xp_scale * dx_plus / dp_plus)


def s_crit(dx_plus: float, dp_plus: float, dx_minus: float, dp_minus: float) -> float:
    """Area threshold (1/2) ln[4 dx+ dp+ dx- dp-]."""
    for v in (dx_plus, dp_plus, dx_minus, dp_minus):
        if not v > 0.0:
            raise ValidationError("dispersions must be positive")
    return 0.5 * math.log(4.0 * dx_plus * dp_plus * dx_minus * dp_minus)


def envelope(r: float, r_crit_value: float, s_crit_value: float) -> tuple[float, float]:
    """Mean and amplitude of the asymptotic entanglement oscillation.

    Returns (E_mean, E_amp) with E_mean = max{|r|, |r_crit|} - S_crit and
    E_amp = min{|r|, |r_crit|}; the observable log-negativity sweeps
    [max{0, E_mean - E_amp}, max{0, E_mean + E_amp}] with period pi/omega_-.
    """
    if not math.isfinite(s_crit_value):
        raise ValidationError("S_crit must be finite")
    return (
        max(abs(r), abs(r_crit_value)) - s_crit_value,
        min(abs(r), abs(r_crit_value)),
    )


def envelope_band(e_mean: float, e_amp: float) -> tuple[float, float]:
    """Clipped oscillation band [max{0, mean-amp}, max{0, mean+amp}]."""
    return max(0.0, e_mean - e_amp), max(0.0, e_mean + e_amp)


def phase_slacks(r: float, r_crit_value: float, s_crit_value: float) -> tuple[float, float]:
    """Slacks of the two phase inequalities.

    (||r| - |r_crit|| - S_crit, |r| + |r_crit| - S_crit): NSD where the first
    is positive, SD where the second is not, SDR in between.
    """
    return (
        abs(abs(r) - abs(r_crit_value)) - s_crit_value,
        abs(r) + abs(r_crit_value) - s_crit_value,
    )


def classify(r: float, r_crit_value: float, s_crit_value: float, tie_tol: float = PHASE_TIE_TOL) -> Phase:
    """Three-way phase label from the envelope inequalities.

    Boundary cases within ``tie_tol`` resolve toward the less entangled phase,
    so NSD is never claimed on roundoff.
    """
    lo, hi = phase_slacks(r, r_crit_value, s_crit_value)
    if hi <= tie_tol:
        return Phase.SD
    if lo > tie_tol:
        return Phase.NSD
    return Phase.SDR


def resource_conditions(
    r: float,
    r_crit_value: float,
    s_crit_value: float,
    dx_plus: float,
    dp_plus: float,
) -> ResourceFlags:
    """Resource flags of the beam-splitter picture.

    ``coherent_entangles``: a coherent (r = 0, pure) input ends up entangled,
    i.e. |r_crit| > (1/2) ln(2 dx+ dp+) -- equivalently one equilibrium
    quadrature is squeezed below the vacuum in (-)-mode units.
    ``environment_amplifies``: the output entanglement can exceed the input
    squeezing resource, |r_crit| - S_crit >= 2 |r|.
    """
    coherent = abs(r_crit_value) > 0.5 * math.log(2.0 * dx_plus * dp_plus)
    amplifies = abs(r_crit_value) - s_crit_value >= 2.0 * abs(r)
    return ResourceFlags(bool(coherent), bool(amplifies))


def renormalized_frequencies(
    omega0: float, c12: float, delta_omega_sq: float, coupling_type: str = "position"
) -> FrequencySet:
    """Dressed frequencies and couplings from the bare constants.

    Position coupling: Omega+^2 = omega0^2 + c12 + d(omega^2), omega-^2 =
    omega0^2 - c12, Omega_R^2 = omega0^2 + d(omega^2)/2 and C12 = c12 +
    d(omega^2)/2.  Symmetric coupling uses the multiplicative ladder analogues.
    """
    if coupling_type == "position":
        op2 = omega0**2 + c12 + delta_omega_sq
        om2 = omega0**2 - c12
        if op2 <= 0.0 or om2 <= 0.0:
            raise ParameterRegimeError(
                f"dressed frequencies not positive: Omega+^2={op2:.6g}, omega-^2={om2:.6g}"
            )
        omega_plus = math.sqrt(op2)
        omega_minus = math.sqrt(om2)
    elif coupling_type == "symmetric":
        omega_plus = omega0 + (c12 + delta_omega_sq) / omega0
        omega_minus = omega0 - c12 / omega0
        if omega_plus <= 0.0 or omega_minus <= 0.0:
            raise ParameterRegimeError("dressed ladder frequencies not positive")
    else:
        raise ValidationError("coupling_type must be 'position' or 'symmetric'")
    omega_r = math.sqrt(0.5 * (omega_plus**2 + omega_minus**2))
    c12_renorm = 0.5 * (omega_plus**2 - omega_minus**2)
    return FrequencySet(omega_plus, omega_minus, omega_r, c12_renorm)


def asymptotic_state(
    dx_plus: float,
    dp_plus: float,
    dx_minus: float,
    dp_minus: float,
    minus_mode: ModeSpec,
    angle: float,
) -> GaussianState:
    """Site-basis state of the late-time cycle at rotation phase ``angle``.

    The (+) block is the stationary diagonal; the (-) block is the initial
    squeezed state rotated by ``angle`` in its own phase space.
    """
    plus = np.diag([dx_plus**2, dp_plus**2])
    s = minus_mode.xp_scale
    c, sn = math.cos(angle), math.sin(angle)
    rot = np.array([[c, sn / s], [-s * sn, c]])
    minus = rot @ np.diag([dx_minus**2, dp_minus**2]) @ rot.T
    return state_from_virtual_blocks(plus, minus)


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Angular frequency of the strongest oscillation in a uniformly sampled series.

    Linear detrend, Hann window, FFT peak with parabolic interpolation; used to
    read the late-time entanglement oscillation frequency off a trajectory.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 16:
        raise ValidationError("need at least 16 samples to fit a frequency")
    dt = np.diff(times)
    if (dt.max() - dt.min()) > 1e-9 * dt[0]:
        raise ValidationError("frequency fit needs a uniform grid")
    detrended = values - np.polyval(np.polyfit(times, values, 1), times)
    if np.max(np.abs(detrended)) < 1e-13 * max(1.0, np.max(np.abs(values))):
        raise ValidationError("series carries no resolvable oscillation")
    window = np.hanning(times.size)
    spectrum = np.abs(np.fft.rfft(detrended * window))
    k = int(np.argmax(spectrum[1:]) + 1)
    if 1 <= k < spectrum.size - 1:
        a, b, c = np.log(spectrum[k - 1 : k + 2] + 1e-300)
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if abs(denom) > 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    freq = (k + shift) / (times.size * float(dt[0]))
    return 2.0 * math.pi * freq


def summarize(
    dx_plus: float,
    dp_plus: float,
    r: float,
    minus_mode: ModeSpec,
    purity_product: float = 0.5,
) -> PhaseSummary:
    """Assemble the full asymptotic summary for one parameter point."""
    dx_minus = math.sqrt(purity_product * math.exp(2.0 * r) / minus_mode.xp_scale)
    dp_minus = purity_product / dx_minus
    rc = r_crit(dx_plus, dp_plus, minus_mode)
    sc = s_crit(dx_plus, dp_plus, dx_minus, dp_minus)
    e_mean, e_amp = envelope(r, rc, sc)
    flags = resource_conditions(r, rc, sc, dx_plus, dp_plus)
    return PhaseSummary(
        dx_plus=dx_plus,
        dp_plus=dp_plus,
        r=r,
        r_crit=rc,
        s_crit=sc,
        e_mean=e_mean,
        e_amp=e_amp,
        phase=classify(r, rc, sc),
        coherent_entangles=flags.coherent_entangles,
        environment_amplifies=flags.environment_amplifies,
    )
