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
from .gaussian import ModeSpec, mode_squeezing
from .rwa import CoefficientTrace
from .spectra import OhmicSpectralDensity

PHASE_TIE_TOL = 1e-9


class Phase(enum.Enum):
    """Long-time entanglement behavior."""

    NSD = "NSD"
    SDR = "SDR"
    SD = "SD"


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
    return np.array(sorted({p for p in points if 0.0 <= p <= lam}))


def _composite_rules(edges: np.ndarray) -> list:
    """Nodes and weights of the fine and the coarse composite rule on ``edges``."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return [((mid + half * x).ravel(), (half * w).ravel()) for x, w in (_GAUSS_FINE, _GAUSS_COARSE)]


def _frozen(nodes: np.ndarray, weights: np.ndarray) -> tuple:
    """The rule (nodes, weights), read-only because every caller shares it."""
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=16)
def _position_rules(density: OhmicSpectralDensity, omega_plus: float) -> tuple:
    """Temperature-independent part of the stationary quadrature.

    For the fine and the coarse rule: the nodes w and a (2, n) array holding
    the rule weights times Im chi(w)/pi, and those times m^2 w^2, so that
    dx+^2 and dp+^2 at any temperature are sums against coth(w/2T).
    """
    rules = []
    for nodes, w in _composite_rules(_panel_edges(density, omega_plus)):
        base = w * ohmic_susceptibility_im(nodes, density, omega_plus) / math.pi
        rules.append(_frozen(nodes, np.stack([base, (density.mass * nodes) ** 2 * base])))
    return tuple(rules)


def _thermal_sums(nodes: np.ndarray, weights: np.ndarray, temperature: float) -> np.ndarray:
    """Rows of ``weights`` summed against coth(w/2T); plain sums at T = 0."""
    if temperature == 0.0:
        return weights.sum(axis=1)
    return (weights / np.tanh(nodes / (2.0 * temperature))).sum(axis=1)


def _stationary_dispersions(rules: tuple, temperature: float, diagnostics: dict | None) -> tuple:
    """(dx+, dp+) from (fine, coarse) rules whose weight rows give dx+^2 and dp+^2.

    Their distance estimates the error, which must stay below 1e-5 relative;
    ``diagnostics``, when given, receives the larger estimate as ``quad_error``.
    """
    if temperature < 0.0:
        raise ValidationError("temperature must be non-negative")
    fine, coarse = rules
    values = _thermal_sums(*fine, temperature)
    errors = np.abs(values - _thermal_sums(*coarse, temperature)).tolist()
    values = values.tolist()
    for val, err in zip(values, errors):
        if not (val > 0.0 and err <= 1e-5 * val):
            raise NumericsError(
                f"stationary-variance quadrature failed (value {val:.3e}, error {err:.3e})",
                achieved=err / max(abs(val), 1e-300),
            )
    if diagnostics is not None:
        diagnostics["quad_error"] = max(errors[0] / values[0], errors[1] / values[1])
    dx2, dp2 = values
    return math.sqrt(dx2), math.sqrt(dp2)


def stationary_variances_position(
    density: OhmicSpectralDensity, omega_plus: float, temperature: float,
    diagnostics: dict | None = None,
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
    its error (see ``_stationary_dispersions`` for ``diagnostics``).
    """
    if density.gamma0 <= 0.0:
        raise ValidationError("stationary variances need gamma0 > 0")
    lam = density.cutoff
    if not 0.0 < omega_plus < 0.98 * lam:
        raise ParameterRegimeError(
            f"dressed frequency {omega_plus} must lie well inside the bath band (0, {lam})"
        )
    return _stationary_dispersions(_position_rules(density, omega_plus), temperature, diagnostics)


def ladder_spectral_function(w, density: OhmicSpectralDensity, omega_plus: float, omega0: float):
    """In-band spectral function A(w) = J_l / ((w - omega_plus - Delta(w))^2 + pi^2 J_l^2)
    of the (+) ladder level: J_l = 4 gamma0 w / (pi omega0), Delta from
    ``OhmicSpectralDensity.ladder_level_shift``, ``omega_plus`` the bare (+) frequency."""
    w = np.asarray(w, dtype=float)
    j = 4.0 * density.gamma0 * w / (math.pi * omega0)
    with np.errstate(divide="ignore"):  # a node rounded onto the cutoff, where A = 0
        detuning = w - omega_plus - density.ladder_level_shift(w, omega0)
    return j / (detuning**2 + (math.pi * j) ** 2)


def _rising_root(f, lo: float, hi: float) -> float:
    """Of the adjacent doubles that bisection of [lo, hi] ends on, the one with smaller |f|."""
    ends = [lo, hi]
    while ends[0] < (mid := 0.5 * (ends[0] + ends[1])) < ends[1]:
        ends[f(mid) >= 0.0] = mid  # f rises: a non-negative midpoint is the new upper end
    return min(ends, key=lambda u: abs(f(u)))


def ladder_bound_state(density: OhmicSpectralDensity, omega_plus: float, omega0: float) -> tuple:
    """Frequency and weight (omega_b, Z) of the (+) level's state above the cutoff L.

    There the level shift is Delta_out(w) = (4 gamma0 / pi omega0)(-L + w ln(w / (w - L))),
    and omega_b = L + d solves w - omega_plus - Delta_out(w) = 0.  Its left side rises with
    d, as d/dd[(L + d) ln(1 + L/d)] = ln(1 + L/d) - L/d < 0, so ln d is bisected; for weak
    coupling it lies below the smallest double, and d is that double.  Z = 1/(1 - Delta_out'),
    Delta_out' = (4 gamma0 / pi omega0)(ln(omega_b / d) - L / d), is 0 where L/d overflows.
    """
    lam = density.cutoff
    pref = 4.0 * density.gamma0 / (math.pi * omega0)

    def gap(u: float) -> float:
        d = math.exp(u)  # past the overflow of L/d, ln(1 + L/d) is ln L - u
        log_ratio = math.log1p(lam / d) if lam / d < math.inf else math.log(lam) - u
        return lam + d - omega_plus - pref * (-lam + (lam + d) * log_ratio)

    # Delta_out(L + d) <= pref L^2 / d, so the gap is positive at d = omega_plus + pref L
    d = math.exp(_rising_root(gap, math.log(5e-324), math.log(omega_plus + pref * lam)))
    z = 1.0 / (1.0 - pref * (math.log1p(lam / d) - lam / d)) if lam / d < math.inf else 0.0
    return lam + d, z


@lru_cache(maxsize=16)
def _ladder_rules(density: OhmicSpectralDensity, omega_plus: float, omega0: float, centre: float):
    """Temperature-independent part of the symmetric stationary quadrature.

    The fine and the coarse rule on ``_panel_edges(density, centre)`` with the
    bound state appended as one node (omega_b, weight Z); the rows are the
    weights times A(w), scaled by 1/(2 m omega0) (dx+^2) and m omega0/2 (dp+^2).
    Also returns Z and the sum-rule residual sum(fine weights x A) + Z - 1.
    """
    args = (density, omega_plus, omega0)
    omega_b, z = ladder_bound_state(*args)
    parts = [(np.append(x, omega_b), np.append(w * ladder_spectral_function(x, *args), z))
             for x, w in _composite_rules(_panel_edges(density, centre))]
    residual = float(parts[0][1].sum()) - 1.0
    if not abs(residual) <= 1e-8:
        message = f"ladder spectral sum rule fails by {residual:.3e} (bound-state weight {z:.3e})"
        raise NumericsError(message, achieved=abs(residual))
    mw = density.mass * omega0
    rules = tuple(_frozen(x, np.stack([a / (2.0 * mw), 0.5 * mw * a])) for x, a in parts)
    return rules, z, residual


def stationary_variances_ladder(
    density: OhmicSpectralDensity, omega_plus: float, omega0: float, centre: float,
    temperature: float, diagnostics: dict | None = None,
) -> tuple[float, float]:
    """Exact stationary dispersions (dx+, dp+) for symmetric coupling.

    Fluctuation-dissipation sum over the (+) ladder level's spectral function:
    the symmetrized occupation s(T) = int_0^L A(w) coth(w/2T) dw + Z coth(omega_b/2T)
    gives dp+^2 = m omega0 s/2 and dx+^2 = s/(2 m omega0).  ``omega_plus`` and
    ``omega0`` are the bare (+) and oscillator frequencies; ``centre`` is where
    A peaks (the panels grade around it): the dressed frequency when known.
    ``diagnostics`` also receives ``bound_weight`` (Z) and ``sum_rule_residual``.
    """
    if density.gamma0 <= 0.0:
        raise ValidationError("stationary variances need gamma0 > 0")
    if 4.0 * density.gamma0 * density.cutoff / (math.pi * omega0) >= omega_plus:
        raise ParameterRegimeError(f"the bath pulls the (+) ladder level {omega_plus} below 0")
    rules, z, residual = _ladder_rules(density, omega_plus, omega0, centre)
    if diagnostics is not None:
        diagnostics.update(bound_weight=z, sum_rule_residual=residual)
    return _stationary_dispersions(rules, temperature, diagnostics)


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


def r_crit(dx_plus: float, dp_plus: float, minus_mode: ModeSpec) -> float:
    """Squeezing of the (+)-mode equilibrium state, measured in (-)-mode units.

    r_crit = (1/2) ln[m_- omega_- dx+ / dp+].
    """
    return mode_squeezing(dx_plus, dp_plus, minus_mode)


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
