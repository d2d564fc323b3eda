import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from entbath.asymptotics import (
    Phase,
    classify,
    envelope,
    envelope_band,
    ladder_bound_state,
    ladder_spectral_function,
    ohmic_susceptibility_im,
    r_crit,
    s_crit,
    stationary_variances_ladder,
    stationary_variances_position,
    summarize,
)
from entbath.bathsim import FullModel
from entbath.cli import main
from entbath.errors import NumericsError, ParameterRegimeError, ValidationError
from entbath.gaussian import ModeSpec, log_negativity, mode_squeezing
from entbath.spectra import OhmicSpectralDensity
from oracles import asymptotic_state, equilibrium_variances_sim, stationary_variances_symmetric

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)
UNIT = ModeSpec(1.0, 1.0)


class TestCriticalQuantities:
    def test_r_crit_balanced_is_zero(self):
        assert r_crit(1.0, 1.0, UNIT) == 0.0

    def test_s_crit_values(self):
        assert s_crit(1.0, 0.5, 1.0, 0.5) == 0.0
        # equilibrium area e^2/2 against a pure minus mode
        assert s_crit(math.e, 0.5 * math.e, 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_s_crit_mixed_shift_exact(self):
        base = s_crit(1.3, 0.9, 1.0, 0.5)
        for kappa in (1.0, 2.0, 3.7):
            shifted = s_crit(1.3, 0.9, 1.0, 0.5 * kappa)
            assert shifted - base == pytest.approx(0.5 * math.log(kappa), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            r_crit(-1.0, 1.0, UNIT)
        with pytest.raises(ValidationError):
            s_crit(1.0, 1.0, 0.0, 1.0)


class TestEnvelopeAndPhases:
    def test_envelope_trivial_cases(self):
        assert envelope(0.0, 0.0, 0.7) == (-0.7, 0.0)
        e_mean, e_amp = envelope(2.0, 0.5, 1.0)
        assert (e_mean, e_amp) == (1.0, 0.5)
        assert classify(2.0, 0.5, 1.0) is Phase.NSD  # 1.5 > 1

    def test_classify_spec_examples(self):
        assert classify(0.4, 0.5, 1.0) is Phase.SD    # 0.9 < 1
        assert classify(0.8, 0.5, 1.0) is Phase.SDR   # 0.3 < 1 < 1.3

    def test_boundary_ties_resolve_to_less_entangled(self):
        # exactly on NSD/SDR boundary -> SDR; exactly on SDR/SD boundary -> SD
        assert classify(1.5, 0.5, 1.0) is Phase.SDR   # ||r|-|rc|| = S
        assert classify(0.5, 0.5, 1.0) is Phase.SD    # |r|+|rc| = S
        assert classify(1.5 + 1e-6, 0.5, 1.0) is Phase.NSD
        assert classify(0.5 + 1e-6, 0.5, 1.0) is Phase.SDR

    def test_classifier_uses_absolute_squeezing(self):
        assert classify(-2.0, 0.5, 1.0) is classify(2.0, 0.5, 1.0)
        assert classify(2.0, -0.5, 1.0) is classify(2.0, 0.5, 1.0)

    @pytest.mark.parametrize("rc,s", [(0.5, 1.0), (2.0, 1.0), (0.3, 0.2), (1.5, 0.1)])
    def test_phase_geometry_along_r(self, rc, s):
        """SD only as a prefix, SDR a single interval, NSD terminal."""
        labels = [classify(r, rc, s) for r in np.linspace(0.0, 6.0, 1200)]
        sd = [i for i, p in enumerate(labels) if p is Phase.SD]
        sdr = [i for i, p in enumerate(labels) if p is Phase.SDR]
        assert sd == list(range(len(sd)))                      # prefix
        if sdr:
            assert sdr == list(range(sdr[0], sdr[-1] + 1))     # contiguous
        assert labels[-1] is Phase.NSD
        last_sdr = sdr[-1] if sdr else -1
        assert all(labels[i] is Phase.NSD for i in range(last_sdr + 1, len(labels))
                   if labels[i] is not Phase.SD)

    def test_envelope_matches_entanglement_extremes_of_the_cycle(self, rng):
        """Oracle: scan the late-time cycle with the Gaussian machinery."""
        for _ in range(12):
            mode = ModeSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.4, 2.5)))
            dx_m = float(rng.uniform(0.3, 1.5))
            dp_m = 0.5 * float(rng.uniform(1.0, 2.5)) / dx_m  # area in [1/2, 1.25]
            dx_p = float(rng.uniform(0.4, 3.0))
            dp_p = max(float(rng.uniform(0.4, 3.0)), 0.55 / dx_p)
            angles = np.linspace(0.0, np.pi, 721)
            energies = [
                log_negativity(asymptotic_state(dx_p, dp_p, dx_m, dp_m, mode, a))
                for a in angles
            ]
            r = mode_squeezing(dx_m, dp_m, mode)
            rc = r_crit(dx_p, dp_p, mode)
            sc = s_crit(dx_p, dp_p, dx_m, dp_m)
            lo, hi = envelope_band(*envelope(r, rc, sc))
            assert max(energies) == pytest.approx(hi, abs=2e-7)
            assert min(energies) == pytest.approx(lo, abs=2e-7)

    def test_summarize_consistency(self):
        summary = summarize(1.2, 0.9, r=0.7, minus_mode=UNIT, purity_product=0.5)
        assert summary.e_amp == pytest.approx(min(abs(summary.r), abs(summary.r_crit)))
        assert summary.e_mean == pytest.approx(
            max(abs(summary.r), abs(summary.r_crit)) - summary.s_crit
        )
        assert summary.phase is classify(summary.r, summary.r_crit, summary.s_crit)

    def test_a_grid_summary_is_its_points_bitwise(self):
        # (dx+, dp+) along T, r and the purity along their own axes
        # 101 squeezings: numpy's SIMD exp differs from libm's in the last bit on
        # several of them, which the grid must not take
        dx, dp = np.array([0.6, 1.2, 3.0]), np.array([0.9, 1.1, 2.5])
        rs, purities, mode = np.linspace(-1.0, 3.0, 101), np.array([0.5, 0.8]), ModeSpec(1.3, 0.7)
        grid = summarize(dx[:, None, None], dp[:, None, None], rs[:, None], mode,
                         purity_product=purities)
        for (i, j, k), phase in np.ndenumerate(grid.phase):
            point = summarize(dx[i], dp[i], rs[j], mode, purity_product=purities[k])
            assert phase == point.phase.value
            for name in ("r_crit", "s_crit", "e_mean", "e_amp"):
                value = np.broadcast_to(getattr(grid, name), grid.phase.shape)[i, j, k]
                assert value == getattr(point, name), name

    def test_a_grid_summary_checks_every_element(self):
        with pytest.raises(ValidationError, match="dispersions must be positive"):
            summarize(np.array([[1.0], [-1.0]]), np.array([[1.0], [1.0]]), np.zeros(3), UNIT)


class TestResourceConditions:
    """A coherent (r = 0, pure) input ends up entangled exactly where the mean
    E_mean = |r_crit| - S_crit of its asymptotic band is positive, with
    S_crit = (1/2) ln(2 dx+ dp+) at purity 1/2."""

    def test_balanced_equilibrium_never_entangles_coherent_input(self, rng):
        for _ in range(50):
            mode = ModeSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            dx = math.sqrt(0.5 / mode.xp_scale) * float(rng.uniform(1.0, 3.0))
            summary = summarize(dx, mode.xp_scale * dx, 0.0, mode)
            assert summary.r_crit == 0.0 and not summary.e_mean > 0.0

    def test_coherent_condition_equals_subvacuum_variance(self, rng):
        # E_mean > 0 at r = 0  <=>  |r_crit| > (1/2) ln(2 dx dp)  <=>  min scaled variance < 1/2
        for _ in range(200):
            mode = ModeSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            dx = float(rng.uniform(0.3, 2.0))
            dp = max(float(rng.uniform(0.3, 2.0)), 0.5 / dx)
            s = mode.xp_scale
            subvacuum = min(s * dx**2, dp**2 / s) < 0.5
            assert (summarize(dx, dp, 0.0, mode).e_mean > 0.0) == subvacuum


def _pure_minus(mode):
    dx = math.sqrt(0.5 / mode.xp_scale)
    return dx, 0.5 / dx


class TestRenormalizedFrequencies:
    def test_trivial(self):
        # without a bath the bare constants are the virtual frequencies
        from entbath.bathsim import FullModel

        free = OhmicSpectralDensity(gamma0=0.0, cutoff=20.0)
        model = FullModel.bare(free, 8, 0.0, omega0=1.0)
        assert (model.omega_plus_dressed, model.minus_mode.frequency) == (1.0, 1.0)

    def test_bare_coupling_zero_still_couples(self):
        # the static bath shift acts on the (+) mode only, so a vanishing bare
        # c12 leaves the virtual frequencies split by Omega+^2 - omega-^2 = d(omega^2)
        from entbath.bathsim import FullModel

        model = FullModel.bare(DENSITY, 8, 0.0, omega0=2.0)
        dos = DENSITY.delta_omega_sq
        assert model.minus_mode.frequency == 2.0
        assert model.omega_plus_dressed**2 - model.minus_mode.frequency**2 == pytest.approx(
            dos, rel=1e-12
        )

    def test_static_shift_value_against_quadrature(self):
        # delta omega^2 = -(2/m) int J/w dw
        numeric, _ = quad(lambda w: DENSITY.j(w) / w, 1e-12, 20.0)
        want = -2.0 * numeric / DENSITY.mass
        assert DENSITY.delta_omega_sq == pytest.approx(want, rel=1e-9)
        assert DENSITY.delta_omega_sq == pytest.approx(-4 * 0.1 * 20 / math.pi, rel=1e-12)


class TestStationarySymmetric:
    def test_zero_temperature_gives_pure_balanced_state(self):
        from entbath.bathsim import FullModel
        from entbath.rwa import extract_coefficients, solve_amplitude

        model = FullModel.renormalized(DENSITY, 320, 0.0, omega_r=1.0,
                                       coupling_type="symmetric")
        dt = 0.05 / 20.0
        times = np.arange(0.0, 30.0 + dt / 2, dt)
        trace = extract_coefficients(
            solve_amplitude(model.bath, model.omega_plus_bare, times)
        )
        dx, dp = stationary_variances_symmetric(trace, model.mass * model.omega0)
        assert dx * dp == pytest.approx(0.5, abs=1e-3)
        assert dp / (model.mass * model.omega0 * dx) == pytest.approx(1.0, abs=1e-12)


class TestStationaryVariancesPosition:
    def test_many_temperatures_are_the_one_temperature_calls(self):
        temperatures = [0.0, -0.0, 0.05, 1.0, 10.0, -1.0, 1e-300]
        batch = stationary_variances_position(DENSITY, 1.0, temperatures)
        for t, outcome in zip(temperatures, batch):
            if t < 0.0:  # errs only its own temperature
                assert isinstance(outcome, ValidationError)
                continue
            health = {}
            dx, dp = stationary_variances_position(DENSITY, 1.0, t, diagnostics=health)
            assert outcome == (dx, dp, health["quad_error"])
        assert batch[0] == batch[1]  # T = -0.0 is T = 0
        with pytest.raises(ValidationError):
            stationary_variances_position(DENSITY, 1.0, -1.0)

    def test_weak_coupling_ground_state_is_nearly_pure(self):
        weak = OhmicSpectralDensity(gamma0=0.01, cutoff=20.0)
        dx, dp = stationary_variances_position(weak, 1.0, 0.0)
        assert dx * dp == pytest.approx(0.5, rel=0.02)

    def test_high_temperature_equipartition(self):
        dx, dp = stationary_variances_position(DENSITY, 1.0, 10.0)
        assert dp**2 == pytest.approx(10.0, rel=0.05)
        assert dx**2 == pytest.approx(10.0, rel=0.05)  # omega_plus = 1

    def test_zero_temperature_squeezing_matches_mode_squeezing(self):
        # the equilibrium state of the position-coupled oscillator is squeezed:
        # its r_crit is reproduced by the generic squeezing formula
        dx, dp = stationary_variances_position(DENSITY, 1.0, 0.0)
        assert min(dx**2, dp**2) < 0.5
        rc = r_crit(dx, dp, UNIT)
        assert abs(rc) > 0.0
        assert mode_squeezing(dx, dp, UNIT) == pytest.approx(rc, abs=1e-6)

    def test_coherent_flag_agrees_with_direct_simulation(self):
        # a positive E_mean at r = 0 claims a coherent input ends up entangled
        # at T = 0; verify against the exact simulation of a coherent-product state
        from entbath.bathsim import FullModel, entanglement_trajectory, initial_state

        dx, dp = stationary_variances_position(DENSITY, 1.0, 0.0)
        rc = r_crit(dx, dp, UNIT)
        sc = s_crit(dx, dp, *_pure_minus(UNIT))
        coherent_entangles = summarize(dx, dp, 0.0, UNIT).e_mean > 0.0
        assert coherent_entangles  # subvacuum x-variance at T = 0

        model = FullModel.renormalized(DENSITY, 450, 0.0, omega_r=1.0)
        state = initial_state(model, "coherent-product")
        times = np.linspace(45.0, 45.0 + 2 * math.pi, 200)
        _, energies = entanglement_trajectory(model, state, times)
        assert (energies.max() > 1e-4) == coherent_entangles
        assert energies.max() == pytest.approx(max(0.0, abs(rc) - sc), abs=5e-3)

    def test_requires_damping_and_in_band_frequency(self):
        free = OhmicSpectralDensity(gamma0=0.0, cutoff=20.0)
        with pytest.raises(ValidationError):
            stationary_variances_position(free, 1.0, 1.0)
        with pytest.raises(ParameterRegimeError):
            stationary_variances_position(DENSITY, 25.0, 1.0)

    @pytest.mark.parametrize("gamma0", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("omega_plus", [math.sqrt(0.5), 1.0, 15.0])
    def test_agrees_with_adaptive_quadrature(self, gamma0, omega_plus):
        # reference: adaptive quad over the fluctuation-dissipation integrand
        density = OhmicSpectralDensity(gamma0=gamma0, cutoff=20.0, mass=1.0)
        lam = density.cutoff
        for temperature in (0.0, 0.05, 1.0, 10.0):
            anchors = [0.5 * omega_plus, 2.0 * omega_plus, 0.5 * lam, 0.999 * lam]
            anchors += [omega_plus + k * gamma0 for k in (-12.0, -3.0, 0.0, 3.0, 12.0)]
            if temperature > 0.0:
                anchors.append(min(2.0 * temperature, 0.9 * lam))
            points = sorted({a for a in anchors if 0.0 < a < lam})

            def integrand(w, power):
                coth = 1.0 if temperature == 0.0 else 1.0 / math.tanh(w / (2.0 * temperature))
                chi = float(ohmic_susceptibility_im(w, density, omega_plus))
                return w**power * coth * chi / math.pi

            want = [
                math.sqrt(quad(integrand, 0.0, lam, args=(power,), points=points,
                               limit=500, epsrel=1e-12, epsabs=0.0)[0])
                for power in (0, 2)
            ]
            got = stationary_variances_position(density, omega_plus, temperature)
            assert got[0] == pytest.approx(want[0], rel=1e-8)
            assert got[1] == pytest.approx(want[1], rel=1e-8)

    def test_error_estimate_raises(self, monkeypatch):
        # a coarse rule that disagrees with the fine one by 1e-4 must fail the
        # 1e-5 accuracy check
        from entbath import asymptotics

        fine, (nodes, weights) = asymptotics._position_rules(DENSITY, 1.0)
        off = (fine, (nodes, weights * (1.0 + 1e-4)))
        monkeypatch.setattr(asymptotics, "_position_rules", lambda density, omega: off)
        with pytest.raises(NumericsError):
            stationary_variances_position(DENSITY, 1.0, 1.0)


def _symmetric_model(gamma0=0.1, c12=0.0, temperature=0.0, modes=10):
    density = OhmicSpectralDensity(gamma0=gamma0, cutoff=20.0, mass=1.0)
    model = FullModel.renormalized(
        density, modes, temperature, omega_r=1.0, c12=c12, coupling_type="symmetric"
    )
    return density, model


def _ladder(density, model, temperature, **kwargs):
    return stationary_variances_ladder(
        density, model.omega_plus_bare, model.omega0, model.omega_plus_dressed, temperature,
        **kwargs,
    )


class TestStationaryVariancesLadder:
    @pytest.mark.parametrize("temperature", [0.05, 10.0])
    def test_agrees_with_coefficient_trace(self, temperature):
        # the independent route: D/gamma off a 40-time-unit exact coefficient trace
        from entbath.rwa import extract_coefficients, solve_amplitude

        density, model = _symmetric_model(temperature=temperature, modes=320)
        dt = 0.05 / density.cutoff
        times = np.arange(0.0, 40.0 + dt / 2, dt)
        trace = extract_coefficients(solve_amplitude(model.bath, model.omega_plus_bare, times))
        want = stationary_variances_symmetric(trace, model.mass * model.omega0)
        got = _ladder(density, model, temperature)
        assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("gamma0, c12", [(0.5, 0.0), (0.1, -0.5)])
    def test_agrees_with_exact_simulation(self, gamma0, c12):
        # gamma0 = 0.5, T = 1 is a point where the trace route does not settle
        density, model = _symmetric_model(gamma0, c12, temperature=1.0, modes=1000)
        want = equilibrium_variances_sim(model)
        assert _ladder(density, model, 1.0) == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("gamma0", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_sum_rule(self, gamma0):
        density, model = _symmetric_model(gamma0)
        args = (density, model.omega_plus_bare, model.omega0)
        omega_b, z = ladder_bound_state(*args)
        # adaptive quadrature of A, independent of the fixed-node rule
        peak = model.omega_plus_dressed
        points = [peak + k * gamma0 for k in (-8.0, -1.0, 0.0, 1.0, 8.0)] + [10.0, 19.0, 19.99]
        area = quad(lambda w: float(ladder_spectral_function(w, *args)), 0.0, 20.0,
                    points=sorted(p for p in points if 0.0 < p < 20.0),
                    limit=500, epsabs=1e-13, epsrel=1e-13)[0]
        assert area + z == pytest.approx(1.0, abs=1e-9)
        health = {}
        _ladder(density, model, 1.0, diagnostics=health)
        assert health["bound_weight"] == z
        assert abs(health["sum_rule_residual"]) <= 1e-9
        assert 0.0 < health["quad_error"] < 1e-7

    @pytest.mark.parametrize("gamma0", [0.01, 0.1, 0.5])
    def test_bound_state_solves_its_pole_equation(self, gamma0):
        density, model = _symmetric_model(gamma0)
        lam, wp, w0 = density.cutoff, model.omega_plus_bare, model.omega0
        omega_b, z = ladder_bound_state(density, wp, w0)
        d = omega_b - lam
        pref = 4.0 * gamma0 / (math.pi * w0)

        def shift_out(d):  # Delta_out at w = L + d, written in d: L + d loses d
            return pref * (-lam + (lam + d) * math.log((lam + d) / d))

        if gamma0 == 0.01:
            assert z < 1e-30  # d ~ 1e-32: omega_b rounds onto the cutoff
        else:
            assert lam + d - wp - shift_out(d) == pytest.approx(0.0, abs=1e-12 * omega_b)
            h = 1e-4 * d
            slope = (shift_out(d + h) - shift_out(d - h)) / (2.0 * h)
            assert z == pytest.approx(1.0 / (1.0 - slope), rel=1e-6)

    def test_zero_temperature_state_is_pure_and_balanced(self):
        density, model = _symmetric_model(0.2)
        dx, dp = _ladder(density, model, 0.0)
        assert dx * dp == pytest.approx(0.5, rel=1e-12)
        assert dp / (model.mass * model.omega0 * dx) == pytest.approx(1.0, rel=1e-12)

    def test_error_estimate_raises(self, monkeypatch):
        from entbath import asymptotics

        density, model = _symmetric_model(0.1)
        (fine, (nodes, weights)), z, residual = asymptotics._ladder_rules(
            density, model.omega_plus_bare, model.omega0, model.omega_plus_dressed
        )
        off = ((fine, (nodes, weights * (1.0 + 1e-4))), z, residual)
        monkeypatch.setattr(asymptotics, "_ladder_rules", lambda *args: off)
        with pytest.raises(NumericsError):
            _ladder(density, model, 1.0)

    def test_coarse_panels_fail_the_sum_rule(self, monkeypatch):
        from entbath import asymptotics

        density, model = _symmetric_model(0.3)
        monkeypatch.setattr(
            asymptotics, "_panel_edges", lambda density, centre: np.array([0.0, density.cutoff])
        )
        with pytest.raises(NumericsError, match="sum rule"):
            _ladder(density, model, 1.0)

    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    @pytest.mark.parametrize("gamma0", [1.1e-308, 1.0089810878910963e-222, 5e-324, 2e-17])
    def test_rejects_a_resonance_narrower_than_the_doubles(self, coupling, gamma0, tmp_path):
        # (pi J)^2 underflowed and the Lorentzian divided by zero: exit 5 under
        # -W error::RuntimeWarning at 1.1e-308 (symmetric) and 1e-222 (position)
        density = OhmicSpectralDensity(gamma0=gamma0, cutoff=20.0)
        with pytest.raises(ParameterRegimeError, match="narrower than the spacing of doubles"):
            if coupling == "position":
                stationary_variances_position(density, 1.0, 1.0)
            else:
                stationary_variances_ladder(density, 1.0, 1.0, 1.0, 1.0)
        (tmp_path / "weak.cfg").write_text(
            f"[model]\ncoupling = {coupling}\nomega_r = 1.0\n"
            f"[bath]\ngamma0 = {gamma0!r}\ncutoff = 20.0\ntemperature = 1.0\n")
        assert main(["phase-diagram", "--config", str(tmp_path / "weak.cfg"),
                     "--out", str(tmp_path / "o")]) == 0
        assert "errors 1 of 1 points" in (tmp_path / "o" / "phase_diagram.csv").read_text()

    def test_accepts_a_resonance_just_wider_than_the_doubles(self):
        # no RuntimeWarning (an error in tier-1): the quadrature's own checks decide
        density = OhmicSpectralDensity(gamma0=1e-15, cutoff=20.0)
        with pytest.raises(NumericsError, match="sum rule"):
            stationary_variances_ladder(density, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(NumericsError, match="quadrature failed"):
            stationary_variances_position(density, 1.0, 1.0)

    def test_rejects_free_bath_and_level_pulled_below_zero(self):
        free, model = _symmetric_model(0.0)
        with pytest.raises(ValidationError):
            _ladder(free, model, 1.0)
        density = OhmicSpectralDensity(gamma0=0.5, cutoff=20.0)
        # 4 gamma0 L / (pi omega0) = 12.7 >= omega_plus
        with pytest.raises(ParameterRegimeError):
            stationary_variances_ladder(density, 5.0, 1.0, 5.0, 1.0)


def _bound_state_brentq(density, omega_plus, omega0):
    """(omega_b, Z, d) from scipy's brentq on the gap in ln d, with float overflow of L/d."""
    lam = density.cutoff
    pref = 4.0 * density.gamma0 / (math.pi * omega0)

    def gap(u):
        d = math.exp(u)
        return lam + d - omega_plus - pref * (-lam + (lam + d) * math.log1p(lam / d))

    lo, hi = math.log(5e-324), math.log(omega_plus + pref * lam)
    d = math.exp(lo if gap(lo) >= 0.0 else brentq(gap, lo, hi, xtol=1e-15, rtol=1e-15))
    return lam + d, 1.0 / (1.0 - pref * (math.log1p(lam / d) - lam / d)), d


class TestLadderBoundStateRoot:
    GRID = list(itertools.product([1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0], [5.0, 10.0, 20.0, 50.0],
                                  [0.2, 0.5, 1.0, 2.0, 4.0], [0.5, 1.0, 2.0]))

    @pytest.fixture
    def roots(self, monkeypatch):
        """(gap, ln d) of every bisection that ``ladder_bound_state`` runs."""
        from entbath import asymptotics

        calls = []
        bisect = asymptotics._rising_root

        def recorded(f, lo, hi):
            calls.append((f, bisect(f, lo, hi)))
            return calls[-1][1]

        monkeypatch.setattr(asymptotics, "_rising_root", recorded)
        return calls

    def test_matches_brentq_and_brackets_a_sign_change(self, roots):
        overflowed = 0
        for gamma0, lam, wp, w0 in self.GRID:
            density = OhmicSpectralDensity(gamma0, lam)
            omega_b, z = ladder_bound_state(density, wp, w0)
            gap, u = roots[-1]
            want_b, want_z, want_d = _bound_state_brentq(density, wp, w0)
            assert abs(omega_b - want_b) <= 1e-15 * want_b
            if lam / want_d > 1e308:
                # below d = L/DBL_MAX, L/d overflowed and brentq's gap read -inf, so its root
                # sits at that edge; the bisection runs on past it to Z = 0
                overflowed += 1
                assert z == 0.0 and want_z < 1e-300
            else:
                assert abs(z - want_z) <= 1e-12 * want_z
            if math.exp(u) == 5e-324:
                assert gap(u) >= 0.0 and z == 0.0  # the root lies below the smallest double
            else:
                down, up = (gap(math.nextafter(u, side)) for side in (-math.inf, math.inf))
                assert down < 0.0 <= gap(u) or gap(u) < 0.0 <= up
        assert len(roots) == len(self.GRID) == 420 and overflowed == 30

    def test_weak_coupling_gives_the_smallest_double(self, roots):
        omega_b, z = ladder_bound_state(OhmicSpectralDensity(1e-3, 50.0), 0.2, 2.0)
        assert math.exp(roots[-1][1]) == 5e-324
        assert omega_b == 50.0 and z == 0.0
