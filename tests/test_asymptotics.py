import math

import numpy as np
import pytest
from scipy.integrate import quad

from entbath.asymptotics import (
    Phase,
    asymptotic_state,
    classify,
    envelope,
    envelope_band,
    ohmic_susceptibility_im,
    r_crit,
    renormalized_frequencies,
    resource_conditions,
    s_crit,
    stationary_variances_position,
    summarize,
)
from entbath.errors import NumericsError, ParameterRegimeError, ValidationError
from entbath.gaussian import ModeSpec, log_negativity, mode_squeezing
from entbath.spectra import OhmicSpectralDensity

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)
UNIT = ModeSpec(1.0, 1.0)


class TestCriticalQuantities:
    def test_r_crit_balanced_is_zero(self):
        assert r_crit(1.0, 1.0, UNIT) == 0.0

    def test_r_crit_two_routes_coincide(self):
        # the (+)-frequency split reassembles the same value for equal masses
        mode = ModeSpec(1.0, 1.3)
        for omega_plus in (0.7, 1.3, 2.1):
            direct = r_crit(0.8, 1.1, mode)
            split = r_crit(0.8, 1.1, mode, omega_plus=omega_plus, interacting=True)
            assert split == pytest.approx(direct, abs=1e-14)

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
        with pytest.raises(ValidationError):
            r_crit(1.0, 1.0, UNIT, interacting=True)  # needs omega_plus


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


class TestResourceConditions:
    def test_balanced_equilibrium_never_entangles_coherent_input(self):
        flags = resource_conditions(0.0, 0.0, 0.3, 1.0, 1.0)
        assert not flags.coherent_entangles

    def test_coherent_condition_equals_subvacuum_variance(self, rng):
        # |r_crit| > (1/2) ln(2 dx dp)  <=>  min scaled variance < 1/2
        for _ in range(200):
            mode = ModeSpec(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            dx = float(rng.uniform(0.3, 2.0))
            dp = max(float(rng.uniform(0.3, 2.0)), 0.5 / dx)
            rc = r_crit(dx, dp, mode)
            sc = s_crit(dx, dp, *_pure_minus(mode))
            flags = resource_conditions(0.0, rc, sc, dx, dp)
            s = mode.xp_scale
            subvacuum = min(s * dx**2, dp**2 / s) < 0.5
            assert flags.coherent_entangles == subvacuum

    def test_amplification_inequality(self):
        assert resource_conditions(0.1, 1.5, 0.5, 1.0, 1.0).environment_amplifies
        assert not resource_conditions(0.6, 1.5, 0.5, 1.0, 1.0).environment_amplifies


def _pure_minus(mode):
    dx = math.sqrt(0.5 / mode.xp_scale)
    return dx, 0.5 / dx


class TestRenormalizedFrequencies:
    def test_trivial(self):
        f = renormalized_frequencies(1.0, 0.0, 0.0)
        assert (f.omega_plus, f.omega_minus, f.omega_r, f.c12_renorm) == (1.0, 1.0, 1.0, 0.0)

    def test_bare_coupling_zero_still_couples(self):
        dos = -1.2
        f = renormalized_frequencies(2.0, 0.0, dos)
        assert f.c12_renorm == pytest.approx(dos / 2.0)
        assert f.omega_minus == 2.0

    def test_static_shift_value_against_quadrature(self):
        # delta omega^2 = -(2/m) int J/w dw
        numeric, _ = quad(lambda w: DENSITY.j(w) / w, 1e-12, 20.0)
        want = -2.0 * numeric / DENSITY.mass
        assert DENSITY.delta_omega_sq == pytest.approx(want, rel=1e-9)
        assert DENSITY.delta_omega_sq == pytest.approx(-4 * 0.1 * 20 / math.pi, rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(ParameterRegimeError):
            renormalized_frequencies(1.0, 0.0, -1.5)


class TestStationarySymmetric:
    def test_zero_temperature_gives_pure_balanced_state(self):
        from entbath.bathsim import FullModel
        from entbath.rwa import extract_coefficients, solve_amplitude
        from entbath.asymptotics import stationary_variances_symmetric

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
        # the flag claims a coherent input ends up entangled at T = 0; verify
        # against the exact simulation of a coherent-product state
        from entbath.bathsim import FullModel, entanglement_trajectory, initial_state

        dx, dp = stationary_variances_position(DENSITY, 1.0, 0.0)
        rc = r_crit(dx, dp, UNIT)
        sc = s_crit(dx, dp, *_pure_minus(UNIT))
        flags = resource_conditions(0.0, rc, sc, dx, dp)
        assert flags.coherent_entangles  # subvacuum x-variance at T = 0

        model = FullModel.renormalized(DENSITY, 450, 0.0, omega_r=1.0)
        state = initial_state(model, "coherent-product")
        times = np.linspace(45.0, 45.0 + 2 * math.pi, 200)
        _, energies = entanglement_trajectory(model, state, times)
        assert (energies.max() > 1e-4) == flags.coherent_entangles
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
