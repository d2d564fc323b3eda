"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  All tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from entbath.asymptotics import (
    Phase,
    envelope_band,
    r_crit,
    stationary_variances_position,
    summarize,
)
from entbath.bathsim import FullModel, entanglement_trajectory, evolve, initial_state
from entbath.gaussian import (
    BEAM_SPLITTER,
    ModeSpec,
    log_negativity,
    physicality_defect,
    symplectic_form,
)
from entbath.rwa import evolve_moments_me, extract_coefficients, solve_amplitude
from entbath.spectra import OhmicSpectralDensity
from oracles import (
    dominant_frequency,
    equilibrium_variances_sim,
    full_propagator,
    plus_variance_series,
    stationary_variances_symmetric,
    two_mode_squeezed_state,
)

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)
UNIT = ModeSpec(1.0, 1.0)


def report(number, message):
    print(f"criterion {number}: PASS - {message}")


def test_criterion_01_gaussian_core_exactness():
    start = time.monotonic()
    for r in (0.5, 1.0, 3.0):
        value = log_negativity(two_mode_squeezed_state(r, UNIT))
        assert value == pytest.approx(2.0 * r, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"E_N(two-mode squeezed r) = 2r to 1e-9 for r in (0.5, 1, 3), {elapsed:.3f} s")


def test_criterion_02_symplectic_integrity():
    model = FullModel.renormalized(DENSITY, 1000, 10.0, omega_r=1.0, c12=0.0)
    state = initial_state(model, "two-mode-squeezed", r=3.0)
    times = np.arange(0.0, 100.0 + 0.025, 0.05)
    traj = evolve(model, state, times)

    worst_defect = 0.0
    for s in traj.states:
        scale = max(1.0, float(np.abs(s.cov).max()))
        worst_defect = min(worst_defect, physicality_defect(s.cov) / scale)
    assert worst_defect >= -1e-9

    j_full = symplectic_form(model.bath.n_modes + 2)
    worst_residual = 0.0
    for t in (0.05, 1.0, 33.0, 100.0):
        s_full = full_propagator(model, t)
        residual = np.abs(s_full @ j_full @ s_full.T - j_full).max()
        worst_residual = max(worst_residual, residual)
    assert worst_residual < 1e-8
    report(
        2,
        f"N=1000 t_max=100 run: symplectic residual {worst_residual:.2e} < 1e-8, "
        f"reduced physicality defect {worst_defect:.2e} >= -1e-9 at all "
        f"{len(traj.states)} steps",
    )


def test_criterion_03_appendix_identities():
    model = FullModel.bare(DENSITY, 500, 0.0, omega0=1.0, coupling_type="symmetric")
    dt = 0.05 / 20.0
    times = np.arange(0.0, 40.0 + dt / 2, dt)
    sol = solve_amplitude(model.bath, model.omega_plus_bare, times)

    unit_defect = float(np.abs(sol.unitarity_defect()).max())
    assert unit_defect < 1e-8

    constraint = max(sol.constraint_residual(t) for t in (0.5, 5.0, 15.0, 30.0, 40.0))
    assert constraint < 1e-8

    trace = extract_coefficients(sol)
    zero_t = float(np.abs(trace.diffusion - trace.gamma).max())
    assert zero_t < 1e-6
    report(
        3,
        f"unitarity defect {unit_defect:.2e} < 1e-8, commutator constraint "
        f"{constraint:.2e} < 1e-8, zero-T identity residual {zero_t:.2e} < 1e-6 "
        "(Ohmic gamma0=0.1, cutoff=20, N=500)",
    )


@pytest.mark.parametrize("temperature", [0.0, 1.0, 10.0])
def test_criterion_04_master_equation_exactness(temperature):
    model = FullModel.bare(DENSITY, 500, temperature, omega0=1.0, coupling_type="symmetric")
    horizon = model.validity_horizon
    dt = 0.05 / 20.0
    times = np.arange(0.0, horizon * 0.999, dt)
    trace = extract_coefficients(solve_amplitude(model.bath, model.omega_plus_bare, times))

    scale = model.mass * model.omega0
    mean0 = np.array([0.9, -0.4, 0.9, -0.4]) / math.sqrt(2.0)
    state = initial_state(model, "two-mode-squeezed", r=1.0, mean=mean0)
    virt0 = BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T
    m_virt0 = BEAM_SPLITTER @ mean0
    occ0 = (
        scale * (virt0[0, 0] + m_virt0[0] ** 2)
        + (virt0[1, 1] + m_virt0[1] ** 2) / scale
    )
    a0 = math.sqrt(scale / 2.0) * (m_virt0[0] + 1j * m_virt0[1] / scale)
    moments = evolve_moments_me(trace, a0, occ0)

    sample = np.linspace(0.5, horizon * 0.99, 60)
    traj = evolve(model, state, sample)
    vx, vp, _ = plus_variance_series(traj)
    means_virt = np.array([BEAM_SPLITTER @ s.mean for s in traj.states])
    occ_sim = (
        scale * (vx + means_virt[:, 0] ** 2) + (vp + means_virt[:, 1] ** 2) / scale
    )
    a_sim = np.sqrt(scale / 2.0) * (means_virt[:, 0] + 1j * means_virt[:, 1] / scale)

    occ_me = np.interp(sample, times, moments.sym_occupation)
    rel_occ = float(np.abs(occ_me - occ_sim).max() / np.abs(occ_sim).max())
    a_me = np.interp(sample, times, np.abs(moments.mean_a))
    rel_a = float(np.abs(a_me - np.abs(a_sim)).max() / np.abs(a_sim).max())
    assert rel_occ < 1e-3
    assert rel_a < 1e-3
    report(
        4,
        f"T={temperature}: master-equation moments match the exact simulation to "
        f"{max(rel_occ, rel_a):.2e} (< 1e-3) for t < T_rec/2",
    )


def test_criterion_05_balanced_variance_law():
    model = FullModel.renormalized(
        DENSITY, 500, 10.0, omega_r=1.0, coupling_type="symmetric"
    )
    mass_omega = model.mass * model.omega0

    dx_sim, dp_sim = equilibrium_variances_sim(model)
    balance = dp_sim / (mass_omega * dx_sim)
    assert balance == pytest.approx(1.0, abs=1e-3)

    dt = 0.05 / 20.0
    times = np.arange(0.0, 40.0 + dt / 2, dt)
    trace = extract_coefficients(solve_amplitude(model.bath, model.omega_plus_bare, times))
    dx_pred, dp_pred = stationary_variances_symmetric(trace, mass_omega)
    assert dx_pred == pytest.approx(dx_sim, rel=2e-3)
    assert dp_pred == pytest.approx(dp_sim, rel=2e-3)

    rc = r_crit(dx_pred, dp_pred, model.minus_mode)
    assert abs(rc) < 1e-9

    phases = set()
    for temperature in (0.5, 2.0, 6.0, 10.0):
        t_model = FullModel.renormalized(
            DENSITY, 400, temperature, omega_r=1.0, coupling_type="symmetric"
        )
        tr = extract_coefficients(
            solve_amplitude(t_model.bath, t_model.omega_plus_bare, times)
        )
        dxt, dpt = stationary_variances_symmetric(tr, t_model.mass * t_model.omega0)
        for r in (0.0, 0.75, 1.5, 3.0):
            summary = summarize(dxt, dpt, r, t_model.minus_mode)
            phases.add(summary.phase)
    assert phases == {Phase.NSD, Phase.SD}
    report(
        5,
        f"sim balance dp/(M Omega dx) = {balance:.6f} (1e-3), predictor r_crit = "
        f"{rc:.1e} (< 1e-9), sweep phases = {sorted(p.value for p in phases)}",
    )


def _position_summary(temperature, r, c12=0.0, purity=0.5):
    omega_plus = math.sqrt(1.0 + c12)
    omega_minus = math.sqrt(1.0 - c12)
    dx, dp = stationary_variances_position(DENSITY, omega_plus, temperature)
    return summarize(dx, dp, r, ModeSpec(1.0, omega_minus), purity_product=purity)


def _simulate_late_entanglement(temperature, r, c12=0.0, purity=0.5, kind="two-mode-squeezed"):
    t_eq = 40.0
    omega_minus = math.sqrt(1.0 - c12)
    window = 3.0 * math.pi / omega_minus
    n_modes = int(math.ceil(1.1 * (t_eq + window) * 20.0 / math.pi))
    model = FullModel.renormalized(DENSITY, n_modes, temperature, omega_r=1.0, c12=c12)
    state = initial_state(model, kind, r=r, purity_product=purity)
    times = np.linspace(t_eq, t_eq + window, 420)
    _, energies = entanglement_trajectory(model, state, times)
    return energies


def test_criterion_06_envelope_prediction():
    candidates = [
        (0.5, 1.0), (0.5, 2.5), (2.0, 1.5), (4.0, 0.2), (6.0, 0.4),
        (8.0, 2.6), (10.0, 0.5),
    ]
    chosen = []
    for temperature, r in candidates:
        summary = _position_summary(temperature, r)
        lo = abs(abs(summary.r) - abs(summary.r_crit)) - summary.s_crit
        hi = abs(summary.r) + abs(summary.r_crit) - summary.s_crit
        if min(abs(lo), abs(hi)) >= 0.1:
            chosen.append((temperature, r, summary))
        if len(chosen) == 5:
            break
    assert len(chosen) == 5
    labels = {s.phase for _, _, s in chosen}
    assert len(labels) >= 2

    worst = 0.0
    for temperature, r, summary in chosen:
        energies = _simulate_late_entanglement(temperature, r)
        lo_band, hi_band = envelope_band(summary.e_mean, summary.e_amp)
        deviation = max(abs(energies.max() - hi_band), abs(energies.min() - lo_band))
        worst = max(worst, deviation)
        assert deviation < 5e-2
        sim_label = (
            Phase.NSD if energies.min() > 1e-9
            else Phase.SD if energies.max() <= 1e-9
            else Phase.SDR
        )
        assert sim_label is summary.phase
    report(
        6,
        f"5 off-boundary points, labels {sorted(p.value for p in labels)}: "
        f"simulated envelope within {worst:.3f} (< 0.05), labels agree 100%",
    )


def test_criterion_07_mixed_state_shift():
    plateaus = {}
    for purity in (0.5, 1.0):
        model = FullModel.renormalized(DENSITY, 500, 10.0, omega_r=1.0)
        state = initial_state(model, "squeezed-product", r=3.0, purity_product=purity)
        omega_minus = model.minus_mode.frequency
        times = np.linspace(50.0, 50.0 + 4.0 * math.pi / omega_minus, 300)
        _, energies = entanglement_trajectory(model, state, times)
        plateaus[purity] = float(energies.mean())
    shift = plateaus[0.5] - plateaus[1.0]
    assert shift == pytest.approx(math.log(2.0) / 2.0, abs=2e-2)
    report(
        7,
        f"plateau difference between pure and dx-*dp- = 1 runs: {shift:.4f} "
        f"vs ln(2)/2 = {math.log(2.0) / 2.0:.4f} (2e-2)",
    )


def test_criterion_08_interacting_high_temperature_oscillations():
    summary = _position_summary(10.0, 3.0, c12=-0.5)
    assert summary.e_amp > 0.05

    energies = _simulate_late_entanglement(10.0, 3.0, c12=-0.5)
    sim_amp = 0.5 * (energies.max() - energies.min())
    assert sim_amp > 0.02
    assert sim_amp == pytest.approx(summary.e_amp, abs=5e-2)

    top_row = [_position_summary(10.0, r, c12=-0.5).phase for r in np.linspace(0.0, 3.0, 13)]
    assert Phase.SDR in top_row
    report(
        8,
        f"C12=-0.5, T=10: predicted amplitude {summary.e_amp:.3f}, simulated "
        f"{sim_amp:.3f} (> 0), SDR present in the top-temperature row",
    )


def _fitted_late_frequency(model, r=3.0):
    times = np.linspace(30.0, 55.0, 1400)
    state = initial_state(model, "two-mode-squeezed", r=r)
    _, energies = entanglement_trajectory(model, state, times)
    return dominant_frequency(times, energies)


def test_criterion_09_cutoff_dependence():
    renormalized = []
    bare = []
    for cutoff in (10.0, 20.0, 40.0):
        density = OhmicSpectralDensity(gamma0=0.1, cutoff=cutoff, mass=1.0)
        n_modes = int(math.ceil(1.1 * 56.0 * cutoff / math.pi))
        model = FullModel.renormalized(density, n_modes, 10.0, omega_r=1.0, c12=-0.5)
        renormalized.append(_fitted_late_frequency(model))
        omega0 = math.sqrt(9.0 - density.delta_omega_sq / 2.0)
        model_bare = FullModel.bare(density, n_modes, 10.0, omega0=omega0, c12=0.0)
        bare.append(_fitted_late_frequency(model_bare))

    renorm_spread = (max(renormalized) - min(renormalized)) / np.mean(renormalized)
    bare_spread = (max(bare) - min(bare)) / np.mean(bare)
    assert renorm_spread < 0.01
    assert bare_spread > 0.05
    assert bare[0] < bare[1] < bare[2]
    report(
        9,
        f"renormalized late frequency spread {renorm_spread:.3%} (< 1%), bare "
        f"spread {bare_spread:.3%} (> 5%, monotone in the cutoff)",
    )


def test_criterion_10_equilibrium_cross_check():
    worst = 0.0
    for temperature in (0.0, 10.0):
        for gamma0 in (0.05, 0.1):
            density = OhmicSpectralDensity(gamma0=gamma0, cutoff=20.0, mass=1.0)
            model = FullModel.renormalized(density, 1200, temperature, omega_r=1.0)
            dx_sim, dp_sim = equilibrium_variances_sim(model)
            dx_fdt, dp_fdt = stationary_variances_position(density, 1.0, temperature)
            rel = max(abs(dx_fdt / dx_sim - 1.0), abs(dp_fdt / dp_sim - 1.0))
            worst = max(worst, rel)
            assert rel < 0.01
            if temperature == 10.0:
                assert dp_sim**2 == pytest.approx(temperature, rel=0.05)
    report(
        10,
        f"fluctuation-dissipation vs simulated equilibrium within {worst:.2%} "
        "(< 1%) over (T, gamma0) in {0,10}x{0.05,0.1}; high-T momentum variance "
        "within 5% of equipartition",
    )
