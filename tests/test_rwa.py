import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entbath import bathsim
from entbath.bathsim import _TIME_CHUNK, FullModel, evolve, initial_state
from entbath.cli import _time_grid, main
from entbath.config import load_config
from entbath.errors import ValidationError
from entbath.gaussian import BEAM_SPLITTER
from entbath.rwa import (
    CoefficientTrace,
    evolve_moments_me,
    extract_coefficients,
    solve_amplitude,
)
from entbath.spectra import _BLOCK, OhmicSpectralDensity, discretize
from oracles import (
    amplitude_rows,
    plus_variance_series,
    row_route_coefficients,
    solve_amplitude_stepping,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)


def ohmic_bath(n=200, temperature=0.0, gamma0=0.1, cutoff=20.0, scale=1.0):
    return discretize(
        OhmicSpectralDensity(gamma0=gamma0, cutoff=cutoff), n, temperature,
        ladder_scale=scale,
    )


def grid(t_max, cutoff=20.0):
    dt = 0.05 / cutoff
    return np.arange(0.0, t_max + dt / 2, dt)


class TestAmplitude:
    def test_free_limit_rotates_as_printed(self):
        bath = ohmic_bath(gamma0=0.0, n=50)
        times = grid(3.0)
        sol = solve_amplitude(bath, 1.3, times)
        assert np.allclose(sol.u, np.exp(1j * 1.3 * times), atol=1e-12)

    def test_single_resonant_mode_rabi_oscillation(self):
        # one bath mode exactly at the system frequency: |u| = |cos(g t)|
        bath = discretize(OhmicSpectralDensity(0.05, 2.0), 1, 0.0, ladder_scale=1.0)
        omega = bath.frequencies[0]
        g = bath.ladder_couplings[0]
        times = grid(2.0 * math.pi / g, cutoff=2.0)
        sol = solve_amplitude(bath, omega, times)
        assert np.allclose(np.abs(sol.u), np.abs(np.cos(g * times)), atol=1e-10)

    def test_unitarity_sum_rule(self):
        sol = solve_amplitude(ohmic_bath(n=200, temperature=1.0), 1.0, grid(15.0))
        assert np.abs(sol.unitarity_defect()).max() < 1e-8

    def test_commutator_constraint(self):
        sol = solve_amplitude(ohmic_bath(n=150), 1.0, grid(10.0))
        for t in (0.5, 3.0, 8.0):
            assert sol.constraint_residual(t) < 1e-8

    def test_decay_matches_exact_bath_mean(self):
        # |u(t)| equals the decay of |<a>(t)| from the full quadrature simulation
        model = FullModel.bare(DENSITY, 250, 0.0, omega0=4.0, coupling_type="symmetric")
        times = np.linspace(0.0, 18.0, 240)
        state = initial_state(model, "coherent-product",
                              mean=np.array([1.0, 0.2, 1.0, 0.2]) / math.sqrt(2.0))
        traj = evolve(model, state, times)
        means_virtual = np.array([BEAM_SPLITTER @ s.mean for s in traj.states])
        scale = model.mass * model.omega0
        a_mean = np.sqrt(scale / 2.0) * (
            means_virtual[:, 0] + 1j * means_virtual[:, 1] / scale
        )
        dt = 0.05 / 20.0
        fine = np.arange(0.0, 18.0 + dt / 2, dt)
        sol = solve_amplitude(model.bath, model.omega_plus_bare, fine)
        u_at = np.interp(times, fine, np.abs(sol.u))
        assert np.abs(u_at - np.abs(a_mean) / abs(a_mean[0])).max() < 1e-3

    def test_grid_validation(self):
        bath = ohmic_bath(n=40)
        with pytest.raises(ValidationError):
            solve_amplitude(bath, 1.0, np.arange(0.0, 5.0, 0.1))  # too coarse
        with pytest.raises(ValidationError):
            solve_amplitude(bath, 1.0, np.arange(1.0, 2.0, 0.002))  # misses t=0
        with pytest.raises(ValidationError, match="uniform"):  # the thermal grid's steps are equal
            solve_amplitude(bath, 1.0, np.r_[0.0, 0.001, np.arange(0.002, 1.0, 0.002)])

    def test_stepping_solver_cross_check(self):
        bath = ohmic_bath(n=60, temperature=0.0)
        times = grid(8.0)
        u_spectral = solve_amplitude(bath, 1.0, times).u
        u_stepped = solve_amplitude_stepping(bath, 1.0, times)
        assert np.abs(u_stepped - u_spectral).max() < 5e-3
        # trapezoidal error shrinks quadratically with the step
        fine = np.arange(0.0, 8.0 + 6.25e-4, 1.25e-3)
        err_fine = np.abs(
            solve_amplitude_stepping(bath, 1.0, fine)
            - solve_amplitude(bath, 1.0, fine).u
        ).max()
        assert err_fine < 1e-3


class TestCoefficients:
    def test_zero_coupling_gives_zero_coefficients(self):
        trace = extract_coefficients(solve_amplitude(ohmic_bath(gamma0=0.0, n=50), 1.0, grid(3.0)))
        assert np.allclose(trace.gamma, 0.0, atol=1e-14)
        assert np.allclose(trace.diffusion, 0.0, atol=1e-14)
        assert np.allclose(trace.delta_omega2, 0.0, atol=1e-12)

    def test_zero_temperature_identity(self):
        trace = extract_coefficients(solve_amplitude(ohmic_bath(n=200, temperature=0.0), 1.0, grid(12.0)))
        stop = trace.valid_until_index
        assert np.abs(trace.diffusion[:stop] - trace.gamma[:stop]).max() < 1e-6

    def test_gamma_matches_amplitude_log_derivative(self):
        # independent oracle: gamma = -(1/2) d ln|u| / dt
        times = grid(10.0)
        sol = solve_amplitude(ohmic_bath(n=200, temperature=2.0), 1.0, times)
        trace = extract_coefficients(sol)
        logmod = np.log(np.abs(sol.u))
        fd = -0.5 * np.gradient(logmod, times)
        inner = (times > 2.0) & (times < 8.0)
        assert np.abs(fd[inner] - trace.gamma[inner]).max() < 1e-4

    @pytest.mark.parametrize("temperature", [0.0, 1.0, 10.0])
    def test_diffusion_matches_the_double_sum(self, temperature):
        # oracle: the contracted double sum with its (w - w_l)|p_l|^2 term kept,
        # which is real and drops out of the imaginary part, over the dense
        # rows; the bound is the route tolerance against them
        bath = ohmic_bath(n=300, temperature=temperature)
        times = grid(15.0)
        g, weight = bath.ladder_couplings, 2.0 * bath.occupations + 1.0
        want = np.concatenate([
            0.5 * (np.imag((g * u[:, None] - (1.0 - bath.frequencies) * p) * p.conj()) @ weight
                   - np.imag((p @ g) / u) * (np.abs(p) ** 2 @ weight))
            for _, u, p in amplitude_rows(bath, 1.0, times)
        ])
        got = extract_coefficients(solve_amplitude(bath, 1.0, times)).diffusion
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_coefficients_match_the_dense_row_route(self):
        # fig2_right's model on its coeffs grid (N = 1000, 20,001 samples): every
        # written coefficient within 1e-10 of its column maximum of the route
        # through the dense eigenvectors and the (T x N) bath amplitudes
        config = load_config(CONFIGS / "fig2_right.cfg")
        model = config.build_model()
        times = _time_grid(config.t_max, config.dt)
        baths = [dataclasses.replace(model.bath, temperature=t) for t in (0.0, 1.0)]
        for bath, want in zip(baths, row_route_coefficients(baths, model.omega_plus_bare, times)):
            trace = extract_coefficients(solve_amplitude(bath, model.omega_plus_bare, times))
            stop = trace.valid_until_index
            assert stop > 0.9 * times.size
            for got, ref in zip((trace.gamma, trace.delta_omega2, trace.diffusion), want):
                assert np.abs(got[:stop] - ref[:stop]).max() <= 1e-10 * np.abs(ref[:stop]).max()

    def test_a_corrupted_eigenvector_fails_unitarity(self, monkeypatch, tmp_path):
        # bath entry 5 of every normal mode off by 1e-3: |u|^2 + Q_0 - 1, with Q_0
        # integrated from its rate, leaves 1e-8 behind (the drift of Q_0 from
        # its direct sum at the last time and the commutator would fire too)
        solve = bathsim.arrowhead_eigh

        def corrupted(*args):
            modes = solve(*args)
            zhat = modes.zhat.copy()
            zhat[4] *= 1.0 + 1e-3
            return dataclasses.replace(modes, zhat=zhat)

        monkeypatch.setattr(bathsim, "arrowhead_eigh", corrupted)
        sol = solve_amplitude(ohmic_bath(n=300, temperature=1.0), 1.0, grid(20.0))
        with pytest.raises(ValidationError, match="unitarity"):
            extract_coefficients(sol)
        config = (CONFIGS / "fig2_right.cfg").read_text().replace("modes = 1000", "modes = 300")
        (tmp_path / "run.cfg").write_text(config + "\n[grid]\nt_max = 20.0\n")
        assert main(["coeffs", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")]) == 3

    def test_memory_is_blocks_and_samples_not_matrices(self):
        # O(N chunk + T): the thermal phase block of 2 N _TIME_CHUNK doubles and at
        # most as much again in node-sum temporaries (7 sums times at most 9
        # phases, complex, and their real split), 16 row blocks of the secular
        # solve and the products, and 128 doubles a sample.  The dense route
        # held the (N+1)^2 eigenvectors alone, 128 MB at N = 4000.
        n = 4000
        bath = ohmic_bath(n=n, temperature=1.0)
        times = grid(10.0)
        bound = 2 * (2 * n * _TIME_CHUNK * 8) + 16 * _BLOCK * 8 + 128 * 8 * times.size
        tracemalloc.start()
        try:
            trace = extract_coefficients(solve_amplitude(bath, 1.0, times))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound < 8 * (n + 1) ** 2
        assert trace.health["unitarity_defect"] < 1e-12


class TestMomentEvolution:
    def test_pure_rotation_without_coefficients(self):
        times = grid(4.0)
        trace = CoefficientTrace(
            times=times,
            gamma=np.zeros_like(times),
            delta_omega2=np.zeros_like(times),
            diffusion=np.zeros_like(times),
            omega=1.5, cutoff=20.0,
            amplitude_mod=np.ones_like(times),
        )
        moments = evolve_moments_me(trace, mean_a0=1.0 + 0.0j, sym_occupation0=3.0)
        assert np.allclose(moments.mean_a, np.exp(1.5j * times), atol=1e-12)
        assert np.allclose(moments.sym_occupation, 3.0, atol=1e-14)

    def test_stationary_value_is_coefficient_ratio(self):
        bath = discretize(OhmicSpectralDensity(0.05, 5.0), 280, 2.0, ladder_scale=1.0)
        trace = extract_coefficients(solve_amplitude(bath, 1.0, grid(40.0, cutoff=5.0)))
        assert trace.t_valid == trace.times[-1]  # whole grid usable
        moments = evolve_moments_me(trace, 0.0j, 9.0)
        late = slice(-400, None)
        ratio = (trace.diffusion[late] / trace.gamma[late]).mean()
        assert moments.sym_occupation[-1] == pytest.approx(ratio, rel=2e-3)

    @pytest.mark.parametrize(
        "gamma0,temperature", [(0.05, 0.0), (0.05, 10.0), (0.1, 1.0)]
    )
    def test_occupation_matches_exact_simulation(self, gamma0, temperature):
        # master-equation route against the full quadrature simulation
        density = OhmicSpectralDensity(gamma0=gamma0, cutoff=20.0, mass=1.0)
        model = FullModel.bare(
            density, 220, temperature, omega0=4.0, coupling_type="symmetric"
        )
        dt = 0.05 / 20.0
        times = np.arange(0.0, 15.0 + dt / 2, dt)
        trace = extract_coefficients(solve_amplitude(model.bath, model.omega_plus_bare, times))
        state = initial_state(model, "two-mode-squeezed", r=0.8)
        virt0 = BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T
        scale = model.mass * model.omega0
        occ0 = scale * virt0[0, 0] + virt0[1, 1] / scale
        moments = evolve_moments_me(trace, 0.0j, occ0)
        sample = np.linspace(0.0, 15.0, 40)
        traj = evolve(model, state, sample)
        vx, vp, _ = plus_variance_series(traj)
        occ_sim = scale * vx + vp / scale
        occ_me = np.interp(sample, times, moments.sym_occupation)
        assert np.abs(occ_me - occ_sim).max() / occ_sim.max() < 1e-3

    def test_grid_mismatch_rejected(self):
        times = grid(2.0)
        trace = CoefficientTrace(
            times=times, gamma=np.zeros_like(times), delta_omega2=np.zeros_like(times),
            diffusion=np.zeros_like(times), omega=1.0, cutoff=20.0,
            amplitude_mod=np.ones_like(times),
        )
        with pytest.raises(ValidationError):
            evolve_moments_me(trace, 0.0j, 1.0, times=times[:-2])
