import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from entbath import bathsim
from entbath.bathsim import FullModel, entanglement_trajectory, evolve, initial_state
from entbath.cli import main
from entbath.config import load_config
from entbath.errors import HorizonError, NumericsError, ParameterRegimeError, ValidationError
from entbath.gaussian import (
    BEAM_SPLITTER,
    SYMPLECTIC_FORM,
    ModeSpec,
    log_negativity,
    physicality_defect,
    squeezed_cov,
    symplectic_form,
)
from entbath.spectra import OhmicSpectralDensity
from oracles import (
    build_generator,
    equilibrium_variances_sim,
    full_initial_covariance,
    full_propagator,
    hamiltonian_matrix,
    plus_variance_series,
    row_route_blocks,
    state_from_virtual_blocks,
)

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)


def small_model(coupling="position", n=24, temperature=1.5, c12=0.0, renorm=True):
    if renorm:
        return FullModel.renormalized(DENSITY, n, temperature, omega_r=1.0, c12=c12,
                                      coupling_type=coupling)
    return FullModel.bare(DENSITY, n, temperature, omega0=3.0, c12=c12,
                          coupling_type=coupling)


class TestGenerator:
    def test_free_limit_block_diagonal(self):
        free = OhmicSpectralDensity(gamma0=0.0, cutoff=20.0)
        model = FullModel.renormalized(free, 6, 0.0, omega_r=1.3)
        a = build_generator(model)
        sys_block = a[:4, :4]
        a_offdiag = a.copy()
        a_offdiag[:4, :4] = 0.0
        for k in range(6):
            a_offdiag[4 + 2 * k : 6 + 2 * k, 4 + 2 * k : 6 + 2 * k] = 0.0
        assert np.allclose(a_offdiag, 0.0)
        # virtual system block: two decoupled oscillators at omega_r
        j4 = symplectic_form(2)
        h4 = np.diag([1.3**2, 1.0, 1.3**2, 1.0])
        assert np.allclose(sys_block, j4 @ h4, atol=1e-14)

    def test_position_coupling_touches_only_x_plus(self):
        model = small_model("position", n=8)
        h = hamiltonian_matrix(model)
        bath = slice(4, None)
        assert np.any(h[0, bath] != 0.0)        # x+ row reaches the bath
        assert np.allclose(h[1, bath], 0.0)     # p+ does not (position coupling)
        assert np.allclose(h[2, bath], 0.0)     # x- fully decoupled
        assert np.allclose(h[3, bath], 0.0)

    def test_symmetric_coupling_touches_both_channels(self):
        model = small_model("symmetric", n=8)
        h = hamiltonian_matrix(model)
        q = 4 + 2 * np.arange(8)
        assert np.all(h[0, q] != 0.0)
        assert np.all(h[1, q + 1] != 0.0)
        assert np.allclose(h[2:4, 4:], 0.0)

    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    def test_hamiltonian_symmetric_and_flow_condition(self, coupling):
        model = small_model(coupling, n=10)
        h = hamiltonian_matrix(model)
        assert np.allclose(h, h.T, atol=0.0)
        a = build_generator(model)
        j = symplectic_form(12)
        assert np.abs(a @ j + j @ a.T).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_site_basis_conjugation(self):
        model = small_model("position", n=5)
        h_virt = hamiltonian_matrix(model, basis="virtual")
        h_site = hamiltonian_matrix(model, basis="site")
        t = np.eye(2 * 7)
        t[:4, :4] = BEAM_SPLITTER
        assert np.allclose(h_site, t.T @ h_virt @ t, atol=1e-14)


class TestEvolveAgainstMatrixExponential:
    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    def test_reduced_covariance_matches_expm_oracle(self, coupling):
        model = small_model(coupling, n=24, temperature=1.5, c12=-0.2)
        state = initial_state(model, "two-mode-squeezed", r=1.0)
        times = np.array([0.3, 1.6, 2.9])
        traj = evolve(model, state, times)

        a = build_generator(model)
        v0 = full_initial_covariance(model, state)
        sbs = BEAM_SPLITTER
        for i, t in enumerate(times):
            s = expm(a * t)
            v_virt = (s @ v0 @ s.T)[:4, :4]
            v_site = sbs @ v_virt @ sbs.T
            assert np.allclose(traj.states[i].cov, v_site, atol=1e-10)

    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    def test_full_propagator_matches_expm_and_is_symplectic(self, coupling):
        model = small_model(coupling, n=12)
        a = build_generator(model)
        for t in (0.4, 2.2):
            s = full_propagator(model, t)
            assert np.allclose(s, expm(a * t), atol=1e-9)
            j = symplectic_form(14)
            assert np.abs(s @ j @ s.T - j).max() < 1e-10

    def test_mean_evolution_matches_expm(self):
        model = small_model("position", n=16)
        state = initial_state(model, "coherent-product", mean=np.array([1.0, -0.3, 0.4, 0.2]))
        times = np.array([1.1])
        traj = evolve(model, state, times)
        a = build_generator(model)
        full_mean = np.zeros(2 * 18)
        full_mean[:4] = BEAM_SPLITTER @ state.mean
        want = BEAM_SPLITTER @ (expm(a * 1.1) @ full_mean)[:4]
        assert np.allclose(traj.states[0].mean, want, atol=1e-11)


class TestTrajectoryProperties:
    def test_decoupled_bath_keeps_entanglement_constant(self):
        free = OhmicSpectralDensity(gamma0=0.0, cutoff=20.0)
        model = FullModel.renormalized(free, 64, 3.0, omega_r=1.0)
        state = initial_state(model, "two-mode-squeezed", r=1.2)
        times = np.linspace(0.0, 5.0, 40)
        _, energies = entanglement_trajectory(model, state, times)
        assert np.abs(energies - 2.4).max() < 1e-9

    def test_minus_block_rotates_freely(self):
        model = small_model("position", n=40, c12=-0.3)
        state = initial_state(model, "two-mode-squeezed", r=0.8)
        times = np.linspace(0.0, 6.0, 25)
        traj = evolve(model, state, times)
        mode = model.minus_mode
        s = mode.xp_scale
        v0 = (BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T)[2:, 2:]
        for state_t, t in zip(traj.states, times):
            c, sn = math.cos(mode.frequency * t), math.sin(mode.frequency * t)
            rot = np.array([[c, sn / s], [-s * sn, c]])
            want = rot @ v0 @ rot.T
            got = (BEAM_SPLITTER @ state_t.cov @ BEAM_SPLITTER.T)[2:, 2:]
            assert np.allclose(got, want, atol=1e-8)

    def test_purity_of_reduced_state_bounded(self):
        model = small_model("position", n=60, temperature=5.0)
        state = initial_state(model, "two-mode-squeezed", r=2.0)
        times = np.linspace(0.0, 8.0, 60)
        traj = evolve(model, state, times)
        dets = np.array([np.linalg.det(s.cov) for s in traj.states])
        assert np.all(dets >= (1.0 / 16.0) * (1 - 1e-9))

    def test_cross_correlation_dies_out(self):
        # late-time <{x+,p+}>/2 drops well below its initial magnitude
        model = FullModel.renormalized(DENSITY, 400, 2.0, omega_r=1.0)
        plus = single = squeezed_cov(0.8, ModeSpec(1.0, 1.0))
        theta = np.pi / 5
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, s], [-s, c]])
        plus = rot @ plus @ rot.T  # rotated squeezed (+): nonzero xp correlation
        state = state_from_virtual_blocks(plus, squeezed_cov(0.3, ModeSpec(1.0, 1.0)))
        times = np.linspace(0.5, 55.0, 160)
        traj = evolve(model, state, times)
        _, _, cross = plus_variance_series(traj)
        initial = abs((BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T)[0, 1])
        late = np.abs(cross[times > 45.0]).mean()
        assert late < 1e-3 * initial + 5e-4

    def test_coherent_input_symmetric_coupling_never_entangles(self):
        # no squeezing resource anywhere: the trajectory stays separable
        model = FullModel.renormalized(DENSITY, 300, 3.0, omega_r=1.0,
                                       coupling_type="symmetric")
        state = initial_state(model, "coherent-product")
        times = np.linspace(0.0, 40.0, 160)
        _, energies = entanglement_trajectory(model, state, times)
        assert np.all(energies < 1e-10)

    def test_entanglement_converges_in_mode_count(self):
        # halving the frequency spacing changes E_N(t) by < 1% below the horizon
        coarse = FullModel.renormalized(DENSITY, 200, 5.0, omega_r=1.0)
        fine = FullModel.renormalized(DENSITY, 400, 5.0, omega_r=1.0)
        times = np.linspace(0.0, 0.95 * coarse.validity_horizon, 120)
        _, e_coarse = entanglement_trajectory(
            coarse, initial_state(coarse, "two-mode-squeezed", r=2.0), times
        )
        _, e_fine = entanglement_trajectory(
            fine, initial_state(fine, "two-mode-squeezed", r=2.0), times
        )
        assert np.abs(e_coarse - e_fine).max() < 0.01 * np.abs(e_fine).max()

    def test_horizon_guard(self):
        model = small_model("position", n=8)  # horizon = pi*8/20 = 1.26
        state = initial_state(model, "coherent-product")
        with pytest.raises(HorizonError):
            evolve(model, state, np.linspace(0.0, 5.0, 10))
        traj = evolve(model, state, np.linspace(0.0, 5.0, 10), override_horizon=True)
        assert len(traj.states) == 10

    def test_time_grid_validation(self):
        model = small_model("position", n=8)
        state = initial_state(model, "coherent-product")
        with pytest.raises(ValidationError):
            evolve(model, state, np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValidationError):
            evolve(model, state, np.array([-1.0, 0.5]))


class TestStackedStates:
    """A trajectory is held, checked and measured as stacked arrays."""

    @pytest.fixture(scope="class")
    def fig3a(self):
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "fig3a.cfg")
        model = config.build_model()
        state = initial_state(model, config.kind, r=config.r,
                              purity_product=config.purity_product)
        times = np.linspace(0.0, config.t_max, 401)
        return model, state, times, evolve(model, state, times)

    @staticmethod
    def reference_log_negativity(cov):
        """One state at a time: eigenvalues of iJ times the partial transpose."""
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ (flip @ cov @ flip))))
        return max(0.0, -math.log(2.0 * (0.5 * (mods[0] + mods[1]))))

    def test_stacked_entanglement_and_defect_equal_each_state_bitwise(self, fig3a):
        # the closed form agrees with the eigenvalue route within 1e-10; stacked
        # and per-state evaluations agree bitwise
        model, state, times, traj = fig3a
        covs = traj.covs
        reference = [self.reference_log_negativity(c) for c in covs]
        assert np.abs(log_negativity(covs) - reference).max() <= 1e-10
        assert np.array_equal(log_negativity(covs), [log_negativity(s) for s in traj.states])
        assert np.array_equal(physicality_defect(covs), [physicality_defect(c) for c in covs])
        assert np.array_equal(entanglement_trajectory(model, state, times)[1], log_negativity(covs))

    def test_states_view_the_arrays(self, fig3a):
        traj = fig3a[3]
        assert len(traj.states) == traj.times.size
        for i in (0, 137, 400):
            assert np.array_equal(traj.states[i].cov, traj.covs[i])
            assert np.array_equal(traj.states[i].mean, traj.means[i])
        assert not traj.covs.flags.writeable

    def test_one_unphysical_sample_names_its_time(self, fig3a, monkeypatch):
        model, state, times, _ = fig3a
        rotation = bathsim._minus_rotation

        def shrunk(model, chunk):  # halves the (-) flow at t = 34.25 only
            out = rotation(model, chunk)
            out[chunk == times[137]] *= 0.5
            return out

        monkeypatch.setattr(bathsim, "_minus_rotation", shrunk)
        with pytest.raises(NumericsError, match=r"unphysical at t=34\.25 \(unphysical covariance"):
            evolve(model, state, times)

    def test_info_records_sizes_and_health(self, fig3a):
        info = fig3a[3].info
        assert info["bath_modes"] == 1000 and info["samples"] == 401
        assert -1e-12 < info["min_physicality_defect"] <= 1e-9


class TestThermalRoute:
    """The thermal bath term integrated from its time derivative, against the
    dense row route of ``oracles.row_route_blocks``."""

    @staticmethod
    def by_rows(monkeypatch, model, state, times):
        def rows_at_every_time(model, temperatures, grid, override_horizon):
            a2, theta = row_route_blocks(model, grid)
            flow = bathsim.PlusFlow(a2, theta, {"thermal_nodes": 0, "thermal_drift": 0.0})
            return [flow], {"secular_iterations": 0, "secular_z_drift": 0.0, "normal_modes_s": 0.0}

        with monkeypatch.context() as patch:
            patch.setattr(bathsim, "plus_flows", rows_at_every_time)
            return evolve(model, state, times, override_horizon=True)

    def assert_rows_agree(self, monkeypatch, model, state, times):
        got = evolve(model, state, times, override_horizon=True).covs
        want = self.by_rows(monkeypatch, model, state, times).covs
        deviation = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
        assert deviation.max() <= 1e-12

    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    @pytest.mark.parametrize("temperature", [0.0, 10.0])
    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 20.0, 401),     # from t = 0
        np.linspace(40.0, 50.0, 360),    # a verify window
        np.array([0.3, 1.6, 2.9]),       # steps far above 1/cutoff (uniform since
                                         # evolve rejects irregular grids)
        np.array([2.9]),                 # a single time
    ], ids=["from-zero", "window", "irregular", "single"])
    def test_matches_the_row_route(self, monkeypatch, coupling, temperature, times):
        model = FullModel.renormalized(DENSITY, 400, temperature, omega_r=1.0, c12=-0.2,
                                       coupling_type=coupling)
        state = initial_state(model, "two-mode-squeezed", r=1.0)
        self.assert_rows_agree(monkeypatch, model, state, times)

    @pytest.mark.parametrize("name", ["fig3a", "fig3a_coupled", "fig3b", "fig3c"])
    def test_paper_configs_match_the_dense_route(self, name):
        # the integral over row-block products against dense rows at every 100th sample
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg")
        model = config.build_model()
        state = initial_state(model, config.kind, r=config.r, purity_product=config.purity_product)
        times = np.linspace(0.0, config.t_max, 2001)
        traj, energies = entanglement_trajectory(model, state, times)
        a2, theta = row_route_blocks(model, times[::100])
        flow = np.zeros((a2.shape[0], 4, 4))
        flow[:, :2, :2], flow[:, 2:, 2:] = a2, bathsim._minus_rotation(model, times[::100])
        virtual = flow @ (BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T) @ flow.transpose(0, 2, 1)
        virtual[:, :2, :2] += theta
        want = BEAM_SPLITTER @ virtual @ BEAM_SPLITTER.T
        assert np.abs(traj.covs[::100] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(energies[::100] - log_negativity(0.5 * (want + want.transpose(0, 2, 1)))).max() <= 1e-10

    @pytest.mark.parametrize("coupling", ["position", "symmetric"])
    def test_non_uniform_grid_is_rejected(self, coupling):
        model = small_model(coupling, n=24)
        state = initial_state(model, "two-mode-squeezed", r=1.0)
        jittered = np.linspace(0.0, 3.0, 61)
        jittered[17] += 1e-9
        for times in (np.array([0.3, 1.7, 2.9]), jittered):
            with pytest.raises(ValidationError, match="uniform"):
                evolve(model, state, times)

    def test_zero_frequency_edge_is_a_regime_error(self, tmp_path, capsys):
        # bare w+^2 a hair below the static bath shift sum z_k^2 / w_k^2: the
        # lowest squared normal frequency is about -1e-14, no stable flow
        bath = small_model("position", n=64, renorm=False).bath
        shift = float(np.sum(bath.position_couplings**2 / (bath.masses * bath.frequencies**2)))
        omega0 = math.sqrt(shift * (1.0 - 1e-14))
        model = FullModel.bare(DENSITY, 64, 5.0, omega0=omega0)
        with pytest.raises(ParameterRegimeError, match="unstable"):
            evolve(model, initial_state(model, "coherent-product"), np.linspace(0.0, 3.0, 61))
        (tmp_path / "edge.cfg").write_text(
            "[model]\nrenormalization = bare\n"
            f"omega0 = {omega0!r}\n"
            "[bath]\ngamma0 = 0.1\ncutoff = 20.0\ntemperature = 5.0\nmodes = 64\n"
            "[initial]\nkind = coherent-product\n[grid]\nt_max = 3.0\n"
        )
        code = main(["evolve", "--config", str(tmp_path / "edge.cfg"), "--out", str(tmp_path / "o")])
        assert code == 3 and "unstable" in capsys.readouterr().err

    def test_rows_at_no_more_than_two_times(self, monkeypatch):
        model = small_model("symmetric", n=300)
        sizes = []
        rows = bathsim._PlusSector.rows

        def counted(solver, times, bath=None):
            sizes.append(times.size)
            return rows(solver, times, bath)

        monkeypatch.setattr(bathsim._PlusSector, "rows", counted)
        traj = evolve(model, initial_state(model, "coherent-product"), np.linspace(0.0, 40.0, 801))
        assert sizes == [2]
        assert traj.info["thermal_nodes"] == 800 * 8 and traj.info["thermal_drift"] < 1e-12

    @staticmethod
    def corrupt_one_eigenvector(monkeypatch):
        solve = bathsim.arrowhead_eigh

        def corrupted(*args):
            modes = solve(*args)
            zhat = modes.zhat.copy()
            zhat[4] *= 1.0 + 1e-3  # bath entry 5 of every mode: no longer the eigenvectors
            return dataclasses.replace(modes, zhat=zhat)

        monkeypatch.setattr(bathsim, "arrowhead_eigh", corrupted)

    def test_checkpoint_catches_a_corrupted_eigenvector(self, monkeypatch, tmp_path):
        self.corrupt_one_eigenvector(monkeypatch)
        model = small_model("position", n=300)
        with pytest.raises(NumericsError, match="thermal bath term drifted"):
            evolve(model, initial_state(model, "coherent-product"), np.linspace(0.0, 20.0, 81))
        config = Path(__file__).resolve().parent.parent / "configs" / "fig3a.cfg"
        text = config.read_text().replace("modes = 1000", "modes = 300")
        (tmp_path / "run.cfg").write_text(text.replace("t_max = 100.0", "t_max = 20.0"))
        code = main(["evolve", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestSharedThermalIntegral:
    """The temperatures of one model share one normal-mode solve and one
    thermal product (``plus_flows``), each Theta equal to a run of its own
    to rounding; nothing is kept from one call to the next."""

    TIMES = np.linspace(20.0, 30.0, 200)

    @staticmethod
    def run(model, r, purity, times=TIMES, flow=None):
        state = initial_state(model, "two-mode-squeezed", r=r, purity_product=purity)
        return entanglement_trajectory(model, state, times, flow=flow)

    def test_a_new_temperature_or_grid_integrates_again(self, integrals):
        model = small_model(n=400, temperature=2.0)
        runs = [self.run(model, 1.0, 0.5)[0], self.run(model, 2.0, 0.8)[0]]
        assert len(integrals) == 2 and np.array_equal(integrals[1][0], integrals[0][0])
        runs.append(self.run(small_model(n=400, temperature=6.0), 1.0, 0.5)[0])
        assert len(integrals) == 3 and not np.array_equal(integrals[2][0], integrals[0][0])
        runs.append(self.run(model, 1.0, 0.5, times=self.TIMES + 0.5)[0])
        assert len(integrals) == 4
        for traj in runs:
            assert traj.info["normal_mode_solves"] == 1 == traj.info["thermal_grids"]

    def test_a_second_temperature_reuses_the_grid_part(self, integrals):
        temperatures = (2.0, 6.0, 0.0)
        flows, solve = bathsim.plus_flows(small_model(n=400), temperatures, self.TIMES)
        (thetas, nodes, _), = integrals  # one product for the three temperatures
        assert thetas.shape == (3, self.TIMES.size, 2, 2) and len(flows) == 3
        # the solve's health is reported once, beside the flows
        assert set(solve) == {"secular_iterations", "secular_z_drift", "normal_modes_s"}
        assert 0 < solve["secular_iterations"] <= 30 and solve["secular_z_drift"] < 1e-12
        assert all(set(flow.info) == {"thermal_nodes", "thermal_drift"} for flow in flows)
        assert all(flow.a2 is flows[0].a2 for flow in flows)
        for t, flow in zip(temperatures, flows):
            model = small_model(n=400, temperature=t)
            (alone,), _ = bathsim.plus_flows(model, [t], self.TIMES)
            assert flow.info["thermal_nodes"] == alone.info["thermal_nodes"] == nodes
            assert np.abs(flow.theta - alone.theta).max() <= 1e-15 * np.abs(alone.theta).max()
            assert np.abs(flow.a2 - alone.a2).max() <= 1e-15
            batched, _ = self.run(model, 1.0, 0.5, flow=flow)
            own, _ = self.run(model, 1.0, 0.5)
            assert np.abs(batched.covs - own.covs).max() <= 1e-14 * np.abs(own.covs).max()

    def test_every_call_solves_its_own_normal_modes(self, monkeypatch):
        solves = []
        solve = bathsim.arrowhead_eigh

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(bathsim, "arrowhead_eigh", counted)
        model = small_model(n=400, temperature=2.0)
        for times, physics in ((self.TIMES, model), (self.TIMES, model),
                               (self.TIMES + 0.5, model),
                               (self.TIMES, small_model(n=400, temperature=2.0, c12=-0.2))):
            traj, _ = self.run(physics, 1.0, 0.5, times=times)
            assert traj.info["normal_mode_solves"] == 1 == traj.info["thermal_grids"]
        assert len(solves) == 4
        assert not hasattr(bathsim, "_shared") and not hasattr(bathsim, "release_shared_solver")

    def test_each_state_of_a_stack_equals_its_own_run(self):
        model = small_model(n=400, temperature=2.0)
        states = [initial_state(model, "two-mode-squeezed", r=r, purity_product=purity,
                                mean=[0.3, -0.1, 0.2, 0.5])
                  for r, purity in ((0.5, 0.5), (2.0, 0.8), (-1.0, 0.6))]
        stack, energies = entanglement_trajectory(model, states, self.TIMES)
        assert stack.covs.shape == (3, self.TIMES.size, 4, 4) and stack.info["unphysical"] == {}
        for i, state in enumerate(states):
            one, one_energies = entanglement_trajectory(model, state, self.TIMES)
            assert np.array_equal(stack.means[i], one.means)
            assert np.array_equal(stack.covs[i], one.covs)
            assert np.array_equal(energies[i], one_energies)

    def test_a_stack_of_checked_covariances_equals_the_states(self):
        model = small_model(n=400, temperature=2.0)
        states = [initial_state(model, "two-mode-squeezed", r=r) for r in (0.5, 2.0)]
        covs = np.array([state.cov for state in states])
        assert np.array_equal(evolve(model, covs, self.TIMES).covs,
                              evolve(model, states, self.TIMES).covs)

    def test_flows_and_grid_are_read_only(self, integrals, monkeypatch):
        grids = []

        class Recorded(bathsim._TimeGrid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        monkeypatch.setattr(bathsim, "_TimeGrid", Recorded)
        (flow,), _ = bathsim.plus_flows(small_model(n=400), [1.5], self.TIMES)
        (grid,), ((thetas, _, _),) = grids, integrals
        kept = (flow.a2, flow.theta, thetas, grid.weights, grid.turn, grid.block, grid.first)
        assert not any(array.flags.writeable for array in kept)
        with pytest.raises(ValueError):
            flow.theta[0, 0, 0] = 0.0


class TestExactStart:
    """At t = 0 the flow is the identity and Theta 0, exactly: the first sample
    is the input up to the rounding of the beam splitter."""

    def test_separable_input_starts_separable(self):
        # fig3c's pure product sits on the max(0, .) clamp of E_N, which the
        # rounding of rows and node sums at t = 0 lifted to 1.05e-8 on this grid
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "fig3c.cfg")
        model = config.build_model()
        state = initial_state(model, config.kind, r=config.r, purity_product=config.purity_product)
        traj, energies = entanglement_trajectory(model, state, [0.0, 0.05])
        assert energies[0] <= 1e-15 and energies[1] > 1.0
        (flow,), _ = bathsim.plus_flows(model, [config.temperature], np.array([0.0, 0.05]))
        assert np.array_equal(flow.a2[0], np.eye(2)) and not flow.theta[0].any()
        # the first sample is the input but for the beam splitter's rounding
        assert np.abs(traj.covs[0] - state.cov).max() <= 1e-15 * np.abs(state.cov).max()

    def test_a_later_start_keeps_its_rows(self):
        model = small_model("symmetric", n=300)
        (flow,), _ = bathsim.plus_flows(model, [1.5], np.array([0.5, 1.0]))
        assert not np.array_equal(flow.a2[0], np.eye(2)) and flow.theta[0].any()


class TestMemory:
    def test_solver_holds_blocks_not_matrices(self):
        # the dense route held two (N+1)^2 matrices, 258 MB at N = 4000; the
        # (+)-sector phase block of a grid, _TIME_CHUNK x 2N, is not part of this
        model = FullModel.renormalized(DENSITY, 4000, 2.0, omega_r=1.0)
        tracemalloc.start()
        try:
            solver = bathsim._PlusSector.of(model)
            scaled = ((model.bath.occupations + 0.5) * solver.noise)[:, None]
            rows, y = solver.rows(np.array([0.0, 600.0]), scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert rows[0].shape == (2, 4001) and y.shape == (4001, 1)
        state = initial_state(model, "two-mode-squeezed", r=1.0)
        traj, energies = entanglement_trajectory(model, state, np.linspace(0.0, 0.5, 11))
        assert traj.info["bath_modes"] == 4000 and traj.info["thermal_drift"] < 1e-12
        assert energies[0] == pytest.approx(2.0, rel=1e-12)


class TestModelConstruction:
    def test_renormalized_position_targets(self):
        model = FullModel.renormalized(DENSITY, 50, 1.0, omega_r=1.0, c12=-0.5)
        dos = DENSITY.delta_omega_sq
        assert model.omega0**2 == pytest.approx(1.0 - dos / 2.0, rel=1e-12)
        assert model.c12 == pytest.approx(-0.5 - dos / 2.0, rel=1e-12)
        assert model.omega_minus == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert model.omega_plus_dressed == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_bare_unstable_position_rejected(self):
        # at omega_r = 1 the bare shift overwhelms the stiffness
        model = FullModel.bare(DENSITY, 64, 1.0, omega0=1.0)
        state = initial_state(model, "coherent-product")
        with pytest.raises(ParameterRegimeError):
            evolve(model, state, np.linspace(0.0, 1.0, 5))

    def test_symmetric_minus_mode_invariant(self):
        model = FullModel.renormalized(DENSITY, 32, 0.0, omega_r=1.0, c12=0.3,
                                       coupling_type="symmetric")
        minus = model.minus_mode
        assert minus.xp_scale == pytest.approx(model.mass * model.omega0, rel=1e-12)

    @pytest.mark.parametrize("gamma0, cutoff, c12", [
        (0.1, 20.0, 0.0), (0.5, 20.0, -0.5), (0.01, 20.0, 0.99), (0.1, 2.5, 0.99),
    ])
    def test_symmetric_bare_frequency_solves_the_gap_equation(self, gamma0, cutoff, c12):
        # omega0 = (Omega+ - Delta(Omega+; omega0) + omega-)/2, Delta ~ 1/omega0; at
        # cutoff 2.5, C12 = 0.99 the shift at Omega+ = 1.99 is positive
        density = OhmicSpectralDensity(gamma0=gamma0, cutoff=cutoff)
        model = FullModel.renormalized(density, 16, 0.0, omega_r=1.0, c12=c12,
                                       coupling_type="symmetric")
        om_plus, om_minus = 1.0 + c12, 1.0 - c12
        shift = density.ladder_level_shift(om_plus, model.omega0)
        gap = model.omega0 - 0.5 * (om_plus - shift + om_minus)
        assert abs(gap) <= 1e-12 * model.omega0
        assert model.omega_plus_bare == pytest.approx(om_plus - shift, rel=1e-12)
        assert model.minus_mode.frequency == pytest.approx(om_minus, rel=1e-12)

    def test_symmetric_targets_without_a_bare_frequency_rejected(self):
        # gamma0 = 0.5, cutoff 1.5, C12 = 0.3: a^2 < 4c, no weak-coupling root
        density = OhmicSpectralDensity(gamma0=0.5, cutoff=1.5)
        with pytest.raises(ParameterRegimeError, match="bare frequency"):
            FullModel.renormalized(density, 16, 0.0, omega_r=1.0, c12=0.3,
                                   coupling_type="symmetric")

    def test_invalid_virtual_frequency_rejected(self):
        with pytest.raises(ParameterRegimeError):
            FullModel.renormalized(DENSITY, 16, 0.0, omega_r=1.0, c12=1.5)

    def test_initial_state_kinds(self):
        model = small_model("position", n=16)
        tms = initial_state(model, "two-mode-squeezed", r=1.0)
        assert log_negativity(tms) == pytest.approx(2.0, abs=1e-9)
        strong = initial_state(model, "two-mode-squeezed", r=3.0)
        assert log_negativity(strong) == pytest.approx(6.0, abs=1e-9)
        sep = initial_state(model, "squeezed-product", r=1.0)
        assert log_negativity(sep) < 1e-12  # separable up to roundoff in the basis change
        mixed = initial_state(model, "two-mode-squeezed", r=1.0, purity_product=1.0)
        virt = BEAM_SPLITTER @ mixed.cov @ BEAM_SPLITTER.T
        assert math.sqrt(virt[2, 2] * virt[3, 3]) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValidationError):  # no longer a kind
            initial_state(model, "explicit-covariance")
        with pytest.raises(ValidationError):
            initial_state(model, "bogus")


class TestEquilibrium:
    def test_symmetric_variances_balanced(self):
        model = FullModel.renormalized(DENSITY, 400, 10.0, omega_r=1.0,
                                       coupling_type="symmetric")
        dx, dp = equilibrium_variances_sim(model)
        mass_omega = model.mass * model.omega0
        assert dp / (mass_omega * dx) == pytest.approx(1.0, abs=1e-3)

    def test_equilibrium_is_initial_state_independent(self):
        model = FullModel.renormalized(DENSITY, 400, 3.0, omega_r=1.0)
        a = equilibrium_variances_sim(model, initial_state(model, "coherent-product"))
        b = equilibrium_variances_sim(
            model, initial_state(model, "two-mode-squeezed", r=1.0)
        )
        assert a[0] == pytest.approx(b[0], rel=1e-3)
        assert a[1] == pytest.approx(b[1], rel=1e-3)

    def test_high_temperature_equipartition(self):
        model = FullModel.renormalized(DENSITY, 600, 10.0, omega_r=1.0)
        _, dp = equilibrium_variances_sim(model)
        assert dp**2 == pytest.approx(model.mass * 10.0, rel=0.05)

    def test_horizon_error_when_too_short(self):
        model = small_model("position", n=30)  # horizon ~ 4.7
        with pytest.raises(HorizonError):
            equilibrium_variances_sim(model)
