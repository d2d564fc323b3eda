import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from entbath.asymptotics import ladder_bound_state
from entbath.bathsim import FullModel, evolve, initial_state
from entbath.errors import NumericsError, ParameterRegimeError, ValidationError
from oracles import dense_arrowhead_eigh, dense_modes
from entbath.spectra import (
    _BLOCK,
    DiscretizedBath,
    OhmicSpectralDensity,
    arrowhead_eigh,
    discretize,
    eta_kernel,
    eta_kernel_discrete,
    thermal_occupation,
)

DENSITY = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0, mass=1.0)


class TestOhmicDensity:
    def test_point_value(self):
        assert DENSITY.j(1.0) == pytest.approx(0.2 / math.pi, rel=1e-14)

    def test_hard_cutoff(self):
        assert DENSITY.j(25.0) == 0.0
        assert DENSITY.j(20.0) == 0.0  # boundary counts as above the cutoff

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValidationError):
            DENSITY.j(-1.0)

    def test_static_self_energy_integral(self):
        # analytic value 2 m gamma0 cutoff / pi, cross-checked by quadrature
        want = 4.0 / math.pi
        assert DENSITY.static_self_energy == pytest.approx(want, rel=1e-14)
        numeric, _ = quad(lambda w: DENSITY.j(w) / w, 1e-12, DENSITY.cutoff)
        assert numeric == pytest.approx(want, rel=1e-8)

    def test_delta_omega_sq(self):
        assert DENSITY.delta_omega_sq == pytest.approx(-4 * 0.1 * 20.0 / math.pi, rel=1e-14)

    def test_nonnegative_everywhere(self):
        w = np.linspace(0.0, 30.0, 301)
        j = DENSITY.j(w)
        assert np.all(j >= 0.0)
        assert np.all(j[w >= 20.0] == 0.0)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(3.0, 0.0) == 0.0

    def test_high_temperature_asymptote(self):
        w, t = 1e-4, 1.0
        assert thermal_occupation(w, t) == pytest.approx(t / w, rel=1e-3)

    def test_unit_ratio(self):
        assert thermal_occupation(2.0, 2.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_monotone_in_temperature_and_frequency(self):
        temps = np.linspace(0.1, 5.0, 9)
        values = [thermal_occupation(1.0, t) for t in temps]
        assert np.all(np.diff(values) > 0)
        freqs = np.linspace(0.2, 8.0, 9)
        values = [thermal_occupation(w, 1.0) for w in freqs]
        assert np.all(np.diff(values) < 0)

    @pytest.mark.filterwarnings("error")
    def test_far_below_the_frequency_is_zero_without_a_warning(self):
        # w / T = 2000 overflows expm1 to inf; 1/inf = 0 is the occupation
        out = thermal_occupation(np.array([1.0, 20.0]), 0.01)
        assert out[0] == pytest.approx(math.exp(-100.0), rel=1e-12) and out[1] == 0.0
        assert thermal_occupation(800.0, 1.0) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ValidationError):
            thermal_occupation(1.0, -1.0)


def weight_sum(bath):
    """sum_k c_k^2 / (2 m_k w_k), the discrete integral of J."""
    return float(np.sum(bath.position_couplings**2 / (2.0 * bath.masses * bath.frequencies)))


#: integral of J over all frequencies, m gamma0 cutoff^2 / pi
TOTAL_WEIGHT = DENSITY.mass * DENSITY.gamma0 * DENSITY.cutoff**2 / math.pi


class TestDiscretize:
    def test_single_mode_carries_full_weight(self):
        bath = discretize(DENSITY, 1, 0.0)
        assert bath.frequencies[0] == pytest.approx(10.0)
        assert weight_sum(bath) == pytest.approx(TOTAL_WEIGHT, rel=1e-12)

    @pytest.mark.parametrize("n", [200, 500])
    def test_sum_rule(self, n):
        bath = discretize(DENSITY, n, 1.0)
        assert weight_sum(bath) == pytest.approx(TOTAL_WEIGHT, rel=1e-3)

    def test_recurrence_doubles_with_modes(self):
        t1 = discretize(DENSITY, 100, 0.0).recurrence_time
        t2 = discretize(DENSITY, 200, 0.0).recurrence_time
        assert t2 == pytest.approx(2.0 * t1, rel=1e-14)

    def test_ladder_couplings_need_scale(self):
        bath = discretize(DENSITY, 10, 0.0)
        with pytest.raises(ValidationError):
            _ = bath.ladder_couplings
        scaled = discretize(DENSITY, 10, 0.0, ladder_scale=1.0)
        g2_density = scaled.ladder_couplings**2 / scaled.spacing
        assert g2_density[3] == pytest.approx(2.0 * DENSITY.j(scaled.frequencies[3]), rel=1e-12)

    def test_occupations(self):
        bath = discretize(DENSITY, 50, 2.0)
        k = 10
        assert bath.occupations[k] == pytest.approx(
            1.0 / math.expm1(bath.frequencies[k] / 2.0), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            discretize(DENSITY, 0, 1.0)
        with pytest.raises(ValidationError):
            DiscretizedBath(
                frequencies=np.array([2.0, 1.0]),
                position_couplings=np.ones(2),
                masses=np.ones(2),
                temperature=0.0,
                spacing=1.0,
            )


class TestEtaKernel:
    def test_static_value(self):
        val = eta_kernel(DENSITY, 0.0)
        assert val.real == pytest.approx(40.0 / math.pi, rel=1e-10)
        assert val.imag == 0.0

    def test_against_closed_form(self):
        # independent reference: oscillatory (cos/sin weight) quadrature of
        # J(w) exp(-i w s); the s range crosses the switch between the small-
        # (L s) series and the closed form and keeps the large-s values
        a = (2.0 / math.pi) * DENSITY.mass * DENSITY.gamma0
        lam = DENSITY.cutoff
        for s in (*np.geomspace(1e-9, 1.0, 19), 0.3, 3.0, 11.0):
            re, _ = quad(lambda w: a * w, 0.0, lam, weight="cos", wvar=s,
                         epsabs=0.0, epsrel=1e-13, limit=400)
            im, _ = quad(lambda w: a * w, 0.0, lam, weight="sin", wvar=s,
                         epsabs=0.0, epsrel=1e-13, limit=400)
            got = eta_kernel(DENSITY, s)
            assert got == pytest.approx(complex(re, -im), rel=1e-8)

    def test_free_bath_kernel_is_exactly_zero(self):
        free = OhmicSpectralDensity(gamma0=0.0, cutoff=20.0, mass=1.0)
        for s in (0.0, 1e-6, 0.01, 0.3, 3.0, 11.0):
            assert eta_kernel(free, s) == 0j

    def test_matches_discrete_sum_at_short_times(self):
        # agreement within 1% of the kernel scale for s < T_rec/10; the
        # midpoint rule's pointwise error grows as (s dw)^2 while the kernel
        # itself decays, so the bound is on the common scale
        bath = discretize(DENSITY, 400, 0.0, ladder_scale=2.5)
        scale = 2.0 / 2.5  # ladder density is 2 J / ladder_scale
        samples = np.linspace(0.05, bath.recurrence_time / 10.0, 25)
        cont = np.array([scale * eta_kernel(DENSITY, s) for s in samples])
        disc = np.array([eta_kernel_discrete(bath, s) for s in samples])
        assert np.abs(disc - cont).max() <= 0.01 * np.abs(cont).max()
        # pointwise agreement holds while s*dw stays small
        early = samples <= bath.recurrence_time / 40.0
        assert np.all(
            np.abs(disc[early] - cont[early]) <= 0.01 * np.abs(cont[early])
        )

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            eta_kernel(DENSITY, -0.1)


def arrowhead(a, z, d):
    m = np.diag(np.concatenate(([a], d)))
    m[0, 1:] = m[1:, 0] = z
    return m


def sector(coupling, gamma0, cutoff, c12, n=1000):
    """(a, z, d) of a model's (+)-sector arrowhead, as bathsim builds it."""
    model = FullModel.renormalized(OhmicSpectralDensity(gamma0, cutoff), n, 0.0, omega_r=1.0,
                                   c12=c12, coupling_type=coupling)
    bath = model.bath
    if coupling == "position":
        return (model.omega_plus_bare**2, bath.position_couplings / np.sqrt(bath.masses),
                bath.frequencies**2)
    return model.omega_plus_bare, bath.ladder_couplings, bath.frequencies


class TestArrowheadEigh:
    @staticmethod
    def assert_matches_dense(a, z, d):
        modes = arrowhead_eigh(a, z, d)
        lam, vecs, health = modes.values, dense_modes(modes), modes.health
        dense = arrowhead(a, z, d)
        ref, ref_vecs = np.linalg.eigh(dense)
        norm = np.abs(ref).max()
        assert np.abs(lam - ref).max() <= 1e-13 * norm
        assert np.abs(vecs.T @ vecs - np.eye(d.size + 1)).max() <= 1e-11
        assert np.abs(dense @ vecs - vecs * lam).max() <= 1e-11 * norm
        assert np.abs(vecs[0] ** 2 - ref_vecs[0] ** 2).max() <= 1e-11
        assert 0 < health["secular_iterations"] <= 30 and health["secular_z_drift"] < 1e-12
        return lam, vecs

    @staticmethod
    def assert_blocks_equal_dense_route(a, z, d):
        """The row-block route gives the bits of the (N+1)^2 one, and its
        products equal those of the dense eigenvectors to rounding."""
        modes = arrowhead_eigh(a, z, d)
        lam, vecs, zhat, norms = dense_arrowhead_eigh(a, z, d)
        assert np.array_equal(modes.values, lam) and np.array_equal(modes.zhat, zhat)
        assert np.array_equal(modes.norms, norms) and np.array_equal(dense_modes(modes), vecs)
        rng = np.random.default_rng(d.size)
        left, bath = rng.normal(size=(3, d.size + 1)), rng.normal(size=(d.size, 2))
        rows, weights = modes.products(left, bath)
        assert np.abs(rows - left @ vecs.T).max() <= 1e-13 * np.abs(left).sum(axis=1).max()
        assert np.abs(weights - vecs[1:].T @ bath).max() <= 1e-13 * np.abs(bath).sum(axis=0).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_random_arrowheads(self, n):
        rng = np.random.default_rng(n)
        args = rng.normal(), rng.normal(size=n), np.sort(rng.normal(size=n))
        self.assert_matches_dense(*args)
        self.assert_blocks_equal_dense_route(*args)

    @pytest.mark.parametrize("coupling, gamma0, cutoff, c12", [
        ("position", 0.1, 20.0, 0.0),
        ("position", 0.5, 2.5, -0.5),
        ("symmetric", 0.1, 20.0, 0.0),
        ("symmetric", 0.5, 2.5, -0.5),
        ("symmetric", 0.1, 2.5, 0.99),
    ])
    def test_sector_matrices(self, coupling, gamma0, cutoff, c12):
        self.assert_matches_dense(*sector(coupling, gamma0, cutoff, c12))
        self.assert_blocks_equal_dense_route(*sector(coupling, gamma0, cutoff, c12))

    def test_blocks_span_many_rows_at_large_n(self):
        # 8 rows a block at N = 4000: the running Loewner product crosses 500 blocks
        self.assert_blocks_equal_dense_route(*sector("position", 0.1, 20.0, 0.0, n=4000))

    def test_bound_state_above_the_cutoff(self):
        a, z, d = sector("symmetric", 0.1, 2.5, 0.99)
        modes = arrowhead_eigh(a, z, d)
        lam, vecs = modes.values, dense_modes(modes)
        model = FullModel.renormalized(OhmicSpectralDensity(0.1, 2.5), 1000, 0.0, omega_r=1.0,
                                       c12=0.99, coupling_type="symmetric")
        omega_b, weight = ladder_bound_state(model.density, a, model.omega0)
        assert lam[-2] < 2.5 < lam[-1]
        assert lam[-1] == pytest.approx(omega_b, rel=1e-5)  # 2.640
        assert vecs[0, -1] ** 2 == pytest.approx(weight, rel=1e-4)

    def test_unstable_sector_is_a_regime_error(self):
        model = FullModel.bare(OhmicSpectralDensity(0.1, 20.0), 1000, 1.0, omega0=1.0)
        a, z, d = model.omega_plus_bare**2, model.bath.position_couplings, model.bath.frequencies**2
        assert arrowhead_eigh(a, z, d).values[0] < 0.0  # the solver itself returns the root
        with pytest.raises(ParameterRegimeError):
            evolve(model, initial_state(model, "coherent-product"), [0.0, 1.0])

    def test_free_bath_gives_the_identity(self):
        d = np.linspace(0.5, 3.0, 6)
        modes = arrowhead_eigh(1.2, np.zeros(6), d)
        assert np.array_equal(modes.values, np.sort(np.append(d, 1.2)))
        order = np.argsort(np.append(1.2, d), kind="stable")
        assert np.array_equal(dense_modes(modes), np.eye(7)[:, order])
        assert modes.health == {"secular_iterations": 0, "secular_z_drift": 0.0}
        rows, weights = modes.products(np.arange(14.0).reshape(2, 7), np.ones((6, 1)))
        assert np.array_equal(rows, np.arange(14.0).reshape(2, 7) @ np.eye(7)[:, order].T)
        assert np.array_equal(weights[:, 0], np.eye(7)[1:, order].sum(axis=0))

    def test_zero_coupling_mid_band_deflates(self):
        rng = np.random.default_rng(3)
        d = np.sort(rng.uniform(1.0, 2.0, 40))
        z = rng.uniform(0.01, 0.1, 40)
        z[17] = 0.0
        lam, vecs = self.assert_matches_dense(1.5, z, d)
        pair = np.flatnonzero(lam == d[17])
        assert pair.size == 1 and np.array_equal(vecs[:, pair[0]], np.eye(41)[18])
        self.assert_blocks_equal_dense_route(1.5, z, d)

    def test_one_mode(self):
        lam, vecs = self.assert_matches_dense(1.0, np.array([0.3]), np.array([1.0]))
        assert lam == pytest.approx([0.7, 1.3], rel=1e-15)

    @pytest.mark.parametrize("d", [[1.0, 1.0, 2.0], [2.0, 1.0, 3.0]])
    def test_diagonal_must_increase(self, d):
        with pytest.raises(NumericsError):
            arrowhead_eigh(0.5, np.ones(3), np.array(d))

    def test_unconverged_roots_raise(self, monkeypatch, tmp_path):
        from entbath import spectra
        from entbath.cli import main

        monkeypatch.setattr(spectra, "_MAX_SWEEPS", 2)
        with pytest.raises(NumericsError, match=r"secular equation: \d+ root\(s\) unconverged"):
            arrowhead_eigh(*sector("position", 0.1, 20.0, 0.0, n=200))
        (tmp_path / "run.cfg").write_text(
            "[model]\nomega_r = 1.0\n[bath]\ngamma0 = 0.1\ncutoff = 20.0\ntemperature = 1.0\n"
            "modes = 200\n[grid]\nt_max = 5.0\n")
        assert main(["evolve", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_memory_stays_within_four_matrices(self):
        # four row blocks and O(N) vectors, not the (N+1)^2 eigenvectors (32 MB here)
        a, z, d = sector("position", 0.1, 20.0, 0.0)
        n = d.size
        tracemalloc.start()
        try:
            arrowhead_eigh(a, z, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * _BLOCK + 64 * (n + 1))
