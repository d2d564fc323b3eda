import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from entbath import __version__, bathsim, sweep
from entbath.asymptotics import stationary_variances_position
from entbath.cli import main
from entbath.config import load_config
from entbath.errors import NumericsError, ValidationError
from entbath.spectra import OhmicSpectralDensity
from entbath.sweep import phase_boundaries, run_phase_sweep, sweep_axes, verify_grid

BASE = """
[model]
coupling = position
renormalization = renormalized
omega_r = 1.0
c12 = 0.0

[bath]
gamma0 = 0.1
cutoff = 20.0
temperature = 10.0
modes = 300

[initial]
kind = two-mode-squeezed
r = 2.0

[grid]
t_max = 30.0
dt_out = 0.25
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    import csv

    with open(path) as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    return rows


class TestEvolveCommand:
    def test_free_bath_keeps_entanglement_constant(self, tmp_path):
        text = BASE.replace("gamma0 = 0.1", "gamma0 = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "trajectory.csv")
        energies = np.array([float(r["EN"]) for r in rows])
        assert np.abs(energies - 4.0).max() < 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_trajectory_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        rows = read_csv(tmp_path / "o" / "trajectory.csv")
        assert set(rows[0]) == {
            "t", "EN",
            "V_x1x1", "V_x1p1", "V_x1x2", "V_x1p2", "V_p1p1",
            "V_p1x2", "V_p1p2", "V_x2x2", "V_x2p2", "V_p2p2",
        }
        assert float(rows[0]["EN"]) == pytest.approx(4.0, abs=1e-9)
        assert (tmp_path / "o" / "plot_trajectory.py").exists()

    def test_grid_stops_at_t_max(self, tmp_path):
        # t_max = 31.4 is inside the horizon pi*200/20 = 31.416, but a grid of
        # dt_out = 0.3 rounded up to 31.5 used to run past it (exit 3)
        text = BASE.replace("modes = 300", "modes = 200").replace(
            "t_max = 30.0", "t_max = 31.4").replace("dt_out = 0.25", "dt_out = 0.3")
        cfg = write_cfg(tmp_path, text)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        times = [float(row["t"]) for row in read_csv(tmp_path / "o" / "trajectory.csv")]
        assert times[-1] <= 31.4 and len(times) == 105

    def test_override_horizon_runs_past_the_horizon(self, tmp_path):
        text = BASE.replace("modes = 300", "modes = 50")  # horizon pi*50/20 = 7.85 < t_max
        assert main(["evolve", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(tmp_path / "a")]) == 2
        cfg = write_cfg(tmp_path, text + "\n[run]\noverride_horizon = true\n", "over.cfg")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        rows = read_csv(tmp_path / "b" / "trajectory.csv")
        assert float(rows[-1]["t"]) == 30.0

    def test_fig3c_starts_separable(self, tmp_path):
        # the benchmark's seed-0 fig3c run; its separable input puts E_N(0) on
        # the max(0, .) clamp, so guard it against the benchmark's 1e-9
        cfg = Path(__file__).resolve().parent.parent / "configs" / "fig3c.cfg"
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        first = read_csv(tmp_path / "o" / "trajectory.csv")[0]
        assert float(first["t"]) == 0.0 and float(first["EN"]) <= 1e-9

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE.replace("omega_r = 1.0", ""))
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert main(["evolve", "--config", str(tmp_path / "ghost.cfg")]) == 2

    def test_unexpected_exception_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr("entbath.cli.entanglement_trajectory", boom)
        cfg = write_cfg(tmp_path, BASE)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "RuntimeError: injected failure" in err


    def test_run_info_and_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        for name in ("a", "b"):
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        info = json.loads((tmp_path / "a" / "run_info.json").read_text())
        assert info["bath_modes"] == 300 and info["samples"] == 121
        assert info["horizon_margin"] == pytest.approx(30.0 / (math.pi * 300 / 20.0))
        assert -1e-12 < info["min_physicality_defect"] <= 1e-9
        # 120 steps of 0.25, each 5 sub-intervals no longer than 1/w_max ~ 1/20, 8 nodes each
        assert info["thermal_nodes"] == 120 * 5 * 8 and 0.0 <= info["thermal_drift"] < 1e-12
        assert info["thermal_grids"] == 1 and "thermal_integrals" not in info
        assert set(info["wall_time_s"]) == {"config", "model", "states", "entanglement", "write"}
        assert info["wall_time_s"]["config"] > 0.0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")


def assert_same_artifacts(a: Path, b: Path):
    """Every file but run_info.json (wall times) is byte-identical across the two runs."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for name in names:
        if name.name != "run_info.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestSharedNormalModes:
    """A command solves the (+)-sector normal modes once per C12, sums the
    thermal terms of all that C12's temperatures in one product, and shares
    nothing with another command."""

    GRID = "\n[sweep]\ntemperatures = 0.5, 8.0\nsqueezings = 0.1, 2.5\n"

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = bathsim.arrowhead_eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bathsim, "arrowhead_eigh", counted)
        return calls

    def verify(self, tmp_path, text, name="o"):
        cfg = write_cfg(tmp_path, text, name=f"{name}.cfg")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)])
        return code, json.loads((tmp_path / name / "run_info.json").read_text())

    def test_one_solve_per_command(self, tmp_path, solves):
        code, info = self.verify(tmp_path, BASE + self.GRID)
        assert code == 0 and info["simulated_points"] >= 2
        assert len(solves) == 1 == info["normal_mode_solves"]
        assert 0 < info["secular_iterations"] <= 30 and info["secular_z_drift"] < 1e-12

    def test_one_solve_per_c12(self, tmp_path, solves):
        code, info = self.verify(tmp_path, BASE + self.GRID + "c12_values = 0.0, -0.3\n")
        assert code == 0 and info["simulated_points"] >= 6
        assert len(solves) == 2 == info["normal_mode_solves"]
        assert set(info["bath_modes"]) == {"c12=0", "c12=-0.3"}

    @pytest.mark.parametrize("axes, c12s", [
        (GRID, {0.0}),
        (GRID + "c12_values = 0.0, -0.3\n", {0.0, -0.3}),
        (GRID.replace("8.0", "8.0, 0.5"), {0.0}),  # a repeated T shares its integral
    ], ids=["grid", "two-c12", "repeated-T"])
    def test_one_thermal_integral_per_c12_and_temperature(self, tmp_path, solves, integrals,
                                                         axes, c12s):
        # one Theta per (C12, T), all of a C12's from one product over its window
        code, info = self.verify(tmp_path, BASE + axes)
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        pairs = {(p["T"], p["C12"]) for p in report["points"] if "simulated" in p}
        assert code == 0 and {c12 for _, c12 in pairs} == c12s
        assert len(integrals) == len(c12s) == info["thermal_grids"] == info["normal_mode_solves"]
        assert sum(len(thetas) for thetas, _, _ in integrals) == len(pairs) < info["simulated_points"]
        assert info["thermal_nodes"] == sum(nodes * len(thetas) for thetas, nodes, _ in integrals) > 0

    def test_evolve_integrates_once(self, tmp_path, solves, integrals):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert len(integrals) == 1 == info["thermal_grids"] and len(integrals[0][0]) == 1
        assert info["thermal_nodes"] == integrals[0][1] > 0

    def test_nothing_is_shared_across_commands(self, tmp_path, solves):
        self.verify(tmp_path, BASE + self.GRID, name="a")
        assert len(solves) == 1
        self.verify(tmp_path, BASE + self.GRID, name="b")
        assert len(solves) == 2

    def test_symmetric_grid_shares_its_solver(self, tmp_path, solves):
        text = BASE.replace("coupling = position", "coupling = symmetric") + self.GRID
        code, info = self.verify(tmp_path, text)
        assert code == 0 and info["simulated_points"] >= 2
        assert len(solves) == 1 == info["normal_mode_solves"]

    @pytest.mark.parametrize("command, text", [
        ("evolve", BASE),
        ("verify", BASE + GRID),
        ("coeffs", BASE.replace("coupling = position", "coupling = symmetric")),
    ])
    def test_no_dense_eigendecomposition(self, tmp_path, monkeypatch, command, text):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestCoeffsCommand:
    SYM = BASE.replace("coupling = position", "coupling = symmetric").replace(
        "temperature = 10.0", "temperature = 0.0"
    ).replace("modes = 300", "modes = 400").replace("t_max = 30.0", "t_max = 20.0")

    def test_zero_temperature_residual_column_and_footer(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SYM)
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "coefficients.csv").read_text()
        assert "zero_T_residual" in text.splitlines()[2]
        footer = [l for l in text.splitlines() if l.startswith("# max_zero_T_residual")]
        assert footer and float(footer[0].split()[-1]) < 1e-6
        rows = read_csv(tmp_path / "o" / "coefficients.csv")
        assert set(rows[0]) == {"t", "gamma", "delta_omega2", "diffusion", "zero_T_residual"}
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert info["bath_modes"] == 400 and info["samples"] >= len(rows)
        assert info["t_valid"] == pytest.approx(float(rows[-1]["t"]), rel=1e-10)
        assert info["amplitude_floor"] >= 0.0 and info["secular_z_drift"] < 1e-12
        # the health of the (+)-sector flow and of the checks, as evolve reports it
        assert info["thermal_nodes"] >= info["samples"] - 1 and 0.0 <= info["thermal_drift"] < 1e-9
        assert 0.0 <= info["unitarity_defect"] < 1e-8 and 0.0 <= info["constraint_residual"] < 1e-8
        assert set(info["wall_time_s"]) == {"config", "model", "amplitude", "coefficients", "write"}

    def test_time_column_steps_by_the_configured_dt(self, tmp_path):
        # dt * cutoff = 0.1, the loader's bound, is the coefficient grid as given
        cfg = write_cfg(tmp_path, self.SYM + "dt = 0.005\n")
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        t = np.array([float(r["t"]) for r in read_csv(tmp_path / "o" / "coefficients.csv")])
        assert t[0] == 0.0 and np.abs(np.diff(t) - 0.005).max() < 1e-9
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert info["samples"] == 4001

    def test_free_bath_gives_zero_coefficients(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SYM.replace("gamma0 = 0.1", "gamma0 = 0.0"))
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "coefficients.csv")
        gam = np.array([float(r["gamma"]) for r in rows])
        dif = np.array([float(r["diffusion"]) for r in rows])
        assert np.abs(gam).max() == 0.0
        assert np.abs(dif).max() == 0.0
        kernel = read_csv(tmp_path / "o" / "kernel.csv")
        assert kernel
        for column in ("re_eta", "im_eta", "re_eta_discrete", "im_eta_discrete"):
            assert all(float(r[column]) == 0.0 for r in kernel)
        for name in ("coefficients.csv", "kernel.csv"):
            lines = (tmp_path / "o" / name).read_text().splitlines()
            fields = [f for line in lines if not line.startswith("#") for f in line.split(",")]
            assert "-0.00000000000e+00" not in fields  # no IEEE signed zeros

    def test_position_coupling_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


SWEEP = BASE + """
[sweep]
temperatures = 0.5, 4.0, 10.0
squeezings = 0.0, 1.5, 3.0
"""


class TestPhaseDiagramCommand:
    def test_canonical_order_and_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP)
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "phase_diagram.csv")
        assert len(rows) == 9
        temps = [float(r["T"]) for r in rows]
        rs = [float(r["r"]) for r in rows]
        assert temps == sorted(temps)
        assert rs[:3] == [0.0, 1.5, 3.0]  # row-major: r fastest within T
        assert list(rows[0]) == [
            "T", "r", "C12", "purity",
            "dx_plus", "dp_plus", "r_crit", "s_crit", "e_mean", "e_amp", "phase",
        ]
        assert (tmp_path / "o" / "phase_boundaries.json").exists()
        assert (tmp_path / "o" / "run_info.json").exists()

    def test_run_section_changes_neither_output_nor_digest(self, tmp_path):
        # [run] says how and where to run, never what: the digest leaves it out
        cfg = write_cfg(tmp_path, SWEEP)
        other = write_cfg(tmp_path, SWEEP + "\n[run]\nout_dir = elsewhere\n"
                          "override_horizon = true\n", "other.cfg")
        for name, path in (("a", cfg), ("b", other)):
            assert main(["phase-diagram", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        for name in ("phase_diagram.csv", "phase_boundaries.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command, text, artifacts", [
        ("phase-diagram", SWEEP,
         {"phase_diagram.csv", "phase_boundaries.json", "run_info.json", "plot_phase_diagram.py"}),
        ("verify", BASE, {"verify_report.json", "run_info.json"}),
    ], ids=["phase-diagram", "verify"])
    def test_out_holds_only_the_artifacts(self, tmp_path, command, text, artifacts):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == artifacts  # no .cache

    def test_stale_cache_file_changes_nothing(self, tmp_path):
        # an older version kept stationary points in <out>/.cache/stationary.json,
        # keyed by a hash of the version, the route and the point; plant a
        # bogus entry under the key of each grid point
        cfg = write_cfg(tmp_path, SWEEP)
        config = load_config(cfg)
        stale = {"dx_plus": 7.0, "dp_plus": 7.0, "omega_plus": 1.0, "quad_error": 0.0,
                 "minus_mass": 1.0, "minus_freq": 1.0}
        planted = {}
        for t in (0.5, 4.0, 10.0):
            point = {name: getattr(config, name) for name in (
                "coupling", "renormalization", "mass", "omega_r", "omega0", "gamma0", "cutoff",
            )}
            point.update(temperature=t, c12=0.0)
            body = {"version": __version__, "route": sweep._STATIONARY_ROUTE, "point": point}
            planted[hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:32]] = stale
        (tmp_path / "stale" / ".cache").mkdir(parents=True)
        (tmp_path / "stale" / ".cache" / "stationary.json").write_text(json.dumps(planted))
        for name in ("clean", "stale"):
            assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for name in ("phase_diagram.csv", "phase_boundaries.json", "plot_phase_diagram.py"):
            assert (tmp_path / "clean" / name).read_bytes() == (tmp_path / "stale" / name).read_bytes()
        rows = read_csv(tmp_path / "stale" / "phase_diagram.csv")
        assert all(float(row["dx_plus"]) != 7.0 for row in rows)

    def test_each_stationary_point_is_computed_once(self, tmp_path, monkeypatch):
        calls, lookups = [], []
        compute, lookup = sweep._stationary_point, sweep._stationary_point_cached

        def counted(payload):
            calls.append(payload[1:])
            return compute(payload)

        def looked_up(payload, memo):
            lookups.append(payload[1:])
            return lookup(payload, memo)

        monkeypatch.setattr(sweep, "_stationary_point", counted)
        monkeypatch.setattr(sweep, "_stationary_point_cached", looked_up)
        text = TestPhaseBoundaries.GRID + "c12_values = 0.0, -0.5\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        temps, _, c12s, _ = sweep_axes(load_config(cfg))
        grid = {(t, c) for t in temps for c in c12s}
        assert calls[:len(grid)] == [(t, c) for t in temps for c in c12s]
        midpoints = calls[len(grid):]
        assert midpoints and len(set(midpoints)) == len(midpoints)  # one call per midpoint
        assert not grid & set(midpoints) and set(lookups) == set(midpoints)
        assert len(lookups) > len(midpoints)  # columns that bisect one edge share its midpoints
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert info["stationary"]["points"] == len(calls)

    def test_unstable_bare_frequencies_are_a_regime_error(self, tmp_path):
        # bare omega0 = 1 under gamma0 = 0.1, cutoff = 20: the static shift
        # -8/pi outweighs omega0^2, so no dressed (+) frequency exists
        text = SWEEP.replace("renormalization = renormalized", "renormalization = bare")
        cfg = load_config(write_cfg(tmp_path, text.replace("omega_r = 1.0", "omega0 = 1.0")))
        rows, info = run_phase_sweep(cfg)
        assert all(row["phase"] == "ERROR" for row in rows)
        assert len(info["errors"]) == 3
        assert all(e["reason"].startswith("ParameterRegimeError:") for e in info["errors"])

    def test_failed_point_marks_row_and_continues(self, tmp_path):
        # gamma0 = 0 makes the stationary quadrature impossible: every row is
        # marked ERROR but the sweep still completes with exit code 0
        text = SWEEP.replace("gamma0 = 0.1", "gamma0 = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "phase_diagram.csv")
        assert len(rows) == 9
        assert all(r["phase"] == "ERROR" for r in rows)
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert [(e["T"], e["C12"]) for e in info["errors"]] == [(0.5, 0.0), (4.0, 0.0), (10.0, 0.0)]
        assert all("gamma0 > 0" in e["reason"] for e in info["errors"])

    def test_mixed_minus_mode_shrinks_nsd_region(self, tmp_path):
        text = BASE + """
[sweep]
temperatures = 0.3, 1.0, 2.0, 4.0
squeezings = 0.25, 0.75, 1.5, 2.5
purity_values = 0.5, 1.0
"""
        cfg = load_config(write_cfg(tmp_path, text))
        rows, _ = run_phase_sweep(cfg)
        nsd_pure = {
            (r["T"], r["r"]) for r in rows if r["purity"] == 0.5 and r["phase"] == "NSD"
        }
        nsd_mixed = {
            (r["T"], r["r"]) for r in rows if r["purity"] == 1.0 and r["phase"] == "NSD"
        }
        assert nsd_mixed < nsd_pure  # strict shrinkage on this grid


def _slacks(r, r_crit, s_crit):
    return {"nsd_sdr": abs(abs(r) - abs(r_crit)) - s_crit, "sdr_sd": abs(r) + abs(r_crit) - s_crit}


class TestPhaseBoundaries:
    # fig2_left and fig5 cut to 6 x 6
    GRID = BASE + """
[sweep]
temperatures = 0.05:10:6
squeezings = 0:3:6
"""

    @pytest.mark.parametrize("c12", [0.0, -0.5])
    def test_boundary_points_are_crossings(self, tmp_path, c12):
        cfg = load_config(write_cfg(tmp_path, self.GRID.replace("c12 = 0.0", f"c12 = {c12}")))
        rows, info = run_phase_sweep(cfg)
        assert info["n_errors"] == 0
        curves = phase_boundaries(cfg, rows)[f"c12={c12:g};purity=0.5"]
        temps, rs, _, _ = sweep_axes(cfg)
        row_at = {(row["T"], row["r"]): row for row in rows}
        density = OhmicSpectralDensity(gamma0=0.1, cutoff=20.0)
        omega_plus, omega_minus = math.sqrt(1.0 + c12), math.sqrt(1.0 - c12)

        def slack(name, t, r):
            dx, dp = stationary_variances_position(density, omega_plus, t)
            r_crit = 0.5 * math.log(omega_minus * dx / dp)
            s_crit = 0.5 * math.log(2.0 * dx * dp)  # pure (-) mode: dx- dp- = 1/2
            return _slacks(r, r_crit, s_crit)[name]

        n_r_edge = n_t_edge = 0
        for name, points in curves.items():
            for t, r in points:
                if t in temps:  # closed form along r at a grid temperature
                    row = row_at[t, rs[0]]
                    below = _slacks(r - 1e-6, row["r_crit"], row["s_crit"])[name]
                    above = _slacks(r + 1e-6, row["r_crit"], row["s_crit"])[name]
                    n_r_edge += 1
                else:  # bisected along T at a grid r
                    assert r in rs
                    i = next(i for i in range(len(temps) - 1) if temps[i] < t < temps[i + 1])
                    tol = 1e-3 * max(1.0, temps[i + 1] - temps[i])
                    below, above = slack(name, t - tol, r), slack(name, t + tol, r)
                    n_t_edge += 1
                assert below * above < 0.0, (name, t, r)
            # every grid edge whose end slacks differ in sign holds a point
            values = {(t, r): _slacks(r, row["r_crit"], row["s_crit"])[name]
                      for (t, r), row in row_at.items()}
            for t in temps:
                for r0, r1 in zip(rs[:-1], rs[1:]):
                    if values[t, r0] * values[t, r1] < 0.0:
                        assert any(pt == t and r0 <= pr <= r1 for pt, pr in points)
            for r in rs:
                for t0, t1 in zip(temps[:-1], temps[1:]):
                    if values[t0, r] * values[t1, r] < 0.0:
                        assert any(pr == r and t0 < pt < t1 for pt, pr in points)
        assert n_r_edge and n_t_edge


    def test_descending_temperature_axis_bisects_like_the_ascending_one(self, tmp_path):
        # on a descending axis every T-edge runs from the higher temperature to
        # the lower one; bisection must not read that as an empty interval
        up = load_config(write_cfg(tmp_path, self.GRID, "up.cfg"))
        temps, _, _, _ = sweep_axes(up)
        listed = ", ".join(repr(t) for t in reversed(temps))
        down = load_config(write_cfg(
            tmp_path, self.GRID.replace("0.05:10:6", listed), "down.cfg"))
        curves = [phase_boundaries(cfg, run_phase_sweep(cfg)[0])["c12=0;purity=0.5"]
                  for cfg in (up, down)]
        tol = 1e-3 * max(1.0, temps[1] - temps[0])
        n_t_edge = 0
        for name in ("nsd_sdr", "sdr_sd"):
            (on_up, off_up), (on_down, off_down) = (
                ([p for p in c[name] if p[0] in temps], [p for p in c[name] if p[0] not in temps])
                for c in curves
            )
            assert on_up == on_down  # closed form along r
            assert len(off_up) == len(off_down)
            for (t_up, r_up), (t_down, r_down) in zip(off_up, off_down):
                assert r_up == r_down and abs(t_up - t_down) <= 2.0 * tol
            n_t_edge += len(off_up)
        assert n_t_edge


class TestSymmetricSweep:
    def test_symmetric_rows_have_no_oscillation_amplitude(self, tmp_path):
        # balanced equilibrium: r_crit = 0, so every envelope amplitude vanishes
        text = BASE.replace("coupling = position", "coupling = symmetric") + """
[sweep]
temperatures = 1.0, 10.0
squeezings = 0.5, 2.5
"""
        cfg = load_config(write_cfg(tmp_path, text))
        rows, info = run_phase_sweep(cfg)
        assert info["n_errors"] == 0
        assert all(abs(r["e_amp"]) < 1e-3 for r in rows)
        assert all(abs(r["r_crit"]) < 1e-9 for r in rows)
        assert {r["phase"] for r in rows} <= {"NSD", "SD"}


class TestSymmetricStationaryRoute:
    SYM = BASE.replace("coupling = position", "coupling = symmetric")

    @pytest.mark.parametrize("gamma0", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_physical_grid_has_no_error_rows(self, tmp_path, gamma0):
        # the coefficient-trace route left 32 of these 60 points ERROR
        text = self.SYM.replace("gamma0 = 0.1", f"gamma0 = {gamma0}") + """
[sweep]
temperatures = 0, 0.05, 1, 10
squeezings = 1.0
c12_values = 0, 0.99, -0.5
"""
        rows, info = run_phase_sweep(load_config(write_cfg(tmp_path, text)))
        assert len(rows) == 12
        assert info["n_errors"] == 0 and info["errors"] == []

    def test_level_outside_the_band_is_a_regime_error_row(self, tmp_path):
        # cutoff 1.5, C12 = 0.99: the dressed Omega+ = 1.99 lies above the band
        text = self.SYM.replace("cutoff = 20.0", "cutoff = 1.5") + """
[sweep]
temperatures = 1.0
squeezings = 1.0
c12_values = 0.0, 0.99
"""
        rows, info = run_phase_sweep(load_config(write_cfg(tmp_path, text)))
        assert [row["phase"] == "ERROR" for row in rows] == [False, True]
        assert [(e["C12"], e["reason"].split(":")[0]) for e in info["errors"]] == [
            (0.99, "ParameterRegimeError")
        ]

    @pytest.mark.parametrize("command", ["phase-diagram", "evolve", "coeffs"])
    def test_level_near_the_cutoff_runs(self, tmp_path, command):
        # cutoff 2.5, C12 = 0.99: the level shift at Omega+ = 1.99 is positive,
        # which the bracketed search for the bare frequency did not allow (exit 5)
        text = self.SYM.replace("cutoff = 20.0", "cutoff = 2.5").replace(
            "c12 = 0.0", "c12 = 0.99").replace("modes = 300", "modes = 200").replace(
            "t_max = 30.0", "t_max = 10.0") + """
[sweep]
temperatures = 0.05, 1, 10
squeezings = 0, 1.5, 3
"""
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_run_info_records_the_route_and_its_health(self, tmp_path):
        text = self.SYM + """
[sweep]
temperatures = 0.5, 4.0
squeezings = 0.0, 1.5
c12_values = 0.0, -0.5
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
        info = json.loads((out / "run_info.json").read_text())
        assert set(info["wall_time_s"]) == {"config", "sweep", "boundaries", "write"}
        assert all(seconds >= 0.0 for seconds in info["wall_time_s"].values())
        health = info["stationary"]
        assert health["route"] == sweep._STATIONARY_ROUTE
        assert health["points"] >= 4  # grid keys, plus any boundary midpoints
        assert 0.0 < health["max_quad_error"] < 1e-5
        assert set(health["bound_state"]) == {"c12=0", "c12=-0.5"}
        for entry in health["bound_state"].values():
            assert 0.0 < entry["bound_weight"] < 1e-3
            assert abs(entry["sum_rule_residual"]) <= 1e-8
        position = tmp_path / "p"
        assert main(["phase-diagram", "--config", str(write_cfg(tmp_path, SWEEP, "p.cfg")),
                     "--out", str(position)]) == 0
        health = json.loads((position / "run_info.json").read_text())["stationary"]
        assert set(health) == {"route", "points", "max_quad_error"}


class TestVerifyCommand:
    def test_small_grid_passes(self, tmp_path):
        text = BASE + """
[sweep]
temperatures = 0.5, 8.0
squeezings = 0.1, 2.5
"""
        cfg = write_cfg(tmp_path, text)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert code == 0
        assert report["passed"] is True
        statuses = {p["status"] for p in report["points"]}
        assert statuses <= {"pass", "boundary - excluded"}

    def test_three_by_three_grid_agrees_off_boundaries(self, tmp_path):
        text = BASE + """
[sweep]
temperatures = 0.6, 1.0, 1.6
squeezings = 0.6, 1.0, 1.5
"""
        cfg = load_config(write_cfg(tmp_path, text))
        report = verify_grid(cfg)
        assert report["passed"] is True
        checked = [p for p in report["points"] if p["status"] == "pass"]
        assert checked  # at least some points sit safely off the boundaries
        assert all(p["envelope_deviation"] < 5e-2 for p in checked)

    def test_sdr_point_classified_intermittent(self, tmp_path):
        # interacting oscillators at high temperature: a wide SDR band exists
        text = BASE.replace("c12 = 0.0", "c12 = -0.5") + """
[sweep]
temperatures = 10.0
squeezings = 1.67
"""
        cfg = load_config(write_cfg(tmp_path, text))
        report = verify_grid(cfg)
        point = report["points"][0]
        assert point["phase"] == "SDR"
        assert point["status"] == "pass"
        assert point["simulated"] == "intermittent"

    def test_points_never_simulated_are_errors_not_failures(self, tmp_path, capsys):
        # no weak-coupling bare frequency: every stationary point is a regime error
        text = (BASE.replace("coupling = position", "coupling = symmetric")
                .replace("c12 = 0.0", "c12 = 0.3").replace("gamma0 = 0.1", "gamma0 = 0.5")
                .replace("cutoff = 20.0", "cutoff = 1.5").replace("modes = 300", "modes = 200")
                + "\n[sweep]\ntemperatures = 0.5, 1.0, 2.0\nsqueezings = 0.5, 1.0, 1.5\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["n_fail"] == 0 and report["passed"] is False
        assert len(report["points"]) == 9
        for point in report["points"]:
            assert point["status"] == "error"
            assert point["reason"].startswith("ParameterRegimeError: ")
        assert "0 failing and 9 errored" in capsys.readouterr().out

    def test_simulation_error_carries_its_reason(self, tmp_path, monkeypatch):
        def fail(model, states, times, flow):
            raise NumericsError("injected")

        monkeypatch.setattr(sweep, "entanglement_trajectory", fail)
        cfg = write_cfg(tmp_path, BASE)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        point, = json.loads((tmp_path / "o" / "verify_report.json").read_text())["points"]
        assert point["status"] == "simulation error: injected"
        assert point["reason"] == "NumericsError: injected"

    # two points of one (C12, T), both simulated in one stack
    PAIR = BASE + "\n[sweep]\ntemperatures = 8.0\nsqueezings = 0.1, 2.5\n"

    def run_pair(self, tmp_path, name):
        cfg = write_cfg(tmp_path, self.PAIR, f"{name}.cfg")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)])
        report = json.loads((tmp_path / name / "verify_report.json").read_text())
        info = json.loads((tmp_path / name / "run_info.json").read_text())
        return code, report["points"], info

    def test_a_failed_initial_state_errors_only_its_point(self, tmp_path, monkeypatch):
        _, clean, _ = self.run_pair(tmp_path, "clean")
        build = sweep.initial_covariance

        def fail_squeezed(model, kind, r, purity_product):
            if r == 2.5:
                raise ValidationError("injected")
            return build(model, kind, r=r, purity_product=purity_product)

        monkeypatch.setattr(sweep, "initial_covariance", fail_squeezed)
        code, points, info = self.run_pair(tmp_path, "o")
        assert code == 3 and info["simulated_points"] == 1
        assert points[0] == clean[0] and points[0]["status"] == "pass"
        assert points[1]["reason"] == "ValidationError: injected"

    def test_initial_states_are_checked_as_one_stack(self, tmp_path, monkeypatch):
        _, clean, _ = self.run_pair(tmp_path, "clean")
        build, check, stacks = sweep.initial_covariance, sweep.check_states, []

        def squeezed_below_the_vacuum(model, kind, r, purity_product):
            cov = build(model, kind, r=r, purity_product=purity_product)
            return 0.5 * cov if r == 2.5 else cov

        def counted(means, covs):
            stacks.append(len(covs))
            return check(means, covs)

        monkeypatch.setattr(sweep, "initial_covariance", squeezed_below_the_vacuum)
        monkeypatch.setattr(sweep, "check_states", counted)
        code, points, info = self.run_pair(tmp_path, "o")
        assert code == 3 and info["simulated_points"] == 1 and stacks == [2, 1]
        assert points[0] == clean[0] and points[0]["status"] == "pass"
        assert points[1]["reason"].startswith("ValidationError: unphysical covariance")

    def test_an_unphysical_sample_errors_only_its_point(self, tmp_path, monkeypatch):
        _, clean, _ = self.run_pair(tmp_path, "clean")
        check = bathsim.check_states

        def corrupt_second_state(means, covs):
            if len(covs) == 2:  # the whole stack: zero the second state at its sixth sample
                covs = covs.copy()
                covs[1, 5] = 0.0
            return check(means, covs)

        monkeypatch.setattr(bathsim, "check_states", corrupt_second_state)
        code, points, info = self.run_pair(tmp_path, "o")
        assert code == 3 and info["simulated_points"] == 1 and info["thermal_nodes"] == 359 * 7
        assert points[0] == clean[0] and points[0]["status"] == "pass"
        t = 40.0 + 5 * (3 * math.pi / 359)  # the sixth time of the window [40, 40 + 3 pi]
        assert points[1]["reason"].startswith(
            f"NumericsError: numerical instability: reduced state unphysical at t={t:.6g} "
            "(unphysical covariance")

    def test_weak_damping_hits_the_bath_ceiling_before_any_solve(self, tmp_path):
        # gamma0 = 1e-3 asks for about 1.05*(4000 + 3 pi)*20/pi = 26,800 modes
        cfg = write_cfg(tmp_path, BASE.replace("gamma0 = 0.1", "gamma0 = 0.001")
                        + "\n[sweep]\ntemperatures = 0.5, 8.0\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["n_fail"] == 0 and len(report["points"]) == 2
        for point in report["points"]:
            assert point["reason"].startswith("HorizonError: ")
            assert "needs 26802 bath modes, more than 4000" in point["reason"]
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert info["normal_mode_solves"] == 0 and info["bath_modes"] == {}
        assert info["simulated_points"] == 0

    def test_bath_modes_raise_the_ceiling(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "_VERIFY_MODE_CEILING", 100)  # the window needs 331 modes
        for name, modes in (("low", 300), ("high", 331)):
            cfg = write_cfg(tmp_path, BASE.replace("modes = 300", f"modes = {modes}"), f"{name}.cfg")
            code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)])
            assert code == (3 if name == "low" else 0)
        point, = json.loads((tmp_path / "low" / "verify_report.json").read_text())["points"]
        assert "needs 331 bath modes, more than 300" in point["reason"]

    def test_run_info_and_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "\n[sweep]\ntemperatures = 0.5, 8.0\n")
        for name in ("a", "b"):
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        info = json.loads((tmp_path / "a" / "run_info.json").read_text())
        assert info["simulated_points"] == 2 and info["normal_mode_solves"] == 1
        assert info["bath_modes"] == {"c12=0": 331}
        # one integral per temperature: 359 steps of 3 pi / 359, each one sub-interval
        # (step w_max ~ 0.53) of 7 nodes
        assert info["thermal_nodes"] == 2 * 359 * 7
        assert info["thermal_grids"] == 1  # both temperatures share the window
        assert -1e-12 < info["min_physicality_defect"] <= 1e-9
        assert 0.0 <= info["thermal_drift"] < 1e-12
        assert info["sweep"]["stationary"]["route"] == sweep._STATIONARY_ROUTE
        assert info["sweep"]["n_points"] == 2 and "wall_time_s" not in info["sweep"]
        assert set(info["wall_time_s"]) == {"config", "grid", "write"}
        assert info["wall_time_s"]["grid"] > 0.0 and info["wall_time_s"]["write"] >= 0.0
        assert info["wall_time_s"]["config"] > 0.0
        assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_grid_size_limit(self, tmp_path, monkeypatch):
        # the limit is on the points one (C12, T) group stacks, not on the grid
        monkeypatch.setattr(sweep, "run_phase_sweep", None)  # raised before any work
        text = BASE + """
[sweep]
temperatures = 0:10:6
squeezings = 0:3:501
purity_values = 0.5, 1.0
"""
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(ValidationError, match="stacks 1002 points per \\(C12, T\\); limit is 1000"):
            verify_grid(cfg)

    def test_full_paper_figure_verifies(self, tmp_path):
        # all 676 points of fig2_left, 26 per (C12, T) group
        cfg = Path(__file__).resolve().parent.parent / "configs" / "fig2_left.cfg"
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert report["n_fail"] == 0 and report["passed"] and len(report["points"]) == 676
        info = json.loads((tmp_path / "o" / "run_info.json").read_text())
        assert info["simulated_points"] > 600 and info["normal_mode_solves"] == 1
        assert -1e-12 < info["min_physicality_defect"] <= 1e-9

    def test_axes_default_to_point_values(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        temps, rs, c12s, purity = sweep_axes(cfg)
        assert temps == (10.0,)
        assert rs == (2.0,)
        assert c12s == (0.0,)
        assert purity == (0.5,)
