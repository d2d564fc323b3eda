import hashlib
import json
import math

import numpy as np
import pytest

from entbath import __version__, sweep
from entbath.asymptotics import stationary_variances_position
from entbath.cli import main
from entbath.config import load_config
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

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SWEEP))
        rows1, _ = run_phase_sweep(cfg, workers=1)
        rows2, _ = run_phase_sweep(cfg, workers=2)
        assert rows1 == rows2

    def test_cache_reuse(self, tmp_path, monkeypatch):
        calls = []
        compute = sweep._stationary_point

        def counted(payload):
            calls.append(payload)
            return compute(payload)

        monkeypatch.setattr(sweep, "_stationary_point", counted)
        cfg = load_config(write_cfg(tmp_path, SWEEP))
        cache = tmp_path / "cache"
        rows1, info1 = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        n_cached = len(list(cache.glob("*.json")))
        assert n_cached == 3  # one per unique (T, c12)
        assert len(calls) == 3
        rows2, info2 = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        assert rows1 == rows2
        assert len(calls) == 3  # the second run computes nothing
        assert info2["wall_time_s"] <= info1["wall_time_s"]

    def test_cache_ignores_entries_of_an_older_route(self, tmp_path):
        # an entry under the key of the previous key layout (version and
        # payload only) holds numbers of an older route and must not be read
        cfg = load_config(write_cfg(tmp_path, SWEEP))
        cache = tmp_path / "cache"
        cache.mkdir()
        for t in (0.5, 4.0, 10.0):
            body = {"version": __version__, "point": sweep._variance_payload(cfg, t, 0.0)}
            old_key = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:32]
            stale = {"dx_plus": 7.0, "dp_plus": 7.0, "omega_plus": 1.0,
                     "minus_mass": 1.0, "minus_freq": 1.0}
            (cache / f"{old_key}.json").write_text(json.dumps(stale))
        rows, _ = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        assert rows == run_phase_sweep(cfg, workers=1)[0]
        assert all(row["dx_plus"] != 7.0 for row in rows)

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
        rows, _ = run_phase_sweep(cfg, workers=1)
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
        rows, info = run_phase_sweep(cfg, workers=1)
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


class TestSymmetricSweep:
    def test_symmetric_rows_have_no_oscillation_amplitude(self, tmp_path):
        # balanced equilibrium: r_crit = 0, so every envelope amplitude vanishes
        text = BASE.replace("coupling = position", "coupling = symmetric") + """
[sweep]
temperatures = 1.0, 10.0
squeezings = 0.5, 2.5
"""
        cfg = load_config(write_cfg(tmp_path, text))
        rows, info = run_phase_sweep(cfg, workers=1)
        assert info["n_errors"] == 0
        assert all(abs(r["e_amp"]) < 1e-3 for r in rows)
        assert all(abs(r["r_crit"]) < 1e-9 for r in rows)
        assert {r["phase"] for r in rows} <= {"NSD", "SD"}


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
        report = verify_grid(cfg, workers=1)
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
        report = verify_grid(cfg, workers=1)
        point = report["points"][0]
        assert point["phase"] == "SDR"
        assert point["status"] == "pass"
        assert point["simulated"] == "intermittent"

    def test_grid_size_limit(self, tmp_path):
        text = BASE + """
[sweep]
temperatures = 0:10:6
squeezings = 0:3:6
"""
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(Exception):
            verify_grid(cfg)

    def test_axes_default_to_point_values(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        temps, rs, c12s, purity = sweep_axes(cfg)
        assert temps == (10.0,)
        assert rs == (2.0,)
        assert c12s == (0.0,)
        assert purity == (0.5,)
