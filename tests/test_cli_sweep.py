import hashlib
import json
import math
from concurrent.futures import Future
from pathlib import Path

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
        assert [path.name for path in cache.iterdir()] == ["stationary.json"]
        stored = json.loads((cache / "stationary.json").read_text())
        assert len(stored) == 3  # one entry per unique (T, c12)
        assert len(calls) == 3
        rows2, info2 = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        assert rows1 == rows2
        assert len(calls) == 3  # the second run computes nothing
        assert info2["wall_time_s"] <= info1["wall_time_s"]

    def test_cache_ignores_entries_of_an_older_route(self, tmp_path):
        # entries under the keys of older routes (the layout without a route
        # tag, and the tag of the adaptive-quadrature route) hold numbers of
        # an older route and must not be read
        cfg = load_config(write_cfg(tmp_path, SWEEP))
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = {"dx_plus": 7.0, "dp_plus": 7.0, "omega_plus": 1.0,
                 "minus_mass": 1.0, "minus_freq": 1.0}
        planted = {}
        for t in (0.5, 4.0, 10.0):
            point = {name: getattr(cfg, name) for name in (
                "coupling", "renormalization", "mass", "omega_r", "omega0", "gamma0", "cutoff",
            )}
            point.update(temperature=t, c12=0.0)
            for tag in ({}, {"route": "position: adaptive quad; symmetric: coefficient trace"}):
                body = {"version": __version__, "point": point, **tag}
                old_key = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:32]
                planted[old_key] = stale
        (cache / "stationary.json").write_text(json.dumps(planted))
        rows, _ = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        assert rows == run_phase_sweep(cfg, workers=1)[0]
        assert all(row["dx_plus"] != 7.0 for row in rows)
        # the same entry under the current key is served
        planted[sweep._cache_key(sweep._variance_payload(cfg, 0.5, 0.0))] = stale
        (cache / "stationary.json").write_text(json.dumps(planted))
        rows, _ = run_phase_sweep(cfg, workers=1, cache_dir=cache)
        assert [row["dx_plus"] == 7.0 for row in rows] == [True] * 3 + [False] * 6

    def test_cold_run_writes_the_cache_file_at_most_twice(self, tmp_path, monkeypatch):
        writes = []
        write_text = Path.write_text

        def recorded(path, *args, **kwargs):
            writes.append(path.name)
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", recorded)
        cfg = write_cfg(tmp_path, SWEEP)
        out = tmp_path / "o"
        argv = ["phase-diagram", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert 1 <= writes.count("stationary.json") <= 2
        assert [path.name for path in (out / ".cache").iterdir()] == ["stationary.json"]
        artifacts = {name: (out / name).read_bytes()
                     for name in ("phase_diagram.csv", "phase_boundaries.json")}

        calls = []
        compute = sweep._stationary_point
        monkeypatch.setattr(sweep, "_stationary_point", lambda p: calls.append(p) or compute(p))
        writes.clear()
        assert main(argv) == 0
        assert calls == []  # grid and boundary points all come from the cache
        assert "stationary.json" not in writes
        assert all((out / name).read_bytes() == data for name, data in artifacts.items())

    def test_pool_size_is_capped_by_the_points_to_compute(self, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and runs each task at submit; starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
        cfg = load_config(write_cfg(tmp_path, SWEEP))
        rows, _ = run_phase_sweep(cfg, workers=64)
        assert sizes == [3]  # three unique (T, c12) keys
        assert rows == run_phase_sweep(cfg, workers=1)[0]
        single = load_config(write_cfg(tmp_path, BASE, "single.cfg"))
        run_phase_sweep(single, workers=64)
        assert sizes == [3]  # one key is computed in process

    def test_unstable_bare_frequencies_are_a_regime_error(self, tmp_path):
        # bare omega0 = 1 under gamma0 = 0.1, cutoff = 20: the static shift
        # -8/pi outweighs omega0^2, so no dressed (+) frequency exists
        text = SWEEP.replace("renormalization = renormalized", "renormalization = bare")
        cfg = load_config(write_cfg(tmp_path, text.replace("omega_r = 1.0", "omega0 = 1.0")))
        rows, info = run_phase_sweep(cfg, workers=1)
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
        rows, info = run_phase_sweep(load_config(write_cfg(tmp_path, text)), workers=1)
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
        rows, info = run_phase_sweep(load_config(write_cfg(tmp_path, text)), workers=1)
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
        health = json.loads((out / "run_info.json").read_text())["stationary"]
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
