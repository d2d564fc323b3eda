"""Tests of the benchmark's own arithmetic, checker and generator."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import check
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# self-time arithmetic


def _span(name, parent, start, end):
    return [name, parent, start, end]


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert spans.union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_the_time_children_cover():
    trace = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("bathsim.evolve", 0, 1.0, 6.0),
        _span("eigh", 1, 1.0, 2.0),
        _span("gaussian.state", 1, 3.0, 4.0),
        _span("gaussian.log_negativity", 0, 7.0, 8.5),
    ]
    assert spans.self_times(trace) == pytest.approx([3.5, 3.0, 1.0, 1.0, 1.5])


def test_overlapping_children_are_not_subtracted_twice():
    trace = [_span("a", -1, 0.0, 10.0), _span("b", 0, 1.0, 5.0), _span("c", 0, 4.0, 6.0)]
    assert spans.self_times(trace)[0] == pytest.approx(5.0)


def test_summary_counts_nested_same_name_once_and_charges_eigh_to_its_layer():
    trace = [
        _span("sweep.verify_grid", -1, 0.0, 10.0),
        _span("sweep.run_phase_sweep", 0, 0.0, 2.0),
        _span("sweep.run_phase_sweep", 1, 0.5, 1.5),
        _span("bathsim.evolve", 0, 3.0, 6.0),
        _span("eigh", 3, 3.0, 4.0),
        _span("rwa.solve_amplitude", 0, 7.0, 9.0),
        _span("eigh", 5, 7.0, 7.5),
    ]
    summary = spans.summarize_spans(trace)
    assert summary["sweep.run_phase_sweep"]["calls"] == 2
    assert summary["sweep.run_phase_sweep"]["s"] == pytest.approx(2.0)
    assert summary["bathsim.eigh"] == {"calls": 1, "s": pytest.approx(1.0), "self_s": pytest.approx(1.0)}
    assert summary["rwa.eigh"]["s"] == pytest.approx(0.5)
    assert summary["bathsim.evolve"]["self_s"] == pytest.approx(2.0)


def test_recorder_wraps_and_restores():
    import entbath.bathsim as bathsim

    original = bathsim.discretize
    recorder = spans.Recorder()
    recorder.patch("entbath.bathsim", "discretize", "spectra.discretize")
    try:
        density = bathsim.OhmicSpectralDensity(gamma0=0.1, cutoff=20.0)
        bathsim.discretize(density, 10, 1.0)
    finally:
        recorder.uninstall()
    assert bathsim.discretize is original
    assert [s[spans.NAME] for s in recorder.spans] == ["spectra.discretize"]
    metrics = spans.layer_metrics(recorder.spans, recorder.counts)
    assert metrics["spectra.discretize_calls"] == 1


# ---------------------------------------------------------------------------
# checker


def _write_phase_outputs(out_dir: Path, params: dict) -> list[dict]:
    """phase_diagram.csv and phase_boundaries.json built from the reference tables."""
    temps, rs = params["temperatures"], params["squeezings"]
    table = reference.stationary_table(params["coupling"], params["c12"])
    purity = params["purity_product"]
    columns = ["T", "r", "C12", "purity", "dx_plus", "dp_plus", "r_crit", "s_crit", "phase"]
    lines = [",".join(columns)]
    rows = []
    for t in temps:
        dx, dp = table.dispersions(t)
        for r in rs:
            v = table.phase_values(t, r, purity)
            row = {"T": t, "r": r, "C12": params["c12"], "purity": purity, "dx_plus": dx,
                   "dp_plus": dp, "r_crit": v["r_crit"], "s_crit": v["s_crit"], "phase": v["phase"]}
            rows.append(row)
            lines.append(",".join(
                row[c] if c == "phase" else "%.11e" % row[c] for c in columns
            ))
    (out_dir / "phase_diagram.csv").write_text("\n".join(lines) + "\n")
    v = table.phase_values(temps[-1], 0.0, purity)
    rc, sc = abs(v["r_crit"]), v["s_crit"]
    boundaries = {"boundaries": {f"c12={params['c12']:g};purity={purity:g}": {
        "nsd_sdr": [[temps[-1], rc + sc]] + _t_edge_points(params, "lo"),
        "sdr_sd": [[temps[-1], sc - rc]] + _t_edge_points(params, "hi"),
    }}}
    (out_dir / "phase_boundaries.json").write_text(json.dumps(boundaries))
    return rows


def _t_edge_points(params: dict, slack: str) -> list[list[float]]:
    """A point between the two tabled temperatures where each crossed T-edge changes sign."""
    temps, rs = params["temperatures"], params["squeezings"]
    table = reference.stationary_table(params["coupling"], params["c12"])
    points = []
    for r in rs:
        for t0, t1 in zip(temps[:-1], temps[1:]):
            tabled = [t for t in table.temperatures if t0 <= t <= t1]
            values = [table.phase_values(t, r, params["purity_product"])[slack] for t in tabled]
            points.extend([(a + b) / 2, r] for a, b, va, vb in
                          zip(tabled, tabled[1:], values, values[1:]) if va * vb < 0.0)
    return points


def _t_edge_invocation():
    params = workloads.workload_params("phase-position", 0)["fig2_left"]
    return {"name": "fig2_left", "command": "phase-diagram", "params": params}


def _edit_boundaries(out_dir: Path, edit) -> None:
    path = out_dir / "phase_boundaries.json"
    payload = json.loads(path.read_text())
    edit(next(iter(payload["boundaries"].values())))
    path.write_text(json.dumps(payload))


def _phase_invocation():
    params = workloads.workload_params("phase-symmetric", 0)["fig2_right_cut"]
    return {"name": "fig2_right_cut", "command": "phase-diagram", "params": params}


def test_checker_accepts_reference_phase_outputs(tmp_path):
    inv = _phase_invocation()
    _write_phase_outputs(tmp_path, inv["params"])
    assert check.check_invocation(inv, tmp_path, 0, seed=0) == []


def test_checker_rejects_a_flipped_phase_label(tmp_path):
    inv = _phase_invocation()
    _write_phase_outputs(tmp_path, inv["params"])
    path = tmp_path / "phase_diagram.csv"
    lines = path.read_text().splitlines()
    # T=10, r=0 sits far from both boundaries (slack ~ -S_crit)
    assert lines[13].startswith("1.00000000000e+01,0.00000000000e+00")
    label = lines[13].rsplit(",", 1)[1]
    lines[13] = lines[13].rsplit(",", 1)[0] + ("," + ("NSD" if label != "NSD" else "SD"))
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_invocation(inv, tmp_path, 0, seed=0)
    assert any("phase" in p for p in problems)


def test_checker_rejects_an_off_curve_boundary_point(tmp_path):
    inv = _phase_invocation()
    _write_phase_outputs(tmp_path, inv["params"])

    def off_curve(curves):
        curves["nsd_sdr"][0][1] += 1e-2

    _edit_boundaries(tmp_path, off_curve)
    problems = check.check_invocation(inv, tmp_path, 0, seed=0)
    assert any("off its curve" in p for p in problems)


def test_checker_accepts_bisected_t_edge_points(tmp_path):
    inv = _t_edge_invocation()
    _write_phase_outputs(tmp_path, inv["params"])
    curves = json.loads((tmp_path / "phase_boundaries.json").read_text())["boundaries"]
    assert sum(len(points) for points in next(iter(curves.values())).values()) > 10
    assert check.check_invocation(inv, tmp_path, 0, seed=0) == []


def test_checker_rejects_an_unbisected_t_edge_point(tmp_path):
    inv = _t_edge_invocation()
    temps = inv["params"]["temperatures"]
    _write_phase_outputs(tmp_path, inv["params"])

    def to_far_end_of_its_edge(curves):
        t, r = curves["nsd_sdr"][1]
        t0, t1 = max(x for x in temps if x < t), min(x for x in temps if x > t)
        curves["nsd_sdr"][1] = [t0 + 0.01 if t - t0 > t1 - t else t1 - 0.01, r]

    _edit_boundaries(tmp_path, to_far_end_of_its_edge)
    problems = check.check_invocation(inv, tmp_path, 0, seed=0)
    assert any("is not a crossing" in p for p in problems)


def test_checker_rejects_a_missing_t_edge_crossing(tmp_path):
    inv = _t_edge_invocation()
    _write_phase_outputs(tmp_path, inv["params"])
    _edit_boundaries(tmp_path, lambda curves: curves["sdr_sd"].pop(1))
    problems = check.check_invocation(inv, tmp_path, 0, seed=0)
    assert any("0 point(s) on the T-edge" in p for p in problems)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    assert check.check_invocation(_phase_invocation(), tmp_path, 3, seed=0)


def _free_trajectory(params: dict) -> np.ndarray:
    """Rows (t, V..., EN) of an uncoupled pair: both virtual modes rotate freely."""
    times = np.arange(0.0, params["t_max"] + params["dt_out"] / 2, params["dt_out"])
    w_minus = check._minus_frequency(params)
    w_plus = 1.3
    area, r = params["purity_product"], params["r"]

    def rotated(w, block):
        c, s = np.cos(w * times), np.sin(w * times)
        rot = np.stack([np.stack([c, s / w], -1), np.stack([-w * s, c], -1)], 1)
        return np.einsum("tik,kl,tjl->tij", rot, block, rot)

    virtual = np.zeros((times.size, 4, 4))
    virtual[:, :2, :2] = rotated(w_plus, np.diag([0.5 * math.exp(-2 * r) / w_plus,
                                                  0.5 * math.exp(2 * r) * w_plus]))
    virtual[:, 2:, 2:] = rotated(w_minus, np.diag([area * math.exp(2 * r) / w_minus,
                                                   area * math.exp(-2 * r) * w_minus]))
    bs = check._BEAM_SPLITTER
    covs = np.einsum("ij,tjk,lk->til", bs, virtual, bs)
    data = np.empty((times.size, 12))
    data[:, 0] = times
    for k, (i, j) in enumerate(check._COV_INDEX):
        data[:, k + 1] = covs[:, i, j]
    data[:, -1] = check.log_negativity(covs)
    return data


def _write_trajectory(out_dir: Path, data: np.ndarray):
    header = ",".join(["t", *check.COV_COLUMNS, "EN"])
    body = "\n".join(",".join("%.11e" % v for v in row) for row in data)
    (out_dir / "trajectory.csv").write_text(f"# synthetic\n{header}\n{body}\n")


def _evolve_invocation():
    params = workloads.workload_params("evolve", 1)["fig3a"]
    return {"name": "fig3a", "command": "evolve", "params": params}


def test_checker_accepts_a_consistent_trajectory(tmp_path):
    inv = _evolve_invocation()
    _write_trajectory(tmp_path, _free_trajectory(inv["params"]))
    assert check.check_invocation(inv, tmp_path, 0, seed=1) == []


def test_checker_rejects_a_perturbed_en_value(tmp_path):
    inv = _evolve_invocation()
    data = _free_trajectory(inv["params"])
    data[700, -1] += 1e-4
    _write_trajectory(tmp_path, data)
    problems = check.check_invocation(inv, tmp_path, 0, seed=1)
    assert any("EN differs" in p for p in problems)


def test_checker_rejects_a_minus_mode_that_feels_the_bath(tmp_path):
    inv = _evolve_invocation()
    data = _free_trajectory(inv["params"])
    data[900:, 1] *= 1.0 + 1e-6  # V_x1x1 drifts, so the (-) block no longer rotates freely
    _write_trajectory(tmp_path, data)
    assert check.check_invocation(inv, tmp_path, 0, seed=1)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    texts = []
    for name in ("a", "b"):
        invs = workloads.generate(workload, 7, tmp_path / name)
        texts.append([Path(inv.config).read_text() for inv in invs])
    assert texts[0] == texts[1]
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert [Path(inv.config).read_text() for inv in other] != texts[0]


@pytest.mark.parametrize("workload", ["verify", "phase-position", "phase-symmetric"])
def test_seeds_keep_sizes_and_work_fixed(workload):
    base = workloads.workload_params(workload, 0)
    for seed in range(1, 6):
        for name, params in workloads.workload_params(workload, seed).items():
            for axis in ("temperatures", "squeezings"):
                assert len(params[axis]) == len(base[name][axis])
                assert 0.0 <= min(params[axis]) and max(params[axis]) <= 10.0
            assert params["modes"] == base[name]["modes"]
            assert workloads._work_signature(workload, params) == \
                workloads._work_signature(workload, base[name])


@pytest.mark.parametrize("name", ["fig3a", "fig3a_coupled", "fig3b", "fig3c", "fig2_left", "fig5"])
def test_seed_zero_reproduces_the_paper_configs(tmp_path, name):
    from entbath.config import load_config

    workload = "evolve" if name.startswith("fig3") else "phase-position"
    invs = {inv.name: inv for inv in workloads.generate(workload, 0, tmp_path)}
    assert load_config(invs[name].config) == load_config(ROOT / "configs" / f"{name}.cfg")
