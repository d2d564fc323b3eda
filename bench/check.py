"""Output checker: judges each CLI invocation of a workload by tolerances, not bytes.

Every check reads only the artifacts a command wrote and the generator's
parameters, so a declared change of numerical route (closed-form E_N, a
spectral stationary route, closed-form or finer boundary polylines) still
passes while a wrong label, number or boundary point does not.

- ``evolve``: E_N recomputed from the emitted covariance (symplectic
  invariants) matches the ``EN`` column; the state is physical; the decoupled
  (-) mode rotates freely and never correlates with the (+) mode; at seed 0 the
  rows match the stored reference within the acceptance suite's tolerances.
- ``phase-diagram``: dispersions match the reference table within 1e-5
  relative, r_crit and S_crit within 1e-4, labels match wherever the point is
  more than 1e-3 from a boundary, each boundary point at a grid temperature
  lies on its curve within 1e-4, and each T-edge that the reference slack
  crosses holds exactly one point at its grid r, bracketed by a sign change of
  the slack between the nearest tabled temperatures.
- ``verify``: the report passed, every simulated class is the one its phase
  predicts, and exactly the points near a boundary were excluded.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import reference
from workloads import VERIFY_MARGIN

#: The symplectic invariants amplify the 12-significant-digit rounding of the
#: covariance columns by about max|V|^2, so these two scale with it per row.
EN_CONSISTENCY_TOL = 1e-9
PHYSICALITY_TOL = 1e-7
#: acceptance-suite tolerances for the seed-0 trajectory reference
EN_REFERENCE_TOL = 1e-9
COV_REFERENCE_RTOL = 1e-8
#: free (-) rotation and (+)(-) decoupling, relative to the largest entry
MINUS_RTOL = 1e-9
DISPERSION_RTOL = 1e-5
PHASE_VALUE_TOL = 1e-4
LABEL_MARGIN = 1e-3
BOUNDARY_TOL = 1e-4
#: T-edge points are bisected to 1e-3 x max(1, edge width); twice that is allowed
T_EDGE_TOL = 2e-3

COV_COLUMNS = (
    "V_x1x1", "V_x1p1", "V_x1x2", "V_x1p2", "V_p1p1",
    "V_p1x2", "V_p1p2", "V_x2x2", "V_x2p2", "V_p2p2",
)
_COV_INDEX = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_BEAM_SPLITTER = np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]
) / math.sqrt(2.0)
_EXPECTED_CLASS = {"NSD": "always-positive", "SDR": "intermittent", "SD": "eventually-zero"}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an entbath CSV, skipping '#' comment lines."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_invocation(inv: dict, out_dir: Path, exit_code, seed: int) -> list[str]:
    """Problems found in one invocation's exit code and artifacts (empty when correct)."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}, expected 0"]
    try:
        return _CHECKS[inv["command"]](inv, out_dir, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# evolve


def log_negativity(covs: np.ndarray) -> np.ndarray:
    """E_N of stacked 4x4 covariances from the symplectic invariants of the partial transpose."""
    a, b, c = covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    delta_pt = np.linalg.det(a) + np.linalg.det(b) - 2.0 * np.linalg.det(c)
    nu2 = 0.5 * (delta_pt - np.sqrt(np.maximum(delta_pt**2 - 4.0 * np.linalg.det(covs), 0.0)))
    return np.maximum(0.0, -0.5 * np.log(4.0 * nu2))


def min_symplectic_eigenvalue(covs: np.ndarray) -> np.ndarray:
    a, b, c = covs[:, :2, :2], covs[:, 2:, 2:], covs[:, :2, 2:]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2.0 * np.linalg.det(c)
    return np.sqrt(0.5 * (delta - np.sqrt(np.maximum(delta**2 - 4.0 * np.linalg.det(covs), 0.0))))


def _covariances(columns: list[str], data: np.ndarray) -> np.ndarray:
    covs = np.empty((data.shape[0], 4, 4))
    for name, (i, j) in zip(COV_COLUMNS, _COV_INDEX):
        covs[:, i, j] = covs[:, j, i] = data[:, columns.index(name)]
    return covs


def _minus_frequency(p: dict) -> float:
    if p["renormalization"] == "renormalized":
        return math.sqrt(p["omega_r"] ** 2 - p["c12"])
    return math.sqrt(p["omega0"] ** 2 - p["c12"])


def _check_evolve(inv: dict, out_dir: Path, seed: int) -> list[str]:
    p = inv["params"]
    columns, rows = read_csv(out_dir / "trajectory.csv")
    if columns != ["t", *COV_COLUMNS, "EN"]:
        return [f"trajectory.csv columns {columns}"]
    data = np.array(rows, dtype=float)
    times = np.arange(0.0, p["t_max"] + p["dt_out"] / 2, p["dt_out"])
    if data.shape[0] != times.size or np.abs(data[:, 0] - times).max() > 1e-9:
        return [f"trajectory.csv has {data.shape[0]} rows, expected {times.size} on the output grid"]
    covs = _covariances(columns, data)
    energies = data[:, -1]
    problems = []

    amplification = np.maximum(1.0, np.abs(covs).max(axis=(1, 2))) ** 2
    en_err = (np.abs(log_negativity(covs) - energies) / amplification).max()
    if en_err > EN_CONSISTENCY_TOL:
        problems.append(f"EN differs from the emitted covariance by {en_err:.3e} x max|V|^2")
    defect = ((0.5 - min_symplectic_eigenvalue(covs)) / amplification).max()
    if defect > PHYSICALITY_TOL:
        problems.append(f"unphysical covariance: symplectic eigenvalue below 1/2 by {defect:.3e} x max|V|^2")

    virtual = np.einsum("ij,tjk,lk->til", _BEAM_SPLITTER, covs, _BEAM_SPLITTER)
    w = _minus_frequency(p)
    area, r = p["purity_product"], p["r"]
    minus0 = np.diag([area * math.exp(2.0 * r) / w, area * math.exp(-2.0 * r) * w])
    c, s = np.cos(w * times), np.sin(w * times)
    rot = np.stack([np.stack([c, s / w], -1), np.stack([-w * s, c], -1)], 1)
    minus = np.einsum("tik,kl,tjl->tij", rot, minus0, rot)
    scale = np.abs(virtual).max()
    minus_err = np.abs(virtual[:, 2:, 2:] - minus).max() / scale
    cross_err = np.abs(virtual[:, :2, 2:]).max() / scale
    if minus_err > MINUS_RTOL:
        problems.append(f"(-) mode is not a free rotation: relative error {minus_err:.3e}")
    if cross_err > MINUS_RTOL:
        problems.append(f"(+)(-) correlations appeared: relative size {cross_err:.3e}")

    if seed == 0:
        ref = reference.evolve_reference()[inv["name"]]
        want = np.array(ref["rows"])
        got = data[:: ref["every"]]
        if got.shape != want.shape:
            return problems + ["seed-0 reference has a different shape"]
        cov_err = (np.abs(got[:, 1:-1] - want[:, 1:-1]).max(axis=1)
                   / np.maximum(1.0, np.abs(want[:, 1:-1]).max(axis=1))).max()
        en_ref_err = np.abs(got[:, -1] - want[:, -1]).max()
        if cov_err > COV_REFERENCE_RTOL:
            problems.append(f"covariances differ from the seed-0 reference by {cov_err:.3e} relative")
        if en_ref_err > EN_REFERENCE_TOL:
            problems.append(f"EN differs from the seed-0 reference by {en_ref_err:.3e}")
    return problems


# ---------------------------------------------------------------------------
# phase-diagram


def _axes(p: dict):
    c12s = p.get("c12_values") or [p["c12"]]
    return p["temperatures"], p["squeezings"], c12s, [p["purity_product"]]


def _check_phase_rows(p: dict, rows: list[dict]) -> list[str]:
    temps, rs, c12s, purities = _axes(p)
    expected = [(t, r, c, q) for t in temps for r in rs for c in c12s for q in purities]
    if len(rows) != len(expected):
        return [f"{len(rows)} phase rows, expected {len(expected)}"]
    problems = []
    for row, (t, r, c12, purity) in zip(rows, expected):
        where = f"T={t:g} r={r:g} C12={c12:g}"
        got = (row["T"], row["r"], row["C12"], row["purity"])
        if max(abs(a - b) for a, b in zip(got, (t, r, c12, purity))) > 1e-9:
            return [f"row {got} out of canonical order, expected {where}"]
        if row["phase"] == "ERROR":
            problems.append(f"{where}: ERROR")
            continue
        table = reference.stationary_table(p["coupling"], c12)
        dx, dp = table.dispersions(t)
        want = table.phase_values(t, r, purity)
        for name, value, ref in (("dx_plus", row["dx_plus"], dx), ("dp_plus", row["dp_plus"], dp)):
            if abs(value - ref) > DISPERSION_RTOL * ref:
                problems.append(f"{where}: {name} {value!r} vs reference {ref!r}")
        for name in ("r_crit", "s_crit"):
            if abs(row[name] - want[name]) > PHASE_VALUE_TOL:
                problems.append(f"{where}: {name} {row[name]!r} vs reference {want[name]!r}")
        margin = min(abs(want["lo"]), abs(want["hi"]))
        if margin > LABEL_MARGIN and row["phase"] != want["phase"]:
            problems.append(f"{where}: phase {row['phase']} vs reference {want['phase']}")
    return problems


def _check_boundaries(p: dict, rows: list[dict], boundaries: dict) -> list[str]:
    temps, rs, c12s, purities = _axes(p)
    problems = []
    for c12 in c12s:
        for purity in purities:
            key = f"c12={c12:g};purity={purity:g}"
            curves = boundaries.get(key)
            if curves is None:
                problems.append(f"boundary slice {key} missing")
                continue
            at_t = {reference.temperature_key(row["T"]): row for row in rows
                    if abs(row["C12"] - c12) < 1e-12 and abs(row["purity"] - purity) < 1e-12}
            table = reference.stationary_table(p["coupling"], c12)
            for name, slack in (("nsd_sdr", "lo"), ("sdr_sd", "hi")):
                points = curves.get(name, [])
                values = [[table.phase_values(t, r, purity)[slack] for r in rs] for t in temps]
                if not points and any(len({v > 0.0 for v in row}) > 1 for row in values):
                    problems.append(f"{key} {name}: no boundary points, but the grid crosses it")
                t_edges = Counter()
                for t, r in points:
                    row = at_t.get(reference.temperature_key(t))
                    if row is not None:  # an r-edge point at a grid temperature
                        rc, sc = abs(row["r_crit"]), row["s_crit"]
                        value = abs(abs(r) - rc) - sc if slack == "lo" else abs(r) + rc - sc
                        if abs(value) > BOUNDARY_TOL:
                            problems.append(f"{key} {name}: point (T={t:g}, r={r:g}) "
                                            f"is off its curve by {value:.3e}")
                        continue
                    j = next((j for j, rj in enumerate(rs) if abs(r - rj) < 1e-9), None)
                    if j is None:
                        continue  # neither on a grid temperature nor on a grid r
                    edge, problem = _t_edge(table, temps, t, r, purity, slack)
                    if problem:
                        problems.append(f"{key} {name}: {problem}")
                    else:
                        t_edges[edge, j] += 1
                problems.extend(f"{key} {name}: {msg}"
                                for msg in _match_t_edges(values, t_edges, temps, rs))
    return problems


def _t_edge(table, temps, t, r, purity, slack) -> tuple[int | None, str | None]:
    """Index of the T-edge holding a bisected point (t, r), or a problem with it.

    The reference slack must change sign between the nearest tabled
    temperatures on either side of t, farther than the bisection tolerance.
    """
    i = next((i for i in range(len(temps) - 1) if temps[i] < t < temps[i + 1]), None)
    if i is None:
        return None, f"point (T={t:g}, r={r:g}) lies outside the grid's temperatures"
    t0, t1 = temps[i], temps[i + 1]
    below, above = table.bracket(t, T_EDGE_TOL * max(1.0, t1 - t0), t0, t1)
    v_below = table.phase_values(below, r, purity)[slack]
    v_above = table.phase_values(above, r, purity)[slack]
    if v_below * v_above > 0.0:
        return None, (f"point (T={t:g}, r={r:g}) is not a crossing: the reference slack is "
                      f"{v_below:.3e} at T={below:g} and {v_above:.3e} at T={above:g}")
    return i, None


def _match_t_edges(values, found: Counter, temps, rs) -> list[str]:
    """Exactly one point on each T-edge the reference slack crosses, none elsewhere.

    An edge with an end within LABEL_MARGIN of the boundary may go either way.
    """
    problems = []
    for i in range(len(temps) - 1):
        for j, r in enumerate(rs):
            v0, v1 = values[i][j], values[i + 1][j]
            n = found[i, j]
            crosses = v0 * v1 < 0.0
            unsure = min(abs(v0), abs(v1)) <= LABEL_MARGIN
            if n > 1 or (n == 1 and not crosses and not unsure) or (n == 0 and crosses and not unsure):
                problems.append(f"{n} point(s) on the T-edge T={temps[i]:g}..{temps[i + 1]:g} "
                                f"at r={r:g}, expected {int(crosses)}")
    return problems


def read_phase_rows(path: Path) -> list[dict]:
    columns, raw = read_csv(path)
    return [
        {k: (v if k == "phase" else float(v)) for k, v in zip(columns, values)} for values in raw
    ]


def _check_phase_diagram(inv: dict, out_dir: Path, seed: int) -> list[str]:
    p = inv["params"]
    rows = read_phase_rows(out_dir / "phase_diagram.csv")
    problems = _check_phase_rows(p, rows)
    if problems:
        return problems
    boundaries = json.loads((out_dir / "phase_boundaries.json").read_text())["boundaries"]
    return _check_boundaries(p, rows, boundaries)


# ---------------------------------------------------------------------------
# verify


def _check_verify(inv: dict, out_dir: Path, seed: int) -> list[str]:
    p = inv["params"]
    report = json.loads((out_dir / "verify_report.json").read_text())
    temps, rs, c12s, purities = _axes(p)
    points = report["points"]
    if not report["passed"] or report["n_fail"] != 0:
        return [f"verification failed at {report['n_fail']} point(s)"]
    if len(points) != len(temps) * len(rs) * len(c12s) * len(purities):
        return [f"{len(points)} verify points, expected {len(temps) * len(rs)}"]
    problems = []
    for point in points:
        where = f"T={point['T']:g} r={point['r']:g}"
        table = reference.stationary_table(p["coupling"], point["C12"])
        want = table.phase_values(point["T"], point["r"], point["purity"])
        margin = min(abs(want["lo"]), abs(want["hi"]))
        if margin > LABEL_MARGIN and point["phase"] != want["phase"]:
            problems.append(f"{where}: phase {point['phase']} vs reference {want['phase']}")
        if point["status"] == "boundary - excluded":
            if margin > VERIFY_MARGIN + BOUNDARY_TOL:
                problems.append(f"{where}: excluded at margin {margin:.3g}")
        elif point["status"] != "pass" or point["simulated"] != _EXPECTED_CLASS[point["phase"]]:
            problems.append(f"{where}: status {point['status']!r}, simulated {point.get('simulated')}")
        elif margin < VERIFY_MARGIN - BOUNDARY_TOL:
            problems.append(f"{where}: simulated at margin {margin:.3g}")
    return problems


_CHECKS = {"evolve": _check_evolve, "phase-diagram": _check_phase_diagram, "verify": _check_verify}
