"""Deterministic parameter sweeps, phase-diagram grids, and verification runs.

Grid points are independent: the expensive part of each point (the stationary
dispersions of the (+) mode) depends only on (temperature, coupling), so the
sweep evaluates each unique heavy key once, serially and in memory, then
assembles the per-point summaries in canonical row-major order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import __version__
from .asymptotics import (
    Phase,
    envelope_band,
    phase_slacks,
    stationary_variances_ladder,
    stationary_variances_position,
    summarize,
)
from .bathsim import POSITION, entanglement_trajectory, initial_covariance, plus_flows
from .config import RunConfig
from .errors import EntbathError, HorizonError, ParameterRegimeError, ValidationError
from .gaussian import ModeSpec, check_each, check_states
# unused here: kept so that the benchmark tracer can patch them in this namespace
from .rwa import extract_coefficients, solve_amplitude  # noqa: F401

PHASE_COLUMNS = (
    "T", "r", "C12", "purity",
    "dx_plus", "dp_plus", "r_crit", "s_crit", "e_mean", "e_amp", "phase",
)

_BOUNDARY_MARGIN = 0.05
#: most bath modes ``verify`` builds unless [bath] modes asks for more.  The
#: (+)-sector solve holds O(N) vectors and a few 256 KB row blocks (about 2 MB
#: at N = 4000) and the time grid one 256 x 2N phase block (16 MB), so this
#: bounds time, about 0.3 s per O(N^2) solve at N = 4000, not memory
_VERIFY_MODE_CEILING = 4000
#: most points ``verify`` stacks per (C12, T), its squeezings times purities:
#: one point holds about 0.37 MB while its group is evolved (eight arrays of
#: 360 samples x 4 x 4 floats), so the largest stack stays near 0.4 GB
_VERIFY_STACK_CEILING = 1000
#: names the numerical routes behind a stationary point, as ``run_info.json``
#: reports it; change it with either route
_STATIONARY_ROUTE = "GL 24/12; position: Im chi; symmetric: ladder spectral function + bound state"


def _variance_payload(config: RunConfig, temperature: float, c12: float) -> tuple:
    """The (config, T, C12) key of one stationary point, as ``_stationary_point`` takes it."""
    return config, temperature, c12


@lru_cache(maxsize=64)
def _frequencies(config: RunConfig, c12: float) -> tuple[float, float, float, ModeSpec]:
    """(Omega+, bare Omega+, omega0, (-) mode) of the configured model at ``c12``;
    none depends on the temperature, so a sweep derives them once per C12.  Omega+
    is the dressed frequency, or for symmetric coupling the bare one when unknown."""
    model = config.build_model(c12=c12)
    omega_plus = model.omega_plus_dressed
    if omega_plus is None and config.coupling == POSITION:
        raise ParameterRegimeError(f"dressed (+) frequency not positive at c12={c12}")
    bare = model.omega_plus_bare
    return omega_plus or bare, bare, model.omega0, model.minus_mode


def _stationary_point(payload: tuple) -> dict:
    """Stationary (+) dispersions, mode data and quadrature health for one (T, c12) key."""
    config, temperature, c12 = payload
    omega_plus, bare_plus, omega0, minus = _frequencies(config, c12)
    health: dict = {}
    if config.coupling == POSITION:
        dx, dp = stationary_variances_position(
            config.density(), omega_plus, temperature, diagnostics=health
        )
    else:
        dx, dp = stationary_variances_ladder(
            config.density(), bare_plus, omega0, omega_plus, temperature, diagnostics=health
        )
    return dict(dx_plus=dx, dp_plus=dp, omega_plus=omega_plus,
                minus_mass=minus.mass, minus_freq=minus.frequency, **health)


def _record_health(info: dict, points: dict) -> None:
    """Fold the health of ``points`` ({(T, C12): point or error}) into the
    ``info["stationary"]`` of ``run_phase_sweep``: the count, the worst 24-vs-12
    error estimate and, for symmetric coupling, Z and the sum-rule residual per C12."""
    health = info["stationary"]
    for (_, c12), point in points.items():
        if isinstance(point, dict):
            health["points"] += 1
            health["max_quad_error"] = max(health["max_quad_error"], point["quad_error"])
            if "bound_weight" in point:
                health.setdefault("bound_state", {})[f"c12={c12:g}"] = {
                    k: point[k] for k in ("bound_weight", "sum_rule_residual")}


def _stationary_point_cached(payload: tuple, memo: dict) -> dict:
    """``_stationary_point`` of ``payload``, computed once per (T, C12) key of ``memo``."""
    _, temperature, c12 = payload
    if (temperature, c12) not in memo:
        memo[temperature, c12] = _stationary_point(payload)
    return memo[temperature, c12]


def sweep_axes(config: RunConfig):
    """The four sweep axes, defaulting to the point values when unset."""
    temps = config.temperatures or (config.temperature,)
    squeezings = config.squeezings or (config.r,)
    c12s = config.c12_values or (config.c12,)
    purities = config.purity_values or (config.purity_product,)
    return tuple(temps), tuple(squeezings), tuple(c12s), tuple(purities)


def run_phase_sweep(config: RunConfig) -> tuple[list[dict], dict]:
    """Evaluate the phase grid in canonical row-major order.

    Returns (rows, info); each row carries the PHASE_COLUMNS fields, with
    phase = "ERROR" marking points whose stationary-variance evaluation failed
    (the sweep never aborts on a single point).  ``info["errors"]`` gives the
    reason of each failed (T, C12) key.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    heavy_keys = [(t, c) for t in temps for c in c12s]

    results: dict[tuple, dict | EntbathError] = {}
    for key in heavy_keys:
        if key not in results:  # repeated axis values share their key
            try:
                results[key] = _stationary_point(_variance_payload(config, *key))
            except EntbathError as exc:
                results[key] = exc

    rows = []
    n_errors = 0
    for t in temps:
        for r in squeezings:
            for c12 in c12s:
                for pur in purities:
                    point = results[(t, c12)]
                    row = {"T": t, "r": r, "C12": c12, "purity": pur}
                    if isinstance(point, EntbathError):
                        n_errors += 1
                        row.update({k: float("nan") for k in PHASE_COLUMNS[4:-1]}, phase="ERROR")
                    else:
                        minus = ModeSpec(point["minus_mass"], point["minus_freq"])
                        summary = summarize(
                            point["dx_plus"], point["dp_plus"], r, minus, purity_product=pur
                        )
                        row.update(dx_plus=summary.dx_plus, dp_plus=summary.dp_plus,
                                   r_crit=summary.r_crit, s_crit=summary.s_crit,
                                   e_mean=summary.e_mean, e_amp=summary.e_amp,
                                   phase=summary.phase.value)
                    rows.append(row)
    info = {
        "config_digest": config.digest(),
        "version": __version__,
        "n_points": len(rows),
        "n_errors": n_errors,
        "errors": [
            {"T": t, "C12": c12, "reason": f"{type(results[t, c12]).__name__}: {results[t, c12]}"}
            for t, c12 in heavy_keys
            if isinstance(results[t, c12], EntbathError)
        ],
        "stationary": {"route": _STATIONARY_ROUTE, "points": 0, "max_quad_error": 0.0},
    }
    _record_health(info, results)
    return rows, info


# ---------------------------------------------------------------------------
# phase boundaries


def _bisect_edge(f, a: float, b: float, fa: float, tol: float, max_iter: int = 60) -> float:
    """Crossing of f between a and b (either order), given f(a) = fa and that
    f(b) has the other sign."""
    while abs(b - a) > tol and max_iter > 0:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        max_iter -= 1
    return 0.5 * (a + b)


def phase_boundaries(config: RunConfig, rows: list[dict], info: dict | None = None) -> dict:
    """Boundary polylines of each (c12, purity) slice of the phase grid.

    Keys: "nsd_sdr" (||r|-|r_crit|| = S_crit) and "sdr_sd" (|r|+|r_crit| =
    S_crit).  Neither r_crit nor S_crit depends on r, so at each grid
    temperature the crossings along r follow in closed form from that
    temperature's rows: |r| = |r_crit| +- S_crit and |r| = S_crit - |r_crit|,
    each non-negative root emitted with every sign that keeps it inside the
    r-axis range.  Along T, every grid edge whose end slacks (read from
    ``rows``) differ in sign is bisected to 1e-3 max(1, |dT|), on either axis
    order; each midpoint (T, C12) is evaluated once, in memory.  ERROR rows, and
    edges whose bisection fails, are skipped.  When ``info`` (of the sweep that
    gave ``rows``) is given, the health of the midpoints is folded into it.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    r_lo, r_hi = min(squeezings), max(squeezings)
    by_point = {(row["T"], row["r"], row["C12"], row["purity"]): row for row in rows}
    midpoints: dict[tuple, dict] = {}  # (T, C12) -> stationary point

    def slack(t: float, r: float, c12: float, purity: float, which: int) -> float:
        point = _stationary_point_cached(_variance_payload(config, t, c12), midpoints)
        minus = ModeSpec(point["minus_mass"], point["minus_freq"])
        summary = summarize(point["dx_plus"], point["dp_plus"], r, minus, purity_product=purity)
        return phase_slacks(r, summary.r_crit, summary.s_crit)[which]

    out = {}
    for c12 in c12s:
        for pur in purities:
            grid = [[by_point[t, r, c12, pur] for r in squeezings] for t in temps]
            points: dict[str, list] = {"nsd_sdr": [], "sdr_sd": []}
            for t, grid_row in zip(temps, grid):
                if grid_row[0]["phase"] == "ERROR":
                    continue
                rc, sc = abs(grid_row[0]["r_crit"]), grid_row[0]["s_crit"]
                for name, roots in (
                    ("nsd_sdr", (rc - sc, rc + sc) if sc >= 0.0 else ()),
                    ("sdr_sd", (sc - rc,)),
                ):
                    found = {sign * root for root in roots if root >= 0.0 for sign in (1.0, -1.0)}
                    points[name].extend([float(t), r] for r in found if r_lo <= r <= r_hi)
            for j, r in enumerate(squeezings):
                for i in range(len(temps) - 1):
                    ends = grid[i][j], grid[i + 1][j]
                    if any(row["phase"] == "ERROR" for row in ends):
                        continue
                    v0, v1 = (phase_slacks(r, row["r_crit"], row["s_crit"]) for row in ends)
                    t0, t1 = temps[i], temps[i + 1]
                    for which, name in enumerate(("nsd_sdr", "sdr_sd")):
                        if v0[which] * v1[which] < 0.0:
                            try:
                                t_star = _bisect_edge(
                                    lambda t: slack(t, r, c12, pur, which),
                                    t0, t1, v0[which], tol=1e-3 * max(1.0, abs(t1 - t0)),
                                )
                            except EntbathError:
                                continue  # failed midpoint; the boundary skips this edge
                            points[name].append([float(t_star), float(r)])
            for name in points:
                points[name].sort()
            out[f"c12={c12:g};purity={pur:g}"] = points
    if info is not None:
        _record_health(info, midpoints)
    return out


# ---------------------------------------------------------------------------
# predictor-vs-simulator verification


def _simulated_class(energies: np.ndarray, zero_tol: float = 1e-9) -> str:
    positive = energies > zero_tol
    if positive.all():
        return "always-positive"
    if not positive.any():
        return "eventually-zero"
    return "intermittent"


_EXPECTED_CLASS = {
    Phase.NSD: "always-positive",
    Phase.SDR: "intermittent",
    Phase.SD: "eventually-zero",
}


def verify_grid(config: RunConfig, info: dict | None = None) -> dict:
    """Cross-check predicted phases against late-time exact simulations.

    Any grid size whose (C12, T) groups stack at most ``_VERIFY_STACK_CEILING``
    points each (squeezings times purities); memory grows with that stack and
    with the bath modes, which ``_VERIFY_MODE_CEILING`` bounds, not with the
    number of groups.  Points whose inequality slack is within
    the boundary margin are excluded rather than failed.  Points that could
    not be evaluated or simulated are errors, not failures, and carry a
    ``reason``.  The points are simulated grouped by C12 and then by T: the
    points of one C12 share one normal-mode solve and one pass over their
    time grid, which gives the thermal terms of all its temperatures
    (``bathsim.plus_flows``), and those of one (C12, T) one checked stack of
    initial states and one stacked ``evolve``, whose check and E_N cover the
    whole group.  A failed initial state or an unphysical sample errors only
    its own point; a failure in a shared part errors every point it serves.
    The report keeps the canonical row order.  When ``info`` is given, the
    sweep's info and the sizes and health of the simulations are recorded in
    it.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    stack = len(squeezings) * len(purities)
    if stack > _VERIFY_STACK_CEILING:
        raise ValidationError(f"verification grid stacks {stack} points per (C12, T); "
                              f"limit is {_VERIFY_STACK_CEILING}")
    rows, sweep_info = run_phase_sweep(config)
    reasons = {(e["T"], e["C12"]): e["reason"] for e in sweep_info["errors"]}

    report_points = []
    to_simulate = []
    for row in rows:
        entry = {k: row[k] for k in ("T", "r", "C12", "purity", "phase")}
        report_points.append(entry)
        if row["phase"] == "ERROR":
            entry.update(status="error", reason=reasons[row["T"], row["C12"]])
            continue
        margin = min(abs(v) for v in phase_slacks(row["r"], row["r_crit"], row["s_crit"]))
        if margin < _BOUNDARY_MARGIN:
            entry.update(status="boundary - excluded", margin=margin)
            continue
        to_simulate.append((row, entry))

    health = {"simulated_points": 0, "normal_mode_solves": 0, "thermal_grids": 0,
              "thermal_nodes": 0, "bath_modes": {},
              "min_physicality_defect": None, "secular_iterations": 0,
              "secular_z_drift": 0.0, "thermal_drift": 0.0}

    def group_key(pair):
        return c12s.index(pair[0]["C12"]), temps.index(pair[0]["T"])

    def by_c12(pair):
        return group_key(pair)[0]

    for _, pairs in groupby(sorted(to_simulate, key=group_key), key=by_c12):
        groups = [list(group) for _, group in groupby(pairs, key=group_key)]
        runs = _simulate_c12(config, [[row for row, _ in group] for group in groups])
        for group, (outcomes, traj_info) in zip(groups, runs):
            _record_group(health, group, outcomes, traj_info)
    if info is not None:
        info.update(sweep=sweep_info, **health)
    n_fail = sum(entry["status"] == "fail" for entry in report_points)
    n_error = sum("reason" in entry for entry in report_points)
    return {
        "config_digest": config.digest(),
        "version": __version__,
        "points": report_points,
        "n_fail": n_fail,
        "passed": n_fail == 0 and n_error == 0,
    }


def _record_group(health: dict, group: list, outcomes: list, traj_info: dict | None) -> None:
    """Fold one (C12, T) group's run into the report entries of its points
    and into ``health``, the sizes and health of ``verify_grid``'s runs."""
    if traj_info is not None:
        for key in ("normal_mode_solves", "thermal_grids", "thermal_nodes"):
            health[key] += traj_info[key]
        health["bath_modes"][f"c12={group[0][0]['C12']:g}"] = traj_info["bath_modes"]
        for key in ("secular_iterations", "secular_z_drift", "thermal_drift"):  # worst of the grid
            health[key] = max(health[key], traj_info[key])
        defect = traj_info["min_physicality_defect"]
        if defect is not None and (health["min_physicality_defect"] is None
                                   or defect < health["min_physicality_defect"]):
            health["min_physicality_defect"] = defect
    for (row, entry), outcome in zip(group, outcomes):
        if isinstance(outcome, EntbathError):
            entry.update(status=f"simulation error: {outcome}",
                         reason=f"{type(outcome).__name__}: {outcome}")
            continue
        health["simulated_points"] += 1
        sim_class, deviation = _simulate_point(row, outcome)
        expected = _EXPECTED_CLASS[Phase(row["phase"])]
        entry.update(simulated=sim_class, envelope_deviation=deviation,
                     status="pass" if sim_class == expected else "fail")


def _simulate_c12(config: RunConfig, groups: list[list[dict]]) -> list[tuple[list, dict | None]]:
    """Late-time E_N trajectories of the points of one C12, given grouped by T:
    per group, each point's E_N array or EntbathError, and the info of the
    group's stacked run (None when it made none).  The window depends on
    gamma0 and C12 only and the models of a C12 differ in T only, so the
    groups share the window, one normal-mode solve and one thermal product; a
    failure there errors every point of the C12 (every point that has an
    initial state, for the solve)."""
    c12 = groups[0][0]["C12"]
    try:
        times, modes = _verify_window(config, c12)
        models = [config.build_model(temperature=rows[0]["T"], c12=c12, modes=modes)
                  for rows in groups]
    except EntbathError as exc:
        return [([exc] * len(rows), None) for rows in groups]
    starts = [_initial_covs(config, model, rows) for model, rows in zip(models, groups)]
    results = [(outcomes, None) for outcomes, _ in starts]
    live = [j for j, (_, covs) in enumerate(starts) if len(covs)]
    try:
        flows = plus_flows([models[j] for j in live], times) if live else []
    except EntbathError as exc:  # the shared solve: every group that reached it
        return [([exc] * len(groups[j]), None) if j in live else result
                for j, result in enumerate(results)]
    for j, flow in zip(live, flows):
        results[j] = _simulate_group(models[j], *starts[j], times, flow)
    return results


def _verify_window(config: RunConfig, c12: float) -> tuple[np.ndarray, int]:
    """The 360 late times of ``verify`` at ``c12`` and the bath modes they
    need: [t_eq, t_eq + 3 (-)-periods], t_eq = max(30, 4/gamma0)."""
    gamma_scale = max(config.gamma0, 1e-3)
    t_eq = max(30.0, 4.0 / gamma_scale)
    _, _, _, minus = _frequencies(config, c12)
    period = math.pi / minus.frequency
    t_end = t_eq + 3.0 * period
    # enlarge the bath if the configured mode count cannot host the window
    needed = int(math.ceil(1.05 * t_end * config.cutoff / math.pi))
    ceiling = max(config.modes, _VERIFY_MODE_CEILING)
    if needed > ceiling:
        raise HorizonError(
            f"verification window [{t_eq:.3g}, {t_end:.3g}] needs {needed} bath modes, "
            f"more than {ceiling}; set [bath] modes >= {needed} to allow it"
        )
    return np.linspace(t_eq, t_end, 360), max(needed, config.modes)


def _initial_covs(config: RunConfig, model, rows: list[dict]) -> tuple[list, np.ndarray]:
    """Per point, the EntbathError of its initial state or None, and the site
    covariances of the others, (P, 4, 4), checked as one stack."""
    outcomes, covs = [], []
    for row in rows:
        try:
            covs.append(initial_covariance(model, config.kind, r=row["r"],
                                           purity_product=row["purity"]))
            outcomes.append(None)
        except EntbathError as exc:
            outcomes.append(exc)
    pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
    covs, _, failed = check_each(np.zeros((len(pending), 4)), np.array(covs).reshape(-1, 4, 4),
                                 check_states)
    for state, exc in failed.items():
        outcomes[pending[state]] = exc
    return outcomes, covs


def _simulate_group(model, outcomes: list, covs: np.ndarray, times: np.ndarray,
                    flow) -> tuple[list, dict | None]:
    """``outcomes`` with the E_N trajectory, or the unphysical sample, of each
    point whose initial covariance is in ``covs``, evolved as one stack on
    ``flow``, and the info of the run; a failure of the whole run errors every
    point."""
    try:
        traj, energies = entanglement_trajectory(model, covs, times, flow=flow)
    except EntbathError as exc:
        return [exc] * len(outcomes), None
    unphysical, physical = traj.info["unphysical"], iter(energies)
    pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
    for state, i in enumerate(pending):
        outcomes[i] = unphysical[state] if state in unphysical else next(physical)
    return outcomes, traj.info


def _simulate_point(row: dict, energies: np.ndarray) -> tuple[str, float]:
    """Simulated class and envelope deviation of one point, from the E_N
    trajectory that ``_simulate_group`` gave it (``bench/spans.py`` counts
    its calls as the simulated points)."""
    lo_band, hi_band = envelope_band(row["e_mean"], row["e_amp"])
    deviation = max(abs(energies.max() - hi_band), abs(energies.min() - lo_band))
    return _simulated_class(energies), float(deviation)
