"""Deterministic parameter sweeps, phase-diagram grids, and verification runs.

Grid points are independent: the expensive part of each point (the stationary
dispersions of the (+) mode) depends only on (temperature, coupling), so the
sweep works one C12 column at a time: one quadrature over all its
temperatures gives each unique (T, C12) point once, and one array
``summarize`` over its (T, r, purity) grid gives the summaries, held as arrays
in canonical row-major order (``PhaseTable``).  The boundaries bisect every
crossed T-edge at once, each round one quadrature per C12 over its new
midpoints.  Everything runs serially and in memory, and gives the same bits as
taking the points and the edges one at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import __version__
from .asymptotics import (
    Phase,
    envelope_band,
    minus_dispersions,
    phase_slacks,
    r_crit,
    s_crit,
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
#: bounds time, about 0.4 s per O(N^2) solve at N = 4000 on 2 vCPUs, not memory
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


def _stationary_points(config: RunConfig, temperatures, c12: float) -> list:
    """Stationary (+) dispersions, mode data and quadrature health at each of
    ``temperatures`` at ``c12``, from one quadrature over all of them; a point
    that failed is its EntbathError, and a failure of the C12 fails them all."""
    try:
        omega_plus, bare_plus, omega0, minus = _frequencies(config, c12)
        health: dict = {}
        if config.coupling == POSITION:
            outcomes = stationary_variances_position(config.density(), omega_plus, temperatures)
        else:
            outcomes = stationary_variances_ladder(config.density(), bare_plus, omega0,
                                                   omega_plus, temperatures, diagnostics=health)
    except EntbathError as exc:
        return [exc] * len(temperatures)
    return [outcome if isinstance(outcome, EntbathError) else dict(
        dx_plus=outcome[0], dp_plus=outcome[1], omega_plus=omega_plus, minus_mass=minus.mass,
        minus_freq=minus.frequency, **health, quad_error=outcome[2]) for outcome in outcomes]


def _stationary_point(payload: tuple) -> dict:
    """Stationary (+) dispersions, mode data and quadrature health for one (T, c12)
    key: the one-temperature case of ``_stationary_points``."""
    config, temperature, c12 = payload
    (point,) = _stationary_points(config, [temperature], c12)
    if isinstance(point, EntbathError):
        raise point
    return point


def _slice_key(c12: float, purity: float | None = None) -> str:
    """Key of the C12 (and purity) slice of a report.  Each value is written
    with ``:g`` where that reads back as the value, else with ``repr``, so
    that values equal to 6 significant digits still get keys of their own."""
    def text(value: float) -> str:
        return f"{value:g}" if float(f"{value:g}") == value else repr(value)

    key = f"c12={text(c12)}"
    return key if purity is None else f"{key};purity={text(purity)}"


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
                health.setdefault("bound_state", {})[_slice_key(c12)] = {
                    k: point[k] for k in ("bound_weight", "sum_rule_residual")}


def _stationary_point_cached(config: RunConfig, temperatures, c12: float, memo: dict) -> list:
    """The stationary points at ``temperatures`` at ``c12``, each computed once
    per (T, C12) key of ``memo``: those not there yet in one ``_stationary_points`` call."""
    missing = [t for t in dict.fromkeys(temperatures) if (t, c12) not in memo]
    if missing:
        for t, point in zip(missing, _stationary_points(config, missing, c12)):
            memo[t, c12] = point
    return [memo[t, c12] for t in temperatures]


def sweep_axes(config: RunConfig):
    """The four sweep axes, defaulting to the point values when unset."""
    temps = config.temperatures or (config.temperature,)
    squeezings = config.squeezings or (config.r,)
    c12s = config.c12_values or (config.c12,)
    purities = config.purity_values or (config.purity_product,)
    return tuple(temps), tuple(squeezings), tuple(c12s), tuple(purities)


class PhaseTable:
    """The rows of one phase sweep, held as arrays over the (T, r, C12, purity)
    grid: ``grid`` maps each PHASE_COLUMNS name to one, ERROR rows holding NaN
    and the label "ERROR".  Iterating gives the rows in canonical row-major
    order (purity fastest), each a dict keyed by column."""

    def __init__(self, grid: dict):
        self.grid = grid

    def __len__(self) -> int:
        return self.grid["phase"].size

    def __iter__(self):
        columns = [self.grid[name].ravel().tolist() for name in PHASE_COLUMNS]
        return (dict(zip(PHASE_COLUMNS, values)) for values in zip(*columns))


def run_phase_sweep(config: RunConfig) -> tuple[PhaseTable, dict]:
    """Evaluate the phase grid, one C12 column at a time.

    Returns (table, info); the table's rows carry the PHASE_COLUMNS fields,
    with phase = "ERROR" marking points whose stationary-variance evaluation
    failed (the sweep never aborts on a single point).  Each C12 takes one
    quadrature over every temperature and one ``summarize`` over its
    (T, r, purity) grid.  ``info["errors"]`` gives the reason of each failed
    (T, C12) key.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    shape = (len(temps), len(squeezings), len(c12s), len(purities))
    # one block for the ten number columns: the axes, filled in below, and NaN for ERROR rows
    grid = dict(zip(PHASE_COLUMNS, np.full((len(PHASE_COLUMNS) - 1, *shape), np.nan)))
    axes = []
    for i, (name, values) in enumerate(zip(PHASE_COLUMNS, (temps, squeezings, c12s, purities))):
        axes.append(np.array(values, dtype=float).reshape([-1 if k == i else 1 for k in range(4)]))
        grid[name][...] = axes[-1]
    grid["phase"] = np.full(shape, "ERROR")

    results: dict[tuple, dict | EntbathError] = {}
    for k, c12 in enumerate(c12s):
        points = _stationary_point_cached(config, temps, c12, results)
        good = [i for i, point in enumerate(points) if isinstance(point, dict)]
        if not good:
            continue
        dx, dp = (np.array([points[i][key] for i in good])[:, None, None]
                  for key in ("dx_plus", "dp_plus"))
        summary = summarize(dx, dp, axes[1][0, :, :, 0], _frequencies(config, c12)[3],
                            purity_product=axes[3][0, 0])
        for name in PHASE_COLUMNS[4:]:
            grid[name][good, :, k, :] = getattr(summary, name)

    table = PhaseTable(grid)
    info = {
        "config_digest": config.digest(),
        "version": __version__,
        "n_points": len(table),
        "n_errors": int((grid["phase"] == "ERROR").sum()),
        "errors": [
            {"T": t, "C12": c12, "reason": f"{type(results[t, c12]).__name__}: {results[t, c12]}"}
            for t in temps for c12 in c12s
            if isinstance(results[t, c12], EntbathError)
        ],
        "stationary": {"route": _STATIONARY_ROUTE, "points": 0, "max_quad_error": 0.0},
    }
    _record_health(info, results)
    return table, info


# ---------------------------------------------------------------------------
# phase boundaries


def _edge_slack(point: dict, r: float, minus: ModeSpec, dx_minus: float, dp_minus: float,
                which: int) -> float:
    """Slack ``which`` (0: nsd_sdr, 1: sdr_sd) at squeezing r of the stationary
    ``point``, the (-) mode being ``minus`` with dispersions (dx-, dp-) at r."""
    dx, dp = point["dx_plus"], point["dp_plus"]
    return phase_slacks(r, r_crit(dx, dp, minus), s_crit(dx, dp, dx_minus, dp_minus))[which]


def _crossings(config: RunConfig, edges: list, memo: dict) -> list:
    """Bisect every T-edge of ``edges`` at once to where its slack changes sign.

    Each edge is (t0, t1, slack at t0, tol, c12, slack of a stationary point),
    the slack at t1 having the other sign; the crossing is found to ``tol``,
    or is the midpoint after 60 bisections.  Each round takes the stationary
    points of all its new midpoints in one batched quadrature per C12 (each
    (T, C12) once, in ``memo``).  An edge whose midpoint fails gets None."""
    out: list = [None] * len(edges)
    state = {}  # live edge -> [a, b, slack at a, bisections left]
    for k, (a, b, fa, tol, _, _) in enumerate(edges):
        if abs(b - a) > tol:
            state[k] = [a, b, fa, 60]
        else:
            out[k] = 0.5 * (a + b)
    while state:
        wanted: dict = {}  # C12 -> the midpoints of its live edges
        for k, (a, b, _, _) in state.items():
            wanted.setdefault(edges[k][4], []).append(0.5 * (a + b))
        for c12, mids in wanted.items():
            _stationary_point_cached(config, mids, c12, memo)
        for k, (a, b, fa, left) in list(state.items()):
            _, _, _, tol, c12, slack = edges[k]
            mid = 0.5 * (a + b)
            point = memo[mid, c12]
            if isinstance(point, EntbathError):  # failed midpoint; the boundary skips this edge
                del state[k]
                continue
            fm = slack(point)
            if fm == 0.0:
                out[k] = mid
                del state[k]
                continue
            a, b, fa = (a, mid, fa) if fa * fm < 0.0 else (mid, b, fm)
            if abs(b - a) > tol and left > 1:
                state[k] = [a, b, fa, left - 1]
            else:
                out[k] = 0.5 * (a + b)
                del state[k]
    return out


def phase_boundaries(config: RunConfig, table: PhaseTable, info: dict | None = None) -> dict:
    """Boundary polylines of each (c12, purity) slice of the phase grid.

    Keys: "nsd_sdr" (||r|-|r_crit|| = S_crit) and "sdr_sd" (|r|+|r_crit| =
    S_crit).  Neither r_crit nor S_crit depends on r, so at each grid
    temperature the crossings along r follow in closed form from that
    temperature's rows: |r| = |r_crit| +- S_crit and |r| = S_crit - |r_crit|,
    each non-negative root emitted with every sign that keeps it inside the
    r-axis range.  Along T, every grid edge whose end slacks (read from
    ``table``) differ in sign is bisected to 1e-3 max(1, |dT|), on either
    axis order, all edges at once (``_crossings``); each midpoint (T, C12) is
    evaluated once, in memory.  ERROR rows, and edges whose bisection fails,
    are skipped.  When ``info`` (of the sweep that gave ``table``) is given,
    the health of the midpoints is folded into it.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    r_lo, r_hi = min(squeezings), max(squeezings)
    grid = table.grid
    good = grid["phase"] != "ERROR"
    slacks = phase_slacks(grid["r"], grid["r_crit"], grid["s_crit"])
    both_good = good[:-1] & good[1:]
    names = ("nsd_sdr", "sdr_sd")
    minus_modes: dict[int, ModeSpec] = {}  # C12 index -> its (-) mode
    edges, slices = [], []  # each edge's (c, p, name, r)
    for which, v in enumerate(slacks):
        crossed = np.argwhere((v[:-1] * v[1:] < 0.0) & both_good)
        for (i, j, c, p), f0 in zip(crossed.tolist(), v[tuple(crossed.T)].tolist()):
            t0, t1, r = temps[i], temps[i + 1], squeezings[j]
            if c not in minus_modes:
                minus_modes[c] = _frequencies(config, c12s[c])[3]
            dx_minus, dp_minus = minus_dispersions(r, minus_modes[c], purities[p])
            slack = partial(_edge_slack, r=r, minus=minus_modes[c], dx_minus=dx_minus,
                            dp_minus=dp_minus, which=which)
            edges.append((t0, t1, f0, 1e-3 * max(1.0, abs(t1 - t0)), c12s[c], slack))
            slices.append((c, p, names[which], float(r)))
    midpoints: dict[tuple, dict] = {}  # (T, C12) -> stationary point
    t_points: dict[tuple, list] = {}  # (c, p, name) -> its points on T-edges
    for (c, p, name, r), t_star in zip(slices, _crossings(config, edges, midpoints)):
        if t_star is not None:
            t_points.setdefault((c, p, name), []).append([float(t_star), r])

    out = {}
    for c, c12 in enumerate(c12s):
        for p, pur in enumerate(purities):
            points: dict[str, list] = {name: [] for name in names}
            rcs, scs = (grid[name][:, 0, c, p].tolist() for name in ("r_crit", "s_crit"))
            for t, ok, rc, sc in zip(temps, good[:, 0, c, p].tolist(), rcs, scs):
                if not ok:
                    continue
                rc = abs(rc)
                for name, roots in zip(names, ((rc - sc, rc + sc) if sc >= 0.0 else (), (sc - rc,))):
                    found = {sign * root for root in roots if root >= 0.0 for sign in (1.0, -1.0)}
                    points[name].extend([float(t), r] for r in found if r_lo <= r <= r_hi)
            for name in names:
                points[name] += t_points.get((c, p, name), [])
                points[name].sort()
            out[_slice_key(c12, pur)] = points
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
    ``reason``.  The points are simulated per C12 (``_verify_c12``): one model
    and one normal-mode solve with one pass over its time grid give the
    thermal terms of all its temperatures (``bathsim.plus_flows``), and the
    points of one (C12, T) are one checked stack of initial states and one
    stacked ``evolve``, whose check and E_N cover the whole group.  A failed
    initial state or an unphysical sample errors only its own point; a
    failure in a shared part errors every point it serves.  The report keeps
    the canonical row order.  When ``info`` is given, the sweep's info and the
    sizes and health of the simulations are recorded in it.
    """
    _, squeezings, c12s, purities = sweep_axes(config)
    stack = len(squeezings) * len(purities)
    if stack > _VERIFY_STACK_CEILING:
        raise ValidationError(f"verification grid stacks {stack} points per (C12, T); "
                              f"limit is {_VERIFY_STACK_CEILING}")
    rows, sweep_info = run_phase_sweep(config)
    reasons = {(e["T"], e["C12"]): e["reason"] for e in sweep_info["errors"]}

    report_points = []
    groups = {c12: {} for c12 in c12s}  # C12 -> T -> [(row, entry)]
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
        groups[row["C12"]].setdefault(row["T"], []).append((row, entry))

    health = {"simulated_points": 0, "normal_mode_solves": 0, "thermal_grids": 0,
              "thermal_nodes": 0, "bath_modes": {},
              "min_physicality_defect": None, "secular_iterations": 0,
              "secular_z_drift": 0.0, "thermal_drift": 0.0,
              "normal_modes_s": 0.0, "thermal_s": 0.0}
    for c12, by_temperature in groups.items():
        if by_temperature:
            _verify_c12(config, c12, by_temperature, health)
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


def _simulation_error(pairs: list, exc: EntbathError) -> None:
    """Mark the report entry of each (row, entry) of ``pairs`` as failed by ``exc``."""
    for _, entry in pairs:
        entry.update(status=f"simulation error: {exc}", reason=f"{type(exc).__name__}: {exc}")


def _verify_c12(config: RunConfig, c12: float, groups: dict, health: dict) -> None:
    """Simulate the points of one C12, given as {T: [(row, entry)]}, and write
    each point's status into its report entry and the sizes and health of the
    runs into ``health``, ``verify_grid``'s.  The window depends on gamma0 and
    C12 only and the temperature enters only through the bath occupations, so
    one model, one window and one ``plus_flows`` call serve every T; a failure
    there errors every point it serves (every point with a checked initial
    state, for the solve).  The initial states of one T are checked as one
    stack and evolved as one; a failed state or an unphysical sample errors
    its own point, a failed run the whole group."""
    try:
        times, modes = _verify_window(config, c12)
        model = config.build_model(c12=c12, modes=modes)
    except EntbathError as exc:
        for pairs in groups.values():
            _simulation_error(pairs, exc)
        return
    stacks = {}  # T -> (pairs whose initial state passed, their covariances)
    for temperature, pairs in groups.items():
        built, covs = [], []
        for row, entry in pairs:
            try:
                covs.append(initial_covariance(model, config.kind, r=row["r"],
                                               purity_product=row["purity"]))
                built.append((row, entry))
            except EntbathError as exc:
                _simulation_error([(row, entry)], exc)
        covs, _, failed = check_each(np.zeros((len(built), 4)), np.array(covs).reshape(-1, 4, 4),
                                     check_states)
        for state, exc in failed.items():
            _simulation_error([built[state]], exc)
        if len(covs):
            stacks[temperature] = [pair for i, pair in enumerate(built) if i not in failed], covs
    if not stacks:
        return
    try:
        flows, solve = plus_flows(model, list(stacks), times)
    except EntbathError as exc:
        for pairs, _ in stacks.values():
            _simulation_error(pairs, exc)
        return
    health["normal_mode_solves"] += 1
    health["thermal_grids"] += 1
    health["bath_modes"][_slice_key(c12)] = model.bath.n_modes
    for key in ("secular_iterations", "secular_z_drift"):  # worst of the grid
        health[key] = max(health[key], solve[key])
    for key in ("normal_modes_s", "thermal_s"):  # wall times, summed over the solves
        health[key] += solve[key]
    for (pairs, covs), flow in zip(stacks.values(), flows):
        health["thermal_nodes"] += flow.info["thermal_nodes"]
        health["thermal_drift"] = max(health["thermal_drift"], flow.info["thermal_drift"])
        try:
            traj, energies = entanglement_trajectory(model, covs, times, flow=flow)
        except EntbathError as exc:
            _simulation_error(pairs, exc)
            continue
        defect = traj.info["min_physicality_defect"]
        if defect is not None and (health["min_physicality_defect"] is None
                                   or defect < health["min_physicality_defect"]):
            health["min_physicality_defect"] = defect
        unphysical, physical = traj.info["unphysical"], iter(energies)
        for state, (row, entry) in enumerate(pairs):
            if state in unphysical:
                _simulation_error([(row, entry)], unphysical[state])
                continue
            health["simulated_points"] += 1
            sim_class, deviation = _simulate_point(row, next(physical))
            expected = _EXPECTED_CLASS[Phase(row["phase"])]
            entry.update(simulated=sim_class, envelope_deviation=deviation,
                         status="pass" if sim_class == expected else "fail")


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


def _simulate_point(row: dict, energies: np.ndarray) -> tuple[str, float]:
    """Simulated class and envelope deviation of one point, from the E_N
    trajectory that ``_verify_c12`` gave it (``bench/spans.py`` counts its
    calls as the simulated points)."""
    lo_band, hi_band = envelope_band(row["e_mean"], row["e_amp"])
    deviation = max(abs(energies.max() - hi_band), abs(energies.min() - lo_band))
    return _simulated_class(energies), float(deviation)
