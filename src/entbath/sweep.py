"""Deterministic parameter sweeps, phase-diagram grids, and verification runs.

Grid points are independent: the expensive part of each point (the stationary
dispersions of the (+) mode) depends only on (temperature, coupling), so the
sweep first evaluates the unique heavy keys, optionally in parallel and backed
by an on-disk cache keyed by the package version, the stationary route and the
physical parameters of the key, then assembles the per-point summaries in
canonical row-major order regardless of completion order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    Phase,
    envelope_band,
    phase_slacks,
    stationary_variances_position,
    stationary_variances_symmetric,
    summarize,
)
from .bathsim import POSITION, RENORMALIZED, SYMMETRIC, entanglement_trajectory, initial_state
from .config import RunConfig
from .errors import EntbathError, HorizonError, ValidationError
from .gaussian import ModeSpec
from .rwa import extract_coefficients, solve_amplitude

PHASE_COLUMNS = (
    "T", "r", "C12", "purity",
    "dx_plus", "dp_plus", "r_crit", "s_crit", "e_mean", "e_amp", "phase",
)

#: coefficient-trace horizon used for symmetric-coupling stationary values
_SYMMETRIC_TRACE_T = 40.0
_BOUNDARY_MARGIN = 0.05
#: names the numerical routes behind a cached stationary point; change it with
#: either route, so that no cache serves numbers computed by an older one
_STATIONARY_ROUTE = "position: fixed-node Gauss-Legendre 24/12; symmetric: coefficient trace"


def _variance_payload(config: RunConfig, temperature: float, c12: float) -> dict:
    return {
        "coupling": config.coupling,
        "renormalization": config.renormalization,
        "mass": config.mass,
        "omega_r": config.omega_r,
        "omega0": config.omega0,
        "gamma0": config.gamma0,
        "cutoff": config.cutoff,
        "temperature": temperature,
        "c12": c12,
    }


def _stationary_point(payload: dict) -> dict:
    """Stationary (+) dispersions and mode data for one (T, c12) key.

    Module-level so process pools can pickle it.
    """
    from .bathsim import FullModel
    from .spectra import OhmicSpectralDensity

    density = OhmicSpectralDensity(
        gamma0=payload["gamma0"], cutoff=payload["cutoff"], mass=payload["mass"]
    )
    coupling = payload["coupling"]
    temperature = payload["temperature"]
    c12 = payload["c12"]
    if coupling == POSITION:
        if payload["renormalization"] == RENORMALIZED:
            om_plus_sq = payload["omega_r"] ** 2 + c12
            om_minus_sq = payload["omega_r"] ** 2 - c12
        else:
            om_plus_sq = payload["omega0"] ** 2 + c12 + density.delta_omega_sq
            om_minus_sq = payload["omega0"] ** 2 - c12
        if om_plus_sq <= 0.0 or om_minus_sq <= 0.0:
            raise ValidationError(
                f"virtual frequencies not positive at T={temperature}, c12={c12}"
            )
        omega_plus = math.sqrt(om_plus_sq)
        dx, dp = stationary_variances_position(density, omega_plus, temperature)
        minus_mass, minus_freq = payload["mass"], math.sqrt(om_minus_sq)
    else:
        n_modes = max(320, int(math.ceil(density.cutoff * _SYMMETRIC_TRACE_T / math.pi)) + 1)
        if payload["renormalization"] == RENORMALIZED:
            model = FullModel.renormalized(
                density, n_modes, temperature,
                omega_r=payload["omega_r"], c12=c12, coupling_type=SYMMETRIC,
            )
        else:
            model = FullModel.bare(
                density, n_modes, temperature,
                omega0=payload["omega0"], c12=c12, coupling_type=SYMMETRIC,
            )
        dt = 0.05 / density.cutoff
        times = np.arange(0.0, _SYMMETRIC_TRACE_T + dt / 2, dt)
        trace = extract_coefficients(
            solve_amplitude(model.bath, model.omega_plus_bare, times)
        )
        mass_omega = model.mass * model.omega0
        dx, dp = stationary_variances_symmetric(trace, mass_omega)
        omega_plus = model.omega_plus_dressed or model.omega_plus_bare
        minus_mass = model.minus_mode.mass
        minus_freq = model.minus_mode.frequency
    return {
        "dx_plus": dx,
        "dp_plus": dp,
        "omega_plus": omega_plus,
        "minus_mass": minus_mass,
        "minus_freq": minus_freq,
    }


def _cache_key(payload: dict) -> str:
    body = {"version": __version__, "route": _STATIONARY_ROUTE, "point": payload}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:32]


def _read_cache(cache_dir: Path | None, payload: dict) -> dict | None:
    """The cached stationary point of ``payload``; None when absent or unreadable."""
    if cache_dir is None:
        return None
    try:
        return json.loads((cache_dir / f"{_cache_key(payload)}.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _write_cache(cache_dir: Path | None, payload: dict, result: dict) -> None:
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"{_cache_key(payload)}.json"
        path.write_text(json.dumps(result, sort_keys=True))


def _stationary_point_cached(payload: dict, cache_dir: Path | None) -> dict:
    result = _read_cache(cache_dir, payload)
    if result is None:
        result = _stationary_point(payload)
        _write_cache(cache_dir, payload, result)
    return result


def sweep_axes(config: RunConfig):
    """The four sweep axes, defaulting to the point values when unset."""
    temps = config.temperatures or (config.temperature,)
    squeezings = config.squeezings or (config.r,)
    c12s = config.c12_values or (config.c12,)
    purities = config.purity_values or (config.purity_product,)
    return tuple(temps), tuple(squeezings), tuple(c12s), tuple(purities)


def run_phase_sweep(
    config: RunConfig,
    workers: int = 1,
    cache_dir: Path | None = None,
) -> tuple[list[dict], dict]:
    """Evaluate the phase grid in canonical row-major order.

    Returns (rows, info); each row carries the PHASE_COLUMNS fields, with
    phase = "ERROR" marking points whose stationary-variance evaluation failed
    (the sweep never aborts on a single point).  ``info["errors"]`` gives the
    reason of each failed (T, C12) key.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    heavy_keys = [(t, c) for t in temps for c in c12s]
    payloads = {key: _variance_payload(config, *key) for key in heavy_keys}

    t0 = time.monotonic()
    results: dict[tuple, dict | EntbathError] = {}
    uncached = []
    for key, payload in payloads.items():
        cached = _read_cache(cache_dir, payload)
        if cached is None:
            uncached.append(key)
        else:
            results[key] = cached

    if workers > 1 and len(uncached) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {key: pool.submit(_stationary_point, payloads[key]) for key in uncached}
            for key, fut in futures.items():
                try:
                    results[key] = fut.result()
                except EntbathError as exc:
                    results[key] = exc
    else:
        for key in uncached:
            try:
                results[key] = _stationary_point(payloads[key])
            except EntbathError as exc:
                results[key] = exc
    for key in uncached:
        if isinstance(results[key], dict):
            _write_cache(cache_dir, payloads[key], results[key])

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
                        row.update(
                            {k: float("nan") for k in PHASE_COLUMNS[4:-1]}
                        )
                        row["phase"] = "ERROR"
                    else:
                        minus = ModeSpec(point["minus_mass"], point["minus_freq"])
                        summary = summarize(
                            point["dx_plus"], point["dp_plus"], r, minus, purity_product=pur
                        )
                        row.update(
                            {
                                "dx_plus": summary.dx_plus,
                                "dp_plus": summary.dp_plus,
                                "r_crit": summary.r_crit,
                                "s_crit": summary.s_crit,
                                "e_mean": summary.e_mean,
                                "e_amp": summary.e_amp,
                                "phase": summary.phase.value,
                            }
                        )
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
        "wall_time_s": time.monotonic() - t0,
    }
    return rows, info


# ---------------------------------------------------------------------------
# phase boundaries


def _bisect_edge(f, a: float, b: float, fa: float, tol: float, max_iter: int = 60) -> float:
    """Crossing of f on [a, b], given f(a) = fa and that f(b) has the other sign."""
    while b - a > tol and max_iter > 0:
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


def phase_boundaries(
    config: RunConfig, rows: list[dict], cache_dir: Path | None = None
) -> dict:
    """Boundary polylines of each (c12, purity) slice of the phase grid.

    Keys: "nsd_sdr" (||r|-|r_crit|| = S_crit) and "sdr_sd" (|r|+|r_crit| =
    S_crit).  Neither r_crit nor S_crit depends on r, so at each grid
    temperature the crossings along r follow in closed form from that
    temperature's rows: |r| = |r_crit| +- S_crit and |r| = S_crit - |r_crit|,
    each non-negative root emitted with every sign that keeps it inside the
    r-axis range.  Along T, every grid edge whose end slacks (read from
    ``rows``) differ in sign is bisected to 1e-3 max(1, dT); each midpoint
    temperature is evaluated once per call.  ERROR rows, and edges whose
    bisection fails, are skipped.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    r_lo, r_hi = min(squeezings), max(squeezings)
    by_point = {(row["T"], row["r"], row["C12"], row["purity"]): row for row in rows}
    evaluated: dict[tuple, dict] = {}

    def slack(t: float, r: float, c12: float, purity: float, which: int) -> float:
        if (t, c12) not in evaluated:
            evaluated[t, c12] = _stationary_point_cached(
                _variance_payload(config, t, c12), cache_dir
            )
        point = evaluated[t, c12]
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
                                    t0, t1, v0[which], tol=1e-3 * max(1.0, t1 - t0),
                                )
                            except EntbathError:
                                continue  # failed midpoint; the boundary skips this edge
                            points[name].append([float(t_star), float(r)])
            for name in points:
                points[name].sort()
            out[f"c12={c12:g};purity={pur:g}"] = points
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


def verify_grid(config: RunConfig, workers: int = 1, cache_dir: Path | None = None) -> dict:
    """Cross-check predicted phases against late-time exact simulations.

    Small grids only (<= 25 points).  Points whose inequality slack is within
    the boundary margin are excluded rather than failed.
    """
    temps, squeezings, c12s, purities = sweep_axes(config)
    n_points = len(temps) * len(squeezings) * len(c12s) * len(purities)
    if n_points > 25:
        raise ValidationError(f"verification grid has {n_points} points; limit is 25")
    rows, _ = run_phase_sweep(config, workers=workers, cache_dir=cache_dir)

    report_points = []
    n_fail = 0
    for row in rows:
        entry = {k: row[k] for k in ("T", "r", "C12", "purity", "phase")}
        if row["phase"] == "ERROR":
            entry["status"] = "error"
            n_fail += 1
            report_points.append(entry)
            continue
        margin = min(abs(v) for v in phase_slacks(row["r"], row["r_crit"], row["s_crit"]))
        if margin < _BOUNDARY_MARGIN:
            entry["status"] = "boundary - excluded"
            entry["margin"] = margin
            report_points.append(entry)
            continue
        try:
            sim_class, deviation = _simulate_point(config, row)
        except EntbathError as exc:
            entry["status"] = f"simulation error: {exc}"
            n_fail += 1
            report_points.append(entry)
            continue
        expected = _EXPECTED_CLASS[Phase(row["phase"])]
        ok = sim_class == expected
        entry.update(
            {
                "simulated": sim_class,
                "envelope_deviation": deviation,
                "status": "pass" if ok else "fail",
            }
        )
        if not ok:
            n_fail += 1
        report_points.append(entry)
    return {
        "config_digest": config.digest(),
        "version": __version__,
        "points": report_points,
        "n_fail": n_fail,
        "passed": n_fail == 0,
    }


def _simulate_point(config: RunConfig, row: dict) -> tuple[str, float]:
    """Late-time simulated classification and envelope deviation at one point."""
    gamma_scale = max(config.gamma0, 1e-3)
    t_eq = max(30.0, 4.0 / gamma_scale)
    model = config.build_model(temperature=row["T"], c12=row["C12"])
    period = math.pi / model.minus_mode.frequency
    t_end = t_eq + 3.0 * period
    # enlarge the bath if the configured mode count cannot host the window
    needed = int(math.ceil(1.05 * t_end * config.cutoff / math.pi))
    if needed > config.modes:
        density = config.density()
        if config.renormalization == RENORMALIZED:
            model = type(model).renormalized(
                density, needed, row["T"], omega_r=config.omega_r,
                c12=row["C12"], coupling_type=config.coupling,
            )
        else:
            model = type(model).bare(
                density, needed, row["T"], omega0=config.omega0,
                c12=row["C12"], coupling_type=config.coupling,
            )
    state = initial_state(
        model, config.kind, r=row["r"], purity_product=row["purity"]
    )
    if t_end > model.validity_horizon:
        raise HorizonError(
            f"verification window [{t_eq:.3g}, {t_end:.3g}] exceeds the horizon "
            f"{model.validity_horizon:.3g}; increase [bath] modes"
        )
    times = np.linspace(t_eq, t_end, 360)
    _, energies = entanglement_trajectory(model, state, times)
    lo_band, hi_band = envelope_band(row["e_mean"], row["e_amp"])
    deviation = max(abs(energies.max() - hi_band), abs(energies.min() - lo_band))
    return _simulated_class(energies), float(deviation)
