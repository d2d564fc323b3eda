"""Seeded workload generator.

``generate(workload, seed, directory)`` writes the config files of one
workload and returns the CLI invocations that drive them.  Seed 0 reproduces
the paper configs in ``configs/`` (cut down where the README of this directory
says so).  Other seeds move the temperatures and squeezings inside the paper
window T in [0, 10], r in [0, 3] and keep every size fixed: bath modes, time
samples, grid shapes.  Phase and verify temperatures are drawn from a 0.05
lattice near the seed-0 grid points, so that the reference tables cover them,
and a draw is kept only when it predicts the same amount of boundary work
(edge crossings) or the same number of simulated verify points as seed 0; this
keeps the work of one run the same across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

#: half-width of the window, around each seed-0 temperature, that other seeds draw from
T_JITTER = {"phase-position": 0.15, "phase-symmetric": 0.3, "verify": 0.3}
_MAX_DRAWS = 2000
#: boundary margin below which `verify` excludes a point instead of simulating it
VERIFY_MARGIN = 0.05

_MODEL_KEYS = ("coupling", "renormalization", "omega_r", "omega0", "c12")


def argv(command: str, config: str, out_dir: Path) -> list[str]:
    """Arguments of ``entbath.cli.main`` for one invocation."""
    return [command, "--config", config, "--out", str(out_dir)]


@dataclass
class Invocation:
    """One CLI call of a workload and what the checker needs to judge it."""

    name: str
    command: str
    config: str
    params: dict


def _base(coupling="position", renormalization="renormalized", c12=0.0, **kw) -> dict:
    params = {
        "coupling": coupling,
        "renormalization": renormalization,
        "omega_r": 1.0,
        "omega0": None,
        "c12": c12,
        "gamma0": 0.1,
        "cutoff": 20.0,
        "temperature": 1.0,
        "modes": 1000,
        "kind": "two-mode-squeezed",
        "r": 1.0,
        "purity_product": 0.5,
    }
    params.update(kw)
    return params


def _trajectory(**kw) -> dict:
    return _base(temperature=10.0, r=3.0, t_max=100.0, dt_out=0.05, **kw)


#: seed-0 inputs: the paper configs of each workload
_EVOLVE = {
    "fig3a": _trajectory(),
    "fig3a_coupled": _trajectory(c12=-0.5),
    "fig3b": _trajectory(renormalization="bare", omega_r=None, omega0=3.2051894709572415),
    "fig3c": _trajectory(kind="squeezed-product", temperatures=[10.0], squeezings=[3.0],
                         purity_values=[0.5, 1.0]),
}
_PHASE_POSITION = {
    "fig2_left": _base(temperatures=(0.05, 10.0, 26), squeezings=(0.0, 3.0, 26)),
    "fig5": _base(c12=-0.5, temperatures=(0.05, 10.0, 26), squeezings=(0.0, 3.0, 26),
                  c12_values=[-0.5]),
}
_PHASE_SYMMETRIC = {
    "fig2_right_cut": _base(coupling="symmetric", temperatures=(0.05, 10.0, 4),
                            squeezings=(0.0, 3.0, 4)),
}
_VERIFY = {
    "fig2_left_verify": _base(temperatures=(0.5, 10.0, 5), squeezings=(0.0, 3.0, 5)),
}


def _linspace(spec) -> list[float]:
    start, stop, count = spec
    return [float(v) for v in np.linspace(start, stop, count)]


def _seed0_axes(params: dict) -> dict:
    out = dict(params)
    out["temperatures"] = _linspace(params["temperatures"])
    out["squeezings"] = _linspace(params["squeezings"])
    return out


def config_text(params: dict) -> str:
    """INI text of one config; list axes are written value by value."""

    def fmt(v):
        return ", ".join(repr(float(x)) for x in v) if isinstance(v, (list, tuple)) else str(v)

    sections = {
        "model": [k for k in _MODEL_KEYS if params.get(k) is not None],
        "bath": ["gamma0", "cutoff", "temperature", "modes"],
        "initial": ["kind", "r", "purity_product"],
        "grid": [k for k in ("t_max", "dt_out") if k in params],
        "sweep": [k for k in ("temperatures", "squeezings", "c12_values", "purity_values")
                  if k in params],
    }
    lines = []
    for section, keys in sections.items():
        if keys:
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {fmt(params[k])}" for k in keys)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded draws


def _draw_temperatures(rng: random.Random, seed0: list[float], jitter: float) -> list[float]:
    out = []
    for t0 in seed0:
        window = [t for t in reference.LATTICE if abs(t - t0) <= jitter + 1e-9]
        out.append(rng.choice(window))
    return out


def _draw_squeezings(rng: random.Random, count: int) -> list[float]:
    lo = round(rng.uniform(0.0, 0.1), 3)
    hi = round(rng.uniform(2.9, 3.0), 3)
    return [float(v) for v in np.linspace(lo, hi, count)]


def _slices(params: dict):
    c12s = params.get("c12_values") or [params["c12"]]
    return [(c12, params["purity_product"]) for c12 in c12s]


def edge_crossings(params: dict) -> tuple[int, int]:
    """Predicted sign changes of the two slacks along (T-edges, r-edges) of the grid.

    Mirrors the edge scan of the boundary search, evaluated on the reference
    dispersions; each T-edge crossing costs one bisection of fresh stationary
    evaluations, so the count sizes the boundary work.
    """
    temps, rs = params["temperatures"], params["squeezings"]
    n_t = n_r = 0
    for c12, purity in _slices(params):
        table = reference.stationary_table(params["coupling"], c12)
        grid = [[table.phase_values(t, r, purity) for r in rs] for t in temps]
        for key in ("lo", "hi"):
            for i in range(len(temps)):
                for j in range(len(rs) - 1):
                    v0, v1 = grid[i][j][key], grid[i][j + 1][key]
                    n_r += v0 == 0.0 or v0 * v1 < 0.0
            for j in range(len(rs)):
                for i in range(len(temps) - 1):
                    n_t += grid[i][j][key] * grid[i + 1][j][key] < 0.0
    return n_t, n_r


def simulated_points(params: dict) -> int:
    """Predicted number of verify points far enough from a boundary to be simulated."""
    n = 0
    for c12, purity in _slices(params):
        table = reference.stationary_table(params["coupling"], c12)
        for t in params["temperatures"]:
            for r in params["squeezings"]:
                v = table.phase_values(t, r, purity)
                n += min(abs(v["lo"]), abs(v["hi"])) >= VERIFY_MARGIN
    return n


def _work_signature(workload: str, params: dict):
    return simulated_points(params) if workload == "verify" else edge_crossings(params)


def _draw_grid(workload: str, rng: random.Random, seed0: dict) -> dict:
    target = _work_signature(workload, seed0)
    for _ in range(_MAX_DRAWS):
        params = dict(seed0)
        params["temperatures"] = _draw_temperatures(rng, seed0["temperatures"], T_JITTER[workload])
        params["squeezings"] = _draw_squeezings(rng, len(seed0["squeezings"]))
        if _work_signature(workload, params) == target:
            return params
    raise RuntimeError(f"no draw of {workload} matched the seed-0 work in {_MAX_DRAWS} tries")


def _draw_trajectory(rng: random.Random, seed0: dict) -> dict:
    params = dict(seed0)
    params["temperature"] = round(rng.uniform(1.0, 10.0), 3)
    params["r"] = round(rng.uniform(1.0, 3.0), 3)
    if "temperatures" in params:  # fig3c's one-point sweep follows its point
        params["temperatures"], params["squeezings"] = [params["temperature"]], [params["r"]]
    return params


_SEED0 = {
    "evolve": _EVOLVE,
    "verify": _VERIFY,
    "phase-position": _PHASE_POSITION,
    "phase-symmetric": _PHASE_SYMMETRIC,
}
WORKLOADS = tuple(_SEED0)
_COMMAND = {
    "evolve": "evolve",
    "verify": "verify",
    "phase-position": "phase-diagram",
    "phase-symmetric": "phase-diagram",
}


def workload_params(workload: str, seed: int) -> dict[str, dict]:
    """Resolved parameters of every config of a workload, by config name."""
    if workload not in _SEED0:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    out = {}
    for name, base in _SEED0[workload].items():
        if workload == "evolve":
            out[name] = dict(base) if seed == 0 else _draw_trajectory(rng, base)
        else:
            seed0 = _seed0_axes(base)
            out[name] = seed0 if seed == 0 else _draw_grid(workload, rng, seed0)
    return out


def generate(workload: str, seed: int, directory: Path) -> list[Invocation]:
    """Write the workload's configs into ``directory`` and return its invocations."""
    directory.mkdir(parents=True, exist_ok=True)
    invocations = []
    for name, params in workload_params(workload, seed).items():
        path = directory / f"{name}.cfg"
        path.write_text(config_text(params))
        invocations.append(
            Invocation(name=name, command=_COMMAND[workload], config=str(path),
                       params=params)
        )
    return invocations
