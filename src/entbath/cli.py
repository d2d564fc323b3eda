"""Command-line interface: evolve, coeffs, phase-diagram, verify.

Every command takes --config and --out and runs serially; [run]
override_horizon lets ``evolve`` run past the validity horizon.  Numeric CSV
output uses 12 significant digits and canonical ordering, so identical config
digests (which cover every value outside [run]) produce byte-identical
artifacts.  Exit codes: 0 success, 2 configuration error, 3 numerical/regime
error (for verify: a point that could not be evaluated or simulated), 4
verification failure (a predicted and a simulated phase disagree), 5 internal
error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bathsim import SYMMETRIC, entanglement_trajectory, initial_state
from .config import RunConfig, load_config
from .errors import ConfigError, EntbathError, UnsupportedOperationError
from .rwa import extract_coefficients, solve_amplitude
from .sweep import PHASE_COLUMNS, phase_boundaries, run_phase_sweep, verify_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5

_FMT = "%.11e"  # 12 significant digits


def write_csv(path: Path, names, columns, header_comments=(), footer_comments=()):
    """Write the table whose column ``names[i]`` is the array ``columns[i]``:
    a text array (numpy ``str_`` elements) as it is, any other as floats."""
    columns = [np.asarray(column) for column in columns]
    text = [column.dtype.kind == "U" for column in columns]
    template = ",".join("%s" if is_text else _FMT for is_text in text)
    values = [(column if is_text else column + 0.0).tolist()  # -0.0 + 0.0 = 0.0
              for column, is_text in zip(columns, text)]
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(names))
    lines.extend(template % row for row in zip(*values))
    lines.extend(f"# {c}" for c in footer_comments)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_COV_COLUMNS = (
    "V_x1x1", "V_x1p1", "V_x1x2", "V_x1p2", "V_p1p1",
    "V_p1x2", "V_p1p2", "V_x2x2", "V_x2p2", "V_p2p2",
)
_COV_INDEX = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _plot_script(csv_name: str, x: str, ys, title: str) -> str:
    cols = ", ".join(repr(c) for c in ys)
    return f'''"""Render {csv_name}; emitted as a text artifact, run it yourself."""
import csv

import matplotlib.pyplot as plt

rows = []
with open("{csv_name}") as handle:
    for row in csv.DictReader(line for line in handle if not line.startswith("#")):
        rows.append(row)
xs = [float(r["{x}"]) for r in rows]
for column in [{cols}]:
    plt.plot(xs, [float(r[column]) for r in rows], label=column)
plt.xlabel("{x}")
plt.legend()
plt.title({title!r})
plt.tight_layout()
plt.savefig("{csv_name}".replace(".csv", ".png"), dpi=160)
'''


def _time_grid(t_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to t_max and never past it, beyond rounding."""
    times = np.arange(0.0, t_max + step / 2, step)
    return times[times <= t_max * (1 + 1e-12)]


def cmd_evolve(config: RunConfig, out_dir: Path, config_s: float) -> int:
    start = time.perf_counter()
    model = config.build_model()
    build_s = time.perf_counter() - start
    state = initial_state(model, config.kind, r=config.r,
                          purity_product=config.purity_product)
    times = _time_grid(config.t_max, config.dt_out)
    traj, energies = entanglement_trajectory(
        model, state, times, override_horizon=config.override_horizon
    )
    start = time.perf_counter()
    rows, cols = np.array(_COV_INDEX).T
    out_csv = out_dir / "trajectory.csv"
    write_csv(
        out_csv,
        ("t", *_COV_COLUMNS, "EN"),
        [traj.times, *traj.covs[:, rows, cols].T, energies],
        header_comments=(
            f"entbath {__version__} trajectory",
            f"config_digest {config.digest()}",
        ),
    )
    (out_dir / "plot_trajectory.py").write_text(
        _plot_script("trajectory.csv", "t", ["EN"], "entanglement trajectory")
    )
    info = traj.info
    write_json(out_dir / "run_info.json", {  # wall times and diagnostics; not byte-stable
        "config_digest": config.digest(),
        "version": __version__,
        "bath_modes": info["bath_modes"],
        "samples": info["samples"],
        "min_physicality_defect": info["min_physicality_defect"],
        "secular_iterations": info["secular_iterations"],
        "secular_z_drift": info["secular_z_drift"],
        "thermal_grids": info["thermal_grids"],
        "thermal_nodes": info["thermal_nodes"],
        "thermal_drift": info["thermal_drift"],
        "horizon_margin": float(traj.times[-1]) / traj.validity_horizon,
        "wall_time_s": {
            "config": config_s,
            "model": build_s + info["normal_modes_s"],
            "thermal": info["thermal_s"],
            "states": info["states_s"],
            "entanglement": info["entanglement_s"],
            "write": time.perf_counter() - start,
        },
    })
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_coeffs(config: RunConfig, out_dir: Path, config_s: float) -> int:
    if config.coupling != SYMMETRIC:
        raise UnsupportedOperationError(
            "coefficient traces are only defined for symmetric coupling; the "
            "closed-form time-dependent coefficients of the position-coupling "
            "master equation are out of scope (only their stationary "
            "combinations enter, via the phase-diagram quadratures)"
        )
    marks = [time.perf_counter()]  # ends of the stages model, amplitude, coefficients, write
    model = config.build_model()
    marks.append(time.perf_counter())
    times = _time_grid(config.t_max, config.dt)
    sol = solve_amplitude(model.bath, model.omega_plus_bare, times)
    marks.append(time.perf_counter())
    trace = extract_coefficients(sol)
    stop = trace.valid_until_index
    marks.append(time.perf_counter())
    columns = ["t", "gamma", "delta_omega2", "diffusion"]
    table = [trace.times, trace.gamma, trace.delta_omega2, trace.diffusion]
    footer = [f"valid_until {trace.t_valid:.6g} (amplitude floor {trace.amplitude_floor:.3e})"]
    if config.temperature == 0.0:
        columns.append("zero_T_residual")
        table.append(np.abs(trace.diffusion - trace.gamma))
        footer.append(f"max_zero_T_residual {float(table[-1][:stop].max()):.6e}")
    out_csv = out_dir / "coefficients.csv"
    write_csv(
        out_csv,
        columns,
        [column[:stop] for column in table],
        header_comments=(
            f"entbath {__version__} master-equation coefficients",
            f"config_digest {config.digest()}",
        ),
        footer_comments=footer,
    )
    _write_kernel_csv(config, model, out_dir)
    (out_dir / "plot_coefficients.py").write_text(
        _plot_script("coefficients.csv", "t", ["gamma", "diffusion"], "exact coefficients")
    )
    marks.append(time.perf_counter())
    write_json(out_dir / "run_info.json", {  # wall times and diagnostics; not byte-stable
        "config_digest": config.digest(),
        "version": __version__,
        "bath_modes": model.bath.n_modes,
        "samples": int(times.size),
        "t_valid": trace.t_valid,
        "amplitude_floor": trace.amplitude_floor,
        **sol.solve_health,
        **trace.health,
        "wall_time_s": {"config": config_s, **dict(zip(
            ("model", "amplitude", "coefficients", "write"), np.diff(marks).tolist()))},
    })
    print(f"wrote {out_csv}")
    return EXIT_OK


def _write_kernel_csv(config: RunConfig, model, out_dir: Path, n_samples: int = 200):
    """Debugging side artifact: memory kernel, continuum vs discrete sum."""
    from .spectra import eta_kernel, eta_kernel_discrete

    t_end = min(config.t_max, model.bath.recurrence_time / 10.0)
    times = np.linspace(0.0, t_end, n_samples)
    scale = 2.0 / model.bath.ladder_scale  # ladder kernel is (2/m omega) * eta
    table = np.empty((n_samples, 5))
    for i, t in enumerate(times):
        cont = scale * eta_kernel(config.density(), float(t))
        disc = eta_kernel_discrete(model.bath, float(t))
        table[i] = t, cont.real, cont.imag, disc.real, disc.imag
    write_csv(
        out_dir / "kernel.csv",
        ("t", "re_eta", "im_eta", "re_eta_discrete", "im_eta_discrete"),
        table.T,
        header_comments=("memory kernel of the ladder convention, continuum vs discrete",),
    )


def cmd_phase_diagram(config: RunConfig, out_dir: Path, config_s: float) -> int:
    marks = [time.perf_counter()]  # ends of the stages sweep, boundaries, write
    table, info = run_phase_sweep(config)
    marks.append(time.perf_counter())
    boundaries = phase_boundaries(config, table, info=info)
    marks.append(time.perf_counter())
    out_csv = out_dir / "phase_diagram.csv"
    write_csv(
        out_csv,
        PHASE_COLUMNS,
        [table.grid[name].ravel() for name in PHASE_COLUMNS],
        header_comments=(
            f"entbath {__version__} phase diagram",
            f"config_digest {config.digest()}",
        ),
        footer_comments=(f"errors {info['n_errors']} of {info['n_points']} points",),
    )
    write_json(out_dir / "phase_boundaries.json", {
        "config_digest": config.digest(),
        "version": __version__,
        "boundaries": boundaries,
    })
    (out_dir / "plot_phase_diagram.py").write_text(_PHASE_PLOT_SCRIPT)
    marks.append(time.perf_counter())
    info["wall_time_s"] = {"config": config_s,
                           **dict(zip(("sweep", "boundaries", "write"), np.diff(marks).tolist()))}
    write_json(out_dir / "run_info.json", info)  # wall times and diagnostics; not byte-stable
    print(f"wrote {out_csv} ({info['n_points']} points, {info['n_errors']} errors)")
    return EXIT_OK


_PHASE_PLOT_SCRIPT = '''"""Render phase_diagram.csv; emitted as a text artifact, run it yourself."""
import csv

import matplotlib.pyplot as plt

colors = {"NSD": "tab:green", "SDR": "tab:orange", "SD": "tab:red", "ERROR": "k"}
T, r, phase = [], [], []
with open("phase_diagram.csv") as handle:
    for row in csv.DictReader(line for line in handle if not line.startswith("#")):
        T.append(float(row["T"]))
        r.append(float(row["r"]))
        phase.append(row["phase"])
for label in sorted(set(phase)):
    xs = [t for t, p in zip(T, phase) if p == label]
    ys = [v for v, p in zip(r, phase) if p == label]
    plt.scatter(xs, ys, c=colors.get(label, "gray"), s=14, label=label)
plt.xlabel("T")
plt.ylabel("r")
plt.legend()
plt.tight_layout()
plt.savefig("phase_diagram.png", dpi=160)
'''


def cmd_verify(config: RunConfig, out_dir: Path, config_s: float) -> int:
    start = time.perf_counter()
    info = {"config_digest": config.digest(), "version": __version__}
    report = verify_grid(config, info=info)
    grid_s = time.perf_counter() - start
    write_json(out_dir / "verify_report.json", report)
    info["wall_time_s"] = {"config": config_s, "grid": grid_s,
                           "write": time.perf_counter() - start - grid_s}
    write_json(out_dir / "run_info.json", info)  # wall times and diagnostics; not byte-stable
    n_error = sum("reason" in point for point in report["points"])
    status = "PASS" if report["passed"] else "FAIL"
    print(f"verification {status}: {report['n_fail']} failing and {n_error} errored "
          f"point(s) of {len(report['points'])}")
    if report["n_fail"]:
        return EXIT_VERIFY
    return EXIT_NUMERICS if n_error else EXIT_OK


#: the commands that read [grid], whose values the loader then checks
_GRID_COMMANDS = ("evolve", "coeffs")

_COMMANDS = {
    "evolve": cmd_evolve,
    "coeffs": cmd_coeffs,
    "phase-diagram": cmd_phase_diagram,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbath",
        description="Entanglement dynamics of two oscillators in a common Ohmic bath.",
    )
    parser.add_argument("--version", action="version", version=f"entbath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("evolve", "exact entanglement trajectory -> trajectory.csv"),
        ("coeffs", "master-equation coefficient trace -> coefficients.csv"),
        ("phase-diagram", "asymptotic phase grid -> phase_diagram.csv (+ boundaries)"),
        ("verify", "cross-check predicted phases against exact simulations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--out", default=None, help="output directory (default: [run] out_dir)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        config = load_config(args.config, grid=args.command in _GRID_COMMANDS)
        config_s = time.perf_counter() - start
        out_dir = Path(args.out) if args.out else Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir, config_s)
    except (ConfigError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EntbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except Exception:
        print("error: internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
