"""Regenerate the reference tables under ``reference/`` from the current program.

Run from the repository root:  python bench/make_reference.py

It evaluates the stationary (+) dispersions at every temperature a seed can
draw (about 500 position quadratures and 40 symmetric coefficient traces, a
couple of minutes on two cores) and keeps every 25th row of the seed-0
`evolve` trajectories.  Only rerun it when a deliberate route change moves the
numbers beyond the checker's tolerances, and record that in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import workloads  # noqa: E402
from check import read_csv  # noqa: E402

EVOLVE_EVERY = 25


def _temperatures(workload: str) -> set[float]:
    out = set()
    for params in workloads.workload_params(workload, 0).values():
        out.update(params["temperatures"])
    return out


def _near(temps, jitter) -> set[float]:
    return {t for t in reference.LATTICE if any(abs(t - t0) <= jitter + 1e-9 for t0 in temps)}


def stationary_tables(work: Path) -> dict:
    from entbath.config import load_config
    from entbath.sweep import _stationary_point, _variance_payload

    position = _temperatures("phase-position")
    symmetric = _temperatures("phase-symmetric")
    slices = {
        ("position", 0.0): set(reference.LATTICE) | position | _temperatures("verify"),
        ("position", -0.5): set(reference.LATTICE) | position,
        ("symmetric", 0.0): symmetric | _near(symmetric, workloads.T_JITTER["phase-symmetric"]),
    }
    bases = {"position": "phase-position", "symmetric": "phase-symmetric"}
    out = {}
    for (coupling, c12), temps in slices.items():
        invs = workloads.generate(bases[coupling], 0, work / coupling)
        config = load_config(invs[0].config)
        rows, point = [], None
        for t in sorted(temps):
            point = _stationary_point(_variance_payload(config, t, c12))
            rows.append([t, point["dx_plus"], point["dp_plus"]])
            print(f"{coupling} c12={c12:g} T={t:g}", file=sys.stderr)
        out[reference.slice_key(coupling, c12)] = {
            "minus_mass": point["minus_mass"],
            "minus_freq": point["minus_freq"],
            "rows": rows,
        }
    return out


def evolve_rows(work: Path) -> dict:
    from entbath.cli import main

    out = {}
    for inv in workloads.generate("evolve", 0, work / "evolve"):
        out_dir = work / "evolve" / inv.name
        if main(workloads.argv(inv.command, inv.config, out_dir)) != 0:
            raise SystemExit(f"evolve {inv.name} failed")
        columns, rows = read_csv(out_dir / "trajectory.csv")
        out[inv.name] = {
            "every": EVOLVE_EVERY,
            "columns": columns,
            "rows": [[float(v) for v in row] for row in rows[::EVOLVE_EVERY]],
        }
    return out


def main() -> None:
    work = ROOT / ".bench_out" / "make_reference"
    shutil.rmtree(work, ignore_errors=True)
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    reference.EVOLVE_FILE.write_text(json.dumps(evolve_rows(work)) + "\n")
    reference.STATIONARY_FILE.write_text(json.dumps(stationary_tables(work), indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
