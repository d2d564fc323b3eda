"""Reference data shared by the workload generator and the output checker.

``reference/stationary.json`` holds the stationary (+) dispersions of every
temperature a seed can draw, per (coupling, c12) slice, as computed by the
program at the commit that defined the benchmark.  ``reference/evolve_seed0.json``
holds every 25th row of the seed-0 trajectories.  Both are written by
``make_reference.py``.

The phase quantities are recomputed here from the dispersions with the
closed forms of the paper, independently of ``entbath.asymptotics``:

    r_crit = 1/2 ln[m- w- dx+/dp+],   S_crit = 1/2 ln[4 dx+ dp+ dx- dp-],
    NSD/SDR slack  ||r| - |r_crit|| - S_crit,   SDR/SD slack  |r| + |r_crit| - S_crit.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
STATIONARY_FILE = REFERENCE_DIR / "stationary.json"
EVOLVE_FILE = REFERENCE_DIR / "evolve_seed0.json"

#: temperature lattice that seeds other than 0 draw from
LATTICE_STEP = 0.05
LATTICE = tuple(round(LATTICE_STEP * k, 10) for k in range(1, 201))


def slice_key(coupling: str, c12: float) -> str:
    return f"{coupling}:c12={c12:g}"


def temperature_key(t: float) -> str:
    """Table key of a temperature read back from a 12-significant-digit CSV."""
    return f"{t:.9e}"


@lru_cache(maxsize=None)
def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class StationaryTable:
    """Stationary dispersions and (-) mode data of one (coupling, c12) slice."""

    def __init__(self, entry: dict):
        self.minus_mass = float(entry["minus_mass"])
        self.minus_freq = float(entry["minus_freq"])
        self.rows = {temperature_key(t): (float(dx), float(dp)) for t, dx, dp in entry["rows"]}
        self.temperatures = sorted(float(t) for t, _, _ in entry["rows"])

    def dispersions(self, t: float) -> tuple[float, float]:
        try:
            return self.rows[temperature_key(t)]
        except KeyError:
            raise KeyError(f"no reference dispersions at T={t!r}") from None

    def bracket(self, t: float, tol: float, t0: float, t1: float) -> tuple[float, float]:
        """Nearest tabled temperatures in [t0, t1] at or below t - tol and at or above t + tol.

        t0 and t1 must be tabled (grid temperatures are), so both always exist.
        """
        below = [x for x in self.temperatures if t0 - 1e-12 <= x <= max(t - tol, t0)]
        above = [x for x in self.temperatures if min(t + tol, t1) <= x <= t1 + 1e-12]
        return below[-1], above[0]

    def phase_values(self, t: float, r: float, purity: float) -> dict:
        dx, dp = self.dispersions(t)
        return phase_values(dx, dp, r, self.minus_mass * self.minus_freq, purity)


@lru_cache(maxsize=None)
def stationary_table(coupling: str, c12: float) -> StationaryTable:
    return StationaryTable(_load(STATIONARY_FILE)[slice_key(coupling, c12)])


def evolve_reference() -> dict:
    return _load(EVOLVE_FILE)


def phase_values(dx: float, dp: float, r: float, minus_xp_scale: float, purity: float) -> dict:
    """r_crit, S_crit, both slacks and the label from the stationary dispersions."""
    r_crit = 0.5 * math.log(minus_xp_scale * dx / dp)
    s_crit = 0.5 * math.log(4.0 * dx * dp * purity)
    lo = abs(abs(r) - abs(r_crit)) - s_crit
    hi = abs(r) + abs(r_crit) - s_crit
    label = "SD" if hi <= 1e-9 else "NSD" if lo > 1e-9 else "SDR"
    return {"r_crit": r_crit, "s_crit": s_crit, "lo": lo, "hi": hi, "phase": label}
