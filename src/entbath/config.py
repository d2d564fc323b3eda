"""Run configuration: strict INI-style parsing, defaults, digests.

The format is a flat key = value file with sections.  Unknown sections or keys
are rejected, and every violation found is reported at once.  List-valued keys
accept either a comma-separated list ("0, 0.5, 1") or a linspace range
("start:stop:count").
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bathsim import BARE, POSITION, RENORMALIZED, STANDARD_STATE_KINDS, SYMMETRIC, FullModel
from .errors import ConfigError
from .spectra import OhmicSpectralDensity


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_float_list(text: str):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:count")
        start, stop, count = _parse_float(parts[0]), _parse_float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("range count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [_parse_float(v) for v in text.split(",") if v.strip() != ""]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# schema: section -> key -> (parser, default); ... = required (no default)
_REQUIRED = object()
_SCHEMA = {
    "model": {
        "coupling": (str.strip, POSITION),
        "renormalization": (str.strip, RENORMALIZED),
        "mass": (_parse_float, 1.0),
        "omega_r": (_parse_float, None),
        "omega0": (_parse_float, None),
        "c12": (_parse_float, 0.0),
    },
    "bath": {
        "gamma0": (_parse_float, _REQUIRED),
        "cutoff": (_parse_float, _REQUIRED),
        "temperature": (_parse_float, _REQUIRED),
        "modes": (int, 1000),
    },
    "initial": {
        "kind": (str.strip, "two-mode-squeezed"),
        "r": (_parse_float, 0.0),
        "purity_product": (_parse_float, 0.5),
    },
    "grid": {
        "t_max": (_parse_float, 100.0),
        "dt": (_parse_float, 0.005),
        "dt_out": (_parse_float, 0.05),
    },
    "sweep": {
        "temperatures": (_parse_float_list, None),
        "squeezings": (_parse_float_list, None),
        "c12_values": (_parse_float_list, None),
        "purity_values": (_parse_float_list, None),
    },
    "run": {
        "out_dir": (str.strip, "out"),
        "override_horizon": (_parse_bool, False),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved and validated run configuration."""

    coupling: str
    renormalization: str
    mass: float
    omega_r: float | None
    omega0: float | None
    c12: float
    gamma0: float
    cutoff: float
    temperature: float
    modes: int
    kind: str
    r: float
    purity_product: float
    t_max: float
    dt: float
    dt_out: float
    temperatures: tuple | None
    squeezings: tuple | None
    c12_values: tuple | None
    purity_values: tuple | None
    out_dir: str
    override_horizon: bool
    source_path: str = field(default="", compare=False)

    def density(self) -> OhmicSpectralDensity:
        return OhmicSpectralDensity(gamma0=self.gamma0, cutoff=self.cutoff, mass=self.mass)

    def build_model(self, c12: float | None = None, modes: int | None = None) -> FullModel:
        """FullModel at the configured point, optionally overriding C12 and the
        number of bath modes.  Its bath is at the configured temperature;
        ``bathsim.plus_flows`` takes others."""
        c = self.c12 if c12 is None else c12
        n = self.modes if modes is None else modes
        if self.renormalization == RENORMALIZED:
            return FullModel.renormalized(
                self.density(), n, self.temperature, omega_r=self.omega_r, c12=c,
                coupling_type=self.coupling,
            )
        return FullModel.bare(
            self.density(), n, self.temperature, omega0=self.omega0, c12=c,
            coupling_type=self.coupling,
        )

    def resolve_workers(self, cli_value: int | None = None) -> int:
        """1: every command runs serially.  Only the benchmark driver
        (``bench/child.py``) still reads it; delete it with that call."""
        return 1

    def digest(self) -> str:
        """Hash of the code version and of the values that set the numbers:
        every [model], [bath], [initial], [grid] and [sweep] key.  [run] says
        how and where to run, never what, so it stays out."""
        values = {key: getattr(self, key)
                  for section, keys in _SCHEMA.items() if section != "run" for key in keys}
        payload = {"version": __version__, "config": values}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def load_config(path, grid: bool = True) -> RunConfig:
    """Parse, default, and validate a configuration file (fail-closed).

    ``grid`` also checks the [grid] values against the bath: dt*cutoff <= 0.1
    and t_max inside the validity horizon unless [run] override_horizon.  The
    CLI asks for it only for the commands that read [grid], evolve and coeffs.
    """
    path = Path(path)
    problems: list[str] = []
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError([f"parse error in {path}: {exc}"]) from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key {key!r} in section [{section}]")
    for section, keys in _SCHEMA.items():
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[key] = parse(raw)
                except (ValueError, TypeError) as exc:
                    problems.append(f"[{section}] {key}: cannot parse {raw!r} ({exc})")
                    values[key] = None
            else:
                if default is _REQUIRED:
                    problems.append(f"[{section}] missing required key {key!r}")
                    values[key] = None
                else:
                    values[key] = default

    def check(cond: bool, message: str):
        if not cond:
            problems.append(message)

    coupling = values.get("coupling")
    renorm = values.get("renormalization")
    check(coupling in (POSITION, SYMMETRIC), f"[model] coupling must be '{POSITION}' or '{SYMMETRIC}'")
    check(renorm in (RENORMALIZED, BARE), f"[model] renormalization must be '{RENORMALIZED}' or '{BARE}'")
    if renorm == RENORMALIZED:
        check(values.get("omega_r") is not None, "[model] omega_r is required in renormalized mode")
        if values.get("omega_r") is not None:
            check(values["omega_r"] > 0, "[model] omega_r must be positive")
    if renorm == BARE:
        check(values.get("omega0") is not None, "[model] omega0 is required in bare mode")
        if values.get("omega0") is not None:
            check(values["omega0"] > 0, "[model] omega0 must be positive")
    if values.get("mass") is not None:
        check(values["mass"] > 0, "[model] mass must be positive")
    if values.get("gamma0") is not None:
        check(values["gamma0"] >= 0, "[bath] gamma0 must be non-negative")
    if values.get("cutoff") is not None:
        check(values["cutoff"] > 0, "[bath] cutoff must be positive")
    if values.get("temperature") is not None:
        check(values["temperature"] >= 0, "[bath] temperature must be non-negative")
    if values.get("modes") is not None:
        check(values["modes"] >= 1, "[bath] modes must be at least 1")
    check(
        values.get("kind") in STANDARD_STATE_KINDS,
        f"[initial] kind must be one of {STANDARD_STATE_KINDS}",
    )
    if values.get("purity_product") is not None:
        check(values["purity_product"] >= 0.5 - 1e-12, "[initial] purity_product must be >= 1/2")
    for key in ("t_max", "dt", "dt_out"):
        if values.get(key) is not None:
            check(values[key] > 0, f"[grid] {key} must be positive")

    if grid and values.get("dt") and values.get("cutoff"):
        check(
            values["dt"] * values["cutoff"] <= 0.1 * (1 + 1e-9),
            f"[grid] dt*cutoff = {values['dt'] * values['cutoff']:.4g} exceeds 0.1",
        )
    if (
        grid
        and values.get("t_max")
        and values.get("cutoff")
        and values.get("modes")
        and not values.get("override_horizon")
    ):
        horizon = math.pi * values["modes"] / values["cutoff"]
        check(
            values["t_max"] <= horizon * (1 + 1e-12),
            f"[grid] t_max = {values['t_max']:.6g} exceeds the validity horizon "
            f"{horizon:.6g} (= half the bath recurrence time); increase [bath] modes "
            "or set [run] override_horizon = true",
        )
    for key in ("temperatures", "squeezings", "c12_values", "purity_values"):
        if values.get(key) is not None:
            check(len(values[key]) > 0, f"[sweep] {key} must not be empty")
    if values.get("temperatures"):
        check(min(values["temperatures"]) >= 0, "[sweep] temperatures must be non-negative")
    if values.get("purity_values"):
        check(min(values["purity_values"]) >= 0.5 - 1e-12, "[sweep] purity_values must be >= 1/2")

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        **{
            f.name: tuple(values[f.name]) if isinstance(values[f.name], list) else values[f.name]
            for f in fields(RunConfig)
            if f.name != "source_path"
        },
        source_path=str(path),
    )
