"""Span recorder and per-layer report for the traced run.

Spans are recorded from outside the program: each public name is replaced,
in the namespace its caller looks it up in, by a wrapper that records a span
(name, parent, start, end) and any counts of the work done.  Spans stay in
memory; ``Recorder.dump`` writes them out once the run ends.
``numpy.linalg.eigh`` is wrapped too, and its nearest ``bathsim.*`` or
``rwa.*`` ancestor decides which layer it is charged to.  The quadrature
integrand runs about 290k times per position-coupling config, so it is
counted without a span.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

NAME, PARENT, START, END = range(4)


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def count_calls(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module: str, attribute: str, name: str, hook=None, spans: bool = True):
        mod = importlib.import_module(module)
        original = getattr(mod, attribute)
        wrapper = self.wrap(original, name, hook) if spans else self.count_calls(original, name)
        self._patches.append((mod, attribute, original))
        setattr(mod, attribute, wrapper)

    def install(self):
        for module, attribute, name, hook, spans in PATCHES:
            self.patch(module, attribute, name, hook, spans)
        return self

    def uninstall(self):
        while self._patches:
            mod, attribute, original = self._patches.pop()
            setattr(mod, attribute, original)

    def dump(self, path: Path):
        path.write_text(json.dumps({"counts": self.counts, "spans": self.spans}))


# ---------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary


def _file_bytes(counts, args, result):
    path = Path(args[0])
    if path.name != "run_info.json":  # holds wall times, so its size is not stable
        counts["cli.bytes_written"] += os.path.getsize(path)


def _samples(counts, args, result):
    counts["bathsim.samples"] += len(args[2])


def _trace_steps(counts, args, result):
    counts["rwa.trace_steps"] += len(args[2])


def _boundary_points(counts, args, result):
    counts["sweep.boundary_points"] += sum(
        len(points) for curves in result.values() for points in curves.values()
    )


PATCHES = (
    # (module the caller looks the name up in, attribute, span name, count hook, spans?)
    ("entbath.cli", "main", "cli.main", None, True),
    ("entbath.cli", "load_config", "config.load", None, True),
    ("entbath.cli", "write_csv", "cli.write_csv", _file_bytes, True),
    ("entbath.cli", "write_json", "cli.write_json", _file_bytes, True),
    ("entbath.cli", "run_phase_sweep", "sweep.run_phase_sweep", None, True),
    ("entbath.cli", "phase_boundaries", "sweep.phase_boundaries", _boundary_points, True),
    ("entbath.cli", "verify_grid", "sweep.verify_grid", None, True),
    ("entbath.sweep", "run_phase_sweep", "sweep.run_phase_sweep", None, True),
    ("entbath.sweep", "_stationary_point_cached", "sweep.cache_lookup", None, True),
    ("entbath.sweep", "_stationary_point", "sweep.stationary_point", None, True),
    ("entbath.sweep", "_simulate_point", "sweep.simulate_point", None, True),
    ("entbath.sweep", "stationary_variances_position", "asymptotics.stationary_position", None, True),
    ("entbath.sweep", "summarize", "asymptotics.summarize", None, True),
    ("entbath.sweep", "solve_amplitude", "rwa.solve_amplitude", _trace_steps, True),
    ("entbath.sweep", "extract_coefficients", "rwa.extract_coefficients", None, True),
    ("entbath.bathsim", "evolve", "bathsim.evolve", _samples, True),
    ("entbath.bathsim", "discretize", "spectra.discretize", None, True),
    ("entbath.bathsim", "GaussianState", "gaussian.state", None, True),
    ("entbath.bathsim", "log_negativity", "gaussian.log_negativity", None, True),
    ("entbath.asymptotics", "ohmic_susceptibility_im", "asymptotics.integrand_calls", None, False),
    ("numpy.linalg", "eigh", "eigh", None, True),
)


# ---------------------------------------------------------------------------
# report


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START]) - union_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def _layer_of(spans: list[list], index: int) -> str | None:
    """Name of the nearest bathsim/rwa ancestor's module, which an eigh is charged to."""
    parent = spans[index][PARENT]
    while parent >= 0:
        module = spans[parent][NAME].split(".", 1)[0]
        if module in ("bathsim", "rwa"):
            return module
        parent = spans[parent][PARENT]
    return None


def summarize_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans only) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        if name == "eigh":
            name = f"{_layer_of(spans, i)}.eigh"
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["s"] += span[END] - span[START]
    return out


def _cache_misses(spans: list[list]) -> int:
    return sum(
        1 for span in spans
        if span[NAME] == "sweep.stationary_point"
        and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "sweep.cache_lookup"
    )


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metric values of one traced pass (times in s, the rest counts)."""
    by_name = summarize_spans(spans)

    def s(name):
        return by_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    lookups = calls("sweep.cache_lookup")
    return {
        "config.load_s": s("config.load"),
        "spectra.discretize_s": s("spectra.discretize"),
        "spectra.discretize_calls": calls("spectra.discretize"),
        "bathsim.evolve_s": s("bathsim.evolve"),
        "bathsim.evolve_self_s": by_name.get("bathsim.evolve", {}).get("self_s", 0.0),
        "bathsim.evolve_calls": calls("bathsim.evolve"),
        "bathsim.samples": counts["bathsim.samples"],
        "bathsim.eigh_s": s("bathsim.eigh"),
        "bathsim.eigh_calls": calls("bathsim.eigh"),
        "gaussian.state_s": s("gaussian.state"),
        "gaussian.state_count": calls("gaussian.state"),
        "gaussian.log_negativity_s": s("gaussian.log_negativity"),
        "gaussian.log_negativity_calls": calls("gaussian.log_negativity"),
        "asymptotics.stationary_position_s": s("asymptotics.stationary_position"),
        "asymptotics.stationary_position_calls": calls("asymptotics.stationary_position"),
        "asymptotics.integrand_calls": counts["asymptotics.integrand_calls"],
        "asymptotics.summarize_s": s("asymptotics.summarize"),
        "asymptotics.summarize_calls": calls("asymptotics.summarize"),
        "rwa.solve_amplitude_s": s("rwa.solve_amplitude"),
        "rwa.extract_coefficients_s": s("rwa.extract_coefficients"),
        "rwa.traces": calls("rwa.extract_coefficients"),
        "rwa.trace_steps": counts["rwa.trace_steps"],
        "rwa.eigh_s": s("rwa.eigh"),
        "sweep.run_phase_sweep_s": s("sweep.run_phase_sweep"),
        "sweep.phase_boundaries_s": s("sweep.phase_boundaries"),
        "sweep.verify_grid_s": s("sweep.verify_grid"),
        "sweep.stationary_evals": calls("sweep.stationary_point"),
        "sweep.cache_hit_ratio": (lookups - _cache_misses(spans)) / lookups if lookups else 0.0,
        "sweep.boundary_points": counts["sweep.boundary_points"],
        "sweep.simulated_points": calls("sweep.simulate_point"),
        "cli.main_s": s("cli.main"),
        "cli.write_csv_s": s("cli.write_csv"),
        "cli.bytes_written": counts["cli.bytes_written"],
        "trace.spans": len(spans),
    }
