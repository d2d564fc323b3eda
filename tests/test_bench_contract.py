"""Names the benchmark's tracer and driver reach into the program by.

``bench/spans.py`` replaces each name in ``PATCHES`` in the namespace its
caller looks it up in, and ``bench/child.py`` calls
``RunConfig.resolve_workers``; a renamed one breaks only a traced benchmark
run, and one that is no longer called makes its per-layer metrics read 0, so
this checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from entbath import cli
from entbath.config import RunConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
CONFIG = """
[model]
omega_r = 1.0
[bath]
gamma0 = 0.1
cutoff = 20.0
temperature = 8.0
modes = 300
[initial]
kind = two-mode-squeezed
r = 2.0
[grid]
t_max = 5.0
[sweep]
temperatures = 0.5, 8.0
"""


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert spans.PATCHES and missing == []


@pytest.mark.parametrize("command, layers", [
    ("verify", ("sweep.simulated_points", "bathsim.evolve_calls", "gaussian.log_negativity_calls")),
    ("evolve", ("bathsim.evolve_calls", "gaussian.log_negativity_calls")),
])
def test_traced_layers_see_the_work(tmp_path, command, layers):
    spans = load_spans()
    (tmp_path / "run.cfg").write_text(CONFIG)
    recorder = spans.Recorder().install()
    try:
        code = cli.main([command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
    finally:
        recorder.uninstall()
    metrics = spans.layer_metrics(recorder.spans, recorder.counts)
    assert code == 0 and all(metrics[name] >= 1 for name in layers), metrics


def test_worker_resolution_is_a_config_method():
    assert callable(RunConfig.resolve_workers)
