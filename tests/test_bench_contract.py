"""Names the benchmark's tracer and driver reach into the program by.

``bench/spans.py`` replaces each name in ``PATCHES`` in the namespace its
caller looks it up in, and ``bench/child.py`` calls
``RunConfig.resolve_workers``; a renamed one breaks only a traced benchmark
run, so this checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

from entbath.config import RunConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in spans.PATCHES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert spans.PATCHES and missing == []


def test_worker_resolution_is_a_config_method():
    assert callable(RunConfig.resolve_workers)
