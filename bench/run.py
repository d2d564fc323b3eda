"""entbath benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload evolve --seed 0 --seconds 28 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
name every metric with its unit, the failure share and the environment.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh interpreters timed for setup_s, spread over the measured seconds
#: between the invocations of the passes; the median is reported
SETUP_REPEATS = 12
#: every run must end within 180 s; leave room for setup and checking
CHILD_TIMEOUT_S = 160.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "sweep.cache_hit_ratio":
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTBATH_WORKERS", None)  # program default: one worker
    return env


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workers) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": workers,
        "git_commit": _git_commit(),
    }


def _run_child(args: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True, text=True, timeout=timeout, env=_child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args[0]} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entbath" / "cli.py").is_file():
        print(f"error: no entbath sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH)]
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        invocations = workloads.generate(args.workload, args.seed, work / "configs")
        plan = {
            "root": str(ROOT),
            "work": str(work),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "setup_repeats": 0 if args.trace else SETUP_REPEATS,
            "spans": str(OUT / "trace" / f"{args.workload}-seed{args.seed}.json"),
            "invocations": [asdict(inv) for inv in invocations],
        }
        if args.trace:
            (OUT / "trace").mkdir(parents=True, exist_ok=True)
        (work / "plan.json").write_text(json.dumps(plan))
        _run_child(["passes", str(work / "plan.json"), str(work / "result.json")], CHILD_TIMEOUT_S)
        result = json.loads((work / "result.json").read_text())
        setup_times = result["setup_s"]

        attempted = failed = 0
        problems = []
        by_name = {inv["name"]: inv for inv in plan["invocations"]}
        for index, done in enumerate(result["passes"]):
            for call in done["calls"]:
                attempted += 1
                found = check.check_invocation(by_name[call["name"]], Path(call["out"]),
                                               call["exit"], args.seed)
                if found:
                    failed += 1
                    problems.extend(f"pass {index} {call['name']}: {p}" for p in found[:5])

        plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
        if args.trace:
            metrics, count_problems = _layer_metrics(result["passes"], plain)
            problems.extend(count_problems)
        else:
            metrics = {
                "wall_s": statistics.median(plain),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": result["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(result["workers"])
    fail_frac = failed / attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "passes": len(result["passes"]),
        "pass_wall_s": [p["wall_s"] for p in result["passes"]], "setup_samples_s": setup_times,
        "fail_frac": fail_frac, "problems": problems, "metrics": metrics,
        "run_s": time.perf_counter() - started,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"check: {problem}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} passes={len(result['passes'])}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {_units(name)}")
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} share ({failed} of {attempted} invocations)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _units(k)} for k, v in metrics.items()},
    }))
    return 0


def _layer_metrics(passes: list[dict], plain: list[float]) -> tuple[dict, list[str]]:
    """Median times over the traced passes; counts must repeat exactly between them."""
    traced = [p["layers"] for p in passes if p["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        if _units(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
