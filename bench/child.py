"""Fresh-interpreter side of the benchmark; ``run.py`` starts it.

    child.py setup ROOT CONFIG      time `import entbath.cli` + load_config, print JSON
    child.py passes PLAN RESULT     run timed passes over a workload, write JSON

A pass calls ``entbath.cli.main`` once per invocation, each into a fresh
output directory, so the sweep cache is always cold.  Passes repeat until the
next one would overrun the plan's seconds (at least one; with tracing, at
least one plain and one traced pass, alternating).  Between invocations the
setup samples (fresh ``child.py setup`` interpreters) are taken, spread evenly
over those seconds, so that the passes and the samples both span the whole
run, and both average over the same drifts in host speed.  Peak RSS is
read after the first pass, so it is that of a fresh process that ran the
workload once.
"""

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

MAX_PASSES = 64


def setup(root: str, config: str) -> None:
    sys.path.insert(0, str(Path(root) / "src"))
    start = time.perf_counter()
    import entbath.cli

    entbath.cli.load_config(config)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _setup_sample(root: str, config: str) -> float:
    proc = subprocess.run([sys.executable, __file__, "setup", root, config],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup sample exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run_pass(cli, plan: dict, index: int, recorder, between) -> dict:
    import workloads

    calls, wall = [], 0.0
    work = Path(plan["work"]) / f"pass{index}"
    for inv in plan["invocations"]:
        between()
        out_dir = work / inv["name"]
        argv = workloads.argv(inv["command"], inv["config"], out_dir)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception as exc:  # a raw exception escaping main is a failed invocation
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        calls.append({"name": inv["name"], "out": str(out_dir), "exit": code})
    return {"traced": recorder is not None, "wall_s": wall, "calls": calls}


def passes(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path[:0] = [str(Path(plan["root"]) / "src"), str(Path(__file__).resolve().parent)]
    import entbath.cli as cli
    from entbath.config import load_config

    import spans

    modes = (False, True) if plan["trace"] else (False,)
    done, peak_rss_mb, setup_s = [], None, []
    start = time.perf_counter()

    def take_setup_samples(due=None):
        """Catch up with an even spread of the setup samples over the seconds."""
        repeats = plan["setup_repeats"]
        if due is None:
            due = 1 + int(repeats * (time.perf_counter() - start) / plan["seconds"])
        while len(setup_s) < min(due, repeats):
            setup_s.append(_setup_sample(plan["root"], plan["invocations"][0]["config"]))

    while len(done) < MAX_PASSES:
        recorder = spans.Recorder().install() if modes[len(done) % len(modes)] else None
        try:
            result = _run_pass(cli, plan, len(done), recorder, take_setup_samples)
        finally:
            if recorder is not None:
                recorder.uninstall()
        if recorder is not None:
            result["layers"] = spans.layer_metrics(recorder.spans, recorder.counts)
            recorder.dump(Path(plan["spans"]))
        done.append(result)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if len(done) >= len(modes) and elapsed * (len(done) + 1) / len(done) > plan["seconds"]:
            break
    take_setup_samples(due=plan["setup_repeats"])
    workers = sorted({load_config(inv["config"]).resolve_workers(None)
                      for inv in plan["invocations"]})
    Path(result_path).write_text(json.dumps(
        {"passes": done, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s, "workers": workers}
    ))


if __name__ == "__main__":
    {"setup": setup, "passes": passes}[sys.argv[1]](*sys.argv[2:])
