"""decolab benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload large-runs --seed 1 --seconds 24 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``.  A run
builds the workload's inputs from the seed and repeats untraced passes of
the workload until they add up to ``--seconds``.  ``wall_s`` and
``cpu_s`` sum each operation's fastest repeat; ``setup_s`` is the median
time of ``import decolab.cli`` plus ``parse_config`` in fresh
interpreters, run between the passes.  The first pass is checked against
the oracles; every later pass, and one pass made in a child with
``OPENBLAS_NUM_THREADS=1``, must write the same bytes.  With
``--trace 1`` one more pass runs with spans around decolab's public calls
and the per-layer metrics are reported instead; its spans are written to
``perfbench/.work/spans-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without decolab's
sources under ``src/`` the benchmark exits with code 2 and prints no result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# set-up is short and noisy: the median of several fresh interpreters
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import decolab.cli
for path in sys.argv[1:]:
    decolab.scenarios.parse_config(path)
print(repr(time.perf_counter() - t0))
"""


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, where, attempted, failed):
        self.attempted += attempted
        self.failures += [f"{where}: {op}: {why}" for op, why in failed.items()]


def _child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _environment(workload, seed):
    import numpy
    import scipy

    import decolab

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "decolab": decolab.__version__,
        "blas": deps.get("blas"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset (OpenBLAS default)"),
        "git_commit": _git_commit(),
    }


def measure_setup(configs, setups, tally):
    """Time ``import decolab.cli`` plus ``parse_config`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *map(str, configs)],
        env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    ok = proc.returncode == 0
    setups.append(float(proc.stdout.split()[-1]) if ok else None)
    tally.add("setup", 1, {} if ok else {"interpreter": proc.stderr.strip()})


def timed_pass(workloads, ops, out):
    gc.collect()
    start = time.perf_counter()
    results, times = workloads.execute(ops, out)
    return time.perf_counter() - start, results, times


def single_thread_pass(workload, seed, work, reference, tally):
    """One pass in a child with one OpenBLAS thread; the files it writes
    must match.  Results kept in memory may differ in the last ulp, since
    BLAS reductions depend on the thread count."""
    ops = [op.name for op in workload.ops if op.outputs]
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload.name,
             str(seed), str(work)],
            env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
        report = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        tally.add("one-thread pass", len(ops),
                  {op: f"child failed: {exc}" for op in ops})
        return
    failed = report["failed"]
    for op in ops:
        if op not in failed and report["digests"].get(op) != reference.get(op):
            failed[op] = "bytes differ under OPENBLAS_NUM_THREADS=1"
    tally.add("one-thread pass", len(ops), failed)


def run(args):
    """Measure one workload; returns (metric values, Tally)."""
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work):
    import tracer
    import workloads

    tally = Tally()
    workload = workloads.build(args.workload, args.seed, work / "inputs")
    # lazy imports and first-call caches fill on a small copy, untimed
    warmup = workloads.build(args.workload, args.seed, work / "warmup", tiny=True)
    workloads.execute(warmup.ops, work / "warmup" / "out")

    walls, op_times, setups, reference = [], {}, [], None
    single_thread_done = False
    while not walls or sum(walls) < args.seconds:
        out = work / f"pass{len(walls)}"
        wall, results, times = timed_pass(workloads, workload.ops, out)
        digests, failed = workloads.judge(workload.ops, results, out,
                                          reference=reference,
                                          check=reference is None)
        reference = reference or digests
        tally.add(f"pass {len(walls)}", len(workload.ops), failed)
        walls.append(wall)
        for name, pair in times.items():
            op_times.setdefault(name, []).append(pair)
        shutil.rmtree(out)
        # set-up interpreters and the one-thread pass run between timed
        # passes, so that the passes sample host load over the whole run
        if len(setups) < SETUP_REPEATS:
            measure_setup(workload.configs, setups, tally)
        if not single_thread_done and sum(walls) >= args.seconds / 2:
            single_thread_pass(workload, args.seed, work / "one-thread",
                               reference, tally)
            single_thread_done = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        measure_setup(workload.configs, setups, tally)
    setups = [t for t in setups if t is not None]
    if not setups:
        raise RuntimeError("set-up failed in every fresh interpreter: "
                           + "; ".join(tally.failures))

    # On a shared 2-vCPU host, co-tenant load stretched whole passes by up
    # to 60% for tens of seconds, which medians of a few long passes
    # follow.  Load only ever adds time, so the fastest repeat of each op
    # is the steady estimate of its cost.
    values = {
        "wall_s": sum(min(w for w, _ in pairs) for pairs in op_times.values()),
        "cpu_s": sum(min(c for _, c in pairs) for pairs in op_times.values()),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        "passes": walls,
    }
    if args.trace:
        spans = tracer.Tracer()
        out = work / "traced"
        with tracer.instrument(spans):
            traced_wall, results, _ = timed_pass(workloads, workload.ops, out)
        _, failed = workloads.judge(workload.ops, results, out,
                                    reference=reference)
        tally.add("traced pass", len(workload.ops), failed)
        values.update(tracer.layer_metrics(spans, traced_wall,
                                           values["wall_s"]))
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-{args.workload}-s{args.seed}.json").write_text(
            json.dumps({"unbound": spans.unbound,
                        "spans": tracer.dump(spans)}) + "\n")
    return values, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decolab" / "__init__.py").is_file():
        print(f"error: decolab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import tracer

    environment = _environment(args.workload, args.seed)
    values, tally = run(args)

    shown = declared["end_to_end"] + (declared["per_layer"] if args.trace else [])
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"pass wall times = {values['passes']!r} s")
    print(f"failed_ratio = {failed / tally.attempted!r} "
          f"({failed} of {tally.attempted} ops)")
    for m in shown:
        computed = " (computed)" if m["name"] in tracer.COUNT_METRICS else ""
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}{computed}")
    group = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
