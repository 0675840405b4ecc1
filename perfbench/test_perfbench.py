"""The benchmark's own tests: tiny passes of each workload, the oracle gate
on a perturbed record, the traced pass's bookkeeping, and the refusal to
run without decolab's sources.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import importlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _tiny_pass(name, tmp_path):
    workload = workloads.build(name, 7, tmp_path / "inputs", tiny=True)
    out = tmp_path / "out"
    results, _ = workloads.execute(workload.ops, out)
    return workload, out, results


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_meets_every_gate_and_repeats_bytes(name, tmp_path):
    workload, out, results = _tiny_pass(name, tmp_path)
    digests, failed = workloads.judge(workload.ops, results, out, check=True)
    assert failed == {}
    assert set(digests) == {op.name for op in workload.ops}

    again, _ = workloads.execute(workload.ops, tmp_path / "again")
    _, failed = workloads.judge(workload.ops, again, tmp_path / "again",
                                reference=digests)
    assert failed == {}


def _perturb(path, column):
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index(column)
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        cells[k] = repr(float(cells[k]) * (1 + 1e-6))
        rows.append(",".join(cells))
    path.write_text("\n".join(lines[:1] + rows) + "\n")


@pytest.mark.parametrize("op, column", [
    ("eid-random", "rho01_re"),
    ("sid-gaussian", "expectation"),
])
def test_gate_fails_a_record_perturbed_by_one_part_per_million(
        op, column, tmp_path):
    workload, out, results = _tiny_pass("large-runs", tmp_path)
    reference, _ = workloads.judge(workload.ops, results, out)
    _perturb(out / f"{op}.csv", column)

    _, failed = workloads.judge(workload.ops, results, out, check=True)
    assert list(failed) == [op]
    assert "oracle gate" in failed[op]
    _, failed = workloads.judge(workload.ops, results, out, reference=reference)
    assert failed == {op: "bytes differ from the first run"}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_self_times_add_up_to_the_traced_wall(name, tmp_path):
    workload = workloads.build(name, 7, tmp_path / "inputs", tiny=True)
    spans = tracer.Tracer()
    originals = [vars(m).get(a) for m, a in _owners()]
    with tracer.instrument(spans):
        start = time.perf_counter()
        results, _ = workloads.execute(workload.ops, tmp_path / "out")
        wall = time.perf_counter() - start
    assert [vars(m).get(a) for m, a in _owners()] == originals
    assert spans.unbound == []
    _, failed = workloads.judge(workload.ops, results, tmp_path / "out")
    assert failed == {}

    layers = tracer.layer_metrics(spans, wall, wall)
    spanned = sum(v for k, v in layers.items()
                  if k.endswith((".s", ".self_s")))
    assert spanned + layers["unspanned_s"] == pytest.approx(wall, abs=1e-9)
    assert layers["cli.main.self_s"] > 0
    assert layers["fits.calls"] > 0


def _owners():
    for module, cls, attr, _, _ in tracer.BINDINGS:
        owner = importlib.import_module(module)
        yield (getattr(owner, cls) if cls else owner), attr


def test_refuses_to_run_without_decolab_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "master-eq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
