"""Seeded workloads for the decolab benchmark: inputs, operations, oracle gates.

A workload is built from one seed into a work directory.  Every config,
table CSV and random system comes from that seed, so decolab sees only
generated inputs, and problem sizes are fixed per workload so that a
seed changes values, never the amount of work.  Operations drive decolab
from outside: through ``decolab.cli.main``, or through public functions
looked up on their module at call time, which lets the traced pass wrap
them.  Each operation has an oracle gate with the tolerances of
``tests/test_acceptance.py``; the gates never loosen them.

Run as a script, this module makes one pass of a workload's file-writing
operations and prints their digests as JSON; the benchmark uses that to
compare the bytes written under a different BLAS thread count.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from decolab import cli, continuum, liouville, master_eq, open_system

NAMES = ("large-runs", "master-eq", "harness-sweep")

NOT_APPLICABLE = "not applicable (no dissipation)"
# test_04 checks the gaussian envelope for t <= 4
ENVELOPE_HORIZON = 4.0
KERNEL_WINDOW = 4.5


class GateError(Exception):
    """An output missed its oracle tolerance."""


@dataclass(frozen=True)
class Op:
    """One call into decolab plus the gate its outputs must pass.

    ``run(out_dir)`` returns a dict; an ``exit`` entry is the CLI exit
    code.  The op's digest covers the bytes of its ``outputs`` files or,
    for an op that writes none, its ndarray and JSON-able results.
    """

    name: str
    run: Callable
    outputs: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    ops: tuple


def _gate(what, error, tol):
    if not error <= tol:
        raise GateError(f"{what}: {error:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# running and judging a pass
# ---------------------------------------------------------------------------

def execute(ops, out_dir):
    """Run every op once into ``out_dir``.

    Returns ``{name: result, or the exception it raised}`` and
    ``{name: (wall seconds, CPU seconds of the whole process)}``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    results, times = {}, {}
    for op in ops:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            results[op.name] = op.run(out_dir)
        except Exception as exc:  # an op that raises counts as failed
            results[op.name] = exc
        times[op.name] = (time.perf_counter() - wall, time.process_time() - cpu)
    return results, times


def _digest(op, result, out_dir):
    """SHA-256 over the files an op writes or, if it writes none, its results."""
    h = hashlib.sha256()
    if op.outputs:
        for rel in op.outputs:
            h.update(rel.encode() + b"\0" + (out_dir / rel).read_bytes())
    else:
        for key in sorted(result.keys() - {"exit", "stdout", "stderr"}):
            value = result[key]
            payload = value.tobytes() if isinstance(value, np.ndarray) \
                else json.dumps(value, sort_keys=True).encode()
            h.update(key.encode() + b"\0" + payload)
    return h.hexdigest()


def judge(ops, results, out_dir, reference=None, check=False):
    """Digest each op and list the failed ones as {name: reason}.

    An op fails if it raised, exited nonzero, lost an output file, wrote
    bytes other than ``reference`` holds for it, or (with ``check``)
    missed its oracle gate.
    """
    digests, failed = {}, {}
    for op in ops:
        result = results[op.name]
        if isinstance(result, Exception):
            failed[op.name] = f"raised {type(result).__name__}: {result}"
            continue
        if result.get("exit", 0) != 0:
            failed[op.name] = (f"exited {result['exit']}: "
                               f"{result.get('stderr', '').strip()}")
            continue
        try:
            digests[op.name] = _digest(op, result, out_dir)
        except OSError as exc:
            failed[op.name] = f"output missing: {exc}"
            continue
        if reference is not None and digests[op.name] != reference.get(op.name):
            failed[op.name] = "bytes differ from the first run"
        elif check:
            try:
                op.check(result, out_dir)
            except Exception as exc:  # a gate that cannot run is a miss too
                failed[op.name] = f"oracle gate: {type(exc).__name__}: {exc}"
    return digests, failed


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _write_config(path, scenario, kind, params):
    # repr keeps every float exact, so the gates see the values decolab parses
    lines = []
    for section, values in (("scenario", {"kind": kind, **scenario}),
                            (kind, params)):
        lines.append(f"[{section}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_record(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(names)}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_op(name, config, check):
    def run(out_dir):
        return _cli(["run", "--config", str(config), "--out", str(out_dir)])
    return Op(name, run, (f"{name}.csv", f"{name}.json"), check)


# ---------------------------------------------------------------------------
# sid-kernel scenarios and their gate
# ---------------------------------------------------------------------------

def _sid_params(rng, family, n):
    return {
        "family": family,
        "n": n,
        "omega_max": 10.0,
        "center": float(rng.uniform(4.8, 5.2)),
        "width": float(rng.uniform(1.05, 1.3)),
        "cross_width": float(rng.uniform(0.45, 0.55)),
        "amplitude": float(rng.uniform(0.2, 0.3)),
    }


def _table_kernel(omega, center, width, cross_width, tilt):
    """Hermitian regular kernel: gaussian profile times a phase e^{i tilt (w-w')}."""
    mean = 0.5 * np.add.outer(omega, omega)
    diff = np.subtract.outer(omega, omega)
    return np.exp(-((mean - center) ** 2) / (2 * width ** 2)
                  - diff ** 2 / (4 * cross_width ** 2) + 1j * tilt * diff)


def _write_table(path, omega, kernel):
    omega = omega.tolist()
    with open(path, "w") as fh:
        fh.write("# omega,omega',re,im\n")
        for wi, row in zip(omega, kernel.tolist()):
            for wj, k in zip(omega, row):
                fh.write(f"{wi!r},{wj!r},{k.real!r},{k.imag!r}\n")


def _sid_reference(p, kernel):
    """State/observable pair rebuilt from the documented family formulas."""
    grid = continuum.EnergyGrid.uniform(0.0, p["omega_max"], p["n"])
    w = grid.omega
    if p["family"] == "table":
        profile = kernel
    else:
        mean = 0.5 * np.add.outer(w, w)
        diff = np.subtract.outer(w, w)
        com = np.exp(-((mean - p["center"]) ** 2) / (2 * p["width"] ** 2))
        cw = p["cross_width"]
        profile = com * np.exp(-(diff ** 2) / (4 * cw ** 2)) \
            if p["family"] == "gaussian" else com / (1.0 + (diff / cw) ** 2)
    rho_diag = np.exp(-((w - p["center"]) ** 2) / (2 * p["width"] ** 2))
    rho_diag = rho_diag / float(np.sum(grid.weights * rho_diag))
    state = continuum.VanHoveState(grid, rho_diag, p["amplitude"] * profile)
    obs_diag = np.exp(-((w - p["center"]) ** 2) / (2 * 1.5 ** 2))
    return state, continuum.VanHoveObservable(grid, obs_diag, profile)


def _sid_check(name, p, kernel, envelope):
    def check(result, out_dir):
        rec = _read_record(out_dir / f"{name}.csv")
        summary = _read_json(out_dir / f"{name}.json")
        state, obs = _sid_reference(p, kernel)
        times = rec["t"]
        worst = max(abs(rec["expectation"][k]
                        - continuum.discretized_unitary_oracle(state, obs,
                                                               times[k]))
                    for k in (times.size // 5, times.size // 2, times.size - 1))
        _gate("record vs discretized_unitary_oracle", worst, 1e-8)
        if envelope:
            off = rec["offdiag_contrib"]
            mask = (times > 0) & (times <= ENVELOPE_HORIZON)
            want = np.exp(-0.5 * (p["cross_width"] * times[mask]) ** 2)
            rel = np.abs(off[mask] / off[0] - want) / want
            _gate("gaussian envelope relative error", float(rel.max()), 1e-4)
        energy = rec["energy"]
        _gate("energy channel spread", float(energy.max() - energy.min()),
              1e-12)
        if summary["t_R"] is not None or \
                not any(NOT_APPLICABLE in f for f in summary["flags"]):
            raise GateError(f"t_R is {summary['t_R']!r} without the "
                            f"'{NOT_APPLICABLE}' flag")
    return check


def _sid_op(work, rng, name, family, n, samples, envelope):
    p = _sid_params(rng, family, n)
    kernel = None
    params = dict(p)
    if family == "table":
        omega = np.linspace(0.0, p["omega_max"], n)
        kernel = _table_kernel(omega, p["center"], p["width"],
                               float(rng.uniform(0.4, 0.6)),
                               float(rng.uniform(-0.5, 0.5)))
        table = work / f"{name}.kernel.csv"
        _write_table(table, omega, kernel)
        params["kernel_csv"] = table
    config = _write_config(work / f"{name}.ini",
                           {"name": name, "t_max": 12.0, "samples": samples},
                           "sid-kernel", params)
    return config, _run_op(name, config, _sid_check(name, p, kernel, envelope))


# ---------------------------------------------------------------------------
# eid-spin-bath scenarios and their gate
# ---------------------------------------------------------------------------

def _eid_check(name, cfg_seed, p):
    def check(result, out_dir):
        rec = _read_record(out_dir / f"{name}.csv")
        # the config seed drives the couplings, then the random angles
        rng = np.random.default_rng(cfg_seed)
        n = p["n_spins"]
        couplings = rng.uniform(p["coupling_min"], p["coupling_max"], n)
        angles = rng.uniform(0.0, math.pi, n) if p["bath_angle"] == "random" \
            else np.full(n, math.pi / 2)
        params = open_system.SpinBathParams(
            couplings=couplings, angles=angles, amplitude_0=p["amp0"],
            amplitude_1=math.sqrt(1.0 - p["amp0"] ** 2))
        coherence = open_system.spin_bath_coherence(params, rec["t"])
        rho01 = rec["rho01_re"] + 1j * rec["rho01_im"]
        _gate("|rho01 - spin_bath_coherence|",
              float(np.max(np.abs(rho01 - coherence))), 1e-10)
        drift = max(float(np.max(np.abs(rec[c] - rec[c][0])))
                    for c in ("rho00_re", "rho00_im", "rho11_re", "rho11_im"))
        _gate("population drift", drift, 1e-12)
    return check


def _eid_op(work, rng, name, n_spins, samples, angle):
    cfg_seed = int(rng.integers(2 ** 31))
    p = {
        "n_spins": n_spins,
        "coupling_min": float(rng.uniform(0.4, 0.6)),
        "coupling_max": float(rng.uniform(1.3, 1.6)),
        "bath_angle": angle,
        "amp0": float(rng.uniform(0.5, 0.85)),
    }
    config = _write_config(work / f"{name}.ini",
                           {"name": name, "seed": cfg_seed, "t_max": 8.0,
                            "samples": samples},
                           "eid-spin-bath", p)
    return config, _run_op(name, config, _eid_check(name, cfg_seed, p))


# ---------------------------------------------------------------------------
# master-eq-toy scenarios and their gate
# ---------------------------------------------------------------------------

def _toy_check(name, p):
    def check(result, out_dir):
        summary = _read_json(out_dir / f"{name}.json")
        for key, rate in (("t_D", p["gamma_decohere"]),
                          ("t_R", p["gamma_relax"])):
            if summary[key] is None:
                raise GateError(f"{key} missing: {summary['flags']}")
            _gate(f"{key} vs 1/gamma, relative",
                  abs(summary[key] * rate - 1.0), 1e-6)
    return check


def _toy_op(work, rng, name, samples):
    p = {"gamma_decohere": float(rng.uniform(0.8, 1.6)),
         "gamma_relax": float(rng.uniform(0.12, 0.3))}
    config = _write_config(work / f"{name}.ini",
                           {"name": name, "t_max": 40.0, "samples": samples},
                           "master-eq-toy", p)
    return config, _run_op(name, config, _toy_check(name, p))


# ---------------------------------------------------------------------------
# projected master equation on random systems
# ---------------------------------------------------------------------------

def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / float(np.trace(rho).real)


def _random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _random_system(rng, kind, a, b):
    """(rho0, H, projector factory) as drawn by test_06."""
    if kind == "eid":
        rho0 = np.kron(_random_density(rng, a), np.eye(b, dtype=complex) / b)
        return rho0, _random_hermitian(rng, a * b), \
            lambda: open_system.eid_projector(a, b)
    p = rng.uniform(0.1, 1.0, a)
    rho0 = np.diag(p / p.sum()).astype(complex)
    return rho0, _random_hermitian(rng, a), \
        lambda: liouville.diagonal_projector(a)


def _matrices(states):
    return np.array([s.matrix for s in states])


def _routes_op(rng, kind, a, b, times):
    rho0, h, projector = _random_system(rng, kind, a, b)

    def run(out_dir):
        lv = master_eq.build_liouvillian(h)
        pi = projector()
        exact = master_eq.evolve_master_exact(rho0, pi, lv, times)
        memory = master_eq.evolve_nakajima_zwanzig(rho0, pi, lv, times)
        unitary = open_system.evolve_unitary(rho0, h, times)
        direct = [liouville.coarse_grain(u, pi) for u in unitary]
        return {"exact": _matrices(exact), "memory": _matrices(memory),
                "direct": _matrices(direct)}

    def check(result, out_dir):
        _gate("exact vs unitary-then-project",
              float(np.max(np.abs(result["exact"] - result["direct"]))), 1e-8)
        _gate("exact-memory Nakajima-Zwanzig vs exact",
              float(np.max(np.abs(result["memory"] - result["exact"]))), 1e-6)

    name = f"routes-{kind}-{a}x{b}" if kind == "eid" else f"routes-diag-{a}"
    return Op(name, run, (), check)


def _windowed_op(rng, d, times):
    rho0, h, projector = _random_system(rng, "diag", d, None)

    def run(out_dir):
        lv = master_eq.build_liouvillian(h)
        pi = projector()
        memory = master_eq.evolve_nakajima_zwanzig(rho0, pi, lv, times)
        with warnings.catch_warnings():
            # the truncation warning is the documented behaviour here
            warnings.simplefilter("ignore", RuntimeWarning)
            windowed = master_eq.evolve_nakajima_zwanzig(
                rho0, pi, lv, times, kernel_window=KERNEL_WINDOW)
        return {"memory": _matrices(memory), "windowed": _matrices(windowed)}

    def check(result, out_dir):
        inside = times <= KERNEL_WINDOW
        _gate("windowed vs exact-memory Nakajima-Zwanzig for t <= window",
              float(np.max(np.abs(result["windowed"][inside]
                                  - result["memory"][inside]))), 1e-6)
        traces = np.trace(result["windowed"], axis1=1, axis2=2)
        _gate("windowed trace drift", float(np.max(np.abs(traces - 1.0))),
              1e-10)

    return Op(f"windowed-diag-{d}", run, (), check)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _large_runs(work, rng, tiny):
    """The closed route at n <= 400, the largest size the oracle checks,
    and the open route at the 14-spin cap with 2000-sample records."""
    samples = 24 if tiny else 200
    sizes = [("gaussian", 400), ("lorentzian", 60 if tiny else 400),
             ("table", 40 if tiny else 300)]
    built = [_sid_op(work, rng, f"sid-{family}", family, n, samples,
                     envelope=family == "gaussian")
             for family, n in sizes]
    n_spins, samples = (6, 100) if tiny else (14, 2000)
    built += [_eid_op(work, rng, f"eid-{angle}", n_spins, samples, angle)
              for angle in ("half-pi", "random")]
    return [c for c, _ in built], [op for _, op in built]


def _master_eq(work, rng, tiny):
    times = np.linspace(0.0, 10.0, 21)
    systems = [("eid", 2, 2), ("eid", 2, 3), ("eid", 3, 3),
               ("diag", 4, None), ("diag", 6, None), ("diag", 9, None)]
    ops = [_routes_op(rng, kind, a, b, times) for kind, a, b in systems]
    ops += [_windowed_op(rng, d, times) for d in ((4,) if tiny else (4, 8))]
    config, toy = _toy_op(work, rng, "toy", 200 if tiny else 2000)
    return [config], ops + [toy]


def _harness_sweep(work, rng, tiny):
    count, samples = (3, 60) if tiny else (16, 400)
    configs, runs = [], []
    for k in range(count):
        n_spins = 4 + k % 7
        angle = "half-pi" if k % 2 == 0 else "random"
        family = ("gaussian", "lorentzian", "table")[k % 3]
        n = 24 + (24 * k) // max(count - 1, 1)
        for config, op in (
                _eid_op(work, rng, f"sweep-eid-{k:02d}", n_spins, samples,
                        angle),
                _sid_op(work, rng, f"sweep-sid-{k:02d}", family, n, samples,
                        envelope=False),
                _toy_op(work, rng, f"sweep-toy-{k:02d}", samples)):
            configs.append(config)
            runs.append(op)
    fits = [_fit_op(op.name) for op in runs]
    return configs, runs + fits + [_compare_op(len(runs))]


def _fit_op(name):
    def run(out_dir):
        result = _cli(["fit", "--series", str(out_dir / f"{name}.csv")])
        if result["exit"] == 0:
            fit = json.loads(result["stdout"])
            del fit["series"]  # a path, which differs between passes
            result["fit"] = fit
        return result

    def check(result, out_dir):
        want = _read_json(out_dir / f"{name}.json")["t_D"]
        got = result["fit"]["t_D"]["value"]
        if got != want:
            raise GateError(f"fit t_D {got!r} != run t_D {want!r}")

    return Op(f"fit-{name}", run, (), check)


def _compare_op(rows):
    def run(out_dir):
        return _cli(["compare", "--reports", str(out_dir)])

    def check(result, out_dir):
        got = len(_read_json(out_dir / "comparison.json")["rows"])
        if got != rows:
            raise GateError(f"compare has {got} rows, want {rows}")

    return Op("compare", run, ("comparison.json",), check)


_BUILDERS = {
    "large-runs": _large_runs,
    "master-eq": _master_eq,
    "harness-sweep": _harness_sweep,
}


def build(name, seed, work, tiny=False):
    """Generate a workload's inputs from ``seed`` into ``work``.

    ``tiny`` shrinks every problem so the benchmark's own tests run fast.
    """
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    configs, ops = _BUILDERS[name](work, rng, tiny)
    return Workload(name, tuple(configs), tuple(ops))


def main(argv):
    """``workloads.py NAME SEED WORK_DIR``: one pass of the ops that write
    files; prints their digests and failures as JSON."""
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    ops = [op for op in build(name, seed, work / "inputs").ops if op.outputs]
    out = work / "out"
    results, _ = execute(ops, out)
    digests, failed = judge(ops, results, out)
    print(json.dumps({"digests": digests, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
