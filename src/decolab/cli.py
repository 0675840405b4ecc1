"""Command-line front end: run scenarios, fit records, compare reports.

Everything here is a thin shell over :mod:`decolab.scenarios` and
:mod:`decolab.fits`; library users can call those directly.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import scenarios
from .continuum import discretized_unitary_oracle, gaussian_scenario
from .fits import fit_decoherence_time, fit_relaxation_time, ordering_report
from .master_eq import dissipative_toy
from .open_system import SpinBathParams, spin_bath_coherence
from .timeseries import TimeSeries


def _tol_pair(text):
    # the value stays text: the config schema parses and checks it
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    return key.strip(), raw


@functools.cache
def build_parser():
    # built once, on first use; each subcommand takes only the flags it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the scenario seed")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol-override", metavar="KEY=VALUE", type=_tol_pair,
                     action="append", default=[],
                     help="override a tolerance (repeatable), e.g. "
                          "weak_limit_epsilon=1e-4")
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="coarse-graining laboratory: run decoherence scenarios, "
                    "fit characteristic times, compare reports")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[seed, tol],
                        help="run a scenario config; write CSV record and "
                             "JSON summary")
    run.add_argument("--config", required=True, help="scenario config file")
    run.add_argument("--out", required=True, help="output directory")

    fit = sub.add_parser("fit", parents=[tol],
                         help="fit characteristic times from a CSV record")
    fit.add_argument("--series", required=True, help="CSV written by 'run'")
    fit.add_argument("--channel", default=None,
                     help="decay channel to fit (default: offdiag_modulus "
                          "or offdiag_contrib, whichever exists)")

    cmp_ = sub.add_parser("compare",
                          help="tabulate t_D vs t_R across summary JSONs")
    cmp_.add_argument("--reports", required=True,
                      help="directory of summary JSON files")
    cmp_.add_argument("--out", default=None,
                      help="path for the comparison JSON "
                           "(default: <reports>/comparison.json)")

    orc = sub.add_parser("oracle", parents=[seed],
                         help="print the brute-force reference record for a "
                              "stock scenario")
    orc.add_argument("--scenario", required=True, choices=scenarios.KINDS)
    return parser


def _cmd_run(args):
    config = scenarios.parse_config(args.config, seed=args.seed,
                                    tol_overrides=dict(args.tol_override))
    result = scenarios.run_scenario(config, args.out)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.json_path}")
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def _cmd_fit(args):
    overrides = dict(args.tol_override)
    floor = scenarios.parse_tolerances(overrides)["fit_floor_log"]
    unread = sorted(overrides.keys() - {"fit_floor_log"})
    if unread:
        raise scenarios.ConfigError(
            f"[tolerances] key '{unread[0]}': fit reads only fit_floor_log")
    series = TimeSeries.from_csv(args.series)
    if args.channel is not None:
        channel = args.channel
    else:
        for candidate in ("offdiag_modulus", "offdiag_contrib"):
            if candidate in series.channels:
                channel = candidate
                break
        else:
            print("error: no decay channel found; pass --channel "
                  f"(available: {', '.join(series.channels)})",
                  file=sys.stderr)
            return 2
    try:
        values = series.channel(channel)
    except KeyError as exc:
        # str() on a KeyError wraps the message in repr quotes
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    out = {
        "series": args.series,
        "channel": channel,
        "t_D": fit_decoherence_time(series.times, values, floor).as_dict(),
    }
    if "diag_distance" in series.channels:
        out["t_R"] = fit_relaxation_time(series.times,
                                         series.channel("diag_distance"),
                                         floor).as_dict()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args):
    reports = Path(args.reports)
    out_path = Path(args.out) if args.out else reports / "comparison.json"
    summaries = []
    for path in sorted(reports.glob("*.json")):
        if path.resolve() == out_path.resolve():
            continue
        with open(path) as fh:
            try:
                summary = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not JSON ({exc})") from exc
        if not isinstance(summary, dict) or {"t_D", "t_R"} - summary.keys():
            raise ValueError(f"{path}: not a summary with t_D and t_R")
        summaries.append(summary)
    report = ordering_report(summaries)
    print(report.text())
    with open(out_path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if report.ordering_satisfied else 1


def _cmd_oracle(args):
    # fixed reference configurations, small enough to check by eye
    seed = 0 if args.seed is None else args.seed
    if args.scenario == "eid-spin-bath":
        rng = np.random.default_rng(seed)
        n = 8
        params = SpinBathParams(couplings=rng.uniform(0.5, 1.5, n),
                                angles=np.full(n, math.pi / 2))
        times = np.linspace(0.0, 8.0, 81)
        channels = {"coherence_modulus":
                    np.abs(spin_bath_coherence(params, times))}
    elif args.scenario == "sid-kernel":
        state, obs = gaussian_scenario()
        times = np.linspace(0.0, 8.0, 81)
        channels = {"expectation": [discretized_unitary_oracle(state, obs, t)
                                    for t in times]}
    else:
        # closed form for the toy: every coherence decays at the same
        # rate, the population gap closes at the relaxation rate
        toy = dissipative_toy()
        times = np.linspace(0.0, 30.0, 121)
        p0 = np.real(np.diag(toy.rho0))
        p_star = np.asarray(toy.equilibrium, dtype=float)
        off0 = toy.rho0 - np.diag(np.diag(toy.rho0))
        channels = {
            "offdiag_modulus": float(np.linalg.norm(off0))
            * np.exp(-toy.gamma_decohere * times),
            "diag_distance": float(np.linalg.norm(p0 - p_star))
            * np.exp(-toy.gamma_relax * times),
        }
    TimeSeries(times=times, channels=channels).write_csv(sys.stdout)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (scenarios.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
