"""Command-line front end: run scenarios, fit records, compare reports,
print a config's oracle record.

Everything here is a thin shell over :mod:`decolab.scenarios` and
:mod:`decolab.fits`; library users can call those directly.  ``run`` and
``oracle`` read the same config and reach its system through the same
builder, so an oracle record states the system its run evolves.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import scenarios
from .fits import (_summary_times, fit_decoherence_time, fit_relaxation_time,
                   ordering_report)
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
    decays = dict.fromkeys(k.decay for k in scenarios._KINDS.values())
    fit.add_argument("--channel", default=None,
                     help="decay channel to fit (default: "
                          f"{' or '.join(decays)}, whichever exists)")

    cmp_ = sub.add_parser("compare",
                          help="tabulate t_D vs t_R across summary JSONs")
    cmp_.add_argument("--reports", required=True,
                      help="directory of summary JSON files")
    cmp_.add_argument("--out", default=None,
                      help="path for the comparison JSON "
                           "(default: <reports>/comparison.json)")

    orc = sub.add_parser("oracle", parents=[seed],
                         help="print the closed-form or brute-force "
                              "reference record of a scenario config")
    orc.add_argument("--config", required=True, help="scenario config file")
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
    # the decay and relax channels that runs write, in kind order
    kinds = scenarios._KINDS.values()
    decays = [k.decay for k in kinds if k.decay in series.channels]
    relaxes = [k.relax for k in kinds if k.relax in series.channels]
    if args.channel is None and not decays:
        print("error: no decay channel found; pass --channel "
              f"(available: {', '.join(series.channels)})", file=sys.stderr)
        return 2
    channel = decays[0] if args.channel is None else args.channel
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
    if relaxes:
        out["t_R"] = fit_relaxation_time(
            series.times, series.channels[relaxes[0]], floor).as_dict()
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
        _summary_times(summary, path)
        summaries.append(summary)
    report = ordering_report(summaries)
    print(report.text())
    with open(out_path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if report.ordering_satisfied else 1


def _cmd_oracle(args):
    config = scenarios.parse_config(args.config, seed=args.seed)
    scenarios.oracle_series(config).write_csv(sys.stdout)
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
