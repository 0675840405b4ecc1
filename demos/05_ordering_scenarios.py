"""The scenario harness end to end: configs, records, fits, ordering.

Three scenario kinds run from plain-text configs: the spin-bath route
(trace out an environment), the continuum route (closed system, kernel
observables), and a dissipative fixture with known rates.  Each produces
a CSV record and a JSON summary; the ordering report lines them up and
checks that coherences die before populations equilibrate wherever both
scales exist.
"""

import json
import tempfile
from pathlib import Path

from decolab.fits import ordering_report
from decolab.scenarios import parse_config, run_scenario

CONFIGS = {
    "bath.ini": """
[scenario]
kind = eid-spin-bath
name = bath10
seed = 7
t_max = 8.0
samples = 160

[eid-spin-bath]
n_spins = 10
""",
    "kernel.ini": """
[scenario]
kind = sid-kernel
name = kernel
t_max = 12.0
samples = 120

[sid-kernel]
n = 300
""",
    "toy.ini": """
[scenario]
kind = master-eq-toy
name = toy
t_max = 40.0
samples = 200

[master-eq-toy]
gamma_decohere = 1.0
gamma_relax = 0.2
""",
}

# records go to a temporary directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="decolab-demo-") as tmp:
    workdir = Path(tmp)
    summaries = []
    for filename, text in CONFIGS.items():
        path = workdir / filename
        path.write_text(text)
        config = parse_config(path)
        result = run_scenario(config, workdir / "reports")
        s = result.summary
        summaries.append(s)
        t_d = "n/a" if s["t_D"] is None else f"{s['t_D']:.4f}"
        t_r = "n/a" if s["t_R"] is None else f"{s['t_R']:.4f}"
        print(f"{s['scenario']:<10} ({s['kind']}):")
        print(f"   t_D = {t_d}, t_R = {t_r}, "
              f"weak limit reached at t* = {s['weak_limit_t_star']}")
        if s["flags"]:
            for flag in s["flags"]:
                print(f"   flag: {flag}")
        print(f"   record: {result.csv_path.name}, {result.json_path.name}")
        print()

    # -----------------------------------------------------------------------
    # the cross-formalism table
    # -----------------------------------------------------------------------
    report = ordering_report(summaries)
    print(report.text())

    comparison = workdir / "reports" / "comparison.json"
    comparison.write_text(json.dumps(report.as_dict(), indent=2,
                                     sort_keys=True))
    print(f"\nwrote {comparison.relative_to(workdir)}")

print("\nsame thing from the command line, with toy.ini holding the config "
      "above:")
print("   decolab run --config toy.ini --out reports/")
print("   decolab fit --series reports/toy.csv")
print("   decolab compare --reports reports/")
