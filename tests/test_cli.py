"""The decolab command line: run, fit, compare, oracle."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import decolab
from decolab.cli import main
from decolab.continuum import ORACLE_GRID_CAP

TOY_CONFIG = """
[scenario]
kind = master-eq-toy
name = toy
t_max = 40.0
samples = 120

[master-eq-toy]
"""

SID_CONFIG = """
[scenario]
kind = sid-kernel
name = kernel
t_max = 12.0
samples = 80

[sid-kernel]
n = 150
"""


EID_CONFIG = """
[scenario]
kind = eid-spin-bath
name = bath
t_max = 8.0
samples = 100

[eid-spin-bath]
n_spins = 5
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_writes_record_and_summary(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "toy.csv" in captured and "toy.json" in captured
        assert (out / "toy.csv").exists()
        summary = json.loads((out / "toy.json").read_text())
        assert summary["t_D"] < summary["t_R"]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write(tmp_path, EID_CONFIG, "bath.ini")
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"),
              "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "2"])
        capsys.readouterr()
        a = (tmp_path / "a" / "bath.csv").read_bytes()
        b = (tmp_path / "b" / "bath.csv").read_bytes()
        assert a != b

    def test_tol_override_flows_into_detection(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
              "--tol-override", "weak_limit_epsilon=1e-6"])
        capsys.readouterr()
        sa = json.loads((tmp_path / "a" / "toy.json").read_text())
        sb = json.loads((tmp_path / "b" / "toy.json").read_text())
        assert sa["weak_limit_t_star"] != sb["weak_limit_t_star"]

    def test_config_error_is_reported_not_raised(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG + "bogus_key = 1\n", "bad.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_non_finite_value_is_reported_not_raised(self, tmp_path, capsys):
        eid = TOY_CONFIG.replace("master-eq-toy", "eid-spin-bath")
        cfg = write(tmp_path, eid + "n_spins = 3\ncoupling_max = inf\n",
                    "bad.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "coupling_max" in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [TOY_CONFIG, SID_CONFIG, EID_CONFIG],
                             ids=["toy", "sid", "eid"])
    def test_negative_seed_is_refused_by_name(self, tmp_path, capsys, config):
        cfg = write(tmp_path, config, "c.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "-1"])
        assert code == 2
        assert "[scenario] key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_tolerance_is_reported(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol-override", "weak_limit_epsilon=nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert "weak_limit_epsilon" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_state_underflowing_on_the_grid_is_refused_by_name(
            self, tmp_path, capsys, command):
        # 110 widths above the grid, the state's gaussian is 0 at every
        # grid point: its normalisation was 0/0, a RuntimeWarning, and then
        # a refusal of a NaN diagonal that named no key
        cfg = write(tmp_path, SID_CONFIG.replace(
            "n = 150", "n = 50\ncenter = 60\nwidth = 0.5"), "far.ini")
        args = ["--out", str(tmp_path / "out")] if command == "run" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg] + args)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == (
            "error: state normalisation underflows: center 60.0 and width "
            "0.5 leave no weight on the grid from omega_min 0 to "
            "omega_max 10\n")

    def test_unknown_tolerance_is_reported(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol-override", "nope=3"])
        assert code == 2
        assert "unknown tolerance" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("command,flag", [
        (["compare", "--reports", "r"], ["--seed", "3"]),
        (["compare", "--reports", "r"],
         ["--tol-override", "fit_floor_log=nan"]),
        (["fit", "--series", "s.csv"], ["--seed", "1"]),
        (["oracle", "--config", "c.ini"], ["--tol-override", "nope=1"]),
    ])
    def test_flag_a_subcommand_does_not_read_is_refused(self, command, flag,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # fit reads no tolerance: the e^-1 crossing has no knob.  run refuses
    # each of these by name, fit the flag itself
    @pytest.mark.parametrize("override", [
        "fit_floor_log=nan", "fit_floor_log=inf", "fit_floor_log=0",
        "fit_floor_log=-0.0", "fit_floor_log=3.0", "nope=3"])
    def test_fit_refuses_an_override_as_run_does(self, tmp_path, capsys,
                                                 override):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--tol-override", override])
        run_err = capsys.readouterr().err
        assert code == 2 and run_err == (
            f"error: unknown tolerance '{override.partition('=')[0]}'; "
            "known tolerances: weak_limit_epsilon\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--series", str(out / "toy.csv"),
                  "--tol-override", override])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert f"unrecognized arguments: --tol-override {override}" \
            in captured.err

    def test_fit_refuses_a_tolerance_it_does_not_read(self, tmp_path,
                                                      capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--series", str(out / "toy.csv"),
                  "--tol-override", "weak_limit_epsilon=1e-9"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert "unrecognized arguments: --tol-override " \
            "weak_limit_epsilon=1e-9" in captured.err
        # the parser is shared between calls: the override does not stay
        assert main(["fit", "--series", str(out / "toy.csv")]) == 0

    def test_percent_in_config_value_names_the_key(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG + "[tolerances]\n"
                    "weak_limit_epsilon = 5%\n", "pct.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [tolerances] key 'weak_limit_epsilon': "
            "cannot parse '5%'\n")

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_percent_in_override_names_the_key(self, tmp_path, capsys,
                                               command):
        # run reads the override and names its key; fit takes none
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        args = ["run", "--config", cfg, "--out", str(tmp_path / "out")] \
            if command == "run" else ["fit", "--series", "unread.csv"]
        override = ["--tol-override", "weak_limit_epsilon=5%"]
        if command == "run":
            assert main(args + override) == 2
            assert capsys.readouterr().err == (
                "error: [tolerances] key 'weak_limit_epsilon': "
                "cannot parse '5%'\n")
        else:
            with pytest.raises(SystemExit) as exc:
                main(args + override)
            assert exc.value.code == 2
            assert "--tol-override weak_limit_epsilon=5%" \
                in capsys.readouterr().err

    def test_non_number_override_names_the_key(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--tol-override", "weak_limit_epsilon=abc"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: [tolerances] key 'weak_limit_epsilon': "
            "cannot parse 'abc'\n")


class TestFitCommand:
    def test_fits_a_produced_record(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["fit", "--series", str(out / "toy.csv")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channel"] == "offdiag_modulus"
        assert abs(payload["t_D"]["value"] - 1.0) <= 0.05
        assert abs(payload["t_R"]["value"] - 5.0) <= 0.25

    def test_explicit_channel(self, tmp_path, capsys):
        cfg = write(tmp_path, SID_CONFIG, "sid.ini")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = main(["fit", "--series", str(out / "kernel.csv"),
                     "--channel", "offdiag_contrib"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_D"]["status"] == "ok"

    def test_no_decay_channel_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,steady\n0.0,1.0\n1.0,1.0\n2.0,1.0\n3.0,1.0\n")
        code = main(["fit", "--series", str(path)])
        assert code == 2
        assert "--channel" in capsys.readouterr().err

    def test_header_without_rows_is_refused(self, tmp_path, capsys):
        # refused by name, with no numpy warning on the way
        path = tmp_path / "empty.csv"
        path.write_text("t,offdiag_modulus\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--series", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"

    def test_unknown_channel_is_an_error(self, tmp_path, capsys):
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = main(["fit", "--series", str(out / "toy.csv"),
                     "--channel", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no channel 'bogus'" in err and "offdiag_modulus" in err

    def test_internal_key_error_propagates(self, tmp_path, monkeypatch):
        # only a missing channel is a user error; a KeyError raised inside
        # the program is a bug and must not turn into a clean exit 2
        from decolab import scenarios

        def broken(config, out_dir):
            raise KeyError("internal")

        monkeypatch.setattr(scenarios, "run_scenario", broken)
        cfg = write(tmp_path, TOY_CONFIG, "toy.ini")
        with pytest.raises(KeyError, match="internal"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "out")])


class TestCompareCommand:
    def test_table_and_json(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        main(["run", "--config", write(tmp_path, TOY_CONFIG, "toy.ini"),
              "--out", str(reports)])
        main(["run", "--config", write(tmp_path, SID_CONFIG, "sid.ini"),
              "--out", str(reports)])
        capsys.readouterr()
        code = main(["compare", "--reports", str(reports)])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a" in out and "toy" in out and "kernel" in out
        payload = json.loads((reports / "comparison.json").read_text())
        assert payload["ordering_satisfied"] is True
        rows = {r["scenario"]: r for r in payload["rows"]}
        assert rows["toy"]["status"] == "ok"
        assert rows["kernel"]["t_R"] is None

    def test_violation_sets_exit_code(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "bad.json").write_text(json.dumps(
            {"scenario": "bad", "kind": "master-eq-toy",
             "t_D": 5.0, "t_R": 1.0}))
        code = main(["compare", "--reports", str(reports)])
        capsys.readouterr()
        assert code == 1

    def test_earlier_comparison_is_not_read_as_a_summary(self, tmp_path,
                                                          capsys):
        # compare --out elsewhere finds the comparison.json of a plain
        # compare in the directory: it is no summary, and is refused
        reports = tmp_path / "reports"
        main(["run", "--config", write(tmp_path, TOY_CONFIG, "toy.ini"),
              "--out", str(reports)])
        assert main(["compare", "--reports", str(reports)]) == 0
        capsys.readouterr()
        other = tmp_path / "other.json"
        code = main(["compare", "--reports", str(reports),
                     "--out", str(other)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out and not other.exists()
        assert captured.err == (f"error: {reports / 'comparison.json'}: "
                                "not a summary with t_D and t_R\n")

    @pytest.mark.parametrize("text", ["[1]", "3", '{"t_D": 1.0}'],
                             ids=["array", "number", "no-t_R"])
    def test_json_that_is_not_a_summary_is_refused(self, tmp_path, capsys,
                                                   text):
        # exit 2, the refusal, and not 1, which says the ordering failed
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "a.json").write_text(json.dumps(
            {"scenario": "a", "kind": "master-eq-toy",
             "t_D": 1.0, "t_R": 2.0}))
        (reports / "b.json").write_text(text)
        code = main(["compare", "--reports", str(reports)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == (f"error: {reports / 'b.json'}: "
                                "not a summary with t_D and t_R\n")
        assert not (reports / "comparison.json").exists()

    @pytest.mark.parametrize("t_d", ["0.0", "-2.0", "NaN", "Infinity"])
    def test_time_not_positive_and_finite_is_refused_by_name(self, tmp_path,
                                                            capsys, t_d):
        # t_D = 0 was a ZeroDivisionError traceback with exit 1, the code
        # of a violated ordering; t_D = -2 was tabulated as "ok"
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "z.json").write_text(
            '{"scenario": "z", "kind": "k", "t_D": %s, "t_R": 1.0}' % t_d)
        code = main(["compare", "--reports", str(reports)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith(
            f"error: {reports / 'z.json'}: key 't_D' = ")
        assert captured.err.endswith("must be positive and finite\n")
        assert not (reports / "comparison.json").exists()

    def test_json_that_does_not_parse_is_refused_by_name(self, tmp_path,
                                                         capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "x.json").write_text("{oops")
        code = main(["compare", "--reports", str(reports)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith(
            f"error: {reports / 'x.json'}: not JSON (Expecting property name")
        assert not (reports / "comparison.json").exists()

    def test_empty_reports_dir_is_an_error(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        code = main(["compare", "--reports", str(reports)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestOracleCommand:
    CONFIGS = {"eid-spin-bath": EID_CONFIG, "sid-kernel": SID_CONFIG,
               "master-eq-toy": TOY_CONFIG}

    # the run's channel names, over the run's times
    @pytest.mark.parametrize("name,header", [
        ("eid-spin-bath", "t,offdiag_modulus"),
        ("sid-kernel", "t,expectation"),
        ("master-eq-toy", "t,offdiag_modulus,diag_distance"),
    ])
    def test_prints_reference_record(self, name, header, tmp_path, capsys):
        cfg = write(tmp_path, self.CONFIGS[name], "c.ini")
        assert main(["oracle", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == header
        assert len(lines) > 50
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write(tmp_path, EID_CONFIG, "bath.ini")
        main(["oracle", "--config", cfg, "--seed", "5"])
        first = capsys.readouterr().out
        main(["oracle", "--config", cfg, "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_bath_draw(self, tmp_path, capsys):
        cfg = write(tmp_path, EID_CONFIG, "bath.ini")
        main(["oracle", "--config", cfg, "--seed", "5"])
        first = capsys.readouterr().out
        main(["oracle", "--config", cfg, "--seed", "6"])
        second = capsys.readouterr().out
        assert first != second
        # --seed overrides the config's seed, as for run
        seeded = write(tmp_path, EID_CONFIG.replace(
            "samples = 100", "samples = 100\nseed = 6"), "seeded.ini")
        main(["oracle", "--config", seeded])
        assert capsys.readouterr().out == second

    def test_grid_beyond_the_cap_is_refused(self, tmp_path, capsys):
        cfg = write(tmp_path, SID_CONFIG.replace("n = 150", "n = 2000"),
                    "sid2000.ini")
        assert main(["oracle", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert f"oracle capped at N = {ORACLE_GRID_CAP}" in captured.err

    def test_scenario_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--scenario", "sid-kernel"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


# Every subcommand in one fresh interpreter, then the windowed memory route,
# which integrated with scipy until it took the method of steps: none of
# them may import scipy.
COLD_START = """
import contextlib, io, json, sys, warnings
from pathlib import Path
import numpy as np
from decolab import master_eq
from decolab.cli import main
from decolab.liouville import diagonal_projector

work = Path(sys.argv[1])
out = work / "reports"
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("toy", "kernel", "bath"):
        assert main(["run", "--config", str(work / f"{name}.ini"),
                     "--out", str(out)]) == 0
        assert main(["fit", "--series", str(out / f"{name}.csv")]) == 0
    assert main(["compare", "--reports", str(out)]) == 0
    for name in ("toy", "kernel", "bath"):
        assert main(["oracle", "--config", str(work / f"{name}.ini")]) == 0
h = np.array([[0.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 2.5]])
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)  # the truncation
    states = master_eq.evolve_nakajima_zwanzig(
        np.full((3, 3), 1 / 3), diagonal_projector(3),
        master_eq.build_liouvillian(h), np.linspace(0.0, 5.0, 11),
        kernel_window=1.5)
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": loaded, "samples": len(states),
                  "trace": float(abs(np.trace(states[-1].matrix)))}))
"""


def test_no_subcommand_imports_scipy(tmp_path):
    # a subprocess, because this pytest process has imported scipy already
    for text, name in ((TOY_CONFIG, "toy"), (SID_CONFIG, "kernel"),
                       (EID_CONFIG, "bath")):
        write(tmp_path, text, f"{name}.ini")
    src = str(Path(decolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=path), check=True,
                         timeout=120, capture_output=True, text=True)
    result = json.loads(run.stdout)
    assert result["scipy"] == []
    assert result["samples"] == 11
    assert result["trace"] == pytest.approx(1.0, abs=1e-10)
