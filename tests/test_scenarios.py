"""Scenario configs, runners, writers, and the time-series container."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import decolab
from decolab.cli import main
from decolab.open_system import SpinBathParams, spin_bath_coherence
from decolab.scenarios import (_FINITE, _PARAMS, _POSITIVE, _TOLERANCES,
                               KINDS, ConfigError, ScenarioConfig,
                               oracle_series, parse_config, run_scenario)
from decolab.timeseries import TimeSeries


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_one_blas_thread_writes_same_bytes(tmp_path, text):
    """A run in a child with one BLAS thread writes the same CSV and JSON.

    A BLAS product may sum in an order set by the thread count; the
    records must come out byte-identical with one thread as with the
    default.
    """
    cfg = write_config(tmp_path, text)
    here = run_scenario(parse_config(cfg), tmp_path / "here")
    src = str(Path(decolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "decolab.cli", "run",
                    "--config", str(cfg), "--out", str(tmp_path / "child")],
                   env=env, check=True, timeout=120)
    for path in (here.csv_path, here.json_path):
        child = tmp_path / "child" / path.name
        assert child.read_bytes() == path.read_bytes()


EID_CONFIG = """
[scenario]
kind = eid-spin-bath
name = bath6
seed = 3
t_max = 8.0
samples = 100

[eid-spin-bath]
n_spins = 6
"""

SID_CONFIG = """
[scenario]
kind = sid-kernel
name = kernel
t_max = 12.0
samples = 100

[sid-kernel]
n = 200
"""

def table_config(tmp_path, n, tilt=0.0):
    """A ``family = table`` config on n points of [0, 10] and its kernel CSV.

    The kernel is 0.25 times the stock gaussian kernel (center 5, width
    1.2, cross width 0.5) times the phase e^{i tilt (w - w')}, which keeps
    it Hermitian.
    """
    omega = np.linspace(0.0, 10.0, n)
    rows = []
    for i in range(n):
        for j in range(n):
            mean = 0.5 * (omega[i] + omega[j])
            diff = omega[i] - omega[j]
            val = 0.25 * math.exp(-((mean - 5.0) ** 2) / (2 * 1.2 ** 2)) \
                * math.exp(-(diff ** 2) / (4 * 0.5 ** 2))
            re, im = val * math.cos(tilt * diff), val * math.sin(tilt * diff)
            rows.append(
                f"{float(omega[i])!r},{float(omega[j])!r},{re!r},{im!r}")
    kernel_csv = tmp_path / "kernel.csv"
    kernel_csv.write_text("\n".join(rows) + "\n")
    return SID_CONFIG.replace(
        "n = 200", f"n = {n}\nfamily = table\nkernel_csv = {kernel_csv}")


TOY_CONFIG = """
[scenario]
kind = master-eq-toy
name = toy
t_max = 40.0
samples = 200

[master-eq-toy]
gamma_decohere = 1.0
gamma_relax = 0.2
"""


class TestTimeSeries:
    def make(self):
        t = np.linspace(0, 1, 5)
        return TimeSeries(times=t, channels={"a": t ** 2, "b": 1 - t})

    def test_round_trip_is_byte_identical(self, tmp_path):
        ts = self.make()
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        ts.to_csv(p1)
        TimeSeries.from_csv(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_column_order_preserved(self, tmp_path):
        ts = self.make()
        path = tmp_path / "s.csv"
        ts.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,a,b"

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="samples"):
            TimeSeries(times=np.arange(4.0), channels={"a": np.arange(3.0)})

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeSeries(times=np.array([0.0, 2.0, 1.0]),
                       channels={"a": np.zeros(3)})

    def test_rejects_bad_channel_name(self):
        with pytest.raises(ValueError, match="identifier"):
            TimeSeries(times=np.arange(3.0), channels={"a,b": np.zeros(3)})

    def test_duplicate_channel_name_refused(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,a,a\n0.0,1.0,2.0\n1.0,3.0,4.0\n")
        with pytest.raises(ValueError, match=r"duplicate channel name 'a'") as err:
            TimeSeries.from_csv(path)
        assert str(path) in str(err.value)

    def test_writer_memory_does_not_grow_with_the_record(self):
        # peak of write_csv alone, into a sink that keeps nothing: 0.18 to
        # 0.20 MB at either size (ratio 0.95 to 1.10 as the first call or
        # the longer reprs of the larger t fall), where a writer holding
        # the whole record or its text would grow tenfold
        def peak(n):
            t = np.arange(n) * 0.01
            ts = TimeSeries(t, {"a": np.random.default_rng(0).normal(size=n),
                                "b": np.full(n, 0.5), "c": -t})
            with open(os.devnull, "w") as sink:
                tracemalloc.start()
                try:
                    ts.write_csv(sink)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(200_000) <= 1.2 * peak(20_000)

    def test_missing_channel_lists_available(self):
        ts = self.make()
        with pytest.raises(KeyError, match="available: a, b"):
            ts.channel("c")


class TestConfigParsing:
    def test_eid_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG))
        assert cfg.kind == "eid-spin-bath"
        assert cfg.name == "bath6"
        assert cfg.seed == 3
        assert cfg.params["coupling_min"] == 0.5
        assert cfg.params["bath_angle"] == pytest.approx(math.pi / 2)
        assert cfg.tolerances["weak_limit_epsilon"] == 1e-3

    def test_seed_override(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG), seed=99)
        assert cfg.seed == 99

    @pytest.mark.parametrize("seed, override", [("-5", None), ("3", -1)],
                             ids=["config", "override"])
    def test_negative_seed_names_the_key(self, tmp_path, seed, override):
        # numpy refused it for eid-spin-bath, naming no key; the other kinds
        # wrote it into the summary
        text = EID_CONFIG.replace("seed = 3", f"seed = {seed}")
        with pytest.raises(ConfigError, match=r"\[scenario\] key 'seed'"):
            parse_config(write_config(tmp_path, text), seed=override)

    def test_tol_override(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG),
                           tol_overrides={"weak_limit_epsilon": 1e-5})
        assert cfg.tolerances["weak_limit_epsilon"] == 1e-5

    def test_tol_override_beats_the_config_value(self, tmp_path):
        text = EID_CONFIG + "\n[tolerances]\nweak_limit_epsilon = 1e-2\n"
        cfg = parse_config(write_config(tmp_path, text),
                           tol_overrides={"weak_limit_epsilon": 1e-5})
        assert cfg.tolerances["weak_limit_epsilon"] == 1e-5
        assert cfg.tolerances["fit_floor_log"] == -2.0

    def test_unknown_tol_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown tolerance 'bogus'"):
            parse_config(write_config(tmp_path, EID_CONFIG),
                         tol_overrides={"bogus": 1.0})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")

    def test_missing_scenario_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[scenario\]"):
            parse_config(write_config(tmp_path, "[eid-spin-bath]\nn_spins = 2\n"))

    def test_unknown_kind_lists_known(self, tmp_path):
        bad = EID_CONFIG.replace("kind = eid-spin-bath", "kind = quantum-foam")
        with pytest.raises(ConfigError, match="known kinds"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_key_names_section_and_key(self, tmp_path):
        bad = EID_CONFIG + "spin_count = 9\n"
        with pytest.raises(ConfigError,
                           match=r"\[eid-spin-bath\] unknown key 'spin_count'"):
            parse_config(write_config(tmp_path, bad))

    def test_wrong_params_section_rejected(self, tmp_path):
        bad = EID_CONFIG + "\n[sid-kernel]\nn = 50\n"
        with pytest.raises(ConfigError, match=r"unknown section \[sid-kernel\]"):
            parse_config(write_config(tmp_path, bad))

    def test_unparsable_value_names_key(self, tmp_path):
        bad = EID_CONFIG.replace("t_max = 8.0", "t_max = fast")
        with pytest.raises(ConfigError, match="key 't_max'"):
            parse_config(write_config(tmp_path, bad))

    def test_too_few_samples_rejected(self, tmp_path):
        bad = EID_CONFIG.replace("samples = 100", "samples = 8")
        with pytest.raises(ConfigError, match="key 'samples'"):
            parse_config(write_config(tmp_path, bad))

    def test_nonpositive_horizon_rejected(self, tmp_path):
        bad = EID_CONFIG.replace("t_max = 8.0", "t_max = -1")
        with pytest.raises(ConfigError, match="key 't_max'"):
            parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("kind, key", [
        ("eid-spin-bath", "t_max"), ("eid-spin-bath", "bath_angle")] + [
        (kind, key) for kind, specs in _PARAMS.items()
        for key, spec in specs.items() if spec[2:] in (_POSITIVE, _FINITE)])
    def test_non_finite_value_names_key(self, tmp_path, kind, key, value):
        if key == "t_max":
            bad = EID_CONFIG.replace("t_max = 8.0", f"t_max = {value}")
        else:
            base = {"eid-spin-bath": EID_CONFIG, "sid-kernel": SID_CONFIG,
                    "master-eq-toy": TOY_CONFIG}[kind]
            bad = re.sub(rf"^{key} = .*\n", "", base, flags=re.M) \
                + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"key '{key}'.*finite"):
            parse_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", sorted(_TOLERANCES))
    def test_non_finite_tolerance_names_key(self, tmp_path, key, value):
        text = EID_CONFIG + f"\n[tolerances]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"key '{key}'.*finite"):
            parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match=f"key '{key}'.*finite"):
            parse_config(write_config(tmp_path, EID_CONFIG, "plain.ini"),
                         tol_overrides={key: float(value)})

    def test_resource_cap_refused_at_parse(self, tmp_path):
        bad = EID_CONFIG.replace("n_spins = 6", "n_spins = 15")
        with pytest.raises(ConfigError, match="key 'n_spins'"):
            parse_config(write_config(tmp_path, bad))

    def test_coupling_range_checked(self, tmp_path):
        bad = EID_CONFIG + "coupling_min = 2.0\ncoupling_max = 1.0\n"
        with pytest.raises(ConfigError, match="coupling_max"):
            parse_config(write_config(tmp_path, bad))

    def test_table_family_requires_kernel_csv(self, tmp_path):
        bad = SID_CONFIG.replace("n = 200", "n = 200\nfamily = table")
        with pytest.raises(ConfigError, match="kernel_csv"):
            parse_config(write_config(tmp_path, bad))

    def test_kernel_csv_refused_unless_table(self, tmp_path):
        # a gaussian run would never read the file, missing or not
        bad = SID_CONFIG + f"kernel_csv = {tmp_path / 'missing.csv'}\n"
        with pytest.raises(ConfigError, match="kernel_csv"):
            parse_config(write_config(tmp_path, bad))

    def test_toy_rates_not_completely_positive_refused(self, tmp_path):
        # the run would write states with negative eigenvalues, unflagged
        bad = TOY_CONFIG.replace("gamma_decohere = 1.0",
                                 "gamma_decohere = 0.05").replace(
            "gamma_relax = 0.2", "gamma_relax = 1.0")
        with pytest.raises(ConfigError,
                           match="keys 'gamma_decohere' and 'gamma_relax'.*"
                                 "not completely positive"):
            parse_config(write_config(tmp_path, bad))

    def test_random_angles_accepted(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, EID_CONFIG + "bath_angle = random\n"))
        assert cfg.params["bath_angle"] == "random"
        cfg = parse_config(write_config(
            tmp_path, EID_CONFIG + "bath_angle = half-pi\n"))
        assert cfg.params["bath_angle"] == math.pi / 2


class TestEidRunner:
    def test_record_matches_closed_form(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        series = TimeSeries.from_csv(result.csv_path)

        # rebuild the drawn bath exactly as the runner does
        rng = np.random.default_rng(3)
        g = rng.uniform(0.5, 1.5, 6)
        params = SpinBathParams(couplings=g, angles=np.full(6, math.pi / 2))
        expected = np.abs(spin_bath_coherence(params, series.times))
        assert np.max(np.abs(series.channel("offdiag_modulus") - expected)) \
            <= 1e-10

    def test_columns_and_summary(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        header = result.csv_path.read_text().splitlines()[0]
        assert header == ("t,rho00_re,rho00_im,rho01_re,rho01_im,"
                          "rho10_re,rho10_im,rho11_re,rho11_im,"
                          "purity,offdiag_modulus")
        s = result.summary
        assert s["kind"] == "eid-spin-bath"
        assert s["t_D"] is not None and s["t_D"] > 0
        assert s["t_R"] is None
        assert any("not applicable" in f for f in s["flags"])
        assert s["recurrence_window"] > cfg.t_max
        pur = result.series.channel("purity")
        assert np.all(pur <= 1.0 + 1e-12) and np.all(pur >= 0.5 - 1e-12)

    @pytest.mark.parametrize("angle, beyond", [("half-pi", False),
                                               ("random", True)])
    def test_t_d_beyond_the_record_is_flagged(self, tmp_path, angle, beyond):
        # random angles leave a plateau (seed 3: |rho01| settles near 0.12)
        # that the envelope fit reads as slow decay, t_D 12.1 on t <= 8:
        # the value is kept and flagged; a t_D inside the record is not
        text = EID_CONFIG.replace("n_spins = 6",
                                  f"n_spins = 6\nbath_angle = {angle}")
        s = run_scenario(parse_config(write_config(tmp_path, text)),
                         tmp_path / "out").summary
        assert (s["t_D"] > 8.0) is beyond
        flag = "t_D: beyond the record, extrapolated"
        assert (flag in s["flags"]) is beyond

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG))
        r1 = run_scenario(cfg, tmp_path / "a")
        r2 = run_scenario(cfg, tmp_path / "b")
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        assert r1.json_path.read_bytes() == r2.json_path.read_bytes()

    def test_one_blas_thread_writes_same_bytes(self, tmp_path):
        # at the spin cap the partial trace contracts 2^7 x 2^7 half-bath
        # tables over 100 samples
        assert_one_blas_thread_writes_same_bytes(tmp_path, EID_CONFIG.replace(
            "n_spins = 6", "n_spins = 14\nbath_angle = random"))

    def test_different_seed_changes_record(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, EID_CONFIG))
        other = parse_config(write_config(tmp_path, EID_CONFIG), seed=4)
        r1 = run_scenario(cfg, tmp_path / "a")
        r2 = run_scenario(other, tmp_path / "b")
        assert r1.csv_path.read_bytes() != r2.csv_path.read_bytes()


class TestSidRunner:
    def test_header_is_the_documented_one(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SID_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        header = result.csv_path.read_text().splitlines()[0]
        assert header == "t,expectation,offdiag_contrib,energy"

    def test_energy_flat_and_relaxation_na(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SID_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        energy = result.series.channel("energy")
        assert float(energy.max() - energy.min()) <= 1e-12
        s = result.summary
        assert s["t_R"] is None
        assert any("not applicable (no dissipation)" in f for f in s["flags"])

    def test_gaussian_fit_matches_envelope_width(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SID_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        s = result.summary
        assert abs(s["t_D"] - math.sqrt(2) / 0.5) <= 0.01 * s["t_D"]
        assert s["fit_quality"]["t_D"] > 0.999
        # the weak limit is reached inside the sampled window
        assert s["weak_limit_t_star"] is not None
        predicted = math.sqrt(2 * math.log(
            abs(result.series.channel("offdiag_contrib")[0]) / 1e-3)) / 0.5
        assert abs(s["weak_limit_t_star"] - predicted) <= 0.05 * predicted

    def test_lorentzian_family_runs(self, tmp_path):
        text = SID_CONFIG.replace("n = 200", "n = 200\nfamily = lorentzian")
        cfg = parse_config(write_config(tmp_path, text))
        result = run_scenario(cfg, tmp_path / "out")
        assert result.summary["t_D"] is not None
        assert result.summary["t_D"] > 0

    def test_lorentzian_run_kernel_is_the_documented_formula(
            self, tmp_path, monkeypatch):
        seen, build = [], decolab.scenarios.sid_scenario

        def spy(grid, kernel, *rest):
            seen.append((grid, kernel))
            return build(grid, kernel, *rest)

        monkeypatch.setattr(decolab.scenarios, "sid_scenario", spy)
        text = SID_CONFIG.replace("n = 200", "n = 120\nfamily = lorentzian\n"
                                  "center = 4.5\nwidth = 1.1\n"
                                  "cross_width = 0.7")
        run_scenario(parse_config(write_config(tmp_path, text)),
                     tmp_path / "out")
        [(grid, kernel)] = seen
        assert_array_equal(grid.omega, np.linspace(0.0, 10.0, 120))
        mean = 0.5 * np.add.outer(grid.omega, grid.omega)
        delta = np.subtract.outer(grid.omega, grid.omega)
        want = np.exp(-(mean - 4.5) ** 2 / (2 * 1.1 ** 2)) \
            / (1 + (delta / 0.7) ** 2)
        assert_allclose(kernel, want, rtol=1e-14, atol=0)

    def test_table_family_round_trips_a_measured_kernel(self, tmp_path):
        text = table_config(tmp_path, n=24)
        cfg = parse_config(write_config(tmp_path, text))
        result = run_scenario(cfg, tmp_path / "out")
        assert "expectation" in result.series.channels
        assert result.summary["kind"] == "sid-kernel"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SID_CONFIG))
        r1 = run_scenario(cfg, tmp_path / "a")
        r2 = run_scenario(cfg, tmp_path / "b")
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        assert r1.json_path.read_bytes() == r2.json_path.read_bytes()

    def test_one_blas_thread_writes_same_bytes(self, tmp_path):
        # n = 300 is a size at which a two-thread OpenBLAS zgemm was seen
        # to sum differently from a one-thread one (200 and 400 were not)
        assert_one_blas_thread_writes_same_bytes(tmp_path, SID_CONFIG.replace(
            "n = 200", "n = 300\nfamily = lorentzian"))

    def test_one_blas_thread_writes_same_bytes_for_a_complex_table(
            self, tmp_path):
        assert_one_blas_thread_writes_same_bytes(
            tmp_path, table_config(tmp_path, n=150, tilt=0.8))


class TestToyRunner:
    def test_rates_and_ordering(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        s = result.summary
        assert abs(s["t_D"] - 1.0) <= 0.05
        assert abs(s["t_R"] - 5.0) <= 0.25
        assert s["t_D"] < s["t_R"]
        assert s["recurrence_window"] is None
        assert any("no recurrence" in f for f in s["flags"])
        assert abs(s["equilibrium_value"]) <= 1e-3

    def test_populations_sum_to_one(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, TOY_CONFIG))
        result = run_scenario(cfg, tmp_path / "out")
        total = (result.series.channel("p0") + result.series.channel("p1")
                 + result.series.channel("p2"))
        assert np.max(np.abs(total - 1.0)) <= 1e-10


class TestOracleSeries:
    """The oracle reads the run's config and states the system it evolves."""

    # each kind's acceptance tolerance: 1e-10 for the spin bath, 1e-8 for
    # the kernel pairing; the toy's closed form is checked to 1e-12
    @pytest.mark.parametrize("case,bound", [
        ("eid", 1e-10), ("eid-random", 1e-10), ("sid", 1e-8),
        ("table", 1e-8), ("toy", 1e-12)])
    def test_run_and_oracle_agree(self, tmp_path, case, bound):
        if case == "table":
            text = table_config(tmp_path, n=60, tilt=0.8)
        else:
            text = {"eid": EID_CONFIG, "sid": SID_CONFIG, "toy": TOY_CONFIG,
                    "eid-random": EID_CONFIG
                    + "bath_angle = random\namp0 = 0.6\n"}[case]
        config = parse_config(write_config(tmp_path, text))
        run = run_scenario(config, tmp_path / "out").series
        oracle = oracle_series(config)
        assert_array_equal(oracle.times, run.times)
        for name, values in oracle.channels.items():
            assert np.max(np.abs(values - run.channel(name))) <= bound

    @pytest.mark.parametrize("family", ["lorentzian", "table"])
    def test_over_cap_grid_refused_before_the_pair_is_built(
            self, tmp_path, monkeypatch, family):
        # building an n = 2000 pair reaches 122 MB ru_maxrss and a table
        # config parses its n^2 rows, so the cap is checked before either
        built = []
        kinds = decolab.scenarios._KINDS
        monkeypatch.setitem(kinds, "sid-kernel",
                            kinds["sid-kernel"]._replace(system=built.append))
        table = f"kernel_csv = {tmp_path / 'absent.csv'}\n" \
            if family == "table" else ""
        config = parse_config(write_config(
            tmp_path, SID_CONFIG.replace("n = 200", "n = 2000")
            + f"family = {family}\n" + table))
        with pytest.raises(ValueError, match="oracle capped at N = 400"):
            oracle_series(config)
        assert built == []
        # under the cap the oracle reaches the same patched builder, which
        # hands it None in place of a pair
        small = parse_config(write_config(tmp_path, SID_CONFIG, "small.ini"))
        with pytest.raises(TypeError):
            oracle_series(small)
        assert built == [small]


# a config of each kind, built in a temporary directory
KIND_CONFIGS = {
    "eid-spin-bath": lambda tmp_path: EID_CONFIG,
    "sid-kernel": lambda tmp_path: SID_CONFIG,
    "sid-kernel-table": lambda tmp_path: table_config(tmp_path, n=60),
    "master-eq-toy": lambda tmp_path: TOY_CONFIG,
}


class TestKindRecords:
    """Each kind is one record, read alike by run, oracle and ``fit``."""

    def run(self, tmp_path, case):
        config = parse_config(write_config(tmp_path,
                                           KIND_CONFIGS[case](tmp_path)))
        return config, run_scenario(config, tmp_path / "out")

    def test_every_kind_is_covered(self):
        assert {case.replace("-table", "") for case in KIND_CONFIGS} \
            == set(KINDS)

    @pytest.mark.parametrize("case", KIND_CONFIGS)
    def test_oracle_channels_are_run_channels(self, tmp_path, case):
        config, run = self.run(tmp_path, case)
        oracle = oracle_series(config)
        assert oracle.channels.keys() <= run.series.channels.keys()
        assert_array_equal(oracle.times, run.series.times)

    @pytest.mark.parametrize("case", KIND_CONFIGS)
    def test_fit_of_the_record_gives_the_run_times(self, tmp_path, capsys,
                                                    case):
        _, run = self.run(tmp_path, case)
        summary = json.loads(run.json_path.read_text())
        assert main(["fit", "--series", str(run.csv_path)]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert summary["t_D"] is not None
        assert fit["t_D"]["value"] == summary["t_D"]
        if case == "master-eq-toy":
            assert summary["t_R"] is not None
            assert fit["t_R"]["value"] == summary["t_R"]
        else:
            assert "t_R" not in fit and summary["t_R"] is None

    @pytest.mark.parametrize("case", ["eid-spin-bath", "sid-kernel"])
    def test_closed_kinds_flag_t_r_not_applicable(self, tmp_path, case):
        summary = self.run(tmp_path, case)[1].summary
        assert "t_R: not applicable (no dissipation)" in summary["flags"]
        assert summary["t_R"] is None
        assert summary["fit_quality"]["t_R"] is None

    # each name a profiler wraps in this module, and a run that calls it
    @pytest.mark.parametrize("name, case", [
        ("spin_bath_reduced_dynamics", "eid-spin-bath"),
        ("purity", "eid-spin-bath"),
        ("expectation_sid", "sid-kernel"),
        ("load_table_kernel", "sid-kernel-table"),
        ("evolve_linear_generator", "master-eq-toy")])
    def test_run_calls_the_module_binding(self, tmp_path, monkeypatch, name,
                                          case):
        calls = []
        bound = getattr(decolab.scenarios, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return bound(*args, **kwargs)

        monkeypatch.setattr(decolab.scenarios, name, wrapped)
        self.run(tmp_path, case)
        assert calls == [name]
