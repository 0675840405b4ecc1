"""Envelope fitting, weak-limit detection, and the ordering table."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.optimize import brentq

from decolab.fits import (FitResult, detect_weak_limit, envelope,
                          fit_decoherence_time, fit_relaxation_time,
                          ordering_report)
from decolab.master_eq import dissipative_toy, evolve_linear_generator
from decolab.open_system import SpinBathParams, spin_bath_coherence


class TestEnvelope:
    def test_monotone_decay_is_its_own_envelope(self):
        t = np.linspace(0, 10, 300)
        v = np.exp(-t / 2)
        assert np.allclose(envelope(t, v), v, atol=1e-14)

    def test_oscillatory_decay_is_bridged(self):
        t = np.linspace(0, 10, 2000)
        v = np.exp(-t / 3) * np.cos(9 * t)
        env = envelope(t, v)
        assert np.all(env >= np.abs(v) - 1e-12)
        assert np.all(np.diff(env) <= 1e-12)
        # away from the end of the record (where nothing later can prop
        # it up) the envelope hugs the arch tops, not the zero crossings
        body = t <= 9.0
        assert np.all(env[body] >= np.exp(-t[body] / 3) * 0.85)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            envelope([0.0, 1.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            envelope([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 0.5, 0.2])


class TestDecoherenceFit:
    def test_pure_exponential(self):
        # linear interpolation in ln|values| is exact for an exponential
        t = np.linspace(0, 10, 400)
        fit = fit_decoherence_time(t, np.exp(-t / 2))
        assert fit.ok
        assert abs(fit.value - 2.0) <= 1e-12
        assert abs(fit.shape - 2.0) <= 1e-12

    def test_pure_gaussian(self):
        # ln|values| = ln 0.7 - (t/tau)^2 is concave, so each chord lies
        # below it by at most (t - t0)(t1 - t)/tau^2 <= h^2/(4 tau^2): the
        # crossing comes early, by at most that over
        # |ln|values|'| >= 2 t_D/tau^2, that is h^2/(8 t_D); likewise at the
        # e^-2 crossing
        sigma = 0.5
        t = np.linspace(0, 12, 500)
        h, tau = t[1] - t[0], math.sqrt(2) / sigma
        fit = fit_decoherence_time(t, 0.7 * np.exp(-(sigma * t) ** 2 / 2))
        assert fit.ok
        assert 0 <= tau - fit.value <= h * h / (8 * fit.value)
        e2 = fit.shape * fit.value
        assert 0 <= math.sqrt(2) * tau - e2 <= h * h / (8 * e2)

    def test_round_trip_reproduces_parameters(self):
        # exp(-(t/value)^p) with shape = 2^(1/p) crosses e^-1 at value and
        # e^-2 at shape * value; read off samples h apart, each crossing
        # moves by at most h^2 max|(ln f)''| / (8 min|(ln f)'|) on its
        # bracket [lo, hi] = t -+ h, which for ln f = -(t/value)^p, p < 1,
        # is h^2 (1 - p) (hi/lo)^(1 - p) / (8 lo)
        t = np.linspace(0, 10, 400)
        h = t[1] - t[0]
        first = fit_decoherence_time(t, np.exp(-t / 2) * np.cos(11 * t))
        assert first.ok
        p = math.log(2) / math.log(first.shape)
        assert p < 1
        again = fit_decoherence_time(t, np.exp(-(t / first.value) ** p))
        for want, got in ((first.value, again.value),
                          (first.shape * first.value,
                           again.shape * again.value)):
            lo, hi = want - h, want + h
            assert abs(got - want) \
                <= h * h * (1 - p) * (hi / lo) ** (1 - p) / (8 * lo)

    def test_spin_bath_envelope_matches_analytic_crossing(self):
        # ln|c| = sum_k ln cos(g_k t) + const before the first zero: a
        # crossing read by linear interpolation in ln|c| is within
        # h^2 max|(ln c)''| / (8 min|(ln c)'|) of brentq's, both monotone
        # in t on the bracket t* +- h
        rng = np.random.default_rng(11)
        n = 12
        g = rng.uniform(0.5, 1.5, n)
        params = SpinBathParams(couplings=g, angles=np.full(n, np.pi / 2))
        t = np.linspace(0.0, 8.0, 200)
        h = t[1] - t[0]
        coherence = spin_bath_coherence(params, t)
        fit = fit_decoherence_time(t, np.abs(coherence))
        assert fit.ok

        def product(tt):
            return float(np.prod(np.abs(np.cos(g * tt))))

        t_star = brentq(lambda tt: product(tt) - math.exp(-1), 1e-9, 2.0)
        lo, hi = t_star - h, t_star + h
        slope = np.sum(g * np.tan(g * lo))
        curvature = np.sum(g ** 2 / np.cos(g * hi) ** 2)
        assert abs(fit.value - t_star) <= h * h * curvature / (8 * slope)

    def test_non_decaying_channel_refuses_to_fit(self):
        t = np.linspace(0, 10, 100)
        fit = fit_decoherence_time(t, 0.5 + 0.01 * np.cos(t))
        assert not fit.ok
        assert fit.value is None and fit.shape is None
        assert "does not decay" in fit.status

    def test_zero_channel_reports_no_signal(self):
        t = np.linspace(0, 10, 100)
        fit = fit_decoherence_time(t, np.zeros_like(t))
        assert not fit.ok and fit.value is None
        assert "no signal" in fit.status

    def test_carrier_under_exponential(self):
        # the envelope follows the arch tops of e^-t |cos 17t|, which lie
        # between e^-t and e^-(t + pi/17): it crosses e^-1 within one arch
        # before the carrier-free t = 1
        t = np.linspace(0, 12, 3000)
        fit = fit_decoherence_time(t, np.exp(-t) * np.cos(17 * t))
        assert fit.ok
        assert 1.0 - math.pi / 17 <= fit.value <= 1.0

    def test_lower_revival_does_not_hold_up_the_crossing(self):
        # the record falls through e^-1 between 0.6 at t = 1 and 0.1 at
        # t = 2, then revives to 0.3 < e^-1 at t = 5.  A line between the
        # envelope's record-setting samples (0.6 at t = 1, 0.3 at t = 5)
        # stayed above e^-1 until t 4.03, and the envelope's own samples
        # (0.6, then 0.3 held up by the revival) put the crossing at 1.71
        t = np.arange(10.0)
        v = [1.0, 0.6, 0.1, 0.05, 0.05, 0.3, 0.05, 0.05, 0.05, 0.05]
        fit = fit_decoherence_time(t, v)
        assert abs(fit.value - (1 + math.log(0.6 * math.e) / math.log(6))) \
            <= 1e-12

    def test_shape_past_the_record_is_none(self):
        # e^-1 is crossed at t = 2 inside the record, e^-2 at t = 4 past it
        t = np.linspace(0, 3, 100)
        fit = fit_decoherence_time(t, np.exp(-t / 2))
        assert fit.ok and abs(fit.value - 2.0) <= 1e-12
        assert fit.shape is None

    def test_crossing_onto_zero_is_linear_and_warns_not(self):
        # the bracketing sample is 0: ln(0) has no chord, so the crossing is
        # read linearly in env, with no numpy warning
        t = np.arange(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decoherence_time(t, [1.0, 1.0, 0.0, 0.0, 0.0])
        assert fit.value == 2.0 - math.exp(-1)
        assert fit.shape == (2.0 - math.exp(-2)) / fit.value

    def test_complex_values_are_fitted_by_their_modulus(self):
        # the fits read |values|, so a complex channel is kept, not refused
        t = np.linspace(0.0, 10.0, 200)
        c = np.exp((-1.0 + 3.0j) * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (fit_decoherence_time, fit_relaxation_time):
                assert fit(t, c).ok and fit(t, c) == fit(t, np.abs(c))
            assert_array_equal(envelope(t, c), envelope(t, np.abs(c)))


@pytest.mark.parametrize("floor_log",
                         [math.nan, math.inf, -math.inf, 0.0, -0.0, 3.0])
@pytest.mark.parametrize("fit", [fit_decoherence_time, fit_relaxation_time])
def test_rejects_non_finite_floor_log(fit, floor_log):
    # the least-squares window's floor went with the fit it cut: the
    # crossing reads the whole record, and a caller still passing a floor,
    # of any value, is refused by name rather than silently ignored
    t = np.linspace(0, 30, 600)
    with pytest.raises(TypeError, match="floor_log"):
        fit(t, np.exp(-t / 5), floor_log=floor_log)


class TestRelaxationFit:
    def test_pure_exponential_distance(self):
        t = np.linspace(0, 30, 600)
        fit = fit_relaxation_time(t, np.exp(-t / 5))
        assert fit.ok
        assert abs(fit.value - 5.0) <= 1e-12
        assert abs(fit.shape - 2.0) <= 1e-12

    def test_raw_channel_with_known_limit(self):
        # the caller turns a raw channel into its distance from the limit
        t = np.linspace(0, 30, 600)
        fit = fit_relaxation_time(t, np.abs(0.4 + 0.3 * np.exp(-t / 5) - 0.4))
        assert fit.ok
        assert abs(fit.value - 5.0) <= 1e-6

    def test_stationary_channel_is_not_applicable(self):
        t = np.linspace(0, 10, 100)
        fit = fit_relaxation_time(t, np.zeros_like(t))
        assert not fit.ok and fit.value is None
        assert fit.status == "not applicable (no dissipation)"

    def test_toy_fixture_recovers_both_rates(self):
        # both channels decay as pure exponentials, which the crossing reads
        # exactly: t_D = 1/gamma_decohere and t_R = 1/gamma_relax to roundoff
        toy = dissipative_toy(gamma_decohere=1.0, gamma_relax=0.2)
        t = np.linspace(0.0, 30.0, 400)
        states = evolve_linear_generator(toy.generator, toy.rho0, t)
        offdiag = []
        diag_dist = []
        p_star = np.asarray(toy.equilibrium, dtype=float)
        for rho in states:
            off = rho - np.diag(np.diag(rho))
            offdiag.append(np.linalg.norm(off))
            diag_dist.append(np.linalg.norm(np.real(np.diag(rho)) - p_star))
        fit_d = fit_decoherence_time(t, np.array(offdiag))
        fit_r = fit_relaxation_time(t, np.array(diag_dist))
        assert fit_d.ok and fit_r.ok
        assert abs(fit_d.value * toy.gamma_decohere - 1.0) <= 1e-12
        assert abs(fit_r.value * toy.gamma_relax - 1.0) <= 1e-12


class TestWeakLimit:
    def test_constant_channel_settles_immediately(self):
        t = np.linspace(0, 10, 50)
        res = detect_weak_limit(t, {"c": np.full_like(t, 0.3)}, epsilon=1e-6)
        assert res.converged
        assert res.t_star == t[0]
        assert abs(res.equilibrium["c"] - 0.3) < 1e-12

    def test_exponential_crosses_at_log_epsilon(self):
        t = np.linspace(0, 14, 701)
        res = detect_weak_limit(t, {"c": np.exp(-t)}, epsilon=math.exp(-3))
        assert res.converged
        step = t[1] - t[0]
        assert abs(res.t_star - 3.0) <= step + 1e-9

    def test_gaussian_envelope_crossing(self):
        sigma, amp, eps = 0.5, 0.25, 1e-3
        t = np.linspace(0, 40, 4001)
        res = detect_weak_limit(t, {"c": amp * np.exp(-(sigma * t) ** 2 / 2)},
                                epsilon=eps)
        assert res.converged
        predicted = math.sqrt(2 * math.log(amp / eps)) / sigma
        assert abs(res.t_star - predicted) <= 0.05 * predicted

    def test_no_convergence_is_flagged(self):
        t = np.linspace(0, 5, 50)
        res = detect_weak_limit(t, {"c": 1.0 / (1.0 + t)}, epsilon=1e-4)
        assert not res.converged
        assert any("no convergence" in f for f in res.flags)

    def test_recurrence_window_truncates_and_flags(self):
        t = np.linspace(0, 20, 400)
        # settles early, then a revival after the declared window
        v = np.exp(-t) + np.where(t > 12, 0.5, 0.0)
        res = detect_weak_limit(t, {"c": v}, epsilon=math.exp(-3),
                                recurrence_window=10.0)
        assert res.converged
        assert res.t_star < 4.0
        assert any("recurrence window" in f for f in res.flags)

    def test_multiple_channels_use_worst_case(self):
        t = np.linspace(0, 14, 701)
        res = detect_weak_limit(
            t, {"fast": np.exp(-2 * t), "slow": np.exp(-t)},
            epsilon=math.exp(-3))
        assert abs(res.t_star - 3.0) <= (t[1] - t[0]) + 1e-9

    def test_rejects_bad_epsilon(self):
        t = np.linspace(0, 5, 20)
        for epsilon in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                detect_weak_limit(t, {"c": np.exp(-t)}, epsilon=epsilon)

    def test_rejects_a_window_that_is_not_positive(self):
        # a NaN window was dropped silently, as if there were none
        t = np.linspace(0, 10, 200)
        channels = {"c": 1.0 / (1.0 + t)}
        for window in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError,
                               match="recurrence window must be positive"):
                detect_weak_limit(t, channels, 0.2, window)
        # an infinite window, as None, keeps every sample
        assert detect_weak_limit(t, channels, 0.2, math.inf) \
            == detect_weak_limit(t, channels, 0.2)

    @pytest.mark.parametrize("channels", [{}, np.exp(-np.linspace(0, 5, 20))])
    def test_rejects_channels_not_a_named_dict(self, channels):
        t = np.linspace(0, 5, 20)
        with pytest.raises(ValueError, match="dict"):
            detect_weak_limit(t, channels, epsilon=1e-3)


    def test_complex_channel_refused(self):
        # read as its real part, this channel settled at t 6.73, although
        # its modulus never comes within 0.5 of a mean
        t = np.linspace(0.0, 10.0, 200)
        channel = np.exp(-t) + 0.5j * (t > 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"channel 'c' must be real, got \("):
                detect_weak_limit(t, {"c": channel}, 1e-3)


class TestOrderingReport:
    def summaries(self):
        return [
            {"scenario": "toy", "kind": "master-eq-toy",
             "t_D": 1.0, "t_R": 5.0},
            {"scenario": "kernel", "kind": "sid-kernel",
             "t_D": 2.83, "t_R": None},
        ]

    def test_ratio_and_status(self):
        report = ordering_report(self.summaries())
        assert report.ordering_satisfied
        toy = report.rows[0]
        assert toy.status == "ok"
        assert abs(toy.ratio - 5.0) < 1e-12
        sid = report.rows[1]
        assert sid.status == "n/a" and sid.ratio is None

    def test_text_table_renders_na(self):
        text = ordering_report(self.summaries()).text()
        assert "n/a" in text
        assert "toy" in text and "kernel" in text

    def test_violation_detected(self):
        report = ordering_report([
            {"scenario": "bad", "kind": "master-eq-toy",
             "t_D": 5.0, "t_R": 1.0}])
        assert not report.ordering_satisfied
        assert report.rows[0].status == "violation"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ordering_report([])

    def test_all_missing_times_rejected(self):
        with pytest.raises(ValueError, match="characteristic time"):
            ordering_report([{"scenario": "x", "kind": "y",
                              "t_D": None, "t_R": "n/a"}])

    @pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf,
                                       -math.inf])
    @pytest.mark.parametrize("key", ["t_D", "t_R"])
    def test_time_not_positive_and_finite_refused(self, key, value):
        # t_D = 0 ended in ZeroDivisionError, t_D = -2 tabulated as "ok"
        summary = {"scenario": "bad", "kind": "master-eq-toy",
                   "t_D": 1.0, "t_R": 5.0, key: value}
        with pytest.raises(ValueError, match=f"scenario 'bad': key '{key}' "
                           f"= {value!r} must be positive and finite"):
            ordering_report(self.summaries() + [summary])

    @pytest.mark.parametrize("key, value", [("t_R", np.int64(5)),
                                            ("t_D", np.float32(1.0))])
    def test_numpy_scalar_time_is_read(self, key, value):
        # both read as missing before, with status n/a
        summary = {"scenario": "np", "kind": "master-eq-toy",
                   "t_D": 1.0, "t_R": 5.0, key: value}
        report = ordering_report([summary])
        row = report.rows[0]
        assert (row.t_D, row.t_R, row.status) == (1.0, 5.0, "ok")
        assert type(getattr(row, key)) is float
        json.dumps(report.as_dict())

    @pytest.mark.parametrize("value", [np.float64(0.0), np.int64(-1),
                                       np.float32("nan")])
    def test_numpy_scalar_time_not_positive_and_finite_refused(self, value):
        summary = {"scenario": "np", "kind": "k", "t_D": value, "t_R": 5.0}
        with pytest.raises(ValueError, match="scenario 'np': key 't_D' = "
                           ".* must be positive and finite"):
            ordering_report([summary])

    def test_dict_form_is_json_ready(self):
        import json

        d = ordering_report(self.summaries()).as_dict()
        json.dumps(d)
        assert d["ordering_satisfied"] is True


class TestFitResultShape:
    def test_as_dict(self):
        fit = FitResult(2.0, 1.5, "ok")
        assert fit.as_dict() == {"value": 2.0, "shape": 1.5, "status": "ok"}
