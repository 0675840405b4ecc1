"""Kernel pairing, weak limits, projector, measurement rebuild, tables."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erfc

from decolab.continuum import (
    ORACLE_GRID_CAP,
    EnergyGrid,
    GeneralKernelObservable,
    SingularRidge,
    UntaggedComponentError,
    VanHoveObservable,
    VanHoveState,
    build_vanhove_from_measurements,
    discretized_unitary_oracle,
    expectation_sid,
    family_kernel,
    gaussian_envelope,
    gaussian_scenario,
    hamiltonian_observable,
    lag_measure,
    load_table_kernel,
    offdiag_contribution,
    phase_sum,
    sid_limit,
    sid_projector,
    sid_scenario,
)
from decolab.liouville import DimensionMismatchError
from decolab.open_system import (SpinBathParams, spin_bath_coherence,
                                 spin_bath_reduced_dynamics)


@pytest.fixture(scope="module")
def gaussian():
    return gaussian_scenario()


def uniform_state(grid):
    diag = np.ones(grid.size)
    diag /= float(np.sum(grid.weights * diag))
    return VanHoveState(grid, diag)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


@pytest.fixture(scope="module")
def complex_pair():
    """Independent random complex Hermitian kernels on a 120-point grid."""
    rng = np.random.default_rng(11)
    g = EnergyGrid.uniform(0.0, 10.0, 120)
    diag = np.exp(-(g.omega - 5.0) ** 2)
    diag /= float(np.sum(g.weights * diag))
    state = VanHoveState(g, diag, random_hermitian(rng, g.size))
    obs = VanHoveObservable(g, rng.normal(size=g.size),
                            random_hermitian(rng, g.size))
    return state, obs


def cross_kernel(state, obs):
    """rho(w_i, w_j) O(w_j, w_i) with the quadrature weights folded in."""
    q = state.grid.weights
    return state.offdiag * obs.offdiag.T * np.outer(q, q)


class TestEnergyGrid:
    def test_nearest_ties_go_to_the_lower_point(self):
        g = EnergyGrid(np.array([0.0, 1.0, 3.0]))
        got = g.nearest(np.array([[0.5, 2.0], [0.49, 0.51], [-1.0, 9.0],
                                  [1.0, 2.01]]))
        assert_array_equal(got, [[0, 1], [0, 1], [0, 2], [1, 2]])

    def test_trapezoid_weights_reproduce_trapz(self):
        g = EnergyGrid.uniform(0.0, 3.0, 17)
        f = np.sin(g.omega) + 0.3 * g.omega ** 2
        assert_allclose(np.sum(g.weights * f), np.trapezoid(f, g.omega),
                        atol=1e-14)

    def test_nonuniform_weights(self):
        w = np.array([0.0, 0.5, 2.0, 3.0])
        g = EnergyGrid(w)
        f = w ** 2
        assert_allclose(np.sum(g.weights * f), np.trapezoid(f, w),
                        atol=1e-14)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="increasing"):
            EnergyGrid(np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_energies(self, bad):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            EnergyGrid(np.array([0.0, bad, 2.0]))
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            EnergyGrid(np.array([0.0, 1.0, bad]))

    def test_rejects_negative_energies(self):
        with pytest.raises(ValueError, match=">= 0"):
            EnergyGrid(np.array([-1.0, 0.0, 1.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            EnergyGrid(np.array([1.0]))

    def test_recurrence_window(self):
        g = EnergyGrid.uniform(0.0, 10.0, 401)
        assert_allclose(g.recurrence_window(), 2 * np.pi / 0.025)


class TestTypeInvariants:
    def test_state_rejects_negative_density(self):
        g = EnergyGrid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="negative"):
            VanHoveState(g, np.array([1.0, 1.0, -0.1, 1.0, 1.0]))

    def test_state_rejects_unnormalized(self):
        g = EnergyGrid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="expected 1"):
            VanHoveState(g, 2.0 * np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejects_non_finite_norm(self, bad):
        # weights swapped in behind the grid's own check: the state must
        # still refuse the quadrature they give
        g = EnergyGrid.uniform(0.0, 1.0, 5)
        object.__setattr__(g, "weights",
                           np.array([0.125, 0.25, bad, 0.25, 0.125]))
        with pytest.raises(ValueError, match="expected 1"):
            VanHoveState(g, np.ones(5))

    def test_state_rejects_non_hermitian_kernel(self):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        kern = np.zeros((3, 3), dtype=complex)
        kern[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            VanHoveState(g, np.ones(3), kern)

    def test_kernel_is_copied_once_and_frozen(self):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        kern = np.ones((3, 3))
        state = VanHoveState(g, np.ones(3), kern)
        kern[0, 1] = kern[1, 0] = 7.0
        assert np.array_equal(state.offdiag, np.ones((3, 3)))
        assert not state.offdiag.flags.writeable

    def test_observable_rejects_non_finite(self):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        kern = np.zeros((3, 3))
        kern[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            VanHoveObservable(g, np.zeros(3), kern)

    def test_observable_shape_check(self):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        with pytest.raises(DimensionMismatchError):
            VanHoveObservable(g, np.zeros(4))

    @pytest.mark.parametrize("kind", [VanHoveObservable, VanHoveState,
                                      GeneralKernelObservable])
    def test_rejects_nan_diagonal(self, kind):
        g = EnergyGrid.uniform(0.0, 1.0, 5)
        diag = np.ones(5)
        diag /= float(np.sum(g.weights * diag))
        diag[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            kind(g, diag)


def test_family_kernel_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="unknown kernel family 'table'"):
        family_kernel(EnergyGrid.uniform(0.0, 1.0, 4), "table", 0.5, 1.0, 1.0)


class TestExpectation:
    def test_diagonal_only_is_time_independent(self):
        g = EnergyGrid.uniform(0.0, 2.0, 40)
        state = uniform_state(g)
        obs = VanHoveObservable(g, g.omega ** 2)
        vals = [expectation_sid(state, obs, t) for t in (0.0, 1.0, 50.0)]
        assert np.ptp(vals) == 0.0

    def test_t0_equals_plain_double_quadrature(self, gaussian):
        state, obs = gaussian
        g = state.grid
        ww = np.outer(g.weights, g.weights)
        plain = float(np.sum(g.weights * state.diag * obs.diag)) \
            + float(np.sum(state.offdiag.T * obs.offdiag * ww).real)
        assert_allclose(expectation_sid(state, obs, 0.0), plain, atol=1e-13)

    def test_gaussian_envelope_analytic(self, gaussian):
        # rho_off * O_off has cross profile exp(-(w-w')^2 / (2 * 0.5^2)),
        # whose Fourier transform gives envelope exp(-0.25 t^2 / 2)
        # the array call equals the per-time scalar calls
        state, obs = gaussian
        base = offdiag_contribution(state, obs, 0.0)
        ts = np.array([0.0, 1.0, 2.0, 4.0])
        batched = offdiag_contribution(state, obs, ts)
        assert batched.shape == ts.shape
        assert offdiag_contribution(state, obs, ts.reshape(2, 2)).shape \
            == (2, 2)
        for t, b in zip(ts, batched):
            num = offdiag_contribution(state, obs, t)
            assert np.ndim(num) == 0
            assert abs(b - num) <= 1e-15
            exact = base * gaussian_envelope(t)
            assert abs(num - exact) <= 1e-4 * abs(exact)

    def test_imaginary_residue_small(self, gaussian):
        state, obs = gaussian
        measure = lag_measure(state, obs)
        assert abs(phase_sum(*measure, 1.7).imag) <= 1e-10
        residues = phase_sum(*measure, np.array([0.3, 1.7])).imag
        assert residues.shape == (2,)
        assert np.max(np.abs(residues)) <= 1e-10

    def test_non_hermitian_kernels_give_the_plain_complex_sum(
            self, complex_pair):
        # a kernel swapped in behind the Hermiticity check: with no
        # symmetry left the value and the residue are still the real and
        # the imaginary part of the complex double sum
        state, obs = complex_pair
        state = copy.copy(state)
        rng = np.random.default_rng(13)
        n = state.grid.size
        object.__setattr__(state, "offdiag", rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n)))
        ts = np.array([0.0, 0.8, 3.3])
        phase = np.exp(-1j * np.multiply.outer(ts, state.grid.omega))
        plain = sid_limit(state, obs) + np.einsum(
            "ti,ij,tj->t", phase, cross_kernel(state, obs), phase.conj())
        got = expectation_sid(state, obs, ts)
        residues = phase_sum(*lag_measure(state, obs), ts).imag
        assert np.min(np.abs(plain.imag)) > 0.1
        assert_allclose(got, plain.real, rtol=0, atol=1e-12)
        assert_allclose(residues, plain.imag, rtol=0, atol=1e-12)

    def test_imaginary_residue_small_on_a_complex_cross_kernel(
            self, complex_pair):
        state, obs = complex_pair
        assert np.any(cross_kernel(state, obs).imag)
        residues = phase_sum(*lag_measure(state, obs),
                             np.linspace(0.0, 30.0, 16)).imag
        assert np.max(np.abs(residues)) <= 1e-10

    def test_grid_mismatch_rejected(self, gaussian):
        state, _ = gaussian
        other = VanHoveObservable(EnergyGrid.uniform(0.0, 2.0, 10), np.ones(10))
        with pytest.raises(DimensionMismatchError):
            expectation_sid(state, other, 0.0)

    def test_non_uniform_grid_refused_and_left_to_the_oracle(self):
        g = EnergyGrid(np.linspace(0.0, 1.0, 30) ** 2)
        rng = np.random.default_rng(5)
        state = VanHoveState(g, uniform_state(g).diag,
                             0.1 * random_hermitian(rng, g.size))
        obs = VanHoveObservable(g, g.omega.copy(),
                                random_hermitian(rng, g.size))
        with pytest.raises(ValueError, match="discretized_unitary_oracle"):
            expectation_sid(state, obs, 1.0)
        assert np.isfinite(discretized_unitary_oracle(state, obs, 1.0))

    def test_phase_masked_kernel_stays_hermitian(self, gaussian):
        state, _ = gaussian
        g = state.grid
        t = 3.7
        evolved = state.offdiag * np.exp(
            -1j * t * np.subtract.outer(g.omega, g.omega))
        assert np.array_equal(evolved, evolved.conj().T)


# The stock sid-kernel pair at the scenario defaults
BAND, CENTER, WIDTH, AMPLITUDE = 10.0, 5.0, 1.2, 0.25


def family_pair(family, n, cross_width):
    grid = EnergyGrid.uniform(0.0, BAND, n)
    kernel = family_kernel(grid, family, CENTER, WIDTH, cross_width)
    return sid_scenario(grid, kernel, CENTER, WIDTH, AMPLITUDE)


def band_cut(tail):
    """What the band [0, BAND]^2 cuts from com(m)^2 h(nu), for even h >= 0.

    The cross kernel of a stock pair is AMPLITUDE com(m)^2 h(nu) in
    m = (w + w')/2, nu = w - w' (unit Jacobian), with com(m)^2 =
    exp(-(m - CENTER)^2 / WIDTH^2).  The square is the diamond |nu| <=
    V(m) = 2 min(m, BAND - m), so it misses the integral of com(m)^2
    tail(V(m)) over m, where tail(V) is the mass of h outside |nu| <= V
    (all of it where V <= 0).  com^2 is below e^-144 beyond 12 widths.
    """
    m, dm = np.linspace(CENTER - 12 * WIDTH, CENTER + 12 * WIDTH, 200001,
                        retstep=True)
    v = 2 * np.clip(np.minimum(m, BAND - m), 0.0, None)
    return float(np.sum(np.exp(-((m - CENTER) / WIDTH) ** 2) * tail(v)) * dm)


class TestEnvelopeOracles:
    @pytest.mark.parametrize("n", [400, 1000])
    def test_lorentzian_envelope_within_the_band_cut(self, n):
        # h(nu) = c^4 / (c^2 + nu^2)^2 is the square of the lorentzian
        # cross profile; on the whole line its Fourier transform is
        # F(t) = F0 env(t), env = (1 + ct) e^{-ct}, F0 = AMPLITUDE G pi c / 2
        # with G = WIDTH sqrt(pi) the mass of com^2.  The pairing is
        # f(t) = F0 env(t) + e(t), where e = r - E: E(t) is what the band
        # cuts off, |E(t)| <= E(0) = eps since the integrand is >= 0, and
        # r is the quadrature error.  So
        #   |f(t)/f(0) - env(t)| = |e(t) - env(t) e(0)| / f(0)
        #                        <= (eps + quad) (1 + env(t)) / f(0).
        # eps does not fall with n: the cut sits at the band edge.  The
        # integrand is smooth and the grid far finer than 1/c, so quad is
        # allowed 1e-6 of F0; r(0) is checked against it below.
        c = 0.5
        state, obs = family_pair("lorentzian", n, c)
        t = np.linspace(0.0, 6.0, 61)
        f = offdiag_contribution(state, obs, t)
        env = (1 + c * t) * np.exp(-c * t)

        def tail(v):
            x = v / c
            return c * (np.pi / 2 - np.arctan(x) - x / (1 + x * x))

        f0_line = AMPLITUDE * WIDTH * np.sqrt(np.pi) * np.pi * c / 2
        eps = AMPLITUDE * band_cut(tail)
        quad = 1e-6 * f0_line
        assert abs(f[0] - (f0_line - eps)) <= quad
        assert np.all(np.abs(f / f[0] - env) <= (eps + quad) * (1 + env) / f[0])

    @pytest.mark.parametrize("family, c", [("gaussian", 0.5),
                                           ("gaussian", 0.3),
                                           ("lorentzian", 0.5)])
    def test_short_time_curvature_is_the_second_moment(self, family, c):
        # Two routes to t_D's curvature, with no fit: -f''(0)/f(0) by
        # central differences of the pairing, and the second moment
        # <nu^2> of the cross kernel C >= 0, which the lag measure carries
        # as well.  With f(t) = sum C cos(nu t)
        # and 0 <= cos x - 1 + x^2/2 <= x^4/24 the difference quotient
        # lies in [<nu^2> - h^2 <nu^4> / 12, <nu^2>], up to roundoff:
        # each f sums N terms twice, of total size <= 1, so it is within
        # 2 N eps, and the quotient within 8 N eps / (h^2 f(0)).
        n, h = 400, 1e-2
        state, obs = family_pair(family, n, c)
        cross = cross_kernel(state, obs).real
        assert cross.min() >= 0
        nu = np.subtract.outer(state.grid.omega, state.grid.omega)
        m2 = np.sum(cross * nu ** 2) / np.sum(cross)
        lags, f = lag_measure(state, obs)
        assert abs(np.sum(f.real * lags ** 2) / np.sum(f.real) - m2) <= 1e-12
        trunc = h * h * np.sum(cross * nu ** 4) / np.sum(cross) / 12
        f_minus, f0, f_plus = offdiag_contribution(state, obs, [-h, 0.0, h])
        curvature = -(f_minus - 2 * f0 + f_plus) / (h * h * f0)
        roundoff = 8 * n * np.finfo(float).eps / (h * h * f0)
        assert -roundoff <= m2 - curvature <= trunc + roundoff
        if family == "lorentzian":
            # its <nu^2> is c^2 only on the whole line, and the band
            # cuts the heavy tails (0.2313 against 0.25): no equality
            return

        # h(nu) = exp(-nu^2 / (2 c^2)) has mass D = G c sqrt(2 pi) and
        # second moment N = c^2 D on the whole line.  The band cuts
        # D_out and N_out from them, so
        #   |<nu^2> - c^2| = |c^2 D_out - N_out| / (D - D_out)
        #                 <= (c^2 D_out + N_out) / (D - D_out).
        # The trapezoid error of the moments is allowed 1e-9 (it is
        # O(delta^2) on an integrand that vanishes at the band edges).
        def mass_tail(v):
            return c * np.sqrt(2 * np.pi) * erfc(v / (c * np.sqrt(2)))

        def moment_tail(v):
            return c * c * (mass_tail(v) + 2 * v * np.exp(-v * v / (2 * c * c)))

        d_line = WIDTH * np.sqrt(np.pi) * c * np.sqrt(2 * np.pi)
        d_out, n_out = band_cut(mass_tail), band_cut(moment_tail)
        tail = (c * c * d_out + n_out) / (d_line - d_out) + 1e-9
        assert abs(m2 - c * c) <= tail
        assert abs(curvature - c * c) <= tail + trunc + roundoff


# tile and block edges of the lag sums and the Hermiticity check (128)
EDGE_SIZES = [16, 127, 128, 129, 257, 400]


def bincount_lag_measure(state, obs):
    """The lag sums as one bincount over the flat C, the reference order."""
    n = state.grid.size
    cross = cross_kernel(state, obs)
    lag = np.subtract.outer(np.arange(n), np.arange(n)).ravel() + (n - 1)
    return (np.bincount(lag, cross.real.ravel(), 2 * n - 1)
            + 1j * np.bincount(lag, cross.imag.ravel(), 2 * n - 1))


def outer_family_kernel(grid, family, center, width, cross_width):
    """:func:`family_kernel` as whole-array expressions, the reference."""
    w = grid.omega
    mean = 0.5 * np.add.outer(w, w)
    diff = np.subtract.outer(w, w)
    com = np.exp(-((mean - center) ** 2) / (2 * width ** 2))
    if family == "gaussian":
        return com * np.exp(-(diff ** 2) / (4 * cross_width ** 2))
    return com / (1.0 + (diff / cross_width) ** 2)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedSums:
    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_lag_sums_are_the_bincount_bytes(self, n):
        # lag 0 and the far lags hold only -0.0 products, a band only
        # +0.0 ones: a column sum that did not start from +0.0, as
        # bincount does, would keep the sign of -0.0
        rng = np.random.default_rng(n)
        g = EnergyGrid.uniform(0.0, 10.0, n)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        rho = random_hermitian(rng, n)
        negative = (lag == 0) | (lag > n // 2)
        rho[negative] = complex(-0.0, 0.0)
        rho[lag == n // 4] = 0.0
        o = random_hermitian(rng, n)
        o[negative] = 1.0
        state = VanHoveState(g, uniform_state(g).diag, rho)
        obs = VanHoveObservable(g, g.omega.copy(), o)
        cross = cross_kernel(state, obs)
        assert np.all((cross.real[negative] == 0)
                      & np.signbit(cross.real[negative]))
        assert np.all(cross[lag == n // 4] == 0)
        nu, f = lag_measure(state, obs)
        want = bincount_lag_measure(state, obs)
        assert f.tobytes() == want.tobytes()
        assert_array_equal(nu, np.arange(1 - n, n) * (10.0 / (n - 1)))

    @pytest.mark.parametrize("family", ["gaussian", "lorentzian"])
    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_family_kernel_is_the_whole_array_bytes(self, n, family):
        g = EnergyGrid.uniform(0.0, 10.0, n)
        for args in ((5.0, 1.2, 0.5), (3.3, 0.7, 1.9)):
            got = family_kernel(g, family, *args)
            want = outer_family_kernel(g, family, *args)
            assert got.tobytes() == want.tobytes()

    def test_lag_sums_at_the_grid_cap_stay_in_blocks(self):
        # n = 2000: the flat lag index and a copy of C would take 122 MB
        state, obs = family_pair("lorentzian", 2000, 0.5)
        assert traced_peak(lambda: lag_measure(state, obs)) < 20e6


class TestPhaseSum:
    def test_matches_the_complex_exponential_sum(self):
        rng = np.random.default_rng(21)
        nu = rng.uniform(-20.0, 20.0, 57)
        weights = rng.normal(size=57) + 1j * rng.normal(size=57)
        ts = rng.uniform(-5.0, 30.0, (3, 4))
        direct = np.exp(-1j * np.multiply.outer(ts, nu)) @ weights
        got = phase_sum(nu, weights, ts)
        assert got.shape == ts.shape
        assert np.max(np.abs(got - direct)) <= 1e-12
        assert abs(phase_sum(nu, weights, ts[0, 0]) - direct[0, 0]) <= 1e-12

    def test_folds_mirrored_and_repeated_frequencies(self):
        # exact mirrors, a magnitude repeated on both sides, 0.0 and -0.0,
        # and an unpaired remainder: each |nu| takes one cos and sin
        rng = np.random.default_rng(23)
        pairs = rng.uniform(0.1, 20.0, 6)
        nu = np.concatenate([pairs, -pairs, [pairs[0], -pairs[1], -pairs[1]],
                             [0.0, -0.0, 0.0], rng.uniform(-20.0, 20.0, 5)])
        weights = rng.normal(size=nu.size) + 1j * rng.normal(size=nu.size)
        ts = rng.uniform(-5.0, 30.0, 41)
        direct = np.exp(-1j * np.multiply.outer(ts, nu)) @ weights
        assert np.max(np.abs(phase_sum(nu, weights, ts) - direct)) <= 1e-12

    @pytest.mark.parametrize("operand", ["nu", "weights", "t"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_refuses_a_non_finite_operand(self, operand, bad):
        ops = {"nu": np.array([-1.0, 0.5, 1.0]),
               "weights": np.array([0.2, 1.0j, 0.3]),
               "t": np.array([0.0, 2.0])}
        ops[operand] = np.where(np.arange(ops[operand].size) == 1, bad,
                                ops[operand])
        with pytest.raises(ValueError, match=f"{operand} has non-finite"):
            phase_sum(**ops)

    @pytest.mark.parametrize("nu, weights", [
        (np.ones(3), np.ones(4)), (np.ones((2, 2)), np.ones((2, 2))),
        (1.0, 1.0)], ids=["lengths", "2-d", "0-d"])
    def test_refuses_operands_not_1d_of_one_length(self, nu, weights):
        with pytest.raises(ValueError, match="1-d of one length"):
            phase_sum(nu, weights, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("route", ["expectation_sid",
                                       "offdiag_contribution",
                                       "spin_bath_reduced_dynamics"])
    def test_routes_refuse_a_non_finite_time(self, gaussian, route, bad):
        # unrefused, NaN came back silently and an infinite time gave NaN
        # with a RuntimeWarning
        calls = {
            "expectation_sid": lambda t: expectation_sid(*gaussian, t),
            "offdiag_contribution":
                lambda t: offdiag_contribution(*gaussian, t),
            "spin_bath_reduced_dynamics": lambda t: spin_bath_reduced_dynamics(
                SpinBathParams((0.8, 1.3, 0.5), (0.4, 1.1, 2.0)), [0.0, t]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t has non-finite"):
                calls[route](bad)
            calls[route](1.0)

    def test_sid_pairing_takes_one_cos_per_lag_magnitude(self, gaussian,
                                                         monkeypatch):
        # a 400-point grid has 799 lags, mirrored, so 400 magnitudes
        shapes, cos = [], np.cos

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", spy)
        expectation_sid(*gaussian, np.linspace(0.0, 4.0, 41))
        assert shapes == [(41, 400)]

    def test_spin_bath_coherence_is_a_pairing_over_a_lag_measure(self):
        # prod_k [cos(g_k t) - i cos(theta_k) sin(g_k t)] is the
        # characteristic function of Omega = sum_k s_k g_k, s_k = +1 with
        # probability cos^2(theta_k / 2): the EID coherence is a phase sum
        # over the distribution of Omega, weighted by a conj(b)
        rng = np.random.default_rng(17)
        n = 8
        g = rng.uniform(0.1, 1.5, n)
        theta = rng.uniform(0.0, np.pi, n)
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        params = SpinBathParams(tuple(g), tuple(theta), amp[0], amp[1])
        signs = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
        weights = np.prod(np.where(signs > 0, np.cos(theta / 2) ** 2,
                                   np.sin(theta / 2) ** 2), axis=1)
        ts = np.linspace(0.0, 12.0, 97)
        got = phase_sum(signs @ g, amp[0] * np.conj(amp[1]) * weights, ts)
        assert np.max(np.abs(got - spin_bath_coherence(params, ts))) <= 1e-12

    def test_largest_accepted_grid(self):
        # n = 2000 is the largest sid-kernel grid a config may ask for
        state, obs = family_pair("gaussian", 2000, 0.5)
        ts = np.linspace(0.0, 4.0, 41)
        f = offdiag_contribution(state, obs, ts)
        exact = f[0] * gaussian_envelope(ts)
        assert np.all(np.abs(f - exact) <= 1e-4 * np.abs(exact))
        # H has no regular kernel: its offdiag is a read-only zero view of
        # O(1) memory, where a complex n x n copy would take 64 MB
        tracemalloc.start()
        try:
            h = hamiltonian_observable(state.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert not h.offdiag.flags.writeable
        assert np.array_equal(expectation_sid(state, h, ts),
                              np.full(ts.shape, sid_limit(state, h)))


class TestWeakLimit:
    def test_uniform_mean(self):
        g = EnergyGrid.uniform(0.0, 2.0, 100)
        state = uniform_state(g)
        obs = VanHoveObservable(g, g.omega.copy())
        assert_allclose(sid_limit(state, obs), 1.0, atol=1e-12)

    def test_zero_diag_observable(self, gaussian):
        state, obs = gaussian
        zero = VanHoveObservable(state.grid, np.zeros(state.grid.size),
                                 obs.offdiag)
        assert sid_limit(state, zero) == 0.0

    def test_long_time_reaches_limit(self, gaussian):
        # t = 200/sigma, far beyond the decay scale (and folded by the
        # grid recurrence to an equally quiet effective time)
        state, obs = gaussian
        dev = abs(expectation_sid(state, obs, 400.0) - sid_limit(state, obs))
        assert dev <= 1e-6

    def test_tail_max_nonincreasing(self, gaussian):
        state, obs = gaussian
        lim = sid_limit(state, obs)
        tails = []
        for t_lo in (20.0, 40.0, 80.0):
            ts = np.linspace(t_lo, 2 * t_lo, 60)
            tails.append(max(abs(expectation_sid(state, obs, t) - lim)
                             for t in ts))
        noise = 1e-12
        for a, b in zip(tails, tails[1:]):
            assert b <= a + noise

    def test_revival_at_grid_recurrence_time(self, gaussian):
        # discretization honesty: at 2*pi/spacing the uniform-grid phases
        # re-align and the decayed contribution comes back in full
        state, obs = gaussian
        t_rec = state.grid.recurrence_window()
        revived = offdiag_contribution(state, obs, t_rec)
        assert abs(revived - offdiag_contribution(state, obs, 0.0)) <= 1e-6


class TestEnergy:
    def test_narrow_bump(self):
        g = EnergyGrid.uniform(0.0, 10.0, 801)
        bump = np.exp(-((g.omega - 6.0) ** 2) / (2 * 0.05 ** 2))
        bump /= float(np.sum(g.weights * bump))
        state = VanHoveState(g, bump)
        assert abs(sid_limit(state, hamiltonian_observable(g)) - 6.0) <= 1e-3

    def test_uniform_mean_energy(self):
        g = EnergyGrid.uniform(0.0, 1.0, 200)
        assert_allclose(sid_limit(uniform_state(g), hamiltonian_observable(g)),
                        0.5, atol=1e-12)

    def test_hamiltonian_pairing_is_exactly_the_limit(self, gaussian):
        # H has no regular kernel: its lag measure is exactly zero and
        # every sample is the diagonal quadrature itself
        state, _ = gaussian
        h = hamiltonian_observable(state.grid)
        ts = np.linspace(0.0, 100.0, 64)
        assert np.array_equal(expectation_sid(state, h, ts),
                              np.full(ts.shape, sid_limit(state, h)))

    def test_constancy_over_time_sweep(self, gaussian):
        state, _ = gaussian
        h = hamiltonian_observable(state.grid)
        e0 = sid_limit(state, h)
        vals = [expectation_sid(state, h, t) for t in np.linspace(0, 100, 64)]
        assert np.ptp(vals) <= 1e-12
        assert abs(vals[0] - e0) <= 1e-12

    def test_diag_never_evolves(self, gaussian):
        # no-dissipation statement at the level where it is literally
        # true: nothing in the pairing ever writes to diag(rho)
        state, _ = gaussian
        before = state.diag.copy()
        expectation_sid(state, hamiltonian_observable(state.grid), 37.0)
        assert np.array_equal(state.diag, before)


class TestSidProjector:
    def test_identity_on_vanhove(self, gaussian):
        _, obs = gaussian
        assert sid_projector(obs) is obs

    def test_drops_singular_keeps_regular(self, gaussian):
        state, obs = gaussian
        g = state.grid
        ridge = SingularRidge(offset=1.0, weight=np.ones(g.size))
        gen = GeneralKernelObservable(g, obs.diag, obs.offdiag, (ridge,))
        proj = sid_projector(gen)
        assert_allclose(proj.diag, obs.diag)
        assert_allclose(proj.offdiag, obs.offdiag)

    def test_pure_ridge_projects_to_zero(self):
        g = EnergyGrid.uniform(0.0, 1.0, 8)
        ridge = SingularRidge(offset=0.3, weight=np.ones(8))
        gen = GeneralKernelObservable(g, np.zeros(8), None, (ridge,))
        proj = sid_projector(gen)
        assert not np.any(proj.diag)
        assert not np.any(proj.offdiag)

    def test_hamiltonian_passes_unchanged(self):
        g = EnergyGrid.uniform(0.0, 5.0, 16)
        h = hamiltonian_observable(g)
        gen = GeneralKernelObservable(g, g.omega.copy())
        proj = sid_projector(gen)
        assert_allclose(proj.diag, h.diag)
        assert not np.any(proj.offdiag)

    def test_missing_kernel_stays_a_zero_view(self):
        # n = 2000: a complex n x n copy of the zero kernel would take 64 MB
        g = EnergyGrid.uniform(0.0, 5.0, 2000)
        gen = GeneralKernelObservable(g, g.omega)
        tracemalloc.start()
        try:
            proj = sid_projector(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert proj.offdiag.strides == (0, 0)
        assert not np.any(proj.offdiag)

    def test_idempotent(self, gaussian):
        _, obs = gaussian
        g = obs.grid
        gen = GeneralKernelObservable(
            g, obs.diag, obs.offdiag,
            (SingularRidge(0.0, np.ones(g.size)),))
        once = sid_projector(gen)
        assert sid_projector(once) is once

    def test_rejects_untagged_component(self):
        g = EnergyGrid.uniform(0.0, 1.0, 4)
        gen = GeneralKernelObservable(g, np.zeros(4), None,
                                      ("mystery blob",))
        with pytest.raises(UntaggedComponentError, match="declared"):
            sid_projector(gen)


class TestMeasurementRebuild:
    def test_lattice_on_grid_is_exact(self, gaussian):
        # resolution = 4 grid spacings: lattice nodes are grid points, so
        # the interpolant reproduces the readings there exactly
        state, obs = gaussian
        g = state.grid
        spacing = g.omega[1] - g.omega[0]
        gen = GeneralKernelObservable(g, obs.diag, obs.offdiag)
        built = build_vanhove_from_measurements(gen, 4 * spacing)
        assert_allclose(built.observable.offdiag[::4, ::4],
                        obs.offdiag[::4, ::4], atol=1e-12)

    def test_smooth_kernel_at_grid_resolution(self, gaussian):
        state, obs = gaussian
        spacing = state.grid.omega[1] - state.grid.omega[0]
        gen = GeneralKernelObservable(state.grid, obs.diag, obs.offdiag)
        built = build_vanhove_from_measurements(gen, spacing)
        a = expectation_sid(state, obs, 0.0)
        b = expectation_sid(state, built.observable, 0.0)
        assert abs(a - b) <= 1e-6

    def test_wave_packet_projector_indistinguishable(self, gaussian):
        # |z><z| from a normalized packet, instrument resolution 0.1 sigma
        state, _ = gaussian
        g = state.grid
        s_z = 1.0
        z = (np.pi * s_z ** 2) ** (-0.25) \
            * np.exp(-((g.omega - 5.0) ** 2) / (2 * s_z ** 2))
        exact = VanHoveObservable(g, np.zeros(g.size), np.outer(z, z))

        def kernel_fn(a, b):
            return (np.pi * s_z ** 2) ** (-0.5) * np.exp(
                -((a - 5.0) ** 2 + (b - 5.0) ** 2) / (2 * s_z ** 2))

        gen = GeneralKernelObservable(g, np.zeros(g.size), exact.offdiag)
        built = build_vanhove_from_measurements(gen, 0.1 * s_z,
                                                kernel_fn=kernel_fn)
        want = expectation_sid(state, exact, 0.0)
        got = expectation_sid(state, built.observable, 0.0)
        assert abs(got - want) <= 1e-3 * abs(want)
        assert built.error_bound >= abs(got - want)

    def test_halving_improves_first_order(self, gaussian):
        state, obs = gaussian
        g = state.grid
        gen = GeneralKernelObservable(g, np.zeros(g.size), obs.offdiag)
        exact = expectation_sid(
            state, VanHoveObservable(g, np.zeros(g.size), obs.offdiag), 0.0)
        errs = []
        for dw in (0.4, 0.2, 0.1, 0.05):
            built = build_vanhove_from_measurements(gen, dw)
            errs.append(abs(
                expectation_sid(state, built.observable, 0.0) - exact))
        for worse, finer in zip(errs, errs[1:]):
            assert finer <= worse / 2 + 1e-12

    def test_rejects_resolution_wider_than_span(self, gaussian):
        state, obs = gaussian
        gen = GeneralKernelObservable(state.grid, obs.diag, obs.offdiag)
        with pytest.raises(ValueError, match="span"):
            build_vanhove_from_measurements(gen, 11.0)

    def test_rejects_nonpositive_resolution(self, gaussian):
        state, obs = gaussian
        gen = GeneralKernelObservable(state.grid, obs.diag, obs.offdiag)
        with pytest.raises(ValueError, match="positive"):
            build_vanhove_from_measurements(gen, 0.0)


class TestDiscretizedOracle:
    def test_matches_pairing_at_random_times(self, gaussian):
        state, obs = gaussian
        rng = np.random.default_rng(8)
        ts = rng.uniform(0.0, 80.0, 20)
        for t, batched in zip(ts, expectation_sid(state, obs, ts)):
            want = discretized_unitary_oracle(state, obs, t)
            assert abs(expectation_sid(state, obs, t) - want) <= 1e-8
            assert abs(batched - want) <= 1e-8

    def test_matches_oracle_on_independent_complex_kernels(
            self, complex_pair):
        # the product of the two kernels is complex, so a pairing that ran
        # time backwards would be off by O(1)
        state, obs = complex_pair
        ts = np.array([0.0, 0.4, 1.3, 2.9, 7.0])
        want = np.array([discretized_unitary_oracle(state, obs, t)
                         for t in ts])
        backwards = np.array([discretized_unitary_oracle(state, obs, -t)
                              for t in ts])
        assert np.max(np.abs(want - backwards)) > 0.1
        assert np.max(np.abs(expectation_sid(state, obs, ts) - want)) <= 1e-12
        for t, w in zip(ts, want):
            assert abs(expectation_sid(state, obs, t) - w) <= 1e-12

    def test_matches_oracle_with_a_zero_real_cross_kernel(self):
        # an imaginary antisymmetric state kernel against a real symmetric
        # observable kernel: the real part of the cross kernel is exactly
        # zero and only the imaginary part is summed
        rng = np.random.default_rng(12)
        g = EnergyGrid.uniform(0.0, 10.0, 90)
        a = rng.normal(size=(g.size, g.size))
        state = VanHoveState(g, uniform_state(g).diag, 1j * (a - a.T))
        obs = VanHoveObservable(g, g.omega.copy(), a + a.T)
        cross = cross_kernel(state, obs)
        assert not np.any(cross.real) and np.any(cross.imag)
        ts = np.array([0.0, 0.6, 2.2, 5.0])
        got = expectation_sid(state, obs, ts)
        residues = phase_sum(*lag_measure(state, obs), ts).imag
        want = [discretized_unitary_oracle(state, obs, t) for t in ts]
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got[1:] - got[0])) > 0.1
        assert np.max(np.abs(residues)) <= 1e-10

    def test_t0_plain_quadrature(self, gaussian):
        state, obs = gaussian
        assert_allclose(discretized_unitary_oracle(state, obs, 0.0),
                        expectation_sid(state, obs, 0.0), atol=1e-12)

    def test_diagonal_only_constant(self):
        g = EnergyGrid.uniform(0.0, 2.0, 50)
        state = uniform_state(g)
        obs = VanHoveObservable(g, np.cos(g.omega))
        vals = [discretized_unitary_oracle(state, obs, t)
                for t in (0.0, 3.0, 11.0)]
        assert np.ptp(vals) == 0.0

    def test_cap_enforced(self):
        g = EnergyGrid.uniform(0.0, 1.0, ORACLE_GRID_CAP + 1)
        state = uniform_state(g)
        obs = VanHoveObservable(g, g.omega.copy())
        with pytest.raises(ValueError, match="capped"):
            discretized_unitary_oracle(state, obs, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, gaussian, t):
        state, obs = gaussian
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\bt = .* is not finite"):
                discretized_unitary_oracle(state, obs, t)

    def test_matches_the_matrix_product_form_on_a_non_uniform_grid(self):
        rng = np.random.default_rng(31)
        g = EnergyGrid(np.sort(rng.uniform(0.0, 10.0, 150)))
        diag = np.exp(-(g.omega - 5.0) ** 2)
        state = VanHoveState(g, diag / float(np.sum(g.weights * diag)),
                             random_hermitian(rng, g.size))
        obs = VanHoveObservable(g, rng.normal(size=g.size),
                                random_hermitian(rng, g.size))
        sq = np.sqrt(g.weights)
        rho_kern = np.outer(sq, sq) * state.offdiag
        obs_kern = np.outer(sq, sq) * obs.offdiag
        for t in (0.0, 0.7, -2.3, 9.1):
            phase = np.exp(-1j * t * np.subtract.outer(g.omega, g.omega))
            want = float((np.trace(np.diag(g.weights * state.diag)
                                   @ np.diag(obs.diag))
                          + np.trace((rho_kern * phase) @ obs_kern)).real)
            got = discretized_unitary_oracle(state, obs, t)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_no_n_by_n_temporaries(self, gaussian):
        # at N = 400 an N x N complex phase matrix alone takes 2.6 MB
        state, obs = gaussian
        assert traced_peak(
            lambda: discretized_unitary_oracle(state, obs, 1.3)) < 1e6


class TestKernelDiagnostics:
    def test_table_kernel_round_trip(self, tmp_path):
        g = EnergyGrid.uniform(0.0, 1.0, 4)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        kern = 0.5 * (a + a.conj().T)
        path = tmp_path / "kernel.csv"
        rows = []
        for i in range(4):
            for j in range(4):
                rows.append(f"{float(g.omega[i])!r},{float(g.omega[j])!r},"
                            f"{float(kern[i, j].real)!r},{float(kern[i, j].imag)!r}")
        path.write_text("\n".join(rows) + "\n")
        assert_allclose(load_table_kernel(path, g), kern, atol=1e-15)

    def test_table_kernel_incomplete_rejected(self, tmp_path):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        path = tmp_path / "kernel.csv"
        path.write_text("0.0,0.0,1.0,0.0\n")
        with pytest.raises(ValueError, match="incomplete"):
            load_table_kernel(path, g)

    def test_table_kernel_duplicate_rejected(self, tmp_path):
        # complete, but (0, 0) is given twice: no row may silently win
        g = EnergyGrid.uniform(0.0, 1.0, 2)
        path = tmp_path / "kernel.csv"
        path.write_text("0.0,0.0,1.0,0.0\n0.0,1.0,0.0,0.0\n"
                        "1.0,0.0,0.0,0.0\n1.0,1.0,1.0,0.0\n"
                        "0.0,0.0,2.0,0.0\n")
        with pytest.raises(ValueError, match="more than once"):
            load_table_kernel(path, g)

    def test_table_kernel_needs_four_columns(self, tmp_path):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        path = tmp_path / "kernel.csv"
        path.write_text("0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="4 columns"):
            load_table_kernel(path, g)

    def test_table_kernel_empty_rejected_without_warning(self, tmp_path):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        path = tmp_path / "kernel.csv"
        path.write_text("# omega, omega', re, im\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kernel.csv: empty table"):
                load_table_kernel(path, g)

    def test_table_kernel_off_grid_rejected(self, tmp_path):
        g = EnergyGrid.uniform(0.0, 1.0, 3)
        path = tmp_path / "kernel.csv"
        for row in ("0.77,0.0,1.0,0.0", "nan,0.0,1.0,0.0"):
            path.write_text(row + "\n")
            with pytest.raises(ValueError, match="grid point"):
                load_table_kernel(path, g)
