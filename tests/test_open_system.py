"""Open-system route: lifting, tracing, projector, spin-bath scenario."""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import decolab
from decolab.liouville import (
    DimensionMismatchError,
    coarse_grain,
    pairing,
    projector_defect,
    vec,
    unvec,
)
from decolab.open_system import (
    SPIN_CAP,
    ResourceCapError,
    SpinBathParams,
    coarse_state_eid,
    eid_projector,
    evolve_unitary,
    lift_observable,
    partial_trace,
    preferred_basis,
    purity,
    spin_bath_coherence,
    spin_bath_hamiltonian_diagonal,
    spin_bath_initial_vector,
    spin_bath_recurrence_window,
    spin_bath_reduced_dynamics,
    spin_bath_scenario,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def kron_oracle(a, b):
    # explicit four-index Kronecker, no library call
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for al in range(db):
                for be in range(db):
                    out[i * db + al, j * db + be] = a[i, j] * b[al, be]
    return out


def partial_trace_oracle(rho, ds, de):
    out = np.zeros((ds, ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            for al in range(de):
                out[i, j] += rho[i * de + al, j * de + al]
    return out


def rk4_commutator(rho0, h, t_final, steps):
    # fixed-step 4th-order integration of drho/dt = -i[H, rho]
    def f(r):
        return -1j * (h @ r - r @ h)

    dt = t_final / steps
    r = rho0.astype(complex).copy()
    for _ in range(steps):
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        r = r + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


class TestLift:
    def test_identity_lifts_to_identity(self):
        assert_allclose(lift_observable(np.eye(2), 2), np.eye(4))

    def test_sigma_z_lift(self):
        assert_allclose(lift_observable(SZ, 2), np.diag([1, 1, -1, -1.0]))

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(12)
        o = random_hermitian(rng, 3)
        assert np.array_equal(lift_observable(o, 2), kron_oracle(o, np.eye(2)))

    def test_trace_scales_by_dim_e(self):
        rng = np.random.default_rng(13)
        o = random_hermitian(rng, 3)
        assert_allclose(np.trace(lift_observable(o, 4)), 4 * np.trace(o),
                        atol=1e-12)

    @pytest.mark.parametrize("o", [np.array([1.0, 2.0]), np.zeros((3, 4)),
                                   np.zeros((2, 3, 3))],
                             ids=["1-d", "3x4", "stacked"])
    def test_refuses_non_matrix(self, o):
        with pytest.raises(DimensionMismatchError, match="not square"):
            lift_observable(o, 2)


class TestPartialTrace:
    def test_bell_state_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert_allclose(partial_trace(rho, 2, 2), np.eye(2) / 2, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(20)
        rho_s = random_density(rng, 2)
        rho_e = random_density(rng, 3)
        assert_allclose(partial_trace(np.kron(rho_s, rho_e), 2, 3), rho_s,
                        atol=1e-14)

    def test_matches_four_index_oracle(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 6)
        assert_allclose(partial_trace(rho, 2, 3),
                        partial_trace_oracle(rho, 2, 3), atol=1e-13)

    def test_preserves_trace(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 6)
        assert_allclose(np.trace(partial_trace(rho, 3, 2)), 1.0, atol=1e-12)

    def test_rejects_bad_factorization(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6) / 6, 2, 2)


class TestEidProjector:
    def test_idempotent_and_hermitian(self):
        p = eid_projector(2, 2)
        assert projector_defect(p) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-13

    def test_product_state_pairing(self):
        rng = np.random.default_rng(30)
        rho_s = random_density(rng, 2)
        rho_e = random_density(rng, 2)
        rho_g = coarse_grain(np.kron(rho_s, rho_e), eid_projector(2, 2))
        assert_allclose(rho_g.pair(lift_observable(SZ, 2)),
                        pairing(rho_s, SZ), atol=1e-12)

    def test_pairing_equality_random(self):
        # coarse-graining must preserve every lifted pairing
        rng = np.random.default_rng(31)
        p = eid_projector(2, 3)
        worst = 0.0
        for _ in range(20):
            rho = random_density(rng, 6)
            o_s = random_hermitian(rng, 2)
            o_r = lift_observable(o_s, 3)
            dev = abs(coarse_grain(rho, p).pair(o_r) - pairing(rho, o_r))
            worst = max(worst, dev)
        assert worst <= 1e-10

    def test_action_is_trace_then_lift(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng, 6)
        rho_g = coarse_grain(rho, eid_projector(2, 3))
        expected = coarse_state_eid(partial_trace(rho, 2, 3), 3)
        assert_allclose(rho_g.matrix, expected, atol=1e-12)


class TestCoarseStateEid:
    def test_maximally_mixed(self):
        assert_allclose(coarse_state_eid(np.eye(2) / 2, 2), np.eye(4) / 4)

    def test_pure_system_spread_over_environment(self):
        rho_s = np.diag([1.0, 0.0]).astype(complex)
        expected = np.diag([1 / 3, 1 / 3, 1 / 3, 0, 0, 0])
        assert_allclose(coarse_state_eid(rho_s, 3), expected, atol=1e-15)

    def test_reproduces_reduced_expectations(self):
        rng = np.random.default_rng(40)
        rho_s = random_density(rng, 2)
        o_s = random_hermitian(rng, 2)
        val = pairing(coarse_state_eid(rho_s, 3), lift_observable(o_s, 3))
        assert_allclose(val, pairing(rho_s, o_s), atol=1e-12)


class TestEvolveUnitary:
    def test_stationary_state(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        rho0 = np.diag([0.25, 0.75]).astype(complex)
        for rho_t in evolve_unitary(rho0, h, [0.0, 1.0, 7.3]):
            assert_allclose(rho_t, rho0, atol=1e-14)

    def test_free_precession_phase(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        times = [0.0, 0.5, 1.0, 2.0]
        series = evolve_unitary(plus, SZ / 2, times)
        for t, rho_t in zip(times, series):
            assert_allclose(rho_t[0, 1], 0.5 * np.exp(-1j * t), atol=1e-12)
            assert_allclose(abs(rho_t[0, 1]), 0.5, atol=1e-12)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(50)
        h = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        for t in (2.5, 10.0):
            exact = evolve_unitary(rho0, h, [t])[0]
            stepped = rk4_commutator(rho0, h, t, steps=int(4000 * t))
            assert np.max(np.abs(exact - stepped)) <= 1e-8

    def test_preserves_trace_and_spectrum(self):
        rng = np.random.default_rng(51)
        h = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        ev0 = np.sort(np.linalg.eigvalsh(rho0))
        for rho_t in evolve_unitary(rho0, h, [0.7, 3.1, 9.9]):
            assert_allclose(np.trace(rho_t), 1.0, atol=1e-10)
            assert_allclose(np.sort(np.linalg.eigvalsh(rho_t)), ev0, atol=1e-10)


    def test_broadcast_matches_per_time_loop(self):
        rng = np.random.default_rng(52)
        h = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        times = np.linspace(0.0, 9.0, 13)
        evals, vecs = np.linalg.eigh(h)
        rho_eig = vecs.conj().T @ rho0 @ vecs
        looped = []
        for t in times:
            phase = np.exp(-1j * evals * t)
            looped.append(vecs @ (np.outer(phase, phase.conj()) * rho_eig)
                          @ vecs.conj().T)
        np.testing.assert_array_equal(evolve_unitary(rho0, h, times), looped)
        # the result keeps the shape of times: a scalar, a (2, 3) grid
        np.testing.assert_array_equal(evolve_unitary(rho0, h, times[5]),
                                      looped[5])
        grid = evolve_unitary(rho0, h, times[:6].reshape(2, 3))
        assert grid.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(grid.reshape(6, 4, 4), looped[:6])

    def test_purity_of_stack_matches_each_state(self):
        rng = np.random.default_rng(53)
        stack = np.array([random_density(rng, 3) for _ in range(5)])
        np.testing.assert_array_equal(purity(stack),
                                      [purity(rho) for rho in stack])


class TestSpinBathParams:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="expected 1"):
            SpinBathParams(couplings=(1.0,), angles=(0.0,),
                           amplitude_0=1.0, amplitude_1=1.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="couplings"):
            SpinBathParams(couplings=(1.0, 2.0), angles=(0.0,))

    def test_rejects_nan_amplitude(self):
        # |a|^2 + |b|^2 is NaN, which no "> tol" comparison catches
        with pytest.raises(ValueError, match="expected 1"):
            SpinBathParams(couplings=(1.0,), angles=(0.0,),
                           amplitude_0=np.nan, amplitude_1=1.0)

    @pytest.mark.parametrize("field", ["couplings", "angles"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_couplings_and_angles(self, field, bad):
        values = {"couplings": (1.0, 0.5), "angles": (0.2, 1.1)}
        values[field] = (values[field][0], bad)
        with pytest.raises(ValueError,
                           match="couplings and angles must be finite"):
            SpinBathParams(**values)


class TestSpinBathScenario:
    def test_hamiltonian_diagonal_matches_kron_sum(self):
        # n=2 small case: H = g1/2 sz x sz x I + g2/2 sz x I x sz
        params = SpinBathParams(couplings=(0.7, 1.3), angles=(0.2, 1.1))
        h = 0.35 * np.kron(SZ, np.kron(SZ, np.eye(2))) \
            + 0.65 * np.kron(SZ, np.kron(np.eye(2), SZ))
        assert_allclose(spin_bath_hamiltonian_diagonal(params), np.diag(h).real,
                        atol=1e-14)
        # n=3 random couplings, H summed term by term from np.kron: pins
        # the bit order of the bath enumeration (spin 0 most significant)
        g = np.random.default_rng(66).uniform(-1.5, 1.5, 3)
        params = SpinBathParams(couplings=tuple(g), angles=(0.0,) * 3)
        h = np.zeros((16, 16), dtype=complex)
        for k in range(3):
            factors = [SZ] + [SZ if j == k else np.eye(2) for j in range(3)]
            h += 0.5 * g[k] * functools.reduce(np.kron, factors)
        assert_allclose(spin_bath_hamiltonian_diagonal(params), np.diag(h).real,
                        rtol=0, atol=1e-14)

    def test_initial_vector_matches_kron_product(self):
        # one np.kron per factor, system first: pins the bit order of the
        # bath amplitudes that the reduced route squares into Born weights
        th = np.random.default_rng(69).uniform(0, np.pi, 3)
        params = SpinBathParams(couplings=(1.0,) * 3, angles=tuple(th),
                                amplitude_0=0.6, amplitude_1=0.8j)
        factors = [np.array([0.6, 0.8j])] + [
            np.array([np.cos(x / 2), np.sin(x / 2)]) for x in th]
        assert_allclose(spin_bath_initial_vector(params),
                        functools.reduce(np.kron, factors), rtol=0, atol=1e-15)

    def test_bath_in_z_eigenstate_keeps_coherence_modulus(self):
        params = SpinBathParams(couplings=(1.0,), angles=(0.0,))
        t = np.linspace(0, 10, 50)
        coh = spin_bath_coherence(params, t)
        assert_allclose(np.abs(coh), 0.5, atol=1e-12)

    def test_closed_form_matches_dense_simulation(self):
        rng = np.random.default_rng(60)
        n = 8
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, n)),
            angles=(np.pi / 2,) * n,
        )
        h, rho0 = spin_bath_scenario(params)
        times = np.linspace(0.0, 6.0, 40)
        series = evolve_unitary(rho0, h, times)
        coh = spin_bath_coherence(params, times)
        envelope = 0.5 * np.prod(
            np.abs(np.cos(np.outer(times, params.couplings))), axis=1)
        for k in range(len(times)):
            rho_s = partial_trace(series[k], 2, 2 ** n)
            assert abs(rho_s[0, 1] - coh[k]) <= 1e-10
            assert abs(abs(rho_s[0, 1]) - envelope[k]) <= 1e-10

    def test_reduced_dynamics_matches_dense_path(self):
        # the dense route reads spin_bath_hamiltonian_diagonal, so this pins
        # the bit order of the Kronecker-built phase; n = 1 leaves one
        # half-bath table empty, and unsorted, non-uniform times check that
        # each time keeps its own row
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 7):
            params = SpinBathParams(
                couplings=tuple(rng.uniform(0.5, 1.5, n)),
                angles=tuple(rng.uniform(0, np.pi, n)),
                amplitude_0=np.sqrt(0.7),
                amplitude_1=np.sqrt(0.3) * np.exp(0.4j),
            )
            h, rho0 = spin_bath_scenario(params)
            times = np.concatenate([np.linspace(0.0, 5.0, 20),
                                    rng.uniform(0.0, 8.0, 10)])
            dense = evolve_unitary(rho0, h, times)
            reduced = spin_bath_reduced_dynamics(params, times)
            for k in range(len(times)):
                gap = reduced[k] - partial_trace(dense[k], 2, 2 ** n)
                assert np.max(np.abs(gap)) <= 1e-12

    def test_reduced_dynamics_at_cap_matches_closed_form(self):
        rng = np.random.default_rng(62)
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, SPIN_CAP)),
            angles=tuple(rng.uniform(0, np.pi, SPIN_CAP)),
            amplitude_0=np.sqrt(0.7), amplitude_1=np.sqrt(0.3),
        )
        times = np.linspace(0.0, 40.0, 50)
        series = spin_bath_reduced_dynamics(params, times)
        coh = spin_bath_coherence(params, times)
        assert np.max(np.abs(series[:, 0, 1] - coh)) <= 1e-10
        assert np.max(np.abs(series[:, 0, 0] - 0.7)) <= 1e-12
        assert np.max(np.abs(series[:, 1, 1] - 0.3)) <= 1e-12

    def test_reduced_dynamics_at_largest_eid_config(self):
        # the benchmark's largest eid-spin-bath run (14 spins, 2000 samples
        # on t <= 8, random angles), here with a complex b
        rng = np.random.default_rng(68)
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, SPIN_CAP)),
            angles=tuple(rng.uniform(0, np.pi, SPIN_CAP)),
            amplitude_0=np.sqrt(0.55),
            amplitude_1=np.sqrt(0.45) * np.exp(0.9j),
        )
        times = np.linspace(0.0, 8.0, 2000)
        series = spin_bath_reduced_dynamics(params, times)
        coh = spin_bath_coherence(params, times)
        assert np.max(np.abs(series[:, 0, 1] - coh)) <= 1e-10
        # the populations are |a|^2 and |b|^2 bit for bit at every sample
        for i, amp in enumerate((params.amplitude_0, params.amplitude_1)):
            assert np.array_equal(series[:, i, i], np.full(2000, abs(amp) ** 2))
        # a = 1, b = 0: the coherence is exactly 0, not roundoff
        series = spin_bath_reduced_dynamics(
            SpinBathParams(couplings=params.couplings, angles=params.angles,
                           amplitude_0=1.0, amplitude_1=0.0), times)
        assert np.array_equal(series, np.broadcast_to(np.diag([1.0, 0.0]),
                                                      (2000, 2, 2)))

    def test_reduced_dynamics_odd_bath_complex_amplitude(self):
        # 13 spins split into unequal half-bath tables (6 and 7 spins)
        rng = np.random.default_rng(63)
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, 13)),
            angles=tuple(rng.uniform(0, np.pi, 13)),
            amplitude_0=np.sqrt(0.6),
            amplitude_1=np.sqrt(0.4) * np.exp(-1.1j),
        )
        times = np.linspace(0.0, 30.0, 40)
        series = spin_bath_reduced_dynamics(params, times)
        coh = spin_bath_coherence(params, times)
        assert np.max(np.abs(series[:, 0, 1] - coh)) <= 1e-10
        assert np.max(np.abs(series[:, 0, 0] - 0.6)) <= 1e-12
        assert np.max(np.abs(series[:, 1, 1] - 0.4)) <= 1e-12

    def test_reduced_dynamics_on_a_degenerate_bath(self):
        # 8 equal couplings: Omega takes 9 values, each half bath 5, so the
        # phase sums fold many bit strings onto each |Omega|
        rng = np.random.default_rng(69)
        params = SpinBathParams(
            couplings=(0.7,) * 8,
            angles=tuple(rng.uniform(0, np.pi, 8)),
            amplitude_0=np.sqrt(0.35),
            amplitude_1=np.sqrt(0.65) * np.exp(0.4j),
        )
        times = np.linspace(0.0, 25.0, 120)
        series = spin_bath_reduced_dynamics(params, times)
        coh = spin_bath_coherence(params, times)
        assert np.max(np.abs(series[:, 0, 1] - coh)) <= 1e-12

    def test_half_bath_takes_one_cos_per_energy_magnitude(self, monkeypatch):
        # a 7-spin half bath has 128 energies in +/- pairs: 64 magnitudes
        rng = np.random.default_rng(70)
        params = SpinBathParams(couplings=tuple(rng.uniform(0.5, 1.5, 14)),
                                angles=tuple(rng.uniform(0, np.pi, 14)))
        shapes, cos = [], np.cos

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", spy)
        spin_bath_reduced_dynamics(params, np.linspace(0.0, 8.0, 300))
        assert [s for s in shapes if len(s) == 2] == [(300, 64)] * 2

    def test_reduced_dynamics_is_exactly_hermitian(self):
        rng = np.random.default_rng(64)
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, 9)),
            angles=tuple(rng.uniform(0, np.pi, 9)),
            amplitude_0=np.sqrt(0.3),
            amplitude_1=np.sqrt(0.7) * np.exp(2.0j),
        )
        series = spin_bath_reduced_dynamics(params, rng.uniform(0, 20, 64))
        assert np.array_equal(series[:, 1, 0], series[:, 0, 1].conj())
        assert np.array_equal(series[:, 0, 0].imag, np.zeros(64))
        assert np.array_equal(series[:, 1, 1].imag, np.zeros(64))

    def test_reduced_dynamics_bytes_do_not_depend_on_blas_threads(self):
        # a 14-spin, 200-time call in children with one and two BLAS
        # threads: a reduction whose order follows the thread count
        # would change the last bits
        code = (
            "import hashlib, numpy as np\n"
            "from decolab.open_system import SpinBathParams, "
            "spin_bath_reduced_dynamics\n"
            "rng = np.random.default_rng(65)\n"
            "p = SpinBathParams(couplings=rng.uniform(0.5, 1.5, 14), "
            "angles=rng.uniform(0, np.pi, 14))\n"
            "out = spin_bath_reduced_dynamics(p, np.linspace(0, 12, 200))\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = str(Path(decolab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, timeout=120,
                                 capture_output=True, text=True)
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_reduced_dynamics_keeps_the_shape_of_times(self):
        params = SpinBathParams(couplings=(0.8, 1.2, 0.6),
                                angles=(0.3, 1.0, 2.0))
        times = np.array([[0.0, 0.5, 1.0], [1.5, 4.0, 9.0]])
        grid = spin_bath_reduced_dynamics(params, times)
        assert grid.shape == (2, 3, 2, 2)
        flat = spin_bath_reduced_dynamics(params, times.ravel())
        assert_allclose(grid.reshape(6, 2, 2), flat, rtol=0, atol=1e-15)
        one = spin_bath_reduced_dynamics(params, 1.5)
        assert one.shape == (2, 2)
        assert_allclose(one, grid[1, 0], rtol=0, atol=1e-15)
        assert spin_bath_reduced_dynamics(params, []).shape == (0, 2, 2)

    def test_diagonals_constant(self):
        params = SpinBathParams(
            couplings=(0.8, 1.2, 0.6), angles=(np.pi / 2,) * 3,
            amplitude_0=np.sqrt(0.7), amplitude_1=np.sqrt(0.3),
        )
        series = spin_bath_reduced_dynamics(params, np.linspace(0, 20, 60))
        assert np.max(np.abs(series[:, 0, 0] - 0.7)) <= 1e-12
        assert np.max(np.abs(series[:, 1, 1] - 0.3)) <= 1e-12
        # a diagonal H cannot move the populations: equal bit for bit
        assert np.array_equal(series[:, 0, 0], np.full(60, series[0, 0, 0]))
        assert np.array_equal(series[:, 1, 1], np.full(60, series[0, 1, 1]))

    def test_purity_strictly_drops_with_bath_superposition(self):
        params = SpinBathParams(couplings=(1.0,) * 4, angles=(np.pi / 2,) * 4)
        series = spin_bath_reduced_dynamics(params, [0.0, 0.1])
        assert purity(series[1]) < purity(series[0]) - 1e-4

    def test_spin_cap_enforced(self):
        params = SpinBathParams(couplings=(1.0,) * 15, angles=(0.0,) * 15)
        with pytest.raises(ResourceCapError, match="cap"):
            spin_bath_reduced_dynamics(params, [0.0])

    def test_dense_cap_points_to_phase_sum_route(self):
        params = SpinBathParams(couplings=(1.0,) * 12, angles=(0.0,) * 12)
        with pytest.raises(ResourceCapError,
                           match="reduced_dynamics .half-bath phase-sum"):
            spin_bath_scenario(params)

    def test_recurrence_window_single_spin(self):
        assert_allclose(spin_bath_recurrence_window((2.0,)), np.pi / 2)

    def test_recurrence_window_commensurate(self):
        # g = (1, 2): signed sums {-3,-1,1,3}, min gap 2, window pi
        assert_allclose(spin_bath_recurrence_window((1.0, 2.0)), np.pi)

    def test_recurrence_window_random_couplings(self):
        # n=6: the minimal gap of every signed sum, enumerated directly
        g = np.random.default_rng(67).uniform(0.5, 1.5, 6)
        sums = np.unique([np.dot(z, g)
                          for z in itertools.product((1.0, -1.0), repeat=6)])
        assert_allclose(spin_bath_recurrence_window(tuple(g)),
                        2 * np.pi / np.min(np.diff(sums)), rtol=1e-12)

    @pytest.mark.parametrize("couplings", [(1.0, np.nan), (np.inf, 1.0)],
                             ids=["nan", "inf"])
    def test_recurrence_window_refuses_non_finite_couplings(self, couplings):
        # unrefused, a NaN gap reads as "no recurrence" (inf) and an
        # infinite one as a window of 0
        with pytest.raises(ValueError, match="couplings must be finite"):
            spin_bath_recurrence_window(couplings)


class TestPreferredBasis:
    def test_diagonal_state_sorted(self):
        pb = preferred_basis(np.diag([0.2, 0.5, 0.3]).astype(complex))
        assert_allclose(pb.eigenvalues, [0.5, 0.3, 0.2], atol=1e-14)
        assert not pb.degenerate
        # eigenvector of the top population is e_1
        assert_allclose(np.abs(pb.eigenvectors[:, 0]), [0, 1, 0], atol=1e-12)

    def test_maximally_mixed_flags_degenerate(self):
        pb = preferred_basis(np.eye(2) / 2)
        assert pb.degenerate

    def test_reconstruction(self):
        rng = np.random.default_rng(70)
        rho = random_density(rng, 4)
        pb = preferred_basis(rho)
        rebuilt = pb.eigenvectors @ np.diag(pb.eigenvalues) @ pb.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - rho)) <= 1e-10

    def test_spin_bath_pointer_basis_is_sigma_z(self):
        # after the coherence has decayed, the instantaneous eigenbasis of
        # rho_S sits on the sigma_z basis except during rare revival spikes
        rng = np.random.default_rng(71)
        n = 12
        params = SpinBathParams(
            couplings=tuple(rng.uniform(0.5, 1.5, n)),
            angles=(np.pi / 2,) * n,
            amplitude_0=np.sqrt(0.7), amplitude_1=np.sqrt(0.3),
        )
        times = np.linspace(5.0, 12.0, 60)
        series = spin_bath_reduced_dynamics(params, times)
        devs = []
        for rho_s in series:
            pb = preferred_basis(rho_s)
            overlap = abs(pb.eigenvectors[0, 0])  # top vector vs |0>
            devs.append(1.0 - overlap)
        devs = np.array(devs)
        assert np.median(devs) <= 1e-3
        assert np.mean(devs <= 1e-3) >= 0.8
