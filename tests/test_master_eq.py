"""Projected Liouville equation, P/Q memory route, dissipative toy."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag, expm

import decolab
from decolab import master_eq
from decolab.liouville import (
    DimensionMismatchError,
    biorthogonalize,
    build_projector,
    coarse_grain,
    diagonal_projector,
    state_map,
    vec,
    unvec,
)
from decolab.master_eq import (
    Liouvillian,
    build_liouvillian,
    defect,
    dissipative_toy,
    evolve_linear_generator,
    evolve_master_exact,
    evolve_nakajima_zwanzig,
    memory_kernel,
    _pq_system,
)
from decolab.open_system import eid_projector, evolve_unitary


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


class TestLiouvillian:
    def test_identity_hamiltonian_gives_zero(self):
        lv = build_liouvillian(np.eye(3))
        assert np.max(np.abs(lv.superop)) == 0.0

    def test_diagonal_hamiltonian_bohr_spectrum(self):
        w = np.array([0.0, 1.0, 2.5])
        lv = build_liouvillian(np.diag(w))
        expected = np.sort(np.subtract.outer(w, w).ravel())
        assert_allclose(np.sort(lv.spectrum()), expected, atol=1e-12)

    def test_action_matches_commutator_oracle(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 3)
        lv = build_liouvillian(h)
        for _ in range(20):
            rho = random_density(rng, 3)
            assert np.max(np.abs(
                unvec(lv.superop @ vec(rho)) - (h @ rho - rho @ h))) <= 1e-13

    def test_annihilates_identity(self):
        rng = np.random.default_rng(2)
        lv = build_liouvillian(random_hermitian(rng, 4))
        assert np.max(np.abs(lv.superop @ vec(np.eye(4)))) <= 1e-10

    def test_spectrum_real(self):
        rng = np.random.default_rng(3)
        lv = build_liouvillian(random_hermitian(rng, 3))
        full = np.linalg.eigvals(lv.superop)
        assert np.max(np.abs(full.imag)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(Exception):
            Liouvillian(np.zeros((3, 4)))


class TestDefect:
    def test_identity_projector_commutes(self):
        rng = np.random.default_rng(4)
        lv = build_liouvillian(random_hermitian(rng, 3))
        assert np.linalg.norm(defect(np.eye(9), lv)) <= 1e-12

    def test_diagonal_projector_diagonal_hamiltonian(self):
        lv = build_liouvillian(np.diag([0.3, 1.1, 2.2]))
        assert np.linalg.norm(defect(diagonal_projector(3), lv)) <= 1e-12

    def test_eid_projector_with_coupling(self):
        # sigma_x x sigma_x coupling does not commute with tracing out E
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        h = np.kron(sx, sx)
        lv = build_liouvillian(h)
        n = defect(eid_projector(2, 2), lv)
        assert np.linalg.norm(n) > 1e-6
        pi = eid_projector(2, 2)
        assert np.max(np.abs(pi @ lv.superop - (lv.superop @ pi + n))) \
            <= 1e-13


def eid_fixture(rng, dim_s, dim_e, coupling=0.8):
    # local terms plus a random Hermitian coupling: N != 0 generically
    h = np.kron(random_hermitian(rng, dim_s), np.eye(dim_e)) \
        + np.kron(np.eye(dim_s), random_hermitian(rng, dim_e)) \
        + coupling * random_hermitian(rng, dim_s * dim_e)
    rho0 = random_density(rng, dim_s * dim_e)
    return h, rho0


def windowed_chain_reference(pq, x0, times, window):
    """y(t) of the windowed P/Q equation by the method of steps, by expm.

    With v = (y, z, r), z(t0) = r(t0) the mode coordinates of Q|rho_0)
    and the source r' = -i QLQ r, the pieces u_j(s) = v(t0 + j w + s) of
    window m obey u_0' = G_0 u_0 and u_j' = G u_j + B u_{j-1} for
    1 <= j <= m: one block-bidiagonal linear system per window.  The
    source feeds y only in G, in the pieces whose delayed subtraction
    cancels it.
    """
    ny, nz = pq.plp.shape[0], pq.lam.size
    n = ny + 2 * nz
    g0 = np.zeros((n, n), dtype=complex)
    g0[:ny, :ny] = pq.plp
    g0[:ny, ny:ny + nz] = pq.from_modes
    g0[ny:ny + nz, :ny] = pq.into_modes
    g0[ny:, ny:] = np.kron(np.eye(2), np.diag(pq.lam))
    g0 *= -1j
    g = g0.copy()
    g[:ny, ny + nz:] = -1j * pq.from_modes
    b = np.zeros_like(g)
    b[:ny, ny:ny + nz] = 1j * pq.from_modes * np.exp(-1j * pq.lam * window)

    def chain(m):
        return block_diag(g0, *[g] * m) + np.kron(np.eye(m + 1, k=-1), b)

    z0 = pq.seed @ x0
    v0 = np.concatenate([pq.p @ x0, z0, z0])
    starts = [v0]  # starts[m] = (u_0(0), ..., u_m(0))
    out = []
    for t in times:
        m = max(int(np.ceil((t - times[0]) / window)) - 1, 0)
        while len(starts) <= m:
            k = len(starts) - 1
            starts.append(np.concatenate(
                [v0, expm(chain(k) * window) @ starts[k]]))
        s = t - times[0] - m * window
        out.append((expm(chain(m) * s) @ starts[m])[-n:][:ny])
    return np.array(out)


def oblique_projector(rng):
    """A non-Hermitian projector on a qubit: identity plus one random
    Hermitian direction, paired with two random states."""
    basis = biorthogonalize(
        [np.eye(2, dtype=complex), random_hermitian(rng, 2)],
        [random_density(rng, 2), random_density(rng, 2)])
    pi = build_projector(basis)
    assert np.max(np.abs(pi - pi.conj().T)) > 0.1
    return pi


def oblique_sweep_case(seed):
    """(rho0, pi, H) of the oblique-projector sweep at one seed: d in 2..4
    and the rank in 1..d^2 - 1 are drawn, and pi pairs the identity plus
    random Hermitian observables with random states."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    rank = int(rng.integers(1, d * d))
    obs = [np.eye(d, dtype=complex)] \
        + [random_hermitian(rng, d) for _ in range(rank - 1)]
    pi = build_projector(biorthogonalize(
        obs, [random_density(rng, d) for _ in range(rank)]))
    h = random_hermitian(rng, d)
    return random_density(rng, d), pi, h


def windowed_sweep_system(name):
    """(rho0, pi, H) of one system of the windowed sweep."""
    if name == "oblique":
        rng = np.random.default_rng(41)
        pi = oblique_projector(rng)
        h = random_hermitian(rng, 2)
        return random_density(rng, 2), pi, h
    if name == "eid-2x2":
        h, rho0 = eid_fixture(np.random.default_rng(60), 2, 2)
        return rho0, eid_projector(2, 2), h
    rng = np.random.default_rng(61)
    h = random_hermitian(rng, 3)
    return random_density(rng, 3), diagonal_projector(3), h


def dop853_routes(rho0, pi, lv, times):
    """P|rho(t)) from both projected equations integrated by DOP853.

    The exact equation i y' = L y + N e^{-iL(t - t0)}|rho_0) and the memory
    system i (y, z)' = [[PLP, from], [into, diag lam]] (y, z), both from
    y(t0) = P|rho_0), at rtol 1e-10 and atol 1e-12: the numerical
    reference for the closed forms.  Returns (exact, memory), each of
    shape (len(times), d^2).
    """
    p = state_map(pi)
    lm = lv.superop
    x0 = vec(np.asarray(rho0, dtype=complex))
    n = p @ lm - lm @ p
    evals, vmat = np.linalg.eigh(lm)
    x0_eig = vmat.conj().T @ x0
    pq = _pq_system(pi, lv)
    g = np.block([[pq.plp, pq.from_modes], [pq.into_modes, np.diag(pq.lam)]])
    t_span = (times[0], times[-1])

    def integrate(rhs, y0):
        sol = solve_ivp(rhs, t_span, y0, t_eval=times, method="DOP853",
                        rtol=1e-10, atol=1e-12)
        assert sol.success
        return sol.y.T

    exact = integrate(lambda t, y: -1j * (
        lm @ y + n @ (vmat @ (np.exp(-1j * evals * (t - times[0])) * x0_eig))),
        p @ x0)
    memory = integrate(lambda t, v: -1j * (g @ v),
                       np.concatenate([p @ x0, pq.seed @ x0]))
    return exact, memory[:, :x0.size]


class TestEvolveMasterExact:
    def test_initial_condition(self):
        rng = np.random.default_rng(10)
        h, rho0 = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        out = evolve_master_exact(rho0, pi, lv, [0.0, 1.0])
        assert_allclose(out[0].matrix, coarse_grain(rho0, pi.conj().T).matrix,
                        atol=1e-12)

    def test_matches_unitary_then_project(self):
        rng = np.random.default_rng(11)
        h, rho0 = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 20.0, 21)
        got = evolve_master_exact(rho0, pi, lv, times)
        want = evolve_unitary(rho0, h, times)
        for k in range(len(times)):
            projected = unvec(pi @ vec(want[k]))
            assert np.max(np.abs(got[k].matrix - projected)) <= 1e-8

    def test_commuting_projector_keeps_projected_purity(self):
        rng = np.random.default_rng(12)
        h = np.diag(rng.uniform(0, 2, 4)).astype(complex)
        pi = diagonal_projector(4)
        lv = build_liouvillian(h)
        assert np.linalg.norm(defect(pi, lv)) <= 1e-12
        rho0 = random_density(rng, 4)
        out = evolve_master_exact(rho0, pi, lv, np.linspace(0, 10, 11))
        purities = [float(np.vdot(vec(s.matrix), vec(s.matrix)).real)
                    for s in out]
        assert np.ptp(purities) <= 1e-10


class TestNakajimaZwanzig:
    def test_memoryless_when_plq_vanishes(self):
        # diagonal projector + diagonal H: L acts sector-diagonally, so
        # PLQ = 0 and the closed equation is plain e^{-iPLP t}
        rng = np.random.default_rng(20)
        h = np.diag([0.4, 1.0, 1.9]).astype(complex)
        pi = diagonal_projector(3)
        lv = build_liouvillian(h)
        rho0 = unvec(pi @ vec(random_density(rng, 3)))
        times = np.linspace(0.0, 8.0, 9)
        got = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        plp = pi @ lv.superop @ pi
        evals, vmat = np.linalg.eigh(plp)
        y0 = pi @ vec(rho0)
        for k, t in enumerate(times):
            direct = vmat @ (np.exp(-1j * evals * t) * (vmat.conj().T @ y0))
            assert np.max(np.abs(vec(got[k].matrix) - direct)) <= 1e-8

    def test_matches_master_exact_relevant_initial(self):
        rng = np.random.default_rng(21)
        h, raw = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        rho0 = unvec(pi @ vec(raw))  # relevant-only initial data
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 21)
        nz = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        ex = evolve_master_exact(rho0, pi, lv, times)
        worst = max(np.max(np.abs(a.matrix - b.matrix))
                    for a, b in zip(nz, ex))
        assert worst <= 1e-6
        # a window at least the horizon long truncates nothing: the same
        # call, silently
        for window in (10.0, 25.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                same = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                               kernel_window=window)
            np.testing.assert_array_equal([s.matrix for s in same],
                                          [s.matrix for s in nz])

    def test_inhomogeneous_term_restores_exactness(self):
        # Q rho0 != 0: seeding the modes reproduces P rho(t) exactly
        rng = np.random.default_rng(22)
        h, rho0 = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 11)
        nz = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        unit = evolve_unitary(rho0, h, times)
        for k in range(len(times)):
            projected = unvec(pi @ vec(unit[k]))
            assert np.max(np.abs(nz[k].matrix - projected)) <= 1e-6

    def test_oblique_projector_routes_agree(self):
        # a non-Hermitian pi: the exact and the memory-kernel equations
        # must land on coarse_grain of the unitary evolution
        rng = np.random.default_rng(40)
        pi = oblique_projector(rng)
        h = random_hermitian(rng, 2)
        rho0 = random_density(rng, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 5.0, 11)
        want = [coarse_grain(r, pi).matrix
                for r in evolve_unitary(rho0, h, times)]
        for got in (evolve_master_exact(rho0, pi, lv, times),
                    evolve_nakajima_zwanzig(rho0, pi, lv, times)):
            for a, b in zip(got, want):
                assert np.max(np.abs(a.matrix - b)) <= 1e-8

    def test_windowed_route_on_oblique_projector(self):
        # rho0 = coarse_grain(rho, pi) has Q rho0 = 0; until the window
        # engages the route must land on coarse_grain of the unitary
        # evolution, and after it on the closed-form method-of-steps chain
        rng = np.random.default_rng(41)
        pi = oblique_projector(rng)
        h = random_hermitian(rng, 2)
        rho0 = coarse_grain(random_density(rng, 2), pi).matrix
        lv = build_liouvillian(h)
        pq = _pq_system(pi, lv)
        # the second window ends past the horizon: a partial last segment
        for window, t1 in ((2.5, 5.0), (4.5, 10.0)):
            times = np.linspace(0.0, t1, int(2 * t1) + 1)
            with pytest.warns(RuntimeWarning, match="window"):
                windowed = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                                   kernel_window=window)
            want = [coarse_grain(r, pi).matrix
                    for r in evolve_unitary(rho0, h, times)]
            chain = windowed_chain_reference(pq, vec(rho0), times, window)
            for t, a, b, y in zip(times, windowed, want, chain):
                if t <= window:
                    assert np.max(np.abs(a.matrix - b)) <= 1e-8
                assert np.max(np.abs(vec(a.matrix) - y)) <= 1e-9
                assert abs(np.trace(a.matrix) - np.trace(rho0)) <= 1e-10

    def test_oblique_closed_form_has_no_ker_p_rows(self):
        # seed 103 of the oblique sweep: d = 3, rank 3, |pi|_2 = 408.  The
        # (y, z) generator, padded with the ker P rows, was 2.9e-5 off
        # here; acceptance 06 allows the memory closure 1e-6
        rho0, pi, h = oblique_sweep_case(103)
        assert rho0.shape == (3, 3) and np.linalg.matrix_rank(pi) == 3
        assert 400 < np.linalg.norm(pi, 2) < 420
        times = np.linspace(0.0, 10.0, 21)
        want = [coarse_grain(r, pi).matrix
                for r in evolve_unitary(rho0, h, times)]
        got = evolve_nakajima_zwanzig(rho0, pi, build_liouvillian(h), times)
        assert max(np.max(np.abs(a.matrix - b))
                   for a, b in zip(got, want)) <= 1e-6

    def test_windowed_overflow_refused(self):
        # the same case: QLQ has the eigenvalue 158i, so D = e^{-iQLQ w}
        # alone passes 1e308 at w = 4.5 and the windowed record overflows
        rho0, pi, h = oblique_sweep_case(103)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(FloatingPointError, match="overflows"):
            evolve_nakajima_zwanzig(rho0, pi, build_liouvillian(h),
                                    np.linspace(0.0, 10.0, 21),
                                    kernel_window=4.5)

    @pytest.mark.parametrize("dim_s, dim_e", [(2, 2), (2, 3), (3, 3)])
    def test_product_state_matches_unitary_then_project(self, dim_s, dim_e):
        # rho_S (x) rho_E with a full-rank, non-uniform rho_E: Q rho0 != 0,
        # and the default route still lands on the projected unitary
        rng = np.random.default_rng(23)
        h, _ = eid_fixture(rng, dim_s, dim_e)
        rho0 = np.kron(random_density(rng, dim_s), random_density(rng, dim_e))
        pi = eid_projector(dim_s, dim_e)
        lv = build_liouvillian(h)
        assert np.linalg.norm(_pq_system(pi, lv).seed @ vec(rho0)) >= 0.3
        times = np.linspace(0.0, 10.0, 21)
        nz = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        for a, r in zip(nz, evolve_unitary(rho0, h, times)):
            assert np.max(np.abs(a.matrix - coarse_grain(r, pi).matrix)) \
                <= 1e-8

    def test_kernel_at_zero_is_plq_qlp(self):
        rng = np.random.default_rng(24)
        h, _ = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        kern = memory_kernel(pi, lv, [0.0])
        q = np.eye(16) - pi
        direct = pi @ lv.superop @ q @ lv.superop @ pi
        u_p = kern.basis
        assert_allclose(kern.matrices[0],
                        u_p.conj().T @ direct @ u_p, atol=1e-10)

    def test_kernel_samples_match_per_tau_product(self):
        from decolab.master_eq import _range_basis

        rng = np.random.default_rng(29)
        h, _ = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        taus = np.linspace(0.0, 4.0, 9)
        kern = memory_kernel(pi, lv, taus)
        pq = _pq_system(pi, lv)
        u_p = _range_basis(pq.p)
        left = u_p.conj().T @ pq.from_modes
        right = pq.into_modes @ u_p
        scale = np.max(np.abs(kern.matrices[0]))
        for tau, mat in zip(taus, kern.matrices):
            looped = left @ np.diag(np.exp(-1j * pq.lam * tau)) @ right
            # the products associate differently: roundoff only
            assert np.max(np.abs(mat - looped)) <= 1e-14 * scale

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(25)
        h, raw = eid_fixture(rng, 2, 3)
        pi = eid_projector(2, 3)
        rho0 = unvec(pi @ vec(raw))
        lv = build_liouvillian(h)
        out = evolve_nakajima_zwanzig(rho0, pi, lv, np.linspace(0, 10, 11))
        for s in out:
            assert np.max(np.abs(s.matrix - s.matrix.conj().T)) <= 1e-9

    def test_finite_window_warns_and_truncates_late(self):
        rng = np.random.default_rng(26)
        h, raw = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        rho0 = unvec(pi @ vec(raw))
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 5.0, 11)
        with pytest.warns(RuntimeWarning, match="window"):
            windowed = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                               kernel_window=4.5)
        exact = evolve_master_exact(rho0, pi, lv, times)
        for t, a, b in zip(times, windowed, exact):
            if t <= 4.5:  # truncation has not engaged yet
                assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-6

    def test_windowed_rejects_unsorted_times(self):
        rng = np.random.default_rng(28)
        h, raw = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        with pytest.warns(RuntimeWarning, match="window"), \
                pytest.raises(ValueError, match="increasing"):
            evolve_nakajima_zwanzig(unvec(pi @ vec(raw)), pi, lv,
                                    [0.0, 5.0, 2.5, 4.0], kernel_window=1.0)

    def test_windowed_route_carries_the_source(self):
        # Q rho0 != 0: the source the delayed subtraction cancels is added
        # back, so the route matches the exact memory route inside the
        # window and the source-carrying chain at every sample
        rng = np.random.default_rng(27)
        h, rho0 = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        pq = _pq_system(pi, lv)
        assert np.linalg.norm(pq.seed @ vec(rho0)) >= 0.3
        window, times = 2.5, np.linspace(0.0, 6.0, 13)
        with pytest.warns(RuntimeWarning, match="window"):
            windowed = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                               kernel_window=window)
        memory = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        chain = windowed_chain_reference(pq, vec(rho0), times, window)
        for t, a, b, y in zip(times, windowed, memory, chain):
            if t <= window:
                assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-8
            assert np.max(np.abs(vec(a.matrix) - y)) <= 1e-9

    # 4, 3 and 15 segments on [0, 10]
    @pytest.mark.parametrize("window", [2.5, 4.5, 0.7])
    @pytest.mark.parametrize("system", ["eid-2x2", "diag-3", "oblique"])
    def test_windowed_sweep_matches_chain(self, system, window):
        # Q rho0 != 0 in every system, so each segment carries the source
        rho0, pi, h = windowed_sweep_system(system)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 21)
        with pytest.warns(RuntimeWarning, match="window"):
            got = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                          kernel_window=window)
        want = windowed_chain_reference(_pq_system(pi, lv), vec(rho0),
                                        times, window)
        # the worst of the nine cases measured 5.5e-14
        assert max(np.max(np.abs(vec(a.matrix) - y))
                   for a, y in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("window", [2.5, 4.5])
    def test_windowed_route_with_growing_modes(self, window):
        # QLQ on this oblique range(Q) has the eigenvalue 2.81i, so D =
        # e^{-iQLQ w} grows like e^{2.81 w} and y reaches 1e11 by t = 10;
        # column j is held scaled by max|D|^-j, or the Taylor step count
        # would grow like e^{2.81 w} as well
        rng = np.random.default_rng(68)
        pi = oblique_projector(rng)
        h = random_hermitian(rng, 2)
        rho0 = random_density(rng, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 21)
        with pytest.warns(RuntimeWarning, match="window"):
            got = evolve_nakajima_zwanzig(rho0, pi, lv, times,
                                          kernel_window=window)
        want = windowed_chain_reference(_pq_system(pi, lv), vec(rho0),
                                        times, window)
        # relative to the largest entry: measured 1.5e-14
        assert max(np.max(np.abs(vec(a.matrix) - y))
                   for a, y in zip(got, want)) <= 1e-12 * np.max(np.abs(want))

    def test_taylor_refuses_a_partial_sum(self):
        # a bound far below |L| leaves the series of a substep unconverged
        # after TAYLOR_TERMS terms: that raises instead of returning it
        from decolab.master_eq import _taylor

        gen = np.diag([30j, -30j])
        with pytest.raises(RuntimeError, match="Taylor"):
            _taylor(lambda v: gen @ v, np.ones((2, 1), dtype=complex),
                    1.0, 1.0)

    @pytest.mark.parametrize("window", [0.0, -1.0, np.nan])
    def test_nonpositive_window_refused(self, window):
        rng = np.random.default_rng(29)
        lv = build_liouvillian(random_hermitian(rng, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kernel_window"):
                evolve_nakajima_zwanzig(random_density(rng, 3),
                                        diagonal_projector(3), lv,
                                        np.linspace(0.0, 2.0, 5),
                                        kernel_window=window)


def closed_form_case(case):
    """(rho0, pi, H, times) of one closed-form vs DOP853 case."""
    rng = np.random.default_rng(50)
    times = np.linspace(0.0, 10.0, 21)
    if case == "oblique":
        pi = oblique_projector(rng)
        return random_density(rng, 2), pi, random_hermitian(rng, 2), times
    dim_e = 3 if case == "eid-2x3" else 2
    h, _ = eid_fixture(rng, 2, dim_e)
    rho0 = np.kron(random_density(rng, 2), random_density(rng, dim_e))
    if case == "t0=1":
        times = times + 1.0
    return rho0, eid_projector(2, dim_e), h, times


# a fresh interpreter, because this pytest process has imported scipy
NO_SCIPY = """
import json, sys, warnings
import numpy as np
from decolab import master_eq
from decolab.open_system import eid_projector

h = np.kron(np.diag([1.0, -1.0]), np.array([[0.3, 1.0], [1.0, -0.2]]))
rho0 = np.kron(np.diag([0.7, 0.3]), np.diag([0.9, 0.1])).astype(complex)
lv = master_eq.build_liouvillian(h)
times = np.linspace(0.0, 5.0, 11)
for route in (master_eq.evolve_master_exact,
              master_eq.evolve_nakajima_zwanzig):
    route(rho0, eid_projector(2, 2), lv, times)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)  # the truncation
    master_eq.evolve_nakajima_zwanzig(rho0, eid_projector(2, 2), lv, times,
                                      kernel_window=1.5)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


class TestClosedForms:
    @pytest.mark.parametrize("case", ["eid-2x2", "eid-2x3", "oblique",
                                      "t0=1"])
    def test_match_dop853(self, case):
        # t0=1 pins y(t0) = P rho_0 with the feedback e^{-iL(t - t0)} rho_0:
        # time is measured from the first sample
        rho0, pi, h, times = closed_form_case(case)
        lv = build_liouvillian(h)
        exact, memory = dop853_routes(rho0, pi, lv, times)
        for got, want in ((evolve_master_exact(rho0, pi, lv, times), exact),
                          (evolve_nakajima_zwanzig(rho0, pi, lv, times),
                           memory)):
            got = np.array([vec(s.matrix) for s in got])
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_routes_agree_from_t0(self):
        # started at t0 = 1, the exact and memory-kernel routes are the
        # unitary flow from t0, projected
        rho0, pi, h, times = closed_form_case("t0=1")
        lv = build_liouvillian(h)
        want = [coarse_grain(r, pi).matrix
                for r in evolve_unitary(rho0, h, times - times[0])]
        for got in (evolve_master_exact(rho0, pi, lv, times),
                    evolve_nakajima_zwanzig(rho0, pi, lv, times)):
            for a, b in zip(got, want):
                assert np.max(np.abs(a.matrix - b)) <= 1e-12

    def test_exact_route_reads_the_defect(self, monkeypatch):
        # with N dropped the projected equation is no longer the projected
        # unitary flow: the route must feel N, not rebuild P e^{-iLt}
        rng = np.random.default_rng(51)
        h, rho0 = eid_fixture(rng, 2, 2)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 21)
        monkeypatch.setattr(master_eq, "defect",
                            lambda p, liouville: np.zeros_like(p))
        got = evolve_master_exact(rho0, pi, lv, times)
        want = [coarse_grain(r, pi).matrix
                for r in evolve_unitary(rho0, h, times)]
        assert max(np.max(np.abs(a.matrix - b))
                   for a, b in zip(got, want)) > 0.1

    def test_degenerate_bohr_spectrum(self):
        # levels 2, 0, 0, -2: every Bohr gap but +-2 and +-4 is repeated,
        # and D = 0 has multiplicity six
        sz = np.diag([1.0, -1.0]).astype(complex)
        h = np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sz)
        rng = np.random.default_rng(52)
        rho0 = random_density(rng, 4)
        pi = eid_projector(2, 2)
        lv = build_liouvillian(h)
        times = np.linspace(0.0, 10.0, 21)
        want = [coarse_grain(r, pi).matrix
                for r in evolve_unitary(rho0, h, times)]
        for got in (evolve_master_exact(rho0, pi, lv, times),
                    evolve_nakajima_zwanzig(rho0, pi, lv, times)):
            for a, b in zip(got, want):
                assert np.max(np.abs(a.matrix - b)) <= 1e-12

    def test_routes_load_no_scipy(self):
        src = str(Path(decolab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None,
                                      [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", NO_SCIPY],
                             env=dict(os.environ, PYTHONPATH=path),
                             check=True, timeout=120, capture_output=True,
                             text=True)
        assert json.loads(run.stdout) == []

    @pytest.mark.parametrize("extra", [0.0, 3.0])
    def test_window_at_horizon_is_no_window(self, extra):
        # Q rho0 != 0 and t0 != 0: a window that reaches the horizon
        # truncates nothing and takes the unwindowed route, silently
        rho0, pi, h, times = closed_form_case("t0=1")
        lv = build_liouvillian(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            windowed = evolve_nakajima_zwanzig(
                rho0, pi, lv, times,
                kernel_window=times[-1] - times[0] + extra)
        plain = evolve_nakajima_zwanzig(rho0, pi, lv, times)
        np.testing.assert_array_equal([s.matrix for s in windowed],
                                      [s.matrix for s in plain])


@pytest.mark.parametrize("solver", [evolve_master_exact,
                                    evolve_nakajima_zwanzig])
def test_projector_state_dimension_mismatch_refused(solver):
    rng = np.random.default_rng(30)
    lv = build_liouvillian(random_hermitian(rng, 3))
    with pytest.raises(DimensionMismatchError, match="projector does not "
                                                     "match state dimension"):
        solver(random_density(rng, 2), diagonal_projector(3), lv,
               np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("solver, window", [
    (evolve_master_exact, None), (evolve_nakajima_zwanzig, None),
    (evolve_nakajima_zwanzig, 1.0)], ids=["exact", "memory", "windowed"])
def test_empty_times_give_no_states(solver, window):
    # as evolve_unitary gives shape (0, d, d): no sample, no state
    rng = np.random.default_rng(31)
    h, rho0 = eid_fixture(rng, 2, 2)
    options = {} if window is None else {"kernel_window": window}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver(rho0, eid_projector(2, 2), build_liouvillian(h), [],
                      **options) == []
    assert evolve_unitary(rho0, h, []).shape == (0, 4, 4)


class TestDissipativeToy:
    def test_coherence_decay_rate_exact(self):
        toy = dissipative_toy()
        times = np.linspace(0.0, 6.0, 25)
        series = evolve_linear_generator(toy.generator, toy.rho0, times)
        mag0 = abs(toy.rho0[0, 1])
        for t, rho in zip(times, series):
            assert abs(abs(rho[0, 1]) - mag0 * np.exp(-t)) <= 1e-12

    def test_population_relaxation_rate_exact(self):
        toy = dissipative_toy()
        times = np.linspace(0.0, 25.0, 26)
        series = evolve_linear_generator(toy.generator, toy.rho0, times)
        gap0 = np.real(np.diag(toy.rho0)) - toy.equilibrium
        for t, rho in zip(times, series):
            gap = np.real(np.diag(rho)) - toy.equilibrium
            assert np.max(np.abs(gap - gap0 * np.exp(-0.2 * t))) <= 1e-12

    def test_trace_and_hermiticity_preserved(self):
        toy = dissipative_toy()
        series = evolve_linear_generator(toy.generator, toy.rho0,
                                         np.linspace(0, 10, 11))
        for rho in series:
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_broadcast_matches_per_time_loop(self):
        toy = dissipative_toy()
        times = np.linspace(0.0, 10.0, 21)
        lam, smat = np.linalg.eig(toy.generator)
        coeff = np.linalg.solve(smat, vec(toy.rho0.astype(complex)))
        looped = [unvec(smat @ (np.exp(lam * t) * coeff)) for t in times]
        np.testing.assert_array_equal(
            evolve_linear_generator(toy.generator, toy.rho0, times), looped)
        # the result keeps the shape of times: a scalar, a (2, 3) grid
        np.testing.assert_array_equal(
            evolve_linear_generator(toy.generator, toy.rho0, times[5]),
            looped[5])
        grid = evolve_linear_generator(toy.generator, toy.rho0,
                                       times[:6].reshape(2, 3))
        assert grid.shape == (2, 3, 3, 3)
        np.testing.assert_array_equal(grid.reshape(6, 3, 3), looped[:6])

    def test_matches_ode_oracle(self):
        toy = dissipative_toy()
        times = np.linspace(0.0, 5.0, 6)
        series = evolve_linear_generator(toy.generator, toy.rho0, times)
        sol = solve_ivp(lambda t, y: toy.generator @ y, (0.0, 5.0),
                        vec(toy.rho0.astype(complex)), t_eval=times,
                        method="DOP853", rtol=1e-11, atol=1e-13)
        assert sol.success
        for k in range(len(times)):
            assert np.max(np.abs(vec(series[k]) - sol.y[:, k])) <= 1e-9

    def test_rates_are_separated(self):
        toy = dissipative_toy()
        assert 1.0 / toy.gamma_relax >= 2.0 / toy.gamma_decohere
