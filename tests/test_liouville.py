"""Core Liouville-space algebra: vectorization, pairing, projectors."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from decolab.continuum import (EnergyGrid, GeneralKernelObservable,
                               VanHoveObservable, VanHoveState,
                               load_table_kernel)
from decolab.fits import (detect_weak_limit, envelope, fit_decoherence_time,
                          fit_relaxation_time)
from decolab.liouville import (
    BiorthogonalBasis,
    BiorthogonalityError,
    CoarseState,
    DimensionMismatchError,
    InvalidStateError,
    biorthogonalize,
    build_projector,
    coarse_grain,
    diagonal_projector,
    hermitian_deviation,
    pairing,
    projector_defect,
    require_hermitian,
    unvec,
    validate_density,
    validate_observable,
    vec,
)
from decolab.master_eq import build_liouvillian
from decolab.open_system import evolve_unitary, lift_observable
from decolab.timeseries import TimeSeries


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert_allclose(unvec(vec(a)), a, rtol=0, atol=0)

    def test_column_stacking_order(self):
        # vec stacks columns: entry (i, j) lands at position i + d*j
        a = np.arange(9.0).reshape(3, 3)
        v = vec(a)
        for j in range(3):
            for i in range(3):
                assert v[i + 3 * j] == a[i, j]

    def test_sandwich_identity(self):
        # vec(A X B) = kron(B.T, A) vec(X), the reason for column stacking
        rng = np.random.default_rng(3)
        a, x, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                   for _ in range(3))
        assert_allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b), atol=1e-12)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatchError):
            unvec(np.zeros(5))


class TestPairing:
    def test_matches_elementwise_double_sum(self):
        # oracle: (rho|O) = sum_ij rho_ij O_ji, summed explicitly
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        obs = random_hermitian(rng, 3)
        expected = sum(rho[i, j] * obs[j, i] for i in range(3) for j in range(3))
        assert_allclose(pairing(rho, obs), expected, rtol=0, atol=1e-13)

    def test_real_for_hermitian_pair(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 4)
        obs = random_hermitian(rng, 4)
        assert abs(pairing(rho, obs).imag) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 3)
        o1 = random_hermitian(rng, 3)
        o2 = random_hermitian(rng, 3)
        a, b = 0.3, -1.7
        lhs = pairing(rho, a * o1 + b * o2)
        rhs = a * pairing(rho, o1) + b * pairing(rho, o2)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_identity_gives_trace(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 5)
        assert_allclose(pairing(rho, np.eye(5)), 1.0, atol=1e-13)

    def test_coarse_state_agrees_on_hermitian(self):
        # bra form Tr(B^dag O) equals Tr(B O) when B is Hermitian
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        obs = random_hermitian(rng, 3)
        assert_allclose(CoarseState(rho).pair(obs), pairing(rho, obs), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing(np.eye(2), np.eye(3))


class TestValidation:
    def test_accepts_valid_density(self):
        rng = np.random.default_rng(0)
        validate_density(random_density(rng, 4))

    def test_rejects_nonunit_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            validate_density(2.0 * np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError, match="Hermitian"):
            validate_density(m)

    def test_rejects_non_square(self):
        # the square check is require_hermitian's, as for an observable
        with pytest.raises(DimensionMismatchError,
                           match=r"state shape \(2, 3\) is not square"):
            validate_density(np.zeros((2, 3)))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            validate_density(m)

    def test_tolerates_tiny_negative_eigenvalue(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        validate_density(m)

    def test_observable_check(self):
        validate_observable(np.array([[0.0, 1j], [-1j, 0.0]]))
        with pytest.raises(InvalidStateError):
            validate_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("o", [np.array([1.0, 2.0]), np.zeros((3, 4)),
                                   np.zeros((2, 3, 3))],
                             ids=["1-d", "3x4", "stacked"])
    def test_observable_check_refuses_non_matrix(self, o):
        with pytest.raises(DimensionMismatchError, match="not square") as err:
            validate_observable(o)
        assert f"observable shape {o.shape}" in str(err.value)


def _table(m, tmp_path):
    """``m`` as a table kernel on the 2-point grid [0, 1]."""
    g = EnergyGrid.uniform(0.0, 1.0, 2)
    path = tmp_path / "kernel.csv"
    path.write_text("".join(f"{wi!r},{wj!r},{m[i, j]!r},0.0\n"
                            for i, wi in enumerate(g.omega)
                            for j, wj in enumerate(g.omega)))
    return load_table_kernel(path, g)


# every entry point of require_hermitian, on a 2 x 2 operand
NON_FINITE_ENTRY_POINTS = {
    "validate_observable": lambda m, _: validate_observable(m),
    "validate_density": lambda m, _: validate_density(m),
    "build_liouvillian": lambda m, _: build_liouvillian(m),
    "evolve_unitary": lambda m, _: evolve_unitary(np.eye(2) / 2, m, [0.0]),
    "lift_observable": lambda m, _: lift_observable(m, 2),
    "VanHoveState": lambda m, _: VanHoveState(
        EnergyGrid.uniform(0.0, 1.0, 2), np.ones(2), m),
    "VanHoveObservable": lambda m, _: VanHoveObservable(
        EnergyGrid.uniform(0.0, 1.0, 2), np.ones(2), m),
    "GeneralKernelObservable": lambda m, _: GeneralKernelObservable(
        EnergyGrid.uniform(0.0, 1.0, 2), np.ones(2), m),
    "load_table_kernel": _table,
}
NON_FINITE_CASES = {
    "nan-off-diagonal": ([(0, 1)], np.nan),
    "inf-on-diagonal": ([(0, 0)], np.inf),
    "symmetric-inf-pair": ([(0, 1), (1, 0)], np.inf),
}


@pytest.mark.parametrize("case", NON_FINITE_CASES)
@pytest.mark.parametrize("entry", NON_FINITE_ENTRY_POINTS)
def test_non_finite_operand_refused(entry, case, tmp_path):
    # a NaN deviation fails "dev > tol" too, so only "not within" refuses
    # it; inf - inf makes the deviation NaN without a RuntimeWarning
    where, value = NON_FINITE_CASES[case]
    m = np.eye(2) / 2
    for ij in where:
        m[ij] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            NON_FINITE_ENTRY_POINTS[entry](m, tmp_path)


def _spoil(values, bad):
    """``values`` as an array with entry 1 replaced by ``bad``, if given."""
    values = np.array(values, dtype=float)
    values[1] = values[1] if bad is None else bad
    return values


_T4, _V4 = np.arange(4.0), np.exp(-np.arange(4.0))
_GRID = EnergyGrid.uniform(0.0, 1.0, 3)
# every entry point of the shared finiteness and axis checks that no other
# test refuses a NaN and an inf: each call, and the words of its refusal
NON_FINITE_ARRAY_ENTRY_POINTS = {
    "VanHoveState-diag": (lambda bad: VanHoveState(
        _GRID, _spoil([1.0, 1.0, 1.0], bad)), "diagonal part must be finite"),
    "VanHoveObservable-diag": (lambda bad: VanHoveObservable(
        _GRID, _spoil([1.0, 1.0, 1.0], bad)), "diagonal part must be finite"),
    "GeneralKernelObservable-diag": (lambda bad: GeneralKernelObservable(
        _GRID, _spoil([1.0, 1.0, 1.0], bad)), "diagonal part must be finite"),
    "TimeSeries-times": (lambda bad: TimeSeries(
        _spoil(_T4, bad), {"a": _V4}),
        "sample times must be finite and strictly increasing"),
    "TimeSeries-channel": (lambda bad: TimeSeries(
        _T4, {"a": _spoil(_V4, bad)}), "channel 'a' must be finite"),
    "envelope-times": (lambda bad: envelope(_spoil(_T4, bad), _V4),
                       "times must be finite and strictly increasing"),
    "envelope-values": (lambda bad: envelope(_T4, _spoil(_V4, bad)),
                        "values must be finite"),
    "fit_decoherence_time-values": (lambda bad: fit_decoherence_time(
        _T4, _spoil(_V4, bad)), "values must be finite"),
    "fit_relaxation_time-times": (lambda bad: fit_relaxation_time(
        _spoil(_T4, bad), _V4), "times must be finite and strictly increasing"),
    "detect_weak_limit-times": (lambda bad: detect_weak_limit(
        _spoil(_T4, bad), {"c": _V4}, 1e-3),
        "times must be finite and strictly increasing"),
    "detect_weak_limit-channel": (lambda bad: detect_weak_limit(
        _T4, {"c": _V4, "d": _spoil(_V4, bad)}, 1e-3),
        "channel 'd' must be finite"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", NON_FINITE_ARRAY_ENTRY_POINTS)
def test_non_finite_array_refused_in_the_shared_words(entry, bad):
    call, words = NON_FINITE_ARRAY_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=words):
            call(bad)
        call(None)


class TestTiledHermiticity:
    """The check works in 128 x 128 tiles; sizes straddle their edges."""

    @pytest.mark.parametrize("n", [16, 127, 128, 129, 257, 400])
    def test_equals_the_whole_matrix_deviation(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(rng, n)
        m = h + 1e-3 * rng.normal(size=(n, n))
        for a in (h, m, m.real):
            assert hermitian_deviation(a) == np.max(np.abs(a - a.conj().T))

    @pytest.mark.parametrize("where, value", [((200, 5), np.nan),
                                              ((250, 250), np.inf)],
                             ids=["nan-lower-tile", "inf-on-diagonal"])
    def test_non_finite_entry_in_any_tile_refused(self, where, value):
        m = random_hermitian(np.random.default_rng(3), 300)
        m[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(hermitian_deviation(m))
            with pytest.raises(InvalidStateError, match="not finite"):
                require_hermitian(m, 1e-12, "kernel")

    def test_extra_memory_is_one_tile(self):
        # n = 2000: whole-matrix temporaries would take 122 MB
        w = np.linspace(0.0, 1.0, 2000)
        m = np.add.outer(w, w) + 1j * np.subtract.outer(w, w)
        tracemalloc.start()
        try:
            dev = hermitian_deviation(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev == 0.0
        assert peak < 2e6


class TestProjectorConstruction:
    def test_matrix_units_give_identity_superop(self):
        # complete basis of |i><j| units: pi must be the identity on L-space
        units = [unvec(e) for e in np.eye(9, dtype=complex)]
        pi = build_projector(BiorthogonalBasis(units, units))
        assert_allclose(pi, np.eye(9), atol=1e-14)

    def test_rank_one_trace_projector(self):
        # single pair O = I/sqrt(d), rho = I/sqrt(d): pi = |I)(I|/d
        d = 3
        m = np.eye(d, dtype=complex) / np.sqrt(d)
        pi = build_projector(BiorthogonalBasis([m], [m]))
        assert projector_defect(pi) <= 1e-10
        assert_allclose(np.linalg.matrix_rank(pi), 1)

    def test_idempotence_of_diagonal_projector(self):
        pi = diagonal_projector(4)
        assert projector_defect(pi) <= 1e-10

    def test_diagonal_projector_action(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 4)
        rho_g = coarse_grain(rho, diagonal_projector(4))
        assert_allclose(rho_g.matrix, np.diag(np.diag(rho)), atol=1e-13)

    def test_rejects_non_biorthogonal_pairs(self):
        d = 2
        o1 = np.eye(d, dtype=complex)
        o2 = np.diag([1.0, -1.0]).astype(complex)
        # functionals deliberately not normalized against the observables
        with pytest.raises(BiorthogonalityError) as err:
            build_projector(BiorthogonalBasis([o1, o2], [o1, o2]))
        assert "deviates" in str(err.value)

    def test_biorthogonalize_repairs_pairs(self):
        rng = np.random.default_rng(17)
        d = 3
        obs = [random_hermitian(rng, d) for _ in range(3)]
        fun = [random_hermitian(rng, d) for _ in range(3)]
        basis = biorthogonalize(obs, fun)
        g = basis.gram()
        assert_allclose(g, np.eye(3), atol=1e-10)
        pi = build_projector(basis)
        assert projector_defect(pi) <= 1e-8

    def test_biorthogonalize_rejects_degenerate(self):
        d = 2
        o = np.eye(d, dtype=complex)
        with pytest.raises(BiorthogonalityError):
            biorthogonalize([o, o], [o, 2 * o])

    def test_retained_pairings_survive_coarse_graining(self):
        # the whole point of pi: (rho_G|O_a) = (rho|O_a) for every retained O_a
        rng = np.random.default_rng(33)
        d = 3
        obs = [np.eye(d, dtype=complex)] + [random_hermitian(rng, d) for _ in range(2)]
        basis = biorthogonalize(obs, [random_density(rng, d) for _ in range(3)])
        pi = build_projector(basis)
        rho = random_density(rng, d)
        rho_g = coarse_grain(rho, pi)
        for o in basis.observables:
            assert_allclose(rho_g.pair(o), pairing(rho, o), atol=1e-10)

    def test_projection_idempotent_on_states(self):
        rng = np.random.default_rng(34)
        d = 3
        pi = diagonal_projector(d)
        rho = random_density(rng, d)
        once = coarse_grain(rho, pi)
        twice = coarse_grain(once.matrix, pi)
        assert_allclose(twice.matrix, once.matrix, atol=1e-12)


class TestLimitProjectionCommute:
    def test_projected_sequence_converges_to_projected_limit(self):
        # states rho(t) -> rho_*; projecting each member and projecting the
        # limit must land on the same functional
        rng = np.random.default_rng(55)
        d = 4
        pi = diagonal_projector(d)
        rho_star = random_density(rng, d)
        bump = random_hermitian(rng, d)
        bump -= np.trace(bump) / d * np.eye(d)
        limit_proj = coarse_grain(rho_star, pi)
        for t in (5.0, 10.0, 20.0):
            rho_t = rho_star + np.exp(-t) * bump
            dev = np.max(np.abs(coarse_grain(rho_t, pi).matrix - limit_proj.matrix))
            assert dev <= np.exp(-t) * np.max(np.abs(bump)) + 1e-8
        assert_allclose(
            coarse_grain(rho_star + 1e-12 * bump, pi).matrix,
            limit_proj.matrix, atol=1e-8)
