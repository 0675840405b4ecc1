"""Core Liouville-space algebra: vectorization, pairing, projectors."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from decolab.continuum import (EnergyGrid, GeneralKernelObservable,
                               VanHoveObservable, VanHoveState,
                               load_table_kernel)
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
    pairing,
    projector_defect,
    unvec,
    validate_density,
    validate_observable,
    vec,
)
from decolab.master_eq import build_liouvillian
from decolab.open_system import evolve_unitary, lift_observable


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
