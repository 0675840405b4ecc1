"""Finite-dimensional operator algebra on Liouville space.

Operators on a d-dimensional Hilbert space are treated as vectors of the
d^2-dimensional Liouville space: observables enter as kets |O), states act
as linear functionals (bras) (rho|, and the physical pairing is

    (rho|O) = Tr(rho O).

Coarse-graining is a projection superoperator pi = sum_a |O_a)(rho_a|
built from a biorthogonal family of observable kets and state bras; the
coarse-grained state is the bra (rho_G| = (rho|pi, which reproduces every
expectation value of the retained observables and discards the rest.

Conventions
-----------
* Vectorization is column-stacking: ``vec(A)[i + d*j] = A[i, j]``, so
  ``vec(A X B) = kron(B.T, A) @ vec(X)``.  Superoperator matrices are
  convention-dependent; everything in this package uses this one.
* The Liouville inner product is ``<A|B> = Tr(A^dag B) = vec(A)^dag vec(B)``.
  For Hermitian arguments this coincides with the pairing Tr(rho O).
* hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "BiorthogonalityError",
    "InvalidStateError",
    "CoarseState",
    "BiorthogonalBasis",
    "vec",
    "unvec",
    "pairing",
    "hermitian_deviation",
    "require_hermitian",
    "validate_density",
    "validate_observable",
    "projector_defect",
    "build_projector",
    "biorthogonalize",
    "coarse_grain",
    "state_map",
    "diagonal_projector",
]

# Tolerances of the checks below.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
BIORTHOGONALITY_TOL = 1e-10
# side of the square tiles the Hermiticity check and the lag sums work in
_TILE = 128


def _finite(x, what="sample times", dtype=float):
    """``x`` as a ``dtype`` array, refused by name if not finite."""
    x = np.asarray(x, dtype=dtype)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"{what} must be finite, got {bad[0]}")
    return x


def _axis(x, what, at_least):
    """``x`` as a float array: 1-d, at least ``at_least`` entries, finite and
    strictly increasing ("not all > 0" refuses NaN gaps too)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < at_least:
        raise ValueError(f"{what} must be 1-d with at least {at_least} "
                         f"entries, got shape {x.shape}")
    if not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
        raise ValueError(f"{what} must be finite and strictly increasing")
    return x


def _frozen(a, dtype=float):
    """A read-only ``dtype`` copy of ``a``."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


class DimensionMismatchError(ValueError):
    """Operands live on different Hilbert/Liouville spaces."""


class BiorthogonalityError(ValueError):
    """A candidate basis violates (rho_a|O_b) = delta_ab."""


class InvalidStateError(ValueError):
    """A matrix fails the density-operator invariants."""


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def vec(a):
    """Column-stacking vectorization of a d x d matrix into a d^2 vector."""
    a = np.asarray(a)
    return a.reshape(-1, order="F")


def unvec(v):
    """Inverse of :func:`vec`; the length must be a perfect square."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatchError(f"length {v.size} is not a perfect square")
    return v.reshape(d, d, order="F")


# ---------------------------------------------------------------------------
# states, observables, pairing
# ---------------------------------------------------------------------------

class CoarseState:
    """A Liouville bra: the linear functional O -> Tr(B^dag O).

    Coarse-grained states are functionals on the observable space.  They
    need not be valid density operators (positivity and even hermiticity
    can be lost under an oblique projection); they are only required to
    reproduce pairings.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _frozen(matrix, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got {m.shape}")
        self.matrix = m

    def pair(self, obs):
        """(rho_G|O) = Tr(B^dag O)."""
        obs = np.asarray(obs)
        if obs.shape != self.matrix.shape:
            raise DimensionMismatchError(
                f"observable shape {obs.shape} vs state dim {self.matrix.shape}"
            )
        return complex(np.sum(np.conj(self.matrix) * obs))

    def __repr__(self):
        return f"CoarseState(dim={self.matrix.shape[0]})"


def pairing(state, obs):
    """Pairing (rho|O) between a state and an observable.

    ``state`` may be a plain matrix (the pairing is the literal Tr(rho O))
    or a :class:`CoarseState` bra (the pairing is Tr(B^dag O)); the two
    agree whenever the state matrix is Hermitian.  Returns the complex
    value; for Hermitian arguments its imaginary part is roundoff-level
    and the real part is the expectation value.
    """
    if isinstance(state, CoarseState):
        return state.pair(obs)
    state = np.asarray(state)
    obs = np.asarray(obs)
    if state.shape != obs.shape or state.ndim != 2:
        raise DimensionMismatchError(
            f"incompatible shapes {state.shape} and {obs.shape}"
        )
    # Tr(rho O) = sum_ij rho_ij O_ji, without forming the product.
    return complex(np.sum(state * obs.T))


def hermitian_deviation(m):
    """max |M - M^dag|, 0 for an empty ``m``: what :func:`require_hermitian`
    measures.  Over the _TILE x _TILE tile pairs I <= J, O(_TILE^2) extra
    memory; a NaN anywhere gives NaN, as ``np.max`` does."""
    m = np.asarray(m)
    n, b, dev = len(m) if m.size else 0, _TILE, 0.0
    with np.errstate(invalid="ignore"):
        for i in range(0, n, b):
            for j in range(i, n, b):
                tile = m[i:i + b, j:j + b] - m[j:j + b, i:i + b].conj().T
                dev = np.abs(tile).max(initial=dev)
    return float(dev)


def require_hermitian(m, tol, what):
    """Return ``m`` as an array; raise unless max |M - M^dag| <= ``tol``.

    The one Hermiticity check of the package: observables (Hamiltonians
    among them), states, kernels and the projectors of the P/Q split all
    go through it or its :func:`hermitian_deviation`, each with its own
    tolerance; as "not within", it also refuses any NaN or inf entry.  A
    non-square operand raises :class:`DimensionMismatchError`.  ``what``
    names the operand in the error.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{what} shape {m.shape} is not square")
    dev = hermitian_deviation(m)
    if not dev <= tol:
        raise InvalidStateError(
            f"{what} not finite and Hermitian: max deviation {dev:.3e}")
    return m


def validate_observable(o):
    """Raise unless ``o`` is Hermitian to HERMITICITY_TOL."""
    return require_hermitian(o, HERMITICITY_TOL, "observable")


def validate_density(rho):
    """Check the density-operator invariants of ``rho``.

    Square, finite and Hermitian to HERMITICITY_TOL by
    :func:`require_hermitian`, unit trace to TRACE_TOL, eigenvalues >=
    -EIGENVALUE_TOL.  Returns ``rho`` as a complex array on success.
    """
    rho = require_hermitian(np.asarray(rho, dtype=complex), HERMITICITY_TOL,
                            "state")
    tr_dev = abs(complex(np.trace(rho)) - 1.0)
    if tr_dev > TRACE_TOL:
        raise InvalidStateError(f"state trace deviates from 1 by {tr_dev:.3e}")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if float(evals.min()) < -EIGENVALUE_TOL:
        raise InvalidStateError(
            f"state has eigenvalue {evals.min():.3e} < -{EIGENVALUE_TOL}")
    return rho


# ---------------------------------------------------------------------------
# projectors from biorthogonal pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiorthogonalBasis:
    """Paired observable kets |O_a) and state bras (rho_a|.

    The pairing matrix G_ab = <rho_a|O_b> (Liouville inner product) must be
    the identity to tolerance; :func:`build_projector` enforces this.
    """

    observables: tuple = field()
    functionals: tuple = field()

    def __init__(self, observables, functionals):
        obs = tuple(np.asarray(o, dtype=complex) for o in observables)
        fun = tuple(np.asarray(f, dtype=complex) for f in functionals)
        if len(obs) != len(fun):
            raise DimensionMismatchError(
                f"{len(obs)} observables vs {len(fun)} functionals"
            )
        if not obs:
            raise ValueError("empty basis")
        d = obs[0].shape[0]
        for m in obs + fun:
            if m.shape != (d, d):
                raise DimensionMismatchError("basis elements have mixed dimensions")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "functionals", fun)

    @property
    def size(self):
        return len(self.observables)

    def gram(self):
        """Pairing matrix G_ab = <rho_a|O_b>."""
        fun = np.array([vec(f) for f in self.functionals])
        obs = np.array([vec(o) for o in self.observables])
        return np.einsum("ai,bi->ab", fun.conj(), obs)


def projector_defect(m):
    """Frobenius norm of M^2 - M."""
    m = np.asarray(m)
    return float(np.linalg.norm(m @ m - m))


def build_projector(basis):
    """Assemble pi = sum_a |O_a)(rho_a| as a d^2 x d^2 superoperator matrix.

    Rejects the basis if any pairing <rho_a|O_b> deviates from delta_ab by
    more than BIORTHOGONALITY_TOL, naming the worst offending pair.
    """
    g = basis.gram()
    dev = np.abs(g - np.eye(basis.size))
    worst = float(dev.max())
    if worst > BIORTHOGONALITY_TOL:
        a, b = np.unravel_index(int(dev.argmax()), dev.shape)
        raise BiorthogonalityError(
            f"pairing ({a}|{b}) = {g[a, b]:.6g} deviates from "
            f"{'1' if a == b else '0'} by {worst:.3e} "
            f"(tol {BIORTHOGONALITY_TOL:.1e}); biorthogonalize the pairs first"
        )
    obs = np.array([vec(o) for o in basis.observables])
    fun = np.array([vec(f) for f in basis.functionals])
    return np.einsum("ai,aj->ij", obs, fun.conj())


def biorthogonalize(observables, functionals):
    """Return functionals rescaled so that <rho'_a|O_b> = delta_ab.

    The Gram matrix G_ab = <rho_a|O_b> is inverted and the new functionals
    are rho'_a = sum_b conj(G^-1)_ab rho_b, leaving the observables
    untouched.  Raises when the pairs are linearly degenerate (singular
    Gram matrix): biorthogonality is a precondition of projector building,
    not something repaired silently.
    """
    basis = BiorthogonalBasis(observables, functionals)
    g = basis.gram()
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise BiorthogonalityError(f"degenerate pairs, Gram matrix singular: {exc}")
    # <rho'_a|O_b> = sum_c conj(conj(Ginv)_ac) <rho_c|O_b> = (Ginv G)_ab.
    new_fun = np.einsum("ac,cij->aij", ginv.conj(), np.array(basis.functionals))
    return BiorthogonalBasis(basis.observables, new_fun)


def coarse_grain(rho, pi):
    """Project the state: (rho_G| = (rho|pi.

    In the vectorized representation the bra action reads
    ``vec(rho_G) = pi^dag vec(rho)``.  The result is a functional
    (:class:`CoarseState`), not necessarily a valid density operator.
    """
    rho = np.asarray(rho, dtype=complex)
    pi = np.asarray(pi)
    d = rho.shape[0]
    if pi.shape != (d * d, d * d):
        raise DimensionMismatchError(
            f"projector shape {pi.shape} vs state dim {d}"
        )
    return CoarseState(unvec(state_map(pi) @ vec(rho)))


def state_map(pi):
    """pi^dag: the bra action (rho| -> (rho|pi on vectorized states.

    ``vec(rho_G) = state_map(pi) @ vec(rho)``; only a Hermitian pi is its
    own state map.  Every route that projects or evolves states uses it.
    """
    return np.asarray(pi).conj().T


# ---------------------------------------------------------------------------
# stock bases / projectors
# ---------------------------------------------------------------------------

def diagonal_projector(d):
    """Superoperator keeping the diagonal entries of a d x d matrix."""
    units = [np.diag(e) for e in np.eye(d, dtype=complex)]
    return build_projector(BiorthogonalBasis(units, units))
