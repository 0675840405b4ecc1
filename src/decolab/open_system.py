"""Open-system route to decoherence: trace out an environment.

The closed composite lives on H_S (x) H_E with a system-major Kronecker
ordering (full index = i*dim_E + alpha).  Relevant observables are the
lifted ones O_S (x) I_E; the information they see is carried entirely by
the reduced state rho_S = Tr_E rho.  The matching coarse-graining
projector on Liouville space replaces rho by (Tr_E rho) (x) I_E/dim_E,
which reproduces every lifted pairing and is Hermitian and idempotent.

The concrete scenario is a pure-dephasing spin bath,

    H = sum_k (g_k/2) sigma_z^(S) (x) sigma_z^(k),

chosen because the reduced coherence has an exact product closed form
that serves as an independent oracle for the full simulation.  hbar = 1;
times are in units of inverse energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .continuum import phase_sum
from .liouville import (
    BiorthogonalBasis,
    DimensionMismatchError,
    _finite,
    _real,
    build_projector,
    unvec,
    validate_density,
    validate_observable,
)

__all__ = [
    "ResourceCapError",
    "SpinBathParams",
    "PreferredBasis",
    "SPIN_CAP",
    "DENSE_SPIN_CAP",
    "lift_observable",
    "partial_trace",
    "eid_projector",
    "coarse_state_eid",
    "evolve_unitary",
    "purity",
    "spin_bath_scenario",
    "spin_bath_hamiltonian_diagonal",
    "spin_bath_initial_vector",
    "spin_bath_reduced_dynamics",
    "spin_bath_coherence",
    "spin_bath_recurrence_window",
    "preferred_basis",
]

# caps for the spin-bath scenario; full state dimension is 2^(n+1)
SPIN_CAP = 14          # half-bath phase sums (spin_bath_reduced_dynamics)
DENSE_SPIN_CAP = 10    # dense (H, rho0) materialization
# eigenvalue gap below which the preferred basis is flagged degenerate
DEGENERACY_GAP = 1e-8


class ResourceCapError(ValueError):
    """Requested problem size exceeds the configured desk-scale cap."""


@dataclass(frozen=True)
class SpinBathParams:
    """Pure-dephasing bath: couplings g_k, bath Bloch angles, qubit (a, b).

    Bath spin k starts in cos(theta_k/2)|0> + sin(theta_k/2)|1>; the
    system qubit starts in a|0> + b|1>.
    """

    couplings: tuple
    angles: tuple
    amplitude_0: complex = 1 / np.sqrt(2)
    amplitude_1: complex = 1 / np.sqrt(2)

    def __post_init__(self):
        g = tuple(float(x) for x in _real(self.couplings, "couplings"))
        th = tuple(float(x) for x in _real(self.angles, "angles"))
        if len(g) != len(th) or not g:
            raise ValueError(
                f"{len(g)} couplings vs {len(th)} angles (need equal, nonzero)"
            )
        _finite(g + th, "couplings and angles")
        norm = abs(self.amplitude_0) ** 2 + abs(self.amplitude_1) ** 2
        # written as "not within" so that a NaN amplitude is refused too
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"|a|^2+|b|^2 = {norm!r}, expected 1")
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "angles", th)
        object.__setattr__(self, "amplitude_0", complex(self.amplitude_0))
        object.__setattr__(self, "amplitude_1", complex(self.amplitude_1))

    @property
    def n_spins(self):
        return len(self.couplings)


# ---------------------------------------------------------------------------
# lifting, tracing, the open-system projector
# ---------------------------------------------------------------------------

def lift_observable(obs_s, dim_e):
    """O_S (x) I_E: the relevant-observable embedding."""
    obs_s = validate_observable(np.asarray(obs_s, dtype=complex))
    return np.kron(obs_s, np.eye(dim_e, dtype=complex))


def partial_trace(rho, dim_s, dim_e):
    """Reduced state (rho_S)_ij = sum_alpha rho_{i alpha, j alpha}."""
    rho = np.asarray(rho)
    d = dim_s * dim_e
    if rho.shape != (d, d):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not factor as {dim_s}x{dim_e}"
        )
    return np.trace(rho.reshape(dim_s, dim_e, dim_s, dim_e), axis1=1, axis2=3)


def eid_projector(dim_s, dim_e):
    """Coarse-graining superoperator X -> (Tr_E X) (x) I_E/dim_E.

    Built from the biorthonormal pairs E_ij (x) I_E/sqrt(dim_E) (matrix
    units on the system factor), so it is Hermitian as well as idempotent.
    """
    eye_e = np.eye(dim_e, dtype=complex) / np.sqrt(dim_e)
    pairs = [np.kron(unvec(e), eye_e) for e in np.eye(dim_s ** 2, dtype=complex)]
    return build_projector(BiorthogonalBasis(pairs, pairs))


def coarse_state_eid(rho_s, dim_e):
    """The coarse state (Tr_E rho) (x) I_E / dim_E as a density matrix."""
    rho_s = np.asarray(rho_s, dtype=complex)
    return np.kron(rho_s, np.eye(dim_e, dtype=complex) / dim_e)


# ---------------------------------------------------------------------------
# exact unitary evolution
# ---------------------------------------------------------------------------

def evolve_unitary(rho0, hamiltonian, times):
    """rho(t) = e^{-iHt} rho0 e^{+iHt} via one eigendecomposition of H.

    Returns an array of shape np.shape(times) + (d, d).
    """
    h = validate_observable(np.asarray(hamiltonian, dtype=complex))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != h.shape:
        raise DimensionMismatchError(
            f"state shape {rho0.shape} vs H shape {h.shape}"
        )
    evals, vecs = np.linalg.eigh(h)
    rho_eig = vecs.conj().T @ rho0 @ vecs
    phase = np.exp(-1j * evals * _finite(times)[..., None])
    # e^{-iHt} rho e^{iHt} in the eigenbasis is an outer phase mask
    mask = phase[..., :, None] * phase.conj()[..., None, :]
    return vecs @ (mask * rho_eig) @ vecs.conj().T


def purity(rho):
    """Tr(rho^2), real part; a stack of states gives one value per state."""
    rho = np.asarray(rho)
    return np.sum(rho * np.swapaxes(rho, -2, -1), axis=(-2, -1)).real


# ---------------------------------------------------------------------------
# spin-bath scenario
# ---------------------------------------------------------------------------

def _bath_energies(couplings):
    """Omega = sum_k g_k z_k over the 2^n bath bit strings, in Kronecker
    order: spin 0 is the most significant bit and z = +1 for bit 0."""
    e = np.zeros(1)
    for g in couplings:
        e = np.add.outer(e, [g, -g]).ravel()
    return e


def _bath_amplitudes(angles):
    """<b|prod_k theta_k> over the bath bit strings b, in the order of
    :func:`_bath_energies`: a factor cos(theta_k/2) for bit 0, sin for 1."""
    chi = np.ones(1)
    for th in angles:
        chi = np.multiply.outer(chi, [np.cos(th / 2), np.sin(th / 2)]).ravel()
    return chi


def spin_bath_hamiltonian_diagonal(params):
    """Diagonal of H in the computational product basis (length 2^(n+1)).

    H = sum_k (g_k/2) sigma_z^(S) (x) sigma_z^(k) is diagonal; entry for
    (system bit s, bath bits b) is z_s * Omega_b / 2 with z = +/-1.
    """
    bath = 0.5 * _bath_energies(params.couplings)
    return np.concatenate([bath, -bath])


def spin_bath_initial_vector(params):
    """Product initial vector (a|0> + b|1>) (x) prod_k |theta_k>."""
    return np.kron([params.amplitude_0, params.amplitude_1],
                   _bath_amplitudes(params.angles))


def _check_spin_cap(n):
    if n > SPIN_CAP:
        raise ResourceCapError(
            f"{n} bath spins means state dimension 2^{n + 1} = {2 ** (n + 1)}; "
            f"cap is {SPIN_CAP} spins"
        )


def spin_bath_scenario(params):
    """Dense (H, rho0) for the spin bath: Hamiltonian and initial state.

    The state dimension is 2^(n+1).  Beyond DENSE_SPIN_CAP spins the dense
    matrices stop being desk-scale (GB-sized), so the call is refused and
    the half-bath phase-sum route (:func:`spin_bath_reduced_dynamics`,
    valid up to SPIN_CAP) is pointed to instead.
    """
    n = params.n_spins
    _check_spin_cap(n)
    if n > DENSE_SPIN_CAP:
        raise ResourceCapError(
            f"dense matrices at {n} bath spins would be "
            f"{2 ** (n + 1)}x{2 ** (n + 1)}; use spin_bath_reduced_dynamics "
            f"(half-bath phase-sum route, cap {SPIN_CAP}) instead"
        )
    h = np.diag(spin_bath_hamiltonian_diagonal(params)).astype(complex)
    psi = spin_bath_initial_vector(params)
    rho0 = np.outer(psi, psi.conj())
    return h, validate_density(rho0)


def spin_bath_reduced_dynamics(params, times):
    """rho_S(t) of the full 2^(n+1)-dimensional simulation, no approximation.

    H is diagonal, so the populations |a|^2 and |b|^2 are constants of
    motion and the coherence is a b-bar sum_b w_b e^{-i Omega_b t}, with
    Omega_b = sum_k g_k z_k and w_b the Born weights of the bath bit
    string b.  Omega and w both split over the bath halves (Omega adds,
    w multiplies), so the sum is the product of the two half-bath
    :func:`~decolab.continuum.phase_sum` values: O(T 2^(ceil(n/2) - 1))
    work, one term per distinct |Omega| of a half bath, in numpy einsums,
    never BLAS, so the bytes do not depend on the thread count.  rho_10 =
    conj(rho_01).  Returns np.shape(times) + (2, 2).
    """
    _check_spin_cap(params.n_spins)
    a, b = params.amplitude_0, params.amplitude_1
    half = params.n_spins // 2
    coh = a * np.conj(b)
    for part in (slice(None, half), slice(half, None)):
        coh = coh * phase_sum(_bath_energies(params.couplings[part]),
                              _bath_amplitudes(params.angles[part]) ** 2,
                              times)
    out = np.empty(np.shape(times) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = abs(a) ** 2, abs(b) ** 2
    out[..., 0, 1], out[..., 1, 0] = coh, np.conj(coh)
    return out


def spin_bath_coherence(params, times):
    """Closed form for the reduced coherence rho_S,01(t).

    rho_S,01(t) = a conj(b) prod_k [cos(g_k t) - i cos(theta_k) sin(g_k t)],
    the product of single-spin bath overlaps <chi_k|e^{-i g_k sigma_z t}|chi_k>.
    """
    times = _finite(times)
    coh = np.full(times.shape,
                  params.amplitude_0 * np.conj(params.amplitude_1),
                  dtype=complex)
    for g, th in zip(params.couplings, params.angles):
        coh *= np.cos(g * times) - 1j * np.cos(th) * np.sin(g * times)
    return coh


def spin_bath_recurrence_window(couplings):
    """Conservative time window free of near-recurrences.

    The coherence is a trigonometric polynomial whose frequencies are the
    2^n signed sums sum_k (+/-)g_k; below 2*pi over the minimal positive
    gap of that spectrum the quasi-periodic signal cannot re-align.  A
    single spin gives pi/g, the period of |cos(g t)|.  Returns inf when
    the spectrum collapses to a point (all couplings zero).  Non-finite
    couplings are refused with ``ValueError``, as by :class:`SpinBathParams`.
    """
    g = _finite(couplings, "couplings")
    # the least positive gap; np.unique would import numpy.ma (1.3 MB RSS)
    gaps = np.diff(np.sort(np.round(_bath_energies(g), 12)))
    gaps = gaps[gaps > 0]
    return 2 * np.pi / float(gaps.min()) if gaps.size else np.inf


# ---------------------------------------------------------------------------
# preferred basis
# ---------------------------------------------------------------------------

class PreferredBasis(NamedTuple):
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # columns, matching order
    degenerate: bool


def preferred_basis(rho_s):
    """Instantaneous eigenbasis of a reduced state, populations descending.

    When the spectrum has a gap below DEGENERACY_GAP the eigenvectors are not
    unique; any orthonormal choice is returned and the ``degenerate`` flag
    is set so that downstream users rely on eigenvalues only.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    evals, evecs = np.linalg.eigh(rho_s)
    order = np.argsort(evals)[::-1]
    evals = evals[order].real
    evecs = evecs[:, order]
    degenerate = bool(evals.size > 1
                      and np.min(-np.diff(evals)) < DEGENERACY_GAP)
    return PreferredBasis(evals, evecs, degenerate)
