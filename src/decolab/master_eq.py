"""Coarse-grained dynamics as a projected Liouville equation.

With L the commutator superoperator (i d|rho)/dt = L|rho), hbar = 1) and
P = pi^dag (``liouville.state_map``) for a projector pi, |rho_G) = P|rho) obeys

    i d|rho_G)/dt = L|rho_G) + N|rho(t)),      N = P L - L P,

which is exact but not closed: the defect N feeds the fine-grained state
back in.  The P/Q elimination closes it at the price of memory: with
Q = 1 - P and y = P|rho),

    i dy/dt = PLP y + PLQ e^{-iQLQ t} Q|rho_0)
              - i int_0^t PLQ e^{-iQLQ(t-s)} QLP y(s) ds.

Both forms are linear with constant coefficients and are solved here in
closed form, then cross-validated against the oracle ``coarse_grain`` of
the exactly evolved state.  The convolution is realized by auxiliary
memory modes (the eigenmodes of QLQ on range(Q)), which reproduces the
memory integral exactly rather than by kernel sampling; an optional
finite memory window truncates the integral explicitly and says so.
That windowed delay equation is the one route integrated numerically
(DOP853).

The module also carries a small dissipative generator (not of
commutator form) whose coherence-decay and population-relaxation rates
are set independently, for exercising decoherence-vs-relaxation time
ordering; nothing in the projection machinery depends on it.

Only the windowed route integrates, and no CLI subcommand reaches it, so
scipy is imported only inside ``solve_ivp``; any later scipy-backed route
defers its import the same way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .liouville import (
    CoarseState,
    DimensionMismatchError,
    require_hermitian,
    state_map,
    unvec,
    validate_observable,
    vec,
)

__all__ = [
    "Liouvillian",
    "MemoryKernel",
    "DissipativeToy",
    "build_liouvillian",
    "defect",
    "evolve_master_exact",
    "evolve_nakajima_zwanzig",
    "memory_kernel",
    "evolve_linear_generator",
    "dissipative_toy",
    "solve_ivp",
]

# DOP853 tolerances of the windowed memory-kernel integration
RTOL = 1e-10
ATOL = 1e-12
# Hermiticity and identity-annihilation tolerance of a Liouvillian
LIOUVILLIAN_TOL = 1e-10


@dataclass(frozen=True)
class Liouvillian:
    """Superoperator of i d|rho)/dt = L|rho) with L|rho) = [H, rho].

    L inherits Hermiticity from H (so its spectrum is real: the Bohr
    frequency differences), it annihilates the identity, and e^{-iLt}
    is the unitary conjugation group on operators.
    """

    superop: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.superop, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                f"superoperator shape {m.shape} is not square"
            )
        d2 = m.shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2:
            raise DimensionMismatchError(
                f"superoperator size {d2} is not a squared dimension"
            )
        # Hermitian, so that its Bohr spectrum is real
        require_hermitian(m, LIOUVILLIAN_TOL, "commutator superoperator")
        resid = float(np.max(np.abs(m @ vec(np.eye(d)))))
        if resid > LIOUVILLIAN_TOL:
            raise ValueError(f"L does not annihilate the identity: {resid:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "superop", m)

    def spectrum(self):
        """Real eigenvalues (the Bohr frequency differences)."""
        return np.linalg.eigvalsh(self.superop)


def build_liouvillian(hamiltonian):
    """L = I (x) H - H^T (x) I in column-stacking vectorization."""
    h = np.asarray(hamiltonian, dtype=complex)
    validate_observable(h)
    eye = np.eye(h.shape[0], dtype=complex)
    return Liouvillian(np.kron(eye, h) - np.kron(h.T, eye))


def defect(pi, liouville):
    """The matrix N = pi L - L pi; zero exactly when pi commutes with L."""
    pi = np.asarray(pi, dtype=complex)
    lm = liouville.superop
    if pi.shape != lm.shape:
        raise DimensionMismatchError(
            f"projector shape {pi.shape} vs Liouvillian {lm.shape}"
        )
    return pi @ lm - lm @ pi


# ---------------------------------------------------------------------------
# exact projected evolution
# ---------------------------------------------------------------------------

def _coarse_states(columns):
    """One :class:`CoarseState` per column of vectorized states."""
    return [CoarseState(unvec(col)) for col in columns.T]


def _propagate(g, v0, times):
    """e^{g t} v0 for a diagonalizable g, shape np.shape(times) + v0.shape."""
    lam, smat = np.linalg.eig(g)
    coeff = np.linalg.solve(smat, v0)
    # one stacked mat-vec per time: smat @ (e^{lam t} * coeff)
    return (smat @ (np.exp(lam * times[..., None]) * coeff)[..., None])[..., 0]


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported on first call: the import
    costs more than all of ``decolab.cli``, which never integrates."""
    from scipy.integrate import solve_ivp as integrate
    return integrate(fun, t_span, y0, **options)


def _integrate_complex(rhs, y0, t_span, t_eval, dense_output=False):
    """One DOP853 call at RTOL/ATOL."""
    sol = solve_ivp(rhs, t_span, y0, t_eval=t_eval, method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=dense_output)
    if not sol.success:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol


def evolve_master_exact(rho0, pi, liouville, times):
    """Solve i d|rho_G)/dt = L|rho_G) + N|rho(t)), N = PL - LP.

    From |rho_G(t0)) = P|rho_0), with the feedback |rho(t)) =
    e^{-iL(t - t0)}|rho_0): time is measured from t0 = times[0].  Duhamel's
    formula in the eigenbasis L = V E V^dag gives, with M = V^dag N V,
    x = V^dag|rho_0) and s = t - t0,

        y_k(t) = e^{-iE_k s} [(V^dag P|rho_0))_k - i sum_j M_kj x_j Phi_kj(s)],
        Phi_kj(s) = s e^{i D s/2} sinc(D s/2pi),   D = E_k - E_j,

    exact at D = 0 with no threshold.  The defect N stays the source and
    P e^{-iLt} is never formed, so agreement with coarse_grain(rho(t), pi)
    is a consistency check, not a tautology.  Returns a list of
    :class:`CoarseState`.
    """
    p = state_map(np.asarray(pi, dtype=complex))
    n = defect(p, liouville)
    x0 = vec(np.asarray(rho0, dtype=complex))
    if p.shape[0] != x0.size:
        raise DimensionMismatchError("projector does not match state dimension")
    evals, vmat = np.linalg.eigh(liouville.superop)
    source = (vmat.conj().T @ n @ vmat) * (vmat.conj().T @ x0)
    gaps = np.subtract.outer(evals, evals)

    def phi(s):
        return s * np.exp(0.5j * gaps * s) * np.sinc(gaps * (s / (2 * np.pi)))

    times = np.asarray(times, dtype=float)
    start = vmat.conj().T @ (p @ x0)
    # one sample at a time: O(d^4) memory rather than O(T d^4)
    ys = [np.exp(-1j * evals * s)
          * (start - 1j * np.sum(source * phi(s), axis=1))
          for s in times - times[0]]
    return _coarse_states(vmat @ np.array(ys).T)


# ---------------------------------------------------------------------------
# memory-kernel (P/Q) route
# ---------------------------------------------------------------------------

def _range_basis(projector):
    """Orthonormal basis of the column space of an idempotent matrix."""
    u, s, _ = np.linalg.svd(np.asarray(projector, dtype=complex))
    rank = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
    return u[:, :rank]


@dataclass(frozen=True)
class _PQSystem:
    """The P/Q split of L, P = pi^dag, with QLQ in its eigenmodes z."""

    p: np.ndarray           # P, the state map of the projector
    plp: np.ndarray
    lam: np.ndarray         # eigenvalues of QLQ on range(Q)
    into_modes: np.ndarray  # y -> dz drive
    from_modes: np.ndarray  # z -> dy drive
    seed: np.ndarray        # |rho) -> mode coordinates of Q|rho)


def _pq_system(pi, liouville):
    """Restricted operators for the P/Q split of L."""
    p = state_map(np.asarray(pi, dtype=complex))
    lm = liouville.superop
    q = np.eye(p.shape[0], dtype=complex) - p
    u_q = _range_basis(q)
    a = u_q.conj().T @ (q @ lm @ q) @ u_q      # QLQ on range(Q)
    lam, smat = np.linalg.eig(a)
    s_inv = np.linalg.inv(smat)
    return _PQSystem(p=p, plp=p @ lm @ p, lam=lam,
                     into_modes=s_inv @ u_q.conj().T @ (q @ lm @ p),
                     from_modes=p @ lm @ (u_q @ smat),
                     seed=s_inv @ u_q.conj().T @ q)


@dataclass(frozen=True)
class MemoryKernel:
    """K(tau) samples on range(P) coordinates (basis columns included).

    ``matrices[k]`` is K(taus[k]).
    """

    taus: np.ndarray
    matrices: np.ndarray
    basis: np.ndarray


def memory_kernel(pi, liouville, taus):
    """Sample K(tau) = PLQ e^{-iQLQ tau} QLP restricted to range(P).

    Returns a :class:`MemoryKernel` whose matrices act on coordinates in
    the returned orthonormal basis of range(P); K(0) is PLQ QLP itself.
    """
    pq = _pq_system(pi, liouville)
    u_p = _range_basis(pq.p)
    left = u_p.conj().T @ pq.from_modes
    right = pq.into_modes @ u_p
    taus = np.asarray(taus, dtype=float)
    phase = np.exp(-1j * pq.lam * taus[:, None])
    return MemoryKernel(taus, (left * phase[:, None, :]) @ right, u_p)


def evolve_nakajima_zwanzig(rho0, pi, liouville, times, kernel_window=None):
    """Solve the closed P/Q equation for y = P|rho), P = state_map(pi).

    The memory integral is carried exactly by the eigenmodes of QLQ on
    range(Q): the pair (y, z) with z the mode coordinates of Q|rho)
    obeys a local linear system whose y-component reproduces the
    convolution equation.  Q|rho_0) seeds the modes, which is exactly
    the inhomogeneous term, so the equation is exact for every initial
    state.  That system is autonomous and diagonalizable, so (y, z) is
    propagated in closed form from its eigendecomposition.

    A finite ``kernel_window`` w replaces the integral over [0, t] by
    [t - w, t]: y is driven by z(t) - e^{-iQLQ w} z(t - w), plus the
    source e^{-iQLQ (t - t0)} Q|rho_0) that this subtraction cancels.
    The delay equation is integrated (DOP853) by the method of steps: one
    integration per window, reading z(t - w) from the previous window's
    dense output.  A window at least the horizon long truncates nothing
    and takes the closed form.  If w is shorter than the requested
    horizon a truncation warning with a crude bound estimate is emitted.
    The windowed path requires strictly increasing times; a window that
    is not positive is refused.
    """
    if kernel_window is not None and not kernel_window > 0:
        # written as "not > 0" so that a NaN window is refused too
        raise ValueError(
            f"kernel_window must be positive or None, got {kernel_window}")
    times = np.asarray(times, dtype=float)
    x0 = vec(np.asarray(rho0, dtype=complex))
    if np.shape(pi)[0] != x0.size:
        raise DimensionMismatchError("projector does not match state dimension")
    pq = _pq_system(pi, liouville)
    y0 = pq.p @ x0
    z0 = pq.seed @ x0
    t0, t1 = float(times[0]), float(times[-1])
    horizon = t1 - t0
    if kernel_window is None or kernel_window >= horizon:
        # one autonomous linear system: L on range(P) (+) range(Q) in the
        # coordinates (y, z), plus zeros on ker P, so it diagonalizes
        g = -1j * np.block([[pq.plp, pq.from_modes],
                            [pq.into_modes, np.diag(pq.lam)]])
        yz = _propagate(g, np.concatenate([y0, z0]), times - t0)
        return _coarse_states(yz[:, :y0.size].T)

    # crude tail bound: |e^{-iQLQ tau}| stays O(1) on a real spectrum,
    # so nothing decays by itself and the dropped history is bounded
    # only by its duration times the coupling strengths
    drop = (np.linalg.norm(pq.from_modes, 2)
            * np.linalg.norm(pq.into_modes, 2) * (horizon - kernel_window))
    warnings.warn(
        f"memory window {kernel_window} is shorter than the horizon "
        f"{horizon}; dropped-tail bound ~ {drop:.3e} * sup|y|",
        RuntimeWarning, stacklevel=2)
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    decay = np.exp(-1j * pq.lam * kernel_window)
    # segment k spans [t0 + k w, t0 + (k + 1) w], cut at t1; edges from
    # the integer k, so a horizon of whole windows adds no sliver at t1
    edges = [t0 + k * kernel_window
             for k in range(int(horizon // kernel_window) + 1)
             if t0 + k * kernel_window < t1] + [t1]

    # a sample on an edge is read from the segment that ends there
    chunks = np.split(times, np.searchsorted(times, edges[1:-1], side="right"))
    ny = y0.size
    history = None  # dense output of the previous segment

    def rhs(t, yz):
        y, z = yz[:ny], yz[ny:]
        drive = z if history is None else \
            z - decay * history(t - kernel_window)[ny:] \
            + np.exp(-1j * pq.lam * (t - t0)) * z0
        dy = -1j * (pq.plp @ y + pq.from_modes @ drive)
        dz = -1j * (pq.lam * z + pq.into_modes @ y)
        return np.concatenate([dy, dz])

    yz, ys = np.concatenate([y0, z0]), []
    for a, b, chunk in zip(edges, edges[1:], chunks):
        # only a segment that has a successor keeps its dense output
        sol = _integrate_complex(rhs, yz, (a, b), chunk, dense_output=b < t1)
        if chunk.size:
            ys.append(sol.y)
        if b < t1:
            yz, history = sol.sol(b), sol.sol
    return _coarse_states(np.concatenate(ys, axis=1)[:ny])


# ---------------------------------------------------------------------------
# dissipative toy generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipativeToy:
    """d=3 linear generator with separately dialed decay rates.

    Coherences rho_ij (i != j) evolve as e^{(-gamma_decohere + i phi_ij) t};
    populations relax toward ``equilibrium`` at rate gamma_relax (trace
    preserving).  Constructed, not derived: it stands in for dissipative
    dynamics so the decoherence-vs-relaxation ordering can be exercised
    with known ground truth t_D = 1/gamma_decohere, t_R = 1/gamma_relax.
    """

    generator: np.ndarray
    equilibrium: np.ndarray
    gamma_decohere: float
    gamma_relax: float
    frequencies: np.ndarray
    rho0: np.ndarray


def dissipative_toy(gamma_decohere=1.0, gamma_relax=0.2):
    """The named d=3 fixture: t_D = 1/gamma_decohere, t_R = 1/gamma_relax."""
    d = 3
    p_star = np.array([0.5, 0.3, 0.2])
    freqs = np.array([0.0, 1.3, 2.9])
    gen = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            row = i + d * j  # column-stacking vec index of entry (i, j)
            if i == j:
                continue
            gen[row, row] = -gamma_decohere + 1j * (freqs[i] - freqs[j])
    # population sector: dp/dt = -gamma (p - p*); trace conservation makes
    # it linear, dp/dt = gamma (p* 1^T - I) p
    for i in range(d):
        for j in range(d):
            gen[i + d * i, j + d * j] = gamma_relax * (
                p_star[i] - (1.0 if i == j else 0.0))
    v = np.sqrt(np.array([0.2, 0.5, 0.3], dtype=complex))
    rho0 = np.outer(v, v.conj())
    return DissipativeToy(gen, p_star, float(gamma_decohere),
                          float(gamma_relax), freqs, rho0)


def evolve_linear_generator(generator, rho0, times):
    """d|rho)/dt = G|rho) via eigendecomposition of a diagonalizable G.

    Returns an array of shape np.shape(times) + (d, d).
    """
    g = np.asarray(generator, dtype=complex)
    x0 = vec(np.asarray(rho0, dtype=complex))
    if g.shape != (x0.size, x0.size):
        raise DimensionMismatchError(
            f"generator shape {g.shape} vs state length {x0.size}"
        )
    times = np.asarray(times, dtype=float)
    d = rho0.shape[0]
    return _propagate(g, x0, times).reshape(
        times.shape + (d, d)).swapaxes(-1, -2)
