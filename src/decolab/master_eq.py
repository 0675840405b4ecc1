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
the exactly evolved state.  The P/Q split is one similarity B^-1 L B,
B = [u_p u_q] spanning range(P) and range(Q) = ker P from one SVD of P.
The convolution is realized by auxiliary memory modes (the eigenmodes of
QLQ on range(Q)), which reproduces the memory integral exactly rather
than by kernel sampling.  An orthogonal projector (P = P^dag: the
partial trace, the diagonal projector) makes QLQ and the memory system
Hermitian, so they are diagonalized by eigh with real frequencies and
unitary eigenvectors; an oblique projector takes the general eig and
inverts its eigenvectors.  An optional finite memory window truncates
the integral explicitly and says so, and is refused where QLQ has a
growing mode; the windowed delay equation is solved exactly too, by the
method of steps with a Taylor series.  No decolab module imports scipy.
Sample times must be finite, as for every route, and 1-d: the projected
routes return one state per sample.

The module also carries a small dissipative generator (not of
commutator form) whose coherence-decay and population-relaxation rates
are set independently, for exercising decoherence-vs-relaxation time
ordering; nothing in the projection machinery depends on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .liouville import (
    HERMITICITY_TOL,
    CoarseState,
    DimensionMismatchError,
    _axis,
    _finite,
    hermitian_deviation,
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
]

# windowed route: Taylor substeps |L h| <= THETA end their series by term 33
TAYLOR_THETA = 4.0
TAYLOR_TERMS = 40
# growth rate above which the windowed route refuses a QLQ mode as growing
LIOUVILLIAN_TOL = 1e-10


@dataclass(frozen=True)
class Liouvillian:
    """i d|rho)/dt = L|rho) with L|rho) = [H, rho], held as its Hamiltonian.

    ``hamiltonian`` is validated once and frozen; ``superop`` is derived
    from it as L = I (x) H - H^T (x) I in column-stacking vectorization.
    L is Hermitian for a Hermitian H and annihilates the identity by
    construction, and e^{-iLt} is the unitary conjugation group on
    operators.
    """

    hamiltonian: np.ndarray
    superop: np.ndarray = field(init=False)

    def __post_init__(self):
        h = validate_observable(np.array(self.hamiltonian, dtype=complex))
        eye = np.eye(h.shape[0], dtype=complex)
        superop = np.kron(eye, h) - np.kron(h.T, eye)
        for name, m in (("hamiltonian", h), ("superop", superop)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def eigensystem(self):
        """L = V diag(E) V^dag from one eigh of H = U diag(e) U^dag.

        In vec order j d + i, E = e_i - e_j (the Bohr frequencies) and
        V = kron(conj(U), U), whose column is conj(u_j) (x) u_i =
        vec(u_i u_j^dag); V is unitary.
        """
        e, u = np.linalg.eigh(self.hamiltonian)
        return np.subtract.outer(e, e).ravel(order="F"), np.kron(u.conj(), u)


def build_liouvillian(hamiltonian):
    """The :class:`Liouvillian` of ``hamiltonian``."""
    return Liouvillian(hamiltonian)


def _check_sizes(pi, liouville, rho0=None, times=()):
    """Refuse a projector or a state from another space than L's, or sample
    times that are not finite and 1-d; returns the times as an array."""
    shape = liouville.superop.shape
    if np.shape(pi) != shape:
        raise DimensionMismatchError(f"projector shape {np.shape(pi)} vs L {shape}")
    if rho0 is not None and np.shape(rho0) != liouville.hamiltonian.shape:
        raise DimensionMismatchError(
            "projector does not match state dimension: state shape "
            f"{np.shape(rho0)} vs H {liouville.hamiltonian.shape}")
    times = _finite(times)
    if times.ndim != 1:
        raise ValueError(f"sample times must be 1-d, shape {times.shape}")
    return times


def defect(pi, liouville):
    """The matrix N = pi L - L pi; zero exactly when pi commutes with L."""
    _check_sizes(pi, liouville)
    pi, lm = np.asarray(pi, dtype=complex), liouville.superop
    return pi @ lm - lm @ pi


# ---------------------------------------------------------------------------
# exact projected evolution
# ---------------------------------------------------------------------------

def _coarse_states(columns):
    """One :class:`CoarseState` per column of vectorized states."""
    return [CoarseState(unvec(col)) for col in columns.T]


def _propagate(g, v0, times, hermitian=False):
    """e^{g t} v0 for a diagonalizable g, shape np.shape(times) + v0.shape:
    by eig and a solve, or, for g = -iH with H ``hermitian``, by eigh, whose
    unitary eigenvectors W give the coefficients W^dag v0."""
    if hermitian:
        freqs, smat = np.linalg.eigh(1j * g)
        lam, coeff = -1j * freqs, smat.conj().T @ v0
    else:
        lam, smat = np.linalg.eig(g)
        coeff = np.linalg.solve(smat, v0)
    # one stacked mat-vec per time: smat @ (e^{lam t} * coeff)
    return (smat @ (np.exp(lam * times[..., None]) * coeff)[..., None])[..., 0]


def _taylor(step, v, dt, bound):
    """e^{dt L} v for the linear map L = ``step``, |L| <= bound: a Taylor
    series on substeps h with |L h| <= TAYLOR_THETA, each summed until two
    terms in a row fall below roundoff (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)); a partial sum or an overflow raises."""
    count = int(np.ceil(abs(dt) * bound / TAYLOR_THETA))
    for _ in range(count):
        total, term, last = v, v, np.inf
        tol = np.finfo(float).eps * np.linalg.norm(v)
        for k in range(1, TAYLOR_TERMS + 1):
            term = step(term) * (dt / count / k)
            total, prev, last = total + term, last, np.linalg.norm(term)
            if not np.isfinite(last):
                raise FloatingPointError("Taylor term overflows")
            if prev + last <= tol:
                break
        else:
            raise RuntimeError(f"no Taylor convergence in {TAYLOR_TERMS} terms")
        v = total
    return v


def evolve_master_exact(rho0, pi, liouville, times):
    """Solve i d|rho_G)/dt = L|rho_G) + N|rho(t)), N = PL - LP.

    From |rho_G(t0)) = P|rho_0), with the feedback |rho(t)) =
    e^{-iL(t - t0)}|rho_0): time is measured from t0 = times[0].  Duhamel's
    formula in the eigenbasis L = V E V^dag, read from one eigh of H by
    :meth:`Liouvillian.eigensystem`, gives, with c = M o x,
    M = V^dag N V, x = V^dag|rho_0) and s = t - t0, the interaction-picture
    state w(s) = e^{iEs} o y(s) as

        w_k(s) = (V^dag P|rho_0))_k - i sum_j c_kj Phi_kj(s),
        Phi_kj(s) = s e^{i D s/2} sinc(D s/2pi),   D = E_k - E_j,

    exact at D = 0 with no threshold.  Since Phi(s + h) - Phi(s) =
    e^{iE_k s} Phi_kj(h) e^{-iE_j s}, a step h between samples adds
    w(s + h) - w(s) = -i e^{iEs} o [(c o Phi(h)) e^{-iEs}], and a cumulative
    sum over the samples gives w.  Steps are grouped by exact float
    equality, one Phi(h) and one contraction per distinct step, so the cost
    scales with the number of distinct steps (1-13 on a linspace grid) and
    any grid, unsorted or with repeats, is exact.  The defect N stays the
    source and P e^{-iLt} is never formed, so agreement with
    coarse_grain(rho(t), pi) is a consistency check, not a tautology.
    Returns a list of :class:`CoarseState`.
    """
    times = _check_sizes(pi, liouville, rho0, times)
    if not times.size:
        return []
    p = state_map(np.asarray(pi, dtype=complex))
    n = defect(p, liouville)
    x0 = vec(np.asarray(rho0, dtype=complex))
    evals, vmat = liouville.eigensystem()
    source = (vmat.conj().T @ n @ vmat) * (vmat.conj().T @ x0)
    gaps = np.subtract.outer(evals, evals)
    s = times - times[0]
    back = np.exp(-1j * np.outer(s, evals))  # rows e^{-iEs}
    steps = np.diff(s)
    dw = np.zeros_like(back)
    for h in dict.fromkeys(steps.tolist()):
        rows = np.flatnonzero(steps == h)
        phi = h * np.exp(0.5j * gaps * h) * np.sinc(gaps * (h / (2 * np.pi)))
        dw[rows + 1] = np.einsum("kj,nj->nk", source * phi, back[rows])
    dw[1:] *= -1j * back[:-1].conj()
    ws = vmat.conj().T @ (p @ x0) + np.cumsum(dw, axis=0)
    return _coarse_states(vmat @ (back * ws).T)


# ---------------------------------------------------------------------------
# memory-kernel (P/Q) route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PQSystem:
    """The P/Q split of L as the blocks of B^-1 L B, B = [u_p u_q] from one
    SVD of P = pi^dag, in (a, z): P|rho) = u_p a, z the QLQ eigenmodes."""

    basis: np.ndarray       # u_p
    plp: np.ndarray         # u_p^dag PLP u_p
    lam: np.ndarray         # eigenvalues of QLQ on range(Q)
    into_modes: np.ndarray  # a -> dz drive
    from_modes: np.ndarray  # z -> da drive
    coords: np.ndarray      # |rho) -> (a, z)
    unitary: bool           # P = P^dag: S unitary, L on (a, z) Hermitian


def _pq_system(pi, liouville):
    """The P/Q split of L in (a, z), as all three memory routes read it.

    range(Q) = ker P, so one SVD P = U s V^dag of rank r gives orthonormal
    u_p = U[:, :r] and u_q = V[:, r:], B = [u_p u_q] has the inverse
    [u_p^dag P; u_q^dag Q], and the split is B^-1 L B.  An orthogonal
    projector, P Hermitian to HERMITICITY_TOL, makes QLQ Hermitian: eigh
    gives real lam and unitary S^-1 = S^dag, and L on (a, z) is Hermitian
    too.  An oblique projector takes eig and inverts S.
    """
    p = state_map(np.asarray(pi, dtype=complex))
    u, s, vh = np.linalg.svd(p)
    r = int(np.sum(s > 1e-10 * max(1.0, float(s[0]))))
    # u_p^dag P = s V^dag on range(P), and u_q^dag Q = u_q^dag (1 - P)
    b_inv = np.vstack([s[:r, None] * vh[:r], vh[r:] - vh[r:] @ p])
    blocks = b_inv @ liouville.superop @ np.hstack([u[:, :r], vh[r:].conj().T])
    unitary = hermitian_deviation(p) <= HERMITICITY_TOL
    lam, smat = (np.linalg.eigh if unitary else np.linalg.eig)(blocks[r:, r:])
    s_inv = smat.conj().T if unitary else np.linalg.inv(smat)
    return _PQSystem(basis=u[:, :r], plp=blocks[:r, :r], lam=lam,
                     into_modes=s_inv @ blocks[r:, :r],
                     from_modes=blocks[:r, r:] @ smat, unitary=unitary,
                     coords=np.vstack([b_inv[:r], s_inv @ b_inv[r:]]))


def _growth(rates):
    """The fastest of the QLQ modes' growth ``rates``, 0 when none grows
    (always for an orthogonal projector), and the phrase naming it."""
    rate = np.max(rates, initial=0.0)
    return rate, f"QLQ has modes growing like e^({rate:.3g} t)"


@dataclass(frozen=True)
class MemoryKernel:
    """K(tau) samples on range(P) coordinates (basis columns included).

    ``matrices[k]`` is K(tau) at the k-th lag passed to :func:`memory_kernel`.
    """

    matrices: np.ndarray
    basis: np.ndarray


def memory_kernel(pi, liouville, taus):
    """Sample K(tau) = PLQ e^{-iQLQ tau} QLP restricted to range(P).

    Returns a :class:`MemoryKernel` whose matrices act on coordinates in
    the returned orthonormal basis of range(P); K(0) is PLQ QLP itself.
    A kernel that overflows (an oblique projector whose QLQ has growing
    modes) is refused with ``FloatingPointError`` naming the growth rate.
    """
    taus = _check_sizes(pi, liouville, times=taus)
    pq = _pq_system(pi, liouville)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-1j * pq.lam * taus[:, None])
        matrices = (pq.from_modes * phase[:, None, :]) @ pq.into_modes
    if not np.isfinite(matrices).all():
        # |e^{-i lam tau}| = e^{Im(lam) tau}: the rate along the lags sampled
        _, modes = _growth(pq.lam.imag * np.sign(taus)[:, None])
        raise FloatingPointError(f"memory kernel overflows: {modes}")
    return MemoryKernel(matrices, pq.basis)


def evolve_nakajima_zwanzig(rho0, pi, liouville, times, kernel_window=None):
    """Solve the closed P/Q equation for y = P|rho), P = state_map(pi).

    The memory integral is carried exactly by the eigenmodes of QLQ on
    range(Q): with y = u_p a, u_p orthonormal in range(P), and z the mode
    coordinates of Q|rho), (a, z) obeys an autonomous, diagonalizable
    linear system whose a-component reproduces the convolution equation;
    Q|rho_0) seeds the modes, which is exactly the inhomogeneous term, so
    it is exact for every initial state and is propagated in closed form:
    for an orthogonal projector by eigh of its Hermitian generator, whose
    unitary eigenvectors W give the coefficients W^dag (a, z)(t0), and for
    an oblique one by eig and a solve.

    A finite ``kernel_window`` w replaces the integral over [0, t] by
    [t - w, t]: y is driven by z(t) - D z(t - w), D = e^{-iQLQ w}, plus
    the source e^{-iQLQ (t - t0)} Q|rho_0) that this subtraction cancels.
    The method of steps solves it exactly: segment j of the time axis is
    column j of one array, driven by column j - 1, and all columns advance
    together by a truncated Taylor series.  A window at least the horizon
    long truncates nothing and takes the closed form.  A shorter one is
    refused with ``FloatingPointError`` naming the rate where QLQ has a
    growing mode (oblique projectors only), or else warns with a bound on
    the dropped tail and needs strictly increasing times.  A window that
    is not positive is refused.
    """
    if kernel_window is not None and not kernel_window > 0:
        # written as "not > 0" so that a NaN window is refused too
        raise ValueError(
            f"kernel_window must be positive or None, got {kernel_window}")
    times = _check_sizes(pi, liouville, rho0, times)
    if not times.size:
        return []
    pq = _pq_system(pi, liouville)
    na, m = pq.plp.shape[0], pq.coords.shape[0]
    # L on range(P) (+) range(Q) in the coordinates (a, z): no ker P rows
    g = -1j * np.block([[pq.plp, pq.from_modes],
                        [pq.into_modes, np.diag(pq.lam)]])
    start = pq.coords @ vec(np.asarray(rho0, dtype=complex))
    t0, horizon = times[0], times[-1] - times[0]
    if kernel_window is None or kernel_window >= horizon:
        az = _propagate(g, start, times - t0, hermitian=pq.unitary)
        return _coarse_states(pq.basis @ az[:, :na].T)

    # a growing QLQ mode leaves the dropped history unbounded
    rate, modes = _growth(pq.lam.imag)
    if rate > LIOUVILLIAN_TOL:
        raise FloatingPointError(f"windowed route refused: {modes}")
    # |K(tau)| <= |from| |into| over the lags [w, horizon] it drops
    drop = (np.linalg.norm(pq.from_modes, 2)
            * np.linalg.norm(pq.into_modes, 2) * (horizon - kernel_window))
    warnings.warn(
        f"memory window {kernel_window} is shorter than the horizon "
        f"{horizon}; dropped-tail bound ~ {drop:.3e} * sup|y|",
        RuntimeWarning, stacklevel=2)
    _axis(times, "sample times", 1)
    # column j is (a, z, r)(t0 + j w + s), r = D^j e^{-iQLQ s} Q|rho_0)
    # the source, driven by +i from D (z_{j-1} - r_{j-1}), D = e^{-iQLQ w}
    feed = 1j * pq.from_modes * np.exp(-1j * pq.lam * kernel_window)
    bound = np.linalg.norm(g, 2) + np.sqrt(2) * np.linalg.norm(feed, 2)

    def step(v):
        out = np.concatenate([g @ v[:m], -1j * pq.lam[:, None] * v[m:]])
        out[:na, 1:] += feed @ (v[na:m, :-1] - v[m:, :-1])
        return out

    # a sample on an edge is read from the segment that ends there
    seg = np.maximum(np.ceil((times - t0) / kernel_window).astype(int) - 1, 0)
    v0 = np.concatenate([start, start[na:]])[:, None]
    v, s, out = v0, 0.0, []
    for j in range(seg[-1] + 1):
        for stop in times[seg == j] - t0 - j * kernel_window:
            v, s = _taylor(step, v, stop - s, bound), stop
            out.append(v[:na, -1])
        if j < seg[-1]:  # the end of segment j starts segment j + 1
            v = _taylor(step, v, kernel_window - s, bound)
            v, s = np.hstack([v0, v]), 0.0
    return _coarse_states(pq.basis @ np.array(out).T)


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
    """The named d=3 fixture: t_D = 1/gamma_decohere, t_R = 1/gamma_relax.

    Rates whose generator is not completely positive raise ``ValueError``:
    G generates a completely positive semigroup exactly when its Choi
    matrix sum_ij |i><j| (x) G(|i><j|), projected off the maximally
    entangled vector, is positive semidefinite (Lindblad 1976; Gorini,
    Kossakowski and Sudarshan 1976).  The tolerance is roundoff on G's
    largest entry, so the frequencies' rounding cannot refuse tiny rates.
    """
    d = 3
    p_star = np.array([0.5, 0.3, 0.2])
    freqs = np.array([0.0, 1.3, 2.9])
    gen = np.diag(vec(-gamma_decohere + 1j * np.subtract.outer(freqs, freqs)))
    # populations (vec indices of the diagonal): dp/dt = -gamma (p - p*),
    # linear by trace conservation as dp/dt = gamma (p* 1^T - I) p
    pops = np.arange(d) * (d + 1)
    gen[np.ix_(pops, pops)] = gamma_relax * (p_star[:, None] - np.eye(d))
    # choi[(i, a), (j, b)] = G(|i><j|)[a, b] = gen[a + d b, i + d j]
    choi = gen.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, -1)
    # projector off the maximally entangled vector sum_i |ii> / sqrt(d)
    off = np.eye(d * d) - np.outer(np.eye(d), np.eye(d)) / d
    low = float(np.linalg.eigvalsh(off @ choi @ off).min())
    if not low >= -d * d * np.finfo(float).eps * np.abs(gen).max():
        raise ValueError(
            f"gamma_decohere = {gamma_decohere!r} and gamma_relax = "
            f"{gamma_relax!r} give a generator that is not completely "
            f"positive: its projected Choi matrix has eigenvalue {low:.3e}")
    v = np.sqrt(np.array([0.2, 0.5, 0.3], dtype=complex))
    rho0 = np.outer(v, v.conj())
    return DissipativeToy(gen, p_star, float(gamma_decohere),
                          float(gamma_relax), freqs, rho0)


def evolve_linear_generator(generator, rho0, times):
    """d|rho)/dt = G|rho) via eigendecomposition of a diagonalizable G.

    Returns an array of shape np.shape(times) + (d, d).
    """
    g = np.asarray(generator, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0] if rho0.ndim else 0
    if rho0.shape != (d, d) or g.shape != (d * d, d * d):
        raise DimensionMismatchError(
            f"state shape {rho0.shape} vs generator shape {g.shape}: "
            "need a d x d state and a d^2 x d^2 generator"
        )
    times = _finite(times)
    return _propagate(g, vec(rho0), times).reshape(
        times.shape + (d, d)).swapaxes(-1, -2)
