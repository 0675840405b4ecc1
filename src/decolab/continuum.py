"""Closed-system route to decoherence on a discretized energy continuum.

States and observables are kernel pairs over an energy variable: a
singular diagonal part sampled as O(omega) plus a regular off-diagonal
function O(omega, omega').  The pairing is a direct sum of two sectors,

    <O>_rho(t) = int rho(w) O(w) dw + int f(nu) e^{-i nu t} dnu,
    f(nu) = int rho(w, w - nu) O(w - nu, w) dw,

and the second, a Fourier transform in the lag nu = w - w', dies out by
Riemann-Lebesgue decay for regular kernels: every such expectation value
settles to the diagonal quadrature alone (a weak limit: the state kernel
itself never converges).  On the uniform N-point grid with trapezoid
weights that replaces the continuum, f lives on 2N - 1 lags and T times
cost O(N^2 + T N); other grids are left to discretized_unitary_oracle.
All decay claims are windowed below the grid recurrence time 2*pi / (min
energy gap), which is computed and reported rather than assumed away.

Nothing here exchanges energy: evolution touches only the phases of the
off-diagonal kernel, so diag(rho) is exactly time-invariant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .liouville import (_TILE, HERMITICITY_TOL, DimensionMismatchError,
                        _axis, _finite, _frozen, require_hermitian)

__all__ = [
    "EnergyGrid",
    "VanHoveObservable",
    "VanHoveState",
    "SingularRidge",
    "GeneralKernelObservable",
    "UntaggedComponentError",
    "expectation_sid",
    "lag_measure",
    "phase_sum",
    "offdiag_contribution",
    "sid_limit",
    "hamiltonian_observable",
    "sid_projector",
    "MeasuredObservable",
    "build_vanhove_from_measurements",
    "discretized_unitary_oracle",
    "load_table_kernel",
    "sid_scenario",
    "family_kernel",
    "gaussian_scenario",
    "gaussian_envelope",
]

ORACLE_GRID_CAP = 400
# table energies must sit this close to a grid point
TABLE_MATCH_TOL = 1e-9
# table rows matched to grid points per block: O(block) temporaries
_TABLE_BLOCK = 8192


class UntaggedComponentError(ValueError):
    """A kernel component without a recognized singular/regular tag.

    The regular-vs-singular split cannot be detected from samples; it has
    to be declared by the caller.
    """


# ---------------------------------------------------------------------------
# grid and kernel types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyGrid:
    """Strictly increasing energies >= 0 with trapezoid quadrature weights."""

    omega: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        w = _frozen(_axis(self.omega, "grid energies", 2))
        if w[0] < 0:
            raise ValueError("grid energies must be >= 0")
        q = np.empty_like(w)
        q[0] = 0.5 * (w[1] - w[0])
        q[-1] = 0.5 * (w[-1] - w[-2])
        q[1:-1] = 0.5 * (w[2:] - w[:-2])
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "weights", _frozen(q))

    @classmethod
    def uniform(cls, omega_min, omega_max, n):
        return cls(np.linspace(omega_min, omega_max, n))

    @property
    def size(self):
        return self.omega.size

    @property
    def span(self):
        return float(self.omega[-1] - self.omega[0])

    def nearest(self, energies):
        """Index of the nearest grid point; a tie goes to the lower one."""
        w, x = self.omega, energies
        hi = np.clip(np.searchsorted(w, x), 1, w.size - 1)
        return np.where(np.abs(w[hi - 1] - x) <= np.abs(w[hi] - x), hi - 1, hi)

    def recurrence_window(self):
        """2*pi / (minimal energy gap): below it the discretization cannot
        fake a revival of the continuum dynamics."""
        return 2 * np.pi / float(np.min(np.diff(self.omega)))


def _check_kernel(grid, kernel, what):
    k = _frozen(kernel, complex if np.iscomplexobj(kernel) else float)
    n = grid.size
    if k.shape != (n, n):
        raise DimensionMismatchError(
            f"{what} kernel shape {k.shape} vs grid size {n}"
        )
    return require_hermitian(k, HERMITICITY_TOL, f"{what} kernel")


def _validate_kernels(obj, offdiag_field, what):
    """Check and freeze ``obj.diag`` and its regular off-diagonal kernel.

    The diagonal must match the grid and be finite.  A given kernel is
    copied once, float64 if real and complex128 otherwise (half the memory
    for a real one), and checked once; a missing one is a read-only zero view
    of O(1) memory, never checked: zero is Hermitian.  Returns the diagonal.
    """
    grid = obj.grid
    d = _frozen(_finite(obj.diag, "diagonal part"))
    if d.shape != grid.omega.shape:
        raise DimensionMismatchError(
            f"diag shape {d.shape} vs grid size {grid.size}"
        )
    off = getattr(obj, offdiag_field)
    off = (np.broadcast_to(0j, (grid.size, grid.size)) if off is None
           else _check_kernel(grid, off, what))
    object.__setattr__(obj, "diag", d)
    object.__setattr__(obj, offdiag_field, off)
    return d


@dataclass(frozen=True)
class VanHoveObservable:
    """Diagonal weight O(w) plus regular Hermitian kernel O(w, w')."""

    grid: EnergyGrid
    diag: np.ndarray
    offdiag: np.ndarray = None

    def __post_init__(self):
        _validate_kernels(self, "offdiag", "observable")


@dataclass(frozen=True)
class VanHoveState:
    """Energy distribution rho(w) >= 0 (quadrature 1) plus Hermitian kernel."""

    grid: EnergyGrid
    diag: np.ndarray
    offdiag: np.ndarray = None

    def __post_init__(self):
        d = _validate_kernels(self, "offdiag", "state")
        if float(d.min()) < -1e-12:
            raise ValueError(f"rho(w) has negative value {d.min():.3e}")
        norm = float(np.sum(self.grid.weights * d))
        # "not within" so that a NaN norm is refused too
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"quadrature of rho(w) is {norm!r}, expected 1")


@dataclass(frozen=True)
class SingularRidge:
    """Singular component weight(w) concentrated on the line w - w' = offset."""

    offset: float
    weight: np.ndarray
    label: str = "ridge"


@dataclass(frozen=True)
class GeneralKernelObservable:
    """Kernel observable before the regular/singular choice is imposed.

    ``offdiag_singular`` entries must be :class:`SingularRidge` instances;
    the split is declarative (it cannot be inferred from samples).
    """

    grid: EnergyGrid
    diag: np.ndarray
    offdiag_regular: np.ndarray = None
    offdiag_singular: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _validate_kernels(self, "offdiag_regular", "regular")
        object.__setattr__(self, "offdiag_singular",
                           tuple(self.offdiag_singular))


# ---------------------------------------------------------------------------
# pairings and limits
# ---------------------------------------------------------------------------

def _same_grid(a, b):
    if a.size != b.size or float(np.max(np.abs(a.omega - b.omega))) > 0:
        raise DimensionMismatchError("grids differ")


def expectation_sid(state, obs, t):
    """The pairing <O>_rho(t), with the shape of ``t``.

    :func:`sid_limit` plus the real part of :func:`lag_measure`'s phase
    sum, O(N^2 + T N): the 2N - 1 lags have N magnitudes.  A zero
    kernel, as for <H>, gives exactly the limit.
    """
    return sid_limit(state, obs) + phase_sum(*lag_measure(state, obs), t).real


def lag_measure(state, obs):
    """The off-diagonal sector as a measure (nu, f) on the lags nu = w - w'.

    On a uniform grid of step delta, C_ij = rho(w_i, w_j) O(w_j, w_i) q_i q_j
    evolves by e^{-i k delta t} for k = i - j, so it collapses to f_k =
    sum_{i-j=k} C_ij at nu_k = k delta, summed in blocks of _TILE rows in
    O(_TILE N) extra memory: row i, j descending, starts at column i of a
    line of 2N - 1, so each column is one lag, and line 0 carries the
    running f, summed down the columns in a bincount's order.  A spacing
    spread above 1e-12 of the span is refused:
    :func:`discretized_unitary_oracle` pairs that grid.
    """
    _same_grid(state.grid, obs.grid)
    g, n = state.grid, state.grid.size
    if np.ptp(np.diff(g.omega)) > 1e-12 * g.span:
        raise ValueError("the lag measure needs a uniform grid; pair a "
                         "non-uniform one with discretized_unitary_oracle")
    q, m, b = g.weights, 2 * n - 1, min(_TILE, n)
    # n spare entries: the sheared view of a full last line runs past it
    flat = np.zeros((b + 1) * m + n, dtype=complex)
    lines = flat[:(b + 1) * m].reshape(b + 1, m)
    for i in range(0, n, b):
        rows = min(b, n - i)
        lines[1:rows + 1] = 0.0
        block = flat[m + i:m + i + 2 * n * rows].reshape(rows, 2 * n)[:, :n]
        np.multiply(state.offdiag[i:i + rows, ::-1],
                    obs.offdiag[::-1, i:i + rows].T, out=block)
        block *= np.outer(q[i:i + rows], q[::-1])
        lines[0] = lines[:rows + 1].sum(axis=0)
    return np.arange(1 - n, n) * (g.span / (n - 1)), lines[0].copy()


def phase_sum(nu, weights, t):
    """sum_k weights_k e^{-i nu_k t}, with the shape of ``t``, in O(T U).

    U counts the distinct |nu_k|: with E_u, O_u the sums of w_k and
    sgn(nu_k) w_k over |nu_k| = u, it is E_u cos(u t) - i O_u sin(u t).
    Non-finite operands, or nu and weights not 1-d of one length, are
    refused.  Real arithmetic in ``np.einsum``, not BLAS, so the bytes do
    not depend on BLAS threads.
    """
    nu, t = _finite(nu, "phase_sum: nu"), _finite(t)
    w = _finite(weights, "phase_sum: weights", complex)
    if nu.ndim != 1 or w.shape != nu.shape:
        raise ValueError(f"phase_sum: nu {nu.shape} and weights {w.shape} "
                         "must be 1-d of one length")
    # return_inverse keeps np.unique from importing numpy.ma (1.3 MB RSS)
    mag, inv = np.unique(np.abs(nu), return_inverse=True)
    signed = np.where(np.signbit(nu), -w, w)
    e_re, e_im, o_re, o_im = (np.bincount(inv, x, mag.size) for x in
                              (w.real, w.imag, signed.real, signed.imag))
    nu_t = np.multiply.outer(t, mag)
    c, s = np.cos(nu_t), np.sin(nu_t, out=nu_t)
    re = np.einsum("...k,k", c, e_re) + np.einsum("...k,k", s, o_im)
    im = np.einsum("...k,k", c, e_im) - np.einsum("...k,k", s, o_re)
    return re + 1j * im


def offdiag_contribution(state, obs, t):
    """Only the oscillatory sector of :func:`expectation_sid`."""
    return expectation_sid(state, obs, t) - sid_limit(state, obs)


def sid_limit(state, obs):
    """Weak-limit value: the diagonal quadrature alone survives t -> inf."""
    _same_grid(state.grid, obs.grid)
    return float(np.sum(state.grid.weights * state.diag * obs.diag))


def hamiltonian_observable(grid):
    """H: diag weight w, and no regular kernel, so a read-only zero offdiag."""
    return VanHoveObservable(grid, grid.omega)


# ---------------------------------------------------------------------------
# the kernel projector
# ---------------------------------------------------------------------------

def sid_projector(obs):
    """Keep the diagonal weight and the regular kernel, drop singular ridges.

    Acting on an already-projected observable is the identity, so the map
    is idempotent.  Components in ``offdiag_singular`` must be tagged
    (:class:`SingularRidge`); anything else is rejected, because regular
    vs singular is a declaration, not a property of samples.
    """
    if isinstance(obs, VanHoveObservable):
        return obs
    if not isinstance(obs, GeneralKernelObservable):
        raise UntaggedComponentError(
            f"cannot project {type(obs).__name__}: kernel components must "
            "arrive tagged as diag / offdiag_regular / SingularRidge"
        )
    for comp in obs.offdiag_singular:
        if not isinstance(comp, SingularRidge):
            raise UntaggedComponentError(
                f"singular component {comp!r} is not a SingularRidge; "
                "the regular/singular split must be declared explicitly"
            )
    reg = obs.offdiag_regular
    # a missing kernel is the O(1) zero view, the only one with strides
    # (0, 0): pass it on as missing, not as n x n data to copy and check
    return VanHoveObservable(obs.grid, obs.diag,
                             None if reg.strides == (0, 0) else reg)


# ---------------------------------------------------------------------------
# finite-resolution measurement construction
# ---------------------------------------------------------------------------

class MeasuredObservable(NamedTuple):
    observable: VanHoveObservable
    gradient_bound: float   # measured max |grad| of the sampled kernel
    error_bound: float      # gradient_bound * delta_omega


def build_vanhove_from_measurements(z, delta_omega, kernel_fn=None):
    """Rebuild a kernel observable from resolution-limited measurements.

    The instrument reads the regular kernel at the nodes of a lattice of
    spacing ``delta_omega``; the returned observable bilinearly
    interpolates those readings back onto the working grid (exactly
    matching them at the nodes).  The diagonal weight is kept as is, and
    singular ridges are invisible at finite resolution.  ``kernel_fn``,
    when given, supplies exact lattice readings ``kernel_fn(w, w')``;
    otherwise the gridded kernel itself is sampled.

    Pairings against the rebuilt observable differ from the original by
    at most C * delta_omega for kernels with bounded gradient; C is
    measured from the lattice readings and reported.
    """
    obs = sid_projector(z)  # also validates tags
    g = obs.grid
    dw = float(delta_omega)
    if not dw > 0:  # "not > 0" so that a NaN resolution is refused too
        raise ValueError(f"instrument resolution must be positive, got {dw}")
    if dw > g.span:
        raise ValueError(
            f"resolution {dw} exceeds the grid span {g.span}; nothing to "
            "interpolate"
        )
    n_cells = int(np.ceil(g.span / dw))
    nodes = g.omega[0] + dw * np.arange(n_cells + 1)

    if kernel_fn is None:
        # the instrument reads the gridded kernel nearest each lattice node
        snap = g.nearest(nodes)
        readings = obs.offdiag[np.ix_(snap, snap)]
        node_pos = g.omega[snap]
        # snapped nodes may repeat at the ends; dedupe for interpolation
        node_pos, uniq = np.unique(node_pos, return_index=True)
        readings = readings[np.ix_(uniq, uniq)]
    else:
        readings = np.asarray(
            [[kernel_fn(wa, wb) for wb in nodes] for wa in nodes],
            dtype=complex)
        node_pos = nodes

    rebuilt = _bilinear(node_pos, readings, g.omega)
    # Hermitize away interpolation roundoff
    rebuilt = 0.5 * (rebuilt + rebuilt.conj().T)

    # measured gradient bound from node differences
    dre = np.abs(np.diff(readings, axis=0)).max(initial=0.0)
    dco = np.abs(np.diff(readings, axis=1)).max(initial=0.0)
    gap = float(np.min(np.diff(node_pos))) if node_pos.size > 1 else dw
    grad = float(max(dre, dco)) / gap
    built = VanHoveObservable(g, obs.diag, rebuilt)
    return MeasuredObservable(built, grad, grad * dw)


def _bilinear(nodes, values, targets):
    """Separable linear interpolation of a kernel from nodes to targets."""
    t = np.clip(targets, nodes[0], nodes[-1])
    hi = np.clip(np.searchsorted(nodes, t, side="right"), 1, nodes.size - 1)
    lo = hi - 1
    frac = (t - nodes[lo]) / (nodes[hi] - nodes[lo])
    # rows first, then columns
    rows = values[lo, :] * (1 - frac)[:, None] + values[hi, :] * frac[:, None]
    out = rows[:, lo] * (1 - frac)[None, :] + rows[:, hi] * frac[None, :]
    return out


# ---------------------------------------------------------------------------
# independent oracle: phases on explicit matrices
# ---------------------------------------------------------------------------

def _check_oracle_cap(n):
    if n > ORACLE_GRID_CAP:
        raise ValueError(f"oracle capped at N = {ORACLE_GRID_CAP}, grid has {n}")


def discretized_unitary_oracle(state, obs, t):
    """Brute-force pairing, entry by entry, on any grid, with t's shape.

    With quadrature weights q, the diagonal sector is sum_i q_i rho(w_i)
    O(w_i) and the kernel sector sum_ij q_i q_j rho(w_i, w_j) e^{-i(w_i -
    w_j)t} O(w_j, w_i): H evolves each kernel entry by its own phase, e_i
    conj(e_j) with e = q e^{-iwt}.  The sectors never mix (the kernel
    algebra is a direct sum), no lag is collapsed and no +-nu folded: an
    honest rephrasing of the quadrature, not a second copy of it.  O(N^2)
    time and O(N) memory per t, all t in one ``np.einsum``, not BLAS.  A
    non-finite ``t`` and grids beyond ORACLE_GRID_CAP points are refused.
    """
    _same_grid(state.grid, obs.grid)
    g = state.grid
    _check_oracle_cap(g.size)
    e = g.weights * np.exp(-1j * _finite(t)[..., None] * g.omega)
    kern = np.einsum("...i,ij,ji,...j->...", e, state.offdiag, obs.offdiag,
                     e.conj())
    return np.einsum("i,i,i", g.weights, state.diag, obs.diag) + kern.real


# ---------------------------------------------------------------------------
# table kernel loading
# ---------------------------------------------------------------------------

def load_table_kernel(path, grid):
    """Load an off-diagonal kernel from CSV rows (omega, omega', re, im).

    Every (omega_i, omega_j) pair of the working grid must be covered
    exactly once, in any row order (values matched to grid points within
    TABLE_MATCH_TOL); the assembled kernel must be Hermitian.  Memory is
    the parsed table, one index per row and the kernel: the table is
    freed before the kernel is copied and checked.
    """
    return _check_kernel(grid, _table_kernel(path, grid), "table")


def _table_kernel(path, grid):
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not table.size:
        raise ValueError(f"{path}: empty table, no data rows")
    if table.shape[1] != 4:
        raise ValueError(f"{path}: need 4 columns, read shape {table.shape}")
    n = grid.size
    flat = np.empty(len(table), dtype=np.intp)
    for start in range(0, len(table), _TABLE_BLOCK):
        pts = table[start:start + _TABLE_BLOCK, :2]
        # column by column: the needles of a row-major table come sorted
        idx = grid.nearest(pts.T)
        # written as "not within" so that a NaN energy is refused too
        off = ~np.all(np.abs(grid.omega[idx] - pts.T) <= TABLE_MATCH_TOL,
                      axis=0)
        if off.any():
            wi, wj = pts[np.argmax(off)]
            raise ValueError(f"{path}: ({wi}, {wj}) is not a grid point")
        out = flat[start:start + len(pts)]
        np.multiply(idx[0], n, out=out)
        out += idx[1]
    counts = np.bincount(flat, minlength=n * n)
    if counts.max() > 1:
        wi, wj = table[np.argmax(counts[flat] > 1), :2]
        raise ValueError(f"{path}: ({wi}, {wj}) is given more than once")
    missing = n * n - np.count_nonzero(counts)
    if missing:
        raise ValueError(f"{path}: kernel incomplete, {missing} grid pairs unset")
    del counts
    kernel = np.empty(n * n, dtype=complex)
    kernel.real[flat] = table[:, 2]
    kernel.imag[flat] = table[:, 3]
    return kernel.reshape(n, n)


# ---------------------------------------------------------------------------
# stock scenarios
# ---------------------------------------------------------------------------

def sid_scenario(grid, kernel, center, width, amplitude):
    """State/observable pair sharing one regular cross-kernel.

    The state has a gaussian energy distribution of the given ``center``
    and ``width`` and the kernel ``amplitude * kernel``; the observable
    weighs energies with a gaussian of width 1.5 about the same center
    and carries ``kernel`` itself.  Scenario families differ only in the
    kernel they pass.  A state that underflows to 0 on the whole grid is
    refused, its ``center``, ``width`` and grid ends named.
    """
    w = grid.omega
    rho_diag = np.exp(-((w - center) ** 2) / (2 * width ** 2))
    norm = float(np.sum(grid.weights * rho_diag))
    if not norm > 0:
        raise ValueError(
            f"state normalisation underflows: center {center} and width "
            f"{width} leave no weight on the grid from omega_min {w[0]:g} "
            f"to omega_max {w[-1]:g}")
    state = VanHoveState(grid, rho_diag / norm, amplitude * kernel)
    obs_diag = np.exp(-((w - center) ** 2) / (2 * 1.5 ** 2))
    return state, VanHoveObservable(grid, obs_diag, kernel)


def family_kernel(grid, family, center, width, cross_width):
    """Regular cross-kernel of a stock ``family`` on ``grid``.

    Both families carry the center-of-mass profile
    exp(-((w+w')/2 - center)^2 / (2 width^2)); the cross profile is
    exp(-(w-w')^2 / (4 cross_width^2)) for "gaussian" and
    1 / (1 + ((w-w') / cross_width)^2) for "lorentzian".
    """
    w = grid.omega
    com, diff = np.add.outer(w, w), np.subtract.outer(w, w)
    com *= 0.5
    com -= center
    com *= com
    com /= -2 * width ** 2
    np.exp(com, out=com)
    if family == "gaussian":
        diff *= diff
        diff /= -4 * cross_width ** 2
        return np.multiply(com, np.exp(diff, out=diff), out=com)
    if family == "lorentzian":
        diff /= cross_width
        diff *= diff
        diff += 1.0
        return np.divide(com, diff, out=com)
    raise ValueError(f"unknown kernel family {family!r}")


def gaussian_scenario():
    """Gaussian state/observable pair with an exactly known envelope.

    On 400 points over [0, 10], both kernels carry the gaussian
    :func:`family_kernel` (center 5, width 1.2, cross width 0.5), so their
    product separates in the rotated variables (mean, difference) and the
    oscillatory sector is an exact Gaussian Fourier transform:
    offdiag(t) = offdiag(0) * exp(-t^2 / 8).  Window edges and quadrature
    spacing keep boundary tails and aliasing far below 1e-4 of the
    envelope for t <= 4.
    """
    grid = EnergyGrid.uniform(0.0, 10.0, 400)
    kernel = family_kernel(grid, "gaussian", 5.0, 1.2, 0.5)
    return sid_scenario(grid, kernel, 5.0, 1.2, 0.25)


def gaussian_envelope(t, cross_width=0.5):
    """Analytic modulus of the oscillatory sector, normalized to t = 0."""
    return np.exp(-0.5 * (cross_width * _finite(t)) ** 2)
