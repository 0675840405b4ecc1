"""Decoherence by tracing out a spin bath, checked against the closed form.

A qubit couples to n bath spins through sigma_z (x) sigma_z terms only:
pure dephasing.  The library's route sums the bath's Born weights against
e^{-i Omega t} over the 2^n bath energies Omega, as the product of two
half-bath phase sums; the closed form multiplies n one-spin overlaps, so
the two have to agree to roundoff.
The couplings are incommensurate, which pushes recurrences out
exponentially in n; inside that window the collapse looks irreversible.
"""

import numpy as np

from decolab.fits import fit_decoherence_time
from decolab.open_system import (SpinBathParams, preferred_basis,
                                 spin_bath_coherence, spin_bath_recurrence_window,
                                 spin_bath_reduced_dynamics)

rng = np.random.default_rng(7)
n = 10
# unequal amplitudes, so the late-time state is non-degenerate and the
# surviving eigenbasis is well defined
params = SpinBathParams(couplings=rng.uniform(0.5, 1.5, n),
                        angles=np.full(n, np.pi / 2),
                        amplitude_0=0.8, amplitude_1=0.6)

times = np.linspace(0.0, 6.0, 120)
rhos = spin_bath_reduced_dynamics(params, times)
closed = spin_bath_coherence(params, times)

print(f"{n}-spin bath, qubit starts in 0.8|0> + 0.6|1>")
print("worst |rho01| deviation from the closed form:",
      float(np.max(np.abs(np.abs(rhos[:, 0, 1]) - np.abs(closed)))))
print("population drift (should be zero, pure dephasing):",
      float(np.max(np.abs(rhos[:, 0, 0] - rhos[0, 0, 0]))))

print("\n   t     |rho01|   purity")
for k in range(0, 120, 12):
    rho = rhos[k]
    pur = float(np.sum(rho * rho.T).real)
    print(f"  {times[k]:4.1f}   {abs(rho[0, 1]):.5f}   {pur:.5f}")

# ---------------------------------------------------------------------------
# the collapse has a gaussian envelope at early times; read its e^-1 point
# ---------------------------------------------------------------------------
fit = fit_decoherence_time(times, np.abs(rhos[:, 0, 1]))
print(f"\nenvelope e^-1 crossing: t_D = {fit.value:.4f}, shape (e^-2 over "
      f"e^-1 crossing; sqrt 2 for a gaussian) = {fit.shape:.4f}")
print("small-t prediction sqrt(2 / sum g_k^2) =",
      float(np.sqrt(2.0 / np.sum(np.square(params.couplings)))))

window = spin_bath_recurrence_window(params.couplings)
print(f"recurrence-free window: t < {window:.3g} "
      f"(the record above ends at {times[-1]:.0f})")

# ---------------------------------------------------------------------------
# the surviving basis is the coupling eigenbasis (sigma_z here)
# ---------------------------------------------------------------------------
late = preferred_basis(rhos[-1])
overlap = float(np.abs(late.eigenvectors[:, 0] @ np.array([1.0, 0.0])))
print(f"\nlate-time eigenbasis overlap with the sigma_z basis: {overlap:.6f}")
print("eigenvalues (descending):", np.round(late.eigenvalues, 6),
      " degenerate:", late.degenerate)
