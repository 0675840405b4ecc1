"""Decoherence without an environment: oscillatory integrals dying out.

A single closed system with a continuous spectrum equilibrates in the
weak sense: every kernel observable's expectation settles because the
off-diagonal double integral is a Fourier transform of an integrable
kernel.  Nothing dissipates; <H> never moves; and on a finite quadrature
grid the decay is only honest up to the grid recurrence time.
"""

import numpy as np

from decolab.continuum import (discretized_unitary_oracle, expectation_sid,
                               gaussian_envelope, gaussian_scenario,
                               hamiltonian_observable, lag_measure,
                               offdiag_contribution, sid_limit)
from decolab.fits import detect_weak_limit, fit_decoherence_time

state, obs = gaussian_scenario()
grid = state.grid
limit = sid_limit(state, obs)
print(f"grid: {grid.size} points on [0, {grid.omega[-1]:.0f}], "
      f"weak-limit value {limit:.6f}")

times = np.linspace(0.0, 16.0, 161)
values = expectation_sid(state, obs, times)

print("\n   t    <O>(t)      envelope (exact)")
for k in range(0, 161, 20):
    t = times[k]
    print(f"  {t:4.1f}  {values[k]:+.6f}   {gaussian_envelope(t):.2e}")

# ---------------------------------------------------------------------------
# three numbers the whole construction stands on
# ---------------------------------------------------------------------------
osc = offdiag_contribution(state, obs, times)
fit = fit_decoherence_time(times, osc)
print(f"\ne^-1 crossing: t_D = {fit.value:.4f}, shape {fit.shape:.4f} "
      f"(the exact gaussian gives {np.sqrt(2) / 0.5:.4f} and "
      f"{np.sqrt(2):.4f})")

# fit-free: the curvature -f''(0)/f(0) is the lag measure's second moment
nu, f = lag_measure(state, obs)
print(f"second moment <nu^2> of the lag measure: "
      f"{np.sum(f.real * nu ** 2) / np.sum(f.real):.6f} "
      f"(cross_width^2 = {0.5 ** 2:.6f})")

ham = hamiltonian_observable(grid)
energies = expectation_sid(state, ham, np.array([0.0, 25.0, 50.0, 100.0]))
print("energy <H> at t = 0, 25, 50, 100:", [f"{e:.12f}" for e in energies])
print("   (constant: the diagonal sector never evolves)")

probe = np.array([0.3, 1.7, 4.4])
oracle_gap = np.max(np.abs(expectation_sid(state, obs, probe)
                          - discretized_unitary_oracle(state, obs, probe)))
print("gap to the discretized-unitary oracle:", f"{oracle_gap:.2e}")

# ---------------------------------------------------------------------------
# the weak limit, detected from the record rather than assumed
# ---------------------------------------------------------------------------
t_rec = grid.recurrence_window()
report = detect_weak_limit(times, {"expectation": values}, epsilon=1e-3,
                           recurrence_window=t_rec)
print(f"\nexpectation settles to {report.equilibrium['expectation']:.6f} "
      f"at t* = {report.t_star:.2f} (epsilon 1e-3)")

# honesty check: on the discrete grid everything comes back at t_rec
revival = expectation_sid(state, obs, t_rec)
print(f"grid recurrence at t = {t_rec:.1f}: <O> = {revival:.6f} "
      f"(compare <O>(0) = {values[0]:.6f})")
print("   the continuum statement only holds inside the window; "
      "the harness reports that window with every run")
