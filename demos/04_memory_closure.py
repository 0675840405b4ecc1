"""The projected master equation and its memory closure, against oracles.

Projecting the Liouville equation splits the generator: a local piece
pi L pi plus a defect N = pi L - L pi that couples relevant and
irrelevant sectors.  Formally eliminating the irrelevant part gives a
closed equation for pi|rho) with a memory kernel; here the convolution
is carried exactly by the eigenmodes of the eliminated sector, so the
closure can be compared to the unitary ground truth at full precision.
"""

import numpy as np

from decolab.liouville import coarse_grain
from decolab.master_eq import (build_liouvillian, defect, evolve_master_exact,
                               evolve_nakajima_zwanzig, memory_kernel)
from decolab.open_system import eid_projector, evolve_unitary

rng = np.random.default_rng(12)

# a 2 (x) 3 composite with a generic (coupled) hamiltonian
dim_s, dim_e = 2, 3
d = dim_s * dim_e
a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
h = (a + a.conj().T) / 2
lv = build_liouvillian(h)
pi = eid_projector(dim_s, dim_e)

n = defect(pi, lv)
print(f"defect |pi L - L pi| = {np.linalg.norm(n):.4f} "
      "(nonzero: the projector does not commute with this flow)")

# initial state inside the relevant subspace: rho_S (x) I/dim_E
b = rng.normal(size=(dim_s, dim_s)) + 1j * rng.normal(size=(dim_s, dim_s))
rho_s = b @ b.conj().T
rho_s /= np.trace(rho_s).real
rho0 = np.kron(rho_s, np.eye(dim_e) / dim_e)

times = np.linspace(0.0, 8.0, 33)

# ---------------------------------------------------------------------------
# three routes to the same coarse trajectory
# ---------------------------------------------------------------------------
exact = evolve_master_exact(rho0, pi, lv, times)
unitary = evolve_unitary(rho0, h, times)
nz = evolve_nakajima_zwanzig(rho0, pi, lv, times)

gap_exact = max(float(np.max(np.abs(exact[k].matrix
                                    - coarse_grain(unitary[k], pi).matrix)))
                for k in range(len(times)))
gap_nz = max(float(np.max(np.abs(x.matrix - y.matrix)))
             for x, y in zip(nz, exact))
print(f"master equation vs project-the-unitary: {gap_exact:.2e}")
print(f"memory closure vs master equation:      {gap_nz:.2e}")

# a non-uniform environment state puts part of rho_S (x) rho_E outside the
# relevant subspace; the closure carries Q|rho_0) as its inhomogeneous
# term and stays exact
c = rng.normal(size=(dim_e, dim_e)) + 1j * rng.normal(size=(dim_e, dim_e))
rho_e = c @ c.conj().T
rho_e /= np.trace(rho_e).real
rho_prod = np.kron(rho_s, rho_e)
gap_prod = max(float(np.max(np.abs(x.matrix - coarse_grain(u, pi).matrix)))
               for x, u in zip(evolve_nakajima_zwanzig(rho_prod, pi, lv, times),
                               evolve_unitary(rho_prod, h, times)))
print(f"memory closure on rho_S (x) rho_E vs project-the-unitary: "
      f"{gap_prod:.2e}")

print("\n   t    coherence of the reduced qubit (all three routes)")
for k in range(0, 33, 4):
    t = times[k]
    c1 = abs(exact[k].matrix[0, dim_e])
    c2 = abs(coarse_grain(unitary[k], pi).matrix[0, dim_e])
    c3 = abs(nz[k].matrix[0, dim_e])
    print(f"  {t:4.1f}   {c1:.6f}  {c2:.6f}  {c3:.6f}")

# ---------------------------------------------------------------------------
# the kernel itself: how much memory does the closure carry?
# ---------------------------------------------------------------------------
taus = np.linspace(0.0, 4.0, 17)
kernel = memory_kernel(pi, lv, taus)
norms = [float(np.linalg.norm(m)) for m in kernel.matrices]
print("\nmemory kernel norm |K(tau)|:")
for tau, nm in zip(taus[::4], norms[::4]):
    print(f"  tau = {tau:3.1f}:  {nm:9.4f}")
print("K(0) equals the product of the two cross couplings; the decay of "
      "|K| is what truncated-window closures lean on")
