"""Property tests over random biorthogonal families.

Hypothesis draws a dimension d, a number 1 <= k < d^2 of pairs and a seed
for their entries; ``biorthogonalize`` turns each draw into a projector.
Every projector must be idempotent, reproduce the pairings it retains,
and give the same coarse-grained dynamics on all three routes, at the
bounds of acceptance tests 01 and 06.  Draws run derandomized, so every
run checks the same families.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decolab.liouville import (biorthogonalize, build_projector, coarse_grain,
                               pairing, projector_defect)
from decolab.master_eq import (build_liouvillian, evolve_master_exact,
                               evolve_nakajima_zwanzig)
from decolab.open_system import evolve_unitary

# a Gram matrix worse conditioned than this is not a basis worth testing
GRAM_COND_CAP = 1e3
TIMES = np.linspace(0.0, 5.0, 11)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_density(rng, d):
    a = random_matrix(rng, d)
    rho = a @ a.conj().T
    return rho / float(np.trace(rho).real)


@st.composite
def families(draw):
    """(rng, basis): k biorthogonalized pairs on dimension d, plus the rng
    the test draws its states and Hamiltonians from."""
    d = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, d * d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    obs = [random_matrix(rng, d) for _ in range(k)]
    fun = [random_matrix(rng, d) for _ in range(k)]
    gram = np.array([[np.vdot(f, o) for o in obs] for f in fun])
    assume(np.linalg.cond(gram) <= GRAM_COND_CAP)
    return rng, biorthogonalize(obs, fun)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(families())
def test_projector_is_idempotent_and_keeps_its_pairings(family):
    rng, basis = family
    pi = build_projector(basis)
    assert projector_defect(pi) <= 1e-10
    rho = random_density(rng, basis.observables[0].shape[0])
    coarse = coarse_grain(rho, pi)
    for o in basis.observables:
        assert abs(coarse.pair(o) - pairing(rho, o)) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=50)
@given(families())
def test_three_routes_agree(family):
    rng, basis = family
    pi = build_projector(basis)
    d = basis.observables[0].shape[0]
    h = random_matrix(rng, d)
    h = 0.5 * (h + h.conj().T)
    rho0 = random_density(rng, d)
    lv = build_liouvillian(h)
    direct = [coarse_grain(r, pi).matrix
              for r in evolve_unitary(rho0, h, TIMES)]
    exact = evolve_master_exact(rho0, pi, lv, TIMES)
    nz = evolve_nakajima_zwanzig(rho0, pi, lv, TIMES)
    for want, a, b in zip(direct, exact, nz):
        assert np.max(np.abs(a.matrix - want)) <= 1e-8
        assert np.max(np.abs(b.matrix - a.matrix)) <= 1e-6
