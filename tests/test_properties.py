"""Property tests over random biorthogonal families and random records.

Hypothesis draws a dimension d, a number 1 <= k < d^2 of pairs and a seed
for their entries; ``biorthogonalize`` turns each draw into a projector.
Every projector must be idempotent, reproduce the pairings it retains,
and give the same coarse-grained dynamics on all three routes, at the
bounds of acceptance tests 01 and 06.  Records mix the floats whose repr
is easiest to get wrong with constant and negated columns, and
``TimeSeries.write_csv`` must write them as the per-value writer did.
Draws run derandomized, so every run checks the same families and records.
"""

import io

import numpy as np
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from decolab.liouville import (biorthogonalize, build_projector, coarse_grain,
                               pairing, projector_defect)
from decolab.master_eq import (build_liouvillian, evolve_master_exact,
                               evolve_nakajima_zwanzig)
from decolab.open_system import evolve_unitary
from decolab.timeseries import _BLOCK_ROWS, TimeSeries

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


# signed zeros, the least subnormal, both sides of repr's switches to
# exponent notation (0.0001 against 9.999999999999999e-05 and 1e-05;
# 9999999999999998.0 against 1e+16), the largest exact power of ten,
# the least normal and the largest finite float
AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 0.0001, 9.999999999999999e-05,
           1e-05, -1e-05, 9999999999999998.0, 1e+16, -1e+16, 1e+22, -1e+22,
           2.2250738585072014e-308, 1.7976931348623157e+308, 0.1]


def per_value_csv(series):
    """The oracle: one ``repr(float(x))`` per cell, row by row."""
    lines = [",".join(["t", *series.channels])]
    for row in zip(series.times, *series.channels.values()):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


@st.composite
def records(draw):
    """A TimeSeries of 2 to 40 rows, or of one to three blocks of rows but
    never a whole number of blocks.  Each column draws from AWKWARD plus
    hypothesis floats, spreads over all exponents, is constant, or
    negates the column before it."""
    n = draw(st.one_of(
        st.integers(2, 40),
        st.integers(_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS - 1).filter(
            lambda m: m % _BLOCK_ROWS)))
    pool = AWKWARD + draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["pool", "spread", "const", "neg"]),
                          min_size=1, max_size=6))
    cols = []
    for kind in kinds:
        if kind == "pool":
            cols.append(rng.choice(pool, n))
        elif kind == "spread":
            cols.append(rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, n))
        elif kind == "const":
            cols.append(np.full(n, draw(st.sampled_from(pool))))
        else:
            cols.append(-cols[-1] if cols else np.zeros(n))
    scale = draw(st.sampled_from([1e-05, 0.01, 1.0, 1e+16]))
    times = (np.cumsum(rng.uniform(0.5, 1.5, n)) - n / 2) * scale
    return TimeSeries(times, {f"c{k}": c for k, c in enumerate(cols)})


# no shrink phase: a record is its seed, so shrinking it would take minutes
# of full-size retries and end no simpler; a failure shows the draw as is
@settings(derandomize=True, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(records())
def test_csv_writer_matches_per_value_repr(series):
    out = io.StringIO()
    series.write_csv(out)
    assert out.getvalue() == per_value_csv(series)
