import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from synhash.field import FieldSpec, FqMatrix, rref

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _reference_kernel(red, pivots, cols, q):
    """Kernel basis (rows) of one reduced matrix red with pivot columns pivots:
    one row per free column f, with 1 at f and -red[:, f] at the pivot columns."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[:, free].T) % q
    return basis


def _reference_code(spec, trial):
    """(G, H) of trial `trial` of a uniform code ensemble, one draw at a time:
    k x n draws from default_rng((seed, trial)) until one has full rank, and H
    from the kernel of that draw's reduced form."""
    n, k, q = spec.n, spec.k, spec.field.q
    rng = np.random.default_rng((spec.seed, trial))
    g = np.zeros((0, n), dtype=np.int64)
    red, pivots = g, []
    while len(pivots) < k:
        g = rng.integers(0, q, size=(k, n), dtype=np.int64)
        reduced, pivots = rref(FqMatrix(FieldSpec(q), g))
        red = reduced.array
    return g, _reference_kernel(red, pivots, n, q)


@pytest.fixture(scope="session")
def reference_code():
    """The per-trial reference the batched code sampler must reproduce."""
    return _reference_code


@pytest.fixture(scope="session")
def reference_kernel():
    """The one-matrix kernel the stacked kernel builder must reproduce."""
    return _reference_kernel
