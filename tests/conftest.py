import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from synhash.field import _kernel_from_rref, _rref_array

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


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
        red, pivots = _rref_array(g, q, spec.field.inverses)
    return g, _kernel_from_rref(red, pivots, n, q)


@pytest.fixture(scope="session")
def reference_code():
    """The per-trial reference the batched code sampler must reproduce."""
    return _reference_code
