import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from synhash.field import FieldSpec, FqMatrix, rank, rref

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


def _point_images(M, q):
    """idx(M x) for every x in F_q^n (n = cols(M)), both indices little-endian
    base q: a reference for image_indices and pushforward that takes each
    point's digits and product mod q in Python integers, one point at a time."""
    M = np.asarray(M, dtype=np.int64)
    rows, n = M.shape
    M = M.tolist()
    images = []
    for i in range(q ** n):
        x = [i // q ** j % q for j in range(n)]
        images.append(sum(sum(a * b for a, b in zip(M[r], x)) % q * q ** r
                          for r in range(rows)))
    return images


def _check_code(G, H, q):
    """Assert that G and H generate and check one [n, k]_q code: rank(G) = k,
    rank(H) = n - k and G H^T = 0 mod q."""
    G, H = np.asarray(G, dtype=np.int64), np.asarray(H, dtype=np.int64)
    k, n = G.shape
    assert H.shape == (n - k, n)
    field = FieldSpec(q)
    assert rank(FqMatrix(field, G)) == k
    assert rank(FqMatrix(field, H)) == n - k
    assert not (G @ H.T % q).any()


@pytest.fixture(scope="session")
def point_images():
    """The point-by-point reference the image tables must reproduce."""
    return _point_images


@pytest.fixture(scope="session")
def check_code():
    """The validity check of one code's (G, H) pair."""
    return _check_code


@pytest.fixture(scope="session")
def reference_code():
    """The per-trial reference the batched code sampler must reproduce."""
    return _reference_code


@pytest.fixture(scope="session")
def reference_kernel():
    """The one-matrix kernel the stacked kernel builder must reproduce."""
    return _reference_kernel
