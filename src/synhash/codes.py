"""Linear codes over F_q: uniform ensembles, exhaustive enumeration, Reed-Muller family.

A code is represented by a full-rank k x n generator matrix G and a full-rank
(n-k) x n parity check matrix H with G H^T = 0.  The canonical identity of a
code is the reduced row echelon form of G, so enumeration never repeats a code.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .caps import DEFAULT_CAPS, CapExceeded, Caps
from .field import (
    FieldSpec,
    FqMatrix,
    digit_table,  # traced site, see field.digit_table
    image_indices,
    kernel_basis,  # traced sites, with rank and rref: perfbench/tracing.py wraps them here
    rank,
    rref,
    _kernel_from_rref,
    _rank_array,  # traced site: perfbench/tracing.py wraps it here
    _rref_stack,
)
from .streams import TrialStreams

__all__ = [
    "DEFAULT_SEED",
    "LinearCode",
    "CodeEnsembleSpec",
    "gaussian_binomial",
    "rank_tuple_count",
    "sample_uniform_code",
    "enumerate_all_codes",
    "reed_muller_generator",
    "rm_parity_check",
    "reed_muller_dimensions",
    "reed_muller_code",
    "codeword_indices",
]

DEFAULT_SEED = 0xC0DE
# generator plus parity-check entries per chunk of enumerated codes
_ENUM_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class LinearCode:
    """[n, k]_q code with explicit generator and parity-check matrices."""

    field: FieldSpec
    n: int
    k: int
    G: FqMatrix
    H: FqMatrix

    def __post_init__(self) -> None:
        if self.G.array.shape != (self.k, self.n):
            raise ValueError(f"generator shape {self.G.array.shape} != ({self.k}, {self.n})")
        if self.H.array.shape != (self.n - self.k, self.n):
            raise ValueError(f"parity check shape {self.H.array.shape} != ({self.n - self.k}, {self.n})")

    def __repr__(self) -> str:
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"


@dataclass(frozen=True)
class CodeEnsembleSpec:
    """Uniform ensemble of [n, k]_q codes with a deterministic seed."""

    field: FieldSpec
    n: int
    k: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _code_dimensions(self.n, self.k)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # the count is symmetric in k and n - k
    num = 1
    den = 1
    for j in range(k):
        num *= q ** n - q ** j
        den *= q ** k - q ** j
    return num // den


def rank_tuple_count(n: int, p: int, d: int, q: int) -> int:
    """Number of p-tuples of vectors in F_q^n whose span has dimension d."""
    if d < 0 or d > min(n, p):
        return 0
    # only the full product is integral, so divide once at the end
    num = 1
    den = 1
    for j in range(d):
        num *= (q ** n - q ** j) * (q ** p - q ** j)
        den *= q ** d - q ** j
    return num // den


def _sample_codes(spec: CodeEnsembleSpec, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator and parity-check stacks, (T, k, n) and (T, n - k, n), of the
    uniform codes of trials start .. stop-1, by rejection on iid generators.
    G holds the smallest unsigned type that holds a residue, H int64.

    Trial t draws k x n matrices from its own generator until one has full
    rank: the draws are those of np.random.default_rng((spec.seed, t))
    .integers(0, q, size=(k, n), dtype=np.int64), made for every trial at
    once by streams.TrialStreams.  All trials are drawn first and eliminated
    as one stack; only the rank-deficient ones draw again.  tests/test_codes.py
    checks the stacks against per-trial numpy generators
    (test_sampled_stacks_match_the_per_trial_reference, and a bounded-draw
    rejection) and pins their digest (test_sample_stream_is_pinned).
    """
    n, k, q = spec.n, spec.k, spec.field.q
    count = max(0, stop - start)
    streams = TrialStreams(spec.seed, start, stop)
    G = streams.integers(np.arange(count), q, k * n).reshape(count, k, n)
    red, pivots, ranks = _rref_stack(G, q)
    while (short := np.flatnonzero(ranks < k)).size:
        G[short] = streams.integers(short, q, k * n).reshape(len(short), k, n)
        red[short], pivots[short], ranks[short] = _rref_stack(G[short], q)
    return G, _kernel_from_rref(red, pivots, q)


def sample_uniform_code(spec: CodeEnsembleSpec, trial: int) -> LinearCode:
    """Uniform [n, k]_q code via rejection on iid generator matrices.

    Deterministic per (spec.seed, trial); distinct trials use independent
    generator streams.
    """
    G, H = _sample_codes(spec, trial, trial + 1)
    return LinearCode(spec.field, spec.n, spec.k, FqMatrix(spec.field, G[0]),
                      FqMatrix(spec.field, H[0]))


def enumerate_all_codes(field: FieldSpec, n: int, k: int,
                        caps: Caps = DEFAULT_CAPS) -> Iterator[LinearCode]:
    """Every [n, k]_q code exactly once, via canonical echelon generators.

    Pivot-column patterns are visited in lexicographic order and the free
    entries in base-q counting order, so the stream is deterministic.  The
    dimensions are checked and the count admitted when this is called, before
    the first code is drawn.
    """
    _admit_enumeration(field.q, n, k, caps)
    return (LinearCode(field, n, k, FqMatrix(field, g), FqMatrix(field, h))
            for G, H in _echelon_codes(field.q, n, k) for g, h in zip(G, H))


def _code_dimensions(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def _admit_enumeration(q: int, n: int, k: int, caps: Caps) -> None:
    _code_dimensions(n, k)
    # the count is at least q^{k(n-k)}, which passes the cap once k(n-k) passes its
    # bit length; past 64 bits as well, it is named by that bound, unformed
    if k * (n - k) > max(64, caps.code_enumeration.bit_length()):
        raise CapExceeded("code enumeration", f"at least {q}^{k * (n - k)}",
                          caps.code_enumeration)
    caps.admit("code enumeration", gaussian_binomial(n, k, q), "code_enumeration")


def _echelon_codes(q: int, n: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The int64 (T, k, n) generators and (T, n - k, n) parity checks of the
    enumeration stream, a chunk of about _ENUM_ENTRIES entries at a time."""
    chunk = max(1, _ENUM_ENTRIES // max(1, n * n))
    for pattern in itertools.combinations(range(n), k):
        pivots = np.array(pattern, dtype=np.int64)
        # the free entries (i, j): right of row i's pivot, off every pivot column
        free = [(i, j) for i in range(k) for j in range(pattern[i] + 1, n) if j not in pattern]
        rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
        for first in range(0, q ** len(free), chunk):
            t = np.arange(first, min(first + chunk, q ** len(free)), dtype=np.int64)
            G = np.zeros((len(t), k, n), dtype=np.int64)
            G[:, np.arange(k), pivots] = 1
            # free entry e of code t holds digit e of t, little-endian base q
            G[:, rows, cols] = t[:, None] // q ** np.arange(len(free), dtype=np.int64) % q
            # G is already reduced, so its kernel needs no elimination
            yield G, _kernel_from_rref(G, np.broadcast_to(pivots, (len(t), k)), q)


def _ensemble_stacks(q: int, n: int, k: int, caps: Caps) -> tuple[np.ndarray, np.ndarray]:
    """The (codes, k, n) generators and (codes, n - k, n) parity checks of
    every [n, k]_q code, in the order of enumerate_all_codes, admitted against
    caps on every call."""
    _admit_enumeration(q, n, k, caps)
    return _ensemble_stacks_cached(q, n, k)


@functools.lru_cache(maxsize=32)
def _ensemble_stacks_cached(q: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only stacks of the smallest unsigned type that holds a residue;
    each chunk is cast as it is made, so no int64 copy of the ensemble lives."""
    dtype = np.min_scalar_type(q - 1)
    chunks = [(G.astype(dtype), H.astype(dtype)) for G, H in _echelon_codes(q, n, k)]
    G, H = (np.concatenate(part) for part in zip(*chunks))
    G.flags.writeable = H.flags.writeable = False
    return G, H


def reed_muller_generator(r: int, m: int) -> FqMatrix:
    """Binary Reed-Muller generator: degree <= r monomials evaluated on F_2^m.

    Rows follow degree-lexicographic monomial order; evaluation points follow
    the little-endian index order of F_2^m.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    points = np.arange(1 << m, dtype=np.int64)
    supports = [support for deg in range(r + 1)
                for support in itertools.combinations(range(m), deg)]
    # one preallocated matrix: thousands of row arrays would fragment the heap
    G = np.empty((len(supports), 1 << m), dtype=np.int64)
    for i, support in enumerate(supports):
        mask = sum(1 << j for j in support)
        G[i] = (points & mask) == mask
    return FqMatrix(FieldSpec(2), G)


def rm_parity_check(r: int, m: int) -> FqMatrix:
    """Parity check of the Reed-Muller code of order r; empty matrix at r = m."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if r == m:
        return FqMatrix(FieldSpec(2), np.zeros((0, 1 << m), dtype=np.int64))
    return reed_muller_generator(m - r - 1, m)


def reed_muller_dimensions(r: int, m: int) -> tuple[int, int]:
    """Length n = 2**m and dimension k = sum_{i <= r} C(m, i) of RM(r, m)."""
    return 1 << m, sum(math.comb(m, i) for i in range(r + 1))


def reed_muller_code(r: int, m: int) -> LinearCode:
    """Reed-Muller code of order r on 2**m points, with its dual parity check."""
    n, k = reed_muller_dimensions(r, m)
    return LinearCode(FieldSpec(2), n, k, reed_muller_generator(r, m), rm_parity_check(r, m))


def codeword_indices(code: LinearCode, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Little-endian indices of all q**k codewords G^T a, in message-index order."""
    caps.admit("codeword enumeration", code.field.q ** code.k, "code_enumeration")
    return image_indices(FqMatrix(code.field, code.G.array.T))

