"""Exhaustive and Monte Carlo verification of the extraction identities and bounds.

Each check returns a CheckResult whose lhs/rhs are the two sides of the claim
it tested.  Identity checks compare within a relative tolerance; inequality
checks require lhs <= rhs (+ tolerance); Monte Carlo checks compare the sample
mean minus three standard errors against the guarantee.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import corollary_bounds, linf_bucket_bound, phi, smoothing_bound_rhs
from .caps import DEFAULT_CAPS, Caps
from .codes import (
    DEFAULT_SEED,
    CodeEnsembleSpec,
    LinearCode,
    codeword_indices,
    enumerate_all_codes,
    rank_tuple_count,
    sample_uniform_code,  # traced site: perfbench/tracing.py wraps it here
    _sample_codes,
)
from .distributions import (
    DensePmf,
    ProductBernoulli,
    RenyiOrder,
    Source,
    code_pmf,
    convolve,
    lp_norm,
    lp_norms,
    _BATCH_ENTRIES,
    _PMF_SUM_TOL,
    _character_transform,
    _convolve_transformed,
    lp_smoothness,
    pushforward,
    _pushforward_rows,
    renyi_divergence,
    renyi_entropy,
)
# digit_table and _rank_array are only traced sites: perfbench/tracing.py wraps them here
from .field import (FieldSpec, FqMatrix, FqVector, digit_table, image_indices, index_to_vec,
                    vec_to_index, _image_rows, _rank_array, _rref_array)

__all__ = [
    "CheckResult",
    "check_p_balanced",
    "check_balanced_identity",
    "check_balanced_inequality",
    "check_tuple_probability",
    "check_norm_bound_lemma",
    "check_rearrangement_lemma",
    "check_projection_identity",
    "rank_stratified_sum",
    "check_rank_stratified",
    "exact_expected_smoothness",
    "mc_expected_smoothness",
    "mc_bucket_linf",
    "check_proximity_conversions",
    "check_clarkson",
    "negative_control_unbalanced",
    "negative_control_overdraw",
]


@dataclass
class CheckResult:
    """Outcome of one verification run."""

    name: str
    parameters: dict = dataclass_field(default_factory=dict)
    passed: bool = False
    lhs: float = math.nan
    rhs: float = math.nan
    slack: float = math.nan
    trials: int | None = None
    seed: int | None = None
    kind: str = "inequality"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "trials": self.trials,
            "seed": self.seed,
            "kind": self.kind,
        }


def _identity_result(name: str, parameters: dict, lhs: float, rhs: float,
                     rel_tol: float, **extra) -> CheckResult:
    scale = max(1.0, abs(lhs), abs(rhs))
    passed = abs(lhs - rhs) <= rel_tol * scale
    return CheckResult(name, parameters, passed, lhs, rhs, rhs - lhs,
                       kind="identity", **extra)


def _inequality_result(name: str, parameters: dict, lhs: float, rhs: float,
                       rel_tol: float = 1e-9, **extra) -> CheckResult:
    scale = max(1.0, abs(lhs), abs(rhs))
    passed = lhs <= rhs + rel_tol * scale
    return CheckResult(name, parameters, passed, lhs, rhs, rhs - lhs,
                       kind="inequality", **extra)


# -- rank stratification of tuple space --------------------------------------


@functools.lru_cache(maxsize=64)
def _tuple_ranks_cached(q: int, n: int, p: int) -> np.ndarray:
    """Rank of every p-tuple of vectors in F_q^n, C-ordered over indices.

    With s = min(n, p) the rank is s - log_q |K|, for K the c in F_q^p with
    sum_j c_j v_j = 0 (s = p, map kron(c, I_n)) or the c in F_q^n with
    <c, v_j> = 0 for every j (s = n, map kron(I_p, c)).  A c and its nonzero
    multiples vanish on the same tuples, so |K| = 1 + (q - 1) times the number
    of c with first nonzero coordinate 1 whose index table reads 0 there.  The
    C order puts v_1 in the top digits, so kron(c, I_n) applies c reversed,
    which leaves |K| alone.
    """
    s = min(n, p)
    field = FieldSpec(q)
    identity = np.eye(n if s == p else p, dtype=np.int64)
    points = [c for c in itertools.product(range(q), repeat=s)
              if next((a for a in c if a), 0) == 1]
    zeros = np.zeros(q ** (n * p), dtype=np.min_scalar_type(len(points)))
    for c in points:
        M = np.kron(c, identity) if s == p else np.kron(identity, c)
        zeros += image_indices(FqMatrix(field, M)) == 0
    # |K| = q^e exactly when zeros reads (q^e - 1) / (q - 1)
    rank_of = np.zeros(len(points) + 1, dtype=np.int8)
    for e in range(s + 1):
        rank_of[(q ** e - 1) // (q - 1)] = s - e
    ranks = rank_of[zeros]
    ranks.flags.writeable = False
    return ranks


def _tuple_ranks(q: int, n: int, p: int, caps: Caps) -> np.ndarray:
    if n < 0 or p < 1:
        raise ValueError(f"need n >= 0 and p >= 1, got n={n}, p={p}")
    caps.admit("tuple rank stratification", (q ** n) ** p * max(n, 1), "tuple_products")
    return _tuple_ranks_cached(q, n, p)


@functools.lru_cache(maxsize=32)
def _codes_list(q: int, n: int, k: int, caps: Caps) -> tuple[LinearCode, ...]:
    """Every [n, k]_q code, admitted against caps and enumerated once per key."""
    return tuple(enumerate_all_codes(FieldSpec(q), n, k, caps))


@functools.lru_cache(maxsize=32)
def _code_stacks(q: int, n: int, k: int, caps: Caps) -> tuple[np.ndarray, np.ndarray]:
    """The (codes, k, n) generators and (codes, n - k, n) parity checks of
    _codes_list(q, n, k, caps), in its order, as read-only stacks of the
    smallest unsigned type that holds a residue (they stay cached)."""
    codes = _codes_list(q, n, k, caps)
    dtype = np.min_scalar_type(q - 1)
    G = np.array([code.G.array for code in codes], dtype=dtype).reshape(len(codes), k, n)
    H = np.array([code.H.array for code in codes], dtype=dtype).reshape(len(codes), n - k, n)
    G.flags.writeable = H.flags.writeable = False
    return G, H


def _containment_counts(codes: Sequence[LinearCode], size: int, p: int) -> np.ndarray:
    """counts[v_1, ..., v_p] = number of codes containing every v_j, flattened:
    a tuple lies in C when every v_j has zero syndrome, so kron(I_p, H) sends it to 0."""
    counts = np.zeros(size ** p, dtype=np.int64)
    blocks = np.eye(p, dtype=np.int64)
    for code in codes:
        counts += image_indices(FqMatrix(code.field, np.kron(blocks, code.H.array))) == 0
    return counts


def _random_nonneg(shape, seed_key) -> np.ndarray:
    return np.random.default_rng(seed_key).random(shape)


def _random_pmf(field: FieldSpec, n: int, seed_key) -> DensePmf:
    raw = np.random.default_rng(seed_key).random(field.q ** n) + 1e-9
    return DensePmf(field, n, raw / raw.sum())


# -- ensemble structure checks ------------------------------------------------


def check_p_balanced(n: int, k: int, q: int, p: int,
                     ensemble: Sequence[LinearCode] | None = None,
                     caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Within every rank class, each p-tuple must sit in the same number of codes.

    The default ensemble is every [n, k]_q code; passing an explicit ensemble
    makes this a test of that family instead.
    """
    if ensemble is None:
        codes = _codes_list(q, n, k, caps)
    else:
        codes = tuple(ensemble)
        if not codes:
            raise ValueError("the ensemble holds no code")
        if any((code.field.q, code.n, code.k) != (q, n, k) for code in codes):
            raise ValueError(f"every code of the ensemble must be an [{n}, {k}]_{q} code")
    size = q ** n
    caps.admit("balance census", len(codes) * size ** p, "tuple_products")
    ranks = _tuple_ranks(q, n, p, caps)  # its cap refuses before the census runs
    counts = _containment_counts(codes, size, p)
    spread = 0
    by_rank: dict[int, list[int]] = {}
    for d in range(min(n, p) + 1):
        vals = counts[ranks == d]
        if vals.size == 0:
            continue
        lo, hi = int(vals.min()), int(vals.max())
        by_rank[d] = [lo, hi]
        spread = max(spread, hi - lo)
    params = {"n": n, "k": k, "q": q, "p": p, "codes": len(codes),
              "counts_by_rank": by_rank}
    return _identity_result("p-balanced", params, float(spread), 0.0, rel_tol=0.0)


def _tuple_average(n: int, k: int, q: int, p: int, f_key, f_values, caps: Caps):
    """Every [n, k]_q code, the tuple ranks, the flattened test function f on
    p-tuples (drawn from f_key unless given) and the average over codes of the
    sum of f over codeword p-tuples."""
    size = q ** n
    codes = _codes_list(q, n, k, caps)
    ranks = _tuple_ranks(q, n, p, caps)
    f = f_values if f_values is not None else _random_nonneg(size ** p, f_key)
    f = np.asarray(f, dtype=np.float64).reshape([size] * p)
    lhs = 0.0
    for code in codes:
        cw = codeword_indices(code, caps)
        lhs += float(f[np.ix_(*([cw] * p))].sum())
    return codes, ranks, f.reshape(-1), lhs / len(codes)


def check_balanced_identity(n: int, k: int, q: int, p: int, f_seed: int = DEFAULT_SEED,
                            caps: Caps = DEFAULT_CAPS,
                            f_values: np.ndarray | None = None,
                            rel_tol: float = 1e-9) -> CheckResult:
    """Code-ensemble tuple average equals the rank-stratified weighted sum.

    Both sides are computed over all [n, k]_q codes and a random nonnegative
    test function on p-tuples.
    """
    codes, ranks, flat, lhs = _tuple_average(n, k, q, p, (f_seed, 11, n, k, q, p),
                                             f_values, caps)
    rhs = 0.0
    for d in range(min(n, p) + 1):
        t_n = rank_tuple_count(n, p, d, q)
        if t_n == 0:
            continue
        ratio = Fraction(rank_tuple_count(k, p, d, q), t_n)
        if ratio:
            rhs += float(ratio) * float(flat[ranks == d].sum())
    params = {"n": n, "k": k, "q": q, "p": p, "codes": len(codes), "rel_tol": rel_tol}
    return _identity_result("balanced-identity", params, lhs, rhs, rel_tol,
                            seed=f_seed)


def check_balanced_inequality(n: int, k: int, q: int, p: int,
                              f_seed: int = DEFAULT_SEED,
                              caps: Caps = DEFAULT_CAPS,
                              f_values: np.ndarray | None = None) -> CheckResult:
    """Tuple average is at most the rank-stratified sum weighted by q^{d(k-n)}.

    Equality holds when k = n.
    """
    codes, ranks, flat, lhs = _tuple_average(n, k, q, p, (f_seed, 13, n, k, q, p),
                                             f_values, caps)
    rhs = 0.0
    for d in range(min(k, p) + 1):
        rhs += float(q ** (d * (k - n))) * float(flat[ranks == d].sum())
    params = {"n": n, "k": k, "q": q, "p": p, "codes": len(codes)}
    return _inequality_result("balanced-inequality", params, lhs, rhs, seed=f_seed)


def check_tuple_probability(n: int, k: int, q: int,
                            vectors: Sequence[int | FqVector],
                            caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Containment probability of a fixed tuple is at most q^{-d(n-k)}.

    Exact rational arithmetic on both ensembles: the uniform full-rank-code
    ensemble obeys the bound, and the iid-parity-check ensemble (kernel of a
    uniform (n-k) x n matrix) attains it with equality.
    """
    field = FieldSpec(q)
    p = len(vectors)
    idx = [_tuple_index(v, field, n) for v in vectors]
    # n x p, columns are the tuple vectors
    U = np.array([index_to_vec(i, n, field).coords for i in idx], dtype=np.int64).reshape(p, n).T
    # A U = 0 iff A B^T = 0 for B a row basis of U^T, whose n columns index
    # q^n points for any p
    basis = _rref_array(U.T, q)[0]
    d = len(basis)
    m = n - k
    matrices = caps.admit("iid parity-check enumeration", q ** (m * n), "code_enumeration")
    H = _code_stacks(q, n, k, caps)[1]
    # a code holds every tuple vector iff its parity check sends U to zero
    contained = len(H) - int(np.count_nonzero((H @ U % q).any(axis=(1, 2))))
    prob = Fraction(contained, len(H))
    bound = Fraction(1, q ** (d * (n - k)))
    # the m rows of an iid A are independent, and each must be one of the z
    # points of F_q^n that B sends to 0; at m = 0 no q^n table is needed
    hit = 1
    if m:
        hit = int(np.count_nonzero(image_indices(FqMatrix(field, basis)) == 0)) ** m
    iid_prob = Fraction(hit, matrices)
    params = {"n": n, "k": k, "q": q, "p": p, "tuple": [int(i) for i in idx],
              "rank": d, "ensemble_probability": str(prob), "bound": str(bound),
              "iid_probability": str(iid_prob), "iid_equality": iid_prob == bound}
    passed = prob <= bound and iid_prob == bound
    return CheckResult("tuple-probability", params, passed, float(prob), float(bound),
                       float(bound - prob), kind="inequality")


def _tuple_index(v, field: FieldSpec, n: int) -> int:
    if isinstance(v, FqVector):
        if v.field != field or v.n != n:
            raise ValueError(f"tuple vector does not live in F_{field.q}^{n}")
        return vec_to_index(v)
    return int(v)


# -- moment and rearrangement inequalities ------------------------------------


def check_norm_bound_lemma(n: int, q: int, p: int, d: int, f_seed: int = DEFAULT_SEED,
                           caps: Caps = DEFAULT_CAPS,
                           f_values: np.ndarray | None = None) -> CheckResult:
    """Rank-d tuple sums of products of f are controlled by mixed norms of f."""
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}, p={p}")
    size = q ** n
    ranks = _tuple_ranks(q, n, p, caps)
    f = f_values if f_values is not None else _random_nonneg(size, (f_seed, 17, n, q, p, d))
    f = np.asarray(f, dtype=np.float64)
    tensor = f
    for _ in range(p - 1):
        tensor = np.multiply.outer(tensor, f)
    lhs = float(tensor.reshape(-1)[ranks == d].sum())
    norm1 = lp_norm(f, 1)
    rhs = 0.0
    for m in range(p - d + 1):
        r = p - d - m + 1
        rhs += math.comb(p - d, m) * (q ** d - 1.0) ** (p - d - m) \
            * float(f[0]) ** m * lp_norm(f, r) ** r
    rhs *= math.comb(p, d) * float(q) ** (n * d) * norm1 ** (d - 1)
    params = {"n": n, "q": q, "p": p, "d": d}
    return _inequality_result("norm-bound", params, lhs, rhs, seed=f_seed)


def check_rearrangement_lemma(n: int, q: int, p: int, d: int,
                              seed: int = DEFAULT_SEED,
                              caps: Caps = DEFAULT_CAPS,
                              coefficients: np.ndarray | None = None,
                              f_values: np.ndarray | None = None) -> CheckResult:
    """Averages of f-products along fixed nonzero linear combinations are
    bounded by ||f||_1^{d-1} ||f||_{p-d+1}^{p-d+1}."""
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}, p={p}")
    size = q ** n
    grid = size ** d
    caps.admit("rearrangement grid", grid * (p + n), "tuple_products")
    rng = np.random.default_rng((seed, 19, n, q, p, d))
    if coefficients is None:
        coefficients = np.empty((p - d, d), dtype=np.int64)
        for i in range(p - d):
            while True:
                row = rng.integers(0, q, size=d)
                if row.any():
                    coefficients[i] = row
                    break
    else:
        coefficients = np.asarray(coefficients, dtype=np.int64).reshape(p - d, d) % q
        if p > d and not all(row.any() for row in coefficients):
            raise ValueError("need p - d nonzero coefficient rows of length d")
    f = f_values if f_values is not None else rng.random(size)
    f = np.asarray(f, dtype=np.float64)
    flat = np.arange(grid, dtype=np.int64)
    prod = np.ones(grid)
    for j in range(d):
        prod *= f[(flat // size ** (d - 1 - j)) % size]
    field = FieldSpec(q)
    identity = np.eye(n, dtype=np.int64)
    for row in coefficients:
        # v_0 holds the most significant digits of a grid index
        prod *= f[image_indices(FqMatrix(field, np.kron(row[::-1], identity)))]
    lhs = float(prod.mean())
    r = p - d + 1
    rhs = lp_norm(f, 1) ** (d - 1) * lp_norm(f, r) ** r
    params = {"n": n, "q": q, "p": p, "d": d,
              "coefficients": coefficients.tolist()}
    return _inequality_result("rearrangement", params, lhs, rhs, seed=seed)


# -- projection identity and smoothing ----------------------------------------


def check_projection_identity(code: LinearCode, P: DensePmf,
                              p_list: Sequence[float] = (2.0, 3.0, math.inf),
                              caps: Caps = DEFAULT_CAPS,
                              rel_tol: float = 1e-10) -> CheckResult:
    """Syndrome-side norms equal smoothed-source norms at every order.

    ||q^{n-k} P_{HZ}||_p computed by pushforward must match
    ||q^n P_{X_C + Z}||_p computed by code convolution.
    """
    m = code.n - code.k
    syn = pushforward(P, code.H, caps)
    mixed = convolve(code_pmf(code, caps), P)
    q = code.field.q
    per_order = []
    for p in p_list:
        a = lp_norm(float(q) ** m * syn.probs, p)
        b = lp_norm(float(q) ** code.n * mixed.probs, p)
        per_order.append((abs(a - b) / max(1.0, abs(a), abs(b)), float(a), float(b), p))
    # at equality the errors are rounding noise: report the worst failing order, else the first
    failing = [row for row in per_order if not row[0] <= rel_tol]
    _, a, b, at_p = max(failing, key=lambda row: row[0]) if failing else per_order[0]
    params = {"n": code.n, "k": code.k, "q": q,
              "orders": [str(p) for p in p_list], "worst_order": str(at_p),
              "rel_tol": rel_tol}
    return _identity_result("projection-identity", params, a, b, rel_tol)


def rank_stratified_sum(P: DensePmf, p: int, d: int,
                        caps: Caps = DEFAULT_CAPS) -> float:
    """q^{-n} sum_x sum over rank-d tuples of prod_l P(x - v_l)."""
    q, n = P.field.q, P.n
    size = P.size
    ranks = _tuple_ranks(q, n, p, caps)
    tuples_d = np.nonzero(ranks == d)[0]
    caps.admit("rank-stratified sum", int(tuples_d.size) * size * p, "tuple_products")
    # sub_index[x, v] = idx(x - v); v holds the low digits of x * size + v
    minus_plus = FqMatrix(P.field, np.kron([q - 1, 1], np.eye(n, dtype=np.int64)))
    sub_index = image_indices(minus_plus).reshape(size, size)
    probs = P.probs
    total = 0.0
    for t in tuples_d:
        rem = int(t)
        acc = np.ones(size)
        for _ in range(p):
            v = rem % size
            rem //= size
            acc = acc * probs[sub_index[:, v]]
        total += float(acc.sum())
    return total / size


def check_rank_stratified(P: DensePmf, p: int, d: int,
                          caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Each rank stratum obeys g(d) <= C(p,d) q^{(p-d)(d - H_p)}."""
    lhs = rank_stratified_sum(P, p, d, caps)
    entropy = renyi_entropy(P, p)
    rhs = math.comb(p, d) * float(P.field.q) ** ((p - d) * (d - entropy))
    params = {"n": P.n, "q": P.field.q, "p": p, "d": d, "entropy_p": entropy}
    return _inequality_result("rank-stratified", params, lhs, rhs)


def exact_expected_smoothness(n: int, k: int, q: int, p: int, P: DensePmf,
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Average of ||q^n P_{X_C+Z}||_p^p over every [n, k]_q code stays under
    the closed-form ensemble budget."""
    G = _code_stacks(q, n, k, caps)[0]
    transformed = _character_transform(P.probs, P.field.q, P.n)  # once for every code
    size = DensePmf._check_size(FieldSpec(q), n, caps)
    caps.admit("codeword enumeration", q ** k, "code_enumeration")
    if (P.field.q, P.n) != (q, n):
        raise ValueError("convolution needs two pmfs on the same space")
    total = 0.0
    # a chunk of codes at a time: their pmfs, convolved with P, and the norms.
    # About eight tables of a chunk's size are alive at once, on top of the
    # enumerated ensembles, so a chunk takes a sixteenth of the batch budget
    chunk = max(1, _BATCH_ENTRIES // 16 // size)
    for first in range(0, len(G), chunk):
        part = G[first:first + chunk]
        pmfs = np.zeros((len(part), size))
        np.put_along_axis(pmfs, _image_rows(q, part.transpose(0, 2, 1)), 1.0 / q ** k, axis=1)
        mixed = _convolve_transformed(pmfs, transformed, q, n)
        # the sum DensePmf checks when it holds one code's convolution
        bad = np.abs(mixed.sum(axis=1) - 1.0) > _PMF_SUM_TOL
        if bad.any():
            raise ValueError(f"probabilities sum to {mixed[bad][0].sum()}, not 1")
        # a sequential float sum, as one code at a time
        for norm in lp_norms(float(q) ** n * mixed, p):
            total += float(norm) ** p
    lhs = total / len(G)
    rhs = smoothing_bound_rhs(n, k, q, p, renyi_entropy(P, p))
    params = {"n": n, "k": k, "q": q, "p": p, "codes": len(G)}
    return _inequality_result("exact-smoothing", params, lhs, rhs)


# a Monte Carlo sample span holds about this many _BATCH_ENTRIES of code entries
_SPAN_BATCHES = 4


def _mc_trials(P: DensePmf, spec: CodeEnsembleSpec, trials: int, statistic,
               caps: Caps) -> np.ndarray:
    """statistic(rows) for the codes 0 .. trials-1 of spec, where statistic maps
    a (T, q^m) array of syndrome pmfs to T values.

    Codes are sampled a span at a time, by one codes._sample_codes call whose
    draws equal default_rng((spec.seed, t)).integers trial by trial.  A span
    holds whole pushforward chunks, about _SPAN_BATCHES times _BATCH_ENTRIES
    generator or parity-check entries, whichever are more, and is pushed
    forward a chunk at a time; a chunk holds
    about a quarter of _BATCH_ENTRIES generator entries and at most
    _BATCH_ENTRIES syndrome pmf entries.  tests/test_verify.py checks the
    values against a per-code loop over per-trial generators
    (test_monte_carlo_chunks_are_contiguous_spans_of_the_code_stream and
    test_batched_monte_carlo_matches_a_per_code_pushforward_loop).
    """
    if trials < 1:
        raise ValueError(f"need at least one Monte Carlo trial, got {trials}")
    q, m = spec.field.q, spec.n - spec.k
    chunk = max(1, min(_BATCH_ENTRIES // 4 // max(1, spec.k * spec.n), _BATCH_ENTRIES // q ** m))
    # the parity checks of a span stay alive while it is pushed forward
    per_code = spec.n * max(1, spec.k, m)
    span = chunk * max(1, _SPAN_BATCHES * _BATCH_ENTRIES // (chunk * per_code))
    vals = np.empty(trials)
    for first in range(0, trials, span):
        last = min(first + span, trials)
        maps = _sample_codes(spec, first, last)[1]
        for start in range(first, last, chunk):
            stop = min(start + chunk, last)
            vals[start:stop] = statistic(_pushforward_rows(P, maps[start - first:stop - first],
                                                           caps))
    return vals


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; one sample has no error bar."""
    if vals.size < 2:
        raise ValueError(f"an error bar needs at least two Monte Carlo trials, got {vals.size}")
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


@functools.lru_cache(maxsize=1)
def _mc_norms(source: Source, spec: CodeEnsembleSpec, p: int, trials: int,
              caps: Caps) -> np.ndarray:
    """||q^m P_{HZ}||_p for the codes 0 .. trials-1 of spec, kept for the last
    key: the main and collision checks of one run read the same sample.  A
    DensePmf key is its identity, which is safe as its probs are read-only."""
    P = source.to_dense(caps)
    if P.n != spec.n or P.field != spec.field:
        raise ValueError("source and ensemble live on different spaces")
    order = RenyiOrder.of(p)
    scale = float(spec.field.q) ** (spec.n - spec.k)
    norms = _mc_trials(P, spec, trials, lambda rows: lp_norms(scale * rows, order), caps)
    norms.flags.writeable = False
    return norms


def mc_expected_smoothness(spec: CodeEnsembleSpec, source: Source, p: int,
                           trials: int, collision: bool = False,
                           caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Sampled mean smoothness of syndromes against the output-length guarantee.

    With collision=True (p = 2 only) the sharper squared-norm excess bound
    q^{m - H_2} is tested instead of the generic q^{m - H_p + p}.
    """
    if collision and p != 2:
        raise ValueError("the collision refinement is a p = 2 statement")
    norms = _mc_norms(source, spec, p, trials, caps)
    q, m = spec.field.q, spec.n - spec.k
    entropy = renyi_entropy(source, p)
    power = 2 if collision else 1
    # Python float powers, as a per-code statistic takes them
    mean, stderr = _mean_stderr(np.array([v ** power - 1.0 for v in norms.tolist()]))
    rhs = float(q) ** (m - entropy) if collision else float(q) ** (m - entropy + p)
    lhs = mean - 3.0 * stderr
    name = "mc-collision-smoothness" if collision else "mc-smoothness"
    params = {"n": spec.n, "k": spec.k, "q": q, "p": p, "m": m,
              "entropy_p": entropy, "mean": mean, "stderr": stderr,
              "collision": collision}
    result = _inequality_result(name, params, lhs, rhs, seed=spec.seed)
    result.trials = trials
    return result


def mc_bucket_linf(source: Source, eps: float, trials: int,
                   seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Sampled mean of the max bucket load against q^{2/eps}(1 + q^{-eps n/2}).

    The output length is m = floor(H_inf - n eps), the regime where every
    bucket stays near its fair share.
    """
    P = source.to_dense(caps)
    q, n = P.field.q, P.n
    h_inf = renyi_entropy(P, math.inf)
    m = math.floor(h_inf - n * eps)
    if not 1 <= m <= n:
        raise ValueError(f"derived output length m={m} out of range [1, {n}]")
    spec = CodeEnsembleSpec(P.field, n, n - m, seed)
    scale = float(q) ** m
    mean, stderr = _mean_stderr(_mc_trials(
        P, spec, trials, lambda rows: scale * rows.max(axis=1), caps))
    rhs = linf_bucket_bound(n, eps, q)
    params = {"n": n, "q": q, "eps": eps, "m": m, "min_entropy": h_inf,
              "mean": mean, "stderr": stderr}
    result = _inequality_result("mc-bucket-linf", params, mean - 3.0 * stderr, rhs,
                                seed=seed)
    result.trials = trials
    return result


# -- pointwise conversion inequalities ----------------------------------------


def check_proximity_conversions(q: int, n: int, count: int,
                                orders: Sequence[float] = (1.5, 2, 3),
                                seed: int = DEFAULT_SEED,
                                caps: Caps = DEFAULT_CAPS,
                                rel_tol: float = 1e-9) -> CheckResult:
    """Measured smoothness, divergence and centered distance of random pmfs
    satisfy every conversion between the three proximity notions.

    For integer orders the divergence and distance conversions of the
    extraction corollary are included.
    """
    if count < 1:
        raise ValueError(f"need at least one random sample, got count={count}")
    field = FieldSpec(q)
    uniform = DensePmf.uniform(field, n, caps)
    lnq = math.log(q)
    worst = (math.inf, math.nan, math.nan, "")
    for i in range(count):
        P = _random_pmf(field, n, (seed, 23, q, n, i))
        centered = float(q) ** n * P.probs - 1.0
        for p in orders:
            p = float(p)
            delta = lp_smoothness(P, p)
            div = renyi_divergence(P, uniform, p)
            dist = lp_norm(centered, p)
            pp = p / (p - 1.0)
            claims = [
                ("smooth-to-divergence", div, pp * math.log1p(delta) / lnq),
                ("divergence-to-smooth", delta, q ** (div / pp) - 1.0),
                ("smooth-to-distance", dist, phi(p, delta)),
                ("distance-to-smooth", delta, dist),
            ]
            if p == int(p) and p >= 2:
                d1, d2 = corollary_bounds(delta, int(p), q)
                claims.append(("corollary-divergence", div, d1))
                claims.append(("corollary-distance", dist, d2))
            for label, lhs, rhs in claims:
                slack = rhs - lhs
                if slack < worst[0]:
                    worst = (slack, lhs, rhs, f"{label} (p={p}, pmf {i})")
    slack, lhs, rhs = worst[0], worst[1], worst[2]
    params = {"q": q, "n": n, "count": count, "orders": [float(o) for o in orders],
              "tightest_claim": worst[3]}
    return _inequality_result("proximity-conversions", params, lhs, rhs,
                              rel_tol=rel_tol, seed=seed)


def check_clarkson(q: int, n: int, count: int,
                   orders: Sequence[float] = (1.5, 2, 3),
                   seed: int = DEFAULT_SEED,
                   rel_tol: float = 1e-9) -> CheckResult:
    """Two-branch uniform convexity inequalities on random function pairs."""
    if count < 1:
        raise ValueError(f"need at least one random sample, got count={count}")
    size = q ** n
    rng = np.random.default_rng((seed, 29, q, n))
    worst = (math.inf, math.nan, math.nan, "")
    for i in range(count):
        f = rng.normal(size=size)
        g = rng.normal(size=size)
        half_sum = (f + g) / 2.0
        half_diff = (f - g) / 2.0
        for p in orders:
            p = float(p)
            if p <= 1:
                raise ValueError("orders must exceed 1")
            if p < 2:
                pp = p / (p - 1.0)
                lhs = lp_norm(half_sum, p) ** pp + lp_norm(half_diff, p) ** pp
                rhs = (0.5 * lp_norm(f, p) ** p + 0.5 * lp_norm(g, p) ** p) ** (pp / p)
                label = f"two-sided branch p={p}"
            else:
                lhs = lp_norm(half_sum, p) ** p + lp_norm(half_diff, p) ** p
                rhs = 0.5 * (lp_norm(f, p) ** p + lp_norm(g, p) ** p)
                label = f"power branch p={p}"
            slack = rhs - lhs
            if slack < worst[0]:
                worst = (slack, lhs, rhs, f"{label}, pair {i}")
    params = {"q": q, "n": n, "count": count, "orders": [float(o) for o in orders],
              "tightest_claim": worst[3]}
    return _inequality_result("clarkson", params, worst[1], worst[2],
                              rel_tol=rel_tol, seed=seed)


# -- negative controls ---------------------------------------------------------


def negative_control_unbalanced(caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """A single fixed code is not a balanced family; this check must fail."""
    code = _codes_list(2, 3, 1, caps)[0]
    result = check_p_balanced(3, 1, 2, 1, ensemble=[code], caps=caps)
    result.name = "negative-control-unbalanced"
    result.parameters["expected_failure"] = True
    return result


def negative_control_overdraw(trials: int = 300, seed: int = DEFAULT_SEED,
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Claiming near-uniform syndromes beyond the entropy budget must fail.

    With m above the source entropy the collision smoothness is bounded away
    from zero, so the (untrue) claim "mean smoothness <= 0.5" is refuted.
    """
    n, delta, p = 8, 0.2, 2
    source = ProductBernoulli(delta, n)
    m = 7
    spec = CodeEnsembleSpec(FieldSpec(2), n, n - m, seed)
    P = source.to_dense(caps)
    scale = float(2) ** m
    mean = float(_mc_trials(
        P, spec, trials, lambda rows: lp_norms(scale * rows, p) - 1.0, caps).mean())
    params = {"n": n, "delta": delta, "p": p, "m": m,
              "entropy_p": renyi_entropy(source, p),
              "claimed_bound": 0.5, "expected_failure": True}
    result = _inequality_result("negative-control-overdraw", params, mean, 0.5,
                                seed=seed)
    result.trials = trials
    return result
