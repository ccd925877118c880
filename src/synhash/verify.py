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
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import (_integer_order, _order, corollary_bounds, linf_bucket_bound, phi,
                     smoothing_bound_rhs)
from .caps import DEFAULT_CAPS, Caps
from .codes import (
    DEFAULT_SEED,
    CodeEnsembleSpec,
    LinearCode,
    codeword_indices,  # traced site: perfbench/tracing.py wraps it here
    enumerate_all_codes,  # traced site: perfbench/tracing.py wraps it here
    gaussian_binomial,
    rank_tuple_count,
    sample_uniform_code,  # traced site: perfbench/tracing.py wraps it here
    _admit_enumeration,
    _code_dimensions,
    _ensemble_stacks,
    _sample_codes,
)
from .distributions import (
    DensePmf,
    ProductBernoulli,
    Source,
    code_pmf,  # traced sites, code_pmf and convolve: perfbench/tracing.py wraps them here
    convolve,
    lp_norm,
    lp_norms,
    _BATCH_ENTRIES,
    _PMF_SUM_TOL,
    _character_transform,
    _convolve_transformed,
    _deviation_excesses,
    pushforward,
    _product_syndrome_rows,
    _syndrome_rows,
    renyi_entropy,
)
# digit_table and _rank_array are only traced sites: perfbench/tracing.py wraps them here
from .field import FieldSpec, digit_table, q_powers, _eliminate, _image_rows, _rank_array
from .streams import raw_outputs

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
        return asdict(self)


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
    identity = np.eye(n if s == p else p, dtype=np.int64)
    points = [c for c in itertools.product(range(q), repeat=s)
              if next((a for a in c if a), 0) == 1]
    zeros = np.zeros(q ** (n * p), dtype=np.min_scalar_type(len(points)))
    for c in points:
        M = np.kron(c, identity) if s == p else np.kron(identity, c)
        zeros += _image_rows(q, (q_powers(q, len(M)) @ M)[None], len(M))[0] == 0
    # |K| = q^e exactly when zeros reads (q^e - 1) / (q - 1)
    rank_of = np.zeros(len(points) + 1, dtype=np.int8)
    for e in range(s + 1):
        rank_of[(q ** e - 1) // (q - 1)] = s - e
    ranks = rank_of[zeros]
    ranks.flags.writeable = False
    return ranks


def _tuple_space(n: int, p: int) -> None:
    if n < 0 or p < 1:
        raise ValueError(f"need n >= 0 and p >= 1, got n={n}, p={p}")


def _tuple_ranks(q: int, n: int, p: int, caps: Caps) -> np.ndarray:
    _tuple_space(n, p)
    caps.admit("tuple rank stratification", (q ** n) ** p * max(n, 1), "tuple_products")
    DensePmf._check_size(q, n * p, caps, "tuple table")  # and each table built after it
    return _tuple_ranks_cached(q, n, p)


def _codeword_tuples(q: int, G: np.ndarray, p: int):
    """The flat index of every codeword p-tuple of each code of a (codes, k, n)
    generator stack mod q, v_1 in the top digits: one (codes, q^{kp}) array
    per chunk of codes, from one image table of the chunk's generators.  A
    chunk holds about a quarter of _BATCH_ENTRIES tuples."""
    n = G.shape[2]
    size = q ** n
    chunk = max(1, _BATCH_ENTRIES // 4 // q ** (G.shape[1] * p))
    for first in range(0, len(G), chunk):
        # row j of G is column j of G^T
        words = _image_rows(q, G[first:first + chunk] @ q_powers(q, n), n).astype(np.int64)
        tuples = words
        for _ in range(p - 1):
            tuples = (tuples[:, :, None] * size + words[:, None, :]).reshape(len(words), -1)
        yield tuples


def _random_nonneg(shape, seed_key) -> np.ndarray:
    return np.random.default_rng(seed_key).random(shape)


# the widest rows drawn as one stack: the stacked draw costs about 0.2 ms a
# call and 25 ns an entry, numpy's own about 20 us a row up to thousands of
# entries, so a single row or a wider one is drawn by numpy
_STACKED_WIDTH = 256


def _random_probs(key, start: int, stop: int, size: int) -> np.ndarray:
    """The probabilities of the random pmfs (*key, t) for t in start .. stop-1,
    as a (T, size) array whose row t is np.random.default_rng((*key, t))
    .random(size) + 1e-9, normalised, so every entry is positive.
    Generator.random is PCG64's (raw >> 11) 2^-53, which streams.raw_outputs
    draws for every t at once when the rows are narrow
    (tests/test_streams.py, test_random_pmfs_are_generator_draws)."""
    if stop - start > 1 and size <= _STACKED_WIDTH:
        raw = raw_outputs(key, start, stop, size)
        values = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    else:
        values = np.array([np.random.default_rng((*key, t)).random(size)
                           for t in range(start, stop)]).reshape(-1, size)
    values += 1e-9
    return values / values.sum(axis=1, keepdims=True)


def _random_pmf(field: FieldSpec, n: int, seed_key: tuple) -> DensePmf:
    """The random pmf of _random_probs drawn from default_rng(seed_key)."""
    *key, t = seed_key
    return DensePmf(field, n, _random_probs(key, t, t + 1, field.q ** n)[0])


# -- ensemble structure checks ------------------------------------------------


def check_p_balanced(n: int, k: int, q: int, p: int,
                     caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Within every rank class, each p-tuple must sit in the same number of
    [n, k]_q codes: the census of the whole ensemble."""
    return _balance_census(n, k, q, p, None, caps)


def _balance_census(n: int, k: int, q: int, p: int, codes: int | None,
                    caps: Caps) -> CheckResult:
    """The balance census of the first `codes` [n, k]_q codes in enumeration
    order, or of every code when codes is None: counts[v_1, ..., v_p] is the
    number of codes that hold every v_j.  A code lists each of its codeword
    p-tuples once (_codeword_tuples), so one bincount a chunk gives exact
    integer counts.  Every cost is admitted before the ensemble is built."""
    FieldSpec(q)  # refuses a modulus that is not prime
    _tuple_space(n, p)
    _admit_enumeration(q, n, k, caps)
    count = gaussian_binomial(n, k, q) if codes is None else codes
    caps.admit("balance census", count * (q ** n) ** p, "tuple_products")
    ranks = _tuple_ranks(q, n, p, caps)  # its cap refuses before the census runs
    G = _ensemble_stacks(q, n, k, caps)[0][:count]
    counts = np.zeros((q ** n) ** p, dtype=np.int64)
    for tuples in _codeword_tuples(q, G, p):
        counts += np.bincount(tuples.ravel(), minlength=counts.size)
    spread = 0
    by_rank: dict[int, list[int]] = {}
    for d in range(min(n, p) + 1):
        vals = counts[ranks == d]
        if vals.size == 0:
            continue
        lo, hi = int(vals.min()), int(vals.max())
        by_rank[d] = [lo, hi]
        spread = max(spread, hi - lo)
    params = {"n": n, "k": k, "q": q, "p": p, "codes": len(G),
              "counts_by_rank": by_rank}
    return _identity_result("p-balanced", params, float(spread), 0.0, rel_tol=0.0)


def _tuple_average(n: int, k: int, q: int, p: int, f_key, caps: Caps):
    """The number of [n, k]_q codes, the tuple ranks, the flattened test
    function f on p-tuples drawn from f_key and the average over codes of the
    sum of f over codeword p-tuples.  Every cost is admitted before the
    ensemble is built."""
    FieldSpec(q)  # refuses a modulus that is not prime
    _tuple_space(n, p)
    _admit_enumeration(q, n, k, caps)
    ranks = _tuple_ranks(q, n, p, caps)
    caps.admit("codeword enumeration", q ** k, "code_enumeration")
    G = _ensemble_stacks(q, n, k, caps)[0]
    flat = _random_nonneg((q ** n) ** p, f_key)
    lhs = 0.0
    for tuples in _codeword_tuples(q, G, p):
        # one row sum per code, added in code order as one code at a time
        for total in flat[tuples].sum(axis=1).tolist():
            lhs += total
    return len(G), ranks, flat, lhs / len(G)


def check_balanced_identity(n: int, k: int, q: int, p: int, f_seed: int = DEFAULT_SEED,
                            caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Code-ensemble tuple average equals the rank-stratified weighted sum.

    Both sides are computed over all [n, k]_q codes and a random nonnegative
    test function on p-tuples.
    """
    codes, ranks, flat, lhs = _tuple_average(n, k, q, p, (f_seed, 11, n, k, q, p), caps)
    rhs = 0.0
    for d in range(min(n, p) + 1):
        t_n = rank_tuple_count(n, p, d, q)
        if t_n == 0:
            continue
        ratio = Fraction(rank_tuple_count(k, p, d, q), t_n)
        if ratio:
            rhs += float(ratio) * float(flat[ranks == d].sum())
    rel_tol = 1e-9
    params = {"n": n, "k": k, "q": q, "p": p, "codes": codes, "rel_tol": rel_tol}
    return _identity_result("balanced-identity", params, lhs, rhs, rel_tol,
                            seed=f_seed)


def check_balanced_inequality(n: int, k: int, q: int, p: int,
                              f_seed: int = DEFAULT_SEED,
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Tuple average is at most the rank-stratified sum weighted by q^{d(k-n)}.

    Equality holds when k = n.
    """
    codes, ranks, flat, lhs = _tuple_average(n, k, q, p, (f_seed, 13, n, k, q, p), caps)
    rhs = 0.0
    for d in range(min(k, p) + 1):
        rhs += float(q ** (d * (k - n))) * float(flat[ranks == d].sum())
    params = {"n": n, "k": k, "q": q, "p": p, "codes": codes}
    return _inequality_result("balanced-inequality", params, lhs, rhs, seed=f_seed)


def check_tuple_probability(n: int, k: int, q: int, vectors: Sequence[int],
                            caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Containment probability of a fixed tuple is at most q^{-d(n-k)}.

    Exact rational arithmetic on both ensembles: the uniform full-rank-code
    ensemble obeys the bound, and the iid-parity-check ensemble (kernel of a
    uniform (n-k) x n matrix) attains it with equality.  The tuple is given
    by the little-endian indices of its vectors in F_q^n.  The one-tuple call
    of _tuple_probabilities.
    """
    return _tuple_probabilities(n, k, q, [vectors], caps)[0]


def _tuple_probabilities(n: int, k: int, q: int, tuples: Sequence[Sequence[int]],
                         caps: Caps) -> list[CheckResult]:
    """check_tuple_probability for every tuple, from one ensemble.  Each
    tuple's indices are checked in turn, and the ensemble admitted after the
    first, as in a sequence of one-tuple calls, before any table is built."""
    FieldSpec(q)  # refuses a modulus that is not prime
    size = q ** n
    idx = []
    for vectors in tuples:
        tuple_ = [int(v) for v in vectors]
        outside = [i for i in tuple_ if not 0 <= i < size]
        if outside:
            raise ValueError(f"index {outside[0]} out of range for q**n = {q}**{n}")
        if not idx:
            _admit_enumeration(q, n, k, caps)
        idx.append(tuple_)
    powers = q_powers(q, n)  # refuses an index past int64 before one is stored
    width = max(map(len, idx))
    padded = np.array([t + [0] * (width - len(t)) for t in idx], dtype=np.int64)
    # (T, width, n) digits; the zero vector pads, as every code holds it and
    # it leaves the span alone
    U = padded.reshape(len(idx), width, 1) // powers % q
    H = _ensemble_stacks(q, n, k, caps)[1]
    # a code holds every vector of a tuple iff its parity check sends them all
    # to zero; a chunk of codes at a time, so no product passes _BATCH_ENTRIES
    held = np.zeros(len(idx), dtype=np.int64)
    vectors = U.reshape(len(idx) * width, n).T
    chunk = max(1, _BATCH_ENTRIES // max(1, (n - k) * len(idx) * width))
    for first in range(0, len(H), chunk):
        part = H[first:first + chunk]
        syndromes = (part.reshape(len(part) * (n - k), n) @ vectors % q).reshape(
            len(part), n - k, len(idx), width)
        held += len(part) - np.count_nonzero(syndromes.any(axis=(1, 3)), axis=0)
    keys = list(zip(held.tolist(), _eliminate(U, q)[2].tolist()))
    # the exact fractions depend on a tuple through (contained, rank) alone
    verdicts = {}
    for contained, d in set(keys):
        prob = Fraction(contained, len(H))
        bound = Fraction(1, q ** (d * (n - k)))
        # the n - k rows of an iid A are independent, and each must be one of
        # the z = q^(n - d) points orthogonal to the tuple's span: an exact
        # fraction, so none of the q^{(n-k)n} matrices is formed
        z = q ** (n - d)
        iid_prob = Fraction(z ** (n - k), q ** ((n - k) * n))
        fields = {"rank": d, "ensemble_probability": str(prob), "bound": str(bound),
                  "iid_probability": str(iid_prob), "iid_equality": iid_prob == bound}
        verdicts[contained, d] = (fields, prob <= bound and iid_prob == bound,
                                  float(prob), float(bound), float(bound - prob))
    results = []
    for tuple_, key in zip(idx, keys):
        fields, passed, lhs, rhs, slack = verdicts[key]
        params = {"n": n, "k": k, "q": q, "p": len(tuple_), "tuple": tuple_, **fields}
        results.append(CheckResult("tuple-probability", params, passed, lhs, rhs, slack,
                                   kind="inequality"))
    return results


# -- moment and rearrangement inequalities ------------------------------------


def check_norm_bound_lemma(n: int, q: int, p: int, d: int, f_seed: int = DEFAULT_SEED,
                           caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Rank-d tuple sums of products of f are controlled by mixed norms of f."""
    FieldSpec(q)  # refuses a modulus that is not prime
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}, p={p}")
    ranks = _tuple_ranks(q, n, p, caps)
    f = _random_nonneg(q ** n, (f_seed, 17, n, q, p, d))
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
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Averages of f-products along fixed nonzero linear combinations are
    bounded by ||f||_1^{d-1} ||f||_{p-d+1}^{p-d+1}."""
    FieldSpec(q)  # refuses a modulus that is not prime
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p, got d={d}, p={p}")
    size = q ** n
    grid = size ** d
    caps.admit("rearrangement grid", grid * (p + n), "tuple_products")
    DensePmf._check_size(q, n * d, caps, "rearrangement grid")
    rng = np.random.default_rng((seed, 19, n, q, p, d))
    coefficients = []  # p - d nonzero rows of length d
    while len(coefficients) < p - d:
        row = rng.integers(0, q, size=d)
        if row.any():
            coefficients.append(row.tolist())
    f = rng.random(size)
    flat = np.arange(grid, dtype=np.int64)
    prod = np.ones(grid)
    for j in range(d):
        prod *= f[(flat // size ** (d - 1 - j)) % size]
    identity = np.eye(n, dtype=np.int64)
    for row in coefficients:
        # v_0 holds the most significant digits of a grid index
        prod *= f[_image_rows(q, (q_powers(q, n) @ np.kron(row[::-1], identity))[None], n)[0]]
    lhs = float(prod.mean())
    r = p - d + 1
    rhs = lp_norm(f, 1) ** (d - 1) * lp_norm(f, r) ** r
    params = {"n": n, "q": q, "p": p, "d": d, "coefficients": coefficients}
    return _inequality_result("rearrangement", params, lhs, rhs, seed=seed)


# -- projection identity and smoothing ----------------------------------------


def check_projection_identity(code: LinearCode, P: DensePmf,
                              p_list: Sequence[float] = (2.0, 3.0, math.inf),
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Syndrome-side norms equal smoothed-source norms at every order.

    ||q^{n-k} P_{HZ}||_p computed by pushforward must match
    ||q^n P_{X_C + Z}||_p computed by code convolution.  The orders are
    checked first.  The one-code call of _projection_identities.
    """
    _projection_orders(p_list)
    syndromes = pushforward(P, code.H, caps).probs[None]
    return _projection_identities(P.field.q, P.probs, code.G.array[None], syndromes,
                                  p_list, caps)[0]


def _projection_orders(p_list: Sequence[float]) -> None:
    """Refuse an empty order list, then any order that is not positive."""
    if not p_list:
        raise ValueError("need at least one order, got none")
    for p in p_list:
        _order(p)


def _projection_identities(q: int, probs: np.ndarray, G: np.ndarray, syndromes: np.ndarray,
                           p_list: Sequence[float], caps: Caps) -> list[CheckResult]:
    """check_projection_identity for every code of a (T, k, n) generator stack
    mod q, given the (T, q^{n-k}) pmfs of its syndromes, the pushforward route
    (distributions._syndrome_rows for a stack).  probs holds the sources'
    q^n probabilities: 1-D for one source of every code, or (T, q^n) with row
    t the source of code t.

    The other side is the convolution route, taken once for the whole stack:
    one image table of the generators gives the code pmfs, and one
    convolution smooths the sources.  Every norm equals that of pushforward,
    code_pmf, convolve and lp_norm, one code at a time, bit for bit, and the
    caps and errors are theirs, in their order.
    """
    count, k, n = G.shape
    m = n - k
    _check_sums(syndromes)
    DensePmf._check_size(q, n, caps)
    caps.admit("codeword enumeration", q ** k, "code_enumeration")
    code_pmfs = _code_pmfs(q, G)
    _check_sums(code_pmfs)
    mixed = _convolve_transformed(code_pmfs, _character_transform(probs, q, n), q, n)
    _check_sums(mixed)
    norms = [(lp_norms(float(q) ** m * syndromes, p).tolist(),
              lp_norms(float(q) ** n * mixed, p).tolist()) for p in p_list]
    rel_tol = 1e-10
    results = []
    for t in range(count):
        per_order = [(abs(a[t] - b[t]) / max(1.0, abs(a[t]), abs(b[t])), a[t], b[t], p)
                     for p, (a, b) in zip(p_list, norms)]
        # at equality the errors are rounding noise: report the worst failing order, else the first
        failing = [row for row in per_order if not row[0] <= rel_tol]
        _, a, b, at_p = max(failing, key=lambda row: row[0]) if failing else per_order[0]
        params = {"n": n, "k": k, "q": q,
                  "orders": [str(p) for p in p_list], "worst_order": str(at_p),
                  "rel_tol": rel_tol}
        results.append(_identity_result("projection-identity", params, a, b, rel_tol))
    return results


def _code_pmfs(q: int, G: np.ndarray) -> np.ndarray:
    """code_pmf of every generator of a (T, k, n) stack mod q, as a (T, q^n)
    array, from one image table of the G^T stack."""
    count, k, n = G.shape
    pmfs = np.zeros((count, q ** n))
    np.put_along_axis(pmfs, _image_rows(q, G @ q_powers(q, n), n), 1.0 / q ** k, axis=1)
    return pmfs


def _check_sums(rows: np.ndarray) -> None:
    """The sum DensePmf checks, for each row of a (T, size) stack of pmfs."""
    bad = np.abs(rows.sum(axis=1) - 1.0) > _PMF_SUM_TOL
    if bad.any():
        raise ValueError(f"probabilities sum to {rows[bad][0].sum()}, not 1")


def rank_stratified_sum(P: DensePmf, p: int, d: int,
                        caps: Caps = DEFAULT_CAPS) -> float:
    """q^{-n} sum_x sum over rank-d tuples of prod_l P(x - v_l)."""
    q, n = P.field.q, P.n
    _stratum(n, p, d)
    size = P.size
    ranks = _tuple_ranks(q, n, p, caps)
    tuples_d = np.nonzero(ranks == d)[0]
    caps.admit("rank-stratified sum", int(tuples_d.size) * size * p, "tuple_products")
    DensePmf._check_size(q, 2 * n, caps, "subtraction table")
    # sub_index[x, v] = idx(x - v); v holds the low digits of x * size + v
    minus_plus = np.kron([q - 1, 1], np.eye(n, dtype=np.int64))
    sub_index = _image_rows(q, (q_powers(q, n) @ minus_plus)[None], n)[0].reshape(size, size)
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


def _stratum(n: int, p: int, d: int) -> None:
    """The usage errors of a rank stratum, which need no source: d outside
    0 .. min(n, p), then n or p out of range."""
    if not 0 <= d <= min(n, p):
        raise ValueError(f"need 0 <= d <= min(n, p), got d={d}")
    _tuple_space(n, p)


def check_rank_stratified(P: Source, p: int, d: int,
                          caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Each rank stratum obeys g(d) <= C(p,d) q^{(p-d)(d - H_p)}; the stratum is
    checked before P.to_dense(caps)."""
    _stratum(P.n, p, d)
    P = P.to_dense(caps)
    lhs = rank_stratified_sum(P, p, d, caps)
    entropy = renyi_entropy(P, p)
    rhs = math.comb(p, d) * float(P.field.q) ** ((p - d) * (d - entropy))
    params = {"n": P.n, "q": P.field.q, "p": p, "d": d, "entropy_p": entropy}
    return _inequality_result("rank-stratified", params, lhs, rhs)


def exact_expected_smoothness(n: int, k: int, q: int, p: int, P: Source,
                              caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Average of ||q^n P_{X_C+Z}||_p^p over every [n, k]_q code stays under
    the closed-form ensemble budget.  The order and dimensions are checked
    before P.to_dense(caps), and every cost before the ensemble is built.
    The one-source, one-order call of _exact_smoothnesses."""
    return _exact_smoothnesses(n, k, q, (p,), [P], caps)[0][0]


def _exact_smoothnesses(n: int, k: int, q: int, orders: Sequence[int],
                        sources: Sequence[Source], caps: Caps) -> list[list[CheckResult]]:
    """exact_expected_smoothness of every source (rows) at every order
    (columns), from one ensemble and one convolution of each chunk of code
    pmfs with every source, equal to the one-item calls bit for bit."""
    for p in orders:
        _integer_order(p)
    _code_dimensions(n, k)
    sources = [P.to_dense(caps) for P in sources]
    for P in sources:
        if (P.field, P.n) != (FieldSpec(q), n):
            raise ValueError("convolution needs two pmfs on the same space")
    _admit_enumeration(q, n, k, caps)
    size = DensePmf._check_size(q, n, caps)
    caps.admit("codeword enumeration", q ** k, "code_enumeration")
    G = _ensemble_stacks(q, n, k, caps)[0]
    transformed = _character_transform(np.array([P.probs for P in sources]), q, n)
    totals = [[0.0] * len(orders) for _ in sources]
    # a chunk of codes at a time: their pmfs, convolved with every source, and
    # the norms.  About eight tables of a chunk's size are alive at once, on
    # top of the enumerated ensembles, so a chunk takes a sixteenth of the
    # batch budget
    chunk = max(1, _BATCH_ENTRIES // 16 // (size * len(sources)))
    for first in range(0, len(G), chunk):
        # (codes, sources, q^n)
        mixed = _convolve_transformed(_code_pmfs(q, G[first:first + chunk])[:, None],
                                      transformed, q, n)
        rows = mixed.reshape(-1, size)
        _check_sums(rows)
        scaled = float(q) ** n * rows
        for j, p in enumerate(orders):
            norms = lp_norms(scaled, p).reshape(mixed.shape[:2])
            for s, column in enumerate(norms.T.tolist()):
                total = totals[s][j]
                for norm in column:  # a sequential float sum, as one code at a time
                    total += norm ** p
                totals[s][j] = total
    results = []
    for P, sums in zip(sources, totals):
        row = []
        for p, total in zip(orders, sums):
            rhs = smoothing_bound_rhs(n, k, q, p, renyi_entropy(P, p))
            params = {"n": n, "k": k, "q": q, "p": p, "codes": len(G)}
            row.append(_inequality_result("exact-smoothing", params, total / len(G), rhs))
        results.append(row)
    return results


# a Monte Carlo sample span holds about this many _BATCH_ENTRIES of code entries
_SPAN_BATCHES = 4


def _mc_trials(source: Source, spec: CodeEnsembleSpec, trials: int, statistic,
               caps: Caps) -> np.ndarray:
    """statistic(rows) for the codes 0 .. trials-1 of spec, where statistic maps
    a (T, q^m) array of syndrome pmfs to T values.

    The route is picked once, by source type.  A ProductBernoulli is pushed
    through each parity check column by column
    (distributions._product_syndrome_rows), trials n 2^m operations in all,
    and is never made dense; a DensePmf is counted through the image tables
    of distributions._syndrome_rows.  Either way the q^m-entry syndrome table
    is admitted against the dense cap before any code is drawn, and so are a
    ProductBernoulli's trials n 2^m column steps, against tuple_products.

    Codes are sampled a span at a time, by one codes._sample_codes call whose
    draws equal default_rng((spec.seed, t)).integers trial by trial, and each
    span's parity-check column indices go to the kernel whole, with no
    parity-check matrix formed.  A span holds about _SPAN_BATCHES times
    _BATCH_ENTRIES generator or parity-check entries, whichever are more, and
    at most _BATCH_ENTRIES syndrome pmf entries; _syndrome_rows batches its
    image tables itself.  The parity checks are kernel bases, an identity on
    the free columns, so they have full rank and are pushed forward without
    a rank check (tests/test_codes.py, test_sampled_parity_checks_have_full_rank).
    Every row is computed on its own, so the values do not depend on the
    span; tests/test_verify.py checks them against per-code loops over
    per-trial generators (test_monte_carlo_chunks_are_contiguous_spans_of_the_code_stream,
    test_batched_monte_carlo_matches_a_per_code_pushforward_loop and, for the
    column steps, test_batched_overdraw_control_matches_a_per_code_loop).
    """
    if trials < 1:
        raise ValueError(f"need at least one Monte Carlo trial, got {trials}")
    q, m = spec.field.q, spec.n - spec.k
    DensePmf._check_size(q, m, caps)
    if isinstance(source, ProductBernoulli):
        caps.admit("column steps", (trials * spec.n) << m, "tuple_products")
        push = functools.partial(_product_syndrome_rows, source.delta, m=m)
    else:
        push = functools.partial(_syndrome_rows, q, source.probs, m=m, caps=caps)
    span = max(1, min(_SPAN_BATCHES * _BATCH_ENTRIES // max(1, spec.n * max(spec.k, m)),
                      _BATCH_ENTRIES // q ** m))
    vals = np.empty(trials)
    for first in range(0, trials, span):
        last = min(first + span, trials)
        vals[first:last] = statistic(push(_sample_codes(spec, first, last)[1]))
    return vals


def _mc_result(name: str, params: dict, vals: np.ndarray, rhs: float,
               seed: int) -> CheckResult:
    """The Monte Carlo claim that the sample mean of vals, less three standard
    errors, is at most rhs, with the mean and error added to params; the
    usage checks have seen that there are at least two."""
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))
    return _inequality_result(name, {**params, "mean": mean, "stderr": stderr},
                              mean - 3.0 * stderr, rhs, seed=seed, trials=vals.size)


@functools.lru_cache(maxsize=1)
def _mc_excesses(source: Source, spec: CodeEnsembleSpec, p: int, trials: int,
                 caps: Caps) -> np.ndarray:
    """||q^m P_{HZ}||_p^p - 1 from q^m P_{HZ} - 1 for the codes 0 .. trials-1 of
    spec, kept for the last key: the main and collision checks of one run read
    the same sample.  A DensePmf key is its identity, which is safe as its probs
    are read-only.  The source is not made dense: _mc_trials picks its route."""
    if source.n != spec.n or source.field != spec.field:
        raise ValueError("source and ensemble live on different spaces")
    scale = float(spec.field.q) ** (spec.n - spec.k)
    x = _mc_trials(source, spec, trials, lambda rows: _deviation_excesses(scale * rows - 1.0, p),
                   caps)
    x.flags.writeable = False
    return x


def mc_expected_smoothness(spec: CodeEnsembleSpec, source: Source, p: int,
                           trials: int, collision: bool = False,
                           caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Sampled mean smoothness of syndromes against the output-length guarantee.

    A code of excess x scores ||q^m P_{HZ}||_p - 1 as expm1(log1p(x) / p).
    With collision=True (p = 2 only) it scores x, and the sharper squared-norm
    excess bound q^{m - H_2} is tested instead of the generic q^{m - H_p + p}.
    The usage errors come before source.to_dense(caps), which a ProductBernoulli skips.
    """
    if trials < 2:
        raise ValueError(f"an error bar needs at least two Monte Carlo trials, got {trials}")
    if collision and p != 2:
        raise ValueError("the collision refinement is a p = 2 statement")
    _order(p)
    _integer_order(p)  # at p = 1 every ||q^m P||_1 is 1, and nothing would be tested
    source = source if isinstance(source, ProductBernoulli) else source.to_dense(caps)
    entropy = renyi_entropy(source, p)
    x = _mc_excesses(source, spec, p, trials, caps)
    q, m = spec.field.q, spec.n - spec.k
    vals = x if collision else np.expm1(np.log1p(x) / p)
    rhs = float(q) ** (m - entropy) if collision else float(q) ** (m - entropy + p)
    params = {"n": spec.n, "k": spec.k, "q": q, "p": p, "m": m,
              "entropy_p": entropy, "collision": collision}
    return _mc_result("mc-collision-smoothness" if collision else "mc-smoothness",
                      params, vals, rhs, spec.seed)


def mc_bucket_linf(source: Source, eps: float, trials: int,
                   seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Sampled mean of the max bucket load against q^{2/eps}(1 + q^{-eps n/2}).

    The output length is m = floor(H_inf - n eps), the regime where every
    bucket stays near its fair share.  The usage errors come before
    source.to_dense(caps), which a ProductBernoulli skips: _mc_trials picks
    its route.
    """
    q, n = source.field.q, source.n
    if trials < 2:
        raise ValueError(f"an error bar needs at least two Monte Carlo trials, got {trials}")
    rhs = linf_bucket_bound(n, eps, q)
    source = source if isinstance(source, ProductBernoulli) else source.to_dense(caps)
    h_inf = renyi_entropy(source, math.inf)
    m = math.floor(h_inf - n * eps)
    if not 1 <= m <= n:
        raise ValueError(f"derived output length m={m} out of range [1, {n}]")
    spec = CodeEnsembleSpec(source.field, n, n - m, seed)
    scale = float(q) ** m
    vals = _mc_trials(source, spec, trials, lambda rows: scale * rows.max(axis=1), caps)
    params = {"n": n, "q": q, "eps": eps, "m": m, "min_entropy": h_inf}
    return _mc_result("mc-bucket-linf", params, vals, rhs, seed)


# -- pointwise conversion inequalities ----------------------------------------


def _tightest_claim(name: str, q: int, n: int, count: int, orders: Sequence[float],
                    seed: int, caps: Caps, tables: int, claims) -> CheckResult:
    """The first claim (label, lhs, rhs) of least slack rhs - lhs, never a NaN one,
    that claims(orders, chunk) yields after q, count, the orders (as floats) and the
    dense cap on q^n are checked; chunk draws hold `tables` q^n tables in _BATCH_ENTRIES.
    A label is a (template, p, index) triple, and only the tightest is formatted."""
    FieldSpec(q)  # refuses a modulus that is not prime
    if count < 1:
        raise ValueError(f"need at least one random sample, got count={count}")
    orders = [float(p) for p in orders]
    if not orders:
        raise ValueError("need at least one order, got none")
    bad = [p for p in orders if not 1.0 < p < math.inf]
    if bad:
        raise ValueError(f"orders must be finite and exceed 1, got {bad[0]}")
    size = DensePmf._check_size(q, n, caps)
    worst = (math.inf, math.nan, math.nan, ("", None, None))
    for label, lhs, rhs in claims(orders, max(1, _BATCH_ENTRIES // (tables * size))):
        if rhs - lhs < worst[0]:
            worst = (rhs - lhs, lhs, rhs, label)
    template, p, index = worst[3]
    params = {"q": q, "n": n, "count": count, "orders": orders,
              "tightest_claim": template.format(p=p, index=index)}
    return _inequality_result(name, params, worst[1], worst[2], seed=seed)


def check_proximity_conversions(q: int, n: int, count: int,
                                orders: Sequence[float] = (1.5, 2, 3),
                                seed: int = DEFAULT_SEED,
                                caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Measured smoothness, divergence and centered distance of random pmfs
    satisfy every conversion between the three proximity notions.

    For integer orders the divergence and distance conversions of the
    extraction corollary are included.  The pmfs are scored a table of rows
    at a time; every measure of a row (lp_norm(q^n P) - 1, renyi_divergence
    against uniform, lp_norm(q^n P - 1)) equals that of the pmf alone, bit for
    bit, and the claims are then evaluated in Python floats, pmf by pmf and order by order.
    """
    def claims(orders, chunk):
        size = q ** n
        uniform = np.full(size, 1.0 / size)
        lnq = math.log(q)
        for first in range(0, count, chunk):
            probs = _random_probs((seed, 23, q, n), first, min(first + chunk, count), size)
            centered = float(q) ** n * probs - 1.0
            # renyi_divergence(P, uniform, p), over the whole support of a random pmf
            measures = [(lp_norms(size * probs, p).tolist(),
                         (np.log((probs ** p * uniform ** (1.0 - p)).sum(axis=1))
                          / ((p - 1.0) * lnq)).tolist(),
                         lp_norms(centered, p).tolist()) for p in orders]
            for row in range(len(probs)):
                for p, (norm, divs, dists) in zip(orders, measures):
                    delta, div, dist = norm[row] - 1.0, divs[row], dists[row]
                    pp = p / (p - 1.0)
                    i = first + row
                    yield (("smooth-to-divergence (p={p}, pmf {index})", p, i),
                           div, pp * math.log1p(delta) / lnq)
                    yield (("divergence-to-smooth (p={p}, pmf {index})", p, i),
                           delta, q ** (div / pp) - 1.0)
                    yield ("smooth-to-distance (p={p}, pmf {index})", p, i), dist, phi(p, delta)
                    yield ("distance-to-smooth (p={p}, pmf {index})", p, i), delta, dist
                    if p == int(p) and p >= 2:
                        d1, d2 = corollary_bounds(delta, int(p), q)
                        yield ("corollary-divergence (p={p}, pmf {index})", p, i), div, d1
                        yield ("corollary-distance (p={p}, pmf {index})", p, i), dist, d2
    return _tightest_claim("proximity-conversions", q, n, count, orders, seed, caps, 1, claims)


def check_clarkson(q: int, n: int, count: int,
                   orders: Sequence[float] = (1.5, 2, 3),
                   seed: int = DEFAULT_SEED,
                   caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """Two-branch uniform convexity inequalities on random function pairs.

    Pair i is the draws 2i and 2i + 1 of one normal stream, taken a table of
    pairs at a time; each norm equals lp_norm of that function alone, and the
    two sides are then evaluated in Python floats, pair by pair and order by
    order.
    """
    def claims(orders, chunk):
        rng = np.random.default_rng((seed, 29, q, n))
        for first in range(0, count, chunk):
            pairs = rng.normal(size=(min(chunk, count - first), 2, q ** n))
            f, g = pairs[:, 0], pairs[:, 1]
            tables = ((f + g) / 2.0, (f - g) / 2.0, f, g)
            norms = [[lp_norms(t, p).tolist() for t in tables] for p in orders]
            for row in range(len(pairs)):
                for p, (half_sum, half_diff, norm_f, norm_g) in zip(orders, norms):
                    if p < 2:
                        pp = p / (p - 1.0)
                        yield (("two-sided branch p={p}, pair {index}", p, first + row),
                               half_sum[row] ** pp + half_diff[row] ** pp,
                               (0.5 * norm_f[row] ** p + 0.5 * norm_g[row] ** p) ** (pp / p))
                    else:
                        yield (("power branch p={p}, pair {index}", p, first + row),
                               half_sum[row] ** p + half_diff[row] ** p,
                               0.5 * (norm_f[row] ** p + norm_g[row] ** p))
    return _tightest_claim("clarkson", q, n, count, orders, seed, caps, 2, claims)


# -- negative controls ---------------------------------------------------------


def negative_control_unbalanced(caps: Caps = DEFAULT_CAPS) -> CheckResult:
    """A single fixed code is not a balanced family; this check must fail."""
    result = _balance_census(3, 1, 2, 1, 1, caps)
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
    # the plain mean of mc_expected_smoothness's scores, so a single trial is enough
    mean = float(np.expm1(np.log1p(_mc_excesses(source, spec, p, trials, caps)) / p).mean())
    params = {"n": n, "delta": delta, "p": p, "m": m,
              "entropy_p": renyi_entropy(source, p),
              "claimed_bound": 0.5, "expected_failure": True}
    return _inequality_result("negative-control-overdraw", params, mean, 0.5,
                              seed=seed, trials=trials)
