import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from synhash import distributions, verify
from synhash.caps import DEFAULT_CAPS, Caps, CapExceeded
from synhash.codes import (DEFAULT_SEED, CodeEnsembleSpec, LinearCode, enumerate_all_codes,
                           gaussian_binomial, rank_tuple_count, sample_uniform_code,
                           _sample_codes)
from synhash.distributions import (DensePmf, ProductBernoulli, code_pmf, convolve,
                                   lp_norm, pushforward, renyi_entropy, _syndrome_rows)
from synhash.field import FieldSpec, FqMatrix, image_indices, rref, _rank_array
from synhash.verify import (
    check_balanced_identity,
    check_balanced_inequality,
    check_clarkson,
    check_norm_bound_lemma,
    check_p_balanced,
    check_projection_identity,
    check_proximity_conversions,
    check_rank_stratified,
    check_rearrangement_lemma,
    check_tuple_probability,
    exact_expected_smoothness,
    mc_bucket_linf,
    mc_expected_smoothness,
    negative_control_overdraw,
    negative_control_unbalanced,
    rank_stratified_sum,
    _exact_smoothnesses,
    _projection_identities,
    _random_pmf,
    _random_probs,
    _tuple_probabilities,
    _tuple_ranks_cached,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def _digits(q, n):
    """Little-endian digits of every index of F_q^n, one row per index."""
    return np.arange(q ** n)[:, None] // q ** np.arange(n) % q


# both sides of s = min(n, p), n = 0, and q > 2 at p = 3
@pytest.mark.parametrize("q,n,p", [(2, 3, 2), (2, 2, 3), (3, 2, 2), (5, 1, 2), (2, 1, 4),
                                   (2, 2, 5), (2, 0, 3), (3, 2, 3), (7, 1, 2)])
def test_tuple_ranks_against_matrix_rank(q, n, p):
    ranks = _tuple_ranks_cached(q, n, p)
    size = q ** n
    digits = _digits(q, n)
    for t in range(size ** p):
        vs = [(t // size ** (p - 1 - j)) % size for j in range(p)]
        assert ranks[t] == _rank_array(digits[vs].T, q), (t, vs)


@pytest.mark.parametrize("n,k,q,p", [(3, 1, 2, 2), (3, 2, 2, 2), (2, 1, 3, 2),
                                     (4, 2, 2, 3), (3, 0, 2, 2), (3, 3, 2, 2)])
def test_full_ensembles_are_balanced(n, k, q, p):
    res = check_p_balanced(n, k, q, p)
    assert res.passed
    assert res.lhs == 0.0
    # a rank-d tuple lies in every k-space through its d-dimensional span
    assert res.parameters["counts_by_rank"] == {
        d: [gaussian_binomial(n - d, k - d, q)] * 2 for d in range(min(n, p) + 1)}


def test_tuple_ranks_memory_stays_near_the_rank_array():
    verify._tuple_ranks_cached.cache_clear()
    tracemalloc.start()
    try:
        ranks = _tuple_ranks_cached(2, 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^18 tuples: the rank array takes 256 KiB and one index table 2 MiB
    assert ranks.size == 1 << 18
    assert peak < 6 << 20


def test_single_code_is_not_balanced():
    # one [3, 1]_2 code holds one of the 7 nonzero vectors: rank-1 counts of 0 and 1
    res = negative_control_unbalanced()
    assert not res.passed
    assert res.parameters["codes"] == 1
    assert res.parameters["counts_by_rank"] == {0: [1, 1], 1: [0, 1]}


def _kron_census(codes, p):
    """counts[v_1, ..., v_p] one code at a time: a tuple lies in the code when
    kron(I_p, H) sends it to 0."""
    counts = np.zeros((codes[0].field.q ** codes[0].n) ** p, dtype=np.int64)
    blocks = np.eye(p, dtype=np.int64)
    for code in codes:
        counts += image_indices(FqMatrix(code.field, np.kron(blocks, code.H.array))) == 0
    return counts


# c02's four shapes, p = 3 past the suite's size, and q = 3 at p = 2
@pytest.mark.parametrize("n, k, q, p", [(3, 1, 2, 2), (3, 2, 2, 2), (2, 1, 3, 2), (4, 2, 2, 3),
                                        (5, 2, 2, 3), (4, 2, 3, 2)])
def test_stack_census_matches_the_per_code_kron_census(monkeypatch, n, k, q, p):
    codes = list(enumerate_all_codes(FieldSpec(q), n, k))
    H = verify._ensemble_stacks(q, n, k, DEFAULT_CAPS)[1]
    ref = _kron_census(codes, p)
    assert np.array_equal(verify._containment_counts(q, H, p), ref)
    # three codes a chunk, so the census also sums over chunks and a short last one
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 3 * (q ** n) ** max(1, p - 1))
    assert np.array_equal(verify._containment_counts(q, H, p), ref)


def test_balance_census_memory_stays_within_a_chunk():
    check_p_balanced(7, 3, 2, 1)  # caches the [7, 3]_2 stacks and the tuple ranks
    tracemalloc.start()
    try:
        res = check_p_balanced(7, 3, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 11811 codes: one syndrome table of them all would take 12 MiB
    assert res.passed and res.parameters["codes"] == 11811
    assert peak < 2 << 20


def test_balance_census_respects_cap():
    with pytest.raises(CapExceeded):
        check_p_balanced(3, 1, 2, 9)


class _WorkStarted(Exception):
    pass


def _refuse_work(*args, **kwargs):
    raise _WorkStarted


def test_certain_enumeration_refusal_forms_no_code_count(monkeypatch):
    # the [4000, 2000]_2 count is at least 2^4000000; forming it exactly took
    # minutes before the refusal
    monkeypatch.setattr("synhash.codes.gaussian_binomial", _refuse_work)
    with pytest.raises(CapExceeded, match=r"^code enumeration: estimated cost at least "
                                          r"2\^4000000 exceeds cap 1000000$"):
        check_p_balanced(4000, 2000, 2, 2)


def test_balance_refuses_the_tuple_rank_cap_before_the_census(monkeypatch):
    # the one [3, 3]_2 code: census cost 1 * 8^2 = 64 fits, tuple ranks cost
    # 3 * 8^2 = 192 does not
    monkeypatch.setattr(verify, "_containment_counts", _refuse_work)
    with pytest.raises(CapExceeded, match="tuple rank"):
        check_p_balanced(3, 3, 2, 2, caps=Caps(tuple_products=100))


@pytest.mark.parametrize("run, caps, refusal", [
    (lambda caps: check_p_balanced(3, 1, 2, 2, caps=caps), Caps(code_enumeration=6),
     "code enumeration"),
    # 2^11 [11, 2]_2 codes fit the code cap; their census does not fit 1000
    (lambda caps: check_p_balanced(11, 2, 2, 1, caps=caps), Caps(tuple_products=1000),
     "balance census"),
    # the one [3, 0]_2 code: census 8^2 fits, tuple ranks 3 * 8^2 do not
    (lambda caps: check_p_balanced(3, 0, 2, 2, caps=caps), Caps(tuple_products=100),
     "tuple rank stratification"),
    (lambda caps: check_balanced_identity(11, 2, 2, 1, caps=caps), Caps(tuple_products=1000),
     "tuple rank stratification"),
    # the one [4, 4]_2 code has 16 codewords
    (lambda caps: check_balanced_inequality(4, 4, 2, 1, caps=caps), Caps(code_enumeration=15),
     "codeword enumeration"),
    (lambda caps: exact_expected_smoothness(4, 2, 2, 2, DensePmf.uniform(F2, 4), caps=caps),
     Caps(code_enumeration=10), "code enumeration"),
    (lambda caps: exact_expected_smoothness(4, 2, 2, 2, DensePmf.uniform(F2, 4), caps=caps),
     Caps(dense_pmf_entries=8), "dense pmf"),
    (lambda caps: exact_expected_smoothness(4, 4, 2, 2, DensePmf.uniform(F2, 4), caps=caps),
     Caps(code_enumeration=15), "codeword enumeration"),
], ids=["balanced-codes", "balanced-census", "balanced-ranks", "identity-ranks",
        "inequality-codewords", "smoothing-codes", "smoothing-dense", "smoothing-codewords"])
def test_exhaustive_checks_admit_every_cost_before_building_the_ensemble(
        monkeypatch, run, caps, refusal):
    monkeypatch.setattr(verify, "_ensemble_stacks", _refuse_work)
    with pytest.raises(CapExceeded, match=f"^{refusal}: "):
        run(caps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_balanced_identity_random_functions(seed):
    res = check_balanced_identity(4, 2, 2, 2, f_seed=seed)
    assert res.passed
    assert res.lhs > 0


def test_balanced_identity_nontrivial_q3():
    res = check_balanced_identity(3, 1, 3, 2)
    assert res.passed


@pytest.mark.parametrize("n,k,q", [(3, 1, 2), (3, 2, 2), (2, 1, 3)])
def test_balanced_identity_holds_for_triples(n, k, q):
    # p = 3 exercises rank-class weights whose products are only integral
    # as a whole, not term by term
    assert check_balanced_identity(n, k, q, 3).passed


def test_balanced_inequality_and_equality_at_full_dimension():
    res = check_balanced_inequality(4, 2, 2, 2)
    assert res.passed and res.slack > 0
    res = check_balanced_inequality(3, 3, 2, 2)
    assert res.passed
    assert abs(res.rhs - res.lhs) <= 1e-9 * max(1.0, res.rhs)


def test_tuple_probability_examples():
    res = check_tuple_probability(4, 2, 2, (1, 2))
    assert res.passed
    assert res.parameters["ensemble_probability"] == "1/35"
    assert res.parameters["bound"] == "1/16"
    assert res.parameters["iid_equality"] is True

    # dependent pair: rank 1, bound 1/4, single-code frequency 1/7
    res = check_tuple_probability(3, 1, 2, (3, 3))
    assert res.passed
    assert res.parameters["rank"] == 1
    assert res.parameters["ensemble_probability"] == "1/7"
    assert res.parameters["iid_probability"] == "1/4"

    # the zero tuple is free: probability 1 on both ensembles
    res = check_tuple_probability(3, 1, 2, (0, 0))
    assert res.passed and res.lhs == 1.0 and res.rhs == 1.0

    # 40 vectors: the iid count still runs over every 2 x 3 parity check
    res = check_tuple_probability(3, 1, 2, tuple(range(8)) * 5)
    assert res.passed and res.parameters["rank"] == 3
    assert res.parameters["iid_probability"] == "1/64"


def test_tuple_probability_rejects_indices_outside_the_space():
    # -1 used to wrap round to the last vector, and 8 to raise IndexError
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            check_tuple_probability(3, 1, 2, (bad, 3))


def test_tuple_probability_memory_does_not_scale_with_codes_times_space():
    # [10, 9]_2 has 1023 codes: a codes x q^n indicator would take 8 MiB, and
    # every code's codeword indices 4 MiB; a parity-check test needs neither
    check_tuple_probability(10, 9, 2, (1, 2))  # enumerates and caches the codes
    tracemalloc.start()
    try:
        res = check_tuple_probability(10, 9, 2, (5, 6, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # rank 2: 255 of the 1023 hyperplanes hold the pair 5, 6 and so 3 = 5 + 6
    assert res.passed and res.parameters["ensemble_probability"] == "85/341"
    assert peak < 1 << 20


def _kron_iid_probability(n, k, q, tuple_):
    """Share of the q^{mn} iid m x n parity checks A with A U = 0, counted as
    the zeros of kron(I_m, B) over every A at once, B a row basis of U^T."""
    field, m = FieldSpec(q), n - k
    U = _digits(q, n)[list(tuple_)]
    basis = rref(FqMatrix(field, U))[0].array
    images = image_indices(FqMatrix(field, np.kron(np.eye(m, dtype=np.int64), basis)))
    return Fraction(int(np.count_nonzero(images == 0)), q ** (m * n)), _rank_array(U, q)


@pytest.mark.parametrize("n, k, q, tuples", [
    (4, 2, 2, list(itertools.product(range(16), repeat=2))),
    (3, 1, 3, list(itertools.product(range(27), repeat=2))),
    # p > n, and k = 0, where A is a full n x n matrix
    (3, 1, 2, [(1, 2, 4, 7), (3, 5, 6, 0)]),
    (2, 0, 3, [(1, 2, 4)]),
])
def test_iid_count_matches_the_kron_enumeration(n, k, q, tuples):
    for tuple_ in tuples:
        res = check_tuple_probability(n, k, q, tuple_)
        iid, d = _kron_iid_probability(n, k, q, tuple_)
        assert res.parameters["iid_probability"] == str(iid)
        assert res.parameters["rank"] == d and res.passed


@pytest.mark.parametrize("q, n, k", [(2, 4, 2), (3, 2, 1)])
def test_tuple_rank_from_the_zero_count_matches_the_rank_table(q, n, k):
    ranks, size = _tuple_ranks_cached(q, n, 2), q ** n
    for i, j in itertools.product(range(size), repeat=2):
        assert check_tuple_probability(n, k, q, (i, j)).parameters["rank"] == ranks[i * size + j]


def test_tuple_probability_all_pairs_small():
    for i in range(8):
        for j in range(8):
            assert check_tuple_probability(3, 1, 2, (i, j)).passed


@pytest.mark.parametrize("n, k, q, tuples", [
    (4, 2, 2, list(itertools.product(range(16), repeat=2))),
    # pairs and a triple in one stack, padded to one width
    (3, 1, 3, [(1, 2), (3, 26), (0, 0), (4, 8, 12), (5, 13)]),
    (3, 1, 2, [(1, 2), (3, 3), (0, 5)]),
], ids=["all-pairs-4-2-2", "mixed-3-1-3", "suite-3-1-2"])
def test_stacked_tuple_probabilities_equal_the_one_tuple_calls(n, k, q, tuples):
    want = [check_tuple_probability(n, k, q, tuple_) for tuple_ in tuples]
    assert _tuple_probabilities(n, k, q, tuples, DEFAULT_CAPS) == want


def _first_refusal(calls) -> str:
    """The message of the first CapExceeded that a sequence of calls raises."""
    for call in calls:
        try:
            call()
        except CapExceeded as exc:
            return str(exc)
    raise AssertionError("no call was refused")


@pytest.mark.parametrize("caps", [
    Caps(code_enumeration=34),  # the 35 codes, after the first tuple's indices
], ids=["codes-first"])
def test_stacked_tuple_probabilities_refuse_as_the_one_tuple_calls(monkeypatch, caps):
    tuples = [(1, 2), (1, 2, 3), (4,)]
    want = _first_refusal(lambda t=t: check_tuple_probability(4, 2, 2, t, caps=caps)
                          for t in tuples)
    monkeypatch.setattr(verify, "_ensemble_stacks", _refuse_work)
    monkeypatch.setattr(verify, "_rref_stack", _refuse_work)
    with pytest.raises(CapExceeded) as err:
        _tuple_probabilities(4, 2, 2, tuples, caps)
    assert str(err.value) == want


def test_norm_bound_lemma_brute_force_lhs():
    # independent recomputation of the rank-d product sum, on the f the check draws
    q, n, p, d = 2, 2, 3, 2
    f = np.random.default_rng((DEFAULT_SEED, 17, n, q, p, d)).random(q ** n)
    res = check_norm_bound_lemma(n, q, p, d)
    assert res.passed
    size = q ** n
    digits = _digits(q, n)
    brute = 0.0
    for t in range(size ** p):
        vs = [(t // size ** (p - 1 - j)) % size for j in range(p)]
        if _rank_array(digits[vs].T, q) == d:
            brute += float(np.prod(f[vs]))
    assert res.lhs == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("q,n,p,d", [(2, 2, 2, 1), (2, 2, 3, 1), (2, 2, 3, 3),
                                     (3, 1, 2, 1), (2, 3, 2, 2)])
def test_norm_bound_lemma_holds(q, n, p, d):
    for seed in (0, 1):
        assert check_norm_bound_lemma(n, q, p, d, f_seed=seed).passed


def test_norm_bound_lemma_validates_d():
    with pytest.raises(ValueError):
        check_norm_bound_lemma(2, 2, 3, 0)
    with pytest.raises(ValueError):
        check_norm_bound_lemma(2, 2, 3, 4)


@pytest.mark.parametrize("q,n,p,d", [(2, 2, 3, 2), (2, 2, 3, 1), (3, 1, 3, 2),
                                     (2, 3, 4, 2)])
def test_rearrangement_lemma_holds(q, n, p, d):
    for seed in (0, 1, 2):
        assert check_rearrangement_lemma(n, q, p, d, seed=seed).passed


def test_rearrangement_equality_for_unit_coefficients():
    # a combination row (1, 0) or (0, 1) repeats v_1 or v_2, so the average is
    # exactly ||f||_1^{d-1} ||f||_{p-d+1}^{p-d+1}
    units = 0
    for seed in range(20):
        res = check_rearrangement_lemma(2, 2, 3, 2, seed=seed)
        assert res.passed
        if res.parameters["coefficients"] in ([[1, 0]], [[0, 1]]):
            units += 1
            assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
    assert units > 0


def test_projection_identity_sampled_codes():
    for q, n, k in [(2, 6, 3), (3, 4, 2)]:
        field = FieldSpec(q)
        spec = CodeEnsembleSpec(field, n, k, 9)
        for t in range(5):
            code = sample_uniform_code(spec, t)
            P = _random_pmf(field, n, (17, q, n, t))
            res = check_projection_identity(code, P, (2.0, 3.0, math.inf))
            assert res.passed, res.parameters


def _per_code_projection_identity(code, P, p_list):
    """check_projection_identity one code at a time: pushforward, code_pmf,
    convolve and lp_norm, order by order."""
    q, n, m = code.field.q, code.n, code.n - code.k
    syn = pushforward(P, code.H)
    mixed = convolve(code_pmf(code), P)
    per_order = []
    for p in p_list:
        a = lp_norm(float(q) ** m * syn.probs, p)
        b = lp_norm(float(q) ** n * mixed.probs, p)
        per_order.append((abs(a - b) / max(1.0, abs(a), abs(b)), a, b, p))
    failing = [row for row in per_order if not row[0] <= 1e-10]
    _, a, b, at_p = max(failing, key=lambda row: row[0]) if failing else per_order[0]
    return a, b, str(at_p)


# n = k (one syndrome), k = 0 (one codeword) and q > 2
@pytest.mark.parametrize("q, n, k", [(2, 6, 3), (2, 5, 5), (2, 4, 0), (3, 4, 2), (3, 3, 1)])
def test_stacked_projection_identity_equals_a_per_code_loop(q, n, k):
    field = FieldSpec(q)
    p_list = (1.5, 2.0, 3.0, math.inf)
    G, H = _sample_codes(CodeEnsembleSpec(field, n, k, 6), 0, 9)
    probs = _random_probs((6, q), 0, 9, q ** n)
    stacked = _projection_identities(q, probs, G, _syndrome_rows(q, probs, H, DEFAULT_CAPS),
                                     p_list, DEFAULT_CAPS)
    assert len(stacked) == 9
    for t, res in enumerate(stacked):
        code = LinearCode(field, n, k, FqMatrix(field, G[t]), FqMatrix(field, H[t]))
        source = DensePmf(field, n, probs[t])
        a, b, at_p = _per_code_projection_identity(code, source, p_list)
        assert (res.lhs, res.rhs, res.parameters["worst_order"]) == (a, b, at_p)
        assert res.passed and res.kind == "identity"
        one = check_projection_identity(code, source, p_list)
        assert one.to_json_dict() == res.to_json_dict()
    # one shared source for every code
    P = DensePmf(field, n, probs[0])
    syndromes = _syndrome_rows(q, P.probs, H, DEFAULT_CAPS)
    shared = _projection_identities(q, P.probs, G, syndromes, p_list, DEFAULT_CAPS)
    for t, res in enumerate(shared):
        code = LinearCode(field, n, k, FqMatrix(field, G[t]), FqMatrix(field, H[t]))
        assert (res.lhs, res.rhs) == _per_code_projection_identity(code, P, p_list)[:2]


def test_projection_identity_keeps_the_errors_of_its_routes():
    code = sample_uniform_code(CodeEnsembleSpec(F2, 4, 2, 1), 0)
    with pytest.raises(ValueError, match="different fields"):
        check_projection_identity(code, DensePmf.uniform(F3, 4))
    with pytest.raises(ValueError, match="length-4 inputs, pmf is on length 3"):
        check_projection_identity(code, DensePmf.uniform(F2, 3))
    deficient = LinearCode(F2, 4, 2, code.G, FqMatrix(F2, [[1, 1, 0, 0], [1, 1, 0, 0]]))
    with pytest.raises(ValueError, match="rank deficient"):
        check_projection_identity(deficient, DensePmf.uniform(F2, 3))
    with pytest.raises(CapExceeded, match="dense pmf: estimated cost 16"):
        check_projection_identity(code, DensePmf.uniform(F2, 4), caps=Caps(dense_pmf_entries=4))
    with pytest.raises(CapExceeded, match="codeword enumeration"):
        check_projection_identity(code, DensePmf.uniform(F2, 4), caps=Caps(code_enumeration=3))
    with pytest.raises(ValueError, match="order must be positive"):
        check_projection_identity(code, DensePmf.uniform(F2, 4), (2.0, 0.0))


def test_rank_stratified_sum_triple_loop_oracle():
    q, n, p = 2, 2, 2
    P = _random_pmf(F2, n, (99,))
    size = q ** n
    digits = _digits(q, n)
    by_rank = {0: 0.0, 1: 0.0, 2: 0.0}
    for v1 in range(size):
        for v2 in range(size):
            d = _rank_array(digits[[v1, v2]].T, q)
            for x in range(size):
                a = (digits[x] - digits[v1]) % q
                b = (digits[x] - digits[v2]) % q
                ia = int(a[0] + 2 * a[1])
                ib = int(b[0] + 2 * b[1])
                by_rank[d] += float(P.probs[ia] * P.probs[ib])
    for d in (0, 1, 2):
        got = rank_stratified_sum(P, p, d)
        assert got == pytest.approx(by_rank[d] / size, rel=1e-12)


def test_rank_strata_sum_to_one_and_obey_budgets():
    P = _random_pmf(F2, 3, (7,))
    total = sum(rank_stratified_sum(P, 2, d) for d in range(3))
    assert total == pytest.approx(1.0, rel=1e-12)
    # d = 0 stratum is exactly the collision power sum
    g0 = rank_stratified_sum(P, 2, 0)
    expected = 2.0 ** (-(renyi_entropy(P, 2) + 3))
    assert g0 == pytest.approx(expected, rel=1e-10)
    for d in range(3):
        assert check_rank_stratified(P, 2, d).passed


def test_exact_expected_smoothness_grid():
    for i in range(3):
        P = _random_pmf(F2, 4, (5, i))
        for p in (2, 3):
            res = exact_expected_smoothness(4, 2, 2, p, P)
            assert res.passed, (i, p, res.lhs, res.rhs)


def test_exact_smoothing_checks_the_space_before_admitting_codes():
    # a pmf on F_2^3 against [4, 2]_2 codes is a usage error, not a refusal
    with pytest.raises(ValueError, match="same space"):
        exact_expected_smoothness(4, 2, 2, 2, DensePmf.uniform(F2, 3),
                                  caps=Caps(code_enumeration=1))


def test_exact_expected_smoothness_q3():
    P = _random_pmf(F3, 2, (21,))
    assert exact_expected_smoothness(2, 1, 3, 2, P).passed


@pytest.mark.parametrize("n, k, q, count", [(4, 2, 2, 20), (3, 1, 3, 4)])
def test_stacked_smoothness_equals_the_one_source_calls(n, k, q, count):
    field = FieldSpec(q)
    sources = [DensePmf(field, n, probs)
               for probs in _random_probs((43, q), 0, count, q ** n)]
    want = [[exact_expected_smoothness(n, k, q, p, P) for p in (2, 3)] for P in sources]
    assert _exact_smoothnesses(n, k, q, (2, 3), sources, DEFAULT_CAPS) == want


@pytest.mark.parametrize("caps", [Caps(code_enumeration=10), Caps(dense_pmf_entries=8)],
                         ids=["codes", "dense"])
def test_stacked_smoothness_refuses_as_the_one_source_calls(monkeypatch, caps):
    sources = [DensePmf.uniform(F2, 4), DensePmf.point_mass(F2, 4)]
    want = _first_refusal(lambda P=P, p=p: exact_expected_smoothness(4, 2, 2, p, P, caps=caps)
                          for P in sources for p in (2, 3))
    monkeypatch.setattr(verify, "_ensemble_stacks", _refuse_work)
    with pytest.raises(CapExceeded) as err:
        _exact_smoothnesses(4, 2, 2, (2, 3), sources, caps)
    assert str(err.value) == want


def test_mc_expected_smoothness_deterministic_and_valid():
    spec = CodeEnsembleSpec(F2, 10, 8, 5)
    src = ProductBernoulli(0.2, 10)
    a = mc_expected_smoothness(spec, src, 2, 200)
    b = mc_expected_smoothness(spec, src, 2, 200)
    assert a.parameters["mean"] == b.parameters["mean"]
    assert a.passed
    assert a.trials == 200
    coll = mc_expected_smoothness(spec, src, 2, 200, collision=True)
    assert coll.passed
    assert coll.rhs < a.rhs  # collision budget is sharper at the same length
    with pytest.raises(ValueError):
        mc_expected_smoothness(spec, src, 3, 10, collision=True)


def test_mc_smoothness_rejects_mismatched_source():
    spec = CodeEnsembleSpec(F2, 10, 8, 5)
    with pytest.raises(ValueError):
        mc_expected_smoothness(spec, ProductBernoulli(0.2, 9), 2, 10)


def test_mc_bucket_linf_derives_output_length():
    flat = DensePmf.flat(F2, 14, 1 << 10)
    res = mc_bucket_linf(flat, 0.25, 50)
    assert res.parameters["m"] == 6
    assert res.parameters["min_entropy"] == pytest.approx(10.0)
    assert res.passed


def test_mc_bucket_linf_rejects_empty_output():
    flat = DensePmf.flat(F2, 4, 4)  # H_inf = 2, eps = 0.5 drives m to 0
    with pytest.raises(ValueError):
        mc_bucket_linf(flat, 0.5, 10)


@pytest.mark.parametrize("eps", [math.inf, math.nan, -0.5])
def test_mc_bucket_linf_refuses_an_eps_before_deriving_the_output_length(eps):
    # an infinite eps used to end in an OverflowError from math.floor
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        mc_bucket_linf(DensePmf.flat(F2, 8, 1 << 6), eps, 10)


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_runs_need_a_trial(trials):
    spec = CodeEnsembleSpec(F2, 6, 4, 5)
    with pytest.raises(ValueError, match="trial"):
        mc_expected_smoothness(spec, ProductBernoulli(0.2, 6), 2, trials)
    with pytest.raises(ValueError, match="trial"):
        mc_bucket_linf(DensePmf.flat(F2, 8, 1 << 6), 0.25, trials)
    with pytest.raises(ValueError, match="trial"):
        negative_control_overdraw(trials=trials)


def test_one_trial_has_no_error_bar():
    spec = CodeEnsembleSpec(F2, 6, 4, 5)
    with pytest.raises(ValueError, match="two Monte Carlo trials"):
        mc_expected_smoothness(spec, ProductBernoulli(0.2, 6), 2, 1)
    with pytest.raises(ValueError, match="two Monte Carlo trials"):
        mc_bucket_linf(DensePmf.flat(F2, 8, 1 << 6), 0.25, 1)
    assert negative_control_overdraw(trials=1).trials == 1  # reads only the mean


@pytest.mark.parametrize("count", [0, -2])
def test_random_sample_checks_need_a_sample(count):
    with pytest.raises(ValueError, match="count"):
        check_proximity_conversions(2, 3, count)
    with pytest.raises(ValueError, match="count"):
        check_clarkson(2, 3, count)


def _per_code_stats(P, spec, trials, statistic, reference_code):
    """The Monte Carlo statistic one code at a time, through pushforward, on
    codes drawn one trial at a time by the reference sampler."""
    maps = [FqMatrix(spec.field, reference_code(spec, t)[1]) for t in range(trials)]
    return np.array([statistic(pushforward(P, H).probs) for H in maps])


def _fingerprint(probs):
    """A float that changes with any bit of the syndrome pmf."""
    return float(int.from_bytes(hashlib.sha1(probs.tobytes()).digest()[:6], "little"))


def _fingerprints(rows):
    """_fingerprint of each row of a stack of syndrome pmfs."""
    return [_fingerprint(row) for row in rows]


def _mean_stderr(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


# (q, n, support digits of the flat source): q^n = 1024, 729 and 625 points give
# batches of several codes; 2^17 points is over the batch budget, one code a batch
@pytest.mark.parametrize("q, n, support", [(2, 10, 8), (3, 6, 4), (5, 4, 3), (2, 17, 12)])
def test_batched_monte_carlo_matches_a_per_code_pushforward_loop(q, n, support, reference_code):
    field = FieldSpec(q)
    batch = max(1, distributions._BATCH_ENTRIES // q ** n)
    trials = batch + 5 if batch > 1 else 3  # a full batch and a short one
    spec = CodeEnsembleSpec(field, n, n // 2, 11)
    P = _random_pmf(field, n, (q, n))
    vals = verify._mc_trials(P, spec, trials, _fingerprints, DEFAULT_CAPS)
    assert np.array_equal(vals, _per_code_stats(P, spec, trials, _fingerprint, reference_code))

    m = n - spec.k
    for collision, power in ((False, 1), (True, 2)):
        res = mc_expected_smoothness(spec, P, 2, trials, collision=collision)
        ref = _per_code_stats(P, spec, trials,
                              lambda probs: lp_norm(q ** m * probs, 2) ** power - 1.0,
                              reference_code)
        assert (res.parameters["mean"], res.parameters["stderr"]) == _mean_stderr(ref)

    flat = DensePmf.flat(field, n, q ** support)
    res = mc_bucket_linf(flat, 0.25, trials, seed=11)
    m = res.parameters["m"]
    ref = _per_code_stats(flat, CodeEnsembleSpec(field, n, n - m, 11), trials,
                          lambda probs: q ** m * float(probs.max()), reference_code)
    assert (res.parameters["mean"], res.parameters["stderr"]) == _mean_stderr(ref)


def test_monte_carlo_chunks_are_contiguous_spans_of_the_code_stream(monkeypatch,
                                                                     reference_code):
    # 2^10 entries: pushforward chunks of 8 codes of 4 x 8 generator entries,
    # sampled a span of 4 chunks (one batch of generator entries) at a time, so
    # 70 trials take two full spans and a short one that ends in a short chunk
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 1 << 10)
    monkeypatch.setattr(verify, "_SPAN_BATCHES", 1)
    spans, chunks = [], []
    sample, push = verify._sample_codes, verify._syndrome_rows

    def sampled(spec, start, stop):
        spans.append((start, stop))
        return sample(spec, start, stop)

    def pushed(q, probs, maps, caps):
        chunks.append(len(maps))
        return push(q, probs, maps, caps)

    monkeypatch.setattr(verify, "_sample_codes", sampled)
    monkeypatch.setattr(verify, "_syndrome_rows", pushed)
    spec = CodeEnsembleSpec(F2, 8, 4, 3)
    P = _random_pmf(F2, 8, (8,))
    vals = verify._mc_trials(P, spec, 70, _fingerprints, DEFAULT_CAPS)
    assert spans == [(0, 32), (32, 64), (64, 70)]
    assert chunks == [8] * 8 + [6]
    assert np.array_equal(vals, _per_code_stats(P, spec, 70, _fingerprint, reference_code))


def test_shared_smoothness_sample_follows_its_key(reference_code):
    # the main and collision checks share one sample; a new seed must not
    # read the previous one, and the old seed after it must not read the new
    src = ProductBernoulli(0.2, 8)
    P = src.to_dense()
    for seed, collision in ((21, False), (22, False), (21, True)):
        spec = CodeEnsembleSpec(F2, 8, 6, seed)
        res = mc_expected_smoothness(spec, src, 2, 40, collision=collision)
        power = 2 if collision else 1
        ref = _per_code_stats(P, spec, 40, lambda probs: lp_norm(4.0 * probs, 2) ** power - 1.0,
                              reference_code)
        assert (res.parameters["mean"], res.parameters["stderr"]) == _mean_stderr(ref)


@pytest.mark.parametrize("q, n, k, p", [(2, 4, 2, 3), (3, 3, 1, 2)])
def test_exact_smoothing_chunks_equal_a_per_code_loop(monkeypatch, q, n, k, p):
    # 3 code pmfs a chunk: 35 and 13 codes end in a short chunk
    field = FieldSpec(q)
    P = _random_pmf(field, n, (41, q, n))
    total = 0.0
    codes = list(enumerate_all_codes(field, n, k))
    for code in codes:
        total += lp_norm(float(q) ** n * convolve(code_pmf(code), P).probs, p) ** p
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 16 * 3 * q ** n)
    sizes = []
    convolve_stack = verify._convolve_transformed

    def recorded(probs, *args):
        sizes.append(len(probs))
        return convolve_stack(probs, *args)

    monkeypatch.setattr(verify, "_convolve_transformed", recorded)
    res = exact_expected_smoothness(n, k, q, p, P)
    assert sizes == [3] * (len(codes) // 3) + [len(codes) % 3]
    assert res.lhs == total / len(codes)


def test_batched_overdraw_control_matches_a_per_code_loop(reference_code):
    # q^n = 256 gives 256 codes a batch, so 300 trials end in a short batch
    spec = CodeEnsembleSpec(F2, 8, 1, 5)
    P = ProductBernoulli(0.2, 8).to_dense()
    ref = _per_code_stats(P, spec, 300, lambda probs: lp_norm(2.0 ** 7 * probs, 2) - 1.0,
                          reference_code)
    assert negative_control_overdraw(trials=300, seed=5).lhs == float(ref.mean())


def test_proximity_conversions_pass():
    res = check_proximity_conversions(2, 4, 60, (1.5, 2, 3), seed=1)
    assert res.passed
    res3 = check_proximity_conversions(3, 2, 30, (2, 4), seed=2)
    assert res3.passed


@pytest.mark.parametrize("check", [check_proximity_conversions, check_clarkson])
def test_conversion_checks_refuse_the_dense_cap_before_drawing(monkeypatch, check):
    # clarkson used to take no caps, so 2^10 values a function ran past a cap of 16
    monkeypatch.setattr(np.random, "default_rng", _refuse_work)
    with pytest.raises(CapExceeded, match="^dense pmf: estimated cost 1024 exceeds cap 16$"):
        check(2, 10, 3, caps=Caps(dense_pmf_entries=16))


def test_clarkson_pass_and_reject():
    assert check_clarkson(2, 4, 60, (1.5, 2, 3), seed=1).passed
    with pytest.raises(ValueError):
        check_clarkson(2, 3, 5, (1.0,))


@pytest.mark.parametrize("orders, bad", [
    ((2, math.inf), "inf"), ((math.inf,), "inf"), ((1.5, 1.0), "1.0"), ((0.5, 2), "0.5"),
    ((2, math.nan), "nan"),
])
def test_conversion_checks_refuse_bad_orders_before_drawing(monkeypatch, orders, bad):
    # an infinite order used to be skipped by the clarkson scan (its nan slack
    # is never the least), so (2, inf) passed without checking inf
    monkeypatch.setattr(np.random, "default_rng", _refuse_work)
    message = f"orders must be finite and exceed 1, got {bad}$"
    with pytest.raises(ValueError, match=message):
        check_clarkson(2, 4, 10, orders)
    with pytest.raises(ValueError, match=message):
        check_proximity_conversions(2, 4, 10, orders)


@pytest.mark.parametrize("check", [check_proximity_conversions, check_clarkson])
def test_conversion_checks_do_not_depend_on_the_table_size(monkeypatch, check):
    # 2^6 / 2^4 = 4 pmfs (2 pairs of 2 functions) a table: 11 samples take
    # several tables and end in a short one
    whole = check(2, 4, 11, (1.5, 2, 3), seed=3)
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 1 << 6)
    assert check(2, 4, 11, (1.5, 2, 3), seed=3) == whole


def test_negative_controls_fail_as_designed():
    unbal = negative_control_unbalanced()
    assert not unbal.passed
    assert unbal.parameters["expected_failure"] is True
    over = negative_control_overdraw(trials=60)
    assert not over.passed
    assert over.lhs > over.rhs  # mean excess clearly above the claimed bound


def test_exact_smoothing_matches_rank_stratified_average():
    # cross-check the exhaustive code average of ||q^n (P_C * Z)||_p^p against
    # the rank-stratified route: q^{(n-k)p} sum_d T_d(k)/T_d(n) g(d)
    n, k, q, p = 3, 1, 2, 2
    P = _random_pmf(F2, n, (55,))
    codes = list(enumerate_all_codes(F2, n, k))
    total = 0.0
    for code in codes:
        mixed = convolve(code_pmf(code), P)
        total += lp_norm(float(q) ** n * mixed.probs, p) ** p
    direct = total / len(codes)
    acc = 0.0
    for d in range(min(n, p) + 1):
        t_n = rank_tuple_count(n, p, d, q)
        if t_n == 0:
            continue
        ratio = Fraction(rank_tuple_count(k, p, d, q), t_n)
        if ratio:
            acc += float(ratio) * rank_stratified_sum(P, p, d)
    acc *= float(q) ** ((n - k) * p)
    assert direct == pytest.approx(acc, rel=1e-10)
