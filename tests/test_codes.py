import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synhash import codes as codes_module
from synhash.caps import Caps, CapExceeded
from synhash.codes import (
    DEFAULT_SEED,
    CodeEnsembleSpec,
    LinearCode,
    codeword_indices,
    enumerate_all_codes,
    gaussian_binomial,
    rank_tuple_count,
    reed_muller_code,
    reed_muller_generator,
    rm_parity_check,
    sample_uniform_code,
    _ensemble_stacks,
    _sample_codes,
)
from synhash.field import FieldSpec, FqMatrix, kernel_basis, rank, rref, _rref_stack

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(2, 3, 2) == 0


def test_rank_tuple_counts_partition_the_tuple_space():
    for (n, p, q) in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 3, 2)]:
        total = sum(rank_tuple_count(n, p, d, q) for d in range(min(n, p) + 1))
        assert total == q ** (n * p)
    assert rank_tuple_count(2, 2, 2, 2) == 6
    assert rank_tuple_count(2, 2, 0, 2) == 1
    assert rank_tuple_count(2, 2, 3, 2) == 0


def _row_space_key(code):
    """A code's row-space identity: the reduced echelon form of G."""
    return rref(code.G)[0].array.tobytes()


def test_enumerate_all_codes_is_complete_and_distinct(check_code):
    codes = list(enumerate_all_codes(F2, 4, 2))
    assert len(codes) == 35
    keys = {_row_space_key(c) for c in codes}
    assert len(keys) == 35
    for c in codes:
        check_code(c.G.array, c.H.array, 2)

    codes3 = list(enumerate_all_codes(F3, 3, 2))
    assert len(codes3) == gaussian_binomial(3, 2, 3) == 13
    assert len({_row_space_key(c) for c in codes3}) == 13
    # H comes from the echelon generator itself, as kernel_basis would give it
    for c in codes + codes3:
        assert c.H == kernel_basis(c.G)


def _reference_echelon_codes(q, n, k, reference_kernel):
    """(G, H) of every [n, k]_q code, one code at a time: pivot patterns in
    lexicographic order, free entries set from the base-q digits of a counter."""
    for pivots in itertools.combinations(range(n), k):
        pivots = list(pivots)
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        for t in range(q ** len(free)):
            g = np.zeros((k, n), dtype=np.int64)
            for i, c in enumerate(pivots):
                g[i, c] = 1
            rem = t
            for (i, j) in free:
                g[i, j] = rem % q
                rem //= q
            yield g, reference_kernel(g, pivots, n, q)


@pytest.mark.parametrize("n, k, q", [(4, 2, 2), (5, 2, 2), (3, 1, 3), (4, 0, 2), (4, 4, 2),
                                     (2, 1, 5)])
def test_enumeration_stream_matches_the_per_code_loop(reference_kernel, n, k, q):
    codes = list(enumerate_all_codes(FieldSpec(q), n, k))
    ref = list(_reference_echelon_codes(q, n, k, reference_kernel))
    assert len(codes) == len(ref) == gaussian_binomial(n, k, q)
    for code, (g, h) in zip(codes, ref):
        assert np.array_equal(code.G.array, g) and np.array_equal(code.H.array, h)


def test_enumeration_stream_does_not_depend_on_the_chunk(monkeypatch):
    whole = list(enumerate_all_codes(F3, 4, 2))
    monkeypatch.setattr(codes_module, "_ENUM_ENTRIES", 1)
    for a, b in zip(whole, enumerate_all_codes(F3, 4, 2), strict=True):
        assert a.G == b.G and a.H == b.H


@pytest.mark.parametrize("n, k, q", [(4, 2, 2), (3, 1, 3), (2, 1, 5), (4, 0, 2), (4, 4, 2)])
def test_ensemble_stacks_equal_the_stacked_code_stream(n, k, q):
    codes = list(enumerate_all_codes(FieldSpec(q), n, k))
    G, H = _ensemble_stacks(q, n, k, Caps())
    assert G.dtype == H.dtype == np.min_scalar_type(q - 1)
    assert G.shape == (len(codes), k, n) and H.shape == (len(codes), n - k, n)
    assert not G.flags.writeable and not H.flags.writeable
    for code, g, h in zip(codes, G, H):
        assert np.array_equal(code.G.array, g) and np.array_equal(code.H.array, h)


def test_ensemble_stacks_are_admitted_on_every_call():
    _ensemble_stacks(2, 4, 2, Caps(code_enumeration=35))
    # the 35 [4, 2]_2 codes are cached now, and a lower cap still refuses them
    with pytest.raises(CapExceeded, match="^code enumeration: estimated cost 35 exceeds cap 34$"):
        _ensemble_stacks(2, 4, 2, Caps(code_enumeration=34))
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        _ensemble_stacks(2, 3, 4, Caps())


@pytest.mark.parametrize("n, k", [(3, 4), (3, 5), (3, -1), (-1, 0)])
def test_enumerate_refuses_dimensions_outside_the_length(n, k):
    # refused on the call itself, before any code is drawn
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        enumerate_all_codes(F2, n, k)


def test_caps_admit_returns_the_cost_or_refuses():
    caps = Caps(code_enumeration=35)
    assert caps.admit("code enumeration", 35, "code_enumeration") == 35
    with pytest.raises(CapExceeded, match="^code enumeration: estimated cost 36 exceeds cap 35$"):
        caps.admit("code enumeration", 36, "code_enumeration")


def test_enumerate_respects_cap():
    tight = Caps(code_enumeration=10)
    with pytest.raises(CapExceeded) as err:
        enumerate_all_codes(F2, 4, 2, tight)
    assert err.value.cap == 10 and err.value.cost == 35


def test_trivial_dimensions():
    empty = list(enumerate_all_codes(F2, 3, 0))
    assert len(empty) == 1
    assert codeword_indices(empty[0]).tolist() == [0]
    full = list(enumerate_all_codes(F2, 3, 3))
    assert len(full) == 1
    assert sorted(codeword_indices(full[0]).tolist()) == list(range(8))


def test_codeword_indices_example():
    G = FqMatrix(F2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    code = LinearCode(F2, 4, 2, G, kernel_basis(G))
    assert codeword_indices(code).tolist() == [0, 5, 10, 15]
    # little-endian: index 5 is the codeword (1, 0, 1, 0)
    assert [[i >> j & 1 for j in range(4)] for i in codeword_indices(code).tolist()] == [
        [0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]


def test_reed_muller_past_64_columns_has_full_rank():
    code = reed_muller_code(1, 7)  # 128 columns
    assert rank(code.G) == 8 and rank(code.H) == 120


@pytest.mark.parametrize("spec, digest", [
    (CodeEnsembleSpec(F2, 12, 10, DEFAULT_SEED), "0e5a08efb6b66a83f20ffed8cc4b0a152c27d11a"),
    (CodeEnsembleSpec(F3, 6, 3, 7), "745ba2992653186c85af3dbd85f63d296c482a40"),
    # past 64 columns; k = n, where most draws are rejected; k = 0, with no draw
    (CodeEnsembleSpec(F2, 70, 66, DEFAULT_SEED), "210162b31c74d3a90fd5604e4f8f859a7578be82"),
    (CodeEnsembleSpec(F2, 5, 5, DEFAULT_SEED), "80fcd40728dc94fdd207870bf68b7996ac2e0985"),
    (CodeEnsembleSpec(F3, 5, 0, DEFAULT_SEED), "25cac3893b60b21fa560a53928141ae60ab55318"),
])
def test_sample_stream_is_pinned(spec, digest):
    # sha1 of G then H for trials 0..49, little-endian int64; every Monte Carlo
    # output and seed-for-seed rerun depends on this stream
    h = hashlib.sha1()
    for t in range(50):
        code = sample_uniform_code(spec, t)
        h.update(code.G.array.astype("<i8").tobytes())
        h.update(code.H.array.astype("<i8").tobytes())
    assert h.hexdigest() == digest


@given(st.sampled_from([2, 3, 5]), st.integers(0, 70), st.data())
def test_sampled_stacks_match_the_per_trial_reference(reference_code, q, n, data):
    k = data.draw(st.integers(0, n))
    start = data.draw(st.integers(0, 300))
    cut = data.draw(st.integers(start, start + 12))
    stop = data.draw(st.integers(cut, cut + 12))
    spec = CodeEnsembleSpec(FieldSpec(q), n, k, data.draw(st.integers(0, 2 ** 32)))
    G, H = _sample_codes(spec, start, stop)
    assert G.shape == (stop - start, k, n) and H.shape == (stop - start, n - k, n)
    for t in range(start, stop):
        ref_G, ref_H = reference_code(spec, t)
        assert np.array_equal(G[t - start], ref_G) and np.array_equal(H[t - start], ref_H)
    # where a chunk ends does not change the codes
    head, tail = _sample_codes(spec, start, cut), _sample_codes(spec, cut, stop)
    assert np.array_equal(np.concatenate([head[0], tail[0]]), G)
    assert np.array_equal(np.concatenate([head[1], tail[1]]), H)


def test_sampled_code_matches_the_reference_across_a_rejected_word(reference_code):
    # numpy's bounded draw rejects word 123 of this trial's first 12 x 11
    # draw, so the trial reads 133 words for its first 132 digits
    q, trial = 9973, 16883
    raw = np.random.PCG64((DEFAULT_SEED, trial)).random_raw(67)
    words = np.stack([raw & 0xFFFFFFFF, raw >> np.uint64(32)], axis=1).reshape(-1)
    leftover = [int(w) * q & 0xFFFFFFFF for w in words[:133]]
    threshold = (1 << 32) % q
    assert [i for i, x in enumerate(leftover) if x < threshold] == [123]
    spec = CodeEnsembleSpec(FieldSpec(q), 12, 11, DEFAULT_SEED)
    G, H = _sample_codes(spec, trial - 2, trial + 2)
    for t in range(trial - 2, trial + 2):
        ref_G, ref_H = reference_code(spec, t)
        assert np.array_equal(G[t - trial + 2], ref_G) and np.array_equal(H[t - trial + 2], ref_H)


@pytest.mark.parametrize("q, n, k, start, stop", [
    (2, 12, 10, 0, 500), (2, 8, 1, 0, 300), (2, 6, 6, 0, 50), (2, 6, 0, 0, 50),
    (3, 8, 4, 0, 300), (5, 5, 2, 0, 300),
    # across the rejected word of the test above
    (9973, 12, 11, 16883 - 2, 16883 + 2),
])
def test_sampled_parity_checks_have_full_rank(q, n, k, start, stop):
    # the Monte Carlo checks push these stacks forward without a rank check
    H = _sample_codes(CodeEnsembleSpec(FieldSpec(q), n, k, DEFAULT_SEED), start, stop)[1]
    assert H.shape == (stop - start, n - k, n)
    assert (_rref_stack(H, q)[2] == n - k).all()


def test_sampling_is_deterministic_per_seed_and_trial():
    spec = CodeEnsembleSpec(F2, 6, 3, 42)
    a = sample_uniform_code(spec, 5)
    b = sample_uniform_code(spec, 5)
    assert a.G == b.G
    c = sample_uniform_code(spec, 6)
    assert a.G != c.G  # overwhelmingly likely, and fixed by the seed
    d = sample_uniform_code(CodeEnsembleSpec(F2, 6, 3, 43), 5)
    assert a.G != d.G


def test_sampled_codes_are_valid(check_code):
    spec = CodeEnsembleSpec(F3, 5, 3, 7)
    for t in range(10):
        code = sample_uniform_code(spec, t)
        check_code(code.G.array, code.H.array, 3)


def test_sampling_is_uniform_over_codes():
    # 35000 draws over the 35 [4,2] binary codes; chi-square with 34 dof.
    # a code is told by its parity check: both routes build H from the reduced
    # generator, so equal codes have equal H
    spec = CodeEnsembleSpec(F2, 4, 2, 0xC0DE)
    index = {c.H.array.tobytes(): i for i, c in enumerate(enumerate_all_codes(F2, 4, 2))}
    counts = np.zeros(35)
    draws = 35000
    for H in _sample_codes(spec, 0, draws)[1]:
        counts[index[H.tobytes()]] += 1
    expected = draws / 35
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 70.0  # p ~ 3e-4 at 34 dof; deterministic given the seed
    sigma = np.sqrt(expected * (1 - 1 / 35))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_reed_muller_generator_shape_and_weights():
    G = reed_muller_generator(1, 3)
    assert G.rows == 4 and G.cols == 8
    code = reed_muller_code(1, 3)
    weights = {}
    for idx in codeword_indices(code):
        w = bin(int(idx)).count("1")
        weights[w] = weights.get(w, 0) + 1
    assert weights == {0: 1, 4: 14, 8: 1}


def test_reed_muller_dimension_and_duality(check_code):
    import math
    for m in range(1, 5):
        for r in range(0, m + 1):
            code = reed_muller_code(r, m)
            assert code.n == 2 ** m
            assert code.k == sum(math.comb(m, i) for i in range(r + 1))
            check_code(code.G.array, code.H.array, 2)
            # dual generator: orthogonal rows
            H = rm_parity_check(r, m)
            assert not ((code.G.array @ H.array.T) % 2).any()


def test_reed_muller_nesting():
    # RM(r, m) codewords lie inside RM(r+1, m)
    for m in (3, 4):
        for r in range(m):
            inner = reed_muller_code(r, m)
            outer_H = rm_parity_check(r + 1, m)
            assert not ((inner.G.array @ outer_H.array.T) % 2).any()


def test_reed_muller_generator_is_built_when_read(check_code):
    for m in range(8):
        for r in range(m + 1):
            code = reed_muller_code(r, m)
            assert code.G == reed_muller_generator(r, m)
            check_code(code.G.array, code.H.array, 2)


def test_generator_shape_is_checked():
    # RM(2, 3) has 7 rows, not k = 4
    with pytest.raises(ValueError, match="generator shape"):
        LinearCode(F2, 8, 4, reed_muller_generator(2, 3), rm_parity_check(1, 3))


def test_gaussian_binomial_near_k_equals_n_is_formed_from_the_short_side():
    # k = n used to multiply n integers of up to n^2 bits: over two minutes at
    # n = 3000, and check_p_balanced(100000, 100000, 2, 2) never reached its refusal
    assert gaussian_binomial(3000, 3000, 2) == 1
    assert gaussian_binomial(3000, 2999, 2) == 2 ** 3000 - 1


@given(st.integers(0, 5), st.integers(0, 5), st.sampled_from([2, 3]))
def test_gaussian_binomial_symmetry(n, k, q):
    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


@given(st.sampled_from([2, 3]), st.integers(1, 4), st.data())
def test_sampled_code_has_requested_shape(q, n, data):
    k = data.draw(st.integers(0, n))
    spec = CodeEnsembleSpec(FieldSpec(q), n, k, 3)
    code = sample_uniform_code(spec, data.draw(st.integers(0, 50)))
    assert code.G.rows == k and code.G.cols == n
    assert code.H.rows == n - k
    assert rank(code.G) == k
