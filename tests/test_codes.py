import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synhash.caps import Caps, CapExceeded
from synhash.codes import (
    CodeEnsembleSpec,
    LinearCode,
    codeword_indices,
    codewords,
    enumerate_all_codes,
    gaussian_binomial,
    rank_tuple_count,
    reed_muller_code,
    reed_muller_generator,
    rm_parity_check,
    sample_uniform_code,
)
from synhash.field import FieldSpec, FqMatrix, rank

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


def test_enumerate_all_codes_is_complete_and_distinct():
    codes = list(enumerate_all_codes(F2, 4, 2))
    assert len(codes) == 35
    keys = {c.canonical_key() for c in codes}
    assert len(keys) == 35
    for c in codes:
        c.verify()

    codes3 = list(enumerate_all_codes(F3, 3, 2))
    assert len(codes3) == gaussian_binomial(3, 2, 3) == 13
    assert len({c.canonical_key() for c in codes3}) == 13


def test_enumerate_respects_cap():
    tight = Caps(code_enumeration=10)
    with pytest.raises(CapExceeded) as err:
        list(enumerate_all_codes(F2, 4, 2, tight))
    assert err.value.cap == 10 and err.value.cost == 35


def test_trivial_dimensions():
    empty = list(enumerate_all_codes(F2, 3, 0))
    assert len(empty) == 1
    assert codeword_indices(empty[0]).tolist() == [0]
    full = list(enumerate_all_codes(F2, 3, 3))
    assert len(full) == 1
    assert sorted(codeword_indices(full[0]).tolist()) == list(range(8))


def test_codeword_indices_example():
    G = FqMatrix.from_rows(F2, [[1, 0, 1, 0], [0, 1, 0, 1]])
    code = LinearCode.from_generator(G)
    assert codeword_indices(code).tolist() == [0, 5, 10, 15]
    assert [v.coords for v in codewords(code)] == [(0, 0, 0, 0), (1, 0, 1, 0),
                                                  (0, 1, 0, 1), (1, 1, 1, 1)]


def test_from_generator_rejects_dependent_rows():
    G = FqMatrix.from_rows(F2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        LinearCode.from_generator(G)


def test_code_json_roundtrip():
    code = sample_uniform_code(CodeEnsembleSpec(F3, 4, 2, 1), 0)
    again = LinearCode.from_json(code.to_json())
    assert again.canonical_key() == code.canonical_key()
    assert again.H == code.H


def test_sampling_is_deterministic_per_seed_and_trial():
    spec = CodeEnsembleSpec(F2, 6, 3, 42)
    a = sample_uniform_code(spec, 5)
    b = sample_uniform_code(spec, 5)
    assert a.G == b.G
    c = sample_uniform_code(spec, 6)
    assert a.G != c.G  # overwhelmingly likely, and fixed by the seed
    d = sample_uniform_code(CodeEnsembleSpec(F2, 6, 3, 43), 5)
    assert a.G != d.G


def test_sampled_codes_are_valid():
    spec = CodeEnsembleSpec(F3, 5, 3, 7)
    for t in range(10):
        sample_uniform_code(spec, t).verify()


def test_sampling_is_uniform_over_codes():
    # 35000 draws over the 35 [4,2] binary codes; chi-square with 34 dof.
    spec = CodeEnsembleSpec(F2, 4, 2, 0xC0DE)
    index = {c.canonical_key(): i for i, c in enumerate(enumerate_all_codes(F2, 4, 2))}
    counts = np.zeros(35)
    draws = 35000
    for t in range(draws):
        counts[index[sample_uniform_code(spec, t).canonical_key()]] += 1
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


def test_reed_muller_dimension_and_duality():
    import math
    for m in range(1, 5):
        for r in range(0, m + 1):
            code = reed_muller_code(r, m)
            assert code.n == 2 ** m
            assert code.k == sum(math.comb(m, i) for i in range(r + 1))
            code.verify()
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
