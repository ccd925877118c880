import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from synhash.field import (
    FieldSpec,
    FqMatrix,
    FqVector,
    image_indices,
    index_to_vec,
    kernel_basis,
    mat_vec,
    q_powers,
    rank,
    rref,
    vec_to_index,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_field_requires_prime():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            FieldSpec(q)
    FieldSpec(7919)  # large prime accepted


def test_inverses_table():
    inv = F5.inverses
    for a in range(1, 5):
        assert (a * inv[a]) % 5 == 1


def test_vector_normalizes_residues():
    v = FqVector(F3, (-1, 4, 3))
    assert v.coords == (2, 1, 0)
    assert len(v) == 3


def test_matrix_normalizes_and_compares():
    M = FqMatrix.from_rows(F3, [[-1, 4], [3, 2]])
    assert np.array_equal(M.array, [[2, 1], [0, 2]])
    assert M == FqMatrix.from_rows(F3, [[2, 1], [0, 2]])
    assert M != FqMatrix.from_rows(F3, [[2, 1], [0, 1]])
    with pytest.raises(ValueError):
        FqMatrix.from_rows(F3, [], cols=None)
    empty = FqMatrix.from_rows(F3, [], cols=4)
    assert empty.rows == 0 and empty.cols == 4


def test_rank_examples():
    M = FqMatrix.from_rows(F2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert rank(M) == 2
    assert rank(FqMatrix.identity(F5, 4)) == 4
    assert rank(FqMatrix.zeros(F3, 2, 5)) == 0
    # q = 3: rows sum to zero, so rank drops by one
    M = FqMatrix.from_rows(F3, [[1, 2], [2, 1]])
    assert rank(M) == 1


def test_rref_example():
    M = FqMatrix.from_rows(F3, [[2, 1], [1, 2]])
    R, pivots = rref(M)
    assert pivots == [0]
    assert np.array_equal(R.array, [[1, 2]])


def test_rref_unit_pivots_and_reduction():
    M = FqMatrix.from_rows(F5, [[2, 1, 3], [4, 2, 1], [1, 3, 2]])
    R, pivots = rref(M)
    a = R.array
    for i, j in enumerate(pivots):
        assert a[i, j] == 1
        assert np.count_nonzero(a[:, j]) == 1  # column cleared


def test_kernel_example():
    M = FqMatrix.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
    K = kernel_basis(M)
    assert K.rows == 1
    assert np.array_equal(K.array, [[1, 1, 1]])


def test_kernel_of_zero_map_is_everything():
    K = kernel_basis(FqMatrix.from_rows(F3, [], cols=3))
    assert K.rows == 3 and rank(K) == 3


def test_mat_vec_example():
    M = FqMatrix.from_rows(F3, [[1, 2]])
    out = mat_vec(M, FqVector(F3, (2, 2)))
    assert out.coords == (0,)


def test_q_powers():
    assert q_powers(3, 4).tolist() == [1, 3, 9, 27]
    assert q_powers(2, 0).tolist() == []
    with pytest.raises(ValueError):
        q_powers(2, 64)


def test_index_examples():
    assert vec_to_index(FqVector(F3, (2, 1))) == 5
    assert vec_to_index(FqVector(F2, (1, 0, 1))) == 5
    assert index_to_vec(5, 2, F3).coords == (2, 1)
    assert index_to_vec(5, 3, F2).coords == (1, 0, 1)


@st.composite
def matrices(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return FqMatrix.from_rows(FieldSpec(q), data)


@given(matrices())
def test_image_indices_match_mat_vec(M):
    field, n = M.field, M.cols
    table = image_indices(M)
    assert table.dtype == np.int64
    assert table.tolist() == [vec_to_index(mat_vec(M, index_to_vec(i, n, field)))
                              for i in range(field.q ** n)]
    identity = image_indices(FqMatrix.identity(field, n))
    assert identity.tolist() == list(range(field.q ** n))


@given(matrices())
def test_rref_idempotent(M):
    R, pivots = rref(M)
    R2, pivots2 = rref(R)
    assert pivots == pivots2
    assert R == R2


@given(matrices(), st.randoms(use_true_random=False))
def test_rref_invariant_under_row_ops(M, rnd):
    # scale a row by a unit and add a multiple of another row: same rref
    q = M.field.q
    a = M.array.copy()
    if a.shape[0] >= 2:
        i, j = rnd.sample(range(a.shape[0]), 2)
        a[i] = (a[i] + rnd.randrange(q) * a[j]) % q
    i = rnd.randrange(a.shape[0])
    a[i] = (a[i] * rnd.randrange(1, q)) % q
    R1, p1 = rref(M)
    R2, p2 = rref(FqMatrix(M.field, a))
    assert p1 == p2 and R1 == R2


@given(matrices())
def test_kernel_orthogonal_and_rank_nullity(M):
    K = kernel_basis(M)
    assert not ((M.array @ K.array.T) % M.field.q).any()
    assert rank(M) + K.rows == M.cols
    assert rank(K) == K.rows


@given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.data())
def test_index_roundtrip(q, n, data):
    field = FieldSpec(q)
    i = data.draw(st.integers(0, q ** n - 1))
    v = index_to_vec(i, n, field)
    assert vec_to_index(v) == i
    assert v.n == n


@given(matrices())
def test_rank_bounded(M):
    r = rank(M)
    assert 0 <= r <= min(M.rows, M.cols)
    R, pivots = rref(M)
    assert r == len(pivots) == R.rows
