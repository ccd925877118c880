import numpy as np
import pytest
from hypothesis import example, given
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
    _image_rows,
    _kernel_from_rref,
    _rank_array,
    _rref_stack,
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


def test_inverse_table_is_built_once_per_modulus():
    # q modular powers per table: a fresh FieldSpec must not rebuild it
    assert FieldSpec(9973).inverses is FieldSpec(9973).inverses
    assert not FieldSpec(9973).inverses.flags.writeable


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
    # a stack gives one row per matrix, each the table of that matrix alone
    flipped = FqMatrix(field, M.array[::-1])
    stacked = _image_rows(field.q, np.stack([M.array, flipped.array, M.array]))
    assert stacked.shape == (3, field.q ** n)
    assert np.array_equal(stacked, [table, image_indices(flipped), table])


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


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_gf2_rank_counts_columns_past_the_machine_word(n):
    assert rank(FqMatrix.identity(F2, n)) == n
    # a single bit in the last column is still a nonzero row
    last = np.zeros((1, n), dtype=np.int64)
    last[0, -1] = 1
    assert rank(FqMatrix(F2, last)) == 1


def _generic_rref(a, q):
    """Mod-q Gauss-Jordan loop, one matrix and one column at a time: the
    reference the stacked elimination must reproduce."""
    inv = FieldSpec(q).inverses
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * int(inv[a[r, c]])) % q
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % q
        pivots.append(c)
        r += 1
    return a[:r], pivots


@st.composite
def stacks(draw):
    """(T, rows, cols) stacks mod q, some rank deficient (see gf2_arrays)."""
    q = draw(st.sampled_from([2, 3, 5]))
    count, rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 8)), draw(st.integers(0, 70))
    r = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    left = rng.integers(0, q, size=(count, rows, r))
    right = rng.integers(0, q, size=(count, r, cols)) * (rng.random((count, r, cols)) < 0.5)
    return q, (left @ right) % q


@given(stacks())
def test_stack_elimination_matches_the_generic_loop(case):
    q, a = case
    red, pivots, ranks = _rref_stack(a, q)
    assert red.shape == a.shape and pivots.shape == a.shape[:2] and ranks.shape == a.shape[:1]
    for t in range(a.shape[0]):
        ref, ref_pivots = _generic_rref(a[t], q)
        r = len(ref_pivots)
        assert ranks[t] == r and pivots[t, :r].tolist() == ref_pivots
        assert (pivots[t, r:] == -1).all()
        assert np.array_equal(red[t, :r], ref) and not red[t, r:].any()


@st.composite
def full_rank_stacks(draw):
    """(T, r, n) stacks mod q of rank r, from r = 0 to r = n: each matrix holds
    the identity in r random columns."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 10))
    r, count = draw(st.integers(0, n)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, q, size=(count, r, n))
    for t in range(count):
        a[t][:, rng.permutation(n)[:r]] = np.eye(r, dtype=np.int64)
    return q, a


@given(full_rank_stacks())
def test_stacked_kernel_matches_the_per_matrix_kernels(reference_kernel, case):
    q, a = case
    count, r, n = a.shape
    refs = [_generic_rref(m, q) for m in a]
    red = np.array([ref for ref, _ in refs], dtype=np.int64).reshape(count, r, n)
    pivots = np.array([p for _, p in refs], dtype=np.int64).reshape(count, r)
    basis = _kernel_from_rref(red, pivots, q)
    assert basis.shape == (count, n - r, n) and basis.dtype == np.int64
    assert not (a @ basis.transpose(0, 2, 1) % q).any()
    for t in range(count):
        assert np.array_equal(basis[t], reference_kernel(red[t], pivots[t].tolist(), n, q))
        assert len(_generic_rref(basis[t], q)[1]) == n - r
        assert np.array_equal(kernel_basis(FqMatrix(FieldSpec(q), a[t])).array, basis[t])
    # at q = 2 the stacked elimination hands over uint8 rows
    if q == 2:
        assert np.array_equal(_kernel_from_rref(red.astype(np.uint8), pivots, q), basis)


@st.composite
def gf2_arrays(draw):
    """0/1 matrices up to 130 columns; the product of a rows x r and an r x cols
    factor has rank at most r, so r < rows gives rank-deficient ones."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 130))
    r = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    left = rng.integers(0, 2, size=(rows, r))
    right = (rng.random((r, cols)) < density).astype(np.int64)
    return (left @ right) % 2


@given(gf2_arrays())
def test_gf2_elimination_matches_the_generic_loop(a):
    reduced, pivots = rref(FqMatrix(F2, a))
    red = reduced.array
    ref, ref_pivots = _generic_rref(a, 2)
    assert pivots == ref_pivots
    assert red.dtype == np.int64 and red.shape == ref.shape
    assert np.array_equal(red, ref)
    assert _rank_array(a, 2) == len(pivots)
    kernel = kernel_basis(FqMatrix(F2, a)).array
    assert kernel.shape == (a.shape[1] - len(pivots), a.shape[1])
    assert not ((a @ kernel.T) % 2).any()


@st.composite
def gf2_stacks(draw):
    """(T, rows, cols) 0/1 stacks around the uint64 word edges: each matrix is
    a rows x r times r x cols product, so r < rows makes it rank deficient."""
    count, rows = draw(st.integers(0, 4)), draw(st.integers(0, 10))
    cols = draw(st.sampled_from([0, 1, 7, 63, 64, 65, 127, 128, 129, 200]))
    r = draw(st.integers(0, 10))
    density = draw(st.sampled_from([0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    left = rng.integers(0, 2, size=(count, rows, r))
    right = (rng.random((count, r, cols)) < density).astype(np.int64)
    return (left @ right) % 2


@given(gf2_stacks())
@example(np.zeros((0, 3, 65), dtype=np.int64))  # no matrix
@example(np.zeros((3, 0, 64), dtype=np.int64))  # no row
@example(np.ones((1, 6, 13), dtype=np.int64))  # one matrix of rank 1
@example(np.eye(130, dtype=np.int64)[None, ::-1])  # one matrix, pivots in three words
def test_packed_gf2_elimination_matches_a_per_matrix_loop(a):
    # the swap-free elimination on packed words against a row-swapping loop,
    # one matrix at a time
    red, pivots, ranks = _rref_stack(a, 2)
    assert red.dtype == np.uint8 and red.shape == a.shape
    assert pivots.dtype == np.int64 and pivots.shape == a.shape[:2]
    assert ranks.shape == a.shape[:1]
    for t in range(a.shape[0]):
        ref, ref_pivots = _generic_rref(a[t], 2)
        r = len(ref_pivots)
        assert ranks[t] == r and pivots[t, :r].tolist() == ref_pivots
        assert (pivots[t, r:] == -1).all()
        assert np.array_equal(red[t, :r], ref) and not red[t, r:].any()


@pytest.mark.parametrize("q, rows, cols", [(2, 3, 6), (2, 0, 3), (2, 7, 4), (2, 8, 3),
                                           (3, 2, 4), (3, 5, 2), (5, 2, 3), (5, 4, 2)])
def test_image_rows_are_of_the_smallest_type_that_holds_them(q, rows, cols):
    # the type holds 2 q^rows - 1 (uint8 at q = 2 up to 7 rows, uint16 from 8
    # rows or at 3^5 and 5^4), and image_indices stays int64
    field = FieldSpec(q)
    stack = np.random.default_rng((q, rows, cols)).integers(0, q, size=(4, rows, cols))
    if rows:
        stack[1, -1] = q - 1  # at q > 2 every step of this row wraps past q
    table = _image_rows(q, stack)
    assert table.dtype == np.min_scalar_type(2 * q ** rows - 1)
    assert table.dtype == (np.uint8 if 2 * q ** rows <= 256 else np.uint16)
    for M, row in zip(stack, table):
        M = FqMatrix(field, M)
        assert row.tolist() == [vec_to_index(mat_vec(M, index_to_vec(i, cols, field)))
                                for i in range(q ** cols)]
        assert image_indices(M).dtype == np.int64
        assert np.array_equal(image_indices(M), row)


@pytest.mark.parametrize("q, cols", [(3, 5), (5, 4), (101, 2)])
def test_image_rows_fill_every_digit_block_of_a_column_at_once(q, cols):
    # at q > 2 the q - 1 blocks of a column are filled in one step; the
    # reference is mat_vec, point by point
    field = FieldSpec(q)
    stack = np.random.default_rng((q, cols)).integers(0, q, size=(2, 3, cols))
    stack[1, 2] = q - 1  # every step of this row wraps past q
    stack[1, :, 0] = 0  # a zero column copies the low block into every block
    for M, row in zip(stack, _image_rows(q, stack)):
        M = FqMatrix(field, M)
        assert row.tolist() == [vec_to_index(mat_vec(M, index_to_vec(i, cols, field)))
                                for i in range(q ** cols)]
