import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from synhash.field import (
    FieldSpec,
    FqMatrix,
    image_indices,
    kernel_basis,
    q_powers,
    rank,
    rref,
    _digits,
    _eliminate,
    _image_rows,
    _inverses,
    _kernel_columns,
    _kernel_from_rref,
    _rank_array,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_field_requires_prime():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            FieldSpec(q)
    FieldSpec(7919)  # large prime accepted


def test_field_modulus_is_below_two_to_the_31():
    FieldSpec(2 ** 31 - 1)  # a Mersenne prime, the largest admitted
    # refused before the trial division, which at 2^61 - 1 took longer than 25 s
    for q in (2 ** 31, 2 ** 61 - 1):
        message = r"^field modulus must be a prime integer below 2\^31,"
        with pytest.raises(ValueError, match=message):
            FieldSpec(q)


def test_inverses_table():
    # Fermat by squaring in int64, up to the largest admitted modulus
    for q in (3, 5, 9973, 2 ** 31 - 1):
        a = np.array(sorted({0, q - 2, q - 1} | set(range(1, min(q, 200)))), dtype=np.int64)
        inv = _inverses(a, q)
        assert inv.dtype == np.int64 and inv[0] == 0
        assert [x * y % q for x, y in zip(a[1:].tolist(), inv[1:].tolist())] == [1] * (a.size - 1)


def test_matrix_normalizes_and_compares():
    M = FqMatrix(F3, [[-1, 4], [3, 2]])
    assert np.array_equal(M.array, [[2, 1], [0, 2]])
    assert not M.array.flags.writeable
    assert M == FqMatrix(F3, [[2, 1], [0, 2]])
    assert M != FqMatrix(F3, [[2, 1], [0, 1]])
    with pytest.raises(ValueError, match="2-dimensional"):
        FqMatrix(F3, [1, 2])
    empty = FqMatrix(F3, np.zeros((0, 4)))
    assert empty.rows == 0 and empty.cols == 4


def test_rank_examples():
    M = FqMatrix(F2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert rank(M) == 2
    assert rank(FqMatrix(F5, np.eye(4))) == 4
    assert rank(FqMatrix(F3, np.zeros((2, 5)))) == 0
    # q = 3: rows sum to zero, so rank drops by one
    M = FqMatrix(F3, [[1, 2], [2, 1]])
    assert rank(M) == 1


def test_rref_example():
    M = FqMatrix(F3, [[2, 1], [1, 2]])
    R, pivots = rref(M)
    assert pivots == [0]
    assert np.array_equal(R.array, [[1, 2]])


def test_rref_unit_pivots_and_reduction():
    M = FqMatrix(F5, [[2, 1, 3], [4, 2, 1], [1, 3, 2]])
    R, pivots = rref(M)
    a = R.array
    for i, j in enumerate(pivots):
        assert a[i, j] == 1
        assert np.count_nonzero(a[:, j]) == 1  # column cleared


def test_kernel_example():
    M = FqMatrix(F2, [[1, 1, 0], [0, 1, 1]])
    K = kernel_basis(M)
    assert K.rows == 1
    assert np.array_equal(K.array, [[1, 1, 1]])


def test_kernel_of_zero_map_is_everything():
    K = kernel_basis(FqMatrix(F3, np.zeros((0, 3))))
    assert K.rows == 3 and rank(K) == 3


def test_mat_vec_example():
    # (1, 2) . (2, 2) = 0 mod 3; (2, 2) has index 2 + 2 * 3
    assert image_indices(FqMatrix(F3, [[1, 2]]))[8] == 0


def test_q_powers():
    assert q_powers(3, 4).tolist() == [1, 3, 9, 27]
    assert q_powers(2, 0).tolist() == []
    with pytest.raises(ValueError):
        q_powers(2, 64)


def test_index_examples(point_images):
    # little-endian: index 5 is (2, 1) in F_3^2 and (1, 0, 1) in F_2^3, so the
    # coordinate projections read its digits
    for q, n, digits in ((3, 2, [2, 1]), (2, 3, [1, 0, 1])):
        for j, digit in enumerate(digits):
            e = np.eye(n, dtype=np.int64)[j:j + 1]
            assert image_indices(FqMatrix(FieldSpec(q), e))[5] == digit
            assert point_images(e, q)[5] == digit


@st.composite
def matrices(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return FqMatrix(FieldSpec(q), data)


@given(matrices())
def test_image_indices_match_mat_vec(point_images, M):
    field, n = M.field, M.cols
    table = image_indices(M)
    assert table.dtype == np.int64
    assert table.tolist() == point_images(M.array, field.q)
    identity = image_indices(FqMatrix(field, np.eye(n)))
    assert identity.tolist() == list(range(field.q ** n))
    # a stack gives one row per matrix, each the table of that matrix alone
    flipped = FqMatrix(field, M.array[::-1])
    stack = np.stack([M.array, flipped.array, M.array])
    stacked = _image_rows(field.q, q_powers(field.q, M.rows) @ stack, M.rows)
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


@given(matrices())
def test_rank_bounded(M):
    r = rank(M)
    assert 0 <= r <= min(M.rows, M.cols)
    R, pivots = rref(M)
    assert r == len(pivots) == R.rows


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_gf2_rank_counts_columns_past_the_machine_word(n):
    assert rank(FqMatrix(F2, np.eye(n))) == n
    # a single bit in the last column is still a nonzero row
    last = np.zeros((1, n), dtype=np.int64)
    last[0, -1] = 1
    assert rank(FqMatrix(F2, last)) == 1


def _generic_rref(a, q):
    """Mod-q Gauss-Jordan loop, one matrix and one column at a time: the
    reference the stacked elimination must reproduce."""
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
        a[r] = (a[r] * pow(int(a[r, c]), q - 2, q)) % q
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


def _check_elimination(a, q):
    """_eliminate on a (T, rows, cols) stack against _generic_rref, one matrix
    at a time.  Its rows come in their own order: sorted by pivot here, the
    nonzero ones are the reference's reduced form.  Unsorted, each nonzero row
    holds 1 at its pivot, every other row holds 0 there, and the zero rows are
    exactly those whose pivot is -1."""
    red, pivots, ranks = _eliminate(a, q)
    count, rows, cols = a.shape
    digits = _digits(red, cols, q)
    assert digits.shape == a.shape
    assert pivots.dtype == np.int64 and pivots.shape == (count, rows) and ranks.shape == (count,)
    for t in range(count):
        ref, ref_pivots = _generic_rref(a[t], q)
        r = len(ref_pivots)
        held = pivots[t] >= 0
        assert ranks[t] == r == np.count_nonzero(held)
        order = np.argsort(np.where(held, pivots[t], cols), kind="stable")[:r]
        assert pivots[t, order].tolist() == ref_pivots
        assert np.array_equal(digits[t, order], ref)
        assert not digits[t, ~held].any()
        for i in np.flatnonzero(held):
            column = digits[t, :, pivots[t, i]]
            assert column[i] == 1 and np.count_nonzero(column) == 1
    return red


@given(stacks())
@example((3, np.array([[[1, 2, 0], [0, 0, 0], [0, 1, 1]]])))  # a zero row between nonzero rows
@example((3, np.zeros((2, 3, 0), dtype=np.int64)))  # no column
@example((3, np.zeros((2, 0, 4), dtype=np.int64)))  # no row
@example((3, np.full((1, 4, 5), 2)))  # rank 1, every entry q - 1: the pivot row is scaled
def test_stack_elimination_matches_the_generic_loop(case):
    q, a = case
    red = _check_elimination(a, q)
    if q != 2:
        assert red.dtype == np.int64 and red.shape == a.shape


def test_elimination_at_a_prime_just_below_two_to_the_31():
    # entries q - D for a small positive D of rank r, so products of the
    # elimination come near 2^62
    q = 2 ** 31 - 1
    rng = np.random.default_rng(31)
    for rows, cols, r in [(4, 6, 4), (5, 5, 3), (6, 4, 2), (3, 7, 1), (2, 3, 0)]:
        small = rng.integers(1, 4, size=(rows, r)) @ rng.integers(1, 4, size=(r, cols))
        a = -small % q
        _check_elimination(a[None], q)
        ref, ref_pivots = _generic_rref(a, q)
        assert len(ref_pivots) == r
        M = FqMatrix(FieldSpec(q), a)
        R, pivots = rref(M)
        assert rank(M) == r and pivots == ref_pivots and np.array_equal(R.array, ref)
        basis = kernel_basis(M).array
        assert basis.shape == (cols - r, cols)
        assert not (a.astype(object) @ basis.T.astype(object) % q).any()
        ref_basis = _kernel_from_rref(ref[None], np.array([ref_pivots], dtype=np.int64), q)[0]
        assert np.array_equal(basis, ref_basis)


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
    # the column indices of the bases, from the forms of _eliminate: at q = 2
    # packed rows in their own order
    reduced, unsorted, ranks = _eliminate(a, q)
    assert (ranks == r).all()
    assert np.array_equal(_kernel_columns(reduced, unsorted, n, q), q_powers(q, n - r) @ basis)
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
    # one matrix at a time; its digits are unpacked to uint8
    red = _check_elimination(a, 2)
    assert red.dtype == np.uint64 and red.shape == (*a.shape[:2], max(1, -(-a.shape[2] // 64)))
    assert _digits(red, a.shape[2], 2).dtype == np.uint8


@pytest.mark.parametrize("q, rows, cols", [(2, 3, 6), (2, 0, 3), (2, 7, 4), (2, 8, 3),
                                           (3, 2, 4), (3, 5, 2), (5, 2, 3), (5, 4, 2)])
def test_image_rows_are_of_the_smallest_type_that_holds_them(point_images, q, rows, cols):
    # the type holds 2 q^rows - 1 (uint8 at q = 2 up to 7 rows, uint16 from 8
    # rows or at 3^5 and 5^4), and image_indices stays int64
    field = FieldSpec(q)
    stack = np.random.default_rng((q, rows, cols)).integers(0, q, size=(4, rows, cols))
    if rows:
        stack[1, -1] = q - 1  # at q > 2 every step of this row wraps past q
    table = _image_rows(q, q_powers(q, rows) @ stack, rows)
    assert table.dtype == np.min_scalar_type(2 * q ** rows - 1)
    assert table.dtype == (np.uint8 if 2 * q ** rows <= 256 else np.uint16)
    for M, row in zip(stack, table):
        assert row.tolist() == point_images(M, q)
        M = FqMatrix(field, M)
        assert image_indices(M).dtype == np.int64
        assert np.array_equal(image_indices(M), row)


@pytest.mark.parametrize("q, cols", [(3, 5), (5, 4), (101, 2)])
def test_image_rows_fill_every_digit_block_of_a_column_at_once(point_images, q, cols):
    # at q > 2 the q - 1 blocks of a column are filled in one step; the
    # reference is M x, point by point
    stack = np.random.default_rng((q, cols)).integers(0, q, size=(2, 3, cols))
    stack[1, 2] = q - 1  # every step of this row wraps past q
    stack[1, :, 0] = 0  # a zero column copies the low block into every block
    for M, row in zip(stack, _image_rows(q, q_powers(q, 3) @ stack, 3)):
        assert row.tolist() == point_images(M, q)
