"""Exact linear algebra over prime fields F_q.

Matrices hold residues in [0, q).  FqMatrix is immutable after construction
and all operations are pure functions.  Indexing of F_q^n is little-endian
base q: coordinate 0 is the least significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSpec",
    "FqMatrix",
    "rank",
    "rref",
    "kernel_basis",
    "q_powers",
    "image_indices",
]


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime modulus defining the coefficient field."""

    q: int

    def __post_init__(self) -> None:
        # int64 indices and elimination products (below q^2) are exact for q < 2^31
        if isinstance(self.q, int) and self.q >= 1 << 31:
            raise ValueError(f"field modulus must be a prime integer below 2^31, got {self.q!r}")
        if not isinstance(self.q, int) or not _is_prime(self.q):
            raise ValueError(f"field modulus must be a prime integer, got {self.q!r}")


def _inverses(a: np.ndarray, q: int) -> np.ndarray:
    """a^(q-2) mod q of each entry of an int64 array of residues mod a prime q > 2,
    by squaring in int64: a nonzero residue's inverse (Fermat), and 0 for 0."""
    out, base = np.ones_like(a), a
    for bit in reversed(bin(q - 2)[2:]):  # the low bit first
        if bit == "1":
            out = out * base % q
        base = base * base % q
    return out


@dataclass(frozen=True, eq=False)
class FqMatrix:
    """Immutable row-major matrix over F_q; r = 0 rows is legal."""

    field: FieldSpec
    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected 2-dimensional data, got shape {arr.shape}")
        arr = np.mod(arr, self.field.q)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FqMatrix):
            return NotImplemented
        return self.field == other.field and self.array.shape == other.array.shape \
            and bool(np.array_equal(self.array, other.array))

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.field.q}, array={self.array.tolist()!r})"


# -- elimination kernels ----------------------------------------------------

def _reduce_bits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_eliminate at q = 2: Gauss-Jordan by rows on rows packed into uint64
    words (bit c % 64 of word c // 64 holds column c), kept as (words, rows,
    T) planes so that every step runs along the whole stack.  Row i takes its
    lowest set bit as its pivot and is XORed into every other row holding it.
    The rows before it hold no bit below their own pivots, so no XOR moves
    an earlier pivot, and a row in their span is zero by its turn and stays
    zero."""
    a = np.asarray(a)
    count, rows, cols = a.shape
    words = max(1, -(-cols // 64))  # a matrix of no columns gets one zero word
    bits = np.zeros((count, rows, 64 * words), dtype=np.uint8)
    bits[:, :, :cols] = a & 1
    packed = np.packbits(bits, axis=None, bitorder="little").view("<u8")
    packed = np.ascontiguousarray(packed.reshape(count, rows, words).T, dtype=np.uint64)
    lows = np.zeros_like(packed)  # each row's pivot bit, in its word; 0 for a zero row
    for i in range(rows):
        row = packed[:, i]
        low = row & np.negative(row)  # the lowest set bit of each word
        # only the first nonzero word holds the pivot
        low[1:] *= ~np.logical_or.accumulate(row[:-1] != 0, axis=0)
        lows[:, i] = low
        hits = (packed & low[:, None, :]).any(axis=0)
        hits[i] = False
        packed ^= row[:, None, :] * hits
    # a power of two is exact in float64, so frexp reads its bit position (plus
    # one; 0 for a zero word)
    exps = np.frexp(lows.astype(np.float64))[1]
    pivots = np.where(exps > 0, exps + 64 * np.arange(words)[:, None, None], 0).max(axis=0).T - 1
    return packed.T, pivots, np.count_nonzero(pivots >= 0, axis=1)


def _eliminate(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan by rows mod q of every matrix in a (T, rows, cols) stack,
    as (red, pivots, ranks): the rows of red stay in their own order, and
    pivots[t, i] is the pivot column of row i, -1 for a zero row.  Row i takes
    its first nonzero column as its pivot, is scaled to 1 there, and its
    multiples clear that column from every other row; a zero row is scaled
    by 0 (_inverses), so it stays zero and in its place.  At q = 2 red is packed
    (T, rows, words) uint64 (_reduce_bits), above it is int64; _digits reads
    the digits of either, and _echelon sorts them into the reduced form."""
    if q == 2:
        return _reduce_bits(a)
    a = (np.asarray(a) % q).astype(np.int64)
    count, rows, cols = a.shape
    pivots = np.full((count, rows), -1, dtype=np.int64)
    t = np.arange(count)
    for i in range(rows if cols else 0):  # a matrix of no columns has only zero rows
        row = a[:, i]
        nonzero = row != 0
        pivot = nonzero.argmax(axis=1)  # column 0 for a zero row, whose scale is 0
        pivots[:, i] = np.where(nonzero.any(axis=1), pivot, -1)
        row *= _inverses(row[t, pivot], q)[:, None]
        row %= q
        others = a[t, :, pivot]
        others[:, i] = 0
        a -= others[:, :, None] * row[:, None, :]
        a %= q
    return a, pivots, np.count_nonzero(pivots >= 0, axis=1)


def _digits(red: np.ndarray, cols: int, q: int) -> np.ndarray:
    """The (T, rows, cols) digits of _eliminate's red: at q = 2 unpacked from
    its words to uint8, above it red itself."""
    if q != 2:
        return red
    packed = np.ascontiguousarray(red, dtype="<u8")
    return np.unpackbits(packed.view(np.uint8), axis=2, count=cols, bitorder="little")


def _kernel_columns(red: np.ndarray, pivots: np.ndarray, n: int, q: int) -> np.ndarray:
    """The (T, n) int64 column indices q_powers(q, n - r) @ H of the kernel
    bases H of _kernel_from_rref, from _eliminate's full-rank forms and (T, r)
    pivots.  At q = 2 no H is formed: free column f_i gets 2^i, and the pivot
    column of row l the bits of row l at the free columns, in order (-x = x).
    """
    count, r = pivots.shape
    powers = q_powers(q, n - r)
    if q != 2:
        return powers @ _kernel_from_rref(red, pivots, q)
    offsets = n * np.arange(count)[:, None]  # of each code's columns in the flat output
    free = np.ones(count * n, dtype=bool)
    free[offsets + pivots] = False
    free = np.nonzero(free)[0].reshape(count, n - r)
    columns = np.zeros(count * n, dtype=np.int64)
    columns[free] = powers
    free = (free - offsets).T
    shifts = (free % 64).astype(np.uint64)[:, None, :]
    bits = np.zeros((n - r, r, count), dtype=np.uint64)
    for w, plane in enumerate(red.transpose(2, 1, 0)):
        bits |= plane >> shifts & (free // 64 == w)[:, None, :]
    values = powers @ bits.reshape(n - r, r * count).view(np.int64)
    columns[offsets + pivots] = values.reshape(r, count).T
    return columns.reshape(count, n)


def _span_basis_columns(columns: np.ndarray, rows: int) -> np.ndarray:
    """A basis of the span of each row's binary columns, as (T, rows) column
    indices with the basis first and zero columns after it, from the (T, n)
    column indices q_powers(2, rows) @ M of a stack of binary matrices M.
    Each step takes the largest remaining index as a basis vector and XORs it
    into every index that holds its top bit, which is exactly the indices it
    lowers; so the top bit falls at every step, and rows steps leave none."""
    vals = np.ascontiguousarray(columns.T)  # (n, T): each step runs along the stack
    basis = np.empty((rows, len(columns)), dtype=np.int64)
    for i in range(rows):
        basis[i] = top = vals.max(axis=0)
        np.minimum(vals, vals ^ top, out=vals)
    return basis.T


def _rank_array(a: np.ndarray, q: int) -> int:
    return int(_eliminate(np.asarray(a)[None], q)[2][0])


def _kernel_from_rref(red: np.ndarray, pivots: np.ndarray, q: int) -> np.ndarray:
    """Bases (rows) of {x : a_t @ x = 0 mod q} for a (T, r, n) stack of reduced
    forms with r pivot rows each and their (T, r) pivot columns, as a
    (T, n - r, n) stack: row i of basis t has 1 at the i-th free column f of
    red[t] and -red[t, :, f] at its pivot columns."""
    count, r, n = red.shape
    t = np.arange(count)[:, None, None]
    free = np.ones((count, n), dtype=bool)
    free[t[:, 0], pivots] = False
    free = np.nonzero(free)[1].reshape(count, n - r, 1)
    i = np.arange(n - r)[:, None]
    basis = np.zeros((count, n - r, n), dtype=np.int64)
    basis[t, i, free] = 1
    # -red mod q in red's own type (uint8 at q = 2): no int64 copy of red is made
    basis[t, i, pivots[:, None, :]] = (q - red[t, np.arange(r), free]) % q
    return basis


# -- public operations ------------------------------------------------------

def rank(M: FqMatrix) -> int:
    """Rank of M over F_q."""
    return _rank_array(M.array, M.field.q)


def _echelon(M: FqMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form of M as digits (r, cols) and its r pivot
    columns: _eliminate's rows with the zero rows dropped and the rest sorted
    by pivot.  It is the only place that sorts them."""
    red, pivots, _ = _eliminate(M.array[None], M.field.q)
    held = np.flatnonzero(pivots[0] >= 0)
    order = held[np.argsort(pivots[0, held])]
    return _digits(red, M.cols, M.field.q)[0, order], pivots[0, order]


def rref(M: FqMatrix) -> tuple[FqMatrix, list[int]]:
    """Canonical reduced row echelon form (unit pivots, zero rows removed)."""
    red, pivots = _echelon(M)
    return FqMatrix(M.field, red), pivots.tolist()


def kernel_basis(M: FqMatrix) -> FqMatrix:
    """Matrix whose rows span {x : M x = 0}; has cols(M) - rank(M) rows."""
    red, pivots = _echelon(M)
    return FqMatrix(M.field, _kernel_from_rref(red[None], pivots[None], M.field.q)[0])


def q_powers(q: int, n: int) -> np.ndarray:
    """[q**0, ..., q**(n-1)] as int64; refuses when q**n would overflow."""
    if n > 0 and q ** n > 2 ** 62:
        raise ValueError(f"q**n = {q}**{n} does not fit the index arithmetic")
    return q ** np.arange(n, dtype=np.int64)


def image_indices(M: FqMatrix) -> np.ndarray:
    """t[idx(x)] = idx(M x) for every x in F_q^n (n = cols(M)), as int64.

    Both indices are little-endian.  The table is built one column at a time:
    the points whose digit j is a are the points below q**j shifted by a M e_j,
    added digit-wise mod q, which at q = 2 is XOR.
    """
    q, rows = M.field.q, M.rows
    return _image_rows(q, (q_powers(q, rows) @ M.array)[None], rows)[0].astype(np.int64)


def _image_rows(q: int, columns: np.ndarray, rows: int) -> np.ndarray:
    """image_indices for a stack of matrices M mod q with the given number of
    rows, given by their (T, n) column indices q_powers(q, rows) @ M: a
    (T, q**n) table, row t that of matrix t, from one pass of the column steps.

    The table has the smallest unsigned type that holds 2 q**rows - 1: every
    index, and at q > 2 an index whose digit has stepped past q - 1 before
    it wraps.  At q = 2 and up to 7 rows that is uint8, an eighth of the
    memory traffic of int64 in every column step."""
    count, n = columns.shape
    powers = q_powers(q, rows)
    dtype = np.min_scalar_type(2 * q ** rows - 1)
    table = np.empty((count, q ** n), dtype=dtype)
    table[:, 0] = 0
    if q == 2:
        shifts = columns.astype(dtype)
        for j in range(n):
            size = 1 << j
            np.bitwise_xor(table[:, :size], shifts[:, j, None], out=table[:, size:2 * size])
        return table
    arr = columns[:, None, :] // powers[:, None] % q
    # digits[t, a - 1, :, j] = a M_t e_j
    digits = (np.arange(1, q)[:, None, None] * arr[:, None] % q).astype(dtype)
    powers = powers.astype(dtype)
    for j in range(n):
        size = q ** j
        low = table[:, :size]
        # blocks[:, a - 1] is low + a M e_j digit-wise: the points whose digit j is a
        blocks = table[:, size:q * size].reshape(count, q - 1, size)
        blocks[:] = low[:, None, :]
        for i in np.flatnonzero(arr[:, :, j].any(axis=0)):
            digit = digits[:, :, i, j, None]
            blocks += digit * powers[i]
            wraps = (low // powers[i] % q)[:, None, :] >= q - digit
            np.subtract(blocks, q * powers[i], out=blocks, where=wraps)
    return table


def digit_table(q: int, n: int) -> np.ndarray:
    """Little-endian digits of every index of F_q^n, one row each.  Nothing calls
    it: codes, distributions and verify import it only for the sites that
    perfbench/tracing.py wraps, and it goes with that tracer entry."""
    rows = [image_indices(FqMatrix(FieldSpec(q), e[None])) for e in np.eye(n, dtype=np.int64)]
    return np.array(rows, dtype=np.int64).reshape(n, q ** n).T
