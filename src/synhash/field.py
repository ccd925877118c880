"""Exact linear algebra over prime fields F_q.

Matrices and vectors hold residues in [0, q).  Containers are immutable after
construction and all operations are pure functions.  Indexing of F_q^n is
little-endian base q: coordinate 0 is the least significant digit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FieldSpec",
    "FqVector",
    "FqMatrix",
    "rank",
    "rref",
    "kernel_basis",
    "mat_vec",
    "vec_to_index",
    "index_to_vec",
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
        if not isinstance(self.q, int) or not _is_prime(self.q):
            raise ValueError(f"field modulus must be a prime integer, got {self.q!r}")

    @property
    def inverses(self) -> np.ndarray:
        """inv[a] = a**-1 mod q for a in [1, q); entry 0 is unused.  One table per
        q, shared by every FieldSpec of that q."""
        return _inverse_table(self.q)


@functools.lru_cache(maxsize=64)
def _inverse_table(q: int) -> np.ndarray:
    inv = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    inv.flags.writeable = False
    return inv


def _as_residues(field: FieldSpec, data, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional data, got shape {arr.shape}")
    arr = np.mod(arr, field.q)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FqVector:
    """Immutable coordinate vector over F_q."""

    field: FieldSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.field.q
        norm = tuple(int(c) % q for c in self.coords)
        object.__setattr__(self, "coords", norm)

    @classmethod
    def from_array(cls, field: FieldSpec, arr: Iterable[int]) -> "FqVector":
        return cls(field, tuple(int(c) for c in arr))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class FqMatrix:
    """Immutable row-major matrix over F_q; r = 0 rows is legal."""

    field: FieldSpec
    array: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "array", _as_residues(self.field, self.array, 2))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FqMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FqMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]], cols: int | None = None) -> "FqMatrix":
        if len(rows) == 0:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            return cls(field, np.zeros((0, cols), dtype=np.int64))
        return cls(field, np.array(rows, dtype=np.int64))

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

def _rref_stack(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form mod q of every matrix in a (T, rows, cols) stack.

    Returns (red, pivots, ranks): red[t] has its ranks[t] pivot rows first and
    zero rows after them, and pivots[t, :ranks[t]] are their pivot columns
    (the rest of the row is -1).  The Gauss-Jordan steps run one column at a
    time for the whole stack: on packed bit rows at q = 2 (_rref_bits), in
    int64 arithmetic mod q otherwise, so red is uint8 at q = 2 and int64 above.
    """
    if q == 2:
        return _rref_bits(a)
    inv = _inverse_table(q)
    a = (np.asarray(a) % q).astype(np.int64, copy=False)
    count, rows, cols = a.shape
    ranks = np.zeros(count, dtype=np.int64)
    pivots = np.full((count, rows), -1, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        # the first row at or below each matrix's next pivot row with a nonzero in c
        below = (a[:, :, c] != 0) & (row_ids >= ranks[:, None])
        t = np.flatnonzero(below.any(axis=1))
        if t.size == 0:
            if (ranks == rows).all():
                break
            continue
        every = slice(None) if t.size == count else t
        top, src = ranks[t], below[t].argmax(axis=1)
        pivot = a[t, src]
        a[t, src] = a[t, top]
        pivot = pivot * inv[pivot[:, c], None] % q
        # clearing column c from every row clears the pivot row too; it is put back
        a[every] = (a[every] - a[every, :, c, None] * pivot[:, None, :]) % q
        a[t, top] = pivot
        pivots[t, top] = c
        ranks[t] += 1
    return a, pivots, ranks


# the bit of each column within its uint64 word
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _rref_bits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_rref_stack at q = 2, with each row packed into uint64 words (bit c % 64
    of word c // 64 holds column c) and no row moved until the end.

    At column c every matrix of the stack takes as its pivot the first row
    that has a 1 there and is not a pivot row yet, and XORs it into every
    other row with a 1 there.  Each matrix carries one extra zero row, which
    is the pivot of a matrix that has no such row, so its XOR changes
    nothing and no matrix is picked out of the stack.  A row that never
    becomes a pivot ends zero, so one sort of the rows by the column at which
    each became a pivot gives the reduced form.
    """
    # uint8, as a uint64 product of a signed type would be float64
    a = (np.asarray(a) & 1).astype(np.uint8, copy=False)
    count, rows, cols = a.shape
    packed = np.zeros((count, rows + 1, -(-cols // 64)), dtype=np.uint64)
    for w in range(packed.shape[2]):
        part = a[:, :, 64 * w:64 * (w + 1)]
        packed[:, :rows, w] = part @ _BIT[:part.shape[2]]
    flat = packed.reshape(count * (rows + 1), packed.shape[2])
    free = np.ones((count, rows + 1), dtype=bool)  # rows that are no pivot yet
    free[:, rows] = False
    # the column at which each row became a pivot; cols for the rest
    first = np.full((count, rows + 1), cols)
    starts = np.arange(count) * (rows + 1)
    for c in range(cols if rows else 0):
        ones = (packed[:, :, c // 64] & _BIT[c % 64]).astype(bool)
        candidates = ones & free
        candidates[:, rows] = True
        at = starts + candidates.argmax(axis=1)
        pivot = flat[at]
        ones.reshape(-1)[at] = False
        packed ^= pivot[:, None, :] * ones[:, :, None]
        free.reshape(-1)[at] = False
        first.reshape(-1)[at] = c
        if not free.any():
            break
    first = first[:, :rows]
    order = np.argsort(first, axis=1, kind="stable")
    pivots = np.take_along_axis(first, order, axis=1)
    pivots[pivots == cols] = -1
    packed = np.take_along_axis(packed[:, :rows], order[:, :, None], axis=1)
    red = np.unpackbits(packed.astype("<u8", copy=False).view(np.uint8), axis=2,
                        count=cols, bitorder="little")
    return red, pivots, np.count_nonzero(pivots >= 0, axis=1)


def _rank_array(a: np.ndarray, q: int) -> int:
    return int(_rref_stack(np.asarray(a)[None], q)[2][0])


def _kernel_from_rref(red: np.ndarray, pivots: np.ndarray, q: int) -> np.ndarray:
    """Bases (rows) of {x : a_t @ x = 0 mod q} for a (T, r, n) stack of reduced
    forms with r pivot rows each and their (T, r) pivot columns, as a
    (T, n - r, n) stack: row i of basis t has 1 at the i-th free column f of
    red[t] and -red[t, :, f] at its pivot columns."""
    count, r, n = red.shape
    free = np.ones((count, n), dtype=bool)
    np.put_along_axis(free, pivots, False, axis=1)
    free = np.nonzero(free)[1].reshape(count, n - r)
    basis = np.zeros((count, n - r, n), dtype=np.int64)
    np.put_along_axis(basis, free[:, :, None], 1, axis=2)
    # -red mod q in red's own type (uint8 at q = 2): no int64 copy of red is made
    at_free = np.take_along_axis(red, free[:, None, :], axis=2)
    np.put_along_axis(basis, np.broadcast_to(pivots[:, None, :], (count, n - r, r)),
                      (q - at_free.transpose(0, 2, 1)) % q, axis=2)
    return basis


# -- public operations ------------------------------------------------------

def rank(M: FqMatrix) -> int:
    """Rank of M over F_q."""
    return _rank_array(M.array, M.field.q)


def rref(M: FqMatrix) -> tuple[FqMatrix, list[int]]:
    """Canonical reduced row echelon form (unit pivots, zero rows removed)."""
    red, pivots, ranks = _rref_stack(M.array[None], M.field.q)
    return FqMatrix(M.field, red[0, :ranks[0]]), pivots[0, :ranks[0]].tolist()


def kernel_basis(M: FqMatrix) -> FqMatrix:
    """Matrix whose rows span {x : M x = 0}; has cols(M) - rank(M) rows."""
    red, pivots, ranks = _rref_stack(M.array[None], M.field.q)
    basis = _kernel_from_rref(red[:, :ranks[0]], pivots[:, :ranks[0]], M.field.q)
    return FqMatrix(M.field, basis[0])


def mat_vec(M: FqMatrix, v: FqVector | np.ndarray | Sequence[int]) -> FqVector:
    """Product M v over F_q."""
    arr = v.array if isinstance(v, FqVector) else np.asarray(v, dtype=np.int64)
    if arr.shape != (M.cols,):
        raise ValueError(f"vector length {arr.shape} incompatible with {M.rows}x{M.cols} matrix")
    out = (M.array @ (arr % M.field.q)) % M.field.q
    return FqVector.from_array(M.field, out)


def q_powers(q: int, n: int) -> np.ndarray:
    """[q**0, ..., q**(n-1)] as int64; refuses when q**n would overflow."""
    if n > 0 and q ** n > 2 ** 62:
        raise ValueError(f"q**n = {q}**{n} does not fit the index arithmetic")
    return q ** np.arange(n, dtype=np.int64)


def vec_to_index(v: FqVector) -> int:
    """Little-endian base-q index of v in [0, q**n)."""
    q = v.field.q
    idx = 0
    for c in reversed(v.coords):
        idx = idx * q + c
    return idx


def index_to_vec(i: int, n: int, field: FieldSpec) -> FqVector:
    """Inverse of vec_to_index for 0 <= i < q**n."""
    q = field.q
    if not 0 <= i < q ** n:
        raise ValueError(f"index {i} out of range for q**n = {q}**{n}")
    coords = []
    for _ in range(n):
        coords.append(i % q)
        i //= q
    return FqVector(field, tuple(coords))


def image_indices(M: FqMatrix) -> np.ndarray:
    """t[idx(x)] = idx(M x) for every x in F_q^n (n = cols(M)), as int64.

    Both indices are little-endian.  The table is built one column at a time:
    the points whose digit j is a are the points below q**j shifted by a M e_j,
    added digit-wise mod q, which at q = 2 is XOR.
    """
    return _image_rows(M.field.q, M.array[None])[0].astype(np.int64)


def _image_rows(q: int, arr: np.ndarray) -> np.ndarray:
    """image_indices for a (T, rows, n) stack of matrices mod q: a (T, q**n)
    table, row t that of arr[t], from one pass of the column steps.

    The table has the smallest unsigned type that holds 2 q**rows - 1: every
    index, and at q > 2 an index whose digit has stepped past q - 1 before
    it wraps.  At q = 2 and up to 7 rows that is uint8, an eighth of the
    memory traffic of int64 in every column step."""
    count, rows, n = arr.shape
    powers = q_powers(q, rows)
    dtype = np.min_scalar_type(2 * q ** rows - 1)
    table = np.empty((count, q ** n), dtype=dtype)
    table[:, 0] = 0
    if q == 2:
        shifts = (powers @ (arr % 2)).astype(dtype)
        for j in range(n):
            size = 1 << j
            np.bitwise_xor(table[:, :size], shifts[:, j, None], out=table[:, size:2 * size])
        return table
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
