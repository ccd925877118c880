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

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        """inv[a] = a**-1 mod q for a in [1, q); entry 0 is unused."""
        inv = np.array([0] + [pow(a, self.q - 2, self.q) for a in range(1, self.q)],
                       dtype=np.int64)
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

def _rank_bits(rows: list[int]) -> int:
    """Rank of a GF(2) matrix given as row bitmasks (word-parallel XOR)."""
    r = 0
    basis: list[int] = []
    for v in rows:
        for b in basis:
            m = b & -b
            if v & m:
                v ^= b
        if v:
            basis.append(v)
            r += 1
    return r


def _pack_rows(arr: np.ndarray) -> list[int]:
    weights = 1 << np.arange(arr.shape[1], dtype=np.int64)
    return [int(x) for x in arr @ weights]


def _rref_array(a: np.ndarray, q: int, inv: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod q; returns (nonzero rows, pivot columns)."""
    a = np.array(a, dtype=np.int64) % q
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * int(inv[a[r, c]])) % q
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % q
        pivots.append(c)
        r += 1
    return a[: len(pivots)], pivots


def _rank_array(a: np.ndarray, q: int) -> int:
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    if q == 2:
        return _rank_bits(_pack_rows(np.asarray(a, dtype=np.int64) % 2))
    field = FieldSpec(q)
    return len(_rref_array(a, q, field.inverses)[1])


def _kernel_array(a: np.ndarray, q: int, inv: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right kernel {x : a @ x = 0 mod q}."""
    rows, cols = a.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    red, pivots = _rref_array(a, q, inv)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-int(red[row_idx, fc])) % q
    return basis


# -- public operations ------------------------------------------------------

def rank(M: FqMatrix) -> int:
    """Rank of M over F_q."""
    return _rank_array(M.array, M.field.q)


def rref(M: FqMatrix) -> tuple[FqMatrix, list[int]]:
    """Canonical reduced row echelon form (unit pivots, zero rows removed)."""
    red, pivots = _rref_array(M.array, M.field.q, M.field.inverses)
    return FqMatrix(M.field, red), pivots


def kernel_basis(M: FqMatrix) -> FqMatrix:
    """Matrix whose rows span {x : M x = 0}; has cols(M) - rank(M) rows."""
    return FqMatrix(M.field, _kernel_array(M.array, M.field.q, M.field.inverses))


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
    q, n = M.field.q, M.cols
    powers = q_powers(q, M.rows)
    table = np.zeros(q ** n, dtype=np.int64)
    for j in range(n):
        size = q ** j
        low = table[:size]
        for a in range(1, q):
            col = (a * M.array[:, j]) % q
            block = table[a * size:(a + 1) * size]
            if q == 2:
                np.bitwise_xor(low, int(col @ powers), out=block)
            else:
                block[:] = low
                for i in np.flatnonzero(col):
                    carry = (low // powers[i]) % q + col[i] >= q
                    block += (col[i] - q * carry) * powers[i]
    return table


def digit_table(q: int, n: int) -> np.ndarray:
    """Little-endian digits of every index of F_q^n, one row each.  Nothing calls
    it: codes, distributions and verify import it only for the sites that
    perfbench/tracing.py wraps, and it goes with that tracer entry."""
    rows = [image_indices(FqMatrix(FieldSpec(q), e[None])) for e in np.eye(n, dtype=np.int64)]
    return np.array(rows, dtype=np.int64).reshape(n, q ** n).T
