"""Distributions on F_q^n and their uniformity measures.

Norms follow the averaging convention ||f||_p = ((1/q^n) sum |f|^p)^{1/p}, so
the all-ones function has norm 1 at every order and ||P||_1 = q^{-n} for any
pmf P.  Entropies and divergences are reported in base-q symbols.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bounds import _bit_probability, _integer_order, _order, two_point_renyi
from .caps import DEFAULT_CAPS, Caps, CapExceeded
from .codes import LinearCode, codeword_indices
from .field import (
    FieldSpec,
    FqMatrix,
    digit_table,  # traced site, see field.digit_table
    q_powers,
    _image_rows,
    _rank_array,
    _span_basis_columns,
)

__all__ = [
    "DensePmf",
    "ProductBernoulli",
    "lp_norm",
    "lp_norms",
    "renyi_entropy",
    "renyi_divergence",
    "convolve",
    "code_pmf",
    "pushforward",
    "bernoulli_syndrome_excess",
]

_PMF_SUM_TOL = 1e-12
_QPMF_MAGIC = b"QPMF"
# table entries per batch of a stacked computation (512 KiB of int64 or float64)
_BATCH_ENTRIES = 1 << 16
# the Walsh-Hadamard stages that pair entries closer than this run transposed
_SHORT_BLOCK = 16


@dataclass(frozen=True, eq=False)
class DensePmf:
    """Probability mass function stored densely over all q**n points."""

    field: FieldSpec
    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        size = self.field.q ** self.n
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.shape != (size,):
            raise ValueError(f"probs shape {arr.shape} != ({size},)")
        if arr.min(initial=0.0) < -1e-12:
            raise ValueError(f"negative probability {arr.min()} at index {int(arr.argmin())}")
        arr = np.maximum(arr, 0.0)  # a new array, which this pmf alone holds
        total = float(arr.sum())
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return self.field.q ** self.n

    def to_dense(self, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        """Already dense: returns self, so every Source densifies the same way."""
        return self

    @classmethod
    def _check_size(cls, q: int, n: int, caps: Caps, what: str = "dense pmf") -> int:
        # q^n >= 2^n exceeds the cap once n passes its bit length; past 64 bits as
        # well, the cost is named by its formula, as the integer may be too big to form
        if n > max(64, caps.dense_pmf_entries.bit_length()):
            raise CapExceeded(what, f"{q}^{n}", caps.dense_pmf_entries)
        return caps.admit(what, q ** n, "dense_pmf_entries")

    @classmethod
    def uniform(cls, field: FieldSpec, n: int, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        return cls.flat(field, n, cls._check_size(field.q, n, caps), caps)

    @classmethod
    def flat(cls, field: FieldSpec, n: int, support_size: int,
             caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        """Uniform on the first support_size indices."""
        size = cls._check_size(field.q, n, caps)
        if not 1 <= support_size <= size:
            raise ValueError(f"support size {support_size} out of range [1, {size}]")
        probs = np.zeros(size)
        probs[:support_size] = 1.0 / support_size
        return cls(field, n, probs)

    def write_qpmf(self, path) -> None:
        """b"QPMF", then uint32 q and n and the q^n float64 probabilities, little-endian."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", _QPMF_MAGIC, self.field.q, self.n))
            fh.write(self.probs.astype("<f8").tobytes())

    @classmethod
    def read_qpmf(cls, path, caps: Caps = DEFAULT_CAPS,
                  space: tuple[int, int] | None = None) -> "DensePmf":
        """The pmf write_qpmf wrote, its header checked (against the expected
        (q, n) space, if given) and q^n admitted before the payload."""
        with open(path, "rb") as fh:
            head = fh.read(12)
            if len(head) < 12 or head[:4] != _QPMF_MAGIC:
                raise ValueError("not a QPMF blob")
            _, q, n = struct.unpack("<4sII", head)
            info = os.fstat(fh.fileno())
            # only a regular file's size counts its entries; any other (a pipe) is read first
            rest = None if stat.S_ISREG(info.st_mode) else fh.read()
            entries = (info.st_size - 12 if rest is None else len(rest)) // 8
            # untrusted header: n > bit_length(entries) implies q**n > entries, refused unformed
            if n > entries.bit_length() or q ** n != entries:
                raise ValueError(f"QPMF payload has {entries} entries, expected {q}**{n}")
            if space not in (None, (q, n)):
                raise ValueError(f"file holds a pmf on F_{q}^{n}, "
                                 f"expected F_{space[0]}^{space[1]}")
            cls._check_size(q, n, caps)
            payload = np.frombuffer(fh.read() if rest is None else rest, dtype="<f8")
        return cls(FieldSpec(q), n, payload.astype(np.float64))


@dataclass(frozen=True)
class ProductBernoulli:
    """n iid bits, each equal to 1 with probability delta (field F_2)."""

    delta: float
    n: int

    def __post_init__(self) -> None:
        _bit_probability(self.delta)
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")

    @property
    def field(self) -> FieldSpec:
        return FieldSpec(2)

    def to_dense(self, caps: Caps = DEFAULT_CAPS) -> DensePmf:
        n = self.n
        size = DensePmf._check_size(2, n, caps)
        weights = np.zeros(size, dtype=np.int64)  # popcount of each index, by doubling
        for j in range(n):
            weights[1 << j:2 << j] = weights[:1 << j] + 1
        # one probability per weight, read off by each index's weight
        e = np.arange(n + 1)
        by_weight = _signed_power(self.delta, e) * _signed_power(1.0 - self.delta, n - e)
        return DensePmf(self.field, n, by_weight[weights])


Source = Union[DensePmf, ProductBernoulli]


def _signed_power(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** exponents for integer exponents, correct for negative bases."""
    exponents = np.asarray(exponents)
    mag = np.abs(base) ** exponents.astype(np.float64)
    if base >= 0.0:
        return mag
    sign = np.where(exponents % 2 == 0, 1.0, -1.0)
    return sign * mag


def lp_norm(values: np.ndarray, order: float) -> float:
    """Averaged p-norm of a function given by its value table."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-dimensional value table")
    return float(lp_norms(arr[None], order)[0])


def lp_norms(rows: np.ndarray, order: float) -> np.ndarray:
    """Averaged p-norm of each row of a (T, size) table of function values.

    The means run along each row as they would over that row alone, and the
    1/p-th power is taken one float64 scalar at a time, so entry t equals
    lp_norm(rows[t], order) bit for bit.
    """
    p = _order(order)
    arr = np.abs(np.asarray(rows, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("expected a (T, size) table with nonempty rows")
    if math.isinf(p):
        return arr.max(axis=1)
    # a row sum over the row count is what np.mean computes, without its overhead
    return np.array([m ** (1.0 / p) for m in (arr ** p).sum(axis=1) / arr.shape[1]])


def renyi_entropy(P: Source, order: float) -> float:
    """Order-p entropy in base-q symbols; p = 1 Shannon, p = inf min-entropy."""
    p = _order(order)
    if isinstance(P, ProductBernoulli):
        return P.n * two_point_renyi(P.delta, p)
    lnq = math.log(P.field.q)
    probs = P.probs[P.probs > 0.0]
    if p == 1.0:
        return float(-np.sum(probs * np.log(probs)) / lnq)
    if math.isinf(p):
        return -math.log(float(probs.max())) / lnq
    return math.log(float(np.sum(probs ** p))) / ((1.0 - p) * lnq)


def renyi_divergence(P: DensePmf, Q: DensePmf, order: float) -> float:
    """Order-p divergence D_p(P || Q) in base-q symbols.

    Requires support(P) within support(Q); the first offending index is named
    otherwise.
    """
    p = _order(order)
    if P.field != Q.field or P.n != Q.n:
        raise ValueError("divergence needs two pmfs on the same space")
    mask = P.probs > 0.0
    bad = mask & (Q.probs <= 0.0)
    if bad.any():
        raise ValueError(f"support violation: P has mass at index {int(np.argmax(bad))} "
                         "where Q has none")
    lnq = math.log(P.field.q)
    ps = P.probs[mask]
    qs = Q.probs[mask]
    if p == 1.0:
        return float(np.sum(ps * np.log(ps / qs)) / lnq)
    if math.isinf(p):
        return float(np.log(np.max(ps / qs)) / lnq)
    return float(np.log(np.sum(ps ** p * qs ** (1.0 - p))) / ((p - 1.0) * lnq))


def _character_transform(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """Character transform sum_x f(x) w^{-<a, x>}, w = e^{2 pi i / q}, of a value
    table on F_q^n, as a (q,)*n array; a (..., q^n) stack of tables gives a
    (..., q, ..., q) stack, each entry that of its own table.

    For q = 2 it is the Walsh-Hadamard transform, taken in float64 by the
    in-place butterfly (Fino & Algazi 1976) one coordinate at a time from
    coordinate 0, the order fftn takes the axes in, so it equals
    fftn(...).real bit for bit. The q = 2 result is a real float64 array; for
    q > 2 it is complex.
    """
    lead = np.shape(values)[:-1]
    if q != 2:
        return np.fft.fftn(np.reshape(values, lead + (q,) * n), axes=tuple(range(-n, 0)))
    out = np.array(values, dtype=np.float64).reshape(-1)
    sums = np.empty(out.size // 2)
    # a pair block never crosses a table, so the stages run over the whole stack;
    # the stages that pair entries fewer than _SHORT_BLOCK apart run on the
    # (block, size / block) transpose, where they pair whole contiguous rows
    done, block = 0, min(_SHORT_BLOCK, 2 ** n)
    if out.size > block:
        width = out.size // block
        short = out.reshape(width, block).T.copy()
        done = block.bit_length() - 1
        _butterfly_stages(short.reshape(-1), sums, range(done), width)
        out = short.T.reshape(-1)
    _butterfly_stages(out, sums, range(done, n), 1)
    return out.reshape(lead + (2,) * n)


def _butterfly_stages(flat: np.ndarray, sums: np.ndarray, bits: range, width: int) -> None:
    """The in-place Walsh-Hadamard stages of coordinates bits of a flat float64
    array whose coordinate j steps width 2^j entries: each pair (low, high)
    becomes (low + high, low - high), with sums as scratch."""
    for bit in bits:
        pairs = flat.reshape(-1, 2, width << bit)
        low, high = pairs[:, 0], pairs[:, 1]
        total = np.add(low, high, out=sums.reshape(low.shape))
        np.subtract(low, high, out=high)
        low[...] = total


def _convolve_transformed(probs: np.ndarray, transformed: np.ndarray, q: int,
                          n: int) -> np.ndarray:
    """Each pmf of a (..., q^n) stack on F_q^n convolved with the pmf whose
    character transform is given, the stacks broadcast against each other:
    the inverse transform of T(P) * transformed, clamped at 0, as a
    (..., q^n) stack."""
    product = _character_transform(probs, q, n) * transformed
    lead = product.shape[:product.ndim - n]
    if q == 2:
        out = _character_transform(product.reshape(lead + (-1,)), 2, n) * 2.0 ** -n
    else:
        out = np.fft.ifftn(product, axes=tuple(range(-n, 0))).real
    return np.maximum(out.reshape(lead + (-1,)), 0.0)


def convolve(P: DensePmf, Q: DensePmf) -> DensePmf:
    """Distribution of X + Y for independent X ~ P, Y ~ Q on F_q^n, as the
    inverse character transform of the product of the two transforms."""
    if P.field != Q.field or P.n != Q.n:
        raise ValueError("convolution needs two pmfs on the same space")
    q, n = P.field.q, P.n
    transformed = _character_transform(Q.probs, q, n)
    return DensePmf(P.field, n, _convolve_transformed(P.probs, transformed, q, n))


def code_pmf(code: LinearCode, caps: Caps = DEFAULT_CAPS) -> DensePmf:
    """Uniform distribution over the codewords of a code."""
    size = DensePmf._check_size(code.field.q, code.n, caps)
    probs = np.zeros(size)
    probs[codeword_indices(code, caps)] = 1.0 / code.field.q ** code.k
    return DensePmf(code.field, code.n, probs)


def _syndrome_rows(q: int, probs: np.ndarray, columns: np.ndarray, m: int,
                   caps: Caps) -> np.ndarray:
    """Pmf of H z for z ~ P, one row per full-row-rank (m, n) map H mod q, as
    a (T, q^m) array; the maps are their (T, n) column indices q_powers(q, m) @ H.
    probs holds P's q^n probabilities: 1-D for one source that every map
    pushes forward, or (T, q^n) with row t the source of map t.  Neither the
    rank nor the length of probs is checked: the callers pass maps that have
    full rank by construction, and sources on their space.

    The syndromes are counted a batch of rows at a time, one bincount over
    row-offset syndrome indices per batch of about _BATCH_ENTRIES index
    entries, through an image table of the first q^j points, those up to the
    last one with mass.  At q = 2, one source uniform on those 2^j > 2^m
    points (flat:j, or uniform at j = n) is uniform on the span S of the
    first j coordinates, and H z is uniform on H(S).  So is the image of the
    uniform pmf on F_2^m through an m-column basis of H(S)
    (field._span_basis_columns), whose table has 2^m entries, not 2^j; its
    points are counted unweighted and each count c scaled to c 2^-m.  The
    rows are the same bit for bit: with r = rank H_S, every bin of H(S) adds
    2^(j-r) copies of 2^-j on the one route and is 2^(m-r) 2^-m on the
    other, and each is exact.  Above q = 2 the sums of
    fl(q^-j) round, so the table route counts them.
    """
    count, n = columns.shape
    shared = probs.ndim == 1
    if m == 0:
        return np.ones((count, 1))
    out_size = DensePmf._check_size(q, m, caps)
    # points past the last one with mass add nothing to any bin, so the table
    # covers the first q^j points only: the image of the first j columns
    j = n
    while j and not probs[..., q ** (j - 1):].any():
        j -= 1
    size = q ** j
    basis = q == 2 and shared and j > m and (probs[:size] == 1.0 / size).all()
    if basis:
        columns, j, size = _span_basis_columns(columns[:, :j], m), m, out_size
    batch = max(1, _BATCH_ENTRIES // size)
    # one weight row per row of a batch: the one source, repeated, or the row's
    # own; the basis route scales its counts instead
    weights = (None if basis else np.tile(probs[:size], min(batch, count)) if shared
               else probs[:, :size])
    scale = 1.0 / out_size if basis else 1.0
    out = np.empty((count, out_size))
    for first in range(0, count, batch):
        table = _image_rows(q, columns[first:first + batch, :j], m)
        rows = min(batch, count - first)
        # int64 bin indices, row t offset by t q^m, from a table of a smaller type
        idx = np.add(table, out_size * np.arange(rows)[:, None], dtype=np.int64)
        rows_weights = (None if basis else weights[:idx.size] if shared
                        else weights[first:first + rows].reshape(-1))
        counts = np.bincount(idx.reshape(-1), weights=rows_weights, minlength=rows * out_size)
        np.multiply(counts.reshape(rows, out_size), scale, out=out[first:first + rows])
    return out


def _product_syndrome_rows(delta: float | np.ndarray, columns: np.ndarray,
                           m: int) -> np.ndarray:
    """Pmf of H z for z ~ Bernoulli(delta)^n, one row per binary (m, n) map H,
    as a (T, 2^m) array, without the 2^n source; the maps are their (T, n)
    column indices q_powers(2, m) @ H, and delta is one bit probability for
    every map or a (T, 1) column of them, one per map.

    Each bit z_j adds column h_j of H with probability delta, independently,
    so from the point mass at 0 the column steps
    D <- (1 - delta) D + delta D[s xor h_j] give the syndrome pmf in n 2^m
    operations per map.  Every entry is computed on its own, so a row equals
    the one-map call bit for bit.  Neither the rank nor delta is checked: the
    callers pass sampled full-rank maps and a ProductBernoulli's delta.
    """
    count, n = columns.shape
    if m == 0:
        return np.ones((count, 1))
    # flat index t 2^m + s of each entry; as h_j < 2^m, xor with h_j moves s alone
    points = np.arange(count << m).reshape(count, 1 << m)
    out = np.zeros((count, 1 << m))
    out[:, 0] = 1.0
    keep = 1.0 - delta
    idx, shifted = np.empty_like(points), np.empty_like(out)
    for j in range(n):
        np.bitwise_xor(points, columns[:, j, None], out=idx)
        # every index is in range; "clip" writes to out without a buffer copy
        np.take(out, idx, out=shifted, mode="clip")
        shifted *= delta
        out *= keep
        out += shifted
    return out


def pushforward(P: DensePmf, H: FqMatrix, caps: Caps = DEFAULT_CAPS) -> DensePmf:
    """Distribution of H z for z ~ P; H must have full row rank.  The field,
    then the rank, then the input length are checked."""
    if H.field != P.field:
        raise ValueError("pmf and map live over different fields")
    q, m = P.field.q, H.rows
    if _rank_array(H.array, q) != m:
        raise ValueError("map is rank deficient; output space would be oversized")
    if H.cols != P.n:
        raise ValueError(f"map expects length-{H.cols} inputs, pmf is on length {P.n}")
    return DensePmf(P.field, m, _syndrome_rows(q, P.probs, (q_powers(q, m) @ H.array)[None],
                                               m, caps)[0])


def _dual_weights(columns: np.ndarray, nk: int) -> np.ndarray:
    """Hamming weights of a H for every message a, in message-index order, for
    the binary (nk, n) parity check H whose little-endian column indices
    q_powers(2, nk) @ H are given.

    With c the histogram of the column indices, n - 2 wt(a H) is the
    Walsh-Hadamard transform of c at a (MacWilliams duality).
    """
    counts = np.bincount(columns, minlength=1 << nk)
    signed = _character_transform(counts, 2, nk).reshape(-1)
    return np.rint((len(columns) - signed) / 2).astype(np.int64)


def _powers_by_weight(base: float, weights: np.ndarray) -> np.ndarray:
    """_signed_power(base, weights) bit for bit, from one power per distinct
    weight: each entry is the same power of the same operands, read from a
    table indexed by weight.  weights is a nonempty int64 array of
    nonnegative entries."""
    present = np.flatnonzero(np.bincount(weights))
    table = np.zeros(present[-1] + 1)
    table[present] = _signed_power(base, present)
    return table[weights]


def _admit_dual_sum(n: int, nk: int, p: int, caps: Caps) -> int:
    """The cost of bernoulli_syndrome_excess at order p on a length-n code
    with nk syndrome bits, if it fits the caps: the column histogram, one
    transform (two at p > 2) and p - 2 power passes."""
    size = 1 << nk
    cost = n + (1 if p == 2 else 2) * size * nk + (p - 2) * size
    return caps.admit("dual character sum", cost, "tuple_products")


def bernoulli_syndrome_excess(code: LinearCode, delta: float, p: int,
                              caps: Caps = DEFAULT_CAPS) -> float:
    """||q^{n-k} P_{HZ}||_p^p - 1 for Z ~ Bernoulli(delta)^n, without forming
    the source densely.

    The syndrome has character values g(a) = (1 - 2 delta)^{wt(a H)}, so
    q^{n-k} P_{HZ} = 1 + e with e the transform of g off a = 0, whose excess
    _deviation_excesses takes (at p = 2 by Parseval, sum_{a != 0} g(a)^2),
    accurate down to subnormal magnitudes.  Binary field, integer p >= 2.
    The one-delta, one-order call of _syndrome_excesses.
    """
    if code.field.q != 2:
        raise ValueError("dual-character route requires the binary field")
    _integer_order(p)
    _bit_probability(delta)
    nk = code.n - code.k
    _admit_dual_sum(code.n, nk, p, caps)
    return _syndrome_excesses(q_powers(2, nk) @ code.H.array, nk, (delta,), (p,))[0][0]


def _syndrome_excesses(columns: np.ndarray, nk: int, deltas: Sequence[float],
                       orders: Sequence[int]) -> list[list[float]]:
    """bernoulli_syndrome_excess of the code of the binary (nk, n) parity
    check with little-endian column indices columns, for every delta (rows)
    and integer order (columns), from one set of dual weights, equal to the
    one-item calls.  The callers check the inputs and admit each order's cost."""
    weights = _dual_weights(columns, nk)
    out = []
    for delta in deltas:
        g = _powers_by_weight(1.0 - 2.0 * delta, weights)
        second = float(np.sum(g[1:] ** 2))  # mean(e^2) by Parseval, with no transform
        if max(orders) > 2:  # e = 2^{nk} P_{HZ} - 1, the transform of g off a = 0
            e = _character_transform(np.concatenate(([0.0], g[1:])), 2, nk).reshape(1, -1)
        out.append([second if p == 2 else float(_deviation_excesses(e, p, second)[0])
                    for p in orders])
    return out


def _deviation_excesses(e: np.ndarray, p: float, second=None) -> np.ndarray:
    """The excess mean((1 + e)^p) - 1 of each row, on its own, of a (T, size) table of
    deviations e = size P - 1, first-order term p mean(e) = 0 dropped: at integer p >= 2
    sum_{j >= 2} C(p, j) mean(e^j) (mean(e^2) is `second` if given), past p = 4 only where
    p max|e| <= 1, as its terms cancel elsewhere; max e at p = inf; at p = 1 mean((1 + e)
    log1p(e) - e) (0 log 0 = 0); else mean(expm1(p log1p(e)) - p e).  Floor: P's rounding."""
    if math.isinf(p):
        return e.max(axis=1)
    near = p == int(p) and p >= 2 and (p <= 4 or p * np.abs(e).max(axis=1) <= 1.0)
    if np.all(near):  # past j = 24, p max|e| <= 1 keeps each term below the sum's rounding
        power = e * e
        total = math.comb(int(p), 2) * (power.mean(axis=1) if second is None else second)
        for j in range(3, min(int(p), 24) + 1):
            power *= e
            total = total + math.comb(int(p), j) * power.mean(axis=1)
        return total
    positive = e > -1.0  # log1p(-1) = -inf where P is 0, and 0 log 0 = 0
    log = np.log1p(e, out=np.full_like(e, -np.inf), where=positive)
    if p == 1.0:
        return (np.multiply(1.0 + e, log, out=np.zeros_like(e), where=positive) - e).mean(axis=1)
    out = (np.expm1(p * log) - p * e).mean(axis=1)
    if np.any(near):  # integer p > 4: the moment sum where it does not cancel
        out[near] = _deviation_excesses(e[near], p, second)
    return out
