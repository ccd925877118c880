"""Distributions on F_q^n and their uniformity measures.

Norms follow the averaging convention ||f||_p = ((1/q^n) sum |f|^p)^{1/p}, so
the all-ones function has norm 1 at every order and ||P||_1 = q^{-n} for any
pmf P.  Entropies and divergences are reported in base-q symbols.
"""

from __future__ import annotations

import math
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
)

__all__ = [
    "DensePmf",
    "ProductBernoulli",
    "lp_norm",
    "lp_norms",
    "renyi_entropy",
    "renyi_divergence",
    "lp_smoothness",
    "tv_distance",
    "convolve",
    "code_pmf",
    "pushforward",
    "bernoulli_syndrome_excess",
]

_PMF_SUM_TOL = 1e-12
_QPMF_MAGIC = b"QPMF"
# table entries per batch of a stacked computation (512 KiB of int64 or float64)
_BATCH_ENTRIES = 1 << 16


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
    def _check_size(cls, q: int, n: int, caps: Caps) -> int:
        # q^n >= 2^n exceeds the cap once n passes its bit length; past 64 bits as
        # well, the cost is named by its formula, as the integer may be too big to form
        if n > max(64, caps.dense_pmf_entries.bit_length()):
            raise CapExceeded("dense pmf", f"{q}^{n}", caps.dense_pmf_entries)
        return caps.admit("dense pmf", q ** n, "dense_pmf_entries")

    @classmethod
    def uniform(cls, field: FieldSpec, n: int, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        size = cls._check_size(field.q, n, caps)
        return cls(field, n, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, field: FieldSpec, n: int, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        """All mass on the zero vector."""
        size = cls._check_size(field.q, n, caps)
        probs = np.zeros(size)
        probs[0] = 1.0
        return cls(field, n, probs)

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

    def to_qpmf_bytes(self) -> bytes:
        header = struct.pack("<4sII", _QPMF_MAGIC, self.field.q, self.n)
        return header + self.probs.astype("<f8").tobytes()

    @classmethod
    def from_qpmf_bytes(cls, blob: bytes) -> "DensePmf":
        if len(blob) < 12 or blob[:4] != _QPMF_MAGIC:
            raise ValueError("not a QPMF blob")
        _, q, n = struct.unpack("<4sII", blob[:12])
        payload = np.frombuffer(blob, dtype="<f8", offset=12)
        entries = payload.shape[0]
        # untrusted header: n > bit_length(entries) implies q**n > entries, refused unformed
        if n > entries.bit_length() or q ** n != entries:
            raise ValueError(f"QPMF payload has {entries} entries, expected {q}**{n}")
        return cls(FieldSpec(q), n, payload.astype(np.float64))

    def write_qpmf(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_qpmf_bytes())

    @classmethod
    def read_qpmf(cls, path) -> "DensePmf":
        with open(path, "rb") as fh:
            return cls.from_qpmf_bytes(fh.read())


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
        return DensePmf(self.field, self.n, _bernoulli_probs([self.delta], self.n, caps)[0])


Source = Union[DensePmf, ProductBernoulli]


def _bernoulli_probs(deltas: Sequence[float], n: int, caps: Caps) -> np.ndarray:
    """The (S, 2^n) probabilities of S product sources of length n, row s
    that of ProductBernoulli(deltas[s], n).to_dense(), from one popcount table."""
    size = DensePmf._check_size(2, n, caps)
    weights = np.zeros(size, dtype=np.int64)  # popcount of each index, by doubling
    for j in range(n):
        weights[1 << j:2 << j] = weights[:1 << j] + 1
    # one probability per weight, read off by each index's weight
    e = np.arange(n + 1)
    by_weight = np.array([_signed_power(delta, e) * _signed_power(1.0 - delta, n - e)
                          for delta in deltas])
    return np.take(by_weight, weights, axis=1)


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
    if p == 1.0:
        return arr.sum(axis=1) / arr.shape[1]
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


def lp_smoothness(P: DensePmf, order: float) -> float:
    """Distance of P from uniform as a norm overshoot: ||q^n P||_p - 1.

    Identically zero at p = 1, so that order is rejected.
    """
    if _order(order) <= 1.0:
        raise ValueError("smoothness needs p > 1 (it is identically 0 at p = 1)")
    return lp_norm(P.size * P.probs, order) - 1.0


def tv_distance(P: DensePmf, Q: DensePmf) -> float:
    """Total variation distance (1/2) sum |P - Q|."""
    if P.field != Q.field or P.n != Q.n:
        raise ValueError("distance needs two pmfs on the same space")
    return float(0.5 * np.abs(P.probs - Q.probs).sum())


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
    # a pair block never crosses a table, so the stages run over the whole stack
    half = 1
    while half < 2 ** n:
        pairs = out.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        total = np.add(low, high, out=sums.reshape(low.shape))
        np.subtract(low, high, out=high)
        low[...] = total
        half *= 2
    return out.reshape(lead + (2,) * n)


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


def _syndrome_rows(q: int, probs: np.ndarray, maps: np.ndarray, caps: Caps) -> np.ndarray:
    """Pmf of H z for z ~ P, one row per H in a (T, m, n) stack of full-row-rank
    maps mod q, as a (T, q^m) array.  probs holds P's q^n probabilities: 1-D
    for one source that every map pushes forward, or (T, q^n) with row t the
    source of map t.  A (1, m, n) stack with (T, q^n) probs pushes every
    source through its one map, from one image table.  Neither the rank nor
    the length of probs is checked: the callers pass maps that have full rank
    by construction, and sources on their space.

    The syndromes are counted a batch of rows at a time, one bincount over
    row-offset syndrome indices per batch of about _BATCH_ENTRIES index entries.
    """
    _, m, n = maps.shape
    shared = probs.ndim == 1
    one_map = len(maps) == 1 and not shared
    count = len(probs) if one_map else len(maps)
    if m == 0:
        return np.ones((count, 1))
    out_size = DensePmf._check_size(q, m, caps)
    # points past the last one with mass add nothing to any bin, so the table
    # covers the first q^j points only: the image of the first j columns
    j = n
    while j and not probs[..., q ** (j - 1):].any():
        j -= 1
    size = q ** j
    batch = max(1, _BATCH_ENTRIES // size)
    # one weight row per row of a batch: the one source, repeated, or the row's own
    weights = np.tile(probs[:size], min(batch, count)) if shared else probs[:, :size]
    table = _image_rows(q, maps[:, :, :j]) if one_map else None
    out = np.empty((count, out_size))
    for first in range(0, count, batch):
        if not one_map:
            table = _image_rows(q, maps[first:first + batch, :, :j])
        rows = min(batch, count - first)
        # int64 bin indices, row t offset by t q^m, from a table of a smaller type
        idx = np.add(table, out_size * np.arange(rows)[:, None], dtype=np.int64)
        rows_weights = weights[:idx.size] if shared else weights[first:first + rows].reshape(-1)
        out[first:first + rows] = np.bincount(idx.reshape(-1), weights=rows_weights,
                                              minlength=rows * out_size).reshape(rows, out_size)
    return out


def pushforward(P: DensePmf, H: FqMatrix, caps: Caps = DEFAULT_CAPS) -> DensePmf:
    """Distribution of H z for z ~ P; H must have full row rank.  The field,
    then the rank, then the input length are checked."""
    if H.field != P.field:
        raise ValueError("pmf and map live over different fields")
    if _rank_array(H.array, P.field.q) != H.rows:
        raise ValueError("map is rank deficient; output space would be oversized")
    if H.cols != P.n:
        raise ValueError(f"map expects length-{H.cols} inputs, pmf is on length {P.n}")
    return DensePmf(P.field, H.rows, _syndrome_rows(P.field.q, P.probs, H.array[None], caps)[0])


def _dual_weights(H: np.ndarray) -> np.ndarray:
    """Hamming weights of a H for every message a, in message-index order, for
    a binary (n - k, n) parity check H.

    With c the histogram of H's column indices, n - 2 wt(a H) is the
    Walsh-Hadamard transform of c at a (MacWilliams duality).
    """
    nk, n = H.shape
    counts = np.bincount(H.T @ q_powers(2, nk), minlength=1 << nk)
    signed = _character_transform(counts, 2, nk).reshape(-1)
    return np.rint((n - signed) / 2).astype(np.int64)


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
    q^{n-k} P_{HZ} = 1 + e with e the transform of g off a = 0, and the excess
    is sum_{j >= 2} C(p, j) mean(e^j).  The j = 2 term is sum_{a != 0} g(a)^2
    (Parseval).  No term is cancelled against 1, so the result stays accurate
    down to subnormal magnitudes.  Binary field, integer p >= 2.  The
    one-delta, one-order call of _syndrome_excesses.
    """
    if code.field.q != 2:
        raise ValueError("dual-character route requires the binary field")
    _integer_order(p)
    _bit_probability(delta)
    _admit_dual_sum(code.n, code.n - code.k, p, caps)
    return _syndrome_excesses(code.H.array, (delta,), (p,))[0][0]


def _syndrome_excesses(H: np.ndarray, deltas: Sequence[float],
                       orders: Sequence[int]) -> list[list[float]]:
    """bernoulli_syndrome_excess of the code of a binary (n - k, n) parity
    check H for every delta (rows) and integer order (columns), from one set
    of dual weights, equal to the one-item calls.  The callers check the
    inputs and admit each order's cost."""
    nk = H.shape[0]
    weights = _dual_weights(H)
    out = []
    for delta in deltas:
        g = _signed_power(1.0 - 2.0 * delta, weights)
        row = []
        for p in orders:
            total = math.comb(p, 2) * float(np.sum(g[1:] ** 2))
            if p > 2:
                h = g.copy()
                h[0] = 0.0
                e = _character_transform(h, 2, nk)
                power = e * e
                for j in range(3, p + 1):
                    power *= e
                    total += math.comb(p, j) * float(power.mean())
            row.append(total)
        out.append(row)
    return out
