"""Distributions on F_q^n and their uniformity measures.

Norms follow the averaging convention ||f||_p = ((1/q^n) sum |f|^p)^{1/p}, so
the all-ones function has norm 1 at every order and ||P||_1 = q^{-n} for any
pmf P.  Entropies and divergences are reported in base-q symbols.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import two_point_renyi
from .caps import DEFAULT_CAPS, Caps, CapExceeded
from .codes import LinearCode, codeword_indices
from .field import FieldSpec, FqMatrix, digit_table, image_indices, q_powers, _rank_array

__all__ = [
    "RenyiOrder",
    "ORDER_ONE",
    "ORDER_INF",
    "DensePmf",
    "ProductBernoulli",
    "lp_norm",
    "renyi_entropy",
    "renyi_divergence",
    "lp_smoothness",
    "tv_distance",
    "convolve",
    "code_pmf",
    "pushforward",
    "bernoulli_syndrome_norm",
    "bernoulli_syndrome_excess",
]

_PMF_SUM_TOL = 1e-12
_QPMF_MAGIC = b"QPMF"


@dataclass(frozen=True)
class RenyiOrder:
    """Order parameter p: 1, an integer >= 2, infinity, or a positive real != 1."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (v > 0.0):
            raise ValueError(f"order must be positive, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def of(cls, order: Union["RenyiOrder", int, float]) -> "RenyiOrder":
        if isinstance(order, RenyiOrder):
            return order
        return cls(float(order))

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def integer(self) -> int | None:
        """The value as an integer >= 2 when it is one, else None."""
        if math.isfinite(self.value) and self.value >= 2 and self.value == int(self.value):
            return int(self.value)
        return None


ORDER_ONE = RenyiOrder(1.0)
ORDER_INF = RenyiOrder(math.inf)

OrderLike = Union[RenyiOrder, int, float]


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
        arr = np.maximum(arr, 0.0)
        total = float(arr.sum())
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return self.field.q ** self.n

    def to_dense(self, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        """Already dense: returns self, so every Source densifies the same way."""
        return self

    @classmethod
    def _check_size(cls, field: FieldSpec, n: int, caps: Caps) -> int:
        size = field.q ** n
        if size > caps.dense_pmf_entries:
            raise CapExceeded("dense pmf", size, caps.dense_pmf_entries)
        return size

    @classmethod
    def uniform(cls, field: FieldSpec, n: int, caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        size = cls._check_size(field, n, caps)
        return cls(field, n, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, field: FieldSpec, n: int, index: int = 0,
                   caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        size = cls._check_size(field, n, caps)
        probs = np.zeros(size)
        probs[index] = 1.0
        return cls(field, n, probs)

    @classmethod
    def flat(cls, field: FieldSpec, n: int, support_size: int,
             caps: Caps = DEFAULT_CAPS) -> "DensePmf":
        """Uniform on the first support_size indices."""
        size = cls._check_size(field, n, caps)
        if not 1 <= support_size <= size:
            raise ValueError(f"support size {support_size} out of range [1, {size}]")
        probs = np.zeros(size)
        probs[:support_size] = 1.0 / support_size
        return cls(field, n, probs)

    def to_json_dict(self) -> dict:
        return {"q": self.field.q, "n": self.n, "probs": self.probs.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensePmf":
        return cls(FieldSpec(int(data["q"])), int(data["n"]),
                   np.asarray(data["probs"], dtype=np.float64))

    @classmethod
    def from_json(cls, text: str) -> "DensePmf":
        return cls.from_json_dict(json.loads(text))

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
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")

    @property
    def field(self) -> FieldSpec:
        return FieldSpec(2)

    def to_dense(self, caps: Caps = DEFAULT_CAPS) -> DensePmf:
        size = DensePmf._check_size(self.field, self.n, caps)
        weights = np.zeros(size, dtype=np.int64)  # popcount of each index, by doubling
        for j in range(self.n):
            weights[1 << j:2 << j] = weights[:1 << j] + 1
        probs = _signed_power(self.delta, weights) * _signed_power(1.0 - self.delta,
                                                                   self.n - weights)
        return DensePmf(self.field, self.n, probs)


Source = Union[DensePmf, ProductBernoulli]


def _signed_power(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** exponents for integer exponents, correct for negative bases."""
    exponents = np.asarray(exponents)
    mag = np.abs(base) ** exponents.astype(np.float64)
    if base >= 0.0:
        return mag
    sign = np.where(exponents % 2 == 0, 1.0, -1.0)
    return sign * mag


def lp_norm(values: np.ndarray, order: OrderLike) -> float:
    """Averaged p-norm of a function given by its value table."""
    order = RenyiOrder.of(order)
    arr = np.abs(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-dimensional value table")
    if order.is_inf:
        return float(arr.max())
    if order.is_one:
        return float(arr.mean())
    p = order.value
    return float(np.mean(arr ** p) ** (1.0 / p))


def _entropy_power_sum(probs: np.ndarray, p: float) -> float:
    mask = probs > 0.0
    return float(np.sum(probs[mask] ** p))


def renyi_entropy(P: Source, order: OrderLike) -> float:
    """Order-p entropy in base-q symbols; p = 1 Shannon, p = inf min-entropy."""
    order = RenyiOrder.of(order)
    if isinstance(P, ProductBernoulli):
        return P.n * two_point_renyi(P.delta, order.value)
    q = P.field.q
    lnq = math.log(q)
    probs = P.probs
    if order.is_one:
        mask = probs > 0.0
        return float(-np.sum(probs[mask] * np.log(probs[mask])) / lnq)
    if order.is_inf:
        return -math.log(float(probs.max())) / lnq
    p = order.value
    return math.log(_entropy_power_sum(probs, p)) / ((1.0 - p) * lnq)


def renyi_divergence(P: DensePmf, Q: DensePmf, order: OrderLike) -> float:
    """Order-p divergence D_p(P || Q) in base-q symbols.

    Requires support(P) within support(Q); the first offending index is named
    otherwise.
    """
    order = RenyiOrder.of(order)
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
    if order.is_one:
        return float(np.sum(ps * np.log(ps / qs)) / lnq)
    if order.is_inf:
        return float(np.log(np.max(ps / qs)) / lnq)
    p = order.value
    return float(np.log(np.sum(ps ** p * qs ** (1.0 - p))) / ((p - 1.0) * lnq))


def lp_smoothness(P: DensePmf, order: OrderLike) -> float:
    """Distance of P from uniform as a norm overshoot: ||q^n P||_p - 1.

    Identically zero at p = 1, so that order is rejected.
    """
    order = RenyiOrder.of(order)
    if order.value <= 1.0:
        raise ValueError("smoothness needs p > 1 (it is identically 0 at p = 1)")
    return lp_norm(P.size * P.probs, order) - 1.0


def tv_distance(P: DensePmf, Q: DensePmf) -> float:
    """Total variation distance (1/2) sum |P - Q|."""
    if P.field != Q.field or P.n != Q.n:
        raise ValueError("distance needs two pmfs on the same space")
    return float(0.5 * np.abs(P.probs - Q.probs).sum())


def _character_transform(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """Character transform sum_x f(x) w^{-<a, x>}, w = e^{2 pi i / q}, of a value
    table on F_q^n, as a (q,)*n array; for q = 2 it is the Walsh-Hadamard
    transform."""
    return np.fft.fftn(values.reshape((q,) * n))


def convolve(P: DensePmf, Q: DensePmf) -> DensePmf:
    """Distribution of X + Y for independent X ~ P, Y ~ Q on F_q^n, as the
    inverse character transform of the product of the two transforms."""
    if P.field != Q.field or P.n != Q.n:
        raise ValueError("convolution needs two pmfs on the same space")
    q, n = P.field.q, P.n
    product = _character_transform(P.probs, q, n) * _character_transform(Q.probs, q, n)
    probs = np.fft.ifftn(product).real.reshape(-1)
    return DensePmf(P.field, n, np.maximum(probs, 0.0))


def code_pmf(code: LinearCode, caps: Caps = DEFAULT_CAPS) -> DensePmf:
    """Uniform distribution over the codewords of a code."""
    size = DensePmf._check_size(code.field, code.n, caps)
    probs = np.zeros(size)
    probs[codeword_indices(code, caps)] = 1.0 / code.field.q ** code.k
    return DensePmf(code.field, code.n, probs)


def pushforward(P: DensePmf, H: FqMatrix, caps: Caps = DEFAULT_CAPS) -> DensePmf:
    """Distribution of H z for z ~ P; H must have full row rank."""
    if H.field != P.field:
        raise ValueError("pmf and map live over different fields")
    if H.cols != P.n:
        raise ValueError(f"map expects length-{H.cols} inputs, pmf is on length {P.n}")
    q, m = P.field.q, H.rows
    if _rank_array(H.array, q) != m:
        raise ValueError("map is rank deficient; output space would be oversized")
    if m == 0:
        return DensePmf(P.field, 0, np.ones(1))
    out_size = DensePmf._check_size(P.field, m, caps)
    out = np.bincount(image_indices(H), weights=P.probs, minlength=out_size)
    return DensePmf(P.field, m, out)


def _dual_weights(code: LinearCode) -> np.ndarray:
    """Hamming weights of a H for every message a, in message-index order.

    With c the histogram of H's column indices, n - 2 wt(a H) is the
    Walsh-Hadamard transform of c at a (MacWilliams duality).
    """
    nk = code.n - code.k
    counts = np.bincount(code.H.array.T @ q_powers(2, nk), minlength=1 << nk)
    signed = _character_transform(counts, 2, nk).real.reshape(-1)
    return np.rint((code.n - signed) / 2).astype(np.int64)


def bernoulli_syndrome_excess(code: LinearCode, delta: float, p: int,
                              caps: Caps = DEFAULT_CAPS) -> float:
    """||q^{n-k} P_{HZ}||_p^p - 1 for Z ~ Bernoulli(delta)^n, without forming
    the source densely.

    The syndrome has character values g(a) = (1 - 2 delta)^{wt(a H)}, so
    q^{n-k} P_{HZ} = 1 + e with e the transform of g off a = 0, and the excess
    is sum_{j >= 2} C(p, j) mean(e^j).  The j = 2 term is sum_{a != 0} g(a)^2
    (Parseval).  No term is cancelled against 1, so the result stays accurate
    down to subnormal magnitudes.  Binary field, integer p >= 2.
    """
    if code.field.q != 2:
        raise ValueError("dual-character route requires the binary field")
    if not (isinstance(p, int) and p >= 2):
        raise ValueError(f"integer order p >= 2 required, got {p}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    nk = code.n - code.k
    size = 1 << nk
    # column histogram, one transform (two at p > 2), p - 2 power passes
    cost = code.n + (1 if p == 2 else 2) * size * nk + (p - 2) * size
    if cost > caps.tuple_products:
        raise CapExceeded("dual character sum", cost, caps.tuple_products)
    g = _signed_power(1.0 - 2.0 * delta, _dual_weights(code))
    total = math.comb(p, 2) * float(np.sum(g[1:] ** 2))
    if p > 2:
        h = g.copy()
        h[0] = 0.0
        e = _character_transform(h, 2, nk).real
        power = e * e
        for j in range(3, p + 1):
            power *= e
            total += math.comb(p, j) * float(power.mean())
    return total


def bernoulli_syndrome_norm(code: LinearCode, delta: float, p: int,
                            caps: Caps = DEFAULT_CAPS) -> float:
    """||q^{n-k} P_{HZ}||_p^p for Z ~ Bernoulli(delta)^n, via the dual character sum."""
    return 1.0 + bernoulli_syndrome_excess(code, delta, p, caps)
