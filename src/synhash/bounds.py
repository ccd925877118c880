"""Closed-form guarantee formulas for syndrome-hash randomness extraction.

Every function here is a pure formula; exponent arithmetic runs in log space
so desk-scale parameters with exponents in the hundreds stay finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field as dataclass_field

__all__ = [
    "BoundReport",
    "phi",
    "smoothing_bound_rhs",
    "nonlinear_bound_rhs",
    "stirling2",
    "main_guarantee",
    "max_output_length",
    "corollary_bounds",
    "collision_bound",
    "collision_loss",
    "collision_max_output",
    "generic_loss",
    "linf_bucket_bound",
    "two_point_renyi",
    "rm_threshold",
]


@dataclass(frozen=True)
class BoundReport:
    """A named bound value together with the inputs that produced it."""

    name: str
    inputs: dict = dataclass_field(default_factory=dict)
    value: float = math.nan
    satisfied_condition: bool | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _logq(x: float, q: int) -> float:
    return math.log(x) / math.log(q)


def _or_inf(f, *args) -> float:
    """f(*args), or inf where the value leaves float64's range."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _logsumexp(logs: list[float]) -> float:
    m = max(logs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in logs))


def _order(p: float) -> float:
    """An order as a float: 1 (Shannon), inf (min-entropy) or any other positive value."""
    p = float(p)
    if not p > 0.0:
        raise ValueError(f"order must be positive, got {p!r}")
    return p


def _integer_order(p: int) -> None:
    """The guarantees hold for every integer order p >= 2; refuse any other p."""
    if not (isinstance(p, int) and p >= 2):
        raise ValueError(f"integer order p >= 2 required, got {p}")


def _bit_probability(delta: float) -> None:
    """Refuse a coin bias outside [0, 1], NaN included."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")


def _field_size(q: int) -> None:
    """The closed forms hold over any F_q, prime or not; refuse a q that is
    not an integer >= 2."""
    if not (isinstance(q, int) and q >= 2):
        raise ValueError(f"field size q must be an integer >= 2, got {q}")


def _entropy(h: float) -> None:
    """Refuse an entropy that is NaN or infinite, where no closed form has a value."""
    if not math.isfinite(h):
        raise ValueError(f"entropy must be finite, got {h}")


def phi(p: float, eps: float) -> float:
    """Distance conversion from smoothness eps, split at p = 2; where a power
    overflows, a factored form of the same value."""
    if not p > 1.0:
        raise ValueError(f"order p must exceed 1.0, got {p}")
    if not math.isfinite(p):
        raise ValueError("phi is defined for finite p only")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    pp = p / (p - 1.0)
    try:
        if p >= 2:
            return 2.0 * (((1.0 + eps) ** p - 1.0) / 2.0) ** (1.0 / p)
        return 2.0 * ((((1.0 + eps) ** p + 1.0) / 2.0) ** (pp / p) - 1.0) ** (1.0 / pp)
    except OverflowError:  # past a power's range: a factored form
        log_power = p * math.log1p(eps)  # log (1+eps)^p
    if p >= 2:  # 2^{1-1/p} (1+eps) (1 - (1+eps)^{-p})^{1/p}
        return 2.0 ** (1.0 - 1.0 / p) * (1.0 + eps) * (-math.expm1(-log_power)) ** (1.0 / p)
    # 2 exp(L/p) (-expm1(-L/(p-1)))^{1/pp} with L = log(((1+eps)^p + 1) / 2) = log_power +
    # rest (logaddexp), where exp(L/p) = exp(rest/p) (1+eps) keeps a large eps's digits
    rest = math.log1p(math.exp(-log_power)) - math.log(2.0)
    return (2.0 * math.exp(rest / p) * (1.0 + eps)
            * (-math.expm1(-(log_power + rest) / (p - 1.0))) ** (1.0 / pp))


def smoothing_bound_rhs(n: int, k: int, q: int, p: int, entropy_p: float) -> float:
    """Ensemble average of the p-th power smoothed norm, bounded over span
    dimensions: sum_d C(p,d) q^{(p-d)(d + n - k - H_p)}."""
    _field_size(q)
    _integer_order(p)
    _entropy(entropy_p)
    lnq = math.log(q)
    logs = [math.log(math.comb(p, d)) + (p - d) * (d + n - k - entropy_p) * lnq
            for d in range(p + 1)]
    return _or_inf(math.exp, _logsumexp(logs))


@functools.cache
def stirling2(p: int, d: int) -> int:
    """Number of partitions of a p-set into d nonempty blocks (exact)."""
    if p == 0:
        return 1 if d == 0 else 0
    if d <= 0 or d > p:
        return 0
    return d * stirling2(p - 1, d) + stirling2(p - 1, d - 1)


def nonlinear_bound_rhs(n: int, k: int, q: int, p: int, entropy_p: float) -> float:
    """Budget for unstructured hash ensembles: sum_d S(p,d) q^{(p-d)(n-k-H_p)}.

    Never exceeds smoothing_bound_rhs at the same parameters; that comparison
    is asserted on every call.
    """
    _field_size(q)
    _integer_order(p)
    _entropy(entropy_p)
    lnq = math.log(q)
    logs = []
    for d in range(p + 1):
        s = stirling2(p, d)
        if s == 0:
            continue
        logs.append(math.log(s) + (p - d) * (n - k - entropy_p) * lnq)
    value = _or_inf(math.exp, _logsumexp(logs))
    linear = smoothing_bound_rhs(n, k, q, p, entropy_p)
    if value > linear * (1.0 + 1e-12):
        raise AssertionError(
            f"unstructured-ensemble budget {value} exceeds code-ensemble budget {linear}")
    return value


def main_guarantee(m: int, entropy_p: float, p: int, q: int,
                   eps: float | None = None) -> BoundReport:
    """Expected smoothness excess after hashing to m symbols: q^{m - H_p + p}.

    When a target eps is given, satisfied_condition reports whether the
    guarantee meets it.
    """
    _field_size(q)
    _integer_order(p)
    _entropy(entropy_p)
    value = _or_inf(math.exp, (m - entropy_p + p) * math.log(q))
    inputs = {"m": m, "entropy_p": entropy_p, "p": p, "q": q}
    satisfied = None
    if eps is not None:
        if not math.isfinite(eps):
            raise ValueError(f"eps must be finite, got {eps}")
        inputs["eps"] = eps
        satisfied = value <= eps
    return BoundReport("main-guarantee", inputs, value, satisfied)


def max_output_length(entropy_p: float, p: int, q: int, eps: float) -> int:
    """Largest m with q^{m - H_p + p} <= eps."""
    _field_size(q)
    _entropy(entropy_p)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return math.floor(entropy_p - p + _logq(eps, q))


def generic_loss(eps: float, p: int, q: int) -> float:
    """Entropy paid beyond the output length at any order: p + log_q(1/eps)."""
    _field_size(q)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return p - _logq(eps, q)


def corollary_bounds(eps: float, p: int, q: int) -> tuple[float, float]:
    """Divergence and distance conversions of a smoothness guarantee eps:
    (p eps / ((p-1) ln q), 2^{1-1/p} ((1+eps)^p - 1)^{1/p})."""
    _field_size(q)
    _integer_order(p)
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    d_bound = p * eps / ((p - 1) * math.log(q))
    try:
        dist_bound = 2.0 ** (1.0 - 1.0 / p) * ((1.0 + eps) ** p - 1.0) ** (1.0 / p)
    except OverflowError:  # phi's factored form of the same value
        dist_bound = phi(p, eps)
    return d_bound, dist_bound


def collision_bound(m: int, entropy_2: float, q: int) -> float:
    """Collision-order refinement: expected squared norm is at most 1 + q^{m - H_2}."""
    _field_size(q)
    _entropy(entropy_2)
    return 1.0 + _or_inf(math.exp, (m - entropy_2) * math.log(q))


def collision_loss(eps: float, q: int) -> float:
    """Entropy loss at collision order for target eps: log_q(1/((1+eps)^2 - 1)),
    with (1+eps)^2 - 1 taken as eps (2 + eps), which does not cancel at small
    eps; past about eps = 1.3e154, where that product overflows, as the sum of
    the two logarithms."""
    _field_size(q)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    product = eps * (2.0 + eps)
    if math.isinf(product):
        return -(_logq(eps, q) + _logq(2.0 + eps, q))
    return -_logq(product, q)


def collision_max_output(entropy_2: float, eps: float, q: int) -> int:
    """Largest m meeting a collision-order smoothness target eps."""
    _entropy(entropy_2)
    return math.floor(entropy_2 - collision_loss(eps, q))


def linf_bucket_bound(n: int, eps: float, q: int) -> float:
    """Expected max bucket overshoot with m = floor(H_inf - n eps):
    q^{2/eps} (1 + q^{-eps n / 2})."""
    _field_size(q)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    lnq = math.log(q)
    return _or_inf(math.exp, 2.0 / eps * lnq) * (1.0 + _or_inf(math.exp, -eps * n / 2.0 * lnq))


def two_point_renyi(delta: float, p: float) -> float:
    """Order-p entropy of a {delta, 1-delta} coin, in bits.

    p = 1 is the Shannon entropy, p = inf the min-entropy.
    """
    _bit_probability(delta)
    p = _order(p)
    if delta in (0.0, 1.0):
        return 0.0
    if p == 1:
        return -(delta * math.log2(delta) + (1.0 - delta) * math.log2(1.0 - delta))
    if math.isinf(p):
        return -math.log2(max(delta, 1.0 - delta))
    return math.log2(delta ** p + (1.0 - delta) ** p) / (1.0 - p)


def rm_threshold(delta: float, p: float, target: str = "smoothing-rate") -> float:
    """Rate threshold for Reed-Muller syndrome extraction on a delta-coin source.

    "smoothing-rate" is the code rate above which order-p divergence vanishes:
    1 - h_p(delta) for any real p >= 2 or inf, (1 - 2 delta)^2 for p = 1.
    "extraction-rate" is its complement, the achievable output rate.
    """
    if target not in ("smoothing-rate", "extraction-rate"):
        raise ValueError(f"unknown target {target!r}")
    _bit_probability(delta)
    if p == 1:
        rate = (1.0 - 2.0 * delta) ** 2
    elif math.isinf(p) or (isinstance(p, (int, float)) and p >= 2):
        rate = 1.0 - two_point_renyi(delta, p)
    else:
        raise ValueError(f"threshold defined for p = 1, p >= 2 or inf, got {p}")
    return rate if target == "smoothing-rate" else 1.0 - rate
