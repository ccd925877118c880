"""Reed-Muller syndrome convergence experiments.

Sweeps a family RM(r(m), m) against a memoryless binary noise source and
tracks the divergence of the syndrome distribution from uniform, next to the
rate threshold that separates convergent from divergent families.
"""

from __future__ import annotations

import csv
import io
import math
import re
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .bounds import rm_threshold, two_point_renyi
from .caps import DEFAULT_CAPS, Caps, CapExceeded
from .codes import reed_muller_code
from .distributions import (
    ProductBernoulli,
    bernoulli_syndrome_excess,
    pushforward,
    renyi_entropy,
)

__all__ = [
    "RmExperimentSpec",
    "RmResultRow",
    "parse_r_rule",
    "rm_divergence",
    "rm_convergence_run",
    "rows_to_csv",
    "intrinsic_gap",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("m", "n", "k", "rate", "syndrome_bits", "extraction_rate",
               "delta", "p", "divergence", "threshold", "above_threshold",
               "method", "seconds")

_R_RULE = re.compile(r"^(?:m-(\d+)|(\d+))$")


def parse_r_rule(rule: str) -> Callable[[int], int]:
    """Parse an order rule: "m-2" tracks the code length, "1" is constant."""
    match = _R_RULE.match(rule.strip())
    if match is None:
        raise ValueError(f"cannot parse order rule {rule!r}; expected 'm-<c>' or '<r>'")
    if match.group(1) is not None:
        offset = int(match.group(1))
        return lambda m: m - offset
    const = int(match.group(2))
    return lambda m: const


@dataclass(frozen=True)
class RmExperimentSpec:
    m_values: tuple[int, ...]
    r_rule: str = "m-2"
    delta: float = 0.25
    p: float = 2.0
    method: str = "dual-character"

    def __post_init__(self):
        if not self.m_values:
            raise ValueError("need at least one m value")
        if any(m < 1 for m in self.m_values):
            raise ValueError("m values must be positive")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.method not in ("dense", "dual-character"):
            raise ValueError(f"unknown method {self.method!r}")
        parse_r_rule(self.r_rule)


@dataclass(frozen=True)
class RmResultRow:
    m: int
    n: int
    k: int
    rate: float
    syndrome_bits: int
    extraction_rate: float
    delta: float
    p: float
    divergence: float
    threshold: float
    above_threshold: bool
    method: str
    seconds: float


def rm_divergence(m: int, r: int, delta: float, p: float, method: str,
                  caps: Caps = DEFAULT_CAPS) -> float:
    """Divergence (base 2) of the RM(r, m) syndrome of Bernoulli(delta) noise.

    method "dense" materializes the full syndrome pmf and works for any
    order >= 1 including inf; "dual-character" sums characters over the dual
    code and needs an integer order >= 2, but scales to much larger m.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    code = reed_muller_code(r, m)
    syndrome_bits = code.n - code.k
    if syndrome_bits == 0:
        return 0.0
    if method == "dense":
        dense = ProductBernoulli(delta, code.n).to_dense(caps)
        syn = pushforward(dense, code.H, caps)
        return syndrome_bits - renyi_entropy(syn, p)
    if method == "dual-character":
        if math.isinf(p) or p != int(p) or p < 2:
            raise ValueError("dual-character method needs an integer order >= 2")
        excess = bernoulli_syndrome_excess(code, delta, int(p), caps)
        return math.log1p(excess) / ((p - 1.0) * math.log(2.0))
    raise ValueError(f"unknown method {method!r}")


def _timed_divergence(m: int, r: int, delta: float, p: float, method: str,
                      caps: Caps) -> tuple[float, float]:
    started = time.perf_counter()
    try:
        divergence = rm_divergence(m, r, delta, p, method, caps)
    except CapExceeded:
        divergence = math.nan
    return divergence, time.perf_counter() - started


def rm_convergence_run(spec: RmExperimentSpec,
                       caps: Caps = DEFAULT_CAPS) -> list[RmResultRow]:
    """One row per m, sorted; a row whose cost exceeds the caps reports NaN."""
    rule = parse_r_rule(spec.r_rule)
    threshold = rm_threshold(spec.delta, spec.p, "smoothing-rate")
    ms = sorted(spec.m_values)
    orders = []
    for m in ms:
        r = rule(m)
        if not 0 <= r <= m:
            raise ValueError(f"rule {spec.r_rule!r} gives r={r} outside [0, {m}]")
        orders.append(r)
    outcomes = [_timed_divergence(m, r, spec.delta, spec.p, spec.method, caps)
                for m, r in zip(ms, orders)]
    rows = []
    for m, r, (divergence, seconds) in zip(ms, orders, outcomes):
        code = reed_muller_code(r, m)
        rate = code.k / code.n
        rows.append(RmResultRow(
            m=m, n=code.n, k=code.k, rate=rate,
            syndrome_bits=code.n - code.k,
            extraction_rate=1.0 - rate,
            delta=spec.delta, p=float(spec.p), divergence=divergence,
            threshold=threshold, above_threshold=rate > threshold,
            method=spec.method, seconds=seconds))
    return rows


def intrinsic_gap(row: RmResultRow) -> float:
    """Per-symbol entropy of the noise minus the fraction actually extracted."""
    return two_point_renyi(row.delta, row.p) - row.extraction_rate


def rows_to_csv(rows: Sequence[RmResultRow], stable: bool = False) -> str:
    """Render rows as CSV; stable=True zeroes the timing column so repeated
    runs with one configuration are byte-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        if stable:
            row = replace(row, seconds=0.0)
        writer.writerow([
            row.m, row.n, row.k, repr(row.rate), row.syndrome_bits,
            repr(row.extraction_rate), repr(row.delta), repr(row.p),
            repr(row.divergence), repr(row.threshold),
            str(row.above_threshold).lower(), row.method, repr(row.seconds),
        ])
    return buf.getvalue()
