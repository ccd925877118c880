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
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .bounds import _bit_probability, _order, rm_threshold
from .caps import DEFAULT_CAPS, Caps, CapExceeded
# reed_muller_code, pushforward and bernoulli_syndrome_excess are the object
# routes the grid replaces; nothing here calls them, but they stay imported as
# traced sites: perfbench/tracing.py wraps them here
from .codes import reed_muller_code, reed_muller_dimensions, _rm_parity_columns
from .distributions import (
    DensePmf,
    bernoulli_syndrome_excess,
    pushforward,
    _admit_dual_sum,
    _deviation_excesses,
    _product_syndrome_rows,
    _syndrome_excesses,
)

__all__ = [
    "RmExperimentSpec",
    "RmResultRow",
    "parse_r_rule",
    "rm_divergence",
    "rm_convergence_run",
    "rows_to_csv",
    "CSV_COLUMNS",
]

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


CSV_COLUMNS = tuple(f.name for f in fields(RmResultRow))


def rm_divergence(m: int, r: int, delta: float, p: float, method: str,
                  caps: Caps = DEFAULT_CAPS) -> float:
    """Divergence (base 2) of the RM(r, m) syndrome of Bernoulli(delta) noise
    at order p.

    method "dense" materializes the full syndrome pmf and works for any order
    >= 1 including inf; "dual-character" sums characters over the dual code
    and needs an integer order >= 2, but scales to much larger m.  The
    one-item call of _rm_divergence_grid.
    """
    return _rm_divergence_grid(m, r, (delta,), (p,), method, caps)[0][0]


def _rm_divergence_grid(m: int, r: int, deltas: Sequence[float], orders: Sequence[float],
                        method: str, caps: Caps) -> list[list[float]]:
    """rm_divergence by one method for every delta and order, as
    [delta][order], from one RM(r, m) parity check, equal to the one-item
    calls bit for bit.  Every input is checked and every cost admitted before
    the code is built.  The dense route takes each delta's 2^{n-k} syndrome
    pmf P by the n column steps of distributions._product_syndrome_rows through
    codes._rm_parity_columns, the column indices of a parity check of full rank
    by construction (tests/test_codes.py checks it), so it is not eliminated
    again, and scores 2^{n-k} P - 1 by distributions._deviation_excesses; the
    dual route reads the same columns."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if method not in ("dense", "dual-character"):
        raise ValueError(f"unknown method {method!r}")
    orders = [_order(p) for p in orders]
    if method != "dense" and any(math.isinf(p) or p != int(p) or p < 2 for p in orders):
        raise ValueError("dual-character method needs an integer order >= 2")
    for delta in deltas:
        _bit_probability(delta)
    n, k = reed_muller_dimensions(r, m)
    if n == k:
        return [[0.0] * len(orders) for _ in deltas]
    if method == "dense":
        size = DensePmf._check_size(2, n - k, caps)
        caps.admit("column steps", n * size, "tuple_products")
        # every delta in one call: row i steps its own copy of the columns by delta i
        columns = _rm_parity_columns(r, m)
        e = size * _product_syndrome_rows(np.array(deltas, dtype=float)[:, None],
                                          np.tile(columns, (len(deltas), 1)), n - k) - 1.0
        excess = np.transpose([_deviation_excesses(e, p) for p in orders]).tolist()
    else:
        for p in orders:
            _admit_dual_sum(n, n - k, int(p), caps)
        excess = _syndrome_excesses(_rm_parity_columns(r, m), n - k, deltas,
                                    [int(p) for p in orders])
    # bits: log1p(x) / (p - 1); x itself (nats) at p = 1 and log1p(max e) at p = inf
    return [[x / math.log(2.0) if p == 1.0 else
             math.log1p(x) / ((1.0 if math.isinf(p) else p - 1.0) * math.log(2.0))
             for p, x in zip(orders, row)] for row in excess]


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
    rows = []
    for m, r in zip(ms, orders):
        started = time.perf_counter()
        try:
            divergence = rm_divergence(m, r, spec.delta, spec.p, spec.method, caps)
        except CapExceeded:
            divergence = math.nan
        seconds = time.perf_counter() - started
        n, k = reed_muller_dimensions(r, m)
        rate = k / n
        rows.append(RmResultRow(
            m=m, n=n, k=k, rate=rate, syndrome_bits=n - k,
            extraction_rate=1.0 - rate,
            delta=spec.delta, p=float(spec.p), divergence=divergence,
            threshold=threshold, above_threshold=rate > threshold,
            method=spec.method, seconds=seconds))
    return rows


def _csv_cell(v) -> str:
    """One CSV cell: None empty, bools in lower case, floats by repr,
    everything else by str."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    return repr(v) if isinstance(v, float) else str(v)


def rows_to_csv(rows: Sequence[RmResultRow]) -> str:
    """Render rows as CSV, one line per row under a CSV_COLUMNS header, each
    value by _csv_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in astuple(row)])
    return buf.getvalue()
