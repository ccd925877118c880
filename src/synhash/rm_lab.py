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

from .bounds import _bit_probability, _order, rm_threshold, two_point_renyi
from .caps import DEFAULT_CAPS, Caps, CapExceeded
# reed_muller_code, pushforward and bernoulli_syndrome_excess are the object
# routes the grid replaces; nothing here calls them, but they stay imported as
# traced sites: perfbench/tracing.py wraps them here
from .codes import reed_muller_code, reed_muller_dimensions, rm_parity_check
from .distributions import (
    DensePmf,
    bernoulli_syndrome_excess,
    pushforward,
    renyi_entropy,
    _admit_dual_sum,
    _bernoulli_probs,
    _syndrome_excesses,
    _syndrome_rows,
)
from .field import FieldSpec

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
    return _rm_divergence_grid(m, r, (delta,), (p,), (method,), caps)[0][0][0]


def _rm_divergence_grid(m: int, r: int, deltas: Sequence[float], orders: Sequence[float],
                        methods: Sequence[str], caps: Caps) -> list[list[list[float]]]:
    """rm_divergence for every method, delta and order, as
    [method][delta][order], from one RM(r, m) parity check, equal to the
    one-item calls bit for bit.  Every input is checked and every cost
    admitted before the parity check is built; the dense route pushes the
    stacked sources through one image table of it.  The parity check has full
    rank by construction (tests/test_codes.py checks it), so it is not
    eliminated again."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    for method in methods:
        if method not in ("dense", "dual-character"):
            raise ValueError(f"unknown method {method!r}")
    orders = [_order(p) for p in orders]
    if "dual-character" in methods and any(math.isinf(p) or p != int(p) or p < 2
                                           for p in orders):
        raise ValueError("dual-character method needs an integer order >= 2")
    for delta in deltas:
        _bit_probability(delta)
    n, k = reed_muller_dimensions(r, m)
    if n == k:
        return [[[0.0] * len(orders) for _ in deltas] for _ in methods]
    for method in methods:
        if method == "dense":
            DensePmf._check_size(2, n, caps)
        else:
            for p in orders:
                _admit_dual_sum(n, n - k, int(p), caps)
    H = rm_parity_check(r, m).array
    out = []
    for method in methods:
        if method == "dense":
            syndromes = _syndrome_rows(2, _bernoulli_probs(deltas, n, caps), H[None], caps)
            pmfs = [DensePmf(FieldSpec(2), n - k, row) for row in syndromes]
            out.append([[n - k - renyi_entropy(syn, p) for p in orders] for syn in pmfs])
        else:
            excess = _syndrome_excesses(H, deltas, [int(p) for p in orders])
            out.append([[math.log1p(x) / ((p - 1.0) * math.log(2.0)) for p, x in zip(orders, row)]
                        for row in excess])
    return out


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


def intrinsic_gap(row: RmResultRow) -> float:
    """Per-symbol entropy of the noise minus the fraction actually extracted."""
    return two_point_renyi(row.delta, row.p) - row.extraction_rate


def rows_to_csv(rows: Sequence[RmResultRow]) -> str:
    """Render rows as CSV, one line per row under a CSV_COLUMNS header: bools
    in lower case, floats by repr, everything else as it is."""
    def cell(v):
        if isinstance(v, bool):
            return str(v).lower()
        return repr(v) if isinstance(v, float) else v
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([cell(v) for v in astuple(row)])
    return buf.getvalue()
