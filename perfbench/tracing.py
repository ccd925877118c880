"""Spans around the program's layer functions, and the per-layer metrics made from them.

The tracer wraps each function where its callers look it up: synhash modules
import names from each other directly, so replacing only the defining
module's attribute would miss most calls.  Spans are kept in memory and
written out when the pass ends.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict

# metric name -> the (module, attribute) sites callers look it up at.
# "field.rank" covers rank and its array form _rank_array, which is what the
# code sampler and pushforward call.
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "field.rank": (("codes", "rank"), ("codes", "_rank_array"),
                   ("distributions", "_rank_array"), ("verify", "_rank_array")),
    "field.kernel_basis": (("codes", "kernel_basis"),),
    "field.rref": (("codes", "rref"),),
    "field.digit_table": (("codes", "digit_table"), ("distributions", "digit_table"),
                          ("verify", "digit_table")),
    "codes.sample_uniform_code": (("codes", "sample_uniform_code"),
                                  ("verify", "sample_uniform_code"),
                                  ("suite", "sample_uniform_code")),
    "codes.enumerate_all_codes": (("codes", "enumerate_all_codes"),
                                  ("verify", "enumerate_all_codes")),
    "codes.codeword_indices": (("verify", "codeword_indices"),
                               ("distributions", "codeword_indices")),
    "codes.reed_muller_code": (("rm_lab", "reed_muller_code"),),
    "distributions.pushforward": (("verify", "pushforward"), ("rm_lab", "pushforward")),
    "distributions.ProductBernoulli.to_dense": (("distributions", "ProductBernoulli.to_dense"),),
    "distributions.bernoulli_syndrome_excess": (("rm_lab", "bernoulli_syndrome_excess"),),
    "distributions.convolve": (("verify", "convolve"),),
    "distributions.code_pmf": (("verify", "code_pmf"),),
    "distributions.lp_norm": (("verify", "lp_norm"), ("distributions", "lp_norm")),
    "rm_lab.rm_divergence": (("rm_lab", "rm_divergence"), ("suite", "rm_divergence")),
}

# the check functions the workloads call, looked up in verify and in suite
CHECKS = (
    "check_balanced_identity", "check_p_balanced", "check_tuple_probability",
    "check_projection_identity", "exact_expected_smoothness", "mc_expected_smoothness",
    "check_proximity_conversions", "check_clarkson", "mc_bucket_linf",
    "negative_control_unbalanced", "negative_control_overdraw",
)
for _check in CHECKS:
    SITES[f"verify.{_check}"] = (("verify", _check), ("suite", _check))

GENERATORS = {"codes.enumerate_all_codes"}
MIB = float(1 << 20)


def _pushforward_bytes(args, result) -> float:
    P, H = args[0], args[1]
    return 8.0 * P.size * (P.n + H.rows)  # int64 digit rows plus syndrome rows


def _to_dense_bytes(args, result) -> float:
    return float(result.probs.nbytes)


def _excess_products(args, result) -> float:
    code, p = args[0], args[2]
    size = 2 ** (code.n - code.k)
    return float(size * (code.n - code.k) * code.n + max(p - 2, 0) * size * size)


# spans of these names also record peak traced allocation and one computed figure
MEASURED = {
    "distributions.pushforward": ("bytes", _pushforward_bytes),
    "distributions.ProductBernoulli.to_dense": ("pmf_bytes", _to_dense_bytes),
    "distributions.bernoulli_syndrome_excess": ("products", _excess_products),
}

# (stat, unit) per function name; every function gets calls and self_s
EXTRA_STATS = {
    "distributions.pushforward": (("peak_alloc_mib", "MiB"), ("bytes", "computed_B")),
    "distributions.ProductBernoulli.to_dense": (("peak_alloc_mib", "MiB"),
                                                ("amplification", "ratio")),
    "distributions.bernoulli_syndrome_excess": (("peak_alloc_mib", "MiB"),
                                                ("products", "computed_count")),
}
COUNTERS = (("rm_lab.underflow_rows", "count"), ("caps.refused", "count"),
            ("trace.overhead_s", "s"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in SITES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{stat}", unit) for stat, unit in EXTRA_STATS.get(name, ())]
    return out + list(COUNTERS)


class Tracer:
    """Records one span per call of each wrapped function.

    A span is [name, start, end, parent index, extra]; extra holds the peak
    traced allocation and computed figure for the MEASURED names.
    """

    def __init__(self, refusal_type: type[BaseException], clock=time.perf_counter):
        self.spans: list[list] = []
        self.refused = 0
        self._refusal_type = refusal_type
        self._seen_refusals: list[BaseException] = []
        self._stack: list[int] = []
        self._clock = clock
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> list[str]:
        """Wrap every site found in `modules`; returns the sites that were missing."""
        missing = []
        for name, sites in SITES.items():
            for module_name, attr in sites:
                owner = modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                wrap = self.wrap_generator if name in GENERATORS else self.wrap
                setattr(owner, leaf, wrap(name, original))
                self._restore.append((owner, leaf, original))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._stack.pop()

    def _note_refusal(self, exc: BaseException) -> None:
        # a refusal propagates through every enclosing span; count it once
        if not any(seen is exc for seen in self._seen_refusals):
            self._seen_refusals.append(exc)
            self.refused += 1

    def wrap(self, name: str, fn):
        measured = MEASURED.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            # peaks are taken at the outermost measured span only
            own_malloc = measured is not None and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except self._refusal_type as exc:
                self._note_refusal(exc)
                raise
            finally:
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(idx)
            if measured is not None:
                stat, compute = measured
                extra = {stat: compute(args, result)}
                if own_malloc:
                    extra["peak_alloc_mib"] = peak / MIB
                self.spans[idx][4] = extra
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Spans cover the time spent inside each next(), not the consumer's work."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except self._refusal_type as exc:
                    self._note_refusal(exc)
                    raise
                finally:
                    self._close(idx)
                yield item

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_stats(spans) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed as in per_layer_metrics()."""
    stats: dict[str, float] = {}
    for name in SITES:
        stats[f"{name}.calls"] = 0
        stats[f"{name}.self_s"] = 0.0
        for stat, _ in EXTRA_STATS.get(name, ()):
            stats[f"{name}.{stat}"] = 0.0
    largest_pmf = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, extra = span[0], span[4]
        if name not in SITES:
            continue
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += own
        if not extra:
            continue
        peak = extra.get("peak_alloc_mib", 0.0)
        key = f"{name}.peak_alloc_mib"
        stats[key] = max(stats[key], peak)
        if "bytes" in extra:
            stats[f"{name}.bytes"] += extra["bytes"]
        if "products" in extra:
            stats[f"{name}.products"] += extra["products"]
        if "pmf_bytes" in extra and extra["pmf_bytes"] >= largest_pmf:
            # amplification at the largest pmf built, where the first call also
            # fills the digit-table cache; small pmfs are all fixed overhead
            key = f"{name}.amplification"
            if extra["pmf_bytes"] > largest_pmf:
                largest_pmf, stats[key] = extra["pmf_bytes"], 0.0
            stats[key] = max(stats[key], peak * MIB / largest_pmf)
    return stats


def median_stats(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each stat over passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
