"""The four benchmark workloads: inputs from the seed, timed program calls, output checks.

Each workload has three steps.  `prepare(seed)` builds inputs with the
benchmark's own generator and is not timed.  `run(inputs)` makes the timed
calls into synhash and returns their outputs.  `check(inputs, outputs)`
returns one verdict per operation and is not timed either.  The program is
always called through its module attributes, so a traced pass sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from synhash import caps, codes, distributions, field, rm_lab, suite, verify

import oracles

F2 = field.FieldSpec(2)


REFUSED = object()  # the output of an operation the caps refused


def attempt(fn: Callable, *args, **kwargs):
    """Call fn; a cap refusal becomes REFUSED, which every check counts as a failure."""
    try:
        return fn(*args, **kwargs)
    except caps.CapExceeded:
        return REFUSED


def _passed(result) -> bool:
    return result is not REFUSED and bool(result.passed)


def _seed_only(seed: int) -> dict:
    return {"seed": seed}


def _random_pmf(rng: np.random.Generator, q: int, n: int) -> distributions.DensePmf:
    raw = rng.random(q ** n) + 1e-9
    return distributions.DensePmf(field.FieldSpec(q), n, raw / raw.sum())


# -- suite: the full acceptance battery ---------------------------------------

def _suite_run(inputs: dict) -> dict:
    return {"results": attempt(suite.run_acceptance, inputs["seed"])}


def _suite_check(inputs: dict, outputs: dict) -> tuple[list[bool], dict]:
    results = outputs["results"]
    names = suite.ACCEPTANCE_NAMES
    if results is REFUSED:
        return [False] * len(names), {}
    got = {r.name: r.passed for r in results}
    # the positive checks must hold and both negative controls must fail
    verdicts = [name in got and got[name] != ("negative-control" in name) for name in names]
    return verdicts, {}


# -- mc-large: few pushforwards of 2^18- and 2^20-point pmfs ------------------

MC_N, MC_K, MC_DELTA, MC_TRIALS = 20, 10, 0.3, 8
FLAT_N, FLAT_SUPPORT_BITS, FLAT_EPS, FLAT_TRIALS = 18, 14, 0.25, 16


def _mc_run(inputs: dict) -> dict:
    seed = inputs["seed"]
    spec = codes.CodeEnsembleSpec(F2, MC_N, MC_K, seed)
    smooth = attempt(verify.mc_expected_smoothness, spec,
                     distributions.ProductBernoulli(MC_DELTA, MC_N), 2, MC_TRIALS,
                     collision=True)
    flat = distributions.DensePmf.flat(F2, FLAT_N, 1 << FLAT_SUPPORT_BITS)
    bucket = attempt(verify.mc_bucket_linf, flat, FLAT_EPS, FLAT_TRIALS, seed=seed)
    return {"smooth": smooth, "bucket": bucket}


def _mc_check(inputs: dict, outputs: dict) -> tuple[list[bool], dict]:
    seed = inputs["seed"]
    smooth, bucket = outputs["smooth"], outputs["bucket"]
    smooth_ok = _passed(smooth)
    if smooth_ok:
        # the mean collision norm from pushforward must equal the dual
        # character sum averaged over the same trial codes
        spec = codes.CodeEnsembleSpec(F2, MC_N, MC_K, seed)
        excess = [distributions.bernoulli_syndrome_excess(
                      codes.sample_uniform_code(spec, t), MC_DELTA, 2)
                  for t in range(MC_TRIALS)]
        smooth_ok = oracles.close(1.0 + smooth.parameters["mean"],
                                  1.0 + math.fsum(excess) / MC_TRIALS, 1e-9)
    bucket_ok = _passed(bucket)
    if bucket_ok:
        m = math.floor(FLAT_SUPPORT_BITS - FLAT_N * FLAT_EPS)
        spec = codes.CodeEnsembleSpec(F2, FLAT_N, FLAT_N - m, seed)
        prefixes = [codes.sample_uniform_code(spec, t).H.array[:, :FLAT_SUPPORT_BITS]
                    for t in range(FLAT_TRIALS)]
        loads = [oracles.flat_bucket_scaled_max(m, oracles.gf2_rank(h)) for h in prefixes]
        bucket_ok = (bucket.parameters["m"] == m
                     and bucket.parameters["mean"] == sum(loads) / FLAT_TRIALS)
    return [smooth_ok, bucket_ok], {}


# -- rm-sweep: the dual character sum of RM(m-2, m), m = 4..12 ---------------

RM_M = tuple(range(4, 13))
RM_DELTAS = (0.1, 0.25, 0.4)


def _rm_run(inputs: dict) -> dict:
    runs = []
    for delta in RM_DELTAS:
        spec = rm_lab.RmExperimentSpec(RM_M, "m-2", delta, 2.0, "dual-character")
        runs.append(attempt(rm_lab.rm_convergence_run, spec))
    return {"runs": runs}


def rm_row_verdict(row, m: int, delta: float) -> tuple[bool, bool]:
    """(row matches the RM(1, m) dual enumerator, true divergence underflows float64)."""
    k = oracles.rm_code_dimension(m - 2, m)
    rate = k / 2 ** m
    shape_ok = (row.m == m and row.n == 2 ** m and row.k == k and row.delta == delta
                and row.above_threshold == (rate > oracles.collision_rate_threshold(delta)))
    log2_div = oracles.rm1_dual_log2_divergence(m, delta)
    if log2_div < oracles.LOG2_NORMAL_MIN:
        # float64 cannot hold the true value; it can only read 0.0 or subnormal
        return shape_ok and 0.0 <= row.divergence < 2.0 ** oracles.LOG2_NORMAL_MIN, True
    return shape_ok and oracles.close(row.divergence, 2.0 ** log2_div, 1e-9), False


def _rm_check(inputs: dict, outputs: dict) -> tuple[list[bool], dict]:
    verdicts, underflow = [], 0
    for delta, rows in zip(RM_DELTAS, outputs["runs"]):
        if rows is REFUSED or len(rows) != len(RM_M):
            verdicts += [False] * len(RM_M)
            continue
        for m, row in zip(RM_M, rows):
            ok, low = rm_row_verdict(row, m, delta)
            verdicts.append(ok)
            underflow += low
    return verdicts, {"rm_lab.underflow_rows": underflow}


# -- exact: exhaustive-ensemble checks one size above the suite ----------------

def _exact_prepare(seed: int) -> dict:
    rng = np.random.default_rng((seed, 7))
    return {
        "seed": seed,
        "smooth_q2": [_random_pmf(rng, 2, 6) for _ in (2, 3)],
        "smooth_q3": _random_pmf(rng, 3, 4),
        "projection": [_random_pmf(rng, 2, 13) for _ in range(10)],
        "pairs": [tuple(int(v) for v in rng.integers(0, 32, size=2)) for _ in range(4)],
    }


def _exact_run(inputs: dict) -> dict:
    seed = inputs["seed"]
    out = {"codes": attempt(lambda: list(codes.enumerate_all_codes(F2, 7, 3)))}
    checks = [attempt(verify.exact_expected_smoothness, 6, 3, 2, p, P)
              for p, P in zip((2, 3), inputs["smooth_q2"])]
    checks.append(attempt(verify.exact_expected_smoothness, 4, 2, 3, 2, inputs["smooth_q3"]))
    checks.append(attempt(verify.check_p_balanced, 5, 2, 2, 3))
    checks += [attempt(verify.check_balanced_identity, 5, 2, 2, 2, f_seed=seed + i)
               for i in range(3)]
    ens = codes.CodeEnsembleSpec(F2, 13, 6, seed)
    for t, P in enumerate(inputs["projection"]):
        code = codes.sample_uniform_code(ens, t)
        checks.append(attempt(verify.check_projection_identity, code, P))
    checks += [attempt(verify.check_tuple_probability, 5, 2, 2, pair)
               for pair in inputs["pairs"]]
    out["checks"] = checks
    return out


def enumeration_verdict(all_codes, n: int, k: int) -> bool:
    """Every [n, k]_2 code exactly once: the subspace count, distinct codeword
    sets, and a parity check of full rank orthogonal to each generator."""
    if all_codes is REFUSED or len(all_codes) != oracles.gaussian_binomial_2(n, k):
        return False
    msgs = np.array([[(i >> b) & 1 for b in range(k)] for i in range(2 ** k)])
    weights = 1 << np.arange(n)
    seen = set()
    for code in all_codes:
        G, H = code.G.array, code.H.array
        if H.shape != (n - k, n) or ((G @ H.T) % 2).any() or oracles.gf2_rank(H) != n - k:
            return False
        seen.add(frozenset(((msgs @ G) % 2 @ weights).tolist()))
    return len(seen) == len(all_codes)


def _exact_check(inputs: dict, outputs: dict) -> tuple[list[bool], dict]:
    verdicts = [enumeration_verdict(outputs["codes"], 7, 3)]
    verdicts += [_passed(r) for r in outputs["checks"]]
    return verdicts, {}


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], dict]
    run: Callable[[dict], dict]
    check: Callable[[dict, dict], tuple[list[bool], dict]]


WORKLOADS = {
    "suite": Workload(_seed_only, _suite_run, _suite_check),
    "mc-large": Workload(_seed_only, _mc_run, _mc_check),
    "rm-sweep": Workload(_seed_only, _rm_run, _rm_check),
    "exact": Workload(_exact_prepare, _exact_run, _exact_check),
}
