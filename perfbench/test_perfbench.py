"""Tests of the benchmark's own oracles and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from synhash import (CodeEnsembleSpec, DensePmf, FieldSpec, codes, gaussian_binomial,
                     pushforward, rank, rm_divergence, sample_uniform_code)
from synhash.field import FqMatrix
from synhash.rm_lab import RmResultRow

import oracles
import probe
import run
import tracing
import worker
import workloads

F2 = FieldSpec(2)


def test_rm1_closed_form_matches_suite_anchor():
    anchor = math.log1p(30.0 * 2.0 ** -16 + 2.0 ** -32) / math.log(2.0)
    assert 2.0 ** oracles.rm1_dual_log2_divergence(4, 0.25) == pytest.approx(anchor, rel=1e-12)
    assert 2.0 ** oracles.rm1_dual_log2_excess(4, 0.25) == pytest.approx(
        30.0 * 2.0 ** -16 + 2.0 ** -32, rel=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.4])
def test_rm1_closed_form_matches_dual_character_sum(delta):
    for m in range(3, 9):
        got = rm_divergence(m, m - 2, delta, 2, "dual-character")
        assert 2.0 ** oracles.rm1_dual_log2_divergence(m, delta) == pytest.approx(got, rel=1e-9)


def _row(m, delta, divergence):
    k = oracles.rm_code_dimension(m - 2, m)
    rate = k / 2 ** m
    threshold = oracles.collision_rate_threshold(delta)
    return RmResultRow(m, 2 ** m, k, rate, 2 ** m - k, 1 - rate, delta, 2.0, divergence,
                       threshold, rate > threshold, "dual-character", 0.0)


def test_rm_row_verdict_counts_underflow_without_failing_it():
    assert workloads.rm_row_verdict(_row(12, 0.25, 0.0), 12, 0.25) == (True, True)
    assert workloads.rm_row_verdict(_row(12, 0.25, 1e-3), 12, 0.25) == (False, True)
    true_value = 2.0 ** oracles.rm1_dual_log2_divergence(6, 0.25)
    assert workloads.rm_row_verdict(_row(6, 0.25, true_value), 6, 0.25) == (True, False)
    assert workloads.rm_row_verdict(_row(6, 0.25, 0.0), 6, 0.25) == (False, False)


def test_underflow_rows_at_the_sweep_are_the_known_seven():
    low = {(m, d) for d in workloads.RM_DELTAS for m in workloads.RM_M
           if oracles.rm1_dual_log2_divergence(m, d) < oracles.LOG2_NORMAL_MIN}
    assert low == {(12, 0.1), (11, 0.25), (12, 0.25), (9, 0.4), (10, 0.4), (11, 0.4), (12, 0.4)}


def test_collision_threshold_matches_two_point_entropy():
    from synhash import rm_threshold
    for delta in (0.1, 0.25, 0.4):
        assert oracles.collision_rate_threshold(delta) == pytest.approx(
            rm_threshold(delta, 2.0), rel=1e-12)


def test_flat_bucket_rank_formula_matches_pushforward():
    n, bits = 8, 5
    flat = DensePmf.flat(F2, n, 1 << bits)
    for m in (2, 4, 6):
        spec = CodeEnsembleSpec(F2, n, n - m, seed=3)
        for t in range(6):
            H = sample_uniform_code(spec, t).H
            scaled = 2.0 ** m * float(pushforward(flat, H).probs.max())
            assert scaled == oracles.flat_bucket_scaled_max(m, oracles.gf2_rank(H.array[:, :bits]))


def test_gf2_rank_and_subspace_count_agree_with_synhash():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.integers(0, 2, size=(int(rng.integers(1, 7)), int(rng.integers(1, 9))))
        assert oracles.gf2_rank(a) == rank(FqMatrix(F2, a))
    for n in range(1, 8):
        for k in range(n + 1):
            assert oracles.gaussian_binomial_2(n, k) == gaussian_binomial(n, k, 2)


def test_enumeration_verdict_needs_every_code_once():
    all_codes = list(codes.enumerate_all_codes(F2, 4, 2))
    assert workloads.enumeration_verdict(all_codes, 4, 2)
    assert not workloads.enumeration_verdict(all_codes[1:], 4, 2)
    assert not workloads.enumeration_verdict(all_codes[1:] + all_codes[:1] * 2, 4, 2)


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["c", 6.0, 7.0, 2, None],
        ["d", 6.5, 8.0, 2, None],   # overlaps c: b's children cover [6, 8]
        ["e", 9.5, 11.0, 0, None],  # runs past its parent: only [9.5, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 3.0, 2.0, 1.0, 1.5, 1.5])


def test_weighted_median_weights_each_probe_by_the_time_it_stands_for():
    # the slow probe stands for 3 of 5 s, so it is the median
    assert probe.weighted_median([(1.0, 0.002), (3.0, 0.004), (1.0, 0.001)]) == 0.004
    assert probe.weighted_median([(1.0, 0.002), (1.0, 0.004), (1.0, 0.001)]) == 0.002


def test_speed_sampler_probes_during_a_pass_and_restores_the_handler():
    sampler = probe.SpeedSampler()
    sampler.start()
    deadline = time.perf_counter() + 3.5 * probe.INTERVAL_S
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 2
    assert sampler.probe_cpu_s == pytest.approx(sum(p for _, p in sampler.samples))
    assert 0 < sampler.probe_cpu_s <= sampler.probe_wall_s * 1.01 + 1e-3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_layer_stats_sum_self_time_per_function():
    spans = [
        ["verify.mc_bucket_linf", 0.0, 10.0, -1, None],
        ["distributions.pushforward", 1.0, 3.0, 0, {"bytes": 100.0, "peak_alloc_mib": 2.0}],
        ["field.digit_table", 1.5, 2.0, 1, None],
        ["distributions.pushforward", 4.0, 5.0, 0, {"bytes": 50.0, "peak_alloc_mib": 3.0}],
        ["benchmark.unlisted", 6.0, 7.0, 0, None],
        ["distributions.ProductBernoulli.to_dense", 7.0, 7.5, 0,
         {"pmf_bytes": 1024.0, "peak_alloc_mib": 40.0 / 1024}],  # fills the cache
        ["distributions.ProductBernoulli.to_dense", 7.5, 8.0, 0,
         {"pmf_bytes": 1024.0, "peak_alloc_mib": 2.0 / 1024}],
        ["distributions.ProductBernoulli.to_dense", 8.0, 8.5, 0,
         {"pmf_bytes": 8.0, "peak_alloc_mib": 1.0 / 1024}],  # tiny: all overhead
    ]
    stats = tracing.layer_stats(spans)
    assert stats["verify.mc_bucket_linf.self_s"] == pytest.approx(10 - 2 - 1 - 1 - 1.5)
    assert stats["distributions.pushforward.calls"] == 2
    assert stats["distributions.pushforward.self_s"] == pytest.approx(1.5 + 1.0)
    assert stats["distributions.pushforward.bytes"] == 150.0
    assert stats["distributions.pushforward.peak_alloc_mib"] == 3.0
    assert stats["field.digit_table.self_s"] == pytest.approx(0.5)
    assert stats["distributions.ProductBernoulli.to_dense.amplification"] == pytest.approx(40.0)


class _Refused(RuntimeError):
    pass


def test_tracer_nests_spans_and_counts_a_refusal_once():
    ticks = iter(range(100))
    tracer = tracing.Tracer(_Refused, clock=lambda: float(next(ticks)))

    def inner():
        raise _Refused("over cap")

    def outer():
        return wrapped_inner()

    def gen():
        yield 1
        yield 2

    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_outer = tracer.wrap("outer", outer)
    with pytest.raises(_Refused):
        wrapped_outer()
    assert tracer.refused == 1
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert list(tracer.wrap_generator("gen", gen)()) == [1, 2]
    # one span per next(), including the one that ends the iteration
    assert [s[0] for s in tracer.spans[2:]] == ["gen"] * 3


def test_install_patches_caller_sites_and_uninstall_restores_them():
    from synhash import caps, verify
    original = verify.pushforward
    tracer = tracing.Tracer(caps.CapExceeded)
    assert tracer.install(worker.MODULES) == []
    try:
        verify.check_projection_identity(sample_uniform_code(CodeEnsembleSpec(F2, 4, 2), 0),
                                         DensePmf.uniform(F2, 4))
    finally:
        tracer.uninstall()
    assert verify.pushforward is original
    stats = tracing.layer_stats(tracer.spans)
    assert stats["distributions.pushforward.calls"] == 1
    assert stats["verify.check_projection_identity.calls"] == 1
    assert stats["distributions.pushforward.peak_alloc_mib"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
