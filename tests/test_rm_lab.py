import hashlib
import math
import tracemalloc
from dataclasses import replace

import pytest

from synhash import rm_lab
from synhash.caps import Caps, CapExceeded
from synhash.bounds import two_point_renyi
from synhash.rm_lab import (
    CSV_COLUMNS,
    RmExperimentSpec,
    intrinsic_gap,
    parse_r_rule,
    rm_convergence_run,
    rm_divergence,
    rows_to_csv,
    _rm_divergence_grid,
)

DUAL = "dual-character"


def test_parse_r_rule():
    assert parse_r_rule("m-2")(5) == 3
    assert parse_r_rule("m-1")(5) == 4
    assert parse_r_rule("1")(7) == 1
    assert parse_r_rule(" 2 ")(9) == 2
    for bad in ("m+1", "r-2", "", "m-"):
        with pytest.raises(ValueError):
            parse_r_rule(bad)


def test_divergence_frozen_value_both_methods():
    want = 0.07683646922393317
    assert rm_divergence(3, 1, 0.25, 2, "dense") == pytest.approx(want, rel=1e-12)
    assert rm_divergence(3, 1, 0.25, 2, DUAL) == pytest.approx(want, rel=1e-12)


def test_divergence_zero_for_full_code():
    assert rm_divergence(3, 3, 0.25, 2, DUAL) == 0.0
    assert rm_divergence(2, 2, 0.1, 3, "dense") == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("delta", [0.1, 0.4])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_dense_and_dual_agree(m, delta, p):
    for r in range(m + 1):
        dense = rm_divergence(m, r, delta, p, "dense")
        dual = rm_divergence(m, r, delta, p, DUAL)
        assert abs(dense - dual) <= 1e-10 * max(1.0, abs(dense), abs(dual))


@pytest.mark.parametrize("method", ["dense", DUAL])
def test_divergences_of_several_orders_equal_the_one_order_calls(method):
    # one source and pushforward (dense) or one parity check (dual) serves every order
    for m in range(1, 5):
        for r in range(m + 1):
            for delta in (0.1, 0.25, 0.4):
                want = [rm_divergence(m, r, delta, p, method) for p in (2, 3)]
                assert _rm_divergence_grid(m, r, (delta,), (2, 3), (method,), Caps()) == [[want]]


METHODS = ("dense", DUAL)
DELTAS = (0.1, 0.25, 0.4)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_grid_equals_the_one_delta_calls(m):
    # one parity check for both routes, one source stack and image table on the
    # dense route, one set of dual weights on the dual route
    for r in range(m + 1):
        want = [[[rm_divergence(m, r, delta, p, method) for p in (2, 3)] for delta in DELTAS]
                for method in METHODS]
        assert _rm_divergence_grid(m, r, DELTAS, (2, 3), METHODS, Caps()) == want


@pytest.mark.parametrize("caps", [Caps(dense_pmf_entries=1 << 15), Caps(tuple_products=1000)],
                         ids=["dense", "dual"])
def test_grid_refuses_as_the_one_delta_calls_before_building_the_code(monkeypatch, caps):
    refusals = []
    for delta in DELTAS:
        for method in METHODS:
            for p in (2, 3):
                try:
                    rm_divergence(4, 1, delta, p, method, caps)
                except CapExceeded as exc:
                    refusals.append(str(exc))

    def fail(*args, **kwargs):
        raise AssertionError("the refused code was built")

    monkeypatch.setattr(rm_lab, "rm_parity_check", fail)
    with pytest.raises(CapExceeded) as err:
        _rm_divergence_grid(4, 1, DELTAS, (2, 3), METHODS, caps)
    assert str(err.value) == refusals[0]


def test_dense_covers_orders_dual_cannot():
    assert rm_divergence(3, 1, 0.25, math.inf, "dense") > 0
    assert rm_divergence(3, 1, 0.25, 1.0, "dense") >= 0
    for p in (math.inf, 1.0, 2.5):
        with pytest.raises(ValueError):
            rm_divergence(3, 1, 0.25, p, DUAL)


def test_dual_divergence_never_builds_the_generator():
    tracemalloc.start()
    try:
        rm_divergence(12, 10, 0.25, 2, DUAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4083 x 4096 int64 generator alone would take 127.6 MiB
    assert peak < 8 << 20


SWEEP = tuple(range(4, 13))  # the rm-sweep benchmark's grid


@pytest.mark.parametrize("spec, digest", [
    (RmExperimentSpec(SWEEP, "m-2", 0.1, 2.0), "fde9b599fee558dcd7f8166a48e477018cce3eeb"),
    (RmExperimentSpec(SWEEP, "m-2", 0.25, 2.0), "6b6115a4d543f23023ec5a65f1fa870b2f089797"),
    (RmExperimentSpec(SWEEP, "m-2", 0.4, 2.0), "02c82cb3e80daca368c1743e7946d0e40572a9c1"),
    (RmExperimentSpec((4, 5, 6), "m-3", 0.25, 2.0), "d1061649e6ff59024cd79f6ba3767be665d1f4cc"),
    (RmExperimentSpec((2, 3, 4, 5), "m-2", 0.25, 3.0), "165d6e773eaa54e8aaced6222b3d021228445d28"),
])
def test_convergence_rows_are_pinned(spec, digest):
    # sha1 of the stable CSV of the rm-sweep grid and of the m-3 and p = 3 runs
    rows = [replace(row, seconds=0.0) for row in rm_convergence_run(spec)]
    csv_text = rows_to_csv(rows)
    assert hashlib.sha1(csv_text.encode()).hexdigest() == digest


def test_divergence_validates_inputs():
    with pytest.raises(ValueError):
        rm_divergence(3, 4, 0.25, 2, DUAL)
    with pytest.raises(ValueError):
        rm_divergence(3, -1, 0.25, 2, DUAL)
    with pytest.raises(ValueError):
        rm_divergence(3, 1, 0.25, 2, "magic")


@pytest.mark.parametrize("r", [1, 3], ids=["r<m", "r=m"])
@pytest.mark.parametrize("delta, p, method, message", [
    (7.0, 2, DUAL, "delta must lie in"),
    (math.nan, 2, "dense", "delta must lie in"),
    (0.25, -1, "dense", "order must be positive"),
    (0.25, math.nan, "dense", "order must be positive"),
    (0.25, math.nan, DUAL, "order must be positive"),
])
def test_full_code_checks_inputs_as_the_other_orders(r, delta, p, method, message):
    # at r = m the grid used to return 0.0 before any delta or order was read
    with pytest.raises(ValueError, match=message):
        rm_divergence(3, r, delta, p, method)


def test_convergence_run_tracking_rule():
    spec = RmExperimentSpec(m_values=(5, 3, 4), r_rule="m-2", delta=0.25, p=2)
    rows = rm_convergence_run(spec)
    assert [row.m for row in rows] == [3, 4, 5]
    assert all(row.above_threshold for row in rows)
    divs = [row.divergence for row in rows]
    assert divs == sorted(divs, reverse=True)
    assert all(d > 0 for d in divs)
    for row in rows:
        assert row.extraction_rate == pytest.approx(1.0 - row.rate)
        assert row.syndrome_bits == row.n - row.k


def test_convergence_run_below_threshold_rate_stalls():
    spec = RmExperimentSpec(m_values=(4,), r_rule="1", delta=0.25, p=2)
    row = rm_convergence_run(spec)[0]
    assert row.rate == pytest.approx(5 / 16)
    assert not row.above_threshold
    assert row.divergence > 1e-3


def test_convergence_run_rejects_out_of_range_rule():
    spec = RmExperimentSpec(m_values=(1,), r_rule="m-2")
    with pytest.raises(ValueError):
        rm_convergence_run(spec)


def test_cap_exhaustion_reports_nan_row():
    tiny = Caps(dense_pmf_entries=4)
    spec = RmExperimentSpec(m_values=(3,), r_rule="1", method="dense")
    row = rm_convergence_run(spec, caps=tiny)[0]
    assert math.isnan(row.divergence)
    assert row.n == 8  # geometry is still reported


@pytest.mark.parametrize("m, method, refusal", [
    (22, DUAL, "dual character sum: estimated cost 197132288 "),  # 2^22 + 23 * 2^23
    # a source of 2^(2^25) entries, named by its formula: the integer itself
    # has too many digits to print
    (25, "dense", "dense pmf: estimated cost 2\\^33554432 "),
], ids=["dual-m22", "dense-m25"])
def test_divergence_refuses_before_building_the_code(monkeypatch, m, method, refusal):
    # m = 22 used to build its parity check (1.5 GiB) before the dual sum was
    # refused, and m = 30 ended in an _ArrayMemoryError from np.arange(2^30)
    def fail(*args, **kwargs):
        raise AssertionError("the refused code was built")

    monkeypatch.setattr(rm_lab, "rm_parity_check", fail)
    with pytest.raises(CapExceeded, match=f"^{refusal}exceeds cap "):
        rm_divergence(m, m - 2, 0.25, 2, method)


def test_csv_rendering():
    spec = RmExperimentSpec(m_values=(2, 3), r_rule="m-2")
    rows = rm_convergence_run(spec)
    stable = [replace(row, seconds=0.0) for row in rows]
    text = rows_to_csv(stable)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(line.endswith(",dual-character,0.0") for line in lines[1:])
    assert rows_to_csv(stable) == text
    # the render keeps measured timings
    raw = rows_to_csv(rows).strip().split("\n")
    assert raw[0] == lines[0]
    assert [line.rsplit(",", 1)[1] for line in raw[1:]] == [repr(row.seconds) for row in rows]


def test_intrinsic_gap():
    spec = RmExperimentSpec(m_values=(4,), r_rule="m-2", delta=0.25, p=2)
    row = rm_convergence_run(spec)[0]
    assert intrinsic_gap(row) == pytest.approx(
        two_point_renyi(0.25, 2) - row.extraction_rate, rel=1e-12)
    assert intrinsic_gap(row) > 0  # extraction below the iid entropy rate


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=())
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=(0,))
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=(3,), delta=0.5)
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=(3,), delta=-0.1)
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=(3,), method="sparse")
    with pytest.raises(ValueError):
        RmExperimentSpec(m_values=(3,), r_rule="m+1")
