import math

import pytest

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


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.1, 0.4])
@pytest.mark.parametrize("p", [2, 3])
def test_dense_and_dual_agree(m, delta, p):
    for r in range(m + 1):
        dense = rm_divergence(m, r, delta, p, "dense")
        dual = rm_divergence(m, r, delta, p, DUAL)
        assert abs(dense - dual) <= 1e-10 * max(1.0, abs(dense), abs(dual))


def test_dense_covers_orders_dual_cannot():
    assert rm_divergence(3, 1, 0.25, math.inf, "dense") > 0
    assert rm_divergence(3, 1, 0.25, 1.0, "dense") >= 0
    for p in (math.inf, 1.0, 2.5):
        with pytest.raises(ValueError):
            rm_divergence(3, 1, 0.25, p, DUAL)


def test_divergence_validates_inputs():
    with pytest.raises(ValueError):
        rm_divergence(3, 4, 0.25, 2, DUAL)
    with pytest.raises(ValueError):
        rm_divergence(3, -1, 0.25, 2, DUAL)
    with pytest.raises(ValueError):
        rm_divergence(3, 1, 0.25, 2, "magic")


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


def test_csv_rendering():
    spec = RmExperimentSpec(m_values=(2, 3), r_rule="m-2")
    rows = rm_convergence_run(spec)
    text = rows_to_csv(rows, stable=True)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(line.endswith(",dual-character,0.0") for line in lines[1:])
    assert rows_to_csv(rows, stable=True) == text
    # the unstable render keeps measured timings
    raw = rows_to_csv(rows, stable=False).strip().split("\n")
    assert raw[0] == lines[0]


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
