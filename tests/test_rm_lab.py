import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from synhash import rm_lab
from synhash.caps import Caps, CapExceeded
from synhash.codes import reed_muller_dimensions, rm_parity_check
from synhash.distributions import _deviation_excesses, _product_syndrome_rows
from synhash.field import q_powers
from synhash.rm_lab import (
    CSV_COLUMNS,
    RmExperimentSpec,
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
    # one syndrome pmf (dense) or one parity check (dual) serves every order
    for m in range(1, 5):
        for r in range(m + 1):
            for delta in (0.1, 0.25, 0.4):
                want = [rm_divergence(m, r, delta, p, method) for p in (2, 3)]
                assert _rm_divergence_grid(m, r, (delta,), (2, 3), method, Caps()) == [want]


METHODS = ("dense", DUAL)
DELTAS = (0.1, 0.25, 0.4)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_grid_equals_the_one_delta_calls(m):
    # one parity check per route: the column steps of each delta on the dense
    # route, one set of dual weights on the dual route
    for r in range(m + 1):
        for method in METHODS:
            want = [[rm_divergence(m, r, delta, p, method) for p in (2, 3)] for delta in DELTAS]
            assert _rm_divergence_grid(m, r, DELTAS, (2, 3), method, Caps()) == want


@pytest.mark.parametrize("p", [2, 3])
def test_dense_route_is_relatively_close_to_the_dual_route(p):
    # about 3e-10, so within the absolute 1e-10 above at any relative error:
    # the count through the 2^16-point source was 2.3e-4 (p = 2) and 1.1e-4
    # (p = 3) off, the column steps are within 2e-6
    dense, dual = (rm_divergence(4, 2, 0.4, p, method) for method in METHODS)
    assert abs(dense - dual) <= 1e-5 * dual


def _bits(x, p):
    """The order-p divergence in bits of a pmf of excess x: log1p(x) / (p - 1),
    at p = 1 x itself (nats), at p = inf log1p(max e)."""
    if p == 1:
        return x / math.log(2.0)
    return math.log1p(x) / ((1.0 if math.isinf(p) else p - 1.0) * math.log(2.0))


def test_grid_dense_rows_are_the_column_steps_of_each_delta():
    orders = (1, 1.5, 2, 3, math.inf)
    for m in (2, 3, 4):
        for r in range(m):
            n, k = reed_muller_dimensions(r, m)
            columns = (q_powers(2, n - k) @ rm_parity_check(r, m).array)[None]
            deviations = [2.0 ** (n - k) * _product_syndrome_rows(delta, columns, n - k) - 1.0
                          for delta in DELTAS]
            want = [[_bits(float(_deviation_excesses(e, p)[0]), p) for p in orders]
                    for e in deviations]
            assert _rm_divergence_grid(m, r, DELTAS, orders, "dense", Caps()) == want


# RM(1, 4)'s syndrome table has 2^11 entries, so 1 << 10 refuses the dense route;
# 40000 admits the dual sum at p = 2 (22544) and refuses it at p = 3 (47120)
@pytest.mark.parametrize("caps, method", [(Caps(dense_pmf_entries=1 << 10), "dense"),
                                          (Caps(tuple_products=40000), DUAL)],
                         ids=["dense", "dual"])
def test_grid_refuses_as_the_one_delta_calls_before_building_the_code(monkeypatch, caps,
                                                                      method):
    refusals = []
    for delta in DELTAS:
        for p in (2, 3):
            try:
                rm_divergence(4, 1, delta, p, method, caps)
            except CapExceeded as exc:
                refusals.append(str(exc))

    def fail(*args, **kwargs):
        raise AssertionError("the refused code was built")

    monkeypatch.setattr(rm_lab, "_rm_parity_columns", fail)
    with pytest.raises(CapExceeded) as err:
        _rm_divergence_grid(4, 1, DELTAS, (2, 3), method, caps)
    assert str(err.value) == refusals[0]


def _rm1_deviations(m, delta):
    """The three values of e = 2^{m+1} P_{HZ} - 1, P_{HZ} the RM(m - 2, m)
    syndrome pmf of Bernoulli(delta) noise, as Decimal (value, count) pairs in
    the current context.  Its dual RM(1, m) holds the zero word, the all-ones
    word and 2^{m+1} - 2 words of weight 2^{m-1}, so with lambda = 1 - 2 delta,
    mu = lambda^{2^m} and nu = lambda^{2^{m-1}} the character sum takes
    mu + 2 nu (2^m - 1) once, mu - 2 nu 2^m - 1 times and -mu 2^m times.
    Decimal(delta) is the float's exact value."""
    lam = 1 - 2 * Decimal(delta)
    mu, nu, half = lam ** (2 ** m), lam ** (2 ** (m - 1)), 2 ** m
    return [(mu + 2 * nu * (half - 1), 1), (mu - 2 * nu, half - 1), (-mu, half)]


def _rm1_excess(m, delta, p, digits):
    """mean((1 + e)^p) - 1 of _rm1_deviations to `digits` digits, at p = 1
    mean((1 + e) ln(1 + e)) and at p = inf max e, as a Decimal."""
    with localcontext() as ctx:
        ctx.prec = digits
        deviations = _rm1_deviations(m, delta)
        if math.isinf(p):
            return deviations[0][0]
        if p == 1:
            terms = [count * (1 + e) * (1 + e).ln() for e, count in deviations]
        else:
            terms = [count * (1 + e) ** Decimal(repr(p)) for e, count in deviations]
        return sum(terms) / (2 ** (m + 1)) - (p != 1)


ALL_ORDERS = (1, 1.5, 2, 2.5, 3, 4, math.inf)


def _rm1_divergence(m, delta, p):
    """rm_divergence(m, m - 2, delta, p) from a 60-digit _rm1_excess."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = _rm1_excess(m, delta, p, 60)
        ln2 = Decimal(2).ln()
        if p == 1:
            return float(x / ln2)
        return float((1 + x).ln() / ((1 if math.isinf(p) else Decimal(repr(p)) - 1) * ln2))


def test_dense_covers_orders_dual_cannot():
    # every order, against the closed form: the dense rows read n - k -
    # renyi_entropy, which was 1.8e2 relative off at delta = 0.25, m = 6 and
    # 9.2e5 at delta = 0.4, m = 5; the bounds are the rounding of the column
    # steps' P, about 1e-16 over the smallest deviation
    for delta, ms, rel in ((0.1, range(3, 7), 1e-7), (0.25, range(3, 7), 1e-7),
                           (0.4, range(3, 6), 1e-5)):
        for m in ms:
            got = _rm_divergence_grid(m, m - 2, (delta,), ALL_ORDERS, "dense", Caps())[0]
            for p, value in zip(ALL_ORDERS, got):
                assert value == pytest.approx(_rm1_divergence(m, delta, p), rel=rel, abs=0.0)
    for p in (math.inf, 1.0, 2.5):
        with pytest.raises(ValueError):
            rm_divergence(3, 1, 0.25, p, DUAL)


def test_dense_route_scores_a_syndrome_pmf_with_zeros():
    # at delta = 1e-300 every syndrome but 0 has probability 0, so P is a point
    # mass and the divergence is n - k = 4 bits at every order: the kernel
    # takes log1p(-1) = -inf there and 0 log 0 = 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _rm_divergence_grid(3, 1, (1e-300,), ALL_ORDERS, "dense", Caps())[0]
    assert got == pytest.approx([4.0] * len(ALL_ORDERS), rel=1e-15)


def test_dense_route_agrees_with_the_dual_route_below_float_epsilon():
    # the dense route read 0.0 from m = 6, where the divergence is 9.85e-18
    for m in range(2, 7):
        dense, dual = (_rm_divergence_grid(m, m - 2, (0.25,), (2, 3, 4), method, Caps())[0]
                       for method in METHODS)
        assert all(d > 0 for d in dense)
        assert dense == pytest.approx(dual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("delta", DELTAS)
def test_excess_kernel_matches_the_closed_form(delta):
    # the deviations of the RM(m - 2, m) syndrome pmf in closed form, rounded
    # once, scored by the kernel the dense and dual routes share, against a
    # 400-digit _rm1_excess; at p = 1 and non-integer p, mean((1 + e) log1p(e)
    # - e) and mean(expm1(p log1p(e)) - p e) cancel to about 1e-16 / |e|
    limits = {0.1: 7, 0.25: 6, 0.4: 4}
    for m in range(2, 9):
        e = np.concatenate([np.full(count, float(dev))
                            for dev, count in _rm1_deviations(m, delta)])
        for p in ALL_ORDERS:
            integer = p == 2 or p == 3 or p == 4 or math.isinf(p)
            if not integer and m > limits[delta]:
                continue
            want = float(_rm1_excess(m, delta, p, 400))
            assert float(_deviation_excesses(e[None], float(p))[0]) == pytest.approx(
                want, rel=1e-13 if integer else 1e-8, abs=0.0)


def test_excess_kernel_at_large_integer_orders():
    # a far-from-uniform row (an empty bin and a half-empty one) and the same row
    # scaled by 2^-20, each summing to 0 exactly, against the exact mean((1 + e)^p)
    # - 1: the moment sum's C(p, j) terms read 1e59 at p = 200 on the first row and
    # C(2000, j) overflowed float64, so the first row takes the expm1 form past p = 4
    # and the second the moment sum to j = 24
    far = np.array([-1.0, -0.5] + [0.25] * 6)
    e = np.stack([far, far * 2.0 ** -20])
    for p in (5, 50, 200, 2000):
        with localcontext() as ctx:
            ctx.prec = 80
            want = [float(sum((1 + Decimal(x)) ** p for x in row) / len(row) - 1) for row in e]
        assert _deviation_excesses(e, float(p)).tolist() == pytest.approx(want, rel=1e-12, abs=0)
        for row, value in zip(e, want):  # each row on its own
            assert float(_deviation_excesses(row[None], float(p))[0]) == pytest.approx(
                value, rel=1e-12, abs=0)


def test_routes_reach_large_integer_orders():
    # at p = 2000 the dual route's moment sum ended in an OverflowError from
    # C(2000, j), and the dense route's renyi_entropy took log(0.0)
    for m in (5, 6):
        want = _rm1_divergence(m, 0.25, 2000)
        for method in METHODS:
            got = _rm_divergence_grid(m, m - 2, (0.25,), (2000,), method, Caps())[0][0]
            assert got == pytest.approx(want, rel=1e-10 if method == "dense" else 1e-12, abs=0)


@pytest.mark.parametrize("delta", DELTAS)
def test_dual_route_matches_the_closed_form(delta):
    for m in range(3, 9):
        got = _rm_divergence_grid(m, m - 2, (delta,), (2, 3, 4), DUAL, Caps())[0]
        for p, value in zip((2, 3, 4), got):
            want = math.log1p(float(_rm1_excess(m, delta, p, 400))) / ((p - 1) * math.log(2.0))
            assert value == pytest.approx(want, rel=1e-13, abs=0.0)


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
    # a syndrome table of 2^26 entries; the dense route used to be refused
    # for its 2^(2^25)-entry source
    (25, "dense", "dense pmf: estimated cost 67108864 "),
], ids=["dual-m22", "dense-m25"])
def test_divergence_refuses_before_building_the_code(monkeypatch, m, method, refusal):
    # m = 22 used to build its parity check (1.5 GiB) before the dual sum was
    # refused, and m = 30 ended in an _ArrayMemoryError from np.arange(2^30)
    def fail(*args, **kwargs):
        raise AssertionError("the refused code was built")

    monkeypatch.setattr(rm_lab, "_rm_parity_columns", fail)
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
