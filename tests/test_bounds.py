import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synhash.bounds import (
    collision_bound,
    collision_loss,
    collision_max_output,
    corollary_bounds,
    generic_loss,
    linf_bucket_bound,
    main_guarantee,
    max_output_length,
    nonlinear_bound_rhs,
    phi,
    rm_threshold,
    smoothing_bound_rhs,
    stirling2,
    two_point_renyi,
)


def test_phi_frozen_values():
    assert phi(1.5, 0.5) == pytest.approx(2.008172330056086, rel=1e-14)
    assert phi(2.0, 1.0) == pytest.approx(2.449489742783178, rel=1e-14)
    assert phi(3.0, 0.2) == pytest.approx(1.4280073963843112, rel=1e-14)


def test_phi_vanishes_with_eps():
    for p in (1.5, 2.0, 4.0):
        assert phi(p, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_rejects_bad_order():
    for p in (0.5, 1.0, -2.0, math.inf):
        with pytest.raises(ValueError):
            phi(p, 0.1)


def test_phi_monotone_in_eps():
    for p in (1.3, 2.0, 3.0):
        vals = [phi(p, e) for e in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_stirling_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(4, 3) == 6
    assert stirling2(5, 1) == 1
    assert stirling2(5, 5) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(2, 3) == 0


def test_smoothing_rhs_frozen():
    # n = k: sum_d C(2,d) 2^{(2-d)(d-2)} = 1/16 + 1 + 1
    assert smoothing_bound_rhs(2, 2, 2, 2, 2.0) == pytest.approx(2.0625, rel=1e-13)
    # p = 3 with d + n - k - H_p = d - 2
    assert smoothing_bound_rhs(4, 2, 2, 3, 4.0) == pytest.approx(4.765625, rel=1e-13)


def test_smoothing_rhs_rejects_bad_order():
    with pytest.raises(ValueError):
        smoothing_bound_rhs(4, 2, 2, 1, 3.0)


def test_nonlinear_rhs_frozen_and_dominated():
    # p = 2: q^{n-k-H} + 1
    assert nonlinear_bound_rhs(4, 2, 2, 2, 2.0) == pytest.approx(2.0, rel=1e-13)
    assert nonlinear_bound_rhs(4, 2, 2, 2, 4.0) == pytest.approx(1.25, rel=1e-13)
    for (n, k, p, H) in [(4, 2, 2, 3.0), (5, 2, 3, 4.0), (6, 3, 4, 5.5), (4, 4, 3, 2.0)]:
        assert nonlinear_bound_rhs(n, k, 2, p, H) <= \
            smoothing_bound_rhs(n, k, 2, p, H) * (1 + 1e-12)


def test_main_guarantee_report():
    rep = main_guarantee(2, 9.0, 2, 2)
    assert rep.value == pytest.approx(0.03125, rel=1e-14)
    assert rep.satisfied_condition is None
    rep = main_guarantee(2, 9.0, 2, 2, eps=0.05)
    assert rep.satisfied_condition is True
    rep = main_guarantee(3, 9.0, 2, 2, eps=0.05)
    assert rep.satisfied_condition is False
    d = rep.to_json_dict()
    assert d["name"] == "main-guarantee" and d["inputs"]["m"] == 3


def test_max_output_length_is_maximal():
    m = max_output_length(9.0, 2, 2, 0.03125)
    assert m == 2
    assert main_guarantee(m, 9.0, 2, 2).value <= 0.03125
    assert main_guarantee(m + 1, 9.0, 2, 2).value > 0.03125


def test_generic_loss():
    assert generic_loss(0.0625, 2, 2) == pytest.approx(6.0, rel=1e-13)
    # entropy minus loss recovers the max output length up to rounding
    assert max_output_length(9.0, 2, 2, 0.0625) == math.floor(9.0 - 6.0)


def test_corollary_frozen():
    dv, dist = corollary_bounds(0.1, 2, 2)
    assert dv == pytest.approx(0.2885390081777927, rel=1e-13)
    assert dist == pytest.approx(0.6480740698407864, rel=1e-13)


@pytest.mark.parametrize("eps", [1e-300, 1e-15])
@pytest.mark.parametrize("q", [2, 3])
def test_collision_loss_does_not_cancel_at_small_eps(eps, q):
    # (1 + eps)^2 - 1 used to round to 0.0 (a ZeroDivisionError at 1e-300) or
    # to lose digits (48.678 bits at 1e-15, where the loss is 48.829)
    excess = Fraction(eps) * (2 + Fraction(eps))
    want = (math.log(excess.denominator) - math.log(excess.numerator)) / math.log(q)
    assert collision_loss(eps, q) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("eps", [1e160, 1e300, 1.7e308])
@pytest.mark.parametrize("q", [2, 3])
def test_collision_loss_stays_finite_past_the_product_overflow(eps, q):
    # eps (2 + eps) used to overflow to inf, so the loss read -inf
    excess = Fraction(eps) * (2 + Fraction(eps))
    want = (math.log(excess.denominator) - math.log(excess.numerator)) / math.log(q)
    assert collision_loss(eps, q) == pytest.approx(want, rel=1e-14)


def test_collision_max_output_at_a_huge_eps():
    # floor(-inf) used to end in an OverflowError
    assert collision_max_output(20.0, 1e300, 2) == 2013


def test_collision_family():
    assert collision_bound(3, 5.0, 2) == pytest.approx(1.25, rel=1e-13)
    assert collision_loss(0.0625, 2) == pytest.approx(2.9556058806415466, rel=1e-13)
    # collision loss beats the generic loss for small eps
    assert collision_loss(0.0625, 2) < generic_loss(0.0625, 2, 2)
    m = collision_max_output(6.6767, 0.25, 2)
    # the squared-norm excess at that m meets (1+eps)^2 - 1
    target = (1.25) ** 2 - 1
    assert 2.0 ** (m - 6.6767) <= target
    assert 2.0 ** (m + 1 - 6.6767) > target


def test_linf_bucket_frozen():
    assert linf_bucket_bound(32, 0.25, 2) == pytest.approx(272.0, rel=1e-13)
    assert linf_bucket_bound(16, 0.5, 2) == pytest.approx(17.0, rel=1e-13)


def test_two_point_renyi_frozen():
    assert two_point_renyi(0.11, 2) == pytest.approx(0.31437375874908885, rel=1e-13)
    assert two_point_renyi(0.25, math.inf) == pytest.approx(0.4150374992788438, rel=1e-13)
    assert two_point_renyi(0.25, 1) == pytest.approx(0.8112781244591328, rel=1e-13)
    assert two_point_renyi(0.5, 1) == pytest.approx(1.0, rel=1e-13)
    assert two_point_renyi(0.0, 2) == 0.0
    assert two_point_renyi(1.0, 2) == 0.0


@pytest.mark.parametrize("p", [math.nan, 0.0, -1.0, -math.inf])
def test_two_point_renyi_refuses_an_order_that_is_not_positive(p):
    # nan used to pass the p <= 0 test and come out as the entropy nan
    with pytest.raises(ValueError, match=f"order must be positive, got {p!r}"):
        two_point_renyi(0.2, p)
    # 0 at delta = 0 or 1 was returned before the order was read
    with pytest.raises(ValueError, match="order must be positive"):
        two_point_renyi(0.0, p)


def test_rm_threshold_admits_any_real_order_from_two():
    # 1 - h_p(delta) holds for real p >= 2, and rm --p 2.5 --method dense reads it
    assert rm_threshold(0.25, 2.5) == 1.0 - two_point_renyi(0.25, 2.5)
    with pytest.raises(ValueError, match=r"^threshold defined for p = 1, p >= 2 or inf, got 1.5$"):
        rm_threshold(0.25, 1.5)


def test_rm_threshold_refuses_a_delta_outside_the_unit_interval():
    # at p = 1 the rate (1 - 2 delta)^2 used to be taken of any delta, NaN included
    for delta in (math.nan, -0.1, 1.5):
        with pytest.raises(ValueError, match="delta must lie in"):
            rm_threshold(delta, 1)


def test_rm_threshold_values():
    assert rm_threshold(0.25, 2) == pytest.approx(1 - 0.6780719051126378, rel=1e-10)
    assert rm_threshold(0.25, 2, "extraction-rate") == \
        pytest.approx(0.6780719051126378, rel=1e-10)
    assert rm_threshold(0.25, 1) == pytest.approx(0.25, rel=1e-13)
    assert rm_threshold(0.1, math.inf) == pytest.approx(
        1 - (-math.log2(0.9)), rel=1e-10)
    with pytest.raises(ValueError):
        rm_threshold(0.25, 2, "nonsense")


@given(st.floats(0.01, 3.0), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
def test_phi_at_least_eps(eps, p):
    # the distance bound can never undercut the smoothness it came from
    assert phi(p, eps) >= eps - 1e-12


@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 6),
       st.floats(0.0, 6.0), st.sampled_from([2, 3]))
def test_smoothing_rhs_monotone_in_entropy(p, n_extra, k, H, q):
    n = k + n_extra
    lo = smoothing_bound_rhs(n, k, q, p, H)
    hi = smoothing_bound_rhs(n, k, q, p, H + 0.5)
    assert hi <= lo * (1 + 1e-12)


@given(st.integers(1, 8), st.floats(1.1, 4.0))
def test_two_point_symmetry(den, p):
    delta = den / 16.0
    assert two_point_renyi(delta, p) == pytest.approx(
        two_point_renyi(1 - delta, p), rel=1e-12)


def test_field_size_must_be_an_integer():
    calls = [lambda q: smoothing_bound_rhs(4, 2, q, 2, 1.0),
             lambda q: nonlinear_bound_rhs(4, 2, q, 2, 1.0),
             lambda q: main_guarantee(2, 1.0, 2, q),
             lambda q: max_output_length(1.0, 2, q, 0.5),
             lambda q: generic_loss(0.5, 2, q),
             lambda q: corollary_bounds(0.5, 2, q),
             lambda q: collision_bound(2, 1.0, q),
             lambda q: collision_loss(0.5, q),
             lambda q: collision_max_output(1.0, 0.5, q),
             lambda q: linf_bucket_bound(4, 0.5, q)]
    for call in calls:
        for q in (2.0, 2.5):  # the command line covers q < 2
            with pytest.raises(ValueError, match="field size q must be an integer >= 2"):
                call(q)
        call(4)  # not prime, but every closed form holds over any F_q
