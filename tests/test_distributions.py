import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synhash.caps import Caps, CapExceeded
from synhash.codes import CodeEnsembleSpec, reed_muller_code, sample_uniform_code
from synhash.distributions import (
    DensePmf,
    ProductBernoulli,
    RenyiOrder,
    bernoulli_syndrome_excess,
    bernoulli_syndrome_norm,
    code_pmf,
    convolve,
    lp_norm,
    lp_smoothness,
    pushforward,
    renyi_divergence,
    renyi_entropy,
    tv_distance,
)
from synhash.field import FieldSpec, FqMatrix, index_to_vec, q_powers

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def pmf(field, n, probs):
    return DensePmf(field, n, np.asarray(probs, dtype=float))


@st.composite
def random_pmfs(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    size = q ** n
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    arr = np.asarray(raw)
    return DensePmf(FieldSpec(q), n, arr / arr.sum())


def test_renyi_order_validation():
    assert RenyiOrder.of(2).integer == 2
    assert RenyiOrder.of(math.inf).is_inf
    assert RenyiOrder.of(1.0).is_one
    assert RenyiOrder.of(2.5).integer is None
    with pytest.raises(ValueError):
        RenyiOrder.of(0.0)
    with pytest.raises(ValueError):
        RenyiOrder.of(-1)


def test_pmf_validation():
    with pytest.raises(ValueError):
        pmf(F2, 1, [0.7, 0.7])
    with pytest.raises(ValueError):
        pmf(F2, 1, [1.5, -0.5])
    P = pmf(F2, 1, [1.0 - 1e-14, 1e-14])
    assert P.size == 2


def test_pmf_size_cap():
    with pytest.raises(CapExceeded):
        DensePmf.uniform(F2, 5, Caps(dense_pmf_entries=16))


def test_norm_example():
    P = pmf(F2, 2, [0.5, 0.25, 0.125, 0.125])
    assert lp_norm(4 * P.probs, 2) == pytest.approx(math.sqrt(1.375), rel=1e-14)
    assert lp_norm(4 * P.probs, math.inf) == 2.0
    assert lp_norm(4 * P.probs, 1) == pytest.approx(1.0, rel=1e-14)


def test_entropy_examples():
    flat = DensePmf.flat(F2, 3, 4)
    for p in (1, 2, 3.5, math.inf):
        assert renyi_entropy(flat, p) == pytest.approx(2.0, abs=1e-12)
    point = DensePmf.point_mass(F2, 3)
    for p in (1, 2, math.inf):
        assert renyi_entropy(point, p) == pytest.approx(0.0, abs=1e-12)
    # base-q units: uniform on F_3^2 has entropy 2
    assert renyi_entropy(DensePmf.uniform(F3, 2), 2) == pytest.approx(2.0)


def test_bernoulli_entropy_closed_form():
    src = ProductBernoulli(0.11, 4)
    assert renyi_entropy(src, 2) == pytest.approx(1.2574950349963554, rel=1e-14)
    dense = src.to_dense()
    assert dense.probs.sum() == pytest.approx(1.0, abs=1e-12)
    for p in (1, 2, 3, math.inf):
        assert renyi_entropy(src, p) == pytest.approx(renyi_entropy(dense, p), rel=1e-12)


def test_divergence_example():
    P = pmf(F2, 2, [3 / 8, 3 / 8, 1 / 8, 1 / 8])
    U = DensePmf.uniform(F2, 2)
    assert renyi_divergence(P, U, 2) == pytest.approx(0.32192809488736235, rel=1e-14)
    assert renyi_divergence(P, U, 2) == pytest.approx(2 - renyi_entropy(P, 2), rel=1e-14)
    assert renyi_divergence(U, U, 3) == pytest.approx(0.0, abs=1e-12)


def test_divergence_support_violation():
    P = pmf(F2, 1, [1.0, 0.0])
    Q = pmf(F2, 1, [0.0, 1.0])
    with pytest.raises(ValueError, match="support"):
        renyi_divergence(P, Q, 2)


def test_smoothness_rejects_order_one():
    P = DensePmf.uniform(F2, 2)
    with pytest.raises(ValueError):
        lp_smoothness(P, 1)
    assert lp_smoothness(P, 2) == pytest.approx(0.0, abs=1e-12)


def test_tv_distance_basic():
    P = pmf(F2, 1, [1.0, 0.0])
    U = DensePmf.uniform(F2, 1)
    assert tv_distance(P, U) == pytest.approx(0.5)
    assert tv_distance(P, P) == 0.0


def test_convolve_point_mass_is_identity():
    P = pmf(F3, 2, np.arange(1, 10) / 45)
    E = DensePmf.point_mass(F3, 2)
    out = convolve(P, E)
    assert np.allclose(out.probs, P.probs, atol=1e-12)


def test_convolve_shift_by_point_mass():
    P = pmf(F2, 2, [0.4, 0.3, 0.2, 0.1])
    shift = DensePmf.point_mass(F2, 2, index=3)
    out = convolve(P, shift)
    # adding a fixed vector permutes mass by xor with 3
    assert out.probs[0] == pytest.approx(P.probs[3])
    assert out.probs[1] == pytest.approx(P.probs[2])


def _direct_convolution(a, b, q, n):
    """Distribution of X + Y by summing over every pair (x, y)."""
    field = FieldSpec(q)
    digits = [index_to_vec(i, n, field).array for i in range(q ** n)]
    powers = q_powers(q, n)
    out = np.zeros(q ** n)
    for x in range(q ** n):
        for y in range(q ** n):
            out[((digits[x] + digits[y]) % q) @ powers] += a[x] * b[y]
    return out


def test_convolve_transform_path_matches_naive():
    rng = np.random.default_rng(5)
    for field, n in ((F2, 4), (F3, 3)):
        size = field.q ** n
        a = rng.random(size); a /= a.sum()
        b = rng.random(size); b /= b.sum()
        full = convolve(pmf(field, n, a), pmf(field, n, b))
        assert np.allclose(full.probs, _direct_convolution(a, b, field.q, n), atol=1e-12)


def test_convolve_commutes():
    rng = np.random.default_rng(6)
    a = rng.random(8); a /= a.sum()
    b = rng.random(8); b /= b.sum()
    P, Q = pmf(F2, 3, a), pmf(F2, 3, b)
    assert np.allclose(convolve(P, Q).probs, convolve(Q, P).probs, atol=1e-14)


def test_code_pmf_uniform_on_codewords():
    code = reed_muller_code(1, 3)
    P = code_pmf(code)
    assert np.count_nonzero(P.probs) == 16
    assert P.probs.max() == pytest.approx(1 / 16)


def test_pushforward_parity_example():
    dense = ProductBernoulli(0.25, 4).to_dense()
    H = FqMatrix.from_rows(F2, [[1, 1, 1, 1]])
    out = pushforward(dense, H)
    assert out.n == 1
    assert out.probs[0] == pytest.approx(0.53125, rel=1e-14)


def test_pushforward_checks_inputs():
    dense = ProductBernoulli(0.25, 4).to_dense()
    with pytest.raises(ValueError):
        pushforward(dense, FqMatrix.from_rows(F2, [[1, 1]]))  # wrong width
    with pytest.raises(ValueError):
        pushforward(dense, FqMatrix.from_rows(F2, [[1, 1, 1, 1], [1, 1, 1, 1]]))


def test_pushforward_preserves_mass_and_marginals():
    rng = np.random.default_rng(7)
    a = rng.random(81); a /= a.sum()
    P = pmf(F3, 4, a)
    H = FqMatrix.from_rows(F3, [[1, 0, 2, 1], [0, 1, 1, 1]])
    out = pushforward(P, H)
    assert out.size == 9
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_qpmf_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.random(16); a /= a.sum()
    P = pmf(F2, 4, a)
    blob = P.to_qpmf_bytes()
    assert blob[:4] == b"QPMF"
    again = DensePmf.from_qpmf_bytes(blob)
    assert again.field == P.field and again.n == P.n
    assert np.array_equal(again.probs, P.probs)
    path = tmp_path / "p.qpmf"
    P.write_qpmf(path)
    assert np.array_equal(DensePmf.read_qpmf(path).probs, P.probs)
    with pytest.raises(ValueError):
        DensePmf.from_qpmf_bytes(b"XXXX" + blob[4:])


def test_qpmf_header_is_checked_against_the_payload_first():
    # a 20-byte blob claiming n = 2**20: q**n must not be formed
    blob = struct.pack("<4sII", b"QPMF", 2, 1 << 20) + struct.pack("<d", 1.0)
    with pytest.raises(ValueError, match="QPMF payload has 1 entries"):
        DensePmf.from_qpmf_bytes(blob)


def test_json_roundtrip():
    P = pmf(F3, 1, [0.2, 0.3, 0.5])
    again = DensePmf.from_json_dict(P.to_json_dict())
    assert np.allclose(again.probs, P.probs)


def test_syndrome_norm_degenerate_cases():
    code = reed_muller_code(1, 3)
    # delta = 1/2 gives a perfectly uniform syndrome
    assert bernoulli_syndrome_norm(code, 0.5, 2) == pytest.approx(1.0, abs=1e-14)
    # k = n leaves a zero-length syndrome
    full = reed_muller_code(3, 3)
    assert bernoulli_syndrome_norm(full, 0.25, 2) == pytest.approx(1.0, abs=1e-14)


def test_syndrome_norm_rm13_frozen():
    code = reed_muller_code(1, 3)
    got = bernoulli_syndrome_norm(code, 0.25, 2)
    assert got == pytest.approx(1.0547027587890625, rel=1e-15)


def test_syndrome_norm_matches_dense_paths():
    spec = CodeEnsembleSpec(F2, 6, 3, 11)
    for trial, delta, p in [(0, 0.25, 2), (1, 0.1, 3), (2, 0.4, 4), (3, 0.7, 2)]:
        code = sample_uniform_code(spec, trial)
        m = code.n - code.k
        dense = ProductBernoulli(delta, 6).to_dense()
        syn = pushforward(dense, code.H)
        direct = lp_norm(2.0 ** m * syn.probs, p) ** p
        character = bernoulli_syndrome_norm(code, delta, p)
        assert character == pytest.approx(direct, rel=1e-12)


def _column_recursion_norm(code, delta, p):
    """||2^{n-k} P_{HZ}||_p^p with the syndrome pmf built one noise bit at a
    time: P <- (1 - delta) P + delta P[s ^ col_j]."""
    nk = code.n - code.k
    idx = np.arange(1 << nk)
    P = np.zeros(1 << nk)
    P[0] = 1.0
    for col in q_powers(2, nk) @ code.H.array:
        P = (1.0 - delta) * P + delta * P[idx ^ col]
    return float(np.mean((float(1 << nk) * P) ** p))


def test_syndrome_norm_matches_column_recursion_beyond_dense():
    rm25 = reed_muller_code(2, 5)  # 2^16 syndromes of 2^32 noise patterns
    random_code = sample_uniform_code(CodeEnsembleSpec(F2, 12, 6, 13), 0)
    for code, delta, p in [(rm25, 0.25, 3), (rm25, 0.25, 4), (random_code, 0.2, 5)]:
        assert bernoulli_syndrome_norm(code, delta, p) == pytest.approx(
            _column_recursion_norm(code, delta, p), rel=1e-12)


def test_dual_sum_cap_counts_the_work_that_runs():
    code = reed_muller_code(1, 3)  # n = 8, 2^4 dual messages
    # the column histogram (n = 8), one transform of 16 * 4 at p = 2 and two
    # at p > 2, and p - 2 power passes over the 16 entries
    for p, cost in [(2, 8 + 64), (3, 8 + 2 * 64 + 16), (5, 8 + 2 * 64 + 3 * 16)]:
        bernoulli_syndrome_excess(code, 0.25, p, Caps(tuple_products=cost))
        with pytest.raises(CapExceeded):
            bernoulli_syndrome_excess(code, 0.25, p, Caps(tuple_products=cost - 1))


def test_syndrome_excess_rejects_bad_order():
    code = reed_muller_code(1, 3)
    with pytest.raises(ValueError):
        bernoulli_syndrome_excess(code, 0.25, 1)


@given(random_pmfs(), st.sampled_from([1.5, 2.0, 3.0]))
def test_norm_entropy_identity(P, p):
    # ||q^n P||_p^p = q^{(p-1)(n - H_p)}
    q, n = P.field.q, P.n
    lhs = lp_norm(float(q) ** n * P.probs, p) ** p
    rhs = float(q) ** ((p - 1) * (n - renyi_entropy(P, p)))
    assert lhs == pytest.approx(rhs, rel=1e-9)


@given(random_pmfs())
def test_entropy_nonincreasing_in_order(P):
    orders = [1, 1.5, 2, 3, math.inf]
    vals = [renyi_entropy(P, p) for p in orders]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-10


@given(random_pmfs(), st.sampled_from([1.0, 1.5, 2.0, math.inf]))
def test_divergence_is_entropy_deficit(P, p):
    U = DensePmf.uniform(P.field, P.n)
    assert renyi_divergence(P, U, p) == pytest.approx(
        P.n - renyi_entropy(P, p), abs=1e-9)


@given(random_pmfs(), st.sampled_from([1.5, 2.0, 3.0]))
def test_smoothness_divergence_identity(P, p):
    delta = lp_smoothness(P, p)
    div = renyi_divergence(P, DensePmf.uniform(P.field, P.n), p)
    assert delta == pytest.approx(
        P.field.q ** (div * (p - 1) / p) - 1.0, abs=1e-9)


@given(random_pmfs())
def test_l1_centered_norm_is_twice_tv(P):
    U = DensePmf.uniform(P.field, P.n)
    centered = float(P.field.q) ** P.n * P.probs - 1.0
    assert lp_norm(centered, 1) == pytest.approx(2 * tv_distance(P, U), abs=1e-12)


@given(random_pmfs(), st.sampled_from([(1.0, 2.0), (1.5, 3.0), (2.0, math.inf)]))
def test_averaging_norms_nondecreasing(P, pair):
    lo, hi = pair
    vals = float(P.field.q) ** P.n * P.probs
    assert lp_norm(vals, lo) <= lp_norm(vals, hi) + 1e-12


@st.composite
def pmf_pairs(draw):
    P = draw(random_pmfs())
    size = P.size
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    arr = np.asarray(raw)
    return P, DensePmf(P.field, P.n, arr / arr.sum())


@settings(max_examples=25)
@given(pmf_pairs(), st.sampled_from([2.0, 3.0]))
def test_convolution_does_not_sharpen(pair, p):
    # mixing with an independent variable cannot increase the p-norm
    P, Q = pair
    mixed = convolve(P, Q)
    scale = float(P.field.q) ** P.n
    assert lp_norm(scale * mixed.probs, p) <= lp_norm(scale * P.probs, p) + 1e-10
