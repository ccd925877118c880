import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synhash import distributions
from synhash.caps import DEFAULT_CAPS, Caps, CapExceeded
from synhash.codes import CodeEnsembleSpec, reed_muller_code, sample_uniform_code
from synhash.distributions import (
    DensePmf,
    ProductBernoulli,
    bernoulli_syndrome_excess,
    code_pmf,
    convolve,
    lp_norm,
    lp_norms,
    lp_smoothness,
    pushforward,
    renyi_divergence,
    renyi_entropy,
    tv_distance,
    _character_transform,
    _convolve_transformed,
    _pushforward_rows,
    _signed_power,
)
from synhash.field import FieldSpec, FqMatrix, index_to_vec, mat_vec, q_powers, rank, vec_to_index

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
    P = pmf(F2, 2, [0.5, 0.25, 0.125, 0.125])
    U = DensePmf.uniform(F2, 2)
    values = np.array([1.0, -2.0, 3.0])
    measures = (lambda p: lp_norm(values, p), lambda p: renyi_entropy(P, p),
                lambda p: renyi_divergence(P, U, p))
    for bad in (0, -1, math.nan):
        for measure in measures:
            with pytest.raises(ValueError, match="order must be positive"):
                measure(bad)
    # p = 1 is the mean and Shannon route, p = inf the max and min-entropy route
    assert lp_norm(values, 1) == pytest.approx(2.0)
    assert lp_norm(values, math.inf) == 3.0
    assert renyi_entropy(P, 1) == pytest.approx(1.75)
    assert renyi_entropy(P, math.inf) == pytest.approx(1.0)
    assert renyi_divergence(P, U, 1) == pytest.approx(0.25)
    assert renyi_divergence(P, U, math.inf) == pytest.approx(1.0)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_walsh_hadamard_butterfly_equals_fftn(n, integer, seed):
    rng = np.random.default_rng(seed)
    v = rng.integers(-1000, 1000, 1 << n) if integer else rng.standard_normal(1 << n)
    want = np.fft.fftn(v.reshape((2,) * n)).real
    got = _character_transform(v, 2, n)
    assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 14), st.integers(0, 2 ** 32 - 1))
def test_binary_convolve_equals_the_fft_route_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random((2, 1 << n)) ** rng.integers(1, 6, 2)[:, None]
    P, Q = pmf(F2, n, a / a.sum()), pmf(F2, n, b / b.sum())
    shape = (2,) * n
    want = np.fft.ifftn(np.fft.fftn(P.probs.reshape(shape)) * np.fft.fftn(Q.probs.reshape(shape)))
    assert np.array_equal(convolve(P, Q).probs, np.maximum(want.real.reshape(-1), 0.0))


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


@given(st.data())
def test_pushforward_matches_a_point_loop_on_sparse_sources(data):
    # zeros anywhere and a zero tail from a random point on: the syndrome table
    # stops at the last point with mass, and no point with mass may fall past it
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4 if q < 5 else 3))
    m = data.draw(st.integers(1, n))
    field = FieldSpec(q)
    H = FqMatrix.from_rows(field, data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=m, max_size=m)))
    assume(rank(H) == m)
    mass = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.375]),
                                       min_size=q ** n, max_size=q ** n)))
    mass[data.draw(st.integers(1, q ** n)):] = 0.0
    assume(mass.any())
    P = DensePmf(field, n, mass / mass.sum())
    ref = np.zeros(q ** m)
    for x in range(q ** n):
        ref[vec_to_index(mat_vec(H, index_to_vec(x, n, field)))] += P.probs[x]
    assert np.array_equal(pushforward(P, H).probs, ref)


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


def test_syndrome_norm_degenerate_cases():
    code = reed_muller_code(1, 3)
    # delta = 1/2 gives a perfectly uniform syndrome
    assert bernoulli_syndrome_excess(code, 0.5, 2) == pytest.approx(0.0, abs=1e-14)
    # k = n leaves a zero-length syndrome
    full = reed_muller_code(3, 3)
    assert bernoulli_syndrome_excess(full, 0.25, 2) == pytest.approx(0.0, abs=1e-14)


def test_syndrome_norm_rm13_frozen():
    code = reed_muller_code(1, 3)
    got = 1.0 + bernoulli_syndrome_excess(code, 0.25, 2)
    assert got == pytest.approx(1.0547027587890625, rel=1e-15)


def test_syndrome_norm_matches_dense_paths():
    spec = CodeEnsembleSpec(F2, 6, 3, 11)
    for trial, delta, p in [(0, 0.25, 2), (1, 0.1, 3), (2, 0.4, 4), (3, 0.7, 2)]:
        code = sample_uniform_code(spec, trial)
        m = code.n - code.k
        dense = ProductBernoulli(delta, 6).to_dense()
        syn = pushforward(dense, code.H)
        direct = lp_norm(2.0 ** m * syn.probs, p) ** p
        character = 1.0 + bernoulli_syndrome_excess(code, delta, p)
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
        assert 1.0 + bernoulli_syndrome_excess(code, delta, p) == pytest.approx(
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


# row lengths either side of numpy's 8-wide unrolled and 128-entry pairwise sums
@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 1.5, 2, 3, math.inf]), st.integers(1, 40),
       st.sampled_from([1, 7, 8, 129, 4096]), st.integers(0, 2 ** 32 - 1))
def test_stacked_norms_equal_one_row_norms_bit_for_bit(order, count, size, seed):
    rows = np.random.default_rng(seed).standard_normal((count, size)) * 10.0
    got = lp_norms(rows, order)
    assert got.shape == (count,)
    for t in range(count):
        assert got[t] == lp_norm(rows[t], order)
        # the scalar formula the one-row call replaced
        arr = np.abs(rows[t])
        if math.isinf(order):
            assert got[t] == float(arr.max())
        elif order == 1:
            assert got[t] == float(arr.mean())
        else:
            assert got[t] == float(np.mean(arr ** order) ** (1.0 / order))


def test_norms_refuse_an_empty_or_flat_table():
    for bad in (np.zeros(0), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="1-dimensional"):
            lp_norm(bad, 2)
    for bad in (np.zeros(4), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="nonempty rows"):
            lp_norms(bad, 2)


@pytest.mark.parametrize("q, n", [(2, n) for n in range(13)] + [(3, 0), (3, 1), (3, 3), (3, 4),
                                                               (3, 6), (5, 2), (5, 3), (7, 3)])
def test_stacked_transform_and_convolution_equal_a_per_row_loop(q, n):
    rng = np.random.default_rng((q, n))
    size = q ** n
    stack = rng.random((5, size))
    stack /= stack.sum(axis=1, keepdims=True)
    got = _character_transform(stack, q, n)
    assert got.shape == (5,) + (q,) * n
    for t in range(5):
        assert np.array_equal(got[t], _character_transform(stack[t], q, n))
    Q = rng.random(size)
    transformed = _character_transform(Q / Q.sum(), q, n)
    mixed = _convolve_transformed(stack, transformed, q, n)
    assert mixed.shape == (5, size)
    for t in range(5):
        assert np.array_equal(mixed[t], _convolve_transformed(stack[t], transformed, q, n))


@pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.5, 1.0])
def test_bernoulli_table_equals_the_per_entry_powers(delta):
    # to_dense takes one probability per weight; the reference powers every entry
    for n in range(17):
        weights = np.array([bin(i).count("1") for i in range(1 << n)])
        want = _signed_power(delta, weights) * _signed_power(1.0 - delta, n - weights)
        assert np.array_equal(ProductBernoulli(delta, n).to_dense().probs, want)


def _full_rank_maps(q, n, m, count, seed):
    spec = CodeEnsembleSpec(FieldSpec(q), n, n - m, seed)
    return np.array([sample_uniform_code(spec, t).H.array for t in range(count)])


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("where", [0, 4, 8])
def test_stacked_rank_check_refuses_any_deficient_map(q, where):
    maps = _full_rank_maps(q, 5, 3, 9, 2)
    P = DensePmf.uniform(FieldSpec(q), 5)
    _pushforward_rows(P, maps, DEFAULT_CAPS)  # every map has full rank
    maps[where, 2] = (maps[where, 0] + 2 * maps[where, 1]) % q
    with pytest.raises(ValueError, match="rank deficient"):
        _pushforward_rows(P, maps, DEFAULT_CAPS)


# (q, n, digits of support): full support, and a flat source whose syndrome
# table covers only the first q^j points, so its batches hold more codes
@pytest.mark.parametrize("q, n, support", [(2, 8, 8), (2, 8, 5), (3, 5, 5), (3, 5, 3)])
def test_pushforward_batches_equal_a_per_code_loop(monkeypatch, q, n, support):
    field = FieldSpec(q)
    rng = np.random.default_rng((q, n, support))
    probs = np.zeros(q ** n)
    probs[:q ** support] = rng.random(q ** support)
    P = DensePmf(field, n, probs / probs.sum())
    maps = _full_rank_maps(q, n, 3, 23, 4)
    want = np.array([pushforward(P, FqMatrix(field, H)).probs for H in maps])
    # a budget of 5 tables of q^support entries: four batches of 5 codes, then 3
    monkeypatch.setattr(distributions, "_BATCH_ENTRIES", 5 * q ** support + q - 1)
    sizes = []
    image_rows = distributions._image_rows

    def recorded(q, arr):
        sizes.append(len(arr))
        return image_rows(q, arr)

    monkeypatch.setattr(distributions, "_image_rows", recorded)
    assert np.array_equal(_pushforward_rows(P, maps, DEFAULT_CAPS), want)
    assert sizes == [5, 5, 5, 5, 3]


@pytest.mark.parametrize("q, n, m", [(2, 9, 8), (3, 6, 5)])
def test_wide_syndrome_tables_push_forward_as_a_point_loop(q, n, m):
    # 2 q^m - 1 needs uint16 here, so the image tables are uint16 before the
    # bin offsets widen them to int64
    field = FieldSpec(q)
    maps = _full_rank_maps(q, n, m, 3, 11)
    probs = np.random.default_rng((q, n, m)).random(q ** n)
    P = DensePmf(field, n, probs / probs.sum())
    rows = _pushforward_rows(P, maps, DEFAULT_CAPS)
    for H, row in zip(maps, rows):
        H = FqMatrix(field, H)
        ref = np.zeros(q ** m)
        for x in range(q ** n):
            ref[vec_to_index(mat_vec(H, index_to_vec(x, n, field)))] += P.probs[x]
        assert np.array_equal(row, ref)
        assert np.array_equal(pushforward(P, H).probs, ref)
