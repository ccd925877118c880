"""Closed forms the benchmark checks the program's outputs against.

Nothing here imports synhash: each oracle is an independent route to a number
the program computes another way, so a bug in the program cannot also hide in
its check.
"""

from __future__ import annotations

import math
import sys

# log2 of the smallest positive normal float64; below it the float64
# divergence column can only hold a subnormal or 0.0.
LOG2_NORMAL_MIN = math.log2(sys.float_info.min)


def gf2_rank(rows) -> int:
    """Rank over F_2 of a 0/1 matrix given as a sequence of rows."""
    basis: dict[int, int] = {}  # leading bit -> reduced row
    for row in rows:
        v = sum(int(bit) << i for i, bit in enumerate(row) if int(bit) % 2)
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def gaussian_binomial_2(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n, as a product formula."""
    num = den = 1
    for j in range(k):
        num *= 2 ** (n - j) - 1
        den *= 2 ** (j + 1) - 1
    return num // den


def flat_bucket_scaled_max(m: int, prefix_rank: int) -> float:
    """2^m times the largest syndrome probability of a flat source.

    A source uniform on the vectors supported on the first s coordinates maps
    onto the column space of H[:, :s], hitting each image point with
    probability 2^-rank(H[:, :s]).
    """
    return 2.0 ** (m - prefix_rank)


def rm1_dual_log2_excess(m: int, delta: float) -> float:
    """log2 of ||2^{n-k} P_HZ||_2^2 - 1 for RM(m-2, m) and Bernoulli(delta) noise.

    The dual RM(1, m) has weights 0 (once), 2^{m-1} (2^{m+1}-2 times) and 2^m
    (once), so the excess is (2^{m+1}-2) lam^{2^m} + lam^{2^{m+1}} with
    lam = 1 - 2 delta, evaluated here in log2 so that it never underflows.
    """
    lam = abs(1.0 - 2.0 * delta)
    mult = 2.0 ** (m + 1) - 2.0
    log2_main = math.log2(mult) + 2.0 ** m * math.log2(lam)
    # lam^{2^{m+1}} / main = lam^{2^m} / mult
    ratio_log2 = 2.0 ** m * math.log2(lam) - math.log2(mult)
    return log2_main + math.log1p(2.0 ** ratio_log2) / math.log(2.0)


def rm1_dual_log2_divergence(m: int, delta: float) -> float:
    """log2 of the order-2 divergence log2(1 + excess) of the RM(m-2, m) syndrome."""
    log2_excess = rm1_dual_log2_excess(m, delta)
    if log2_excess > -30.0:
        return math.log2(math.log1p(2.0 ** log2_excess) / math.log(2.0))
    # log1p(x) = x (1 - x/2 + ...); the correction is below 2^-31 here
    return log2_excess - math.log2(math.log(2.0)) + math.log2(1.0 - 2.0 ** (log2_excess - 1.0))


def rm_code_dimension(r: int, m: int) -> int:
    """Dimension of RM(r, m): the number of monomials of degree <= r."""
    return sum(math.comb(m, i) for i in range(r + 1))


def collision_rate_threshold(delta: float) -> float:
    """Code rate above which the order-2 syndrome divergence vanishes: 1 - h_2(delta)."""
    return 1.0 + math.log2(delta ** 2 + (1.0 - delta) ** 2)


def close(a: float, b: float, rel: float) -> bool:
    """|a - b| <= rel * max(|a|, |b|), false for NaN."""
    return abs(a - b) <= rel * max(abs(a), abs(b))
