"""numpy's default_rng((seed, t)) streams for a span of trials t, drawn in numpy.

Trial t of a sampled code ensemble reads its matrices from
np.random.default_rng((seed, t)).integers(0, q, ..., dtype=np.int64).  That
call runs three published algorithms: SeedSequence's entropy mixing (pool of
four 32-bit words), the PCG64 generator (O'Neill 2014) and Lemire's bounded
draw (arXiv 1805.10941).  TrialStreams runs the same three steps for every
trial of a span at once, as whole-array arithmetic, and gives the same digits
bit for bit.  Every operand is a uint64 array, and 32-bit halves are split by
mask and shift, so neither numpy 1.x's type promotion nor the byte order can
change a bit.  tests/test_streams.py checks each step against numpy itself.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["TrialStreams", "seed_state", "raw_outputs"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
# SeedSequence's hash constants, for its pool of four 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U64(0xCA01F9DD), _U64(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD128 = (1 << 128) - 1
# PCG64 states made at once per block of a draw: 8192 uint64 words per temporary
_BLOCK_STATES = 1 << 13


def _int_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from a nonnegative int."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The running constants c_0 .. c_calls of hashmix, c_{i+1} = c_i * mult mod 2^32."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint64)
    consts.flags.writeable = False
    return consts


class _HashMix:
    """SeedSequence's hashmix, for a run of successive calls at once: call i
    XORs in the running constant c_i, multiplies by c_{i+1} and folds the top
    half down."""

    def __init__(self, init: int, mult: int) -> None:
        self.init, self.mult, self.calls = init, mult, 0

    def __call__(self, values: np.ndarray, calls: int) -> np.ndarray:
        """The next `calls` calls, call j on column j of values (broadcast to
        (T, calls))."""
        consts = _hash_consts(self.init, self.mult, self.calls + calls)[self.calls:]
        self.calls += calls
        values = (values ^ consts[:-1]) * consts[1:] & _MASK32
        return values ^ (values >> _U64(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> _U64(16))


def _pool_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for a (T, L) uint64
    array of uint32 entropy words, one row per trial, as a (T, 4) uint64 array.

    SeedSequence mixes its pool one word at a time, but the calls of each loop
    below read a pool word that none of them writes, so they run together.
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = np.zeros((len(entropy), _POOL), dtype=np.uint64)
    pool[:, :entropy.shape[1]] = entropy[:, :_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[:, dst] = _mix(pool[:, dst], hashmix(pool[:, src, None], _POOL - 1))
    for word in range(_POOL, entropy.shape[1]):
        pool = _mix(pool, hashmix(entropy[:, word, None], _POOL))
    # eight uint32 words, cycling over the pool; uint64 word j is uint32 word
    # 2j below word 2j + 1
    words = _HashMix(_INIT_B, _MULT_B)(np.tile(pool, 2), 2 * _POOL)
    return words[:, 0::2] | words[:, 1::2] << _SHIFT32


def seed_state(key, start: int, stop: int) -> np.ndarray:
    """SeedSequence((*key, t)).generate_state(4, np.uint64) for t in
    start .. stop-1, as a (T, 4) uint64 array.  key is a tuple of
    nonnegative ints, such as (seed, 31); an int seed is the key (seed,).

    The entropy of (*key, t) is the words of each key entry and then those
    of t.  Only t's low word changes within a run of 2^32 trials, so the
    trials are mixed a run at a time, with the other words constant.
    """
    key = (key,) if isinstance(key, (int, np.integer)) else tuple(key)
    if start < 0 or any(entry < 0 for entry in key):
        raise ValueError("seeds and trial indices must be nonnegative")
    key_words = [word for entry in key for word in _int_words(int(entry))]
    out = np.empty((max(0, stop - start), 4), dtype=np.uint64)
    t = start
    while t < stop:
        high = t >> 32
        end = min(stop, (high + 1) << 32)
        high_words = _int_words(high) if high else []
        entropy = np.empty((end - t, len(key_words) + 1 + len(high_words)), dtype=np.uint64)
        entropy[:, :len(key_words)] = key_words
        entropy[:, len(key_words)] = np.arange(t - (high << 32), end - (high << 32))
        entropy[:, len(key_words) + 1:] = high_words
        out[t - start:end - start] = _pool_state(entropy)
        t = end
    return out


def _split(value: int) -> tuple[int, int]:
    return value >> 64, value & 0xFFFFFFFFFFFFFFFF


@functools.lru_cache(maxsize=16)
def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """(M^j, S_j) for j = 0 .. count as (hi, lo, hi, lo) uint64 rows, with
    S_j = 1 + M + ... + M^{j-1}: j PCG64 steps take s to M^j s + S_j inc."""
    mul, add = [1], [0]
    for _ in range(count):
        mul.append(mul[-1] * _PCG_MULT & _MOD128)
        add.append((add[-1] * _PCG_MULT + 1) & _MOD128)
    rows = [np.array(half, dtype=np.uint64)
            for values in (mul, add) for half in zip(*map(_split, values))]
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of two uint64 arrays, as (hi, lo)."""
    a0, a1 = a & _MASK32, a >> _SHIFT32
    b0, b1 = b & _MASK32, b >> _SHIFT32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2^128 of 128-bit arrays given as uint64 halves."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _advance(state: tuple, inc: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 states 0 .. count steps on from (T,) states with (T,) increments,
    as (hi, lo) arrays of shape (T, count + 1)."""
    m_hi, m_lo, s_hi, s_lo = _jumps(count)
    col = np.s_[:, None]
    return _add128(*_mul128(state[0][col], state[1][col], m_hi, m_lo),
                   *_mul128(inc[0][col], inc[1][col], s_hi, s_lo))


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output: hi ^ lo rotated right by the top six bits."""
    value, rot = hi ^ lo, hi >> _U64(58)
    return (value >> rot) | (value << ((_U64(64) - rot) & _U64(63)))


def _seeded(words: np.ndarray) -> tuple[tuple, tuple]:
    """PCG64's (state, inc) from generate_state(4, uint64) words: the words are
    (seed hi, seed lo, sequence hi, sequence lo), inc = sequence << 1 | 1 and
    the state is ((inc + seed) M + inc) mod 2^128."""
    inc = ((words[:, 2] << _U64(1)) | (words[:, 3] >> _U64(63)),
           (words[:, 3] << _U64(1)) | _U64(1))
    start = _add128(*inc, words[:, 0], words[:, 1])
    state = _add128(*_mul128(*start, *map(_U64, _split(_PCG_MULT))), *inc)
    return state, inc


def raw_outputs(key, start: int, stop: int, count: int) -> np.ndarray:
    """PCG64((*key, t)).random_raw(count) for t in start .. stop-1, as a (T, count)
    array; key as in seed_state."""
    state, inc = _seeded(seed_state(key, start, stop))
    return _output(*_advance(state, inc, count))[:, 1:]


class TrialStreams:
    """The generators default_rng((seed, t)) of trials t = start .. stop-1, read together.

    Each trial keeps its PCG64 state and how many 32-bit words it has read.
    A 64-bit output gives two words, low half first; a half left over by one
    draw opens the next draw of the same trial, as numpy's buffer does.
    """

    def __init__(self, seed: int, start: int, stop: int) -> None:
        (self._hi, self._lo), self._inc = _seeded(seed_state(seed, start, stop))
        self._read = np.zeros(len(self._hi), dtype=np.int64)

    def _draw(self, rows: np.ndarray, q: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Lemire's digit u q >> 32 of each of the next count words u of each
        trial in rows, and whether the word is accepted: (len(rows), count)
        arrays of the smallest unsigned type that holds a digit, and of bool.

        The state has taken ceil(read / 2) steps, so with read odd the high
        half of its own output is the first unread word.  The outputs of the
        states 0 .. (count + 1) // 2 steps on are made a block of columns at
        a time, each block the one before it moved on by its width, so the
        temporaries stay small.
        """
        read = self._read[rows]
        steps = (count + 1) // 2
        width = max(1, min(steps + 1, _BLOCK_STATES // max(1, len(rows))))
        inc = (self._inc[0][rows], self._inc[1][rows])
        hi, lo = _advance((self._hi[rows], self._lo[rows]), inc, width - 1)
        m_hi, m_lo, s_hi, s_lo = (row[width] for row in _jumps(width))
        shift = _mul128(inc[0][:, None], inc[1][:, None], s_hi, s_lo)
        # every row ends ceil((read + count) / 2) - ceil(read / 2) steps on
        taken = (read + count + 1) // 2 - (read + 1) // 2
        new_hi, new_lo = np.empty_like(read, dtype=np.uint64), np.empty_like(read, dtype=np.uint64)
        digits = np.empty((len(rows), 2 * steps + 2), dtype=np.min_scalar_type(q - 1))
        keep = np.empty(digits.shape, dtype=bool)
        threshold, q = _U64((1 << 32) % q), _U64(q)
        for first in range(0, steps + 1, width):
            if first:
                hi, lo = _add128(*_mul128(hi, lo, m_hi, m_lo), *shift)
            cols = min(width, steps + 1 - first)
            raw = _output(hi[:, :cols], lo[:, :cols])
            for half, word in enumerate((raw & _MASK32, raw >> _SHIFT32)):
                m = word * q
                at = np.s_[:, 2 * first + half:2 * (first + cols):2]
                digits[at], keep[at] = m >> _SHIFT32, (m & _MASK32) >= threshold
            here = np.flatnonzero((taken >= first) & (taken < first + cols))
            col = taken[here] - first
            new_hi[here], new_lo[here] = hi[here, col], lo[here, col]
        self._hi[rows], self._lo[rows] = new_hi, new_lo
        self._read[rows] = read + count
        odd = (read % 2 == 1)[:, None]
        return (np.where(odd, digits[:, 1:1 + count], digits[:, 2:2 + count]),
                np.where(odd, keep[:, 1:1 + count], keep[:, 2:2 + count]))

    def integers(self, rows: np.ndarray, q: int, count: int) -> np.ndarray:
        """integers(0, q, size=count, dtype=np.int64) of each trial in rows, as
        a (len(rows), count) array of the smallest unsigned type that holds a digit.

        Lemire's draw takes m = u q of a word u and gives m >> 32; it rejects
        the word when m mod 2^32 < 2^32 mod q.  A trial with a rejected word
        reads as many more words as it lacks digits, until it has count.
        """
        if not 2 <= q < 1 << 32:
            raise ValueError(f"need 2 <= q < 2^32, got q={q}")
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((len(rows), count), dtype=np.min_scalar_type(q - 1))
        got = np.zeros(len(rows), dtype=np.int64)
        while (short := np.flatnonzero(got < count)).size:
            # the rows that lack as many digits as the first short row does
            group = short[got[short] == got[short[0]]]
            need = count - int(got[group[0]])
            digits, keep = self._draw(rows[group], q, need)
            clean = keep.all(axis=1)
            out[group[clean], count - need:] = digits[clean]
            got[group[clean]] = count
            for i in np.flatnonzero(~clean):
                accepted = digits[i, keep[i]]
                out[group[i], count - need:count - need + accepted.size] = accepted
                got[group[i]] += accepted.size
        return out
