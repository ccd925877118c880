"""The vectorised trial streams against numpy's own SeedSequence, PCG64 and
Generator.integers, step by step, and the q = 2 draws served from a kept one."""

import sys
import threading

import numpy as np
import pytest

from synhash import streams, verify
from synhash.distributions import _BATCH_ENTRIES
from synhash.field import FieldSpec
from synhash.streams import TrialStreams, raw_outputs, seed_state
from synhash.verify import _random_pmf, _random_probs

# one and several entropy words on both sides; 2^32 - 1 and 2^32 + 3 sit on
# either side of the point where a trial index takes a second word
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 11]
TRIALS = [0, 1, 2 ** 32 - 1, 2 ** 32 + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trial", TRIALS)
def test_seed_state_is_seed_sequence_state(seed, trial):
    ref = np.random.SeedSequence((seed, trial)).generate_state(4, np.uint64)
    got = seed_state(seed, trial, trial + 1)
    assert got.dtype == np.uint64 and np.array_equal(got[0], ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trial", TRIALS)
def test_raw_outputs_are_pcg64_outputs(seed, trial):
    ref = np.random.PCG64((seed, trial)).random_raw(61)
    assert np.array_equal(raw_outputs(seed, trial, trial + 1, 61)[0], ref)


def test_a_span_across_the_second_trial_word_keeps_every_row():
    start, stop = 2 ** 32 - 3, 2 ** 32 + 2
    got = seed_state(7, start, stop)
    ref = [np.random.SeedSequence((7, t)).generate_state(4, np.uint64) for t in range(start, stop)]
    assert np.array_equal(got, np.array(ref))
    raw = [np.random.PCG64((7, t)).random_raw(5) for t in range(start, stop)]
    assert np.array_equal(raw_outputs(7, start, stop, 5), np.array(raw))


# 2^31 + 11 and 3 * 2^30 + 5 reject about half and a quarter of the words
@pytest.mark.parametrize("q", [2, 3, 5, 9973, 2 ** 31 + 11, 3 * 2 ** 30 + 5])
def test_integers_follow_each_trial_generator_across_draws(q):
    # odd counts leave half an output for the next draw of the same trial,
    # and draws for a subset of the trials leave the others where they were
    start, stop = 5, 45
    streams = TrialStreams(0xC0DE, start, stop)
    rngs = [np.random.default_rng((0xC0DE, t)) for t in range(start, stop)]
    for count, rows in ((7, range(40)), (25, range(0, 40, 3)), (1, range(40)),
                        (120, range(1, 40, 2)), (0, range(40)), (18, range(40))):
        rows = np.array(rows, dtype=np.int64)
        got = streams.integers(rows, q, count)
        assert got.shape == (len(rows), count) and got.dtype == np.min_scalar_type(q - 1)
        ref = [rngs[r].integers(0, q, size=count, dtype=np.int64) for r in rows]
        assert np.array_equal(got, np.array(ref).reshape(len(rows), count))


@pytest.mark.parametrize("q", [0, 1, 2 ** 32])
def test_integers_need_a_bounded_draw(q):
    with pytest.raises(ValueError, match="q"):
        TrialStreams(1, 0, 2).integers(np.arange(2), q, 3)


# a key of several words before t, an empty one, and one with a 2^32-or-more entry
KEYS = [(0xC0DE, 31), (0xC0DE, 23, 2, 5), (), (2 ** 40 + 3, 0, 7)]


@pytest.mark.parametrize("key", KEYS)
def test_seed_state_takes_a_constant_key_before_the_trial(key):
    start, stop = 2 ** 32 - 2, 2 ** 32 + 2
    ref = [np.random.SeedSequence((*key, t)).generate_state(4, np.uint64)
           for t in range(start, stop)]
    assert np.array_equal(seed_state(key, start, stop), np.array(ref))
    raw = [np.random.PCG64((*key, t)).random_raw(9) for t in range(3)]
    assert np.array_equal(raw_outputs(key, 0, 3, 9), np.array(raw))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("size", [1, 16, 64, 243, 256, 257, 1024])
def test_random_pmfs_are_generator_draws(key, size):
    # row t is default_rng((*key, t)).random(size) + 1e-9, normalised, bit for
    # bit: rows of up to 256 entries are drawn as one stack, wider ones and a
    # single row by numpy one generator at a time
    got = _random_probs(key, 3, 11, size)
    assert got.shape == (8, size)
    for t, row in zip(range(3, 11), got):
        raw = np.random.default_rng((*key, t)).random(size) + 1e-9
        assert np.array_equal(row, raw / raw.sum())
    assert np.array_equal(_random_probs(key, 7, 8, size), got[4:5])
    assert _random_probs(key, 7, 7, size).shape == (0, size)
    pmf = _random_pmf(FieldSpec(3), 5, (*key, 7))
    assert np.array_equal(pmf.probs, _random_probs(key, 7, 8, 243)[0])


def test_seed_state_refuses_negative_key_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        seed_state((1, -2), 0, 3)


@pytest.mark.parametrize("start, stop, match", [(-1, 3, "nonnegative"),
                                                (2 ** 63 - 2, 2 ** 63 + 1, "2\\^63")])
def test_trials_outside_int64_are_refused(start, stop, match):
    with pytest.raises(ValueError, match=match):
        seed_state(1, start, stop)
    with pytest.raises(ValueError, match=match):
        TrialStreams(1, start, stop)


# the kept q = 2 draw: trials 0 .. 39 of SEED, 120 digits each
SEED = 0xC0DE


@pytest.fixture
def kept_draw(monkeypatch):
    """Keep the first 120 digits of trials 0 .. 39 of SEED, and count every
    draw made after it as (rows, q, count)."""
    monkeypatch.setattr(TrialStreams, "_kept", None)
    TrialStreams(SEED, 0, 40).integers(np.arange(40), 2, 120)
    draws = []
    real = TrialStreams._draw

    def draw(self, rows, q, count):
        draws.append((len(rows), q, count))
        return real(self, rows, q, count)

    monkeypatch.setattr(TrialStreams, "_draw", draw)
    return draws


def _numpy_digits(rngs, q, count):
    return np.array([rng.integers(0, q, size=count, dtype=np.int64) for rng in rngs])


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 56, 61, 1000])
def test_a_jump_is_the_last_row_of_the_jump_table(steps):
    assert streams._jump(steps) == tuple(row[steps] for row in streams._jumps(steps))


def test_the_kept_bound_is_one_monte_carlo_span():
    assert streams._KEEP_DIGITS == verify._SPAN_BATCHES * _BATCH_ENTRIES


@pytest.mark.parametrize("width", [112, 21])
def test_served_draws_are_numpys_and_read_on(kept_draw, width):
    table = TrialStreams._kept[2]
    assert table.shape == (40, 120) and not table.flags.writeable
    start, stop = 5, 30
    trials = TrialStreams(SEED, start, stop)
    rngs = [np.random.default_rng((SEED, t)) for t in range(start, stop)]
    # two parts served apart, at widths of either parity and jumps of
    # different lengths, are seeded by one later draw
    for rows, count in ((np.arange(12), width), (np.arange(12, 25), width - 3)):
        got = trials.integers(rows, 2, count)
        assert np.array_equal(got, _numpy_digits([rngs[r] for r in rows], 2, count))
    assert kept_draw == [] and TrialStreams._kept[2] is table  # served, and not kept
    # after an odd width half of a word is left over; the next draws read on
    # from it, at q = 2 and past a bounded draw's rejections at q = 3
    rows = np.arange(0, stop - start, 3)
    got = trials.integers(rows, 2, 17)
    assert np.array_equal(got, _numpy_digits([rngs[r] for r in rows], 2, 17))
    got = trials.integers(np.arange(stop - start), 3, 9)
    assert np.array_equal(got, _numpy_digits(rngs, 3, 9))
    assert [call[1:] for call in kept_draw] == [(2, 17), (3, 9)]


@pytest.mark.parametrize("seed, start, stop, q, count", [
    (SEED + 1, 0, 10, 2, 20),  # another seed
    (SEED, 35, 41, 2, 20),  # a trial past the kept range
    (SEED, 0, 10, 2, 121),  # wider than the kept draw
    (SEED, 0, 10, 3, 20),  # q = 3
])
def test_draws_the_kept_table_lacks_are_drawn(kept_draw, seed, start, stop, q, count):
    table = TrialStreams._kept[2]
    got = TrialStreams(seed, start, stop).integers(np.arange(stop - start), q, count)
    rngs = [np.random.default_rng((seed, t)) for t in range(start, stop)]
    assert np.array_equal(got, _numpy_digits(rngs, q, count))
    assert kept_draw and kept_draw[0] == (stop - start, q, count)
    # a drawn q = 2 first draw is kept in the table's place
    assert (TrialStreams._kept[2] is table) == (q != 2)


def test_writing_into_a_served_stack_leaves_the_kept_table(kept_draw):
    table = TrialStreams._kept[2]
    before = table.copy()
    got = TrialStreams(SEED, 0, 40).integers(np.arange(40), 2, 112)
    got ^= 1
    assert np.array_equal(table, before)
    again = TrialStreams(SEED, 0, 40).integers(np.arange(40), 2, 112)
    assert kept_draw == [] and np.array_equal(again, before[:, :112])


def test_a_draw_past_the_bound_is_not_kept(monkeypatch):
    # two trials of half the bound fill it; one more digit each passes it
    half = streams._KEEP_DIGITS // 2
    for count, kept in ((half, True), (half + 1, False)):
        monkeypatch.setattr(TrialStreams, "_kept", None)
        TrialStreams(SEED, 0, 2).integers(np.arange(2), 2, count)
        assert (TrialStreams._kept is not None) == kept


def test_threads_sharing_the_kept_table_draw_numpys_digits(monkeypatch):
    # each thread keeps draws of its own seed while the others replace them;
    # a draw served from a table of another seed, or from a torn read of the
    # table and its key, would differ from numpy's
    monkeypatch.setattr(TrialStreams, "_kept", None)
    seeds = range(4)
    refs = {seed: _numpy_digits([np.random.default_rng((seed, t)) for t in range(8)], 2, 40)
            for seed in seeds}
    wrong = []

    def work(seed):
        for _ in range(50):
            for count in (40, 30):
                got = TrialStreams(seed, 0, 8).integers(np.arange(8), 2, count)
                if not np.array_equal(got, refs[seed][:, :count]):
                    wrong.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and wrong == []
