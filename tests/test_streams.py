"""The vectorised trial streams against numpy's own SeedSequence, PCG64 and
Generator.integers, step by step."""

import numpy as np
import pytest

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
