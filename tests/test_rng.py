"""The block seeder against its reference, ``substream``.

``standard_normals`` must give, row for row and bit for bit, the normals of
``substream(seed, *path)``, i.e. of ``default_rng(SeedSequence(seed,
spawn_key=path))``.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from qbclink import rng
from qbclink.channel import FadingSpec, sample_double_rayleigh
from qbclink.montecarlo import FADING_BLOCK, ChannelKind, ExperimentSpec, run_rank_sweep
from qbclink.qi import QiParams
from qbclink.rng import _state_words, standard_normals, substream

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def _random_seeds(gen, count):
    """``SEEDS`` plus ``count`` each below 2**32 and in [2**32, 2**64)."""
    below = gen.integers(0, 2**32, size=count, dtype=np.uint64)
    above = gen.integers(2**32, 2**64 - 1, size=count, dtype=np.uint64, endpoint=True)
    return SEEDS + tuple(int(s) for s in np.concatenate([below, above]))


def _random_paths(gen, k, count=12):
    paths = gen.integers(0, 2**32, size=(count, k), dtype=np.uint64).tolist()
    return [tuple(p) for p in paths] + [(0,) * k, (2**32 - 1,) * k]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_state_words_match_seed_sequence(k):
    gen = np.random.default_rng(100 + k)
    for seed in _random_seeds(gen, 4):
        paths = _random_paths(gen, k)
        words = _state_words(seed, np.array(paths, dtype=np.uint32))
        assert words.dtype == np.uint64
        for row, path in zip(words, paths):
            expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
            assert np.array_equal(row, expected), (seed, path)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, rng.MAX_PATH_WORDS])
def test_normals_match_substream(k):
    # rectangular paths of words below 2**32, up to the widest row the hash
    # table holds, at every seed below 2**64
    gen = np.random.default_rng(200 + k)
    for seed in _random_seeds(gen, 2):
        paths = _random_paths(gen, k, count=6)
        got = standard_normals(seed, paths, 97)
        assert got.shape == (len(paths), 97)
        expected = [substream(seed, *p).standard_normal(97) for p in paths]
        assert np.array_equal(got, expected), seed


# inputs no sweep, oracle or channel draws: each names its offending value
REJECTED = {
    "seed-2^64": (2**64, [(1, 2, 0), (3, 4, 5)], "below 2**64, got 18446744073709551616"),
    "seed-2^70": (2**70, [(1, 2, 0), (3, 4, 5)], f"below 2**64, got {2**70}"),
    "seed-2^200": (2**200, [(1, 2, 0), (3, 4, 5)], f"below 2**64, got {2**200}"),
    "float-seed": (3.0, [(1, 2)], "integer below 2**64, got 3.0"),
    "negative-seed": (-1, [(1, 2)], "non-negative integer below 2**64, got -1"),
    "negative-word": (7, [(1, 2), (1, -2)], "non-negative integers below 2**32, got -2"),
    "word-2^32": (7, [(1, 2**32, 0), (1, 2, 0)], "below 2**32, got 4294967296"),
    "33-bit-word-among-32-bit-rows": (7, [(1, 2, 0), (5, 2**33 - 1, 0)], f"got {2**33 - 1}"),
    # numpy reads a word past uint64 as an object (past int64: below)
    "uint64-word-2^63": (7, np.array([(1, 2), (2**63, 1)], dtype=np.uint64),
                         "got 9223372036854775808"),
    "word-2^600": (7, [(2**600, 1, 0), (3, 4, 5)], f"got {2**600}"),
    "float-block": (7, np.array([(1.0, 2.0)]), "below 2**32, got 1.0"),
    "ragged": (7, [(1,), (2, 3), (4, 5, 6)], "inhomogeneous shape"),
    "17-words": (7, [tuple(range(17)), tuple(range(1, 18))], "(B, k <= 16), got (2, 17)"),
    "3-d-block": (7, np.zeros((2, 2, 2), dtype=int), "got (2, 2, 2)"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_inputs_past_the_block_rejected(case):
    seed, paths, message = REJECTED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        standard_normals(seed, paths, 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        next(rng.row_generators(seed, paths))


def test_block_mixing_fast_rows_and_a_word_past_int64(monkeypatch):
    # numpy reads a word of 2**63 or more as a float: the block is rejected
    # whole, naming the word as given, and no row falls back to a substream
    paths = [(1, 2, 0), (2**63, 1, 0), (3, 4, 5), (2**32 - 1, 7, 1)]
    calls = []

    def recording(seed, *path):
        calls.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(rng, "substream", recording)
    rows = rng.row_generators(7, paths)
    with pytest.raises(ValueError, match=f"below 2\\*\\*32, got {2**63}$"):
        next(rows)
    assert calls == []


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint32, np.int32])
def test_numpy_integer_words_equal_substream(dtype):
    paths = np.array([(1, 2, 0), (8, 199, 3), (0, 0, 0), (2**31 - 1, 5, 1)], dtype=dtype)
    as_tuples = [tuple(int(w) for w in p) for p in paths]
    got = standard_normals(2**40 + 3, paths, 21)
    assert np.array_equal(got, standard_normals(2**40 + 3, as_tuples, 21))
    # one numpy scalar per word, as a path of a list
    scalars = [tuple(dtype(w) for w in p) for p in as_tuples]
    assert np.array_equal(standard_normals(2**40 + 3, scalars, 21), got)
    for row, path in zip(got, as_tuples):
        assert np.array_equal(row, substream(2**40 + 3, *path).standard_normal(21))


def test_one_word_paths_as_a_sequence():
    # a sequence of integers is one one-word path each
    got = standard_normals(11, [3, 2**32 - 1, 0], 9)
    assert np.array_equal(got, standard_normals(11, [(3,), (2**32 - 1,), (0,)], 9))
    with pytest.raises(ValueError, match=f"got {2**63}$"):
        standard_normals(11, [3, 2**63], 9)


def test_no_paths_give_no_rows():
    assert standard_normals(7, [], 5).shape == (0, 5)
    # an empty block of rows takes the block seeder
    assert standard_normals(7, np.empty((0, 2), dtype=np.int64), 5).shape == (0, 5)


@pytest.mark.parametrize(
    "seed, paths", [(-1, [(1, 2)]), (7, [(1, 2), (1, -2)])], ids=["seed", "word"]
)
def test_negative_values_rejected_like_substream(seed, paths):
    with pytest.raises(ValueError, match="non-negative"):
        substream(seed, *paths[-1])
    with pytest.raises(ValueError, match="non-negative"):
        standard_normals(seed, paths, 4)


def test_golden_stream_sha256():
    # Computed with substream alone: seed 7, paths (rank, trial, attempt) for
    # ranks 1..8, trials 0..199, attempt 0, 256 normals each (the stream of a
    # rank-8 8x8 draw), as little-endian float64.  Any change to the seeding
    # or to numpy's streams changes it on every platform.
    keys = [(rank, trial, 0) for rank in range(1, 9) for trial in range(200)]
    normals = standard_normals(7, keys, 256).astype("<f8")
    assert hashlib.sha256(normals.tobytes()).hexdigest() == (
        "74f403b147a2efd8dd12a781d3798678ad54f4944b273bc0d60f23cf17f6e847"
    )


def test_fading_path_builds_no_substream(monkeypatch):
    calls = []

    def counting(seed, *path):
        calls.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(rng, "substream", counting)
    spec = ExperimentSpec(
        n_tx=8, n_rx=8, rank_sweep=(1, 8), reference_rtt=1e-5,
        qi=QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9), trials=80, seed=2**64 - 1,
        channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
    )
    run_rank_sweep(spec)
    # 0.04 rejects most rank-8 draws, so redraws at attempt > 0 run too
    _, rejections = sample_double_rayleigh(
        FadingSpec(8, 8, 8, 0.04, seed=5), [(8, t) for t in range(80)]
    )
    assert rejections.sum() > 0
    assert calls == []

    # a draw whose path holds a word of 2**32 or more is rejected, not drawn
    # from a substream
    with pytest.raises(ValueError, match="got 4294967296"):
        sample_double_rayleigh(FadingSpec(4, 4, 2, 1e-5, 3), [(2**32, 1)])
    assert calls == []


def test_row_after_a_32_bit_draw_equals_substream():
    # integers(1, 9) draws 32 bits and leaves the other half of its 64-bit
    # word buffered; the next row must not start from it
    paths = [(t,) for t in range(5)]
    got = []
    for _, gen in rng.row_generators(3, paths):
        got.append((gen.integers(1, 9), gen.integers(1, 9), gen.standard_normal()))
    expected = []
    for path in paths:
        gen = substream(3, *path)
        expected.append((gen.integers(1, 9), gen.integers(1, 9), gen.standard_normal()))
    assert got == expected


def test_interleaved_iterators_each_match_substream():
    # each row's draws are taken before the next row of either iterator
    first = rng.row_generators(5, [(1, t) for t in range(6)])
    second = rng.row_generators(2**40, [(2, t, 0) for t in range(6)] + [(2**32 - 1, 1, 0)])
    for t in range(6):
        _, gen = next(first)
        a = gen.standard_normal(7)
        _, gen = next(second)
        b = gen.standard_normal(7)
        assert np.array_equal(a, substream(5, 1, t).standard_normal(7))
        assert np.array_equal(b, substream(2**40, 2, t, 0).standard_normal(7))
    _, gen = next(second)  # the largest word, after the other rows
    assert np.array_equal(gen.standard_normal(7),
                          substream(2**40, 2**32 - 1, 1, 0).standard_normal(7))
    assert next(first, None) is None and next(second, None) is None


def test_state_view_round_trips_the_public_state():
    gen, lcg, buffer, limbs = rng._generator()
    bitgen = gen.bit_generator
    draws = np.random.default_rng(17).integers(0, 2**63, size=(16, 2, 4), dtype=np.uint64)
    for given, written in (draws | np.uint64(2**63)).tolist():  # every word's top bit set
        # set through the public setter, read through the view
        state, inc = given[1] << 64 | given[0], given[3] << 64 | given[2]
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 1, "uinteger": given[0] & 0xFFFFFFFF}
        assert [lcg.cast("Q")[j] for j in limbs] == given
        assert buffer.cast("I").tolist() == [1, given[0] & 0xFFFFFFFF]
        # written through the view as the seeder writes it, read through the
        # public getter
        row = np.empty(4, dtype=np.uint64)
        row[list(limbs)] = written
        lcg[:] = row.tobytes()
        buffer[:] = bytes(8)
        state, inc = written[1] << 64 | written[0], written[3] << 64 | written[2]
        assert bitgen.state == {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                "state": {"state": state, "inc": inc}}


def test_generator_is_built_once_per_process():
    # an 8-rank sweep seeds 8 x ceil(150 / FADING_BLOCK) blocks from the one
    # cached generator
    rng._generator.cache_clear()
    spec = ExperimentSpec(
        n_tx=8, n_rx=8, rank_sweep=tuple(range(1, 9)), reference_rtt=1e-5,
        qi=QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9), trials=150, seed=4,
        channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
    )
    run_rank_sweep(spec)
    standard_normals(9, [(1,), (2**32 - 1,)], 3)  # one more block
    info = rng._generator.cache_info()
    assert (info.misses, info.hits) == (1, 8 * math.ceil(150 / FADING_BLOCK))
