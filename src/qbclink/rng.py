"""Deterministic, splittable random streams.

Every stochastic routine in the package derives its generator from an integer
seed plus an index path, so draw i of an ensemble produces identical numbers
no matter the batch size, execution order, or worker count.

:func:`substream` is the reference: ``default_rng(SeedSequence(seed,
spawn_key=path))``.  :func:`row_generators` seeds a block of paths at once,
each row's generator in the state of its substream; :func:`standard_normals`
draws a block's normals through it.  Both of numpy's seeding steps are fixed
algorithms under its stream-compatibility policy (NEP 19): the
``SeedSequence`` pool is O'Neill's ``seed_seq_fe`` hash of 32-bit words, and
``PCG64`` seeds itself with two 128-bit LCG steps (O'Neill,
HMC-CS-2014-0905).  The block seeder hashes the seed once per seed
(:func:`_seed_pool`), mixes in every path's words as ``uint32`` array
operations and runs the LCG steps on Python integers, then sets the state of
one reused ``PCG64`` per path.  ``SeedSequence`` hashes the 32-bit words of
the seed, then of each path value, so one seeder takes every path: a block of
``int64`` words below 2**32 as it stands, any other split row by row.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# The hash multiplier runs through init * mult**i, whatever the data, so
# every step's constants are known ahead: hashmix step i XORs with _HASH_A[i]
# and multiplies by _HASH_A[i + 1].  A spawned pool takes 4 steps for the
# padded seed words, 12 to mix the pool, and 4 per path word; the table holds
# paths of up to 16 words, and a longer one computes its own.
_HASH_A = _powers(_INIT_A, _MULT_A, 17 + 4 * 16)
# generate_state(4, uint64): 8 words, cycling through the 4 pool words
_STATE_B = _powers(_INIT_B, _MULT_B, 9)
_STATE_POOL = np.arange(8) % 4


def _hashmix(value: np.ndarray, step: int, count: int) -> np.ndarray:
    """``value`` hashed at steps ``step .. step + count - 1`` along the last axis."""
    stop = step + count + 1
    hash_a = _HASH_A if stop <= len(_HASH_A) else _powers(_INIT_A, _MULT_A, stop)
    value = (value ^ hash_a[step : stop - 1]) * hash_a[step + 1 : stop]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _words(value: int) -> list:
    """The little-endian 32-bit words ``SeedSequence`` splits ``value`` into."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """The read-only pool of ``SeedSequence(seed, spawn_key=path)``, ``seed <
    2**128``, before its first path word: the hash steps of the seed alone."""
    # a spawned sequence pads its seed words with zeros to the pool size
    pool = _hashmix(np.array((_words(seed) + [0] * 3)[:4], dtype=np.uint32), 0, 4)
    step = 4
    for src in range(4):
        dst = np.arange(4) != src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], step, 3))
        step += 3
    pool.flags.writeable = False
    return pool


def _state_words(seed: int, words: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=row).generate_state(4, uint64)`` for each
    row of the ``(B, k)`` uint32 array ``words``; ``seed < 2**128``."""
    k = words.shape[1]
    # every word's 4 hash steps at once: word j takes steps 16 + 4j .. 19 + 4j
    hashed = _hashmix(np.repeat(words, 4, axis=1), 16, 4 * k).reshape(len(words), k, 4)
    # each path word then mixes into all four pool words of every row
    pool = np.broadcast_to(_seed_pool(seed), (len(words), 4))
    for j in range(k):
        pool = _mix(pool, hashed[:, j])
    state = pool[:, _STATE_POOL] ^ _STATE_B[:8]
    state *= _STATE_B[1:]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator keyed by ``(seed, *path)``.

    Distinct paths give statistically independent streams; the same
    ``(seed, path)`` always reproduces the same stream.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError(f"stream path must be non-negative, got {path}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.default_rng(ss)


def row_generators(seed: int, paths):
    """Yield ``(row, generator)`` for each of the ``(B, k)`` ``paths``, the
    generator in the state ``substream(seed, *paths[row])`` starts in.

    Every row shares one reused generator, so take a row's draws before
    advancing to the next.  Paths may be ragged and their values as large as
    Python integers go; a negative seed or path value raises ``ValueError``.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    try:
        words = np.asarray(paths, dtype=np.int64)
    except (OverflowError, ValueError):  # a value of 2**63 or more, or ragged paths
        words = None
    if seed >> 128 or words is None or words.ndim != 2 or (words >> 32).any():
        blocks = (([i], _split_row(seed, path)) for i, path in enumerate(paths))
    else:  # every word is one uint32 already
        blocks = [(range(len(words)), words.astype(np.uint32))]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    lcg = {"state": 0, "inc": 0}  # set in place for each row
    state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    for rows, block in blocks:
        for i, (s0, s1, s2, s3) in zip(rows, _state_words(seed & _MASK128, block).tolist()):
            # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, then two LCG steps
            # from 0 with initstate added in between
            inc = lcg["inc"] = (s2 << 65 | s3 << 1 | 1) & _MASK128
            lcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = state
            yield i, gen


def _split_row(seed: int, path) -> np.ndarray:
    """The ``(1, k)`` uint32 words of ``path``, led by the seed's past the fourth."""
    key = tuple(int(v) for v in path)
    if min(key, default=0) < 0:
        raise ValueError(f"stream path must be non-negative, got {key}")
    return np.array([_words(seed)[4:] + [w for v in key for w in _words(v)]], dtype=np.uint32)


def standard_normals(seed: int, paths, size: int) -> np.ndarray:
    """The first ``size`` normals of ``substream(seed, *path)`` for each of the
    ``(B, k)`` ``paths``, one row per path, bit for bit; seeded as
    :func:`row_generators` says."""
    out = np.empty((len(paths), size))
    for i, gen in row_generators(seed, paths):
        gen.standard_normal(out=out[i])
    return out
