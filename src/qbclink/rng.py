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
HMC-CS-2014-0905).  The block seeder takes the seed's part of the pool from
numpy (``SeedSequence(seed).pool``), mixes in every path's words as
``uint32`` array operations and runs the LCG steps on ``uint64`` limbs
(:func:`_pcg_states`).  It then writes each path's ``(state, inc)`` straight
into the state struct of the process's one ``PCG64`` through byte views, and
clears the struct's buffered 32-bit half (:func:`_generator`, built at the
first draw, probes the struct's limb order).  It takes only what the program
draws: a seed in [0, 2**64) and path words in [0, 2**32) (:func:`path_words`).
"""

from __future__ import annotations

import ctypes
import functools
import numbers

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128): its 64-bit
# limbs, and the 32-bit halves of the low limb for the high product
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LO, _MULT_HI = np.uint64(_PCG_MULT & 2**64 - 1), np.uint64(_PCG_MULT >> 64)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32, _U32, _U63, _U1 = np.uint64(_MASK32), np.uint64(32), np.uint64(63), np.uint64(1)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


MAX_PATH_WORDS = 16  # a row's most path words
# The hash multiplier runs through init * mult**i, whatever the data, so
# every step's constants are known ahead: hashmix step i XORs with
# init * mult**i and multiplies by init * mult**(i + 1).  A spawned pool takes
# 4 steps for the seed's words (a seed below 2**64 is padded to 4), 12 to mix
# the pool, and 4 per path word from step 16 on.
_HASH_A = _powers(_INIT_A, _MULT_A, 16 + 4 * MAX_PATH_WORDS + 1)
_PATH_XOR, _PATH_MULT = _HASH_A[16:-1], _HASH_A[17:]
# generate_state(4, uint64): 8 words, cycling through the 4 pool words
_STATE_B = _powers(_INIT_B, _MULT_B, 9)
_STATE_POOL = np.arange(8) % 4


def _state_words(seed: int, words: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=row).generate_state(4, uint64)`` for each
    row of the ``(B, k)`` uint32 array ``words``, for a seed below 2**64."""
    k = words.shape[1]
    # every word's 4 hash steps at once: word j takes path steps 4j .. 4j + 3
    hashed = (np.repeat(words, 4, axis=1) ^ _PATH_XOR[: 4 * k]) * _PATH_MULT[: 4 * k]
    hashed = (hashed ^ hashed >> _XSHIFT).reshape(len(words), k, 4)
    # SeedSequence(seed).pool is the spawned pool before its path: numpy pads
    # a short seed with hashes of 0, as a spawned sequence pads it with zero
    # words; each path word then mixes into all four pool words of every row
    pool = np.broadcast_to(np.random.SeedSequence(seed).pool, (len(words), 4))
    for j in range(k):
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * hashed[:, j]
        pool ^= pool >> _XSHIFT
    state = pool[:, _STATE_POOL] ^ _STATE_B[:8]
    state *= _STATE_B[1:]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _pcg_states(words: np.ndarray, limbs: tuple) -> np.ndarray:
    """``PCG64``'s ``(state, inc)`` after seeding from each row of the
    ``(B, 4)`` uint64 ``words``, as ``(B, 4)`` uint64 limbs in the struct
    order ``limbs`` gives: the columns of state low, state high, inc low and
    inc high.

    ``pcg_setseq_128_srandom_r``: ``inc = initseq << 1 | 1``, then ``state =
    ((inc + initstate) * mult + inc) mod 2**128``, where ``initstate`` is
    words 0 and 1 and ``initseq`` words 2 and 3, high word first.
    """
    s0, s1, s2, s3 = words.T
    inc_lo = s3 << _U1 | _U1
    inc_hi = s2 << _U1 | s3 >> _U63
    t_lo = inc_lo + s1
    t_hi = inc_hi + s0 + (t_lo < inc_lo)
    # the high 64 bits of t_lo * mult_lo from 32-bit partial products
    a0, a1 = t_lo & _LOW32, t_lo >> _U32
    p01, p10 = a0 * _MULT_LO_1, a1 * _MULT_LO_0
    mid = (a0 * _MULT_LO_0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    out = np.empty((len(words), 4), dtype=np.uint64)
    state_lo = out[:, limbs[0]] = t_lo * _MULT_LO + inc_lo
    out[:, limbs[1]] = high + t_lo * _MULT_HI + t_hi * _MULT_LO + inc_hi + (state_lo < inc_lo)
    out[:, limbs[2]], out[:, limbs[3]] = inc_lo, inc_hi
    return out


@functools.cache
def _generator():
    """``(generator, lcg, buffer, limbs)``: the process's one ``PCG64``
    generator, a byte view of its ``(state, inc)`` struct, a byte view of its
    ``has_uint32``/``uinteger`` buffer, and where the struct holds each
    uint64 limb (:func:`_pcg_states`).

    The limb order is probed, not assumed: a state of distinct limbs set
    through the public setter is looked up in the struct.  A compiler's
    little-endian ``__uint128_t`` holds low, high; numpy's emulated one high,
    low.
    """
    # numpy's pcg64_state: a pointer to the (state, inc) struct, then the
    # has_uint32 and uinteger fields of the 32-bit buffer
    bitgen = np.random.PCG64(0)
    address = bitgen.ctypes.state_address
    pointer = ctypes.c_void_p.from_address(address).value
    lcg = memoryview((ctypes.c_uint64 * 4).from_address(pointer)).cast("B")
    after_pointer = address + ctypes.sizeof(ctypes.c_void_p)
    buffer = memoryview((ctypes.c_uint64 * 1).from_address(after_pointer)).cast("B")
    probe = [0x0123456789ABCDEF, 0x1122334455667788, 0x0FEDCBA987654321, 0x8877665544332211]
    bitgen.state = {
        "bit_generator": "PCG64", "has_uint32": 1, "uinteger": 0x9E3779B9,
        "state": {"state": probe[1] << 64 | probe[0], "inc": probe[3] << 64 | probe[2]},
    }
    found, buffered = lcg.cast("Q").tolist(), buffer.cast("I").tolist()
    for limbs in ((0, 1, 2, 3), (1, 0, 3, 2)):
        if [found[j] for j in limbs] == probe and buffered == [1, 0x9E3779B9]:
            return np.random.Generator(bitgen), lcg, buffer, limbs
    raise RuntimeError(f"numpy {np.__version__}: PCG64's state struct is not laid out "
                       "as the block seeder writes it")


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

    Every row of every call shares the process's one generator, so take a
    row's draws before the next row of any ``row_generators`` iterator is
    requested.  ``seed`` must be an integer in [0, 2**64) and ``paths`` as
    :func:`path_words` says; anything else raises ``ValueError``.
    """
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be a non-negative integer below 2**64, got {seed}")
    gen, lcg, buffer, limbs = _generator()
    # bytes, not a cast memoryview: a cast rejects an empty block
    states = _pcg_states(_state_words(int(seed), path_words(paths)), limbs).tobytes()
    for i, k in enumerate(range(0, len(states), 32)):
        lcg[:] = states[k : k + 32]
        buffer[:] = b"\0" * 8  # no 32-bit half left over from the previous row
        yield i, gen


def path_words(paths) -> np.ndarray:
    """The ``(B, k)`` uint32 words of ``paths``: a rectangular integer block of
    at most ``MAX_PATH_WORDS`` words a row, or a sequence of one-word paths,
    each word in [0, 2**32); ``ValueError`` naming what is not (numpy's own
    for ragged paths)."""
    block = np.asarray(paths)
    rows = block[:, None] if block.ndim == 1 else block
    if rows.ndim != 2 or rows.shape[1] > MAX_PATH_WORDS:
        raise ValueError(f"stream paths must be (B, k <= {MAX_PATH_WORDS}), got {block.shape}")
    if block.size and (block.dtype.kind not in "iu" or block.min() < 0 or block.max() > _MASK32):
        # named from paths: numpy reads an int past int64 as a float
        words = paths if block.ndim == 1 else (w for row in paths for w in row)
        bad = next((w for w in words
                    if not (isinstance(w, numbers.Integral) and 0 <= w <= _MASK32)), block.dtype)
        raise ValueError(f"stream path words must be non-negative integers below 2**32, got {bad}")
    return rows.astype(np.uint32)


def standard_normals(seed: int, paths, size: int) -> np.ndarray:
    """The first ``size`` normals of ``substream(seed, *path)`` for each of the
    ``(B, k)`` ``paths``, one row per path, bit for bit; seeded as
    :func:`row_generators` says."""
    out = np.empty((len(paths), size))
    for i, gen in row_generators(seed, paths):
        gen.standard_normal(out=out[i])
    return out
