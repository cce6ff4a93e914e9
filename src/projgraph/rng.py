"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from a stream derived by
:func:`substream` from a single master seed plus a path of identifying
parts (for example ``("growth", cell_index, replicate_index)``).  The
derivation is pure: a given ``(master_seed, *parts)`` always yields the
same stream, independent of the order in which streams are created and
of how work is scheduled across threads.  Reports produced from the same
master seed are therefore byte-identical across runs and worker counts.

Derivation, exactly: string parts are folded to 64-bit integers via the
first 8 bytes of their SHA-256 digest (big-endian); integer parts are
used as-is.  The resulting tuple becomes the ``spawn_key`` of a
``numpy.random.SeedSequence`` with the master seed as entropy, which
seeds a counter-based Philox generator.

Building one generator per stream costs tens of microseconds, most of it
in SeedSequence's hash.  Streams whose paths differ only in a tail of
integer parts below 2^32 share that hash up to the tail, so
:func:`_stream_keys` derives the Philox keys of many of them in one pass.
From those keys :func:`_first_uniforms` evaluates the first ``random()``
of every stream by Philox arithmetic on arrays (a draw from a table needs
only that uniform), and :func:`_streams` yields whole streams from one
reused generator: the prefix's own :func:`substream`, keyed per stream.
Both keep every bit of :func:`substream`, and both derive keys
``_DRAW_CHUNK`` rows at a time.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

__all__ = ["substream"]

_MAX_SEED = (1 << 64) - 1


def _part_key(part: int | str) -> int:
    if isinstance(part, bool):
        raise TypeError("stream id parts must be non-negative integers or strings")
    if isinstance(part, int):
        if part < 0:
            raise ValueError("integer stream id parts must be non-negative")
        return part
    if isinstance(part, str):
        # Imported here: its OpenSSL module takes milliseconds to load, and
        # only string parts need it.
        import hashlib

        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError("stream id parts must be non-negative integers or strings")


def _check_seed(master_seed: int) -> None:
    if isinstance(master_seed, bool) or not isinstance(master_seed, int):
        raise TypeError("master seed must be an integer")
    if not 0 <= master_seed <= _MAX_SEED:
        raise ValueError("master seed must lie in [0, 2**64)")


def substream(master_seed: int, *parts: int | str) -> np.random.Generator:
    """Return an independent random stream for the given id path.

    Streams with distinct ``parts`` tuples are statistically independent,
    and the same tuple always reproduces the identical stream.
    """
    _check_seed(master_seed)
    spawn_key = tuple(_part_key(p) for p in parts)
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


# numpy.random.SeedSequence (pool of 4 words) and Philox4x64-10 constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_M_LO, _M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
# Words 1 and 3 of the block after round 0 at the counter (1, 0, 0, 0).
_ROUND_0 = np.array([[0], _PHILOX_M[0]], dtype=np.uint64)
# Rows whose keys one pass derives.
_DRAW_CHUNK = 4096


def _words(value: int) -> list[int]:
    """32-bit words of a non-negative integer, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """SeedSequence's first ``count`` hash constants, each ``mult`` times the last."""
    steps = itertools.repeat(mult, count - 1)
    return list(itertools.accumulate(steps, lambda c, m: c * m & _MASK32, initial=init))


# generate_state hashes pool word k with constants k and k + 1.
_FINAL = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL + 1), dtype=np.uint32)[:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of the ``uint32`` arrays of pool words ``x`` and ``y``."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _stream_keys(
    master_seed: int, prefix: tuple[int | str, ...], tails: np.ndarray
) -> np.ndarray:
    """The Philox key of ``substream(master_seed, *prefix, *row)`` for each
    row of the 2-D integer array ``tails``, whose entries lie in [0, 2^32),
    as a (2, rows) ``uint64`` array.

    Every tail part is then one 32-bit word of the spawn key.  The seed
    words, the pool's cross-mix and the prefix words are the same for every
    row: they give the pool of the prefix's own SeedSequence, which NumPy
    fills once.  Only the tail words are mixed on arrays, all four pool
    lanes at once.
    """
    _check_seed(master_seed)
    tails = np.asarray(tails)
    if tails.ndim != 2 or tails.dtype.kind not in "iu":
        raise ValueError("tails must be a 2-D integer array")
    if tails.size and not (tails.min() >= 0 and tails.max() <= _MASK32):
        raise ValueError("tail parts must lie in [0, 2**32)")
    keys = [_part_key(part) for part in prefix]
    pool = np.random.SeedSequence(master_seed, spawn_key=keys).pool
    lanes = pool[:, None].repeat(len(tails), axis=1)
    # Four hashes fill the pool and twelve cross-mix it; each later word is
    # hashed once per pool lane.  A spawn key pads the seed words to the
    # pool size, and an empty one hashes 0 for each missing word instead,
    # which gives the same pool.
    start = _POOL * (max(len(_words(master_seed)), _POOL) + sum(len(_words(k)) for k in keys))
    table = np.array(_hash_consts(_INIT_A, _MULT_A, start + _POOL * tails.shape[1] + 1),
                     dtype=np.uint32)[:, None]
    for j, column in enumerate(tails.T.astype(np.uint32)):
        k = start + _POOL * j
        hashed = (column ^ table[k : k + _POOL]) * table[k + 1 : k + _POOL + 1]
        lanes = _mix(lanes, hashed ^ (hashed >> 16))
    state = (lanes ^ _FINAL[:-1]) * _FINAL[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _mulhilo(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``_PHILOX_M * b``,
    lane by lane, from 32-bit halves so that no ``uint64`` partial product
    or sum overflows."""
    b_lo, b_hi = b & _MASK32, b >> 32
    cross = b_hi * _M_LO + (b_lo * _M_LO >> 32)
    middle = b_lo * _M_HI + (cross & _MASK32)
    return b_hi * _M_HI + (cross >> 32) + (middle >> 32), b * _PHILOX_M


def _first_uniforms(
    master_seed: int, prefix: tuple[int | str, ...], tails: np.ndarray
) -> np.ndarray:
    """``substream(master_seed, *prefix, *row).random()`` for each row of
    ``tails`` (see :func:`_stream_keys`).

    The first draw of a Philox stream is word 0 of the block at counter 1,
    turned into a double as ``Generator.random`` does.  Round 0 on that
    constant counter leaves the words (key0, 0, key1, M0), so it is folded.
    ``x`` holds words 0 and 2 and ``y`` words 1 and 3, each as one (2, rows)
    lane pair, so a round's M0 and M1 products run together.
    """
    key = _stream_keys(master_seed, prefix, tails)
    x, y = key, _ROUND_0
    for _ in range(1, _PHILOX_ROUNDS):
        key = key + _PHILOX_W
        high, low = _mulhilo(x)
        x, y = high[::-1] ^ y ^ key, low[::-1]
    return (x[0] >> 11) * (1.0 / 9007199254740992.0)


def _index_rows(shape: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """Rows ``lo`` to ``hi - 1`` of every index of an array of ``shape``, in
    C order, as a (hi - lo, len(shape)) integer array."""
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))], dtype=np.int64)
    return np.arange(lo, hi)[:, None] // strides % np.array(shape, dtype=np.int64)


def _streams(
    master_seed: int, prefix: tuple[int | str, ...], shape: tuple[int, ...]
) -> Iterator[np.random.Generator]:
    """Yield ``substream(master_seed, *prefix, *index)`` for each index of an
    array of ``shape``, in C order, with the same bits, as one reused
    generator: a yielded generator is valid only until the next is yielded.

    The generator is built once, as ``substream(master_seed, *prefix)``.
    Philox is counter-based, so a stream needs no seeding beyond its key:
    each index sets its key on that fresh state (counter 0, an empty buffer
    and no held 32-bit half), as seeding from a SeedSequence does.
    """
    if not all(0 <= dim <= 1 << 32 for dim in shape):
        raise ValueError("each dimension of shape must lie in [0, 2**32]")
    generator = substream(master_seed, *prefix)
    bit_generator = generator.bit_generator
    state = bit_generator.state
    count = math.prod(shape)
    for lo in range(0, count, _DRAW_CHUNK):
        rows = _index_rows(shape, lo, min(lo + _DRAW_CHUNK, count))
        for key in _stream_keys(master_seed, prefix, rows).T.tolist():
            state["state"]["key"] = key
            bit_generator.state = state
            yield generator
