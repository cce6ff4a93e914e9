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

A draw that needs only one uniform per stream (inverse-CDF sampling from
a table) need not build the streams: :func:`_first_uniforms` evaluates the
first ``random()`` of many streams at once, by NumPy's own seeding and
Philox arithmetic on arrays, with identical bits.
"""

from __future__ import annotations

import hashlib

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
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _words(value: int) -> list[int]:
    """32-bit words of a non-negative integer, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_keys(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys ``SeedSequence(...).generate_state(2, np.uint64)`` for
    assembled entropy given as one ``uint32`` column per word.

    The hash constants do not depend on the data, so they stay Python
    integers; ``uint32`` array arithmetic wraps as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product ``a * b``, from
    32-bit halves so that no ``uint64`` partial product overflows."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    low = b_lo * a_lo
    cross_1, cross_2 = b_hi * a_lo, b_lo * a_hi
    middle = (low >> 32) + (cross_1 & _MASK32) + (cross_2 & _MASK32)
    high = b_hi * a_hi + (cross_1 >> 32) + (cross_2 >> 32) + (middle >> 32)
    return high, b * a


def _first_uniforms(
    master_seed: int, prefix: tuple[int | str, ...], tails: np.ndarray
) -> np.ndarray:
    """``substream(master_seed, *prefix, *row).random()`` for each row of
    the 2-D integer array ``tails``, whose entries lie in [0, 2^32).

    Every tail part is then one 32-bit word of the spawn key, so all rows
    share one entropy length and one pass over arrays seeds them all.  The
    first draw of a Philox stream is word 0 of the block at counter 1,
    turned into a double as ``Generator.random`` does.
    """
    _check_seed(master_seed)
    tails = np.asarray(tails)
    if tails.ndim != 2 or tails.dtype.kind not in "iu":
        raise ValueError("tails must be a 2-D integer array")
    if tails.size and not (tails.min() >= 0 and tails.max() <= _MASK32):
        raise ValueError("tail parts must lie in [0, 2**32)")
    fixed = _words(master_seed)
    fixed += [0] * (_POOL - len(fixed))
    for part in prefix:
        fixed += _words(_part_key(part))
    rows = len(tails)
    entropy = [np.full(rows, word, dtype=np.uint32) for word in fixed]
    entropy += list(tails.T.astype(np.uint32))
    key = list(_seed_keys(entropy))
    zero = np.zeros(rows, dtype=np.uint64)
    ctr = [zero + 1, zero, zero, zero]
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            key = [k + w for k, w in zip(key, _PHILOX_W)]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    return (ctr[0] >> 11) * (1.0 / 9007199254740992.0)
