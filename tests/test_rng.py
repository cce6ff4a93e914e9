"""Splittable random streams: determinism, independence, and stability."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projgraph import substream
from projgraph.rng import _DRAW_CHUNK, _first_uniforms, _streams


def test_same_path_yields_identical_stream():
    a = substream(42, "growth", 0, 3)
    b = substream(42, "growth", 0, 3)
    assert a.integers(1 << 63, size=16).tolist() == b.integers(1 << 63, size=16).tolist()


def test_different_parts_yield_different_streams():
    base = substream(42, "growth", 0, 3).integers(1 << 63, size=8).tolist()
    for parts in [("growth", 0, 4), ("growth", 1, 3), ("subsample", 0, 3), ("growth", 3, 0)]:
        other = substream(42, *parts).integers(1 << 63, size=8).tolist()
        assert other != base


def test_different_master_seeds_yield_different_streams():
    a = substream(1, "tag", 0).integers(1 << 63, size=8).tolist()
    b = substream(2, "tag", 0).integers(1 << 63, size=8).tolist()
    assert a != b


def test_part_order_matters():
    a = substream(9, 1, 2).integers(1 << 63, size=8).tolist()
    b = substream(9, 2, 1).integers(1 << 63, size=8).tolist()
    assert a != b


def test_string_and_int_parts_are_distinct_key_spaces():
    a = substream(5, "7").integers(1 << 63, size=8).tolist()
    b = substream(5, 7).integers(1 << 63, size=8).tolist()
    assert a != b


def test_derivation_is_stable_across_versions():
    """Frozen draws pin the published seed-to-stream derivation.

    The derivation (SHA-256 of string parts, spawn keys on a counter-based
    generator) is part of the reproducibility contract: configs re-run on
    a later version must reproduce old reports byte for byte.
    """
    assert int(substream(7, "growth", 0, 0).integers(1 << 32)) == 3915042829
    assert int(substream(7, "growth", 0, 1).integers(1 << 32)) == 2606999993
    assert int(substream(8, "growth", 0, 0).integers(1 << 32)) == 4135377709


def test_returns_numpy_generator():
    assert isinstance(substream(0), np.random.Generator)


@pytest.mark.parametrize("seed", [-1, 1 << 64, 2.5, "x", None])
def test_invalid_master_seed_rejected(seed):
    with pytest.raises((ValueError, TypeError)):
        substream(seed, "tag")


def test_bool_part_rejected():
    with pytest.raises(TypeError):
        substream(3, True)


def test_negative_int_part_rejected():
    with pytest.raises(ValueError):
        substream(3, -1)


# --------------------------------------------------------------------------
# bulk first uniforms
# --------------------------------------------------------------------------

_SEEDS = st.sampled_from([0, 1 << 32, (1 << 64) - 1]) | st.integers(0, (1 << 64) - 1)
_PARTS = (
    st.text(max_size=6)
    | st.integers(0, (1 << 64) + 5)
    | st.sampled_from([0, (1 << 32) - 1, 1 << 32])
)
_TAIL = st.sampled_from([0, (1 << 32) - 1]) | st.integers(0, (1 << 32) - 1)


@st.composite
def _tails(draw):
    width = draw(st.integers(0, 3))
    row = st.lists(_TAIL, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), width)


_EXTREME_TAILS = np.array([[0, 0], [(1 << 32) - 1, 0], [7, (1 << 32) - 1]], dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, prefix=st.lists(_PARTS, max_size=3), tails=_tails())
@example(seed=0, prefix=["replication", 3], tails=_EXTREME_TAILS)
@example(seed=1 << 32, prefix=["sample"], tails=_EXTREME_TAILS)
@example(seed=(1 << 64) - 1, prefix=[1 << 40, "x"], tails=_EXTREME_TAILS)
@example(seed=(1 << 64) - 1, prefix=[], tails=_EXTREME_TAILS)
def test_first_uniforms_equal_each_streams_first_draw(seed, prefix, tails):
    """The array evaluation of NumPy's seeding and Philox agrees bit for bit
    with building each stream and drawing once."""
    bulk = _first_uniforms(seed, tuple(prefix), tails)
    expected = [substream(seed, *prefix, *row).random() for row in tails.tolist()]
    assert bulk.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, tag=st.text(max_size=6), part=_TAIL, tails=_tails())
@example(seed=0, tag="replication", part=0, tails=_EXTREME_TAILS)
@example(seed=(1 << 64) - 1, tag="replication", part=(1 << 32) - 1, tails=_EXTREME_TAILS)
def test_an_integer_part_below_2_32_may_sit_in_the_prefix_or_the_tail(seed, tag, part, tails):
    """One word of the spawn key either way, so one bulk pass can cover the
    streams of many prefixes by moving their integer part into the tail."""
    moved = np.column_stack([np.full(len(tails), part, dtype=np.uint64), tails])
    bulk = _first_uniforms(seed, (tag,), moved)
    assert bulk.tolist() == _first_uniforms(seed, (tag, part), tails).tolist()


@pytest.mark.parametrize(
    "tails",
    [
        np.array([[-1]]),
        np.array([[1 << 32]]),
        np.array([[3, (1 << 40)]], dtype=np.uint64),
        np.array([[True]]),
        np.array([[0.0]]),
        np.array([0, 1]),
    ],
    ids=["negative", "2**32", "above-2**32", "bool", "float", "one-dimensional"],
)
def test_first_uniforms_reject_tails_outside_one_word(tails):
    with pytest.raises(ValueError):
        _first_uniforms(1, ("tag",), tails)


# --------------------------------------------------------------------------
# whole streams from one reused generator
# --------------------------------------------------------------------------


def _draws(rng, population, chosen):
    """A mix of draws: doubles, 64-bit and 32-bit integers (an odd count of
    32-bit draws leaves half a word held), and a subset without replacement."""
    return [
        rng.random(),
        rng.random(3).tolist(),
        rng.integers(1 << 40, size=2).tolist(),
        rng.integers(1000, size=3, dtype=np.uint32).tolist(),
        rng.choice(population, chosen, replace=False).tolist(),
    ]


_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, prefix=st.lists(_PARTS, max_size=3), shape=_SHAPES,
       population=st.integers(1, 40), data=st.data())
@example(seed=0, prefix=[], shape=(), population=6, data=None)
@example(seed=1 << 32, prefix=[], shape=(), population=6, data=None)
@example(seed=(1 << 64) - 1, prefix=[], shape=(), population=6, data=None)
@example(seed=0, prefix=["subsample", 2], shape=(3,), population=7, data=None)
@example(seed=1 << 32, prefix=[1 << 40, "x"], shape=(2, 2), population=30, data=None)
@example(seed=(1 << 64) - 1, prefix=[(1 << 64) + 5], shape=(1, 3), population=2,
         data=None)
def test_streams_equal_substream_bit_for_bit(seed, prefix, shape, population, data):
    """Each generator that _streams yields draws what its index's own
    substream draws, whatever the previous index drew from it."""
    chosen = population // 2 if data is None else data.draw(st.integers(0, population))
    reused = [_draws(rng, population, chosen) for rng in _streams(seed, tuple(prefix), shape)]
    expected = [_draws(substream(seed, *prefix, *index), population, chosen)
                for index in np.ndindex(shape)]
    assert reused == expected


def test_streams_cover_every_key_chunk():
    """Rows past the first pass of keys come out in order, with their own bits."""
    shape = (2, _DRAW_CHUNK // 2 + 3)
    firsts = [g.random() for g in _streams(5, ("growth", 1), shape)]
    assert len(firsts) == 2 * shape[1]
    for k in (0, _DRAW_CHUNK - 1, _DRAW_CHUNK, len(firsts) - 1):
        index = map(int, np.unravel_index(k, shape))
        assert firsts[k] == substream(5, "growth", 1, *index).random()
    tails = np.stack(np.unravel_index(np.arange(len(firsts)), shape), axis=1)
    assert firsts == _first_uniforms(5, ("growth", 1), tails).tolist()


@pytest.mark.parametrize("shape", [(-1,), ((1 << 32) + 1,), (2, (1 << 40))],
                         ids=["negative", "2**32+1", "2**40"])
def test_streams_reject_indices_outside_one_word(shape):
    with pytest.raises(ValueError):
        next(_streams(1, ("tag",), shape))
