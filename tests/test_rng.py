"""Counter-based RNG tests against published splitmix64 vectors."""

import pytest
from hypothesis import given, strategies as st

from icsisec.rng import Rng, mix64, stream_value

# First outputs of the splitmix64 reference stream; these values appear in
# the test suites of several independent implementations.
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)
SEED1234567_STREAM = (
    0x599ED017FB08FC85,
    0x2C73F08458540FA5,
    0x883EBCE5A3F27C77,
)


def test_reference_vectors():
    assert tuple(stream_value(0, i) for i in range(4)) == SEED0_STREAM
    assert tuple(stream_value(1234567, i) for i in range(3)) == SEED1234567_STREAM


def test_rng_walks_the_stream():
    rng = Rng(0)
    assert tuple(rng.next_u64() for _ in range(4)) == SEED0_STREAM


def test_counter_access_is_stateless():
    assert stream_value(99, 7) == stream_value(99, 7)
    assert stream_value(99, 7) != stream_value(99, 8)


@given(st.integers(0, 2 ** 64 - 1))
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) < 2 ** 64


@given(st.integers(0, 2 ** 32), st.integers(1, 1000))
def test_below_is_in_range(seed, bound):
    rng = Rng(seed)
    for _ in range(20):
        assert 0 <= rng.below(bound) < bound


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_below_small_bounds_cover_all_values():
    rng = Rng(5)
    seen = {rng.below(3) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_choice_and_subset():
    items = tuple(range(1, 9))
    for size in range(0, 9):
        picked = Rng(size).subset(items, size)
        assert len(picked) == size
        assert len(set(picked)) == size
        assert set(picked) <= set(items)


def test_subset_rejects_oversized():
    with pytest.raises(ValueError):
        Rng(0).subset((1, 2), 3)


def test_determinism_across_instances():
    a = [Rng(123).below(50) for _ in range(10)]
    b = [Rng(123).below(50) for _ in range(10)]
    assert a == b
