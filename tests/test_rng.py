import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantromon.errors import ParameterError
from quantromon.rng import philox4x64, uniforms


@pytest.mark.parametrize("key", [(0, 0), (12345, 0), (2**63 + 17, 99), (7, 1)])
def test_matches_reference_philox(key):
    # numpy's Philox bit generator is the reference implementation; it
    # advances its counter before producing each 4-word block
    bg = np.random.Philox(key=np.array(key, dtype=np.uint64))
    reference = bg.random_raw(12).reshape(3, 4)
    ours = philox4x64(1, 3, key)
    assert np.array_equal(reference, ours)


def test_random123_known_answer():
    # Philox-4x64-10 at counter 0, key 0, from the kat_vectors file of
    # Random123 (Salmon et al., SC'11); independent of numpy. Counter 0 also
    # exercises the start-1 wrap at 2**256.
    block = philox4x64(0, 1, (0, 0))
    expected = [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
                0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    assert block.tolist() == [expected]


def test_per_index_equals_vectorized():
    block = philox4x64(0, 1000, (42, 1))
    for i in (0, 17, 999):
        single = philox4x64(i, 1, (42, 1))
        assert np.array_equal(single[0], block[i])


def test_prefix_stability():
    short = uniforms(9, 0, 0, 100)
    long = uniforms(9, 0, 0, 1000)
    assert np.array_equal(short, long[:100])


def test_streams_differ():
    a = uniforms(5, 0, 0, 100)
    b = uniforms(5, 1, 0, 100)
    c = uniforms(6, 0, 0, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_open_unit_interval():
    u = uniforms(123, 7, 0, 200000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 2e-3


def test_determinism():
    assert np.array_equal(uniforms(1, 2, 0, 50), uniforms(1, 2, 0, 50))


# sha256 of uniforms(seed, stream, start, count).tobytes(),
# recorded from the pure-numpy Philox rounds this module used to carry
@pytest.mark.parametrize("seed, stream, start, count, digest", [
    (0, 0, 0, 1,
     "cc2f4ebfca94c90b91bfc87cfe7f8a9a4c0f8782c4fb28e42b85817a9c87f2ed"),
    (12345, 0, 0, 1000,
     "25a16d7b15c045582b2d8432f0dee6ecb4ea2ed8d6e87979378139a02822eaf1"),
    (2**63 + 5, 1, 17, 333,
     "5edc42b14d7b2fac0b4ea268408bc107447908b4fa1c163b16d0ae6ca233a94e"),
    (7, 1, 2**40, 64,
     "cd620bf13c1832307e6220f14ad21a02fc8db8811b78c5eb0278ff6cd2231ade"),
])
def test_known_answer_digests(seed, stream, start, count, digest):
    u = uniforms(seed, stream, start, count)
    assert u.dtype == np.float64 and u.shape == (count, 4)
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


_WORD = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=_WORD, stream=_WORD, a=st.integers(0, 2**64 - 401),
       first=st.integers(0, 200), second=st.integers(0, 200))
def test_chunk_invariance(seed, stream, a, first, second):
    b, c = a + first, a + first + second
    whole = uniforms(seed, stream, a, c - a)
    split = np.concatenate([uniforms(seed, stream, a, b - a),
                            uniforms(seed, stream, b, c - b)])
    assert np.array_equal(whole, split)


def test_last_counter_is_reachable():
    top = philox4x64(2**64 - 3, 3, (1, 2))
    assert np.array_equal(top[2], philox4x64(2**64 - 1, 1, (1, 2))[0])


@pytest.mark.parametrize("start, count", [
    (-1, 2),
    (0, -1),
    (2**64 - 1, 2),  # would wrap the counter
    (2**64, 1),
    (1.5, 2),  # drew the blocks of counters 1 and 2
    (True, 2),  # drew counter 1's block
    (0, 2.0),  # a bare TypeError
])
def test_counter_range_outside_64_bits_rejected(start, count):
    with pytest.raises(ParameterError, match="counters"):
        uniforms(3, 0, start, count)


@pytest.mark.parametrize("start", [0, 5, 2**63 - 2])
@pytest.mark.parametrize("integer", [np.int64, np.uint64])
def test_numpy_integer_counters_draw_the_int_blocks(start, integer):
    # np.int64 once overflowed in (start - 1) % 2**256
    ours = philox4x64(integer(start), integer(2), (integer(3), integer(1)))
    assert ours.tobytes() == philox4x64(start, 2, (3, 1)).tobytes()


@pytest.mark.parametrize("seed, stream, name", [
    (2**64, 0, "seed"), (-1, 0, "seed"), (1.0, 0, "seed"), (0, 2**64, "stream"),
    (True, 0, "seed"), (0, False, "stream"),
])
def test_key_words_outside_64_bits_rejected(seed, stream, name):
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        uniforms(seed, stream, 0, 2)
