"""Counter-based random streams (Philox-4x64, 10 rounds).

Every draw is a pure function of ``(seed, stream, counter)``: the generator
is stateless, so a batch is a range of counters, ``count`` of them from
``start``, and serial loops, vectorized batches and concurrent workers all
produce bit-identical values for the same counters. One counter block yields
four 64-bit words, i.e. up to four independent uniforms per counter.

The blocks come from numpy's C implementation, :class:`numpy.random.Philox`
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed
by ``(seed, stream)`` and started at ``start``. The bits are those of
Philox-4x64-10 for counters ``(c, 0, 0, 0)``; known-answer digests in
``tests/test_rng.py`` pin them.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, check_key_word, is_int

__all__ = ["philox4x64", "uniforms"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SHIFT11 = np.uint64(11)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def philox4x64(start: int, count: int, key: tuple[int, int]) -> np.ndarray:
    """Philox-4x64-10 output blocks for counters ``(c, 0, 0, 0)``,
    ``c = start, ..., start + count - 1``.

    Parameters
    ----------
    start, count : int
        The first counter and the number of blocks, each >= 0; the counters
        must not pass ``2**64 - 1``.
    key : (int, int)
        The two 64-bit key words, the seed and the stream, each in
        ``[0, 2**64)``.

    Each argument is an integer by :func:`~quantromon.errors.is_int`, a
    numpy integer drawing the same blocks as the equal ``int``; anything
    else raises :class:`ParameterError`.

    Returns
    -------
    array of uint64, shape (count, 4)
    """
    for name, word in zip(("seed", "stream"), key):
        check_key_word(name, word)
    if not (is_int(start) and is_int(count) and start >= 0 and count >= 0
            and int(start) + int(count) - 1 <= _MASK64):
        raise ParameterError(
            f"counters start={start!r}, count={count!r} must lie within [0, 2**64)")
    # A fresh Philox has an empty buffer, so it steps its 256-bit counter
    # before each block: starting one below ``start`` (wrapping at 2**256)
    # makes the first block the one for counter ``start``.
    bg = np.random.Philox(counter=(int(start) - 1) % 2**256,
                          key=np.array(key, dtype=np.uint64))
    return bg.random_raw(4 * count).reshape(count, 4)


def uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Four uniforms in (0, 1) per counter ``start, ..., start + count - 1``,
    shape (count, 4)."""
    words = philox4x64(start, count, (seed, stream))
    # 53-bit mantissa, offset by half an ulp so the result lies in (0, 1);
    # in place, so a batch holds one word array and one float array at most
    words >>= _SHIFT11
    u = words.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u
