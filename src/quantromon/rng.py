"""Counter-based random streams (Philox-4x64, 10 rounds).

Every draw is a pure function of ``(seed, stream, index)``: the generator is
stateless, so serial loops, vectorized batches, and concurrent workers all
produce bit-identical values for the same indices. One counter block yields
four 64-bit words, i.e. up to four independent uniforms per index.

The blocks come from numpy's C implementation, :class:`numpy.random.Philox`
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), keyed
by ``(seed, stream)`` and started at the first requested counter. The bits
are those of Philox-4x64-10 for counters ``(index, 0, 0, 0)``, the same as
the pure-numpy rounds this module used to compute; known-answer digests in
``tests/test_rng.py`` pin them.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["philox4x64", "uniforms"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SHIFT11 = np.uint64(11)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def philox4x64(counter: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """Philox-4x64-10 output blocks for counters ``(c, 0, 0, 0)``.

    Parameters
    ----------
    counter : array of uint64, shape (n,)
        First counter word per block; the remaining three words are zero.
        The counters must be consecutive, ``c0, c0 + 1, ..., c0 + n - 1``,
        and must not pass ``2**64 - 1``.
    key : (int, int)
        The two 64-bit key words, the seed and the stream, each an integer
        in ``[0, 2**64)``; anything else, a ``bool`` included, raises
        :class:`ParameterError`.

    Returns
    -------
    array of uint64, shape (n, 4)
    """
    for name, word in zip(("seed", "stream"), key):
        # bool is an int, but True would be written as a seed of "True"
        if (isinstance(word, bool) or not isinstance(word, (int, np.integer))
                or not 0 <= word <= _MASK64):
            raise ParameterError(f"{name} must be an integer in [0, 2**64), got {word!r}")
    c = np.asarray(counter, dtype=np.uint64)
    n = c.size
    if c.ndim != 1:
        raise ParameterError(f"counter must be one-dimensional, got shape {c.shape}")
    if n == 0:
        return np.empty((0, 4), dtype=np.uint64)
    start = int(c[0])
    if start + n - 1 > _MASK64 or np.any(np.diff(c) != 1):
        raise ParameterError(
            "counter must be a consecutive run of indices within [0, 2**64), "
            "as from np.arange(start, start + count)"
        )
    # A fresh Philox has an empty buffer, so it steps its 256-bit counter
    # before each block: starting one below ``start`` (wrapping at 2**256)
    # makes the first block the one for counter ``start``.
    bg = np.random.Philox(counter=(start - 1) % 2**256,
                          key=np.array(key, dtype=np.uint64))
    return bg.random_raw(4 * n).reshape(n, 4)


def _to_unit_interval(words: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, offset by half an ulp so the result lies in (0, 1);
    # in place, so a batch holds one word array and one float array at most
    words >>= _SHIFT11
    u = words.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u


def uniforms(seed: int, stream: int, indices: np.ndarray) -> np.ndarray:
    """Four uniforms in (0, 1) per index, shape (len(indices), 4).

    ``indices`` must be consecutive (``np.arange(start, stop)``); anything
    else raises :class:`ParameterError`.
    """
    return _to_unit_interval(philox4x64(indices, (seed, stream)))

