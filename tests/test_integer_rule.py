"""One rule for every integer input, :func:`quantromon.errors.is_int`: an
``int`` or a numpy integer, never a ``bool`` or a float. At each entry point
a numpy integer gives the result of the equal ``int`` bit for bit, and
``True``, ``1.0`` and ``1.5`` raise that entry point's own typed error."""

import numpy as np
import pytest

from quantromon.coherence import CoherenceConfig
from quantromon.errors import ParameterError, is_int
from quantromon.flux import FluxConfig, FluxMode, fit_both_squids_area, sweep, tuned_junctions
from quantromon.numeric import Truncation, numeric_spectrum
from quantromon.params import CircuitParams, ReadoutParams, derive_energies
from quantromon.readout import _SHOT_CHUNK, ShotSet, simulate_shots
from quantromon.rng import uniforms

EN = derive_energies(CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9,
                                   c_r=781.8e-15, b=0.405, d_j=0.045))
COH = CoherenceConfig(q_diel=1.1e6, kappa=1.28e6)
SAMPLE_C = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6,
                         kappa_int=0.38e6, nbar=30.0, tau=1.8e-6, t1=50e-6)
BOTH = FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=20.9e9, e_j2_zero=19.1e9,
                  area_ratio_a=0.05)
ONE = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=7e9, e_j2_zero=14e9,
                 area_ratio_a=0.06)


def _bits(result):
    """What two results must share to be bit-identical: the exact text of
    each float (``repr`` also tells an ``np.float64`` from a ``float``), and
    the bytes of each array."""
    if isinstance(result, np.ndarray):
        return result.dtype, result.tobytes()
    if isinstance(result, ShotSet):
        return (int(result.prepared_state), int(result.seed), result.params,
                result.values.tobytes())
    return repr(result)


# entry point -> (call of one integer, an int it takes, the message for a bad value)
ENTRY_POINTS = {
    "Truncation": (
        lambda v: numeric_spectrum(EN, Truncation(v, 5)), 6,
        lambda v: f"truncation must keep a whole number of 4 to 64 levels per mode, "
                  f"got ({v}, 5)"),
    "tuned_junctions-both": (
        lambda v: tuned_junctions(BOTH, v), 4,
        lambda v: f"flux bias n must be an integer, got {v!r}"),
    "tuned_junctions-one": (
        lambda v: tuned_junctions(ONE, v), 3,
        lambda v: f"flux bias n must be an integer, got {v!r}"),
    "fit_both_squids_area": (
        lambda v: fit_both_squids_area(EN, v, 4.281e9), 9,
        lambda v: f"anchor_n must be an integer in [1, 5000], got {v!r}"),
    "simulate_shots-prepared": (
        lambda v: simulate_shots(SAMPLE_C, v, 1000, 3), 1,
        lambda v: f"prepared must be 0 or 1, got {v!r}"),
    # past one chunk, so a numpy count also ends a chunk early
    "simulate_shots-n_shots": (
        lambda v: simulate_shots(SAMPLE_C, 0, v, 3), _SHOT_CHUNK + 1000,
        lambda v: f"n_shots must lie in [1, 2**64] and be an integer, got {v!r}"),
    "simulate_shots-seed": (
        lambda v: simulate_shots(SAMPLE_C, 1, 1000, v), 123456,
        lambda v: f"seed must be an integer in [0, 2**64), got {v!r}"),
    "uniforms-seed": (
        lambda v: uniforms(v, 1, 5, 3), 7,
        lambda v: f"seed must be an integer in [0, 2**64), got {v!r}"),
    "uniforms-stream": (
        lambda v: uniforms(7, v, 5, 3), 1,
        lambda v: f"stream must be an integer in [0, 2**64), got {v!r}"),
    "uniforms-start": (
        lambda v: uniforms(7, 1, v, 3), 5,
        lambda v: f"counters start={v!r}, count=3 must lie within [0, 2**64)"),
    "uniforms-count": (
        lambda v: uniforms(7, 1, 5, v), 3,
        lambda v: f"counters start=5, count={v!r} must lie within [0, 2**64)"),
}


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint64])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_gives_the_int_result(entry, integer):
    call, value, _ = ENTRY_POINTS[entry]
    assert _bits(call(integer(value))) == _bits(call(value))


@pytest.mark.parametrize("value", [True, 1.0, 1.5])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bool_and_float_rejected_by_name(entry, value):
    call, _, message = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value) == message(value)


def test_sweep_over_numpy_biases_equals_int_sweep():
    # each row was a "flux bias n must be an integer" error row
    rows = sweep(EN, BOTH, list(np.arange(3)), COH)
    assert rows == sweep(EN, BOTH, [0, 1, 2], COH)
    assert [row.error for row in rows] == [None] * 3


@pytest.mark.parametrize("value, expected", [
    (0, True), (-3, True), (2**70, True), (np.int8(-1), True), (np.uint64(2**64 - 1), True),
    (True, False), (False, False), (np.True_, False), (1.0, False), (np.float64(2.0), False),
    (np.array(3), False), ("3", False), (None, False), (1 + 0j, False),
])
def test_is_int(value, expected):
    assert is_int(value) is expected
