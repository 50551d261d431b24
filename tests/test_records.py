"""The records that check or convert their fields do it again on ``_make``
and ``_replace``."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import quantromon
from quantromon.cli import SimOptions
from quantromon.coherence import CoherenceConfig
from quantromon.errors import ParameterError
from quantromon.flux import FluxConfig, FluxMode
from quantromon.numeric import Truncation
from quantromon.params import ReadoutParams
from quantromon.readout import ShotSet

PARAMS = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6, kappa_int=0.38e6,
                       nbar=30.0, tau=1.8e-6, t1=50e-6)
FLUX = FluxConfig(mode="both_squids", e_j1_zero=1e10, e_j2_zero=1e10, area_ratio_a=0.1)
SHOTS = ShotSet(prepared_state=0, values=[0.5, -0.25], seed=3, params=PARAMS)

# each checking record, valid, and a field value it refuses
CASES = {
    "ReadoutParams": (PARAMS, {"thermal_pop": 1.0}),
    "CoherenceConfig": (CoherenceConfig(q_diel=1e6, kappa=1e6), {"kappa": 0.0}),
    "FluxConfig": (FLUX, {"area_ratio_a": 1.5}),
    "SimOptions": (SimOptions(), {"n_shots": 0}),
    "Truncation": (Truncation(), {"n_q": 3}),
    "ShotSet": (SHOTS, {"prepared_state": 2}),
}


@pytest.mark.parametrize("record, bad", CASES.values(), ids=list(CASES))
def test_replace_checks_again(record, bad):
    with pytest.raises(ParameterError) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ParameterError) as replaced:
        record._replace(**bad)
    assert str(replaced.value) == str(built.value)
    with pytest.raises(ParameterError) as made:
        type(record)._make({**record._asdict(), **bad}.values())
    assert str(made.value) == str(built.value)


def test_every_checked_record_is_a_case():
    checked = set()
    for module in pkgutil.iter_modules(quantromon.__path__, "quantromon."):
        for name, cls in inspect.getmembers(importlib.import_module(module.name), inspect.isclass):
            if cls.__module__ == module.name and "_check" in vars(cls):
                checked.add(name)
    assert checked == set(CASES)


def test_replace_converts_again():
    assert FLUX._replace(mode="one_squid").mode is FluxMode.ONE_SQUID
    assert type(Truncation()._replace(n_q=np.int64(14)).n_q) is int
    values = SHOTS._replace(values=[1, 2]).values
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    assert values.tolist() == [1.0, 2.0]
    # _make, which _replace calls, converts as the constructor does
    assert FluxConfig._make(["fixed", 1e10, 0.0]).mode is FluxMode.FIXED
    assert type(Truncation._make([np.int64(14), 12]).n_q) is int
    assert ShotSet._make([1, (3,), 0, PARAMS]).values.dtype == np.float64


def test_shot_set_repr_leaves_out_values():
    assert repr(SHOTS) == f"ShotSet(prepared_state=0, seed=3, params={PARAMS!r})"
