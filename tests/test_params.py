import math

import pytest
from scipy.constants import e as _e
from scipy.constants import h as _h
from scipy.constants import hbar as _hbar

from quantromon.errors import ParameterError
from quantromon.params import (
    ELECTRON_CHARGE,
    HBAR,
    PLANCK_H,
    REDUCED_FLUX_QUANTUM,
    CircuitParams,
    ModeEnergies,
    derive_energies,
    regime_warnings,
)

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)


def test_constants_fixed_and_positive():
    assert PLANCK_H == 6.62607015e-34
    assert ELECTRON_CHARGE == 1.602176634e-19
    assert REDUCED_FLUX_QUANTUM > 0
    assert REDUCED_FLUX_QUANTUM == pytest.approx(_hbar / (2 * _e), rel=1e-12)
    # the derived two bit for bit: every energy and golden rests on them
    assert HBAR == float.fromhex("0x1.185a7057c690dp-113")
    assert REDUCED_FLUX_QUANTUM == float.fromhex("0x1.7b6ef0ac4bd33p-52")


def test_table_energies_match_independent_formula_evaluation():
    # oracle: defining formulas evaluated directly with scipy's constants
    en = derive_energies(TABLE)
    phi0bar = _hbar / (2 * _e)
    assert en.e_j == pytest.approx(phi0bar**2 / (8.2e-9 * _h), rel=1e-12)
    assert en.e_lr == pytest.approx(phi0bar**2 / (0.546e-9 * _h), rel=1e-12)
    assert en.e_cq == pytest.approx(_e**2 / (4 * 56.88e-15 * _h), rel=1e-12)
    assert en.e_cr == pytest.approx(
        _e**2 / (2 * (781.8e-15 + 56.88e-15 / 2) * _h), rel=1e-12)


def test_table_energy_scales():
    en = derive_energies(TABLE)
    assert en.e_j == pytest.approx(19.934e9, rel=1e-4)
    assert en.e_cq == pytest.approx(170.27e6, rel=1e-4)
    assert en.e_cr == pytest.approx(23.907e6, rel=1e-4)
    assert en.e_lr == pytest.approx(299.38e9, rel=1e-4)


def test_derived_identities_exact():
    en = derive_energies(TABLE)
    assert en.e_jq == 2.0 * en.e_j
    assert en.e_jr == en.e_lr + (TABLE.b**2 / 2.0) * en.e_j
    assert en.e_jr >= en.e_lr


def test_capacitance_doubling_halves_charging_energy_exactly():
    base = derive_energies(TABLE)
    doubled = derive_energies(TABLE._replace(c_j=2 * TABLE.c_j))
    assert doubled.e_cq == base.e_cq / 2.0


def test_inductance_doubling_halves_inductive_energy_exactly():
    base = derive_energies(TABLE)
    doubled = derive_energies(TABLE._replace(l_r=2 * TABLE.l_r))
    assert doubled.e_lr == base.e_lr / 2.0


@pytest.mark.parametrize("k", [2.0, 4.0, 0.5])
def test_scale_covariance_power_of_two(k):
    base = derive_energies(TABLE)
    scaled = derive_energies(TABLE._replace(l_j=k * TABLE.l_j))
    assert scaled.e_j == base.e_j / k


@pytest.mark.parametrize("k", [1.7, 3.3, 0.21])
def test_scale_covariance_general(k):
    base = derive_energies(TABLE)
    scaled = derive_energies(TABLE._replace(l_j=k * TABLE.l_j))
    assert scaled.e_j == pytest.approx(base.e_j / k, rel=1e-12)


def test_inductance_round_trip():
    en = derive_energies(TABLE)
    l_j = REDUCED_FLUX_QUANTUM**2 / (en.e_j * PLANCK_H)
    assert l_j == pytest.approx(TABLE.l_j, rel=1e-12)


@pytest.mark.parametrize("field", ["l_j", "c_j", "l_r", "c_r"])
def test_nonpositive_inputs_rejected_by_name(field):
    bad = TABLE._replace(**{field: -1e-9})
    with pytest.raises(ParameterError, match=field):
        derive_energies(bad)


@pytest.mark.parametrize("field, value", [("c_j", 1e308), ("c_r", 1e308),
                                          ("l_j", 1e-300), ("l_r", 1e-300)])
def test_extreme_element_energy_rejected_by_name(field, value):
    # in range, but the energy derived from it underflows to 0.0 (a huge
    # capacitance) or its denominator does (a tiny inductance)
    bad = TABLE._replace(**{field: value})
    with pytest.raises(ParameterError, match=f"^{field} = "):
        derive_energies(bad)


def test_out_of_range_b_and_dj_rejected():
    with pytest.raises(ParameterError, match=r"b out of \[0, 1\]"):
        derive_energies(TABLE._replace(b=1.2))
    with pytest.raises(ParameterError, match="d_j"):
        derive_energies(TABLE._replace(d_j=1.0))


def test_validate_reports_b_violation():
    for b in (1.2, -0.1):
        with pytest.raises(ParameterError) as info:
            derive_energies(TABLE._replace(b=b))
        assert "b out of [0, 1]" in str(info.value)


def test_nan_element_rejected_by_name():
    with pytest.raises(ParameterError, match="l_j"):
        derive_energies(TABLE._replace(l_j=math.nan))


def test_regime_warnings_table_device_clean():
    assert regime_warnings(derive_energies(TABLE)) == ()


def test_regime_warnings_soft_inductor():
    # pick l_r so that e_lr = 0.5 * e_j
    en = derive_energies(TABLE)
    l_r = TABLE.l_r * en.e_lr / (0.5 * en.e_j)
    (message,) = regime_warnings(derive_energies(TABLE._replace(l_r=l_r)))
    assert "perturbative" in message
    assert "e_lr/e_j = 0.5)" in message


def _scales(e_lr_over_e_j: float, b: float) -> ModeEnergies:
    en = derive_energies(TABLE)
    return ModeEnergies.from_scales(e_j=en.e_j, e_lr=e_lr_over_e_j * en.e_j,
                                    e_cq=en.e_cq, e_cr=en.e_cr, b=b, d_j=0.0)


def test_regime_warnings_ratio_exactly_one():
    en = _scales(1.0, TABLE.b)
    assert en.e_lr / en.e_j == 1.0
    (message,) = regime_warnings(en)
    assert message == ("E_LR >> E_J regime violated (e_lr/e_j = 1); "
                       "perturbative formulas unreliable")


def test_regime_warnings_b_one():
    assert regime_warnings(_scales(15.0, 1.0)) == (
        "b = 1: constraint reduction assumes 0 < b < 1; "
        "values taken from the b -> 1 limit",
    )


def test_regime_warnings_both_in_order():
    stiff, b_limit = regime_warnings(_scales(0.41, 1.0))
    assert stiff.startswith("E_LR >> E_J regime violated (e_lr/e_j = 0.41)")
    assert b_limit.startswith("b = 1: ")
