import dataclasses
import math

import pytest
from scipy.constants import e as _e
from scipy.constants import h as _h
from scipy.constants import hbar as _hbar

from quantromon.errors import ParameterError
from quantromon.params import (
    CODATA2018,
    CircuitParams,
    derive_energies,
    validate,
)

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)


def test_constants_fixed_and_positive():
    assert CODATA2018.planck_h == 6.62607015e-34
    assert CODATA2018.electron_charge == 1.602176634e-19
    assert CODATA2018.reduced_flux_quantum > 0
    assert CODATA2018.reduced_flux_quantum == pytest.approx(_hbar / (2 * _e), rel=1e-12)


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
    doubled = derive_energies(dataclasses.replace(TABLE, c_j=2 * TABLE.c_j))
    assert doubled.e_cq == base.e_cq / 2.0


def test_inductance_doubling_halves_inductive_energy_exactly():
    base = derive_energies(TABLE)
    doubled = derive_energies(dataclasses.replace(TABLE, l_r=2 * TABLE.l_r))
    assert doubled.e_lr == base.e_lr / 2.0


@pytest.mark.parametrize("k", [2.0, 4.0, 0.5])
def test_scale_covariance_power_of_two(k):
    base = derive_energies(TABLE)
    scaled = derive_energies(dataclasses.replace(TABLE, l_j=k * TABLE.l_j))
    assert scaled.e_j == base.e_j / k


@pytest.mark.parametrize("k", [1.7, 3.3, 0.21])
def test_scale_covariance_general(k):
    base = derive_energies(TABLE)
    scaled = derive_energies(dataclasses.replace(TABLE, l_j=k * TABLE.l_j))
    assert scaled.e_j == pytest.approx(base.e_j / k, rel=1e-12)


def test_inductance_round_trip():
    en = derive_energies(TABLE)
    l_j = CODATA2018.reduced_flux_quantum**2 / (en.e_j * CODATA2018.planck_h)
    assert l_j == pytest.approx(TABLE.l_j, rel=1e-12)


@pytest.mark.parametrize("field", ["l_j", "c_j", "l_r", "c_r"])
def test_nonpositive_inputs_rejected_by_name(field):
    bad = dataclasses.replace(TABLE, **{field: -1e-9})
    with pytest.raises(ParameterError, match=field):
        derive_energies(bad)


@pytest.mark.parametrize("field, value", [("c_j", 1e308), ("c_r", 1e308),
                                          ("l_j", 1e-300), ("l_r", 1e-300)])
def test_extreme_element_energy_rejected_by_name(field, value):
    # in range, but the energy derived from it underflows to 0.0 (a huge
    # capacitance) or its denominator does (a tiny inductance)
    bad = dataclasses.replace(TABLE, **{field: value})
    with pytest.raises(ParameterError, match=f"^{field} = "):
        derive_energies(bad)
    report = validate(bad)
    assert not report.ok
    assert report.violations[0].startswith(f"{field} = ")


def test_out_of_range_b_and_dj_rejected():
    with pytest.raises(ParameterError, match="b"):
        derive_energies(dataclasses.replace(TABLE, b=1.2))
    with pytest.raises(ParameterError, match="d_j"):
        derive_energies(dataclasses.replace(TABLE, d_j=1.0))


def test_validate_table_params_clean():
    report = validate(TABLE)
    assert report.ok
    assert report.violations == ()
    assert report.warnings == ()


def test_validate_reports_b_violation():
    report = validate(dataclasses.replace(TABLE, b=1.2))
    assert not report.ok
    assert any("b out of [0, 1]" in v for v in report.violations)


def test_validate_regime_warning():
    # pick l_r so that e_lr = 0.5 * e_j
    en = derive_energies(TABLE)
    l_r = TABLE.l_r * en.e_lr / (0.5 * en.e_j)
    report = validate(dataclasses.replace(TABLE, l_r=l_r))
    assert report.ok
    assert any("perturbative" in w for w in report.warnings)


def test_validate_handles_nan():
    report = validate(dataclasses.replace(TABLE, l_j=math.nan))
    assert not report.ok
