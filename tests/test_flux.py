import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantromon import flux
from quantromon.coherence import CoherenceConfig
from quantromon.errors import ParameterError, UnphysicalOperatingPointError
from quantromon.flux import (
    FluxConfig,
    FluxMode,
    evaluate_flux_point,
    fit_both_squids_area,
    fit_one_squid,
    junction_energies,
    sweep,
    tuned_junctions,
)
from quantromon.params import CircuitParams, derive_energies

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.045)
EN = derive_energies(TABLE)
COH = CoherenceConfig(q_diel=1.1e6, kappa=1.28e6)

# frozen one-SQUID fit for the asymmetry-tunable device (see test_fit_one_squid)
B_EJ1 = 7426647609.825769
B_EJ2 = 13792345561.105001
B_AREA = 0.0625


def both_squids(n=0, a=0.068, e_j1=20e9, e_j2=20e9):
    return FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1, e_j2_zero=e_j2,
                      area_ratio_a=a, n=n)


class TestTunedJunctions:
    def test_zero_flux_identity(self):
        cfg = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=7e9, e_j2_zero=14e9,
                         area_ratio_a=0.06, n=0)
        e_jsigma, d_j = tuned_junctions(cfg)
        assert e_jsigma == 21e9
        assert d_j == (7e9 - 14e9) / 21e9

    def test_both_squids_preserves_asymmetry(self):
        cfg = FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=20.9e9,
                         e_j2_zero=19.1e9, area_ratio_a=0.05, n=4)
        e_jsigma, d_j = tuned_junctions(cfg)
        assert d_j == (20.9e9 - 19.1e9) / 40e9
        assert e_jsigma == 40e9 * abs(math.cos(4 * math.pi * 0.05))

    def test_nominal_area_nine_quanta_scaling(self):
        e_jsigma, _ = tuned_junctions(both_squids(n=9, a=0.068))
        scale = e_jsigma / 40e9
        assert scale == pytest.approx(abs(math.cos(9 * math.pi * 0.068)), rel=1e-12)
        assert scale == pytest.approx(0.345, abs=0.005)

    def test_cosine_periodicity(self):
        # with a = 0.25 the tuning pattern repeats every 8 flux quanta
        for n in range(-3, 4):
            ejs_a, dj_a = tuned_junctions(both_squids(n=n, a=0.25))
            ejs_b, dj_b = tuned_junctions(both_squids(n=n + 8, a=0.25))
            # abs term covers the half-flux points where |cos| is float noise
            assert ejs_a == pytest.approx(ejs_b, rel=1e-12, abs=1e-3)
            assert dj_a == dj_b

    def test_one_squid_without_squid_reduces_to_fixed(self):
        cfg = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=21e9, e_j2_zero=0.0,
                         area_ratio_a=0.06, n=7)
        fixed = FluxConfig(mode=FluxMode.FIXED, e_j1_zero=21e9, e_j2_zero=0.0)
        assert tuned_junctions(cfg) == tuned_junctions(fixed)

    def test_squid_through_zero_rejected(self):
        cfg = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=1e9, e_j2_zero=20e9,
                         area_ratio_a=0.2, n=5)  # cos(pi) = -1
        with pytest.raises(UnphysicalOperatingPointError):
            tuned_junctions(cfg)

    def test_fractional_flux_rejected(self):
        with pytest.raises(ParameterError, match="integer"):
            FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=20e9, e_j2_zero=20e9,
                       area_ratio_a=0.05, n=1.5)

    @pytest.mark.parametrize("e_j1, e_j2, key", [
        (20e9, -1e9, "e_j2_zero"),
        (math.nan, 20e9, "e_j1_zero"),
        (20e9, math.inf, "e_j2_zero"),
        (0.0, 0.0, r"e_j1_zero \+ e_j2_zero"),
    ])
    def test_bad_junction_energies_rejected_by_name(self, e_j1, e_j2, key):
        with pytest.raises(ParameterError, match=key):
            FluxConfig(mode=FluxMode.FIXED, e_j1_zero=e_j1, e_j2_zero=e_j2)

    def test_area_ratio_bounds(self):
        with pytest.raises(ParameterError, match="area_ratio_a"):
            FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=20e9, e_j2_zero=20e9,
                       area_ratio_a=1.2, n=0)


class TestJunctionSplit:
    def test_split_matches_circuit(self):
        en = derive_energies(TABLE)
        e_j1, e_j2 = junction_energies(en)
        assert e_j1 + e_j2 == pytest.approx(en.e_jq, rel=1e-14)
        assert (e_j1 - e_j2) / (e_j1 + e_j2) == pytest.approx(TABLE.d_j, rel=1e-12)


class TestFits:
    def test_fit_one_squid_reproduces_device_observables(self):
        en = derive_energies(dataclasses.replace(TABLE, d_j=-0.30))
        cfg = fit_one_squid(en, f_q_zero=5.205e9, d_j_zero=-0.30,
                            anchor_n=5, d_j_anchor=-0.0152)
        assert cfg.e_j1_zero == pytest.approx(B_EJ1, rel=1e-9)
        assert cfg.e_j2_zero == pytest.approx(B_EJ2, rel=1e-9)
        assert cfg.area_ratio_a == pytest.approx(B_AREA, abs=1e-12)
        # zero flux: frequency and asymmetry as requested
        point0 = evaluate_flux_point(en, cfg, 0, COH)
        assert point0.spectrum.omega_q_t == pytest.approx(5.205e9, rel=1e-9)
        assert point0.d_j == pytest.approx(-0.30, rel=1e-12)
        # anchor point: small negative asymmetry, frequency near the measured one
        point5 = evaluate_flux_point(en, cfg, 5, COH)
        assert point5.d_j == pytest.approx(-0.0156, abs=5e-4)
        assert point5.spectrum.omega_q_t == pytest.approx(4.288e9, rel=0.025)

    def test_fit_both_squids_area(self):
        a = fit_both_squids_area(EN, anchor_n=9, f_q_anchor=4.281e9)
        assert a == pytest.approx(0.0423, abs=1e-12)
        cfg = FluxConfig(mode=FluxMode.BOTH_SQUIDS,
                         e_j1_zero=junction_energies(EN)[0],
                         e_j2_zero=junction_energies(EN)[1],
                         area_ratio_a=a, n=9)
        point = evaluate_flux_point(EN, cfg, 9, COH)
        assert point.spectrum.omega_q_t == pytest.approx(4.281e9, rel=2e-3)

    def test_nominal_area_misses_anchor_by_three_percent(self):
        # with the designed 6.8% ratio the identical-SQUID model lands ~3% low
        # at nine flux quanta; the fitted effective ratio absorbs that
        e_j1, e_j2 = junction_energies(EN)
        cfg = FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1,
                         e_j2_zero=e_j2, area_ratio_a=0.068, n=9)
        point = evaluate_flux_point(EN, cfg, 9, COH)
        assert point.spectrum.omega_q_t == pytest.approx(4.281e9, rel=0.035)



class TestFitFailures:
    def test_unreachable_qubit_frequency_rejected(self):
        # 1 THz needs E_Jsigma beyond the 1e13 Hz end of the search bracket
        with pytest.raises(ParameterError, match=r"f_q_zero .* reachable range"):
            fit_one_squid(EN, f_q_zero=1e12, d_j_zero=-0.3, anchor_n=5,
                          d_j_anchor=-0.015)

    @pytest.mark.parametrize("anchor_n", [0, -1])
    def test_anchor_below_one_rejected(self, anchor_n):
        with pytest.raises(ParameterError, match="anchor_n"):
            fit_one_squid(EN, f_q_zero=5.205e9, d_j_zero=-0.3,
                          anchor_n=anchor_n, d_j_anchor=-0.015)
        with pytest.raises(ParameterError, match="anchor_n"):
            fit_both_squids_area(EN, anchor_n=anchor_n, f_q_anchor=4.281e9)

    @pytest.mark.parametrize("d_j_zero", [1.5, -1.0, math.nan])
    def test_asymmetry_out_of_range_named(self, d_j_zero):
        with pytest.raises(ParameterError, match=r"d_j_zero out of \(-1, 1\)"):
            fit_one_squid(EN, f_q_zero=5.205e9, d_j_zero=d_j_zero, anchor_n=5,
                          d_j_anchor=-0.015)

    def test_anchor_beyond_grid_rejected(self):
        # above 5000 the grid k * 1e-4 up to 0.5/anchor_n holds no point
        with pytest.raises(ParameterError, match=r"anchor_n must be an integer in \[1, 5000\]"):
            fit_one_squid(EN, f_q_zero=5.205e9, d_j_zero=-0.3, anchor_n=5001,
                          d_j_anchor=-0.015)
        with pytest.raises(ParameterError, match="anchor_n"):
            fit_both_squids_area(EN, anchor_n=5001, f_q_anchor=4.281e9)

    def test_largest_anchor_scans_one_point(self):
        assert fit_both_squids_area(EN, anchor_n=5000, f_q_anchor=4.281e9) == 1e-4
        fit = fit_one_squid(EN, f_q_zero=5.205e9, d_j_zero=-0.3, anchor_n=5000,
                            d_j_anchor=-0.015)
        assert fit.area_ratio_a == 1e-4


@st.composite
def _anchor_and_grid_area(draw):
    """An anchor n and a grid area ratio inside the first cosine branch."""
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, math.ceil(0.5 / n / 1e-4) - 1))
    return n, k * 1e-4


class TestFitRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(_anchor_and_grid_area())
    def test_both_squids_area_recovered(self, anchor_and_area):
        n, area = anchor_and_area
        e_j1, e_j2 = junction_energies(EN)
        cfg = FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1,
                         e_j2_zero=e_j2, area_ratio_a=area, n=0)
        f_q = evaluate_flux_point(EN, cfg, n, COH).spectrum.omega_q_t
        assert fit_both_squids_area(EN, anchor_n=n, f_q_anchor=f_q) == area

    @settings(max_examples=25, deadline=None)
    @given(_anchor_and_grid_area(), st.floats(-0.6, 0.6))
    def test_one_squid_config_recovered(self, anchor_and_area, d_j):
        n, area = anchor_and_area
        en = derive_energies(dataclasses.replace(TABLE, d_j=d_j))
        e_j1, e_j2 = junction_energies(en)
        cfg = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=e_j1,
                         e_j2_zero=e_j2, area_ratio_a=area, n=0)
        point0 = evaluate_flux_point(en, cfg, 0, COH)
        anchor = evaluate_flux_point(en, cfg, n, COH)
        fit = fit_one_squid(en, f_q_zero=point0.spectrum.omega_q_t,
                            d_j_zero=point0.d_j, anchor_n=n, d_j_anchor=anchor.d_j)
        assert fit.area_ratio_a == area
        assert fit.e_j1_zero == pytest.approx(e_j1, rel=1e-9)
        assert fit.e_j2_zero == pytest.approx(e_j2, rel=1e-9)


def _sample_a_cfg():
    e_j1, e_j2 = junction_energies(EN)
    return FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1, e_j2_zero=e_j2,
                      area_ratio_a=0.0423, n=0)


class TestSweep:
    def test_empty(self):
        assert sweep(EN, _sample_a_cfg(), [], COH) == []

    def test_single_point_matches_direct_evaluation(self):
        rows = sweep(EN, _sample_a_cfg(), [0], COH)
        point = evaluate_flux_point(EN, _sample_a_cfg(), 0, COH)
        assert rows[0].omega_q_t == point.spectrum.omega_q_t
        assert rows[0].two_chi_total == point.spectrum.two_chi_total
        assert rows[0].t1_model == point.coherence.t1_model
        assert rows[0].error is None

    def test_deterministic(self):
        rows1 = sweep(EN, _sample_a_cfg(), list(range(10)), COH)
        rows2 = sweep(EN, _sample_a_cfg(), list(range(10)), COH)
        assert rows1 == rows2

    def test_failed_rows_marked_and_sweep_continues(self):
        cfg = FluxConfig(mode=FluxMode.ONE_SQUID, e_j1_zero=1e9, e_j2_zero=20e9,
                         area_ratio_a=0.2, n=0)
        rows = sweep(EN, cfg, [0, 5, 0], COH)  # n=5 tunes through zero
        assert rows[0].error is None
        assert rows[1].error is not None and "Unphysical" in rows[1].error
        assert math.isnan(rows[1].two_chi_total)
        assert rows[2].error is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(flux, "evaluate_flux_point", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            sweep(EN, _sample_a_cfg(), [0, 1], COH)

    def test_shift_decreases_while_detuning_grows(self):
        rows = sweep(EN, _sample_a_cfg(), list(range(10)), COH)
        shifts = [r.two_chi_total for r in rows]
        assert all(hi > lo for hi, lo in zip(shifts, shifts[1:]))
        detunings = [abs(r.delta) for r in rows]
        assert all(lo < hi for lo, hi in zip(detunings, detunings[1:]))
        assert shifts[0] - shifts[-1] == pytest.approx(0.8e6, rel=0.75)
