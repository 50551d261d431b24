import math

import pytest

from quantromon.analytic import dressed_spectrum
from quantromon.coherence import (
    CoherenceConfig,
    CoherenceReport,
    coherence_report,
    combine,
    t1_dielectric,
    t1_purcell,
    transmon_equivalent_g,
)
from quantromon.errors import ParameterError, UnphysicalRegimeError
from quantromon.flux import (FluxConfig, FluxMode, energies_at_flux, evaluate_flux_point,
                             junction_energies)
from quantromon.params import CircuitParams, derive_energies

TWO_PI = 2 * math.pi


class TestDielectric:
    def test_low_flux_endpoint(self):
        assert t1_dielectric(7.185e9, 1.1e6) == pytest.approx(24.366e-6, abs=0.1e-6)

    def test_high_flux_endpoint(self):
        assert t1_dielectric(4.288e9, 1.61e6) == pytest.approx(59.757e-6, abs=0.2e-6)

    def test_quality_factor_doubling(self):
        assert t1_dielectric(5e9, 2.2e6) == 2 * t1_dielectric(5e9, 1.1e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            t1_dielectric(-5e9, 1e6)


class TestPurcell:
    def test_zero_coupling_gives_infinite_lifetime(self):
        assert t1_purcell(0.0, 1e9, 1e6) == math.inf

    def test_algebraic_identity(self):
        # direct substitution: g = Delta/10, kappa = Delta/100 gives
        # Delta^2/(kappa*g^2) = 1e4/Delta in angular-consistent units
        delta = 1.0e9
        t1 = t1_purcell(delta / 10, delta, delta / 100)
        assert t1 == pytest.approx(1e4 / (TWO_PI * delta), rel=1e-12)

    def test_detuning_squared_scaling(self):
        assert (t1_purcell(5e6, 2e9, 1e6)
                == pytest.approx(4 * t1_purcell(5e6, 1e9, 1e6), rel=1e-12))

    def test_zero_detuning_rejected(self):
        with pytest.raises(ParameterError):
            t1_purcell(5e6, 0.0, 1e6)

    @pytest.mark.parametrize("kappa", [0.0, -1e6, math.nan])
    def test_nonpositive_linewidth_rejected(self, kappa):
        with pytest.raises(ParameterError, match="kappa must be > 0"):
            t1_purcell(5e6, 1e9, kappa)


class TestCombine:
    def test_infinite_channel_contributes_nothing(self):
        assert combine([10e-6, math.inf]) == 10e-6

    def test_equal_channels(self):
        assert combine([20e-6, 20e-6]) == pytest.approx(10e-6, rel=1e-12)

    def test_permutation_invariant(self):
        assert combine([3e-6, 7e-6, 11e-6]) == combine([11e-6, 3e-6, 7e-6])

    def test_adding_a_channel_never_increases_t1(self):
        base = combine([25e-6, 40e-6])
        assert combine([25e-6, 40e-6, 100e-6]) < base

    def test_all_infinite(self):
        assert combine([math.inf, math.inf]) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            combine([])


class TestTransmonEquivalent:
    def test_shift_quadrupling_doubles_coupling(self):
        g1 = transmon_equivalent_g(2.2e6, -0.398e9, 0.17e9)
        g4 = transmon_equivalent_g(8.8e6, -0.398e9, 0.17e9)
        assert g4 == pytest.approx(2 * g1, rel=1e-12)

    def test_round_trip_through_dispersive_formula(self):
        delta, alpha = -1.2e9, 0.17e9
        g = transmon_equivalent_g(2.0e6, delta, alpha)
        chi = (g**2 / delta) * (alpha / (delta + alpha))
        assert 2 * chi == pytest.approx(2.0e6, rel=1e-12)

    def test_equivalent_transmon_purcell_is_short(self):
        g = transmon_equivalent_g(2.2e6, 0.398e9, 0.17e9)
        assert g == pytest.approx(38.2e6, rel=0.01)
        t1 = t1_purcell(g, 0.398e9, 1.28e6)
        assert t1 < 20e-6  # well below measured quantromon lifetimes

    @pytest.mark.parametrize("alpha_q", [0.0, -0.17e9, math.nan])
    def test_nonpositive_anharmonicity_rejected(self, alpha_q):
        with pytest.raises(ParameterError, match="alpha_q must be > 0"):
            transmon_equivalent_g(2.2e6, -1.0e9, alpha_q)

    def test_pole_rejected(self):
        with pytest.raises(UnphysicalRegimeError):
            transmon_equivalent_g(2.2e6, -0.17e9, 0.17e9)

    def test_straddled_detuning_rejected(self):
        with pytest.raises(UnphysicalRegimeError):
            transmon_equivalent_g(2.2e6, -0.1e9, 0.17e9)


class TestReport:
    EN = derive_energies(CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9,
                                       c_r=781.8e-15, b=0.405, d_j=0.045))
    COH = CoherenceConfig(q_diel=1.1e6, kappa=1.28e6)

    def _cfg(self):
        e_j1, e_j2 = junction_energies(self.EN)
        return FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1,
                          e_j2_zero=e_j2, area_ratio_a=0.0423)

    @pytest.mark.parametrize("n", [0, 3, 9])
    def test_report_reads_the_dressed_spectrum(self, n):
        # the budget of a flux point is a function of its spectrum alone
        row = evaluate_flux_point(self.EN, self._cfg(), n, self.COH)
        spec = dressed_spectrum(energies_at_flux(self.EN, row.e_jsigma, row.d_j))
        report = coherence_report(spec, self.COH)
        assert repr(report) == repr(CoherenceReport(**{
            name: getattr(row, name) for name in CoherenceReport._fields}))

    def test_rate_sum_identity(self):
        rep = evaluate_flux_point(self.EN, self._cfg(), 3, self.COH)
        assert 1 / rep.t1_model == pytest.approx(
            1 / rep.t1_diel + 1 / rep.t1_asymm, rel=1e-12)
        assert rep.t1_diel > 0 and rep.t1_asymm > 0

    def test_purcell_matters_only_at_smallest_detuning(self):
        p0 = evaluate_flux_point(self.EN, self._cfg(), 0, self.COH)
        p5 = evaluate_flux_point(self.EN, self._cfg(), 5, self.COH)
        assert p0.t1_asymm / p0.t1_diel < 10  # comparable at zero flux
        assert p5.t1_asymm / p5.t1_diel > 50  # negligible at large detuning

    def test_protection_ratio_grows_with_detuning(self):
        ratios = []
        for n in range(5, 10):
            rep = evaluate_flux_point(self.EN, self._cfg(), n, self.COH)
            ratios.append(rep.t1_asymm / rep.t1_transmon_purcell)
        assert all(r >= 10 for r in ratios)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            CoherenceConfig(q_diel=0.0, kappa=1e6)
        with pytest.raises(ParameterError):
            CoherenceConfig(q_diel=1e6, kappa=-1.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_kappa_must_be_finite(self, kappa):
        with pytest.raises(ParameterError, match="kappa"):
            CoherenceConfig(q_diel=1e6, kappa=kappa)
