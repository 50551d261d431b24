import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantromon.analytic import (
    asymmetric_corrections,
    bare_modes,
    dressed_spectrum,
    invert_chi,
)
from quantromon.errors import (
    ParameterError,
    StraddlingResonanceError,
    UnphysicalRegimeError,
)
from quantromon.params import (ELECTRON_CHARGE, HBAR, CircuitParams, derive_energies,
                               regime_warnings)

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)
EN = derive_energies(TABLE)

# frozen expected values, hand-evaluated from the defining formulas with
# CODATA constants (see tests in test_params for the energy-scale oracle)
OMEGA_Q_BARE = 7369421746.609754
OMEGA_R_BARE = 7587514763.653243
OMEGA_Q_T = 7197802443.0253935
OMEGA_R_T = 7586168221.361597
TWO_CHI = 1904298.3711546485
G_ASYMM_45 = -12399262.099242989
TWO_CHI_TOTAL_45 = 2481953.725341886  # at d_j = 0.045, Delta = -0.398 GHz


class TestBareModes:
    def test_table_frequencies(self):
        modes = bare_modes(EN)
        assert modes.omega_q == pytest.approx(OMEGA_Q_BARE, rel=1e-9)
        assert modes.omega_r == pytest.approx(OMEGA_R_BARE, rel=1e-9)
        assert modes.omega_q == pytest.approx(7.37e9, rel=1e-3)
        assert modes.omega_r == pytest.approx(7.59e9, rel=1e-3)

    def test_impedances(self):
        modes = bare_modes(EN)
        assert modes.z_q == pytest.approx(268.48, rel=1e-4)
        assert modes.z_r == pytest.approx(36.612, rel=1e-4)

    def test_quadrupled_inductive_energy_doubles_frequency(self):
        en4 = EN._replace(e_jq=4 * EN.e_jq)
        assert bare_modes(en4).omega_q == 2.0 * bare_modes(EN).omega_q

    def test_unit_energy_ratio_gives_resistance_quantum_scale(self):
        en = EN._replace(e_cq=EN.e_jq)
        expected = HBAR / ELECTRON_CHARGE**2
        assert bare_modes(en).z_q == expected


class TestDressedSpectrum:
    def test_table_values(self):
        spec = dressed_spectrum(EN)
        assert spec.omega_q_t == pytest.approx(OMEGA_Q_T, rel=1e-9)
        assert spec.omega_r_t == pytest.approx(OMEGA_R_T, rel=1e-9)
        assert spec.alpha_q == EN.e_cq
        assert spec.two_chi == pytest.approx(TWO_CHI, rel=1e-9)

    def test_matches_measured_frequencies(self):
        spec = dressed_spectrum(EN)
        assert spec.omega_q_t == pytest.approx(7.185e9, rel=0.02)
        assert spec.omega_r_t == pytest.approx(7.583e9, rel=0.01)

    def test_b_zero_shift_vanishes_exactly(self):
        en0 = derive_energies(TABLE._replace(b=0.0))
        spec = dressed_spectrum(en0)
        assert spec.two_chi == 0.0
        assert spec.two_chi_total == 0.0
        # bare-transmon reduction
        assert spec.omega_q_t == math.sqrt(8 * en0.e_jq * en0.e_cq) - en0.e_cq

    def test_quadrupled_ecr_doubles_chi(self):
        en4 = EN._replace(e_cr=4 * EN.e_cr)
        assert dressed_spectrum(en4).two_chi == 2.0 * dressed_spectrum(EN).two_chi

    def test_symmetric_case_identities(self):
        spec = dressed_spectrum(EN)
        assert spec.g_asymm == 0.0
        assert spec.two_chi_total == spec.two_chi

    def test_regime_warning(self):
        soft = EN._replace(e_lr=0.5 * EN.e_j,
                           e_jr=0.5 * EN.e_j + EN.b**2 / 2 * EN.e_j)
        with pytest.warns(UserWarning, match="perturbative"):
            dressed_spectrum(soft)

    def test_one_warning_per_regime_message(self):
        soft_b1 = derive_energies(TABLE._replace(l_r=2e-8, b=1.0))
        with pytest.warns(UserWarning) as record:
            dressed_spectrum(soft_b1)
        assert tuple(str(w.message) for w in record) == regime_warnings(soft_b1)
        assert len(record) == 2

    def test_chi_ratio_closed_form(self):
        r = EN.e_lr / EN.e_j
        for b1, b2 in [(0.2, 0.4)]:
            en1 = EN._replace(b=b1, e_jr=EN.e_lr + b1**2 / 2 * EN.e_j)
            en2 = EN._replace(b=b2, e_jr=EN.e_lr + b2**2 / 2 * EN.e_j)
            ratio = dressed_spectrum(en1).two_chi / dressed_spectrum(en2).two_chi
            expected = (b1**2 * math.sqrt(b2**2 / 2 + r)) / (b2**2 * math.sqrt(b1**2 / 2 + r))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_chi_monotone_in_b(self):
        values = []
        for b in [0.1, 0.3, 0.5, 0.7, 0.9]:
            en = EN._replace(b=b, e_jr=EN.e_lr + b**2 / 2 * EN.e_j)
            values.append(dressed_spectrum(en).two_chi)
        en = EN._replace(b=1.0, e_jr=EN.e_lr + EN.e_j / 2)
        with pytest.warns(UserWarning, match=r"^b = 1: "):
            values.append(dressed_spectrum(en).two_chi)
        assert all(lo < hi for lo, hi in zip(values, values[1:]))


class TestAsymmetricCorrections:
    EN45 = EN._replace(d_j=0.045)

    def test_symmetric_identity(self):
        g, total = asymmetric_corrections(EN, TWO_CHI / 2, -0.398e9)
        assert g == 0.0
        assert total == TWO_CHI

    def test_frozen_values_at_measured_detuning(self):
        g, total = asymmetric_corrections(self.EN45, TWO_CHI / 2, -0.398e9)
        assert g == pytest.approx(G_ASYMM_45, rel=1e-9)
        assert total == pytest.approx(TWO_CHI_TOTAL_45, rel=1e-9)
        # correction lifts the bare 1.9 MHz toward the measured 2.2 MHz
        assert total / TWO_CHI == pytest.approx(1.3, abs=0.01)

    def test_sign_flip_parity(self):
        en_m = EN._replace(d_j=-0.045)
        g_p, total_p = asymmetric_corrections(self.EN45, TWO_CHI / 2, -0.398e9)
        g_m, total_m = asymmetric_corrections(en_m, TWO_CHI / 2, -0.398e9)
        assert total_m == total_p
        assert g_m == -g_p

    def test_negative_chi_rejected(self):
        with pytest.raises(ParameterError):
            asymmetric_corrections(self.EN45, -1.0, -0.398e9)

    def test_straddling_resonance(self):
        with pytest.raises(StraddlingResonanceError):
            asymmetric_corrections(self.EN45, TWO_CHI / 2, 0.0)
        with pytest.raises(StraddlingResonanceError):
            asymmetric_corrections(self.EN45, TWO_CHI / 2, -self.EN45.e_cq)


class TestInvertChi:
    def test_identity_at_zero_asymmetry(self):
        assert invert_chi(2.2e6, -0.398e9, EN.e_cq, EN.e_jq, 0.0) == 2.2e6

    def test_round_trip(self):
        en45 = EN._replace(d_j=0.045)
        chi = TWO_CHI / 2
        _, total = asymmetric_corrections(en45, chi, -0.398e9)
        recovered = invert_chi(total, -0.398e9, en45.e_cq, en45.e_jq, 0.045)
        assert recovered == pytest.approx(2 * chi, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
           st.floats(0.001, 0.5) | st.floats(-0.5, -0.001),
           st.floats(1e3, 1e7), st.floats(1.5, 20.0), st.sampled_from([-1.0, 1.0]))
    def test_inverts_asymmetric_corrections(self, ec_scale, ej_scale, d_j, chi, ratio, sign):
        # |Delta| > alpha on either side keeps the detuning out of the straddling regime
        en = EN._replace(e_cq=EN.e_cq * ec_scale, e_jq=EN.e_jq * ej_scale, d_j=d_j)
        delta = sign * ratio * en.e_cq
        _, total = asymmetric_corrections(en, chi, delta)
        recovered = invert_chi(total, delta, en.e_cq, en.e_jq, d_j)
        assert recovered == pytest.approx(2 * chi, rel=1e-12)

    def test_measured_shift_inversion(self):
        kerr = invert_chi(2.2e6, -0.398e9, EN.e_cq, EN.e_jq, 0.045)
        assert kerr == pytest.approx(1687967.17, rel=1e-6)
        assert kerr == pytest.approx(1.7e6, rel=0.01)

    def test_unphysical_factor_rejected(self):
        # straddling regime: Delta*(Delta+alpha) < 0 and large asymmetry
        with pytest.raises(UnphysicalRegimeError):
            invert_chi(2.2e6, -0.5 * EN.e_cq, EN.e_cq, EN.e_jq, 0.5)
