import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantromon.analytic import bare_modes, dressed_spectrum
from quantromon.errors import AmbiguousLabelingError, ParameterError
from quantromon.flux import energies_at_flux
from quantromon.numeric import (
    REQUIRED_LABELS,
    HamiltonianMatrix,
    Truncation,
    build_hamiltonian,
    eigensolve,
    extract_observables,
    label_states,
    numeric_spectrum,
    parity_sectors,
)
from quantromon.params import CircuitParams, derive_energies

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)
EN = derive_energies(TABLE)


class TestTruncation:
    def test_minimum_levels(self):
        with pytest.raises(ParameterError):
            Truncation(3, 12)
        with pytest.raises(ParameterError):
            Truncation(12, 3)

    def test_dim(self):
        assert Truncation(5, 7).dim == 35


class TestEigensolve:
    def test_two_by_two(self):
        w, v = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert w == pytest.approx([-1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        d = np.array([3.0, -1.0, 2.0, 0.5])
        w, v = eigensolve(np.diag(d))
        assert np.array_equal(w, np.sort(d))
        assert np.allclose(np.abs(v), np.eye(4)[:, np.argsort(d)])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(20, 20))
        m = 0.5 * (m + m.T)
        w, v = eigensolve(m)
        norm = np.linalg.norm(m)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-8 * norm
        assert np.linalg.norm(v.T @ v - np.eye(20)) <= 1e-8
        for k in range(20):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-8 * norm


class TestBuildHamiltonian:
    def test_symmetric(self):
        h = build_hamiltonian(EN, Truncation(10, 10))
        scale = np.max(np.abs(h.entries))
        assert np.max(np.abs(h.entries - h.entries.T)) <= 1e-9 * scale

    def test_harmonic_limit_energies_exact(self):
        # quartics off: labeled transition energies are m_q*w_q + m_r*w_r
        trunc = Truncation(10, 10)
        h = build_hamiltonian(EN, trunc, include_quartics=False)
        w, v = eigensolve(h)
        ls = label_states(w, v, trunc)
        modes = bare_modes(EN)
        e0 = ls.energies[(0, 0)]
        for (mq, mr), energy in ls.energies.items():
            expected = mq * modes.omega_q + mr * modes.omega_r
            assert energy - e0 == pytest.approx(expected, rel=1e-12, abs=1.0)

    def test_uncoupled_b_zero(self):
        en0 = derive_energies(dataclasses.replace(TABLE, b=0.0))
        trunc = Truncation(8, 8)
        h = build_hamiltonian(en0, trunc)
        m = h.entries
        for iq in range(8):
            for ir in range(8):
                for jq in range(8):
                    for jr in range(8):
                        if iq != jq and ir != jr:
                            assert m[h.flat_index(iq, ir), h.flat_index(jq, jr)] == 0.0
        w, v = eigensolve(h)
        ls = label_states(w, v, trunc)
        # the cross-mode factorization is exact; the qubit's own quartic
        # still dresses its Fock states (about 3e-3 at m_q = 2)
        for overlap in ls.overlaps.values():
            assert overlap >= 0.99

    def test_harmonic_uncoupled_overlaps_exactly_one(self):
        trunc = Truncation(10, 10)
        h = build_hamiltonian(derive_energies(dataclasses.replace(TABLE, b=0.0)),
                              trunc, include_quartics=False)
        w, v = eigensolve(h)
        ls = label_states(w, v, trunc)
        for overlap in ls.overlaps.values():
            assert overlap >= 1.0 - 1e-12

    def test_parity_block_structure(self):
        # d_j = 0: per-mode photon-number parity is conserved at this order
        trunc = Truncation(8, 8)
        h = build_hamiltonian(EN, trunc)
        m = h.entries
        for iq in range(8):
            for ir in range(8):
                for jq in range(8):
                    for jr in range(8):
                        if (iq - jq) % 2 or (ir - jr) % 2:
                            assert m[h.flat_index(iq, ir), h.flat_index(jq, jr)] == 0.0

    def test_overflow_rejected(self):
        # zero-point amplitude (2*e_cq/e_jq)**(1/4) overflows for this combo
        huge = dataclasses.replace(EN, e_cq=1e300, e_jq=1e-300, e_j=5e-301)
        with pytest.raises(ParameterError):
            build_hamiltonian(huge, Truncation(6, 6))


class TestObservables:
    def test_chi_against_analytic_within_ten_percent(self):
        ana = dressed_spectrum(EN)
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert abs(num.two_chi - ana.two_chi) <= 0.10 * ana.two_chi

    def test_anharmonicity_matches_second_order_perturbation(self):
        # the quartic model's exact anharmonicity exceeds E_CQ by the
        # second-order correction (17/4) * E_CQ / omega_q plus smaller terms
        num = numeric_spectrum(EN, Truncation(12, 12))
        omega_q = bare_modes(EN).omega_q
        alpha_pt2 = EN.e_cq * (1.0 + 4.25 * EN.e_cq / omega_q)
        assert num.alpha_q > EN.e_cq
        assert abs(num.alpha_q - alpha_pt2) <= 0.035 * EN.e_cq

    @pytest.mark.parametrize("scale", [1, 2, 4, 8, 16])
    def test_anharmonicity_second_order_coefficient_under_scaling(self, scale):
        # with r = E_CQ/omega_q, alpha_q/E_CQ = 1 + (17/4) r + c r**2 + ...;
        # scaling c_j takes r from 0.023 down to 0.0058, so an error d in the
        # 17/4 coefficient shifts the remainder c by d/r, i.e. 43*d to 173*d.
        # The quartic oscillator alone has c = 233/8; the resonator adds a
        # few units (remainder measured 34.5-37.4 over these scalings).
        en = derive_energies(dataclasses.replace(TABLE, c_j=TABLE.c_j * scale))
        r = en.e_cq / bare_modes(en).omega_q
        num = numeric_spectrum(en, Truncation(12, 12))
        remainder = (num.alpha_q / en.e_cq - 1.0 - 4.25 * r) / r**2
        assert 30.0 <= remainder <= 42.0

    def test_dressed_frequencies_close_to_analytic(self):
        ana = dressed_spectrum(EN)
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert num.omega_q_t == pytest.approx(ana.omega_q_t, rel=5e-3)
        assert num.omega_r_t == pytest.approx(ana.omega_r_t, rel=5e-3)

    def test_truncation_convergence(self):
        ref = numeric_spectrum(EN, Truncation(14, 14))
        low = numeric_spectrum(EN, Truncation(10, 10))
        assert abs(ref.two_chi - low.two_chi) < 0.01 * ref.two_chi
        assert abs(ref.alpha_q - low.alpha_q) < 0.01 * ref.alpha_q
        assert abs(ref.omega_q_t - low.omega_q_t) < 0.01 * ref.omega_q_t

    def test_harmonic_uncoupled_limit_zero_chi_and_alpha(self):
        trunc = Truncation(10, 10)
        h = build_hamiltonian(EN, trunc, include_quartics=False)
        w, v = eigensolve(h)
        ls = label_states(w, v, trunc)
        from quantromon.numeric import extract_observables
        obs = extract_observables(ls, EN)
        assert abs(obs.alpha_q) < 1.0
        assert abs(obs.two_chi) < 1.0

    def test_b_zero_chi_below_kilohertz(self):
        en0 = derive_energies(dataclasses.replace(TABLE, b=0.0))
        num = numeric_spectrum(en0, Truncation(10, 10))
        assert abs(num.two_chi) < 1e3

    def test_dispersive_overlaps_above_ninety_percent(self):
        trunc = Truncation(12, 12)
        h = build_hamiltonian(EN, trunc)
        w, v = eigensolve(h)
        ls = label_states(w, v, trunc)
        assert set(ls.overlaps) == set(REQUIRED_LABELS)
        assert all(ov > 0.9 for ov in ls.overlaps.values())

    def test_transverse_coupling_raises_total_shift(self):
        sym = numeric_spectrum(EN, Truncation(12, 12))
        asym = numeric_spectrum(derive_energies(dataclasses.replace(TABLE, d_j=0.045)),
                                Truncation(12, 12))
        assert asym.two_chi_total > sym.two_chi_total
        assert asym.g_asymm < 0.0

    def test_symmetric_case_total_equals_kerr(self):
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert num.two_chi_total == num.two_chi
        assert num.g_asymm == 0.0

    def test_resonant_labeling_ambiguous(self):
        # tune the junction energy until the dressed modes are degenerate,
        # with enough asymmetry-induced coupling to hybridize them
        lo, hi = 1e9, 1e12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dressed_spectrum(energies_at_flux(TABLE, mid, 0.0)).delta < 0:
                lo = mid
            else:
                hi = mid
        en_res = energies_at_flux(TABLE, 0.5 * (lo + hi), 0.3)
        with pytest.raises(AmbiguousLabelingError):
            numeric_spectrum(en_res, Truncation(12, 12))

    @pytest.mark.parametrize("n_q, n_r", [(12, 4), (4, 12)])
    def test_ambiguous_message_shows_overlap_below_threshold(self, n_q, n_r):
        # the top kept level of a four-level mode mixes about 50/50 with the
        # first excitation, just below the threshold
        with pytest.raises(AmbiguousLabelingError) as info:
            numeric_spectrum(EN, Truncation(n_q, n_r))
        msg = str(info.value)
        match = re.search(r"best overlap (\S+) < (\S+) at truncation (\d+)x(\d+)", msg)
        assert match, msg
        overlap, limit = float(match[1]), float(match[2])
        assert overlap < limit
        assert len(match[1].lstrip("0.")) >= 6  # significant digits shown
        assert (int(match[3]), int(match[4])) == (n_q, n_r)
        assert "larger truncation" in msg

    def test_agreement_degrades_as_inductor_softens(self):
        # regression trend: relative analytic/numeric chi deviation grows as
        # e_lr/e_j drops from 15 toward 2
        deviations = []
        for ratio in (15.0, 8.0, 4.0, 2.0):
            l_r = (EN.e_lr * TABLE.l_r) / (ratio * EN.e_j)
            params = dataclasses.replace(TABLE, l_r=l_r)
            en = derive_energies(params)
            ana = dressed_spectrum(en)
            num = numeric_spectrum(en, Truncation(12, 12))
            deviations.append(abs(num.two_chi - ana.two_chi) / num.two_chi)
        assert all(lo < hi for lo, hi in zip(deviations, deviations[1:]))


def _scaled(factors, d_j):
    """Energies of TABLE with l_j, c_j, l_r, c_r and b scaled by ``factors``."""
    names = ("l_j", "c_j", "l_r", "c_r", "b")
    scaled = {k: getattr(TABLE, k) * f for k, f in zip(names, factors)}
    return derive_energies(dataclasses.replace(TABLE, d_j=d_j, **scaled))


_AROUND_TABLE = st.tuples(*[st.floats(0.8, 1.2)] * 5)
# each factor lowers the qubit or raises the resonator: dispersive side
_DISPERSIVE = st.tuples(st.floats(1.0, 1.3), st.floats(1.0, 1.1), st.floats(0.95, 1.0),
                        st.floats(0.95, 1.0), st.floats(0.95, 1.05))
_ASYMMETRY = st.floats(0.01, 0.1) | st.floats(-0.1, -0.01)
_OBSERVABLES = ("omega_q_t", "omega_r_t", "alpha_q", "two_chi", "g_asymm", "two_chi_total")


class TestParitySectors:
    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=15, deadline=None)
    @given(_AROUND_TABLE, _ASYMMETRY, st.integers(6, 14), st.integers(6, 14))
    def test_entries_between_sectors_exactly_zero(self, symmetric, factors, d_j, n_q, n_r):
        d_j = 0.0 if symmetric else d_j
        trunc = Truncation(n_q, n_r)
        m = build_hamiltonian(_scaled(factors, d_j), trunc).entries
        m_q, m_r = np.divmod(np.arange(trunc.dim), n_r)
        parities = [m_q % 2, m_r % 2] if symmetric else [(m_q + m_r) % 2]
        same = np.logical_and.reduce([p[:, None] == p[None, :] for p in parities])
        assert np.all(m[~same] == 0.0)

        sectors = parity_sectors(trunc, per_mode=symmetric)
        assert len(sectors) == (4 if symmetric else 2)
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(trunc.dim))
        for idx in sectors:
            assert np.all(same[np.ix_(idx, idx)])

    @pytest.mark.parametrize("symmetric", [True, False])
    @settings(max_examples=8, deadline=None)
    @given(_DISPERSIVE, _ASYMMETRY, st.integers(10, 14))
    def test_blocked_matches_full_matrix(self, symmetric, factors, d_j, n):
        en = _scaled(factors, 0.0 if symmetric else d_j)
        trunc = Truncation(n, n)
        w, v = eigensolve(build_hamiltonian(en, trunc))
        full = extract_observables(label_states(w, v, trunc), en)
        blocked = numeric_spectrum(en, trunc)
        for name in _OBSERVABLES:
            assert getattr(blocked, name) == pytest.approx(getattr(full, name), rel=1e-9)

    def test_labels_only_rows_of_given_basis(self):
        trunc = Truncation(8, 8)
        h = build_hamiltonian(EN, trunc)
        idx = parity_sectors(trunc, per_mode=True)[0]  # m_q and m_r even
        w, v = eigensolve(h.entries[np.ix_(idx, idx)])
        ls = label_states(w, v, trunc, idx)
        assert set(ls.energies) == {(0, 0), (2, 0)}
