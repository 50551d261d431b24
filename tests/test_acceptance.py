"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import spearmanr

from quantromon import rng
from quantromon.analytic import asymmetric_corrections, bare_modes, dressed_spectrum
from quantromon.coherence import CoherenceConfig, t1_dielectric
from quantromon.flux import (
    FluxConfig,
    FluxMode,
    evaluate_flux_point,
    junction_energies,
    sweep,
)
from quantromon.numeric import Truncation, numeric_spectrum
from quantromon.params import CircuitParams, derive_energies
from quantromon.readout import (
    GaussianMixtureFit,
    ReadoutParams,
    ShotSet,
    error_vs_integration,
    fidelity_report,
    fit_double_gaussian,
    phase_separation,
    simulate_shots,
    threshold,
)
from quantromon.cli import run

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.0)
EN = derive_energies(TABLE)
EN_ASYM = derive_energies(dataclasses.replace(TABLE, d_j=0.045))

COHERENCE_A = CoherenceConfig(q_diel=1.1e6, kappa=1.28e6)

SAMPLE_C = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6,
                         kappa_int=0.38e6, nbar=30.0, tau=1.8e-6, t1=50e-6)

# hand-derived oracle value for the symmetric dispersive shift (main-text
# closed form evaluated with CODATA constants)
TWO_CHI_ORACLE = 1904298.3711546485


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _sample_a_flux() -> FluxConfig:
    e_j1, e_j2 = junction_energies(EN_ASYM)
    return FluxConfig(mode=FluxMode.BOTH_SQUIDS, e_j1_zero=e_j1,
                      e_j2_zero=e_j2, area_ratio_a=0.0423, n=0)


def test_c01_reference_device_frequencies():
    with criterion("criterion 1 (fit-parameter frequencies)"):
        spec = dressed_spectrum(EN)
        assert abs(spec.omega_q_t - 7.185e9) / 7.185e9 <= 0.02
        assert abs(spec.omega_r_t - 7.583e9) / 7.583e9 <= 0.01


def test_c02_dispersive_shift():
    with criterion("criterion 2 (dispersive shift)"):
        spec = dressed_spectrum(EN)
        assert abs(spec.two_chi - TWO_CHI_ORACLE) <= 0.15 * TWO_CHI_ORACLE
        _, two_chi_total = asymmetric_corrections(
            EN_ASYM, spec.two_chi / 2.0, -0.398e9)
        assert abs(two_chi_total - 2.2e6) <= 0.25 * 2.2e6


def test_c03a_numeric_chi_agreement():
    with criterion("criterion 3a (numeric vs analytic dispersive shift)"):
        ana = dressed_spectrum(EN)
        num = numeric_spectrum(EN, Truncation(12, 12))
        assert abs(num.two_chi - ana.two_chi) <= 0.10 * ana.two_chi


def test_c03b_numeric_anharmonicity_agreement():
    label = ("criterion 3b (numeric anharmonicity within 5% of E_CQ of the "
             "second-order closed form E_CQ*(1 + (17/4)*E_CQ/omega_q))")
    with criterion(label):
        num = numeric_spectrum(EN, Truncation(12, 12))
        # the quartic qubit term -(E_CQ/12)(a+a^)^4 gives alpha_q = E_CQ at
        # first order; second-order perturbation theory adds (17/4)E_CQ/omega_q
        ratio = EN.e_cq / bare_modes(EN).omega_q
        reference = EN.e_cq * (1.0 + 4.25 * ratio)
        residual = (num.alpha_q - reference) / EN.e_cq
        assert num.alpha_q > EN.e_cq
        assert abs(residual) <= 0.05, (
            f"numeric anharmonicity {num.alpha_q:.6g} Hz differs from the "
            f"second-order reference {reference:.6g} Hz by {residual:+.2%} "
            f"of E_CQ (E_CQ/omega_q = {ratio:.4g})"
        )


def test_c03c_truncation_stability():
    with criterion("criterion 3c (truncation stability)"):
        low = numeric_spectrum(EN, Truncation(10, 10))
        high = numeric_spectrum(EN, Truncation(14, 14))
        assert abs(high.two_chi - low.two_chi) < 0.01 * high.two_chi


def test_c04_exact_zero_properties():
    with criterion("criterion 4 (exact zeros)"):
        en_b0 = derive_energies(dataclasses.replace(TABLE, b=0.0))
        assert dressed_spectrum(en_b0).two_chi == 0.0
        assert abs(numeric_spectrum(en_b0, Truncation(10, 10)).two_chi) < 1e3
        spec = dressed_spectrum(EN)  # d_j = 0
        assert spec.g_asymm == 0.0
        assert spec.two_chi_total == spec.two_chi


def test_c05_flux_sweep_trend():
    with criterion("criterion 5 (flux sweep trend)"):
        rows = sweep(EN_ASYM, _sample_a_flux(), list(range(10)), COHERENCE_A)
        assert all(r.error is None for r in rows)
        shifts = [r.two_chi_total for r in rows]
        assert all(hi > lo for hi, lo in zip(shifts, shifts[1:]))
        assert abs(shifts[0] - 2.2e6) <= 0.30 * 2.2e6
        assert abs(shifts[-1] - 1.4e6) <= 0.30 * 1.4e6
        assert 0.35e9 <= abs(rows[0].delta) <= 0.45e9
        assert 3.0e9 <= abs(rows[-1].delta) <= 3.6e9


def test_c06_purcell_protection():
    with criterion("criterion 6 (Purcell comparison)"):
        checked = 0
        for n in range(10):
            point = evaluate_flux_point(EN_ASYM, _sample_a_flux(), n, COHERENCE_A)
            if abs(point.spectrum.delta) < 1e9:
                continue
            checked += 1
            rep = point.coherence
            assert rep.t1_asymm >= 10.0 * rep.t1_transmon_purcell
        assert checked >= 4


def test_c07_dielectric_lifetime_endpoints():
    with criterion("criterion 7 (dielectric T1 endpoints)"):
        assert abs(t1_dielectric(7.185e9, 1.1e6) - 24.4e-6) <= 0.1e-6
        assert abs(t1_dielectric(4.288e9, 1.61e6) - 59.8e-6) <= 0.2e-6


def test_c08_phase_separation():
    with criterion("criterion 8 (reflected phase separation)"):
        sep = phase_separation(1.37e6, 0.90e6, 0.38e6)
        assert abs(sep - 236.0) <= 8.0


def test_c09_readout_pipeline():
    with criterion("criterion 9 (readout fidelity and error crossover)"):
        for seed in range(10):
            s0 = simulate_shots(SAMPLE_C, 0, 50000, seed)
            s1 = simulate_shots(SAMPLE_C, 1, 50000, seed)
            fit = fit_double_gaussian(s0, s1)
            report = fidelity_report(s0, s1, fit, threshold(fit))
            assert 0.97 <= report.fidelity <= 0.99, f"seed {seed}: {report.fidelity}"

        taus = [0.2e-6, 0.6e-6, 1.0e-6, 1.4e-6, 1.8e-6, 2.4e-6, 3.0e-6]
        for seed in (0, 1, 2):
            rows = error_vs_integration(SAMPLE_C, taus, 30000, seed)
            assert not any(r.degenerate for r in rows)
            overlap = spearmanr(taus, [r.eps_id for r in rows]).statistic
            decay = spearmanr(taus, [r.eps_01 for r in rows]).statistic
            assert overlap < 0.0
            assert decay > 0.0


def test_c10_mixture_fit_recovery():
    with criterion("criterion 10 (mixture-fit recovery)"):
        n = 100000
        mu0, mu1, s0_, s1_ = 1.5, 6.0, 0.9, 1.2
        a0_true, a1_true = 0.97, 0.94

        def make(seed_stream, weight, mu_a, sig_a, mu_b, sig_b, prepared):
            u = rng.uniforms(77, seed_stream, np.arange(n))
            z = ndtri(u[:, 0])
            values = np.where(u[:, 1] < weight, mu_a + sig_a * z, mu_b + sig_b * z)
            return ShotSet(prepared_state=prepared, values=values, seed=77,
                           params=SAMPLE_C)

        shots0 = make(0, a0_true, mu0, s0_, mu1, s1_, 0)
        shots1 = make(1, a1_true, mu1, s1_, mu0, s0_, 1)
        fit = fit_double_gaussian(shots0, shots1)
        assert abs(fit.mu0 - mu0) / mu0 <= 0.02
        assert abs(fit.mu1 - mu1) / mu1 <= 0.02
        assert abs(fit.sigma0 - s0_) / s0_ <= 0.02
        assert abs(fit.sigma1 - s1_) / s1_ <= 0.02
        assert abs(fit.a0 - a0_true) <= 0.01
        assert abs(fit.a1 - a1_true) <= 0.01

        equal_sigma = GaussianMixtureFit(mu0=-2.0, mu1=5.0, sigma0=1.3,
                                         sigma1=1.3, a0=0.98, a1=0.95,
                                         residual_norm=0.0)
        midpoint = 1.5
        assert abs(threshold(equal_sigma) - midpoint) <= 1e-9 * abs(midpoint)


def test_c11_determinism(tmp_path):
    with criterion("criterion 11 (byte-identical reruns)"):
        config = {
            "circuit": {"l_j": 8.2e-9, "c_j": 56.88e-15, "l_r": 0.546e-9,
                        "c_r": 781.8e-15, "b": 0.405, "d_j": 0.045},
            "flux": {"mode": "both_squids", "e_j1_zero": None,
                     "e_j2_zero": None, "area_ratio_a": 0.0423, "n": 0},
            "coherence": {"q_diel": 1.1e6, "kappa": 1.28e6},
            "sweep": {"n_list": list(range(10))},
            "readout": {"omega_r": 7.4e9, "two_chi": 1.37e6,
                        "kappa_ext": 0.90e6, "kappa_int": 0.38e6,
                        "nbar": 30.0, "tau": 1.8e-6, "t1": 50e-6},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))

        pairs = []
        for tag in ("x", "y"):
            sweep_out = tmp_path / tag / "sweep.csv"
            sim_out = tmp_path / tag / "sim.json"
            assert run(["chi-sweep", "--config", str(cfg_path),
                        "--out", str(sweep_out)]) == 0
            assert run(["readout-sim", "--config", str(cfg_path),
                        "--out", str(sim_out), "--format", "json",
                        "--shots", "5000", "--seed", "123"]) == 0
            pairs.append((sweep_out.read_bytes(), sim_out.read_bytes(),
                          (tmp_path / tag / "sim_shots0.csv").read_bytes(),
                          (tmp_path / tag / "sim_shots1.csv").read_bytes()))
        assert pairs[0] == pairs[1]
