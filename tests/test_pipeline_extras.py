"""Cross-module behaviors not tied to a single unit: fixed-bias pipelines,
imported measurement records, and CLI output edge cases."""

import dataclasses
import json
import math

import numpy as np
import pytest

from quantromon.cli import run
from quantromon.coherence import CoherenceConfig
from quantromon.flux import FluxConfig, FluxMode, evaluate_flux_point, sweep
from quantromon.params import CircuitParams, derive_energies
from quantromon.readout import (
    ReadoutParams,
    fidelity_report,
    fit_double_gaussian,
    import_shots_csv,
    phase_separation,
    pointer_means,
    simulate_shots,
    threshold,
)

TABLE = CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9, c_r=781.8e-15,
                      b=0.405, d_j=0.045)
EN = derive_energies(TABLE)
COH = CoherenceConfig(q_diel=1.1e6, kappa=1.28e6)
SAMPLE_C = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6,
                         kappa_int=0.38e6, nbar=30.0, tau=1.8e-6, t1=50e-6)


class TestFixedModePipeline:
    def test_fixed_bias_ignores_flux_quanta(self):
        cfg = FluxConfig(mode=FluxMode.FIXED, e_j1_zero=20.8e9, e_j2_zero=19.1e9)
        a = evaluate_flux_point(EN, cfg, 0, COH)
        b = evaluate_flux_point(EN, cfg, 7, COH)
        assert a.spectrum == b.spectrum
        assert a.e_jsigma == 20.8e9 + 19.1e9

    def test_fixed_sweep_rows_identical(self):
        cfg = FluxConfig(mode=FluxMode.FIXED, e_j1_zero=20.8e9, e_j2_zero=19.1e9)
        rows = sweep(EN, cfg, [0, 3, -2], COH)
        assert rows[0].two_chi_total == rows[1].two_chi_total == rows[2].two_chi_total


class TestReadoutFrequencyChoice:
    def test_midpoint_default_matches_explicit(self):
        explicit = dataclasses.replace(
            SAMPLE_C, readout_freq=SAMPLE_C.omega_r - SAMPLE_C.two_chi / 2.0)
        assert pointer_means(SAMPLE_C) == pointer_means(explicit)

    def test_off_midpoint_readout_shrinks_separation(self):
        on_peak = dataclasses.replace(SAMPLE_C, readout_freq=SAMPLE_C.omega_r)
        _, m1_mid = pointer_means(SAMPLE_C)
        _, m1_peak = pointer_means(on_peak)
        assert 0.0 < m1_peak < m1_mid

    def test_critical_coupling_continuity(self):
        # at kappa_ext == kappa_int both branch formulas meet at 180 degrees
        assert phase_separation(1e-3, 0.9e6, 0.9e6) == pytest.approx(180.0, abs=1e-3)


class TestMeasurementRecordImport:
    def test_hand_written_record_flows_through_analysis(self, tmp_path):
        # emulate an external measurement record with the documented header
        rng = np.random.default_rng(4)
        header = (
            "# prepared_state={state}\n# seed=0\n"
            "# omega_r=7400000000.0\n# two_chi=1370000.0\n"
            "# kappa_ext=900000.0\n# kappa_int=380000.0\n"
            "# nbar=30.0\n# tau=1.8e-06\n# t1=5e-05\n# readout_freq=\n"
            "# noise_scale=2.05\n# thermal_pop=0.0\nvalue\n"
        )
        paths = []
        for state, mu in ((0, -2.0), (1, 2.0)):
            lines = "".join(f"{float(v)!r}\n" for v in rng.normal(mu, 0.8, 4000))
            path = tmp_path / f"record{state}.csv"
            path.write_text(header.format(state=state) + lines)
            paths.append(path)
        shots0 = import_shots_csv(paths[0])
        shots1 = import_shots_csv(paths[1])
        assert shots0.params.two_chi == 1.37e6
        fit = fit_double_gaussian(shots0, shots1)
        report = fidelity_report(shots0, shots1, fit, threshold(fit))
        assert report.fidelity > 0.97


class TestCliEdgeCases:
    def test_failed_sweep_rows_serialize_as_null_in_json(self, tmp_path):
        config = {
            "circuit": {"l_j": 8.2e-9, "c_j": 56.88e-15, "l_r": 0.546e-9,
                        "c_r": 781.8e-15, "b": 0.405, "d_j": 0.045},
            "flux": {"mode": "one_squid", "e_j1_zero": 1e9, "e_j2_zero": 20e9,
                     "area_ratio_a": 0.2, "n": 0},
            "coherence": {"q_diel": 1.1e6, "kappa": 1.28e6},
            "sweep": {"n_list": [0, 5]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sweep.json"
        assert run(["chi-sweep", "--config", str(cfg), "--out", str(out),
                    "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None
        assert rows[1]["two_chi_total"] is None  # nan maps to null

    def test_spectrum_respects_truncation_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": {
            "l_j": 8.2e-9, "c_j": 56.88e-15, "l_r": 0.546e-9,
            "c_r": 781.8e-15, "b": 0.405, "d_j": 0.0}}))
        assert run(["spectrum", "--config", str(cfg), "--trunc", "8x8",
                    "--format", "json"]) == 0
        small = json.loads(capsys.readouterr().out)
        assert run(["spectrum", "--config", str(cfg), "--format", "json"]) == 0
        default = json.loads(capsys.readouterr().out)
        small_chi = next(r for r in small if r["quantity"] == "two_chi")
        default_chi = next(r for r in default if r["quantity"] == "two_chi")
        assert small_chi["numeric"] != default_chi["numeric"]

    def test_bad_subcommand_maps_to_validation_exit(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_simulated_record_reimports_identically(self, tmp_path):
        shots = simulate_shots(SAMPLE_C, 1, 500, 13)
        from quantromon.readout import export_shots_csv
        path = tmp_path / "x.csv"
        export_shots_csv(shots, path)
        again = import_shots_csv(path)
        assert again == dataclasses.replace(shots, values=again.values)
        assert np.array_equal(again.values, shots.values)
