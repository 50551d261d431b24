import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from quantromon.analytic import phase_separation, pointer_means, reflection_coefficient
from quantromon.errors import (
    DegenerateMixtureError,
    NumericalError,
    ParameterError,
    ThresholdError,
)
from quantromon.params import ReadoutParams
from quantromon.readout import (
    _SHOT_CHUNK,
    GaussianMixtureFit,
    ShotSet,
    error_vs_integration,
    export_shots_csv,
    fidelity_report,
    fit_double_gaussian,
    import_shots_csv,
    simulate_shots,
    threshold,
)
from quantromon import rng
from test_cli import _subprocess_env

SAMPLE_C = ReadoutParams(omega_r=7.4e9, two_chi=1.37e6, kappa_ext=0.90e6,
                         kappa_int=0.38e6, nbar=30.0, tau=1.8e-6, t1=50e-6)


def _gaussian_shots(seed, stream, n, mu, sigma):
    return mu + sigma * ndtri(rng.uniforms(seed, stream, 0, n)[:, 0])


def _mixture_shots(seed, stream, n, weight, mu_a, sigma_a, mu_b, sigma_b):
    u = rng.uniforms(seed, stream, 0, n)
    z = ndtri(u[:, 0])
    pick_a = u[:, 1] < weight
    return np.where(pick_a, mu_a + sigma_a * z, mu_b + sigma_b * z)


def _as_shotset(values, prepared=0, seed=0):
    return ShotSet(prepared_state=prepared, values=np.asarray(values, float),
                   seed=seed, params=SAMPLE_C)


class TestReadoutParams:
    @pytest.mark.parametrize("name", ReadoutParams._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_by_name(self, name, value):
        with pytest.raises(ParameterError) as info:
            SAMPLE_C._replace(**{name: value})
        assert str(info.value) == f"{name} must be finite, got {value!r}"

    def test_readout_freq_may_be_none(self):
        assert SAMPLE_C.readout_freq is None
        assert SAMPLE_C._replace(readout_freq=7.4e9).readout_freq == 7.4e9


class TestReflection:
    def test_critical_coupling_on_resonance(self):
        assert reflection_coefficient(5e9, 5e9, 1e6, 1e6) == 0.0

    def test_lossless_unit_magnitude(self):
        for detuning in (-5e6, -0.3e6, 0.1e6, 2e6):
            s11 = reflection_coefficient(5e9 + detuning, 5e9, 1.3e6, 0.0)
            assert abs(s11) == pytest.approx(1.0, rel=1e-12)

    def test_device_phases_at_half_shift(self):
        chi = SAMPLE_C.two_chi / 2
        plus = reflection_coefficient(chi, 0.0, 0.90e6, 0.38e6)
        minus = reflection_coefficient(-chi, 0.0, 0.90e6, 0.38e6)
        assert math.degrees(np.angle(plus)) == pytest.approx(63.84, abs=0.01)
        assert math.degrees(np.angle(minus)) == pytest.approx(-63.84, abs=0.01)


class TestPhaseSeparation:
    def test_device_value(self):
        sep = phase_separation(1.37e6, 0.90e6, 0.38e6)
        assert sep == pytest.approx(232.32057149489157, rel=1e-12)
        assert abs(sep - 236.0) <= 8.0

    def test_full_wrap_limit(self):
        assert phase_separation(1e12, 1e6, 0.0) == pytest.approx(360.0, abs=0.01)

    def test_under_coupled_stays_on_principal_branch(self):
        sep = phase_separation(0.2e6, 0.3e6, 1.2e6)
        assert 0.0 < sep < 180.0

    def test_monotone_in_shift(self):
        seps = [phase_separation(x, 0.90e6, 0.38e6)
                for x in np.linspace(0.1e6, 20e6, 25)]
        assert all(lo < hi for lo, hi in zip(seps, seps[1:]))

    def test_zero_linewidth_rejected(self):
        with pytest.raises(ParameterError):
            phase_separation(1e6, 0.0, 0.0)

    @pytest.mark.parametrize("kappa_ext, kappa_int", [(0.90e6, 0.38e6), (0.38e6, 0.90e6)],
                             ids=["over-coupled", "under-coupled"])
    @pytest.mark.parametrize("two_chi", [1.37e6, 0.2e6, 20e6])
    def test_negative_shift_gives_the_positive_value(self, two_chi, kappa_ext, kappa_int):
        # the two states' separation does not depend on the sign of the pull;
        # it read 487.68 and -44.54 deg at -sample_c's shift before
        sep = phase_separation(-two_chi, kappa_ext, kappa_int)
        assert sep.hex() == phase_separation(two_chi, kappa_ext, kappa_int).hex()
        assert 0.0 <= sep <= 360.0

    @settings(max_examples=300, deadline=None)
    @given(two_chi=st.floats(0.5 * 1.37e6, 2.0 * 1.37e6),
           kappa_ext=st.floats(0.5 * 0.90e6, 2.0 * 0.90e6),
           ratio=st.floats(0.2, 5.0))  # kappa_int / kappa_ext: both couplings
    @example(two_chi=1.37e6, kappa_ext=0.90e6, ratio=0.38 / 0.90)  # over-coupled
    @example(two_chi=1.37e6, kappa_ext=0.38e6, ratio=0.90 / 0.38)  # under-coupled
    def test_matches_numpy_angle_within_two_ulp(self, two_chi, kappa_ext, ratio):
        # the formula before the angle came from cmath.phase (libm atan2):
        # numpy's angle, on the continuous branch. The two angles can differ
        # by one ulp, which the doubled degrees carry into at most 2 ulp of
        # the principal gap or, when larger, of the separation
        kappa_int = ratio * kappa_ext
        s_plus = reflection_coefficient(two_chi / 2.0, 0.0, kappa_ext, kappa_int)
        gap = 2.0 * math.degrees(np.angle(s_plus))
        reference = 360.0 - gap if kappa_ext > kappa_int else gap
        assert abs(phase_separation(two_chi, kappa_ext, kappa_int) - reference) \
            <= 2 * math.ulp(max(reference, gap))


class TestSimulateShots:
    def test_deterministic(self):
        a = simulate_shots(SAMPLE_C, 1, 5000, 3)
        b = simulate_shots(SAMPLE_C, 1, 5000, 3)
        assert np.array_equal(a.values, b.values)

    def test_prefix_stable(self):
        short = simulate_shots(SAMPLE_C, 0, 1000, 3)
        long = simulate_shots(SAMPLE_C, 0, 4000, 3)
        assert np.array_equal(short.values, long.values[:1000])

    def test_states_use_distinct_streams(self):
        s0 = simulate_shots(SAMPLE_C, 0, 1000, 3)
        s1 = simulate_shots(SAMPLE_C, 1, 1000, 3)
        assert not np.array_equal(s0.values, s1.values)

    def test_no_decay_limit_centers_on_excited_pointer(self):
        p = SAMPLE_C._replace(t1=1e6)  # effectively infinite
        n = 200000
        shots = simulate_shots(p, 1, n, 11)
        _, m1 = pointer_means(p)
        sigma = shots.values.std()
        assert abs(shots.values.mean() - m1) < 5 * sigma / math.sqrt(n)

    def test_heavy_decay_matches_quadrature_oracle(self):
        # tau >> t1: oracle CDF integrates the exponential decay-time density
        p = SAMPLE_C._replace(tau=3 * SAMPLE_C.t1)
        m0, m1 = pointer_means(p)
        sigma = p.noise_scale / math.sqrt(p.kappa_ext * p.tau)
        n = 100000
        values = simulate_shots(p, 1, n, 5).values

        def cdf(x):
            survive = math.exp(-p.tau / p.t1) * ndtr((x - m1) / sigma)

            def integrand(t):
                mean = (t * m1 + (p.tau - t) * m0) / p.tau
                return math.exp(-t / p.t1) / p.t1 * ndtr((x - mean) / sigma)

            decayed, _ = quad(integrand, 0.0, p.tau, limit=200)
            return survive + decayed

        for x in np.linspace(m0 - sigma, m1 + sigma, 7):
            empirical = np.mean(values <= x)
            assert empirical == pytest.approx(cdf(x), abs=5 / math.sqrt(n))

    def test_survival_mass_near_excited_pointer(self):
        # shots surviving the full window (weight exp(-tau/t1)) sit at m1;
        # late partial decays bleed slightly below, hence the one-sided slack
        p = SAMPLE_C._replace(tau=3 * SAMPLE_C.t1)
        m0, m1 = pointer_means(p)
        sigma = p.noise_scale / math.sqrt(p.kappa_ext * p.tau)
        values = simulate_shots(p, 1, 100000, 5).values
        near_m1 = np.mean(values >= m1 - 3 * sigma)
        survived = math.exp(-3.0)
        assert survived - 0.01 <= near_m1 <= survived + 0.03

    def test_thermal_population_knob(self):
        p = SAMPLE_C._replace(thermal_pop=0.25, t1=1e6)
        m0, m1 = pointer_means(p)
        values = simulate_shots(p, 0, 100000, 7).values
        hot = np.mean(values > 0.0)
        assert hot == pytest.approx(0.25, abs=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            simulate_shots(SAMPLE_C, 2, 100, 0)
        with pytest.raises(ParameterError):
            simulate_shots(SAMPLE_C, 0, 0, 0)
        with pytest.raises(ParameterError, match=r"n_shots must lie in \[1, 2\*\*64\]"):
            simulate_shots(SAMPLE_C, 0, 2**64 + 1, 0)  # past the last counter
        for n_shots in (1000.0, True):  # a float or bool is not a shot count
            with pytest.raises(ParameterError, match=r"n_shots .* integer, got "):
                simulate_shots(SAMPLE_C, 0, n_shots, 1)
        with pytest.raises(ParameterError, match=r"n_shots .* integer, got 2\.5"):
            error_vs_integration(SAMPLE_C, [1e-6], 2.5, 1)

    @pytest.mark.parametrize("state", [True, 1.0, 2])
    def test_prepared_state_must_be_integer_0_or_1(self, state):
        # True would write "prepared_state=True", which the CSV import rejects
        with pytest.raises(ParameterError, match=r"prepared must be 0 or 1"):
            simulate_shots(SAMPLE_C, state, 100, 0)
        with pytest.raises(ParameterError, match=r"prepared_state must be 0 or 1"):
            _as_shotset([0.5], prepared=state)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_out_of_range_rejected(self, seed):
        # masking would alias these to the shots of seed 0 and 2**64 - 1
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            simulate_shots(SAMPLE_C, 0, 100, seed)


def _one_draw_shots(p, prepared, n, seed):
    """The shot formula of simulate_shots on one draw of all n counters."""
    m0, m1 = pointer_means(p)
    sigma = p.noise_scale / math.sqrt(p.kappa_ext * p.tau)
    u = rng.uniforms(seed, prepared, 0, n)
    excited = np.ones(n, dtype=bool) if prepared == 1 else u[:, 2] < p.thermal_pop
    base = np.full(n, m0)
    t_decay = -p.t1 * np.log(u[:, 1][excited])
    weight = np.minimum(t_decay / p.tau, 1.0)
    base[excited] = weight * m1 + (1.0 - weight) * m0
    return base + ndtri(u[:, 0]) * sigma


class TestShotChunks:
    """simulate_shots draws its counters in chunks; the shots are those of
    one draw of every counter."""

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    @pytest.mark.parametrize("thermal_pop", [0.0, 0.07])
    @pytest.mark.parametrize("prepared", [0, 1])
    @pytest.mark.parametrize("n", [_SHOT_CHUNK - 1, _SHOT_CHUNK, _SHOT_CHUNK + 1,
                                   3 * _SHOT_CHUNK + 7])
    def test_chunks_match_one_draw(self, n, prepared, thermal_pop, seed):
        p = SAMPLE_C._replace(thermal_pop=thermal_pop)
        values = simulate_shots(p, prepared, n, seed).values
        assert values.tobytes() == _one_draw_shots(p, prepared, n, seed).tobytes()

    # sha256 of the values of 3 chunks and 7 shots, recorded from the code
    # that drew all counters at once
    @pytest.mark.parametrize("prepared, digest", [
        (0, "5efaec12864db54f425d5e0e9dc55e5d9c51985e972789d9a5558df4527dea74"),
        (1, "0c3d35fe280fa03aa67ab4e53a16e4c7108ee37d533fdca3bec1a564c63b5757"),
    ])
    def test_multi_chunk_digest(self, prepared, digest):
        p = SAMPLE_C._replace(thermal_pop=0.07)
        values = simulate_shots(p, prepared, 3 * 65536 + 7, 2**63 + 5).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_simulate_peak_memory_in_chunks(self):
        # the values (8 bytes a shot) and the temporaries of about two chunks,
        # whatever the shot count; one draw of every counter would hold 81
        # bytes a shot. Excited shots all decay, the most temporaries
        n = 10**6
        simulate_shots(SAMPLE_C, 1, 10, 0)  # scipy.special is loaded, not traced
        tracemalloc.start()
        try:
            simulate_shots(SAMPLE_C, 1, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 10 * 2**20, f"{peak / n:.1f} bytes per shot"


class TestShotCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        shots = simulate_shots(SAMPLE_C, 1, 2000, 9)
        path = tmp_path / "shots.csv"
        export_shots_csv(shots, path)
        loaded = import_shots_csv(path)
        assert loaded.prepared_state == 1
        assert loaded.seed == 9
        assert loaded.params == SAMPLE_C
        assert np.array_equal(loaded.values, shots.values)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# prepared_state=1\nvalue\n0.5\n")
        with pytest.raises(ParameterError):
            import_shots_csv(path)

    @staticmethod
    def _record(tmp_path, edit) -> Path:
        """A 3-value export of SAMPLE_C with its text passed through ``edit``."""
        path = tmp_path / "rec.csv"
        export_shots_csv(_as_shotset([0.5, -0.25, 1.0], prepared=1, seed=7), path)
        path.write_text(edit(path.read_text()))
        return path

    def test_header_fields_with_defaults_may_be_left_out(self, tmp_path):
        path = self._record(tmp_path, lambda t: "".join(
            line for line in t.splitlines(keepends=True)
            if not line.startswith(("# noise_scale=", "# thermal_pop="))))
        assert "noise_scale" not in path.read_text()
        loaded = import_shots_csv(path)
        assert loaded.params == ReadoutParams(**{
            **SAMPLE_C._asdict(), "noise_scale": 2.05, "thermal_pop": 0.0})
        assert (loaded.prepared_state, loaded.seed) == (1, 7)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("# omega_r=", "# not_omega_r="), "omega_r is missing"),
        (lambda t: t.replace("# seed=7\n", ""), "seed is missing"),
        (lambda t: re.sub(r"# tau=\S*", "# tau=abc", t), "cannot read tau='abc'"),
        (lambda t: t.replace("# prepared_state=1", "# prepared_state=1.0"),
         "cannot read prepared_state='1.0'"),
        (lambda t: t.replace("# prepared_state=1", "# prepared_state=2"),
         "prepared_state must be 0 or 1, got 2"),
        (lambda t: t.replace("# seed=7", "# seed=-5"),
         "seed must be an integer in [0, 2**64), got -5"),
    ], ids=["no-omega_r", "no-seed", "bad-tau", "float-state", "state-2", "negative-seed"])
    def test_header_names_the_key_it_cannot_read(self, tmp_path, edit, message):
        path = self._record(tmp_path, edit)
        with pytest.raises(ParameterError) as info:
            import_shots_csv(path)
        assert str(info.value) == f"malformed shot CSV header in {path}: {message}"

    @pytest.mark.parametrize("seed", [-5, 2**64, True, 7.0])
    def test_shot_set_takes_only_a_seed_a_simulation_takes(self, seed):
        message = f"seed must be an integer in [0, 2**64), got {seed!r}"
        for make in (lambda: _as_shotset([0.5], seed=seed),
                     lambda: simulate_shots(SAMPLE_C, 0, 10, seed)):
            with pytest.raises(ParameterError) as info:
                make()
            assert str(info.value) == message

    @pytest.mark.parametrize("values, message", [
        (np.zeros((2, 2)), "values must be 1-D, got shape (2, 2)"),
        (np.float64(0.5), "values must be 1-D, got shape ()"),
        (["0.5", "abc"], "values must be numbers"),
    ], ids=["2-d", "0-d", "non-numeric"])
    def test_shot_set_values_are_one_row_of_numbers(self, values, message):
        # a 2-D set exported lines that the import rejects, and a 0-d one
        # made the export raise IndexError
        with pytest.raises(ParameterError) as info:
            ShotSet(0, values, 1, SAMPLE_C)
        assert str(info.value) == message

    def test_shot_set_keeps_a_float64_row(self):
        values = np.array([0.5, -0.25])
        assert ShotSet(0, values, 1, SAMPLE_C).values is values
        assert ShotSet(0, [1, 2], 1, SAMPLE_C).values.dtype == np.float64

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_import_names_a_path_that_is_not_a_file(self, tmp_path, kind):
        path = tmp_path / "shots.csv"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ParameterError) as info:
            import_shots_csv(path)
        assert str(info.value) == f"shot file not found: {path}"

    # sha256 of the exported bytes, recorded from the per-value writer this
    # module used to carry
    def test_export_bytes_simulated(self, tmp_path):
        path = tmp_path / "shots.csv"
        export_shots_csv(simulate_shots(SAMPLE_C, 1, 1000, 2024), path)
        data = path.read_bytes()
        assert len(data) == 18609
        assert hashlib.sha256(data).hexdigest() == \
            "76c8841fb27b60f19c57488a10117c55d780ac8507e3a842a52caa627b453f08"

    def test_export_bytes_edge_values(self, tmp_path):
        params = SAMPLE_C._replace(readout_freq=7399315000.0, thermal_pop=0.0125)
        values = [-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-05, 1e16, 0.1, 1 / 3, -2.5,
                  123456789.0, 1e-300]
        path = tmp_path / "shots.csv"
        export_shots_csv(ShotSet(prepared_state=0, values=np.array(values),
                                 seed=2**64 - 1, params=params), path)
        text = path.read_text()
        assert text.endswith("\nvalue\n-0.0\n0.0\n5e-324\n1.7976931348623157e+308\n"
                             "-1.7976931348623157e+308\n1e-05\n1e+16\n0.1\n"
                             "0.3333333333333333\n-2.5\n123456789.0\n1e-300\n")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "0f704ce2038967e5670129098e6e8b57385a89225b9860d3de25431354a57af5"

    def test_export_integer_values_as_floats(self, tmp_path):
        path = tmp_path / "shots.csv"
        export_shots_csv(_as_shotset(np.array([3, -1])), path)
        assert path.read_text().endswith("\nvalue\n3.0\n-1.0\n")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    @example([-0.0, 5e-324, 1.7976931348623157e308, 1e-05, 1e16])
    def test_round_trip_any_finite_float(self, values):
        shots = _as_shotset(np.array(values, dtype=np.float64), prepared=1, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shots.csv"
            export_shots_csv(shots, path)
            loaded = import_shots_csv(path)
        assert loaded.values.dtype == np.float64
        assert loaded.values.tobytes() == shots.values.tobytes()  # keeps -0.0
        assert (loaded.prepared_state, loaded.seed, loaded.params) == (1, 3, SAMPLE_C)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t.replace("\n", "\r\n"), id="crlf"),
        pytest.param(lambda t: t.replace("\n", "\n\n").replace("value", "\n  value  "),
                     id="blank-lines"),
        pytest.param(lambda t: t.rstrip("\n"), id="no-trailing-newline"),
        pytest.param(lambda t: t.replace("value\n", ""), id="no-value-line"),
        pytest.param(lambda t: t.replace("# seed=7", "  #seed = 7 "), id="loose-header"),
        pytest.param(lambda t: t.replace("\n-1.5\n", "\n# note\n-1.5\n"), id="comment-line"),
        pytest.param(lambda t: t.replace("\n", "\r"), id="cr-only"),
    ])
    def test_compatible_layouts(self, tmp_path, edit):
        shots = _as_shotset([0.25, -1.5, 3e-07, 12.0], prepared=1, seed=7)
        path = tmp_path / "shots.csv"
        export_shots_csv(shots, path)
        assert "# readout_freq=\n" in path.read_text()  # None is written empty
        path.write_bytes(edit(path.read_text()).encode())
        loaded = import_shots_csv(path)
        assert loaded.params.readout_freq is None
        assert (loaded.prepared_state, loaded.seed) == (1, 7)
        assert np.array_equal(loaded.values, shots.values)

    def test_no_values(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_shots_csv(_as_shotset([]), path)
        loaded = import_shots_csv(path)
        assert loaded.values.shape == (0,) and loaded.values.dtype == np.float64

    @pytest.mark.parametrize("body", ["1.0 2.0\n", "1.0\n2.0 3.0\n", "1.0 2.0\n3.0 4.0\n"])
    def test_more_than_one_value_per_line_rejected(self, tmp_path, body):
        path = tmp_path / "two.csv"
        export_shots_csv(_as_shotset([]), path)
        path.write_text(path.read_text() + body)
        with pytest.raises(ParameterError, match="two.csv"):
            import_shots_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_value_names_file_and_line(self, tmp_path, newline):
        path = tmp_path / "bad.csv"
        export_shots_csv(_as_shotset([0.5, 1.5, 2.5]), path)
        lines = path.read_text().splitlines()
        bad_line = lines.index("1.5") + 1  # 1-based
        # float() reads "1_0" and full-width digits, np.loadtxt does not
        for bad in ("abc", "1_0", "\uff11\uff12"):
            lines[bad_line - 1] = bad
            path.write_bytes(newline.join(lines).encode())
            with pytest.raises(ParameterError) as info:
                import_shots_csv(path)
            assert str(path) in str(info.value)
            assert f"line {bad_line}: {bad!r} is not a number" in str(info.value)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("first", ["value", "byte"])
    def test_earlier_of_two_faults_named(self, tmp_path, newline, first):
        # both faults lie past the 8 KiB that the header read decodes, so
        # np.loadtxt meets them; its decoder reads ahead of the parse, so the
        # fault it raises on can be the later one
        _assert_earlier_fault_named(tmp_path / "two.csv", newline, first,
                                    n_shots=3000, after_title=1490, gap=10)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("first", ["value", "byte"])
    def test_earlier_of_two_faults_named_in_header_read(self, tmp_path, newline, first):
        # a 20-value file: the header read decodes the whole file, faults
        # included, before the first value is parsed
        _assert_earlier_fault_named(tmp_path / "short.csv", newline, first,
                                    n_shots=20, after_title=3, gap=3)


def _assert_earlier_fault_named(path, newline, first, n_shots, after_title, gap):
    """Put a bad value and a bad byte ``gap`` lines apart in a shot file,
    ``first`` of them ``after_title`` lines after the ``value`` title, and
    check that the import names the earlier one."""
    export_shots_csv(simulate_shots(SAMPLE_C, 0, n_shots, 3), path)
    lines = path.read_bytes().splitlines()
    at = lines.index(b"value") + after_title  # index of the earlier fault's line
    faults = {"value": b"abc", "byte": b"\xff1.5"}
    lines[at] = faults[first]
    lines[at + gap] = faults["byte" if first == "value" else "value"]
    data = newline.encode().join(lines) + newline.encode()
    path.write_bytes(data)
    with pytest.raises(ParameterError) as info:
        import_shots_csv(path)
    if first == "value":
        assert str(info.value) == (
            f"malformed shot CSV {path}, line {at + 1}: 'abc' is not a number")
    else:
        offset = data.index(faults["byte"])
        assert str(info.value) == (
            f"malformed shot CSV {path}: 'utf-8' codec can't decode byte 0xff on "
            f"line {at + 1}, at file offset {offset}: invalid start byte")


class TestFit:
    def test_recovers_pure_gaussians(self):
        n = 30000
        s0 = _as_shotset(_gaussian_shots(1, 0, n, -2.0, 1.0))
        s1 = _as_shotset(_gaussian_shots(1, 1, n, 3.0, 1.4), prepared=1)
        fit = fit_double_gaussian(s0, s1)
        assert fit.mu0 == pytest.approx(-2.0, rel=0.02)
        assert fit.mu1 == pytest.approx(3.0, rel=0.02)
        assert fit.sigma0 == pytest.approx(1.0, rel=0.02)
        assert fit.sigma1 == pytest.approx(1.4, rel=0.02)
        assert fit.a0 > 0.99 and fit.a1 > 0.99
        assert fit.residual_norm >= 0.0

    def test_recovers_mixture_weights(self):
        n = 80000
        s0 = _as_shotset(_mixture_shots(2, 0, n, 0.96, 1.0, 0.9, 5.0, 1.1))
        s1 = _as_shotset(_mixture_shots(2, 1, n, 0.93, 5.0, 1.1, 1.0, 0.9),
                         prepared=1)
        fit = fit_double_gaussian(s0, s1)
        assert fit.a0 == pytest.approx(0.96, abs=0.01)
        assert fit.a1 == pytest.approx(0.93, abs=0.01)

    def test_identical_distributions_collapse(self):
        values = _gaussian_shots(3, 0, 20000, 0.0, 1.0)
        with pytest.raises(DegenerateMixtureError):
            fit_double_gaussian(_as_shotset(values), _as_shotset(values, prepared=1))

    def test_too_few_shots_degenerate(self):
        with pytest.raises(DegenerateMixtureError):
            fit_double_gaussian(_as_shotset([0.1]), _as_shotset([1.2], prepared=1))

    @pytest.mark.parametrize("values0, values1", [
        ([1.5] * 10, [1.5] * 10),                # constant: no width to start from
        ([1e-151, -1e-151] * 5, [2e-151] * 10),  # spread below the width floor
        ([1e154, -1e154] * 5, [1e154] * 10),     # spread overflows
        ([math.inf, 0.0] * 5, [1.0] * 10),       # overflowed shot
    ])
    def test_unstartable_fit_is_numerical_error(self, values0, values1):
        with pytest.raises(NumericalError, match="mixture fit cannot start"):
            fit_double_gaussian(_as_shotset(values0), _as_shotset(values1, prepared=1))

    def test_device_like_decay_weights(self):
        s0 = simulate_shots(SAMPLE_C, 0, 50000, 4)
        s1 = simulate_shots(SAMPLE_C, 1, 50000, 4)
        fit = fit_double_gaussian(s0, s1)
        assert fit.a0 > 0.99           # ground shots stay put
        assert fit.a1 < fit.a0          # decay bleeds weight out of state 1
        assert fit.a1 == pytest.approx(0.97, abs=0.02)


class TestThreshold:
    def test_equal_widths_midpoint_exact(self):
        fit = GaussianMixtureFit(mu0=-1.3, mu1=2.7, sigma0=0.8, sigma1=0.8,
                                 a0=0.98, a1=0.97, residual_norm=0.0)
        assert threshold(fit) == pytest.approx(0.7, rel=1e-9)

    def test_known_quadratic_root(self):
        fit = GaussianMixtureFit(mu0=0.0, mu1=4.0, sigma0=1.0, sigma1=2.0,
                                 a0=0.98, a1=0.97, residual_norm=0.0)
        assert threshold(fit) == pytest.approx(1.6599096559016369, rel=1e-12)

    def test_scale_covariance(self):
        base = GaussianMixtureFit(mu0=0.0, mu1=4.0, sigma0=1.0, sigma1=2.0,
                                  a0=0.98, a1=0.97, residual_norm=0.0)
        k = 3.7
        scaled = GaussianMixtureFit(mu0=0.0, mu1=4.0 * k, sigma0=k, sigma1=2.0 * k,
                                    a0=0.98, a1=0.97, residual_norm=0.0)
        assert threshold(scaled) == pytest.approx(k * threshold(base), rel=1e-12)

    def test_no_intersection_between_means(self):
        fit = GaussianMixtureFit(mu0=0.0, mu1=0.5, sigma0=1.0, sigma1=3.0,
                                 a0=0.98, a1=0.97, residual_norm=0.0)
        with pytest.raises(ThresholdError):
            threshold(fit)

    def test_equal_means_rejected(self):
        fit = GaussianMixtureFit(mu0=1.0, mu1=1.0, sigma0=1.0, sigma1=2.0,
                                 a0=0.98, a1=0.97, residual_norm=0.0)
        with pytest.raises(ThresholdError):
            threshold(fit)


class TestFidelityReport:
    def test_well_separated_is_nearly_perfect(self):
        n = 50000
        s0 = _as_shotset(_gaussian_shots(6, 0, n, 0.0, 1.0))
        s1 = _as_shotset(_gaussian_shots(6, 1, n, 10.0, 1.0), prepared=1)
        fit = fit_double_gaussian(s0, s1)
        rep = fidelity_report(s0, s1, fit, threshold(fit))
        assert rep.p01 == 0.0 and rep.p10 == 0.0
        assert rep.fidelity >= 0.9999
        assert rep.eps_id < 1e-5

    def test_fidelity_identity_exact(self):
        s0 = simulate_shots(SAMPLE_C, 0, 20000, 8)
        s1 = simulate_shots(SAMPLE_C, 1, 20000, 8)
        fit = fit_double_gaussian(s0, s1)
        rep = fidelity_report(s0, s1, fit, threshold(fit))
        assert rep.fidelity == 1.0 - (rep.p01 + rep.p10) / 2.0
        assert 0.0 <= rep.p01 <= 1.0 and 0.0 <= rep.p10 <= 1.0
        assert rep.eps_01 >= 0.0 and rep.eps_10 >= 0.0

    def test_translation_invariance(self):
        s0 = simulate_shots(SAMPLE_C, 0, 20000, 8)
        s1 = simulate_shots(SAMPLE_C, 1, 20000, 8)
        fit = fit_double_gaussian(s0, s1)
        thr = threshold(fit)
        rep = fidelity_report(s0, s1, fit, thr)

        shift = 17.3
        s0t = s0._replace(values=s0.values + shift)
        s1t = s1._replace(values=s1.values + shift)
        fit_t = fit_double_gaussian(s0t, s1t)
        thr_t = threshold(fit_t)
        assert thr_t - thr == pytest.approx(shift, abs=1e-6)
        rep_t = fidelity_report(s0t, s1t, fit_t, thr_t)
        assert abs(rep_t.fidelity - rep.fidelity) <= 1e-4

    def test_overlap_error_tracks_empirical_total(self):
        s0 = simulate_shots(SAMPLE_C, 0, 50000, 12)
        s1 = simulate_shots(SAMPLE_C, 1, 50000, 12)
        fit = fit_double_gaussian(s0, s1)
        rep = fidelity_report(s0, s1, fit, threshold(fit))
        assert rep.eps_id <= rep.p01 + rep.p10 + 0.01


class TestErrorVsIntegration:
    TAUS = [0.2e-6, 0.6e-6, 1.0e-6, 1.4e-6, 1.8e-6, 2.4e-6, 3.0e-6]

    def test_deterministic(self):
        rows1 = error_vs_integration(SAMPLE_C, self.TAUS, 5000, 21)
        rows2 = error_vs_integration(SAMPLE_C, self.TAUS, 5000, 21)
        assert rows1 == rows2

    def test_error_crossover(self):
        rows = error_vs_integration(SAMPLE_C, self.TAUS, 30000, 21)
        eps_id = [r.eps_id for r in rows]
        assert all(hi > lo for hi, lo in zip(eps_id, eps_id[1:]))
        # decay error dominates at long integration, overlap error early
        assert rows[0].eps_id > rows[0].eps_01
        assert rows[-1].eps_01 > rows[-1].eps_id

    def test_single_shot_flagged_degenerate(self):
        rows = error_vs_integration(SAMPLE_C, [1.8e-6], 1, 0)
        assert len(rows) == 1
        assert rows[0].degenerate
        assert math.isnan(rows[0].eps_id)


class TestForkedShotCsv:
    """Large shot files are written and read by two processes on a
    single-threaded process: the bytes, values and messages must be those of
    the serial code. One fresh interpreter with BLAS on one thread runs every
    case, so the real thread guard decides whether to fork."""

    SCRIPT = textwrap.dedent("""
        import json, math, os, signal, sys, warnings
        import numpy as np
        from quantromon import readout
        from quantromon.errors import ParameterError
        from quantromon.params import ReadoutParams
        from quantromon.readout import ShotSet, export_shots_csv, import_shots_csv

        warnings.simplefilter("error")
        tmp = sys.argv[1]
        params = ReadoutParams(**json.loads(sys.argv[2]))
        parent = os.getpid()
        forks = []
        real_fork, real_can_fork = os.fork, readout._can_fork
        real_lines, real_parse = readout._lines, readout._parse_lines
        min_values, min_bytes = readout._FORK_MIN_VALUES, readout._FORK_MIN_BYTES

        def counting_fork():
            forks.append(1)
            return real_fork()

        os.fork = counting_fork

        def call(fn, *args, fork=True):
            # (result or ParameterError text, forks made) of fn(*args)
            readout._can_fork = real_can_fork if fork else (lambda: False)
            before = len(forks)
            try:
                out = fn(*args)
            except ParameterError as exc:
                out = "error: " + str(exc)
            finally:
                readout._can_fork = real_can_fork
            return out, len(forks) - before

        def export(values, name):
            path = os.path.join(tmp, name)
            export_shots_csv(ShotSet(0, np.asarray(values, dtype=float), 1, params), path)
            with open(path, "rb") as f:
                return f.read()

        def values_of(out):
            return out if isinstance(out, str) else out.values.tobytes().hex()

        def compare(case, data):
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as f:
                f.write(data)
            forked, n_forks = call(lambda: values_of(import_shots_csv(path)))
            serial, _ = call(lambda: values_of(import_shots_csv(path)), fork=False)
            return {"case": case, "forks": n_forks, "same": forked == serial,
                    "message": serial if serial.startswith("error") else None}

        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308]
        result = {"export": [], "import": [], "failed_child": [], "bad_value": []}

        for n in (min_values - 1, min_values, min_values + 1, 2 * min_values + 1):
            values = np.random.default_rng(n).standard_normal(n)
            for at in (0, n // 2 - 5, n - len(special)):
                values[at:at + len(special)] = special
            forked, n_forks = call(export, values, "forked.csv")
            serial, _ = call(export, values, "serial.csv", fork=False)
            loop = "".join(repr(v) + "\\n" for v in values.tolist()).encode()
            result["export"].append({"n": n, "forks": n_forks, "same": forked == serial,
                                     "loop": forked.endswith(b"value\\n" + loop)})

        header = export([], "header.csv").decode()
        lines = [repr(v) for v in np.random.default_rng(7).standard_normal(40).tolist()]
        readout._FORK_MIN_BYTES = 0
        for newline in ("\\n", "\\r\\n"):
            for name, feature in [("comment", ["# note"]), ("blank", ["", ""]),
                                  ("mixed", ["", "  # a  ", "", "#b"])]:
                for at in range(14, 27):
                    body = "\\n".join(lines[:at] + feature + lines[at:]) + "\\n"
                    text = (header + body).replace("\\n", newline)
                    result["import"].append(
                        compare(f"{name} {newline!r} {at}", text.encode()))
        for case, body in [("comments after the middle", lines + ["# c"] * 80),
                           ("cr-only", lines)]:
            text = header + "\\n".join(body) + "\\n"
            if case == "cr-only":
                text = text.replace("\\n", "\\r")
            result["import"].append(compare(case, text.encode()))

        def failing(real, how):
            def part(*args):
                if os.getpid() != parent:
                    if how == "raise":
                        raise RuntimeError("the child fails")
                    if how == "signal":
                        os.kill(os.getpid(), signal.SIGKILL)
                    os._exit({"exit 0, nothing sent": 0, "exit 3": 3}[how])
                return real(*args)
            return part

        readout._FORK_MIN_VALUES = 1
        values = np.random.default_rng(9).standard_normal(3001)
        serial_text, _ = call(export, values, "serial.csv", fork=False)
        for how in ("raise", "signal", "exit 0, nothing sent", "exit 3"):
            readout._lines = failing(real_lines, how)
            forked_text, n_forks = call(export, values, "forked.csv")
            readout._lines = real_lines
            result["failed_child"].append({"case": "export " + how, "forks": n_forks,
                                           "same": forked_text == serial_text})
            readout._parse_lines = failing(real_parse, how)
            record = compare("import " + how, serial_text)
            readout._parse_lines = real_parse
            result["failed_child"].append(record)

        # 800 lines, so the bad ones lie past the 8 KiB that the header read decodes
        # a process that ignores SIGCHLD has its children reaped for it, so
        # their status is unknown and the work is redone here
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        forked_text, n_forks = call(export, values, "forked.csv")
        record = compare("import, SIGCHLD ignored", serial_text)
        signal.signal(signal.SIGCHLD, previous)
        result["failed_child"].append({"case": "export, SIGCHLD ignored", "forks": n_forks,
                                       "same": forked_text == serial_text})
        result["failed_child"].append(record)

        good = [f"{v!r}\\n" for v in values.tolist()]
        first = header.count("\\n") + 1  # line number of the first value
        for case, lines, at, bad in [
                ("abc", 800, 600, "abc\\n"), ("two columns", 800, 650, "1.0 2.0\\n"),
                ("underscore", 800, 700, "1_0\\n"), ("not utf-8", 800, 750, "\\udcff1.5\\n"),
                # in the parent's half, which fails while the child still parses;
                # with 2400 lines the byte too lies past the header read's 8 KiB
                ("abc, first half", 2400, 600, "abc\\n"),
                ("not utf-8, first half", 2400, 600, "\\udcff1.5\\n")]:
            body = good[:at] + [bad] + good[at + 1:lines]
            data = (header + "".join(body)).encode("utf-8", "surrogateescape")
            record = compare(case, data)
            record.update(line=first + at, offset=data.find(b"\\xff"))
            result["bad_value"].append(record)
        result["bad_value"].append(compare(
            "all two columns", (header + "1.0 2.0\\n" * 800).encode()))

        readout._FORK_MIN_BYTES = min_bytes
        for size in (min_bytes - 1, min_bytes):
            pad = size - 4 * (size // 4)
            body = "0.5\\n" * (size // 4 - 1) + "#" + "x" * (pad + 2) + "\\n"
            result["import"].append(compare(f"{size} bytes", (header + body).encode()))

        try:
            os.waitpid(-1, os.WNOHANG)
            result["children_left"] = True
        except ChildProcessError:
            result["children_left"] = False
        result["min_bytes"] = min_bytes
        print(json.dumps(result))
    """)

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.SCRIPT,
             str(tmp_path_factory.mktemp("forked")),
             json.dumps(SAMPLE_C._asdict())],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        # neither a child nor the parent printed a warning or a traceback
        assert done.stderr == ""
        return json.loads(done.stdout)

    def test_export_bytes_match_serial_around_threshold(self, result):
        # nan, +-inf, -0.0 and subnormals at both ends and beside the middle
        assert [r["forks"] for r in result["export"]] == [0, 1, 1, 1]
        assert all(r["same"] and r["loop"] for r in result["export"]), result["export"]

    def test_import_matches_serial_wherever_the_middle_falls(self, result):
        cases = {r["case"]: r for r in result["import"]}
        assert all(r["same"] for r in result["import"]), result["import"]
        # the second half of the comments case holds no value, so it falls back
        assert all(r["forks"] == 1 for case, r in cases.items()
                   if case not in ("cr-only", f"{result['min_bytes'] - 1} bytes"))
        # no LF after the middle: nothing to split at
        assert cases["cr-only"]["forks"] == 0
        assert cases[f"{result['min_bytes'] - 1} bytes"]["forks"] == 0

    def test_failed_child_gives_serial_bytes_and_values(self, result):
        assert len(result["failed_child"]) == 10
        assert all(r["forks"] == 1 and r["same"] for r in result["failed_child"]), \
            result["failed_child"]

    def test_bad_value_in_second_half_gives_serial_message(self, result):
        cases = {r["case"]: r for r in result["bad_value"]}
        assert all(r["forks"] == 1 and r["same"] and r["message"] for r in cases.values())
        abc = cases["abc"]
        assert f", line {abc['line']}: 'abc' is not a number" in abc["message"]
        assert f", line {cases['two columns']['line']}: '1.0 2.0'" in \
            cases["two columns"]["message"]
        undecodable = cases["not utf-8"]
        assert (f"byte 0xff on line {undecodable['line']}, at file offset "
                f"{undecodable['offset']}: invalid start byte") in undecodable["message"]
        assert "found 2 columns" in cases["all two columns"]["message"]

    def test_bad_value_in_first_half_gives_serial_message(self, result):
        cases = {r["case"]: r for r in result["bad_value"]}
        abc, undecodable = cases["abc, first half"], cases["not utf-8, first half"]
        assert all(r["forks"] == 1 and r["same"] for r in (abc, undecodable))
        assert f", line {abc['line']}: 'abc' is not a number" in abc["message"]
        assert (f"byte 0xff on line {undecodable['line']}, at file offset "
                f"{undecodable['offset']}: invalid start byte") in undecodable["message"]

    def test_no_child_left_running(self, result):
        assert result["children_left"] is False

    def test_unflushed_stdout_written_once(self, tmp_path):
        # the children of a forked export and import end without flushing
        # the buffer they inherit, so text the caller has not flushed yet
        # reaches stdout once
        script = textwrap.dedent("""
            import json, os, sys
            import numpy as np
            from quantromon.params import ReadoutParams
            from quantromon.readout import ShotSet, export_shots_csv, import_shots_csv

            forks = []
            real_fork = os.fork

            def counting_fork():
                forks.append(1)
                return real_fork()

            os.fork = counting_fork
            sys.stdout.write("marker\\n")  # stdout is a pipe: this stays buffered
            path = os.path.join(sys.argv[1], "shots.csv")
            values = np.random.default_rng(3).standard_normal(300000)
            export_shots_csv(ShotSet(0, values, 1, ReadoutParams(**json.loads(sys.argv[2]))),
                             path)
            same = import_shots_csv(path).values.tobytes() == values.tobytes()
            print(json.dumps({"forks": len(forks), "same": same}))
        """)
        # unbuffered, the marker would be written before any fork
        env = _subprocess_env(OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, str(tmp_path),
             json.dumps(SAMPLE_C._asdict())],
            env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout.count("marker") == 1, done.stdout
        assert json.loads(done.stdout.splitlines()[-1]) == {"forks": 2, "same": True}

    def test_failing_here_kills_the_child(self):
        # a fault in this process's half is raised at once: the child's half,
        # here a 30 s sleep, is not waited for, and the child is reaped. With
        # SIGCHLD ignored, a child that ended first is already gone, and the
        # fault is still the error raised
        script = textwrap.dedent("""
            import json, os, signal, time
            from quantromon.readout import _beside_child

            def failing_after(seconds):
                def here():
                    time.sleep(seconds)
                    raise ValueError("this half fails")
                return here

            def sleeping(seconds):
                def there():
                    time.sleep(seconds)
                    return b""
                return there

            result = {}
            for case, here, there in [("child sleeps", failing_after(0), sleeping(30)),
                                      ("child done, SIGCHLD ignored",
                                       failing_after(0.5), sleeping(0))]:
                if case.endswith("ignored"):
                    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
                start = time.perf_counter()
                try:
                    _beside_child(here, there)
                    error = None
                except Exception as exc:
                    error = repr(exc)
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                try:
                    os.waitpid(-1, os.WNOHANG)
                    children_left = True
                except ChildProcessError:
                    children_left = False
                result[case] = {"error": error, "elapsed": time.perf_counter() - start,
                                "children_left": children_left}
            print(json.dumps(result))
        """)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        result = json.loads(done.stdout)
        for case in result.values():
            assert case["error"] == "ValueError('this half fails')"
            assert case["elapsed"] < 5.0
            assert case["children_left"] is False


class TestReadoutParamsValidation:
    def test_linewidths(self):
        with pytest.raises(ParameterError):
            SAMPLE_C._replace(kappa_ext=-1.0)
        with pytest.raises(ParameterError):
            SAMPLE_C._replace(kappa_ext=0.0, kappa_int=0.0)

    def test_positive_quantities(self):
        with pytest.raises(ParameterError):
            SAMPLE_C._replace(tau=0.0)
        with pytest.raises(ParameterError):
            SAMPLE_C._replace(nbar=-3.0)
        with pytest.raises(ParameterError):
            SAMPLE_C._replace(t1=0.0)
