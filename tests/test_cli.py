import csv
import errno
import gc
import hashlib
import importlib.resources
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import quantromon
from quantromon import cli, numeric, readout
from quantromon.analytic import SpectrumResult
from quantromon.cli import MAX_SHOTS, load_config, normalize_config, run
from quantromon.errors import ParameterError

CONFIG_DIR = importlib.resources.files("quantromon") / "configs"
SAMPLE_A = str(CONFIG_DIR / "sample_a.json")
SAMPLE_B = str(CONFIG_DIR / "sample_b.json")
SAMPLE_C = str(CONFIG_DIR / "sample_c.json")
REFERENCE = str(CONFIG_DIR / "reference_device.json")


# a regular file whose every read fails (EIO at address 0), in each process
UNREADABLE = "/proc/self/mem"
needs_unreadable = pytest.mark.skipif(not os.path.isfile(UNREADABLE),
                                      reason=f"{UNREADABLE} is not a regular file here")
UNREADABLE_RUNS = {
    "config": ["energies", "--config", UNREADABLE],
    "shot file": ["readout-fit", "--shots0", UNREADABLE, "--shots1", UNREADABLE],
}
# past the 255-byte limit of one name on common file systems (ENAMETOOLONG)
LONG_NAME = "x" * 300
# a regular file that exists but refuses a write (EIO as root, EACCES else)
UNWRITABLE = "/proc/version"


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    def test_bundled_configs_load(self):
        for path in (SAMPLE_A, SAMPLE_B, SAMPLE_C, REFERENCE):
            cfg = load_config(path)
            assert cfg.energies is not None

    @pytest.mark.parametrize("command", ["energies", "spectrum", "chi-sweep", "t1-model"])
    @pytest.mark.parametrize("path", [REFERENCE, SAMPLE_A, SAMPLE_B, SAMPLE_C],
                             ids=lambda path: Path(path).stem)
    def test_energies_derived_once_per_command(self, monkeypatch, capsys, path, command):
        # load_config derives the circuit's energies; the commands and the
        # flux pipeline take them from there, at every flux point
        derive = quantromon.params.derive_energies
        calls = []

        def counting(params):
            calls.append(params)
            return derive(params)

        for name, module in list(sys.modules.items()):
            if name.startswith("quantromon") and getattr(module, "derive_energies", None) is derive:
                monkeypatch.setattr(module, "derive_energies", counting)
        run([command, "--config", path])
        assert len(calls) == 1

    def test_unknown_section_rejected(self):
        with pytest.raises(ParameterError, match="mystery"):
            normalize_config({"mystery": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="circuit.l_x"):
            normalize_config({"circuit": {"l_x": 1.0}})

    def test_normalize_idempotent(self):
        raw = json.loads(Path(SAMPLE_A).read_text())
        once = normalize_config(raw)
        assert normalize_config(once) == once

    def test_missing_file(self):
        with pytest.raises(ParameterError, match="not found"):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("site", ["unknown section", "missing file", "bad JSON",
                                      "--trunc"])
    def test_every_input_fault_raises_parameter_error(self, tmp_path, site):
        # the one input-error type, not a subclass, wherever a config, its
        # file or a flag is at fault
        bad_json = tmp_path / "bad.json"
        bad_json.write_text('{"circuit": ')
        calls = {
            "unknown section": lambda: normalize_config({"mystery": {}}),
            "missing file": lambda: load_config(tmp_path / "none.json"),
            "bad JSON": lambda: load_config(bad_json),
            "--trunc": lambda: cli._parse_trunc("12y12"),
        }
        messages = {
            "unknown section": "unknown config section 'mystery'",
            "missing file": f"config file not found: {tmp_path / 'none.json'}",
            "bad JSON": f"config {bad_json} is not valid JSON: Expecting value",
            "--trunc": "--trunc must look like '12x12', got '12y12'",
        }
        with pytest.raises(ParameterError) as info:
            calls[site]()
        assert type(info.value) is ParameterError
        assert str(info.value).startswith(messages[site])

    def test_non_numeric_value_rejected(self, tmp_path):
        path = _write_config(tmp_path, {"circuit": {
            "l_j": "big", "c_j": 1e-15, "l_r": 1e-9, "c_r": 1e-13, "b": 0.4}})
        with pytest.raises(ParameterError, match="l_j"):
            load_config(path)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert run(["energies", "--config", REFERENCE]) == 0
        assert "e_j" in capsys.readouterr().out

    def test_validation_error_names_parameter(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"circuit": {
            "l_j": 8.2e-9, "c_j": 56.88e-15, "l_r": 0.546e-9,
            "c_r": 781.8e-15, "b": 1.2}})
        assert run(["energies", "--config", path]) == 1
        assert "b" in capsys.readouterr().err

    @pytest.mark.parametrize("config, section, key, value, command, message", [
        (SAMPLE_A, "circuit", "l_j", 10**400, "energies", "l_j must be > 0, got inf"),
        (SAMPLE_A, "circuit", "c_j", -10**400, "energies", "c_j must be > 0, got -inf"),
        (SAMPLE_A, "coherence", "kappa", 10**400, "t1-model",
         "kappa must be finite and > 0, got inf"),
        (SAMPLE_A, "flux", "area_ratio_a", 10**400, "chi-sweep",
         "area_ratio_a must lie in (0, 1) for tunable modes, got inf"),
        (SAMPLE_C, "readout", "omega_r", -10**400, "phase",
         "omega_r must be finite, got -inf"),
    ], ids=["l_j", "c_j", "kappa", "area_ratio_a", "omega_r"])
    def test_integer_past_the_float_range_reads_as_inf(self, tmp_path, capsys, config,
                                                        section, key, value, command, message):
        # read as json reads 1e400, so the record's own range check names the key
        cfg = json.loads(Path(config).read_text())
        cfg[section][key] = value
        assert run([command, "--config", _write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_q_diel_past_the_float_range_means_no_dielectric_loss(self, tmp_path, capsys):
        outputs = []
        for q_diel in (10**400, math.inf):
            cfg = json.loads(Path(SAMPLE_A).read_text())
            cfg["coherence"]["q_diel"] = q_diel
            assert run(["t1-model", "--config", _write_config(tmp_path, cfg)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert next(csv.DictReader(outputs[0].splitlines()))["t1_diel"] == "inf"

    def test_missing_config_flag(self, capsys):
        assert run(["energies"]) == 1

    def test_missing_section(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"coherence": {"q_diel": 1e6, "kappa": 1e6}})
        assert run(["spectrum", "--config", path]) == 1
        assert "circuit" in capsys.readouterr().err

    def test_malformed_trunc(self, capsys):
        # int() alone takes a "_" separator, a "+" sign, a space and full-width
        # digits, so each of the last four ran a 12x12 spectrum
        for spec in ("abc", "1_2x12", "+12x12", "12x 12", "\uff11\uff12x12"):
            assert run(["spectrum", "--config", REFERENCE, "--trunc", spec]) == 1, spec
            assert "--trunc" in capsys.readouterr().err

    def test_oversized_trunc_exits_1_before_building(self, monkeypatch, capsys):
        # a 1000x1000 basis would ask for hundreds of GB; the truncation is
        # rejected before any Hamiltonian is built
        def unreachable(*args):
            raise AssertionError("numeric_spectrum was called")

        monkeypatch.setattr(numeric, "numeric_spectrum", unreachable)
        assert run(["spectrum", "--config", REFERENCE, "--trunc", "1000x1000"]) == 1
        err = capsys.readouterr().err
        assert "truncation" in err and "(1000, 1000)" in err

    def test_missing_shot_file(self, capsys):
        assert run(["readout-fit", "--shots0", "/nope0.csv", "--shots1", "/nope1.csv"]) == 1

    @needs_unreadable
    @pytest.mark.parametrize("what", UNREADABLE_RUNS, ids=["config", "shot-file"])
    def test_unreadable_input_exits_1_on_one_line(self, capsys, what):
        assert run(UNREADABLE_RUNS[what]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {what} {UNREADABLE}: Input/output error\n"

    def test_unwritable_shot_file_exits_1_naming_it(self, tmp_path, capsys):
        # a directory where readout-sim writes its state-0 shot file
        blocked = tmp_path / "rep_shots0.csv"
        blocked.mkdir()
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "100",
                    "--out", str(tmp_path / "rep.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write shot file {blocked}: {os.strerror(errno.EISDIR)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep_shots0.csv"]

    @pytest.mark.parametrize("argv, method", [
        (["chi-sweep", "--config", SAMPLE_A], "write"),
        (["chi-sweep", "--config", SAMPLE_A], "flush"),
        # argparse ignores an OSError of its own help write; run's flush does not
        (["readout-fit", "--help"], "flush"),
    ], ids=["rows-write", "rows-flush", "help-flush"])
    def test_failed_stdout_exits_1_on_one_line(self, monkeypatch, capsys, argv, method):
        # a reader that closed its pipe: the write fails when stdout writes
        # through (PYTHONUNBUFFERED), the flush when it buffers
        def broken_pipe(*args):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        stdout = io.StringIO()
        monkeypatch.setattr(stdout, method, broken_pipe)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n")

    def test_bad_shot_value_names_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                    "--shots", "200", "--seed", "3"]) == 0
        shots1 = tmp_path / "rep_shots1.csv"
        lines = shots1.read_text().splitlines(keepends=True)
        lines[19] = "abc\n"
        shots1.write_text("".join(lines))
        capsys.readouterr()
        assert run(["readout-fit", "--shots0", str(tmp_path / "rep_shots0.csv"),
                    "--shots1", str(shots1)]) == 1
        err = capsys.readouterr().err
        assert f"{shots1}, line 20:" in err
        assert "'abc'" in err

    @pytest.mark.parametrize("line", [1, 1500])
    def test_undecodable_shot_file_exits_1_naming_it(self, tmp_path, capsys, line):
        # a byte that is not UTF-8 in the header (line 1, read line by line)
        # or past the first 8 KiB of values (line 1500, read by np.loadtxt)
        out = tmp_path / "rep.csv"
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                    "--shots", "2000", "--seed", "3"]) == 0
        shots1 = tmp_path / "rep_shots1.csv"
        lines = shots1.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        shots1.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert run(["readout-fit", "--shots0", str(tmp_path / "rep_shots0.csv"),
                    "--shots1", str(shots1)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed shot CSV {shots1}: 'utf-8' codec")
        # the line and the byte offset in the file, not in the decoder's chunk
        offset = shots1.read_bytes().index(b"\xff")
        assert captured.err.endswith(
            f"byte 0xff on line {line}, at file offset {offset}: invalid start byte\n")

    @pytest.mark.parametrize("argv", [["energies", "--config", SAMPLE_A],
                                      ["readout-sim", "--config", SAMPLE_C, "--shots", "100"]],
                             ids=["energies", "readout-sim"])
    def test_out_naming_a_directory_exits_1_before_writing(self, tmp_path, monkeypatch,
                                                           capsys, argv):
        # readout-sim would write its shot files next to --out, as
        # <parent>/<name>_shots0.csv, before the report failed to open
        def unreachable(*args):
            raise AssertionError("simulate_shots was called")

        monkeypatch.setattr(readout, "simulate_shots", unreachable)
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        assert run([*argv, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out names a directory, not a file: {out_dir}\n")
        assert list(tmp_path.iterdir()) == [out_dir]
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("argv", [["energies", "--config", SAMPLE_A],
                                      ["readout-sim", "--config", SAMPLE_C, "--shots", "100"]],
                             ids=["energies", "readout-sim"])
    @pytest.mark.parametrize("below", ["x.csv", os.path.join("sub", "x.csv")])
    def test_out_under_a_regular_file_exits_1_before_writing(self, tmp_path, monkeypatch,
                                                             capsys, argv, below):
        # the parent directory could not be made: a FileExistsError or
        # NotADirectoryError traceback once the work was done
        def unreachable(*args):
            raise AssertionError("simulate_shots was called")

        monkeypatch.setattr(readout, "simulate_shots", unreachable)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out lies under a file, not a directory: {out}\n")
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [["energies", "--config", SAMPLE_A],
                                      ["readout-sim", "--config", SAMPLE_C, "--shots", "100"]],
                             ids=["energies", "readout-sim"])
    def test_out_ending_in_a_separator_exits_1_before_writing(self, tmp_path, monkeypatch,
                                                              capsys, argv):
        # Path drops the trailing slash, so "results/" named a file "results"
        # (and readout-sim wrote results_shots0.csv beside it)
        def unreachable(*args):
            raise AssertionError("simulate_shots was called")

        monkeypatch.setattr(readout, "simulate_shots", unreachable)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--out", "results" + os.sep]) == 1
        assert capsys.readouterr().err == (
            f"error: --out names a directory, not a file: results{os.sep}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, config, message", [
        ("energies", [1], "config root must be a JSON object"),
        ("energies", {"circuit": [1]}, "section 'circuit' must be a JSON object"),
        ("energies", {"circuit": {"l_j": 8.2e-9}},
         "circuit section missing keys: ['b', 'c_j', 'c_r', 'l_r']"),
        ("chi-sweep", {"flux": {"e_j1_zero": None, "e_j2_zero": None}},
         "flux.e_j1_zero/e_j2_zero are null and no circuit section is present "
         "to derive them from"),
        ("readout-sim", {"readout_sim": {"tau_list": 1e-6}},
         "readout_sim.tau_list must be a list of numbers"),
        ("chi-sweep", {k: v for k, v in json.loads(Path(SAMPLE_A).read_text()).items()
                       if k != "sweep"},
         "command 'chi-sweep' requires sweep.n_list"),
        ("readout-fit", None, "command 'readout-fit' requires --shots0 and --shots1"),
    ], ids=["array-root", "array-section", "missing-keys", "null-flux-energies",
            "scalar-tau-list", "no-sweep", "one-shot-file"])
    def test_config_error_exits_1_with_one_line(self, tmp_path, capsys, command,
                                                config, message):
        argv = [command]
        if config is None:
            argv += ["--shots0", "x.csv"]
        else:
            argv += ["--config", _write_config(tmp_path, config)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_undecodable_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        assert run(["energies", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        # an integer past Python's 4300-digit limit, and nesting past the
        # recursion limit: one error line naming the file and the reason
        for text, reason in ((f'{{"circuit": {{"b": {"1" * 5000}}}}}', "4300 digits"),
                             ("[" * 100000, "recursion depth")):
            path.write_text(text)
            assert run(["energies", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: config {path} is not valid JSON: ")
            assert reason in captured.err and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["energies", "spectrum"])
    @pytest.mark.parametrize("key, value", [("c_j", 1e308), ("c_r", 1e308),
                                            ("l_j", 1e-300), ("l_r", 1e-300)])
    def test_extreme_element_exits_1_naming_key(self, tmp_path, capsys, command,
                                                key, value):
        cfg = json.loads(Path(REFERENCE).read_text())
        cfg["circuit"][key] = value
        path = _write_config(tmp_path, cfg)
        assert run([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} = ")

    def test_hamiltonian_overflow_exits_1_naming_elements(self, tmp_path, capsys):
        # l_j = 1e308 leaves E_JQ finite and > 0, but E_JQ/E_CQ underflows
        cfg = json.loads(Path(REFERENCE).read_text())
        cfg["circuit"]["l_j"] = 1e308
        path = _write_config(tmp_path, cfg)
        assert run(["spectrum", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Hamiltonian entries overflow: energy scales too large")
        assert "qubit mode: E_JQ/E_CQ = " in err and "circuit.l_j, circuit.c_j" in err

    def test_plain_value_error_propagates(self, monkeypatch):
        # only typed errors mean bad input; a bare ValueError is a program fault
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(numeric, "numeric_spectrum", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run(["spectrum", "--config", REFERENCE])

    def test_eigensolve_failure_exits_2_on_one_line(self, monkeypatch, capsys):
        def no_convergence(h):
            raise numeric.np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(numeric.np.linalg, "eigh", no_convergence)
        monkeypatch.setattr(numeric.np.linalg, "eigvalsh", no_convergence)
        assert run(["spectrum", "--config", REFERENCE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: eigh failed to converge on a ")
        assert lines[0].endswith(" matrix: Eigenvalues did not converge")

    def test_eigvalsh_failure_falls_back_to_eigh(self, monkeypatch, capsys):
        # a block whose eigenvalues alone fail is labeled from eigh instead
        def no_convergence(h):
            raise numeric.np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(numeric.np.linalg, "eigvalsh", no_convergence)
        assert run(["spectrum", "--config", REFERENCE]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        golden = (Path(__file__).parent / "golden" / "reference_device.spectrum.csv").read_text()
        rows, golden_rows = (list(csv.reader(io.StringIO(text)))
                             for text in (captured.out, golden))
        assert [row[0] for row in rows] == [row[0] for row in golden_rows]
        for row, golden_row in zip(rows[1:], golden_rows[1:]):
            assert float(row[2]) == pytest.approx(float(golden_row[2]), rel=1e-9)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # junction inductance tuned so the dressed modes are degenerate and
        # the asymmetric coupling hybridizes them: the read label (1, 1)
        # falls below the labeling floor
        path = _write_config(tmp_path, {"circuit": {
            "l_j": 7.394e-9, "c_j": 56.88e-15, "l_r": 0.546e-9,
            "c_r": 781.8e-15, "b": 0.405, "d_j": 0.3}})
        assert run(["spectrum", "--config", path]) == 2
        assert "failure" in capsys.readouterr().err

    @pytest.mark.parametrize("circuit, code", [
        # (1, 1) 0.841 bare; the unread (2, 1) label, 0.449, used to refuse it
        ({"l_j": 1.253e-08, "c_j": 7.02e-14, "l_r": 6.848e-10, "c_r": 1.62e-12,
          "b": 0.8318, "d_j": -0.2171}, 0),
        # (1, 1) and (2, 0) about 0.52 bare; (2, 1), 0.505, used to let it through
        ({"l_j": 1.638e-08, "c_j": 4.09e-14, "l_r": 8.858e-10, "c_r": 9.052e-13,
          "b": 0.7851, "d_j": 0.07819}, 2),
    ], ids=["labels", "refused"])
    def test_read_labels_decide_the_exit(self, tmp_path, capsys, circuit, code):
        path = _write_config(tmp_path, {"circuit": circuit})
        assert run(["spectrum", "--config", path]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.startswith("numerical failure: label (1, 1): best overlap 0.517")
            assert len(captured.err.splitlines()) == 1
        else:
            assert captured.err == ""
            assert captured.out.startswith("quantity,")


# the flags each command reads besides --out and --format, and a value each
# flag accepts
_COMMAND_FLAGS = {
    "energies": {"--config"},
    "spectrum": {"--config", "--trunc"},
    "chi-sweep": {"--config"},
    "t1-model": {"--config"},
    "readout-sim": {"--config", "--seed", "--shots"},
    "readout-fit": {"--shots0", "--shots1"},
    "phase": {"--config"},
}
_FLAG_VALUES = {"--config": SAMPLE_C, "--seed": "1", "--trunc": "8x8", "--shots": "100",
                "--shots0": "shots0.csv", "--shots1": "shots1.csv"}
# of the 56 (command, flag) pairs, the 31 that each command refuses
_REFUSED = [(command, flag) for command, flags in _COMMAND_FLAGS.items()
            for flag in sorted(_FLAG_VALUES.keys() - flags)]


@pytest.fixture(scope="module")
def shot_files(tmp_path_factory):
    """State-0 and state-1 shot CSVs of sample_c.json, 1000 shots each."""
    folder = tmp_path_factory.mktemp("shots")
    params = load_config(SAMPLE_C).readout
    paths = []
    for state in (0, 1):
        path = folder / f"shots{state}.csv"
        readout.export_shots_csv(readout.simulate_shots(params, state, 1000, 3), path)
        paths.append(str(path))
    return paths


class TestCommandFlags:
    """Each command takes --out, --format and only the flags it reads."""

    @pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        assert run([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert listed == _COMMAND_FLAGS[command] | {"--help", "--out", "--format"}

    @pytest.mark.parametrize("command, flag", _REFUSED, ids=[" ".join(p) for p in _REFUSED])
    def test_flag_not_read_exits_1_before_any_output(self, tmp_path, capsys, shot_files,
                                                     command, flag):
        # each of these ran the command without the flag, and readout-fit
        # loaded and range-checked a config it never read
        base = {"energies": ["--config", SAMPLE_A], "spectrum": ["--config", REFERENCE],
                "chi-sweep": ["--config", SAMPLE_A], "t1-model": ["--config", SAMPLE_A],
                "readout-sim": ["--config", SAMPLE_C, "--shots", "100"],
                "readout-fit": ["--shots0", shot_files[0], "--shots1", shot_files[1]],
                "phase": ["--config", SAMPLE_C]}[command]
        out = tmp_path / "res" / "table.csv"
        assert run([command, *base, "--out", str(out), flag, _FLAG_VALUES[flag]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
        assert list(tmp_path.iterdir()) == []


class TestSpectrumCommand:
    def test_reference_device_agreement(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", REFERENCE, "--out", str(out)]) == 0
        rows = {r["quantity"]: r for r in _read_csv(out)}
        assert float(rows["two_chi"]["rel_delta"]) < 0.10
        assert float(rows["omega_q_t"]["rel_delta"]) < 0.01

    def test_rows_are_the_spectrum_result_fields(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", REFERENCE, "--out", str(out)]) == 0
        assert [r["quantity"] for r in _read_csv(out)] == list(SpectrumResult._fields)

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(["spectrum", "--config", REFERENCE, "--format", "json",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {r["quantity"] for r in rows} >= {"two_chi", "alpha_q"}

    def test_energies_warnings_cell_matches_spectrum_warnings(self, tmp_path, capsys):
        # a soft linear inductor (e_lr/e_j = 0.41) and b = 1 break both
        # regime assumptions of the closed form
        cfg = json.loads(Path(REFERENCE).read_text())
        cfg["circuit"].update(l_r=2e-8, b=1.0)
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "energies.csv"
        assert run(["energies", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        cell = _read_csv(out)[0]["warnings"]
        assert cell == (
            "E_LR >> E_J regime violated (e_lr/e_j = 0.41); perturbative "
            "formulas unreliable | b = 1: constraint reduction assumes "
            "0 < b < 1; values taken from the b -> 1 limit")
        assert run(["spectrum", "--config", path,
                    "--out", str(tmp_path / "spectrum.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {message}" for message in cell.split(" | ")]

    def test_warning_lines_come_before_the_failure_line(self, tmp_path, capsys):
        # the closed form warns before the 4x4 truncation fails to label a state
        cfg = json.loads(Path(REFERENCE).read_text())
        cfg["circuit"]["l_r"] = 2e-8
        path = _write_config(tmp_path, cfg)
        assert run(["spectrum", "--config", path, "--trunc", "4x4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: E_LR >> E_J regime violated (e_lr/e_j = 0.41)")
        assert lines[1].startswith("numerical failure: label (")


class TestSweepCommands:
    @pytest.mark.parametrize("command", ["chi-sweep", "t1-model"])
    @pytest.mark.parametrize("e_j2", [-1e10, -2e10])
    def test_bad_junction_energy_exits_1(self, tmp_path, capsys, command, e_j2):
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["flux"] = {"mode": "fixed", "e_j1_zero": 1e10, "e_j2_zero": e_j2}
        path = _write_config(tmp_path, cfg)
        assert run([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "e_j2_zero" in captured.err

    @pytest.mark.parametrize("n", [1.5, "x", True])
    def test_non_integer_flux_n_exits_1(self, tmp_path, capsys, n):
        # no command reads flux.n, but configs carrying it are still checked
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["flux"]["n"] = n
        path = _write_config(tmp_path, cfg)
        assert run(["chi-sweep", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: flux.n must be an integer, got {n!r}\n"

    def test_bias_past_the_float_range_is_an_error_row(self, tmp_path):
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["sweep"]["n_list"] = [0, 10**400]
        out = tmp_path / "sweep.csv"
        assert run(["chi-sweep", "--config", _write_config(tmp_path, cfg),
                    "--out", str(out)]) == 0
        golden = (Path(__file__).parent / "golden" / "sample_a.chi-sweep.csv").read_text()
        lines = out.read_text().splitlines()
        assert lines[:2] == golden.splitlines()[:2]
        rows = _read_csv(out)
        assert rows[1]["n"] == str(10**400)
        assert rows[1]["error"] == (
            f"ParameterError: flux bias n must lie in [-2**53, 2**53], got {10**400}")

    @pytest.mark.parametrize("mode", ["two_squids", None, 1])
    def test_unknown_flux_mode_exits_1(self, tmp_path, capsys, mode):
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["flux"]["mode"] = mode
        assert run(["chi-sweep", "--config", _write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: flux.mode must be one of ['both_squids', "
                                f"'one_squid', 'fixed'], got {mode!r}\n")

    @pytest.mark.parametrize("command", ["chi-sweep", "t1-model"])
    def test_programming_error_writes_no_rows(self, tmp_path, monkeypatch, command):
        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr("quantromon.flux.evaluate_flux_point", broken)
        out = tmp_path / "sweep.csv"
        with pytest.raises(TypeError):
            run([command, "--config", SAMPLE_A, "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["chi-sweep", "t1-model"])
    @pytest.mark.parametrize("b", [1.5, math.nan])
    def test_bad_circuit_exits_1_without_rows(self, tmp_path, capsys, command, b):
        # sample_b gives its junction energies, so only the sweep meets the circuit
        cfg = json.loads(Path(SAMPLE_B).read_text())
        cfg["circuit"]["b"] = b
        path = _write_config(tmp_path, cfg)
        assert run([command, "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b out of [0, 1]" in captured.err

    def test_infinite_kappa_exits_1(self, tmp_path, capsys):
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["coherence"]["kappa"] = math.inf  # written as Infinity
        path = _write_config(tmp_path, cfg)
        assert run(["t1-model", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kappa" in captured.err

    def test_every_row_failed_exits_0_with_each_error(self, tmp_path, capsys):
        # kappa is finite and > 0, so the config loads, but every flux
        # point's Purcell T1 underflows to 0.0: the error is carried per row
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["coherence"]["kappa"] = 1e308
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "t1.csv"
        assert run(["t1-model", "--config", path, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [r["n"] for r in rows] == [str(n) for n in range(10)]
        for row in rows:
            assert row["error"] == "ParameterError: T1 contributions must be > 0, got 0.0"
            assert row["t1_model"] == "nan"

    @pytest.mark.parametrize("edit, column", [
        ({"circuit": {"d_j": 0.0}, "flux": {"mode": "fixed"}}, "t1_asymm"),
        ({"coherence": {"q_diel": math.inf}}, "t1_diel"),
    ])
    def test_infinite_lifetime_is_strict_json_null(self, tmp_path, edit, column):
        # RFC 8259 has no Infinity: JSON writes null, CSV keeps inf
        cfg = json.loads(Path(SAMPLE_A).read_text())
        for section, values in edit.items():
            cfg[section].update(values)
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "t1.json"
        assert run(["t1-model", "--config", path, "--format", "json", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rows = json.loads(out.read_text(), parse_constant=reject)
        assert len(rows) == 10
        assert all(row[column] is None and row["t1_model"] > 0.0 for row in rows)
        csv_out = tmp_path / "t1.csv"
        assert run(["t1-model", "--config", path, "--out", str(csv_out)]) == 0
        assert all(row[column] == "inf" for row in _read_csv(csv_out))

    def test_chi_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["chi-sweep", "--config", SAMPLE_A, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 10
        shifts = [float(r["two_chi_total"]) for r in rows]
        assert all(hi > lo for hi, lo in zip(shifts, shifts[1:]))

    def test_t1_model_rows(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run(["t1-model", "--config", SAMPLE_A, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 10
        for row in rows:
            assert float(row["t1_model"]) > 0.0
            assert float(row["t1_transmon_purcell"]) > 0.0
            assert row["error"] == ""

    def test_sample_b_sweep(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["chi-sweep", "--config", SAMPLE_B, "--out", str(out)]) == 0
        rows = _read_csv(out)
        asymmetries = [float(r["d_j"]) for r in rows]
        assert asymmetries[0] == pytest.approx(-0.30, rel=1e-9)
        assert abs(asymmetries[5]) < 0.02  # minimum-asymmetry operating point


class TestPhaseCommand:
    def test_value(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert run(["phase", "--config", SAMPLE_C, "--out", str(out)]) == 0
        row = _read_csv(out)[0]
        assert float(row["separation_deg"]) == pytest.approx(232.32, abs=0.01)

    @pytest.mark.parametrize("key", ["two_chi", "kappa_ext", "kappa_int"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_readout_value_exits_1(self, tmp_path, capsys, key, value):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout"][key] = value
        path = _write_config(tmp_path, cfg)
        assert run(["phase", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be finite, got {value!r}\n"


class TestReadoutCommands:
    def test_sim_writes_shots_and_report(self, tmp_path):
        out = tmp_path / "readout" / "report.csv"
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                    "--shots", "5000", "--seed", "5"]) == 0
        rows = _read_csv(out)
        assert len(rows) == 7  # tau_list from the bundled config
        assert (tmp_path / "readout" / "report_shots0.csv").exists()
        assert (tmp_path / "readout" / "report_shots1.csv").exists()

    @pytest.mark.parametrize("export, calls", [(False, 0), (True, 2)])
    def test_base_shots_simulated_only_when_used(self, tmp_path, monkeypatch,
                                                 capsys, export, calls):
        # with readout_sim.tau_list set the base shot sets are not fitted,
        # so they are simulated only to be exported; the per-tau table
        # simulates its own sets through the same function, so only the
        # calls made before the table starts count
        simulate = readout.simulate_shots
        table = readout.error_vs_integration
        recorded = []

        def counting(p, state, n_shots, seed):
            recorded.append((state, n_shots, seed))
            return simulate(p, state, n_shots, seed)

        def marking(*args):
            recorded.append("table")
            return table(*args)

        monkeypatch.setattr(readout, "simulate_shots", counting)
        monkeypatch.setattr(readout, "error_vs_integration", marking)
        argv = ["readout-sim", "--config", SAMPLE_C, "--shots", "2000", "--seed", "3"]
        if export:
            argv += ["--out", str(tmp_path / "report.csv")]
        assert run(argv) == 0
        assert recorded[:recorded.index("table")] == [(0, 2000, 3), (1, 2000, 3)][:calls]

    def test_base_shot_sets_freed_before_table(self, tmp_path, monkeypatch):
        # with --out and readout_sim.tau_list the two base sets are only
        # exported; they must not stay alive while the per-tau table runs
        simulate = readout.simulate_shots
        table = readout.error_vs_integration
        refs = []

        def recording(*args):
            shots = simulate(*args)
            # a ShotSet is a tuple, which takes no weak reference; the set
            # holds its values array, so the array freed means the set is too
            refs.append(weakref.ref(shots.values))
            return shots

        checked = []

        def checking(*args):
            gc.collect()
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            checked.append(True)
            return table(*args)

        monkeypatch.setattr(readout, "simulate_shots", recording)
        monkeypatch.setattr(readout, "error_vs_integration", checking)
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "2000",
                    "--out", str(tmp_path / "report.csv")]) == 0
        assert checked == [True]

    @pytest.mark.parametrize("section, key, value", [
        ("readout", "kappa_ext", 1e308),
        ("readout", "nbar", 1e308),
        ("readout", "noise_scale", 0),
        ("readout", "noise_scale", 1e308),
        ("readout_sim", "tau_list", 1e308),
    ])
    def test_unstartable_fit_exits_2(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        if key == "tau_list":
            cfg[section][key][3] = value
        else:
            cfg[section][key] = value
        path = _write_config(tmp_path, cfg)
        assert run(["readout-sim", "--config", path, "--shots", "2000"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: mixture fit cannot start")

    def test_fit_at_the_evaluation_cap_exits_2(self, monkeypatch, capsys, shot_files):
        monkeypatch.setattr(readout, "_MAX_NFEV", 1)
        assert run(["readout-fit", "--shots0", shot_files[0], "--shots1", shot_files[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: mixture fit hit the evaluation cap (1) ")

    @staticmethod
    def _shot_pair(tmp_path, values0, values1) -> list[str]:
        """Shot CSVs of sample_c's readout holding the given values."""
        params = load_config(SAMPLE_C).readout
        paths = []
        for state, values in enumerate((values0, values1)):
            path = tmp_path / f"shots{state}.csv"
            readout.export_shots_csv(readout.ShotSet(state, values, 7, params), path)
            paths.append(str(path))
        return paths

    def test_bin_count_past_the_float_range_is_typed(self, tmp_path, capsys):
        # the quartiles 0 and 1e-310 give a bin width whose ratio to the 1e10
        # range is inf: it clips to 512 bins, where math.ceil raised
        # OverflowError on it
        files = self._shot_pair(tmp_path, [0.0] * 100, [1e-310] * 99 + [1e10])
        assert run(["readout-fit", "--shots0", files[0], "--shots1", files[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")

    def test_shots_near_the_float_range_end_warn_nothing(self, tmp_path, capsys):
        # the fit overflows on its way to the cap; numpy's warnings stay off
        # stderr, where the cap's diagnostic is the one line
        rs = np.random.default_rng(0)
        files = self._shot_pair(tmp_path, rs.normal(0.0, 1e-300, 1000),
                                rs.normal(5e-300, 1e-300, 1000))
        assert run(["readout-fit", "--shots0", files[0], "--shots1", files[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: mixture fit hit the evaluation cap ")

    @pytest.mark.parametrize("line, edited", [
        ("# prepared_state=0\n", "# prepared_state=٠\n"),
        ("# seed=7\n", "# seed=0_7\n"),
        ("# nbar=30.0\n", "# nbar=３０\n"),
    ])
    def test_header_number_outside_the_value_rule_exits_1(self, tmp_path, capsys,
                                                          line, edited):
        # int() and float() alone read these as 0, 7 and 30; a header number
        # follows the rule of the value lines and the integer flags
        files = self._shot_pair(tmp_path, np.linspace(-1.0, 1.0, 200),
                                np.linspace(0.0, 2.0, 200))
        path = Path(files[0])
        text = path.read_text(encoding="utf-8")
        assert line in text
        path.write_text(text.replace(line, edited), encoding="utf-8")
        assert run(["readout-fit", "--shots0", files[0], "--shots1", files[1]]) == 1
        captured = capsys.readouterr()
        key, value = edited[2:-1].split("=")
        assert captured.out == ""
        assert captured.err == (f"error: malformed shot CSV header in {files[0]}: "
                                f"cannot read {key}={value!r}\n")

    def test_zero_external_linewidth_exits_1(self, tmp_path, capsys):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout"]["kappa_ext"] = 0.0
        path = _write_config(tmp_path, cfg)
        assert run(["readout-sim", "--config", path, "--shots", "100"]) == 1
        assert capsys.readouterr().err == "error: shot simulation requires kappa_ext > 0\n"

    def test_shot_file_without_values_exits_1(self, tmp_path, capsys):
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "100",
                    "--out", str(tmp_path / "rep.csv")]) == 0
        shots1 = tmp_path / "rep_shots1.csv"
        text = shots1.read_text()
        shots1.write_text(text[:text.index("value\n") + len("value\n")])
        capsys.readouterr()
        assert run(["readout-fit", "--shots0", str(tmp_path / "rep_shots0.csv"),
                    "--shots1", str(shots1)]) == 1
        assert capsys.readouterr().err == "error: both shot sets must be nonempty\n"

    def test_swapped_shot_files_give_mirrored_report(self, tmp_path):
        # the fit starts component 0 on the lower quartile, which the swapped
        # state-0 shots do not hold, so it ends with a0 < 0.5 and relabels;
        # the library fits any two shot sets, while readout-fit refuses files
        # whose headers do not match their flags
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "4000",
                    "--seed", "3", "--out", str(tmp_path / "rep.csv")]) == 0
        shots = [readout.import_shots_csv(tmp_path / f"rep_shots{state}.csv")
                 for state in (0, 1)]
        rows = []
        for shots0, shots1 in (shots, shots[::-1]):
            fit = readout.fit_double_gaussian(shots0, shots1)
            report = readout.fidelity_report(shots0, shots1, fit, readout.threshold(fit))
            rows.append({**fit._asdict(), **report._asdict()})
        fit, swapped = rows
        pairs = [("mu0", "mu1"), ("sigma0", "sigma1"), ("a0", "a1"), ("p01", "p10"),
                 ("eps_01", "eps_10")]
        for a, b in pairs:
            assert swapped[a] == pytest.approx(fit[b], rel=1e-6)
            assert swapped[b] == pytest.approx(fit[a], rel=1e-6)
        for key in ("fidelity", "threshold", "eps_id"):
            assert swapped[key] == pytest.approx(fit[key], rel=1e-6)

    @pytest.mark.parametrize("states", [(1, 0), (0, 0), (1, 1)],
                             ids=["swapped", "state-0 twice", "state-1 twice"])
    def test_shot_file_of_the_other_state_exits_1(self, tmp_path, capsys, states):
        # each header's prepared_state must match its flag; the first file
        # that does not is named, before any fit
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "2000",
                    "--seed", "3", "--out", str(tmp_path / "rep.csv")]) == 0
        files = [str(tmp_path / f"rep_shots{state}.csv") for state in states]
        capsys.readouterr()
        assert run(["readout-fit", "--shots0", files[0], "--shots1", files[1]]) == 1
        flag = 0 if states[0] != 0 else 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --shots{flag} takes state-{flag} shots, but "
                                f"{files[flag]} holds prepared_state={1 - flag}\n")

    def test_fit_round_trip_matches_sim_report(self, tmp_path):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        del cfg["readout_sim"]["tau_list"]  # single-point report
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "report.csv"
        assert run(["readout-sim", "--config", path, "--out", str(out),
                    "--shots", "20000", "--seed", "11"]) == 0
        sim_row = _read_csv(out)[0]

        out2 = tmp_path / "refit.csv"
        assert run(["readout-fit",
                    "--shots0", str(tmp_path / "report_shots0.csv"),
                    "--shots1", str(tmp_path / "report_shots1.csv"),
                    "--out", str(out2)]) == 0
        fit_row = _read_csv(out2)[0]
        for key in ("mu0", "mu1", "sigma0", "sigma1", "a0", "a1",
                    "threshold", "p01", "p10", "fidelity",
                    "eps_id", "eps_01", "eps_10"):
            assert fit_row[key] == sim_row[key]



class TestSimOptions:
    """--shots/--seed and readout_sim pass one check: 1 <= n_shots <=
    MAX_SHOTS, 0 <= seed < 2**64 and every tau_list entry finite and > 0.
    No test here simulates more than 100 shots."""

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                    "--shots", "100", "--seed", "-1"]) == 1
        assert "readout_sim.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "1_0"), ("--seed", "+1"), ("--seed", " 1"), ("--seed", "\uff11"),
        ("--shots", "2_000"), ("--shots", "+100"), ("--shots", "100 "), ("--shots", "1.5"),
    ])
    def test_malformed_integer_flag_exits_1(self, tmp_path, capsys, flag, value):
        # int() alone took each of these but "1.5": seed 10 and 2000 shots for
        # the first of each
        out = tmp_path / "report.csv"
        argv = {"--seed": ["--shots", "100"], "--shots": []}[flag]
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out), *argv,
                    flag, value]) == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_shots_flag_exits_1(self, capsys):
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "0"]) == 1
        assert "readout_sim.n_shots" in capsys.readouterr().err

    @pytest.mark.parametrize("n_shots", [MAX_SHOTS + 1, 2**70])
    def test_too_many_shots_rejected_at_load(self, tmp_path, n_shots):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout_sim"]["n_shots"] = n_shots
        with pytest.raises(ParameterError, match=r"readout_sim\.n_shots must be an integer "
                                              r"in \[1, 10000000\], got " + str(n_shots)):
            load_config(_write_config(tmp_path, cfg))

    def test_largest_shot_count_loads(self, tmp_path):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout_sim"]["n_shots"] = MAX_SHOTS
        assert load_config(_write_config(tmp_path, cfg)).sim.n_shots == MAX_SHOTS

    def test_too_many_shots_flag_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                    "--shots", str(2**70)]) == 1
        assert "readout_sim.n_shots" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**64, -1, True])
    def test_config_seed_out_of_range_exits_1(self, tmp_path, capsys, seed):
        # the stream rule's own message, with the config key for its name
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout_sim"]["seed"] = seed
        path = _write_config(tmp_path, cfg)
        assert run(["readout-sim", "--config", path, "--shots", "100"]) == 1
        assert capsys.readouterr().err == (
            f"error: readout_sim.seed must be an integer in [0, 2**64), got {seed!r}\n")

    @pytest.mark.parametrize("tau", [0, -1, math.nan, math.inf])
    def test_bad_tau_exits_1_before_any_file(self, tmp_path, capsys, tau):
        cfg = json.loads(Path(SAMPLE_C).read_text())
        cfg["readout_sim"]["tau_list"][2] = tau
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "out" / "report.csv"
        assert run(["readout-sim", "--config", path, "--out", str(out),
                    "--shots", "100"]) == 1
        assert capsys.readouterr().err == (
            f"error: readout_sim.tau_list entries must be finite and > 0, got {float(tau)!r}\n")
        assert not out.parent.exists()

    def test_largest_seed_accepted(self, tmp_path, capsys):
        assert run(["readout-sim", "--config", SAMPLE_C, "--shots", "100",
                    "--seed", str(2**64 - 1)]) == 0
        assert str(2**64 - 1) in capsys.readouterr().out


def _subprocess_env(**blas) -> dict:
    """The test's environment with ``src`` on the path and the BLAS thread
    variable replaced by ``blas`` (absent when ``blas`` is empty)."""
    src = str(Path(quantromon.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": path, **blas}


class TestImports:
    # every bundled config each command runs on; none of them reads shots.
    # The closed-form commands run first, since they load no numpy either
    CLOSED_FORM_RUNS = (
        [["energies", "--config", c] for c in (REFERENCE, SAMPLE_A, SAMPLE_B, SAMPLE_C)]
        + [[cmd, "--config", c] for cmd in ("chi-sweep", "t1-model")
           for c in (SAMPLE_A, SAMPLE_B)]
        + [["phase", "--config", SAMPLE_C]]
    )
    NUMPY_RUNS = (
        [["spectrum", "--config", c] for c in (REFERENCE, SAMPLE_A, SAMPLE_B, SAMPLE_C)]
    )
    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        import quantromon
        from quantromon.cli import run

        def loaded(package):
            return sorted(m for m in sys.modules
                          if m == package or m.startswith(package + "."))

        def run_all(runs):
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    exits.append(run(argv))

        def present(*modules):
            return [m for m in modules if m in sys.modules]

        exits = []
        run_all(json.loads(sys.argv[1]))
        numpy = loaded("numpy")
        closed_form = present("dataclasses", "inspect")
        run_all(json.loads(sys.argv[2]))
        print(json.dumps({"exits": exits, "numpy": numpy, "scipy": loaded("scipy"),
                          "closed_form": closed_form, "spectrum": present("dataclasses")}))
    """)

    def test_non_readout_commands_load_no_scipy(self):
        # a fresh interpreter, so no other test's import of numpy or scipy
        # counts; "numpy" is what the package import and the closed-form
        # commands loaded
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(self.CLOSED_FORM_RUNS),
             json.dumps(self.NUMPY_RUNS)],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout)
        assert result["exits"] == [0] * (len(self.CLOSED_FORM_RUNS) + len(self.NUMPY_RUNS))
        assert result["numpy"] == []
        assert result["scipy"] == []
        # the records are tuples, so no command here builds a dataclass; numpy
        # loads inspect itself
        assert result["closed_form"] == []
        assert result["spectrum"] == []

    NO_SCIPY_SCRIPT = textwrap.dedent("""
        import contextlib, io, json, os, sys
        from quantromon.cli import run
        from quantromon import flux
        from quantromon.params import CircuitParams, derive_energies

        config, out = sys.argv[1:]
        shots = [out.replace(".csv", f"_shots{state}.csv") for state in (0, 1)]
        with contextlib.redirect_stdout(io.StringIO()):
            exits = [run(["readout-sim", "--config", config, "--out", out]),
                     run(["readout-fit", "--shots0", shots[0], "--shots1", shots[1]])]
        en = derive_energies(CircuitParams(l_j=8.2e-9, c_j=56.88e-15, l_r=0.546e-9,
                                           c_r=781.8e-15, b=0.405, d_j=-0.30))
        flux.fit_one_squid(en, f_q_zero=5.205e9, d_j_zero=-0.30, anchor_n=5,
                           d_j_anchor=-0.0152)
        print(json.dumps({"exits": exits, "shot_files": [os.path.isfile(p) for p in shots],
                          "scipy": sorted(m for m in sys.modules
                                          if m == "scipy" or m.startswith("scipy."))}))
    """)

    def test_no_command_loads_scipy(self, tmp_path):
        # the readout commands (simulate, fit, report) and the flux fitters
        # run on the package's own ports, in a fresh interpreter
        done = subprocess.run(
            [sys.executable, "-c", self.NO_SCIPY_SCRIPT, SAMPLE_C,
             str(tmp_path / "report.csv")],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout)
        assert result["exits"] == [0, 0]
        assert result["shot_files"] == [True, True]
        assert result["scipy"] == []

    BLAS_SCRIPT = textwrap.dedent("""
        import json, os, sys
        import quantromon.cli

        def probe(argv):
            print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                              "numpy": "numpy" in sys.modules}))
            return 0

        quantromon.cli.run = probe
        quantromon.cli.main()
    """)

    @pytest.mark.parametrize("user, seen", [(None, "1"), ("2", "2")])
    def test_main_defaults_blas_threads_before_numpy(self, user, seen):
        # main sets one BLAS thread unless the user chose a count, and numpy
        # is not loaded yet, so its BLAS starts with that count
        blas = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
        done = subprocess.run([sys.executable, "-c", self.BLAS_SCRIPT],
                              env=_subprocess_env(**blas),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == {"blas": seen, "numpy": False}


class TestColdPath:
    # numpy.ma loads lazily, on the first call of helpers such as np.unique;
    # the spectrum path must not pay for it in every fresh process
    SCRIPT = textwrap.dedent("""
        import contextlib, io, json, sys
        from quantromon.cli import run
        exits = []
        for path in sys.argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                exits.append(run(["spectrum", "--config", path]))
        print(json.dumps({"exits": exits, "numpy_ma": "numpy.ma" in sys.modules}))
    """)

    def test_spectrum_loads_no_numpy_ma(self):
        # reference_device has d_j = 0 (four parity blocks), sample_b d_j != 0 (two)
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, REFERENCE, SAMPLE_B],
                              env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == {"exits": [0, 0], "numpy_ma": False}


class TestEncoding:
    # configs and reports are UTF-8 whatever the locale, as shot CSVs are:
    # no file is opened with the locale's default encoding
    @pytest.mark.parametrize("argv", [
        ["energies", "--config", REFERENCE],
        ["readout-sim", "--config", SAMPLE_C, "--shots", "5000"],
    ], ids=["energies", "readout-sim"])
    def test_no_default_encoding(self, tmp_path, argv):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "quantromon.cli", *argv, "--out", str(tmp_path / "out.csv")],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")


class TestEntryPoint:
    """``python -m quantromon.cli`` as a user runs it: ``main()`` flushes the
    streams and ends the process with ``os._exit``, so a byte left in a
    buffer would be lost without a trace."""

    GOLDEN = Path(__file__).parent / "golden"
    RESONANT = {"l_j": 7.394e-9, "c_j": 56.88e-15, "l_r": 0.546e-9, "c_r": 781.8e-15,
                "b": 0.405, "d_j": 0.3}

    @staticmethod
    def _cli(*argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False):
        # PYTHONUNBUFFERED would write stdout through, hiding a missing flush,
        # unless the test asks for it; the BLAS thread count is main()'s default
        env = {k: v for k, v in _subprocess_env().items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", "quantromon.cli", *map(str, argv)],
                              cwd=cwd, env=env, stdout=stdout, stderr=stderr, timeout=120)

    @classmethod
    def _into(cls, sink, *argv, cwd, stream="stdout", unbuffered=False):
        """Run the command with ``stream`` on ``sink``: ``"full"``, a device
        with no space left, or ``"closed-pipe"``, a pipe whose reader has
        gone before the first write; returns the run and the errno's text."""
        if sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full here")
            with open("/dev/full", "wb") as target:
                done = cls._cli(*argv, cwd=cwd, unbuffered=unbuffered, **{stream: target})
            return done, os.strerror(errno.ENOSPC)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = cls._cli(*argv, cwd=cwd, unbuffered=unbuffered, **{stream: write_end})
        finally:
            os.close(write_end)
        return done, os.strerror(errno.EPIPE)

    @pytest.mark.parametrize("case", ["reference_device.energies", "reference_device.spectrum",
                                      "sample_a.chi-sweep", "sample_a.t1-model",
                                      "sample_c.phase"])
    def test_stdout_is_the_golden(self, tmp_path, case):
        config, command = case.split(".")
        done = self._cli(command, "--config", CONFIG_DIR / f"{config}.json", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (self.GOLDEN / f"{case}.csv").read_bytes()

    def test_readout_files_and_fit_are_the_golden(self, tmp_path):
        report = tmp_path / "readout" / "report.csv"
        done = self._cli("readout-sim", "--config", SAMPLE_C, "--out", report, cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert report.read_bytes() == (self.GOLDEN / "sample_c.readout-sim.csv").read_bytes()
        index = json.loads((self.GOLDEN / "index.json").read_text())["sample_c.readout-sim.csv"]
        shots = [report.with_name(f"report_shots{state}.csv") for state in (0, 1)]
        for state, path in enumerate(shots):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == index[f"shots{state}_sha256"]
        done = self._cli("readout-fit", "--shots0", shots[0], "--shots1", shots[1], cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (self.GOLDEN / "sample_c.readout-fit.csv").read_bytes()

    def test_refused_flag_exits_1_on_one_error_line(self, tmp_path):
        done = self._cli("chi-sweep", "--config", SAMPLE_A, "--trunc", "30x30", cwd=tmp_path)
        assert (done.returncode, done.stdout) == (1, b"")
        # argparse's usage lines, then the one line that names the flag
        errors = [line for line in done.stderr.decode().splitlines() if "error:" in line]
        assert errors == ["quantromon: error: unrecognized arguments: --trunc 30x30"]
        assert done.stderr.decode().endswith(errors[0] + "\n")

    @needs_unreadable
    @pytest.mark.parametrize("what", UNREADABLE_RUNS, ids=["config", "shot-file"])
    def test_unreadable_input_exits_1_on_one_line(self, tmp_path, what):
        done = self._cli(*UNREADABLE_RUNS[what], cwd=tmp_path)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.decode().splitlines() == [
            f"error: cannot read {what} {UNREADABLE}: Input/output error"]

    def test_help_is_flushed(self, tmp_path, monkeypatch, capsys):
        # argparse wraps its help at the width in COLUMNS, here and in the child
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["readout-fit", "--help"]) == 0
        done = self._cli("readout-fit", "--help", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_failed_stdout_exits_1_on_one_line(self, tmp_path, sink, unbuffered):
        # no traceback, no "Exception ignored" report and no exit 120 from
        # the interpreter's own flush at exit: the flush fails when stdout
        # buffers, the write when it writes through
        done, reason = self._into(sink, "chi-sweep", "--config", SAMPLE_A, cwd=tmp_path,
                                  unbuffered=unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [f"error: cannot write stdout: {reason}"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", ["out-unwritable", "config-too-long", "out-too-long"])
    def test_path_fault_exits_1_on_one_line(self, tmp_path, case, unbuffered):
        # a stat of a name too long fails, not only an open of it:
        # Path.is_file() and Path.is_dir() raise on ENAMETOOLONG
        long_path = tmp_path / LONG_NAME
        if case == "out-unwritable":
            if not os.path.isfile(UNWRITABLE):
                pytest.skip(f"{UNWRITABLE} is not a regular file here")
            argv, prefix = ("--config", SAMPLE_A, "--out", UNWRITABLE), f"write {UNWRITABLE}"
        elif case == "config-too-long":
            argv, prefix = ("--config", long_path), f"read config {long_path}"
        else:
            argv, prefix = ("--config", SAMPLE_A, "--out", long_path), f"write {long_path}"
        done = self._cli("energies", *argv, cwd=tmp_path, unbuffered=unbuffered)
        assert (done.returncode, done.stdout) == (1, b"")
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot {prefix}: "), lines
        if case != "out-unwritable":
            assert lines[0].endswith(os.strerror(errno.ENAMETOOLONG))

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_help_into_a_failed_stdout_exits_1_on_one_line(self, tmp_path, sink, unbuffered):
        # argparse drops a failed write of its help, and would exit 0
        done, reason = self._into(sink, "readout-fit", "--help", cwd=tmp_path,
                                  unbuffered=unbuffered)
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [f"error: cannot write stdout: {reason}"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_failed_stderr_keeps_the_exit_code(self, tmp_path, sink, unbuffered):
        # the numerical failure's line is lost; its exit code is not
        path = _write_config(tmp_path, {"circuit": self.RESONANT})
        done, _ = self._into(sink, "spectrum", "--config", path, cwd=tmp_path,
                             stream="stderr", unbuffered=unbuffered)
        assert (done.returncode, done.stdout) == (2, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_shot_file_name_too_long_exits_1_naming_the_reason(self, tmp_path, unbuffered):
        # os.path.isfile would call such a name missing
        long_path = tmp_path / LONG_NAME
        done = self._cli("readout-fit", "--shots0", long_path, "--shots1", long_path,
                         cwd=tmp_path, unbuffered=unbuffered)
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.decode().splitlines() == [
            f"error: cannot read shot file {long_path}: {os.strerror(errno.ENAMETOOLONG)}"]

    def test_resonant_device_exits_2_on_one_line(self, tmp_path):
        path = _write_config(tmp_path, {"circuit": self.RESONANT})
        done = self._cli("spectrum", "--config", path, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (2, b"")
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: label (1, 1): best overlap 0.53")

    def test_regime_messages_are_warning_lines(self, tmp_path):
        # a soft linear inductor breaks E_LR >> E_J at nine of the ten biases;
        # each message is one line, without the warning's source path
        cfg = json.loads(Path(SAMPLE_A).read_text())
        cfg["circuit"]["l_r"] = 2e-8
        done = self._cli("chi-sweep", "--config", _write_config(tmp_path, cfg), cwd=tmp_path)
        assert done.returncode == 0
        assert len(done.stdout.decode().splitlines()) == 11
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 9
        assert all(line.startswith("warning: E_LR >> E_J regime violated (e_lr/e_j = ")
                   and line.endswith("); perturbative formulas unreliable")
                   for line in lines), lines

    def test_run_leaves_the_collector_on(self, capsys):
        assert gc.isenabled()
        assert run(["phase", "--config", SAMPLE_C]) == 0
        assert gc.isenabled()


class TestDeterminism:
    def test_chi_sweep_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["chi-sweep", "--config", SAMPLE_A, "--out", str(out1)])
        run(["chi-sweep", "--config", SAMPLE_A, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_readout_sim_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name / "rep.csv"
            run(["readout-sim", "--config", SAMPLE_C, "--out", str(out),
                 "--shots", "3000", "--seed", "42"])
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (outs[0].parent / "rep_shots0.csv").read_bytes() == \
            (outs[1].parent / "rep_shots0.csv").read_bytes()
