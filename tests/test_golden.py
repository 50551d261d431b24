"""Golden CLI outputs: every command on every bundled config, byte for byte.

Each case runs ``cli.run`` in-process and compares its exit code, its stderr
and its output bytes (stdout, or the ``--out`` report of ``readout-sim``)
with ``tests/golden/``. ``readout-sim`` also writes its two shot files; their
sha256 digests are compared, and ``readout-fit`` is run on them. Unlike a
rerun in the same process, this catches a refactor that changes the last bit
of a printed float.

A golden file may change only together with a CHANGES.md entry that explains
the changed bytes. To record them again::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.resources
import io
import json
import tempfile
from pathlib import Path

import pytest

from quantromon.cli import run

GOLDEN = Path(__file__).parent / "golden"
CONFIG_DIR = importlib.resources.files("quantromon") / "configs"
CONFIGS = ("reference_device", "sample_a", "sample_b", "sample_c")
COMMANDS = ("energies", "spectrum", "chi-sweep", "t1-model", "phase", "readout-sim")
FORMATS = ("csv", "json")
CASES = [f"{config}.{command}.{fmt}"
         for config in CONFIGS for command in COMMANDS for fmt in FORMATS]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _capture(case: str, tmp: Path) -> tuple[dict, dict[str, bytes]]:
    """Run one case; return its exit code, stderr and shot digests, and the
    output bytes keyed by golden file name."""
    config, command, fmt = case.split(".")
    argv = [command, "--config", str(CONFIG_DIR / f"{config}.json"), "--format", fmt]
    report = tmp / f"report.{fmt}"
    if command == "readout-sim":
        argv += ["--out", str(report)]
    code, out, err = _run(argv)
    meta = {"exit": code, "stderr": err}
    outputs = {case: out.encode()} if out else {}
    if report.is_file():
        outputs[case] = report.read_bytes()
        shots = [tmp / f"report_shots{state}.csv" for state in (0, 1)]
        for state, path in enumerate(shots):
            meta[f"shots{state}_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        fit_code, fit_out, fit_err = _run(["readout-fit", "--shots0", str(shots[0]),
                                           "--shots1", str(shots[1]), "--format", fmt])
        meta["readout_fit"] = {"exit": fit_code, "stderr": fit_err}
        outputs[f"{config}.readout-fit.{fmt}"] = fit_out.encode()
    meta["outputs"] = sorted(outputs)
    return meta, outputs


def _index() -> dict:
    return json.loads((GOLDEN / "index.json").read_text())


def test_every_case_recorded():
    assert sorted(_index()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, tmp_path):
    meta, outputs = _capture(case, tmp_path)
    assert meta == _index()[case]
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), name


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            meta, outputs = _capture(case, Path(tmp))
        index[case] = meta
        for name, data in outputs.items():
            (GOLDEN / name).write_bytes(data)
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
