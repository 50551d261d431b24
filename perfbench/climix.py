"""The cli-mix workload: each op is one ``python -m quantromon.cli`` subprocess.

A round is one of each command on the bundled configs, in a seeded order:
``energies``, ``spectrum`` at a seeded truncation 12x12 .. 30x30, ``chi-sweep``,
``t1-model``, ``phase``, and ``readout-sim --out`` directly followed by
``readout-fit`` on the shot files it wrote. Stdout, the ``--out`` table and
the shot files are checked against the references in ``refs/cli-mix.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, CONFIG_DIR, POOL_SEED, REFS_DIR, same_table

CIRCUIT_CONFIGS = ("reference_device", "sample_a", "sample_b", "sample_c")
SWEEP_CONFIGS = ("sample_a", "sample_b")
TRUNCS = tuple(range(12, 31))
N_READOUT_SEEDS = 16


def _cfg(name: str) -> str:
    return str(CONFIG_DIR / f"{name}.json")


def op_specs() -> dict[str, list[str]]:
    """Every op the workload can draw, keyed by name, as CLI argv.

    ``{out}`` stands for the op's output directory.
    """
    specs = {}
    for cfg in CIRCUIT_CONFIGS:
        specs[f"energies:{cfg}"] = ["energies", "--config", _cfg(cfg)]
        for n in TRUNCS:
            specs[f"spectrum:{cfg}:{n}"] = ["spectrum", "--config", _cfg(cfg),
                                           "--trunc", f"{n}x{n}"]
    for cfg in SWEEP_CONFIGS:
        specs[f"chi-sweep:{cfg}"] = ["chi-sweep", "--config", _cfg(cfg)]
        specs[f"t1-model:{cfg}"] = ["t1-model", "--config", _cfg(cfg)]
    specs["phase:sample_c"] = ["phase", "--config", _cfg("sample_c")]
    rnd = random.Random(POOL_SEED)
    for seed in sorted(rnd.sample(range(1, 10_000), N_READOUT_SEEDS)):
        specs[f"readout-sim:{seed}"] = ["readout-sim", "--config", _cfg("sample_c"),
                                        "--seed", str(seed), "--out", "{out}/report.csv"]
        specs[f"readout-fit:{seed}"] = ["readout-fit", "--shots0", "{out}/report_shots0.csv",
                                        "--shots1", "{out}/report_shots1.csv"]
    return specs


class CliMix:
    name = "cli-mix"
    speed_exponent = 1.01  # host-speed exponent of op times (speed.py), fitted by fit_probes.py

    def __init__(self, root: Path, tmp: Path, refs: dict | None = None):
        self.root = root
        self.out_dir = tmp / "out"
        self.specs = op_specs()
        if refs is None:
            refs = json.loads((REFS_DIR / "cli-mix.json").read_text())
        self.refs = refs
        self.readout_seeds = sorted(int(k.split(":")[1]) for k in self.specs
                                    if k.startswith("readout-sim:"))
        self.trace_dump: Path | None = None  # set in a traced run
        self.child_cpu_s = 0.0
        self.child_rss_kb = 0

    def rounds(self, seed: int):
        rnd = random.Random(seed)
        while True:
            s = rnd.choice(self.readout_seeds)
            groups = [[f"energies:{rnd.choice(CIRCUIT_CONFIGS)}"],
                      [f"spectrum:{rnd.choice(CIRCUIT_CONFIGS)}:{rnd.choice(TRUNCS)}"],
                      [f"chi-sweep:{rnd.choice(SWEEP_CONFIGS)}"],
                      [f"t1-model:{rnd.choice(SWEEP_CONFIGS)}"],
                      ["phase:sample_c"],
                      [f"readout-sim:{s}", f"readout-fit:{s}"]]
            rnd.shuffle(groups)
            yield [key for group in groups for key in group]

    def warm_up(self):
        self.op("phase:sample_c")

    def kind(self, key: str) -> str:
        return key.split(":")[0]

    def op(self, key: str) -> dict:
        """Run one CLI child; returns its exit code, stdout and written files."""
        if key.startswith("readout-sim:"):
            shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        argv = [a.replace("{out}", str(self.out_dir)) for a in self.specs[key]]
        if self.trace_dump is None:
            cmd = [sys.executable, "-m", "quantromon.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_boot.py"), str(self.trace_dump), *argv]
        with open(self.out_dir / "stderr.txt", "wb") as err, subprocess.Popen(
                cmd, cwd=self.root, stdout=subprocess.PIPE, stderr=err) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu_s = usage.ru_utime + usage.ru_stime
        self.child_rss_kb = usage.ru_maxrss
        return {"exit": proc.returncode, "stdout": stdout.decode()}

    def outputs(self, key: str, out: dict) -> dict:
        """Exit code, stdout and, for readout-sim, the --out table and shot-file digests."""
        record = dict(out)
        if key.startswith("readout-sim:"):
            record["report"] = (self.out_dir / "report.csv").read_text()
            record["shot_files"] = [
                hashlib.sha256((self.out_dir / f"report_shots{s}.csv").read_bytes()).hexdigest()
                for s in (0, 1)]
        return record

    def check(self, key: str, out: dict) -> bool:
        ref = self.refs[key]
        try:
            got = self.outputs(key, out)
        except OSError:
            return False
        return (got["exit"] == ref["exit"] == 0
                and same_table(got["stdout"], ref["stdout"])
                and same_table(got.get("report", ""), ref.get("report", ""))
                and got.get("shot_files") == ref.get("shot_files"))

    def facts(self, ops: list[str]) -> dict:
        return {}
