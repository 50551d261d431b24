"""Record the reference outputs of every pool entry at the current commit.

Run from the root of a checkout:

    python3 perfbench/record_refs.py [workload ...]

Writes ``perfbench/refs/<workload>.npz`` for the library workloads (inputs,
float outputs stored as float32, exact strings) and ``refs/cli-mix.json``
(exit code, stdout, --out table and shot-file digests per CLI op). Any op that
fails aborts the recording: the pools are drawn where no op raises.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import BLAS_PINS, REFS_DIR  # noqa: E402

os.environ.update(BLAS_PINS)  # before numpy is imported
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")]))


def record_library(name: str, tmp: Path) -> None:
    import numpy as np

    from library import WORKLOADS
    cls = WORKLOADS[name]
    inputs = cls.make_inputs(ROOT)
    wl = cls(ROOT, tmp, inputs=inputs)
    floats, exact = [], []
    for i in range(len(inputs)):
        out = wl.op(i)
        floats.append(wl.floats(out))
        exact.append(wl.exact(out))
    np.savez_compressed(REFS_DIR / f"{name}.npz", inputs=inputs,
                        floats=np.array(floats, dtype=np.float32),
                        exact=np.array(exact, dtype=str))
    print(f"{name}: {len(inputs)} ops recorded")


def record_cli(tmp: Path) -> None:
    import json

    from climix import CliMix
    wl = CliMix(ROOT, tmp, refs={})
    refs = {}
    for key in wl.specs:  # readout-sim precedes its readout-fit in the specs
        out = wl.op(key)
        if out["exit"] != 0:
            raise SystemExit(f"{key}: exit {out['exit']}")
        refs[key] = wl.outputs(key, out)
    (REFS_DIR / "cli-mix.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"cli-mix: {len(refs)} ops recorded")


def main() -> int:
    names = sys.argv[1:] or ["spectrum-scan", "readout-stream", "cli-mix"]
    REFS_DIR.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_results"
    scratch.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            if name == "cli-mix":
                record_cli(Path(tmp))
            else:
                record_library(name, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
