"""Fit a workload's host-speed exponent from its result files.

Run from the root of a checkout after ten or more untraced runs of the
workload, spread over the host's fast and slow spells:

    python3 perfbench/fit_probes.py <workload>

Every ``.bench_results/<workload>-seed*-trace0.json`` is one row: the run's
mean op seconds against its ops' mean log slowness (``speed.py``: the probes
around an op against their nominal times). The least-squares slope of the
log of the first on the second is the workload's ``speed_exponent``. The fit
is made across runs, not across single ops, because the benchmark's check is
the spread between runs, and because one probe's noise would bias a per-op
slope towards 0. The same slope for the run's median set-up seconds against
its set-ups' median log slowness is printed as a check of
``speed.SETUP_EXPONENT``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from speed import log_slowness


def _fit(x: list[float], y: list[float]) -> tuple[float, float, float]:
    """Least-squares slope of y on x, and the sd of y before and after it is taken out."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.array(y) - (slope * np.array(x) + intercept)
    return float(slope), float(np.std(y)), float(np.std(resid))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    workload = sys.argv[1]
    ops: tuple[list, list] = ([], [])
    setups: tuple[list, list] = ([], [])
    for path in sorted(Path(".bench_results").glob(f"{workload}-seed*-trace0.json")):
        record = json.loads(path.read_text())
        if "op_samples" not in record:
            continue
        samples = record["op_samples"]
        ops[0].append(statistics.fmean(log_slowness(b, a) for b, a in samples["probes"]))
        ops[1].append(math.log(statistics.fmean(samples["lat_s"])))
        setups[0].append(statistics.median(log_slowness(x["before"] or x["after"], x["after"])
                                           for x in record["setup_samples"]))
        setups[1].append(math.log(statistics.median(x["s"] for x in record["setup_samples"])))
    if len(ops[0]) < 3:
        print(f"{len(ops[0])} result files with op samples for {workload!r}; need 3 or more")
        return 1
    print(f"{workload}: {len(ops[0])} runs")
    for name, data in (("speed_exponent", ops), ("set-up slope", setups)):
        slope, before, after = _fit(*data)
        print(f"  {name} = {slope:.2f}   (sd of log time across runs {before:.3f}, "
              f"scaled {after:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
