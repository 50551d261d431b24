"""Host-speed probes: fixed work that uses numpy and the standard library only.

The benchmark's host is a 2-vCPU VM on a shared machine. Its speed flips
between spells that differ by up to 2x (wall time and CPU time alike) and
can change every few seconds, so raw times of the same code spread by
30-40% between runs. The workload loop therefore runs the three probes right
before and right after every op, outside the op's timing, and scales the
op's wall and CPU time by

    (NOMINAL_S / probe seconds) ** exponent

where "probe seconds" and NOMINAL_S are geometric means over the three
probes and over before and after. Set-ups are bracketed the same way. The
scaled figures read as on a host where the probes take their nominal time.
The op exponent is fitted per workload by ``fit_probes.py``, across runs:
the least-squares slope of the log of a run's mean op time on its mean log
slowness. ``spectrum-scan``'s eigensolves slow less than the probes do in
the host's slow spells (0.66), the other two workloads about as much (1.01
and 1.09). Set-up is the same work in every workload (interpreter start,
imports, inputs, warm-up) and its fits were 0.84 to 1.03, so it takes one
exponent, SETUP_EXPONENT. No probe calls quantromon: a change to the
program moves the ops but not the probes.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20250117)
_SYMMETRIC = [a + a.T for a in (_rng.standard_normal((n, n)) for n in (100, 160))]
_FLOATS = _rng.standard_normal(3000).tolist()
_WORDS = _rng.integers(0, 2**63, size=150_000, dtype=np.uint64)


def _interp() -> None:
    """Float formatting and parsing, dict and list churn: interpreter-bound."""
    text = "\n".join(repr(x) for x in _FLOATS)
    table = {}
    for k, line in enumerate(text.split("\n")):
        table[k % 97] = table.get(k % 97, 0.0) + float(line)


def _blas() -> None:
    """Dense symmetric eigensolves with eigenvectors: LAPACK-bound."""
    for m in _SYMMETRIC:
        np.linalg.eigh(m)


def _array() -> None:
    """Integer mixing and float conversion over a 1 MB array: memory-bound."""
    x = _WORDS * np.uint64(0xD2B74407B1CE6E93)
    x ^= x >> np.uint64(29)
    np.log((x >> np.uint64(11)).astype(np.float64) + 1.0)


PROBES = {"interp": _interp, "blas": _blas, "array": _array}

# seconds each probe takes in the host's fast spells (2-vCPU Xeon VM, one BLAS thread)
NOMINAL_S = {"interp": 3.0e-3, "blas": 3.0e-3, "array": 1.0e-3}
SETUP_EXPONENT = 1.0


def probe() -> dict[str, float]:
    """Seconds each probe takes once."""
    out = {}
    for name in PROBES:
        t0 = time.perf_counter()
        PROBES[name]()
        out[name] = time.perf_counter() - t0
    return out


def log_slowness(before: dict[str, float], after: dict[str, float] | None = None) -> float:
    """log(probe seconds / NOMINAL_S), geometric means over the probes and both sides."""
    after = after or before
    return sum(0.5 * (math.log(before[k]) + math.log(after[k])) - math.log(NOMINAL_S[k])
               for k in PROBES) / len(PROBES)


def scale(exponent: float, before: dict[str, float],
          after: dict[str, float] | None = None) -> float:
    """Factor that takes a time measured between two probes to nominal host speed."""
    return math.exp(-exponent * log_slowness(before, after))
