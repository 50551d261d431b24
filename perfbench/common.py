"""Constants and comparison helpers shared by the benchmark's workloads."""

from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
CONFIG_DIR = Path("src") / "quantromon" / "configs"  # relative to the checkout root

# seed of the recorded input pools; a run's --seed only picks and orders pool entries
POOL_SEED = 250117439

# floats must match the recorded reference to this relative tolerance; integers,
# strings, hashes of shot values and shot files must match exactly
FLOAT_RTOL = 1e-6

# every workload process and CLI child runs BLAS on one thread
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def same_float(value: float, ref: float) -> bool:
    """True when ``value`` matches ``ref`` within FLOAT_RTOL (NaN matches NaN)."""
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    if math.isinf(value) or math.isinf(ref):
        return value == ref
    return abs(value - ref) <= FLOAT_RTOL * abs(ref)


def _is_float_text(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return any(ch in cell for ch in ".eEn")  # plain integers compare exactly


def same_table(text: str, ref: str) -> bool:
    """Compare two CSV tables cell by cell: floats within FLOAT_RTOL, all else exactly."""
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref)))
    if len(rows) != len(ref_rows):
        return False
    for row, ref_row in zip(rows, ref_rows):
        if len(row) != len(ref_row):
            return False
        for cell, ref_cell in zip(row, ref_row):
            if cell == ref_cell:
                continue
            if not (_is_float_text(cell) and _is_float_text(ref_cell)
                    and same_float(float(cell), float(ref_cell))):
                return False
    return True


def pool_rounds(n_rounds: int, round_len: int, seed: int):
    """Endless op sequence over a pool of ``n_rounds`` rounds of ``round_len`` ops.

    Rounds come in a seeded permutation (a new one each pass over the pool) and
    each round's ops in a seeded order, so a run sees whole rounds and the same
    mix of op kinds whatever the seed.
    """
    rnd = random.Random(seed)
    while True:
        for r in rnd.sample(range(n_rounds), n_rounds):
            ops = list(range(r * round_len, (r + 1) * round_len))
            rnd.shuffle(ops)
            yield ops
