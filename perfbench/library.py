"""The library workloads: spectrum-scan and readout-stream.

Each drives the public API on a recorded pool of seeded inputs. Outputs are
reduced to a list of floats (compared within FLOAT_RTOL) and a list of exact
strings (hashes, error messages), and checked against the reference values
recorded at the benchmark's defining commit by ``record_refs.py``.

Functions are looked up on their modules at call time, so the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from quantromon import analytic, numeric, params, readout

from common import CONFIG_DIR, POOL_SEED, REFS_DIR, pool_rounds, same_float


def _config(root: Path, name: str) -> dict:
    return json.loads((root / CONFIG_DIR / f"{name}.json").read_text())


def _circuit(row) -> params.CircuitParams:
    l_j, c_j, l_r, c_r, b, d_j = (float(x) for x in row)
    return params.CircuitParams(l_j=l_j, c_j=c_j, l_r=l_r, c_r=c_r, b=b, d_j=d_j)


class LibraryWorkload:
    name = ""
    round_len = 1

    def __init__(self, root: Path, tmp: Path, inputs: np.ndarray | None = None):
        self.root = root
        self.tmp = tmp
        if inputs is None:
            with np.load(REFS_DIR / f"{self.name}.npz", allow_pickle=False) as refs:
                inputs = refs["inputs"]
                self.ref_floats = refs["floats"]
                self.ref_exact = refs["exact"]
        self.inputs = inputs

    def rounds(self, seed: int):
        # the round's largest op opens it: the heap that op meets, and so the
        # peak RSS, would otherwise depend on the order the seed drew
        for ops in pool_rounds(len(self.inputs) // self.round_len, self.round_len, seed):
            largest = max(ops, key=self.size)
            ops.sort(key=lambda i: i != largest)
            yield ops

    def exact(self, out) -> list[str]:
        return []

    def check(self, i: int, out) -> bool:
        values = self.floats(out)
        return (self.exact(out) == [str(s) for s in self.ref_exact[i]]
                and len(values) == len(self.ref_floats[i])
                and all(same_float(v, float(r)) for v, r in zip(values, self.ref_floats[i])))

    def facts(self, ops: list[int]) -> dict:
        return {}


# ---------------------------------------------------------------------------

_SPECTRUM_FIELDS = ("omega_q_t", "omega_r_t", "alpha_q", "two_chi", "g_asymm",
                    "two_chi_total")


class SpectrumScan(LibraryWorkload):
    """One op: derive_energies, dressed_spectrum and numeric_spectrum of one device.

    A round holds one op at each truncation 12x12 .. 30x30, so every run has the
    same mix of matrix sizes. Devices come from a box on the dispersive side of
    reference_device.json (each factor lowers the qubit or raises the
    resonator): a box centred on the reference reaches the straddling regime,
    where invert_chi raises UnphysicalRegimeError by design.
    """

    name = "spectrum-scan"
    speed_exponent = 0.66  # host-speed exponent of op times (speed.py), fitted by fit_probes.py
    truncs = tuple(range(12, 31))
    round_len = len(truncs)
    pool_rounds = 32
    box = {"l_j": (1.0, 1.3), "c_j": (1.0, 1.1), "l_r": (0.95, 1.0),
           "c_r": (0.95, 1.0), "b": (0.95, 1.05)}

    @classmethod
    def make_inputs(cls, root: Path) -> np.ndarray:
        ref = _config(root, "reference_device")["circuit"]
        rnd = random.Random(POOL_SEED)
        rows = []
        for r in range(cls.pool_rounds):
            for n in cls.truncs:
                device = [ref[k] * rnd.uniform(*cls.box[k]) for k in cls.box]
                # half the devices have symmetric junctions (extra parity symmetry)
                d_j = 0.0 if (r + n) % 2 == 0 else rnd.choice((-1.0, 1.0)) * rnd.uniform(0.01, 0.1)
                rows.append(device + [d_j, float(n)])
        return np.array(rows)

    def warm_up(self):
        en = params.derive_energies(_circuit(self.inputs[0, :6]))
        analytic.dressed_spectrum(en)
        numeric.numeric_spectrum(en, numeric.Truncation(12, 12))

    def kind(self, i: int) -> str:
        return f"{int(self.inputs[i, 6])}x{int(self.inputs[i, 6])}"

    def size(self, i: int) -> float:
        return self.inputs[i, 6]

    def op(self, i: int):
        row = self.inputs[i]
        n = int(row[6])
        en = params.derive_energies(_circuit(row[:6]))
        return (analytic.dressed_spectrum(en),
                numeric.numeric_spectrum(en, numeric.Truncation(n, n)))

    def floats(self, out) -> list[float]:
        return [float(getattr(s, f)) for s in out for f in _SPECTRUM_FIELDS]

    def facts(self, ops: list[int]) -> dict:
        zero = sum(self.inputs[i, 5] == 0.0 for i in ops)
        return {"d_j_zero_share": zero / len(ops) if ops else 0.0}


# ---------------------------------------------------------------------------

_FIT_FIELDS = ("mu0", "mu1", "sigma0", "sigma1", "a0", "a1", "residual_norm")
_REPORT_FIELDS = ("threshold", "p01", "p10", "fidelity", "eps_id", "eps_01", "eps_10")
_POINT_FIELDS = ("fidelity", "eps_id", "eps_01", "eps_10", "degenerate")


def _values_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


class ReadoutStream(LibraryWorkload):
    """One op: a readout batch of both states through simulate, CSV export and
    import, fit, threshold and fidelity report.

    A round is four 50k, eight 200k and one 1M-shot batch; the 1M batch also
    runs error_vs_integration with the seven taus of sample_c.json. A round
    takes 10-20 s on a 2-core Xeon VM, so a 30 s run holds two to four
    rounds, and the median and the tail fall inside the 200k kind either way.
    """

    name = "readout-stream"
    speed_exponent = 1.09  # host-speed exponent of op times (speed.py), fitted by fit_probes.py
    shot_counts = (50_000,) * 4 + (200_000,) * 8 + (1_000_000,)
    round_len = len(shot_counts)
    pool_rounds = 16

    def __init__(self, root: Path, tmp: Path, inputs: np.ndarray | None = None):
        super().__init__(root, tmp, inputs)
        cfg = _config(root, "sample_c")
        self.params = readout.ReadoutParams(**cfg["readout"])
        self.tau_list = list(cfg["readout_sim"]["tau_list"])
        self.evi_shots = cfg["readout_sim"]["n_shots"]

    @classmethod
    def make_inputs(cls, root: Path) -> np.ndarray:
        rnd = random.Random(POOL_SEED)
        return np.array([[n, rnd.randrange(2**31)]
                         for _ in range(cls.pool_rounds) for n in cls.shot_counts],
                        dtype=np.int64)

    def warm_up(self):
        self._batch(2000, 1, with_evi=False)

    def kind(self, i: int) -> str:
        return f"{int(self.inputs[i, 0])}"

    def size(self, i: int) -> float:
        return self.inputs[i, 0]

    def op(self, i: int):
        n_shots, seed = (int(x) for x in self.inputs[i])
        return self._batch(n_shots, seed, with_evi=n_shots == self.shot_counts[-1])

    def _batch(self, n_shots: int, seed: int, with_evi: bool):
        shots = [readout.simulate_shots(self.params, state, n_shots, seed) for state in (0, 1)]
        paths = [self.tmp / f"shots{state}.csv" for state in (0, 1)]
        for s, path in zip(shots, paths):
            readout.export_shots_csv(s, path)
        imported = [readout.import_shots_csv(path) for path in paths]
        fit = readout.fit_double_gaussian(*imported)
        report = readout.fidelity_report(*imported, fit, readout.threshold(fit))
        evi = (readout.error_vs_integration(self.params, self.tau_list, self.evi_shots, seed)
               if with_evi else None)
        return shots, imported, fit, report, evi

    def floats(self, out) -> list[float]:
        _, _, fit, report, evi = out
        values = [getattr(fit, f) for f in _FIT_FIELDS]
        values += [getattr(report, f) for f in _REPORT_FIELDS]
        for k in range(len(self.tau_list)):
            values += ([getattr(evi[k], f) for f in _POINT_FIELDS] if evi
                       else [float("nan")] * len(_POINT_FIELDS))
        return [float(v) for v in values]

    def exact(self, out) -> list[str]:
        shots, imported, _, _, _ = out
        round_trip = all(
            np.array_equal(s.values, r.values) and s.seed == r.seed
            and s.prepared_state == r.prepared_state and s.params == r.params
            for s, r in zip(shots, imported))
        return [_values_digest(s.values) for s in shots] + [
            "round-trip exact" if round_trip else "round-trip differs"]


WORKLOADS = {w.name: w for w in (SpectrumScan, ReadoutStream)}
