"""Command-line interface: strict JSON configs in, CSV/JSON tables out.

Subcommands: energies, spectrum, chi-sweep, t1-model, readout-sim,
readout-fit, phase. Each has its own parser, which takes --out, --format and
only the flags the command reads (``_COMMANDS``); argparse refuses any other
flag. Exit codes: 0 success, 1 usage, validation or config error,
2 numerical failure. Numeric output is written with full round-trip decimal
precision and LF line endings so reruns with identical config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .analytic import SpectrumResult, dressed_spectrum, phase_separation
from .coherence import CoherenceConfig
from .errors import NumericalError, ParameterError, check_key_word, is_int
from .flux import FluxConfig, junction_energies, sweep
from .params import (CircuitParams, ModeEnergies, ReadoutParams, derive_energies,
                     regime_warnings)

# numeric and readout load numpy; each command that runs them imports them
# itself, so energies, chi-sweep and t1-model start without numpy

__all__ = ["main", "run", "load_config", "normalize_config", "RunConfig"]


# cap on readout_sim.n_shots: a readout-sim peaks in the mixture fit, near
# 46 MiB per 1M shots (both shot sets, their pooled copy and a temporary;
# tracemalloc, sample_c.json); simulate_shots holds 8 bytes a shot and one
# chunk of randoms
MAX_SHOTS = 10**7


class _SimOptionsFields(NamedTuple):
    n_shots: int = 20000
    seed: int = 0
    tau_list: tuple[float, ...] = ()


class SimOptions(_SimOptionsFields):
    """``readout_sim`` settings; ``--shots``/``--seed`` replace the first two.

    ``n_shots`` is at most :data:`MAX_SHOTS`, about 0.45 GiB at the peak of
    a run, in :func:`~quantromon.readout.fit_double_gaussian`; every
    ``tau_list`` entry is finite and > 0. The checks run again on ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (is_int(self.n_shots) and 1 <= self.n_shots <= MAX_SHOTS):
            raise ParameterError(
                f"readout_sim.n_shots must be an integer in [1, {MAX_SHOTS}], "
                f"got {self.n_shots!r}")
        check_key_word("readout_sim.seed", self.seed)
        for tau in self.tau_list:
            if not 0.0 < tau < math.inf:
                raise ParameterError(
                    f"readout_sim.tau_list entries must be finite and > 0, got {tau!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RunConfig(NamedTuple):
    energies: ModeEnergies | None = None
    flux: FluxConfig | None = None
    coherence: CoherenceConfig | None = None
    readout: ReadoutParams | None = None
    n_list: tuple[int, ...] = ()
    sim: SimOptions = SimOptions()


_SECTIONS = {
    "description": None,
    "circuit": set(CircuitParams._fields),
    # flux.n is still accepted and checked for compatibility with older
    # configs; no command reads it, since sweeps take sweep.n_list
    "flux": {*FluxConfig._fields, "n"},
    "coherence": set(CoherenceConfig._fields),
    "readout": set(ReadoutParams._fields),
    "sweep": {"n_list"},
    "readout_sim": set(SimOptions._fields),
}


def _require_number(section: str, key: str, value, allow_none: bool = False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{section}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range, read as json reads 1e400
        return math.inf if value > 0 else -math.inf


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict: reject unknown keys, check basic types.

    Returns a normalized copy (same content, canonical key order); feeding the
    result back through is the identity.
    """
    if not isinstance(raw, dict):
        raise ParameterError("config root must be a JSON object")
    out: dict = {}
    for section, content in raw.items():
        if section not in _SECTIONS:
            raise ParameterError(f"unknown config section {section!r}")
        if section == "description":
            if not isinstance(content, str):
                raise ParameterError("description must be a string")
            out[section] = content
            continue
        if not isinstance(content, dict):
            raise ParameterError(f"section {section!r} must be a JSON object")
        allowed = _SECTIONS[section]
        for key in content:
            if key not in allowed:
                raise ParameterError(f"unknown key {section}.{key}")
        out[section] = {k: content[k] for k in sorted(content)}
    return out


def _parse_numbers(name: str, cls, section: dict):
    """Build ``cls`` from a section of numbers: fields without a default are
    required, and ``null`` is allowed where the default is ``None``."""
    defaults = cls._field_defaults
    missing = sorted(key for key in cls._fields if key not in defaults and key not in section)
    if missing:
        raise ParameterError(f"{name} section missing keys: {missing}")
    return cls(**{key: _require_number(name, key, section[key],
                                       allow_none=key in defaults and defaults[key] is None)
                  for key in cls._fields if key in section})


def _parse_flux(section: dict, energies: ModeEnergies | None) -> FluxConfig:
    e_j1 = _require_number("flux", "e_j1_zero", section.get("e_j1_zero"), allow_none=True)
    e_j2 = _require_number("flux", "e_j2_zero", section.get("e_j2_zero"), allow_none=True)
    if e_j1 is None or e_j2 is None:
        if energies is None:
            raise ParameterError(
                "flux.e_j1_zero/e_j2_zero are null and no circuit section is "
                "present to derive them from"
            )
        derived = junction_energies(energies)
        e_j1 = derived[0] if e_j1 is None else e_j1
        e_j2 = derived[1] if e_j2 is None else e_j2
    n = section.get("n", 0)
    if not is_int(n):
        raise ParameterError(f"flux.n must be an integer, got {n!r}")
    return FluxConfig(
        mode=section.get("mode", "fixed"), e_j1_zero=e_j1, e_j2_zero=e_j2,
        area_ratio_a=_require_number("flux", "area_ratio_a",
                                     section.get("area_ratio_a", 0.0)),
    )


def _parse_n_list(section: dict) -> tuple[int, ...]:
    n_list = section.get("n_list", [])
    if not isinstance(n_list, list) or not all(map(is_int, n_list)):
        raise ParameterError("sweep.n_list must be a list of integers")
    return tuple(n_list)


def _parse_sim(section: dict) -> SimOptions:
    tau_list = section.get("tau_list", [])
    if not isinstance(tau_list, list):
        raise ParameterError("readout_sim.tau_list must be a list of numbers")
    taus = tuple(_require_number("readout_sim", "tau_list", t) for t in tau_list)
    return SimOptions(**{**section, "tau_list": taus})


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # a ValueError: a byte that is not UTF-8, text that is not JSON, or an
        # integer past Python's digit limit; a RecursionError: nesting past
        # the recursion limit
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
    data = normalize_config(raw)
    energies = None
    if "circuit" in data:
        # the one range check and energy derivation of the circuit, for every
        # command; it also rejects an element whose energy is not finite and > 0
        energies = derive_energies(_parse_numbers("circuit", CircuitParams, data["circuit"]))
    return RunConfig(
        energies=energies,
        flux=_parse_flux(data["flux"], energies) if "flux" in data else None,
        coherence=(_parse_numbers("coherence", CoherenceConfig, data["coherence"])
                   if "coherence" in data else None),
        readout=(_parse_numbers("readout", ReadoutParams, data["readout"])
                 if "readout" in data else None),
        n_list=_parse_n_list(data["sweep"]) if "sweep" in data else (),
        sim=_parse_sim(data["readout_sim"]) if "readout_sim" in data else SimOptions(),
    )


def _need(value, section: str, command: str):
    if value is None:
        raise ParameterError(f"command {command!r} requires a {section!r} config section")
    return value


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):  # JSON has no nan or inf
        return None
    return value


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    if fmt == "json":
        payload = [{k: _json_safe(v) for k, v in row.items()} for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        writer_rows = [list(rows[0].keys())] + [
            [_cell(v) for v in row.values()] for row in rows
        ]
        sio = io.StringIO()
        writer = csv.writer(sio, lineterminator="\n")
        writer.writerows(writer_rows)
        text = sio.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_energies(cfg: RunConfig, args) -> list[dict]:
    en = _need(cfg.energies, "circuit", "energies")
    return [{**en._asdict(), "warnings": " | ".join(regime_warnings(en))}]


def _integer(text: str) -> int:
    """An integer flag value: an optional ``-`` and ASCII digits. ``int()``
    alone also takes ``_`` separators, a ``+`` sign, surrounding spaces and
    the digits of other scripts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"must be ASCII digits with an optional leading '-', got {text!r}")
    return int(text)


def _parse_trunc(spec: str | None):
    from .numeric import Truncation

    if spec is None:
        return Truncation()
    try:
        n_q, n_r = (_integer(part) for part in spec.lower().split("x"))
    except (ValueError, argparse.ArgumentTypeError):
        raise ParameterError(f"--trunc must look like '12x12', got {spec!r}") from None
    return Truncation(n_q=n_q, n_r=n_r)


def _cmd_spectrum(cfg: RunConfig, args) -> list[dict]:
    from .numeric import numeric_spectrum

    en = _need(cfg.energies, "circuit", "spectrum")
    ana = dressed_spectrum(en)
    num = numeric_spectrum(en, _parse_trunc(args.trunc))
    rows = []
    for quantity, a, n in zip(SpectrumResult._fields, ana, num):
        rel = abs(n - a) / abs(a) if a != 0.0 else (0.0 if n == a else math.inf)
        rows.append({"quantity": quantity, "analytic": a, "numeric": n,
                     "rel_delta": rel})
    return rows


# the columns each sweep command prints, in order
_SWEEP_COLUMNS = {
    "chi-sweep": ("n", "e_jsigma", "d_j", "omega_q_t", "delta", "two_chi_total",
                  "t1_model", "error"),
    "t1-model": ("n", "omega_q_t", "delta", "t1_diel", "t1_asymm", "t1_model",
                 "t1_transmon_purcell", "error"),
}


def _cmd_sweep(cfg: RunConfig, args) -> list[dict]:
    """chi-sweep and t1-model: two column views of one flux sweep."""
    en = _need(cfg.energies, "circuit", args.command)
    flux_cfg = _need(cfg.flux, "flux", args.command)
    coherence = _need(cfg.coherence, "coherence", args.command)
    if not cfg.n_list:
        raise ParameterError(f"command {args.command!r} requires sweep.n_list")
    # the circuit and coherence sections were range-checked when the config
    # was loaded, so a row carries only a failure of its own flux point
    columns = _SWEEP_COLUMNS[args.command]
    return [{c: getattr(row, c) for c in columns}
            for row in sweep(en, flux_cfg, list(cfg.n_list), coherence)]


def _fit_row(shots0, shots1) -> dict:
    """The mixture fit and the fidelity report of two shot sets, as one row."""
    from .readout import fidelity_report, fit_double_gaussian, threshold

    fit = fit_double_gaussian(shots0, shots1)
    report = fidelity_report(shots0, shots1, fit, threshold(fit))
    return {**fit._asdict(), **report._asdict()}


def _cmd_readout_sim(cfg: RunConfig, args) -> list[dict]:
    """Simulated shots (written next to --out) plus either the single-point
    fidelity report or, when readout_sim.tau_list is set, the per-tau error
    table."""
    from .readout import error_vs_integration, export_shots_csv, simulate_shots

    p = _need(cfg.readout, "readout", "readout-sim")
    flags = {"n_shots": args.shots, "seed": args.seed}
    sim = cfg.sim._replace(**{k: v for k, v in flags.items() if v is not None})
    n_shots, seed = sim.n_shots, sim.seed
    # the base shot sets are simulated only when they are exported or fitted
    if args.out is not None or not sim.tau_list:
        shots0 = simulate_shots(p, 0, n_shots, seed)
        shots1 = simulate_shots(p, 1, n_shots, seed)
        if args.out is not None:
            out_dir = Path(args.out).parent
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = Path(args.out).stem
            export_shots_csv(shots0, out_dir / f"{stem}_shots0.csv")
            export_shots_csv(shots1, out_dir / f"{stem}_shots1.csv")
        if not sim.tau_list:
            return [{"n_shots": n_shots, "seed": seed, "tau": p.tau,
                     **_fit_row(shots0, shots1)}]
        del shots0, shots1  # exported; the per-tau table simulates its own
    return [{"n_shots": n_shots, "seed": seed, **point._asdict()}
            for point in error_vs_integration(p, list(sim.tau_list), n_shots, seed)]


def _cmd_readout_fit(cfg: RunConfig, args) -> list[dict]:
    from .readout import import_shots_csv

    if args.shots0 is None or args.shots1 is None:
        raise ParameterError("command 'readout-fit' requires --shots0 and --shots1")
    shot_sets = []
    for state, path in enumerate((args.shots0, args.shots1)):
        shots = import_shots_csv(path)
        # swapped files would fit with the states exchanged, one file twice
        # would fail as a collapsed fit; both are faults of the input
        if shots.prepared_state != state:
            raise ParameterError(f"--shots{state} takes state-{state} shots, but {path} "
                                 f"holds prepared_state={shots.prepared_state}")
        shot_sets.append(shots)
    return [_fit_row(*shot_sets)]


def _cmd_phase(cfg: RunConfig, args) -> list[dict]:
    p = _need(cfg.readout, "readout", "phase")
    sep = phase_separation(p.two_chi, p.kappa_ext, p.kappa_int)
    return [{"two_chi": p.two_chi, "kappa_ext": p.kappa_ext,
             "kappa_int": p.kappa_int, "separation_deg": sep}]


# each command's flags besides --out and --format; argparse refuses any other
_FLAGS = {
    "--config": {"required": True, "help": "JSON run configuration"},
    "--seed": {"type": _integer, "help": "override readout_sim.seed"},
    "--trunc": {"help": "Fock truncation as <nq>x<nr>"},
    "--shots": {"type": _integer, "help": "override readout_sim.n_shots"},
    "--shots0": {"help": "state-0 shot CSV"},
    "--shots1": {"help": "state-1 shot CSV"},
}

_COMMANDS = {
    "energies": (_cmd_energies, ("--config",)),
    "spectrum": (_cmd_spectrum, ("--config", "--trunc")),
    "chi-sweep": (_cmd_sweep, ("--config",)),
    "t1-model": (_cmd_sweep, ("--config",)),
    "readout-sim": (_cmd_readout_sim, ("--config", "--seed", "--shots")),
    "readout-fit": (_cmd_readout_fit, ("--shots0", "--shots1")),
    "phase": (_cmd_phase, ("--config",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantromon",
        description="Spectrum, coherence, and readout pipelines for the "
                    "quantromon qubit-resonator circuit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        command = commands.add_parser(name)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
        command.add_argument("--out", help="output file (stdout when omitted)")
        command.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code == 0 else 1
    try:
        if args.out is not None:
            # a trailing separator names a directory even when none exists yet
            if args.out.endswith((os.sep, os.altsep or os.sep)) or Path(args.out).is_dir():
                raise ParameterError(f"--out names a directory, not a file: {args.out}")
            if any(p.exists() and not p.is_dir() for p in Path(args.out).parents):
                raise ParameterError(f"--out lies under a file, not a directory: {args.out}")
        cfg = load_config(args.config) if "config" in args else RunConfig()
        rows = _COMMANDS[args.command][0](cfg, args)
        _emit(rows, args.out, args.format)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    # numpy is not loaded yet, so this default reaches its BLAS: one thread
    # keeps the small eigensolves of a spectrum from stalling on a busy core
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
