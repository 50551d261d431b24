"""Command-line interface: strict JSON configs in, CSV/JSON tables out.

Subcommands: energies, spectrum, chi-sweep, t1-model, readout-sim,
readout-fit, phase. Exit codes: 0 success, 1 validation/config error,
2 numerical failure. Numeric output is written with full round-trip decimal
precision and LF line endings so reruns with identical config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .analytic import dressed_spectrum
from .coherence import CoherenceConfig
from .errors import ConfigError, NumericalError, ParameterError
from .flux import FluxConfig, FluxMode, junction_energies, sweep
from .params import (CircuitParams, ModeEnergies, ReadoutParams, derive_energies,
                     regime_warnings)

# numeric and readout load numpy; each command that runs them imports them
# itself, so energies, chi-sweep and t1-model start without numpy

__all__ = ["main", "run", "load_config", "normalize_config", "RunConfig"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# cap on readout_sim.n_shots: simulate_shots peaks near 77 MiB per 1M shots
# of the excited state (tracemalloc, sample_c.json)
MAX_SHOTS = 10**7


@dataclass(frozen=True)
class SimOptions:
    """``readout_sim`` settings; ``--shots``/``--seed`` replace the first two.

    ``n_shots`` is at most :data:`MAX_SHOTS`, about 0.75 GiB at the peak of
    one :func:`~quantromon.readout.simulate_shots` call; every ``tau_list``
    entry is finite and > 0.
    """

    n_shots: int = 20000
    seed: int = 0
    tau_list: tuple[float, ...] = ()

    def __post_init__(self):
        if not (_is_int(self.n_shots) and 1 <= self.n_shots <= MAX_SHOTS):
            raise ConfigError(
                f"readout_sim.n_shots must be an integer in [1, {MAX_SHOTS}], "
                f"got {self.n_shots!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(
                f"readout_sim.seed must be an integer in [0, 2**64), got {self.seed!r}")
        for tau in self.tau_list:
            if not 0.0 < tau < math.inf:
                raise ConfigError(
                    f"readout_sim.tau_list entries must be finite and > 0, got {tau!r}")


@dataclass(frozen=True)
class RunConfig:
    energies: ModeEnergies | None = None
    flux: FluxConfig | None = None
    coherence: CoherenceConfig | None = None
    readout: ReadoutParams | None = None
    n_list: tuple[int, ...] = ()
    sim: SimOptions = SimOptions()


def _keys(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


_SECTIONS = {
    "description": None,
    "circuit": _keys(CircuitParams),
    # flux.n is still accepted and checked for compatibility with older
    # configs; no command reads it, since sweeps take sweep.n_list
    "flux": _keys(FluxConfig) | {"n"},
    "coherence": _keys(CoherenceConfig),
    "readout": _keys(ReadoutParams),
    "sweep": {"n_list"},
    "readout_sim": _keys(SimOptions),
}


def _require_number(section: str, key: str, value, allow_none: bool = False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict: reject unknown keys, check basic types.

    Returns a normalized copy (same content, canonical key order); feeding the
    result back through is the identity.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    out: dict = {}
    for section, content in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if section == "description":
            if not isinstance(content, str):
                raise ConfigError("description must be a string")
            out[section] = content
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a JSON object")
        allowed = _SECTIONS[section]
        for key in content:
            if key not in allowed:
                raise ConfigError(f"unknown key {section}.{key}")
        out[section] = {k: content[k] for k in sorted(content)}
    return out


def _parse_numbers(name: str, cls, section: dict):
    """Build ``cls`` from a section of numbers: fields without a default are
    required, and ``null`` is allowed where the default is ``None``."""
    fields = dataclasses.fields(cls)
    missing = sorted(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.name not in section)
    if missing:
        raise ConfigError(f"{name} section missing keys: {missing}")
    return cls(**{f.name: _require_number(name, f.name, section[f.name],
                                          allow_none=f.default is None)
                  for f in fields if f.name in section})


def _parse_flux(section: dict, energies: ModeEnergies | None) -> FluxConfig:
    mode_raw = section.get("mode", "fixed")
    try:
        mode = FluxMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"flux.mode must be one of {[m.value for m in FluxMode]}, got {mode_raw!r}"
        ) from None
    e_j1 = _require_number("flux", "e_j1_zero", section.get("e_j1_zero"), allow_none=True)
    e_j2 = _require_number("flux", "e_j2_zero", section.get("e_j2_zero"), allow_none=True)
    if e_j1 is None or e_j2 is None:
        if energies is None:
            raise ConfigError(
                "flux.e_j1_zero/e_j2_zero are null and no circuit section is "
                "present to derive them from"
            )
        derived = junction_energies(energies)
        e_j1 = derived[0] if e_j1 is None else e_j1
        e_j2 = derived[1] if e_j2 is None else e_j2
    n = section.get("n", 0)
    if not _is_int(n):
        raise ConfigError(f"flux.n must be an integer, got {n!r}")
    return FluxConfig(
        mode=mode, e_j1_zero=e_j1, e_j2_zero=e_j2,
        area_ratio_a=_require_number("flux", "area_ratio_a",
                                     section.get("area_ratio_a", 0.0)),
    )


def _parse_n_list(section: dict) -> tuple[int, ...]:
    n_list = section.get("n_list", [])
    if not isinstance(n_list, list) or not all(map(_is_int, n_list)):
        raise ConfigError("sweep.n_list must be a list of integers")
    return tuple(n_list)


def _parse_sim(section: dict) -> SimOptions:
    tau_list = section.get("tau_list", [])
    if not isinstance(tau_list, list):
        raise ConfigError("readout_sim.tau_list must be a list of numbers")
    taus = tuple(_require_number("readout_sim", "tau_list", t) for t in tau_list)
    return SimOptions(**{**section, "tau_list": taus})


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
        raise ConfigError(f"command {command!r} requires a {section!r} config section")
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
        with open(path, "w", newline="") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_energies(cfg: RunConfig, args) -> list[dict]:
    en = _need(cfg.energies, "circuit", "energies")
    return [{**dataclasses.asdict(en), "warnings": " | ".join(regime_warnings(en))}]


def _parse_trunc(spec: str | None):
    from .numeric import Truncation

    if spec is None:
        return Truncation()
    try:
        n_q, n_r = (int(part) for part in spec.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--trunc must look like '12x12', got {spec!r}") from None
    return Truncation(n_q=n_q, n_r=n_r)


def _cmd_spectrum(cfg: RunConfig, args) -> list[dict]:
    from .numeric import numeric_spectrum

    en = _need(cfg.energies, "circuit", "spectrum")
    ana = dressed_spectrum(en)
    num = numeric_spectrum(en, _parse_trunc(args.trunc))
    rows = []
    for name in ("omega_q_t", "omega_r_t", "alpha_q", "two_chi", "g_asymm",
                 "two_chi_total"):
        a = getattr(ana, name)
        n = getattr(num, name)
        rel = abs(n - a) / abs(a) if a != 0.0 else (0.0 if n == a else math.inf)
        rows.append({"quantity": name, "analytic": a, "numeric": n,
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
        raise ConfigError(f"command {args.command!r} requires sweep.n_list")
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
    return {**dataclasses.asdict(fit), **dataclasses.asdict(report)}


def _cmd_readout_sim(cfg: RunConfig, args) -> list[dict]:
    """Simulated shots (written next to --out) plus either the single-point
    fidelity report or, when readout_sim.tau_list is set, the per-tau error
    table."""
    from .readout import error_vs_integration, export_shots_csv, simulate_shots

    p = _need(cfg.readout, "readout", "readout-sim")
    flags = {"n_shots": args.shots, "seed": args.seed}
    sim = dataclasses.replace(cfg.sim, **{k: v for k, v in flags.items() if v is not None})
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
    rows = []
    for point in error_vs_integration(p, list(sim.tau_list), n_shots, seed):
        row = {"n_shots": n_shots, "seed": seed}
        row.update(dataclasses.asdict(point))
        rows.append(row)
    return rows


def _cmd_readout_fit(cfg: RunConfig, args) -> list[dict]:
    from .readout import import_shots_csv

    if args.shots0 is None or args.shots1 is None:
        raise ConfigError("command 'readout-fit' requires --shots0 and --shots1")
    for path in (args.shots0, args.shots1):
        if not Path(path).is_file():
            raise ConfigError(f"shot file not found: {path}")
    return [_fit_row(import_shots_csv(args.shots0), import_shots_csv(args.shots1))]


def _cmd_phase(cfg: RunConfig, args) -> list[dict]:
    from .readout import phase_separation

    p = _need(cfg.readout, "readout", "phase")
    sep = phase_separation(p.two_chi, p.kappa_ext, p.kappa_int)
    return [{"two_chi": p.two_chi, "kappa_ext": p.kappa_ext,
             "kappa_int": p.kappa_int, "separation_deg": sep}]


_COMMANDS = {
    "energies": _cmd_energies,
    "spectrum": _cmd_spectrum,
    "chi-sweep": _cmd_sweep,
    "t1-model": _cmd_sweep,
    "readout-sim": _cmd_readout_sim,
    "readout-fit": _cmd_readout_fit,
    "phase": _cmd_phase,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantromon",
        description="Spectrum, coherence, and readout pipelines for the "
                    "quantromon qubit-resonator circuit.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=None, help="override readout_sim.seed")
    parser.add_argument("--trunc", default=None, help="Fock truncation as <nq>x<nr>")
    parser.add_argument("--shots", type=int, default=None, help="override readout_sim.n_shots")
    parser.add_argument("--shots0", default=None, help="state-0 shot CSV (readout-fit)")
    parser.add_argument("--shots1", default=None, help="state-1 shot CSV (readout-fit)")
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code == 0 else 1
    try:
        # a trailing separator names a directory even when none exists yet
        if args.out is not None and (args.out.endswith((os.sep, os.altsep or os.sep))
                                     or Path(args.out).is_dir()):
            raise ConfigError(f"--out names a directory, not a file: {args.out}")
        if args.command == "readout-fit" and args.config is None:
            cfg = RunConfig()
        else:
            if args.config is None:
                raise ConfigError(f"command {args.command!r} requires --config")
            cfg = load_config(args.config)
        rows = _COMMANDS[args.command](cfg, args)
        _emit(rows, args.out, args.format)
    except (ConfigError, ParameterError) as exc:
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
