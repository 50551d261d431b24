"""Benchmark entry point for the quantromon pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in fresh interpreters with BLAS pinned to one thread and
``src`` on the import path. One workload process runs the closed loop; it
stops at evenly spaced points, and at each one set-up is timed in another
fresh workload process, so the set-up samples spread over the whole run
(median reported). Every time metric is scaled to nominal host speed by the
probes of ``speed.py`` taken around each op and each set-up; the unscaled
figures are in the result file. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics, both named and
ordered as in BENCHMARK.json. A result file with the environment stamp is
written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from common import BLAS_PINS, FLOAT_RTOL, POOL_SEED  # noqa: E402

SETUP_RUNS = 12         # set-ups per run, spread over it; setup_s is their median
WORKER_TIMEOUT_S = 150  # a stuck workload process is killed after this
STARTUP_RUNS = 5        # bare-interpreter starts for cli.python_startup_s
IMPORTTIME_RUNS = 3     # -X importtime runs for cli.import_s
READOUT_COMMANDS = ("readout-sim", "readout-fit")  # cli-mix children behind peak_rss_mb


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(root: Path, env: dict, argv: list[str]):
    """Start one workload process and wait for its READY line.

    Returns (process, watchdog, ready line, set-up seconds). The watchdog kills
    the process after WORKER_TIMEOUT_S; ``_stop`` ends both.
    """
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = proc.stdout.readline()
    return proc, watchdog, ready, time.perf_counter() - t0


def _stop(proc, watchdog) -> int:
    watchdog.cancel()
    if proc.poll() is None:
        proc.kill()
    code = proc.wait()
    proc.stdin.close()
    proc.stdout.close()
    return code


def _time_setup(root: Path, env: dict, argv: list[str], pre_probe: str) -> dict:
    """Set-up seconds of one fresh workload process that exits at READY, with their scale.

    ``pre_probe`` is the timed process's last probe before it paused; the
    set-up process probes again after READY, and the two bracket the set-up.
    """
    proc, watchdog, ready, setup_s = _start_worker(
        root, env, argv + ["--setup-only", "--pre-probe", pre_probe])
    try:
        rest = proc.stdout.read().split(maxsplit=2)
        proc.wait()
    finally:
        code = _stop(proc, watchdog)
    if ready.strip() != "READY" or code != 0 or len(rest) != 3 or rest[0] != "SCALE":
        raise BenchError(f"set-up process failed (exit {code}): {ready.strip()[:200]}")
    return {"s": setup_s, "scale": float(rest[1]),
            "before": json.loads(pre_probe), "after": json.loads(rest[2])}


def _run_worker(root: Path, env: dict, argv: list[str]) -> tuple[list[dict], dict]:
    """Run the timed workload process and, at each of its pauses, time one more set-up.

    The set-up samples so spread over the whole run. Returns the set-ups
    (the timed process's own first) and the process's result.
    """
    proc, watchdog, ready, setup_s = _start_worker(
        root, env, argv + ["--pauses", str(SETUP_RUNS - 1)])
    setups = [setup_s]
    try:
        line = proc.stdout.readline() if ready.strip() == "READY" else ""
        while line.startswith("PAUSE "):
            setups.append(_time_setup(root, env, argv, line[len("PAUSE "):].strip()))
            proc.stdin.write("GO\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        rest = line + proc.stdout.read()
        proc.wait()
    finally:
        code = _stop(proc, watchdog)
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise BenchError(f"workload process failed (exit {code}): {ready.strip()[:200]}")
    if len(setups) != SETUP_RUNS:
        raise BenchError(f"{len(setups)} set-ups timed, {SETUP_RUNS} expected")
    result = json.loads(lines[-1])
    setups[0] = {"s": setups[0], "scale": result["setup_scale"],
                 "before": None, "after": result["setup_probe"]}
    return setups, result


def _capture(cmd: list[str], **kwargs) -> str | None:
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def env_stamp(root: Path, seed: int, env: dict) -> dict:
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    lscpu = _capture(["lscpu"]) or ""
    fields = dict(re.findall(r"^([^:\n]+):\s*(.+)$", lscpu, flags=re.M))
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "quantromon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _capture(["git", "rev-parse", "HEAD"], cwd=root, env=git_env),
        "src_sha256": digest.hexdigest(),
        "nproc": _capture(["nproc"]),
        "cpu_model": fields.get("Model name"),
        "l2_cache": fields.get("L2 cache"),
        "l3_cache": fields.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_pins": {k: env[k] for k in BLAS_PINS},
        "workload_seed": seed,
        "pool_seed": POOL_SEED,
        "float_rtol": FLOAT_RTOL,
    }


def _median_wall(cmd: list[str], root: Path, env: dict, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_times(root: Path, env: dict) -> dict:
    """Median cumulative import seconds of quantromon and scipy.optimize (-X importtime)."""
    samples = {"quantromon": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_RUNS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quantromon"],
                             cwd=root, env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in samples:
            samples[name].append(cumulative.get(name, 0.0))  # 0: not imported
    return {name: statistics.median(v) for name, v in samples.items()}


def tail(lat: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond). With ten samples or fewer
    no such percentile exists and the maximum is returned with 0 beyond.
    """
    ordered = sorted(lat)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _time_metrics(lat: list[float], cpu: list[float], setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat)[0],
        "cpu_ms_per_op": 1e3 * sum(cpu) / len(lat),
    }


def _scaled(phase: dict) -> tuple[list[float], list[float]]:
    """Op wall and CPU seconds at nominal host speed."""
    return ([x * k for x, k in zip(phase["lat_s"], phase["scale"])],
            [x * k for x, k in zip(phase["cpu_s"], phase["scale"])])


def end_to_end(phase: dict, setups: list[dict], workload: str) -> tuple[dict, dict]:
    lat, cpu = _scaled(phase)
    _, pct, beyond = tail(lat)
    # cli-mix: the largest readout child. Every round runs readout-sim and
    # readout-fit on sample_c's fixed shot count; the spectrum children's peak
    # follows the seeded truncation instead (spectrum-scan covers numeric)
    rss_kb = (max(rss for kind, rss in zip(phase["kinds"], phase["child_rss_kb"])
                  if kind in READOUT_COMMANDS)
              if workload == "cli-mix" else phase["rss_kb"])
    values = _time_metrics(lat, cpu, [x["s"] * x["scale"] for x in setups])
    values["peak_rss_mb"] = rss_kb / 1024.0
    values["failed_frac"] = phase["failed"] / phase["ops"]
    by_kind: dict[str, list[tuple[float, int]]] = {}
    for kind, x, rss in zip(phase["kinds"], lat, phase["child_rss_kb"]):
        by_kind.setdefault(kind, []).append((x, rss))
    notes = {"tail_percentile": pct, "tail_samples_beyond": beyond, "ops": phase["ops"],
             "unscaled": _time_metrics(phase["lat_s"], phase["cpu_s"], [x["s"] for x in setups]),
             "op_scale_quartiles": statistics.quantiles(phase["scale"], n=4),
             "p50_ms_by_kind": {k: [len(v), 1e3 * statistics.median(x for x, _ in v)]
                                for k, v in sorted(by_kind.items())}}
    if workload == "cli-mix":
        notes["child_peak_rss_mb_by_kind"] = {k: max(r for _, r in v) / 1024.0
                                              for k, v in sorted(by_kind.items())}
    return values, notes


def per_layer(result: dict, startup_s: float, imports: dict, names: list[str]) -> dict:
    """Per-layer metrics of the traced half: self seconds and counts per op."""
    untraced, traced = result["phases"]["untraced"], result["phases"]["traced"]
    layers = result["layers"]
    n = traced["ops"]
    walls: dict[str, list[float]] = {}
    for kind, lat in zip(untraced["kinds"], untraced["lat_s"]):
        walls.setdefault(kind, []).append(lat)
    values = {
        "cli.python_startup_s": startup_s,
        "cli.import_s": imports["quantromon"],
        "cli.scipy_optimize_import_s": imports["scipy.optimize"],
        "cli.nonzero_exits": untraced["nonzero_exits"] + traced["nonzero_exits"],
        # scaled op time, so that a change of host speed between the halves cancels
        "trace.overhead_frac": 1.0 - (traced["ops"] / sum(_scaled(traced)[0]))
        / (untraced["ops"] / sum(_scaled(untraced)[0])),
    }
    for name in names:
        if name in values:
            continue
        if name.startswith("cli.") and name.endswith("_s"):
            # wall seconds per invocation of one CLI command (cli-mix only)
            samples = walls.get(name[len("cli."):-len("_s")], []) if result["workload"] == "cli-mix" else []
            values[name] = statistics.median(samples) if samples else 0.0
        elif name.endswith("_s"):
            values[name] = layers["self_ns"].get(name[:-2], 0) * 1e-9 / n
        elif name.endswith("_calls"):
            values[name] = layers["calls"].get(name[:-len("_calls")], 0) / n
        else:
            values[name] = layers["counts"].get(name, 0) / n
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "quantromon" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a quantromon checkout "
              "(src/quantromon and BENCHMARK.json are missing here)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = _env(root)
    results_dir = root / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups, result = _run_worker(
            root, env, worker_args + ["--spans", str(results_dir / f"{stem}-spans.json")])
        result["workload"] = args.workload
        e2e, notes = end_to_end(result["phases"]["untraced"], setups, args.workload)
        metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
        if args.trace:
            startup = _median_wall([sys.executable, "-c", "pass"], root, env, STARTUP_RUNS)
            values = per_layer(result, startup, _import_times(root, env),
                               [m["name"] for m in metric_spec])
        else:
            values = e2e
        missing = [m["name"] for m in metric_spec if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    phases = result["phases"]
    attempted = sum(p["ops"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": env_stamp(root, args.seed, env),
              "end_to_end": e2e, "notes": notes, "metrics": metrics,
              "facts": phases["untraced"]["facts"], "wrapped": result.get("wrapped"),
              "errors": [e for p in phases.values() for e in p["errors"]],
              "op_samples": {k: phases["untraced"][k]
                             for k in ("kinds", "lat_s", "cpu_s", "probes")},
              "setup_samples": setups}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, value in e2e.items():
        raw = notes["unscaled"].get(name)
        print(f"  {name:<14} {value:.6g}" + ("" if raw is None else f"  (unscaled {raw:.6g})"))
    print(f"  op_tail_ms is p{notes['tail_percentile']:.1f} "
          f"({notes['tail_samples_beyond']} samples beyond, {notes['ops']} ops)")
    for name, value in record["facts"].items():
        print(f"  {name} {value:.4g}")
    for err in record["errors"][:5]:
        print(f"  failure: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
