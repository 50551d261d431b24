"""One workload process, started by ``run.py`` in a fresh interpreter.

Sets up (imports, inputs, warm-up), prints ``READY``, then runs a closed
loop (one op in flight) for the given seconds in whole rounds, checking each
op's outputs outside its timed region. Host-speed probes (``speed.py``) run
right before and after every op, and each op's scale factor is recorded
beside its times. With ``--trace 1`` the time is split into an untraced half
and a traced half. With ``--pauses k`` the loop stops at k evenly spaced
points between ops, prints ``PAUSE <last probe as JSON>`` and waits for a
line on stdin; ``run.py`` times one more set-up in the meantime. A
``--setup-only`` process prints ``READY``, probes once more and prints
``SCALE <factor> <probe as JSON>`` for its set-up, bracketed by ``--pre-probe``. The last
stdout line is one JSON object with the raw samples; ``run.py`` turns them
into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import speed
from tracer import Tracer


def _make_workload(name: str, root: Path, tmp: Path):
    if name == "cli-mix":
        from climix import CliMix
        return CliMix(root, tmp)
    from library import WORKLOADS
    return WORKLOADS[name](root, tmp)


class Pauses:
    """Evenly spaced stops of the timed loop, counted in loop time without the stops."""

    def __init__(self, seconds: float, n: int):
        self.marks = [seconds * (k + 1) / (n + 1) for k in range(n)]
        self.elapsed = 0.0  # loop time of the phases already ended

    def poll(self, loop_s: float, last_probe: dict) -> float:
        """Stop once per mark ``loop_s`` has passed; returns the seconds stopped (0 if none).

        One long op can pass two marks, and the loop may end right after it.
        """
        if not (self.marks and self.elapsed + loop_s >= self.marks[0]):
            return 0.0
        t0 = time.perf_counter()
        while self.marks and self.elapsed + loop_s >= self.marks[0]:
            self.marks.pop(0)
            print("PAUSE " + json.dumps(last_probe), flush=True)
            if sys.stdin.readline().strip() != "GO":
                raise SystemExit("run.py went away during a pause")
        return time.perf_counter() - t0


def _run_phase(wl, rounds, seconds: float, tracer: Tracer | None, pauses: Pauses) -> dict:
    lat, cpu, scales, kinds, ops, errors, child_rss_kb = [], [], [], [], [], [], []
    probes = []  # (before, after) per op
    last = None  # the probe right after the previous op, unless a pause came between
    failed = nonzero_exits = 0
    start = time.perf_counter()
    stopped = 0.0
    while True:
        for i in next(rounds):
            if tracer is not None:
                tracer.op_id += 1
            last = last or speed.probe()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a failed op is counted, not fatal
                out = None
                error = f"{i}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            after = speed.probe()
            scales.append(speed.scale(wl.speed_exponent, last, after))
            probes.append((last, after))
            last = after
            child_cpu = getattr(wl, "child_cpu_s", 0.0)
            child_rss_kb.append(getattr(wl, "child_rss_kb", 0))
            lat.append(t1 - t0)
            cpu.append(c1 - c0 + child_cpu)
            kinds.append(wl.kind(i))
            ops.append(i)
            if isinstance(out, dict) and out.get("exit", 0) != 0:
                nonzero_exits += 1
            if out is None or not wl.check(i, out):
                failed += 1
                if len(errors) < 20:
                    errors.append(error if out is None else f"{i}: output differs from the reference")
            if tracer is not None and getattr(wl, "trace_dump", None) is not None:
                if wl.trace_dump.exists():
                    tracer.merge(json.loads(wl.trace_dump.read_text()))
                    wl.trace_dump.unlink()
            del out
            paused = pauses.poll(time.perf_counter() - start - stopped, last)
            if paused:
                last = None
            stopped += paused
        if time.perf_counter() - start - stopped >= seconds:
            break
    pauses.elapsed += time.perf_counter() - start - stopped
    return {"ops": len(lat), "failed": failed, "lat_s": lat, "cpu_s": cpu,
            "scale": scales, "probes": probes, "kinds": kinds, "nonzero_exits": nonzero_exits,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "child_rss_kb": child_rss_kb, "errors": errors,
            "facts": wl.facts(ops)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pre-probe", default=None,
                        help="with --setup-only: the probe taken just before this process started")
    parser.add_argument("--pauses", type=int, default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()

    root = Path.cwd()
    scratch = root / ".bench_results"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    try:
        wl = _make_workload(args.workload, root, tmp)
        rounds = wl.rounds(args.seed)
        wl.warm_up()
        print("READY", flush=True)
        speed.probe()  # the first call of a probe runs cold
        first = speed.probe()
        if args.setup_only:
            pre = json.loads(args.pre_probe) if args.pre_probe else first
            print(f"SCALE {speed.scale(speed.SETUP_EXPONENT, pre, first)!r} "
                  + json.dumps(first), flush=True)
            return 0
        # this process's own set-up has no probe before it; the one after stands for both
        result = {"phases": {}, "setup_scale": speed.scale(speed.SETUP_EXPONENT, first),
                  "setup_probe": first}
        pauses = Pauses(args.seconds, args.pauses)
        if not args.trace:
            result["phases"]["untraced"] = _run_phase(wl, rounds, args.seconds, None, pauses)
        else:
            half = args.seconds / 2.0
            result["phases"]["untraced"] = _run_phase(wl, rounds, half, None, pauses)
            tracer = Tracer()
            result["wrapped"] = tracer.install()
            if hasattr(wl, "trace_dump"):
                wl.trace_dump = tmp / "child_spans.json"
            result["phases"]["traced"] = _run_phase(wl, rounds, half, tracer, pauses)
            layers = tracer.as_dict()
            spans = layers.pop("spans")
            result["layers"] = layers
            if args.spans:
                with open(args.spans, "w") as f:
                    json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                               "kept": len(spans), "total": layers["n_spans"],
                               "spans": spans}, f)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
