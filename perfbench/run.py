"""lorlab benchmark: three closed-loop workloads over the public API.

    python3 perfbench/run.py --workload scatter-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Untraced (``--trace 0``) the run starts ``SHARES`` fresh worker
processes one after another, each setting up the workload from scratch
and timing ``seconds / SHARES`` of calls from its own share of the
seed-drawn inputs; ``setup_s`` is the median of their set-up times and
the timings are pooled.  Traced (``--trace 1``) one worker runs every
input untraced and traced and reports the per-layer metrics.

Prints ``env:`` and one line per metric, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when any call fails or any output check misses, 2 when the
lorlab sources are missing.  See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units
from worker import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ["scatter-grid", "shoot-pairs", "identity-checks"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SHARES = 3                # worker processes per untraced run
RUN_LIMIT_S = 170.0       # a run's workers are killed after this long
# first input index of each share; identity-checks cycles through four
# call kinds per entry, so its offsets stay multiples of four
SHARE_STRIDE = {"scatter-grid": 8, "shoot-pairs": 8, "identity-checks": 16}

END_TO_END = {           # name -> unit; the first five are in BENCHMARK.json
    "setup_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms",
    "call_tail_ms": "ms", "peak_rss_mb": "MB", "error_rate": "ratio",
    "err_ratio_max": "ratio"}
GATED = ["setup_s", "items_per_s", "call_p50_ms", "call_tail_ms",
         "peak_rss_mb"]
TIMES = {"setup_s", "items_per_s", "call_p50_ms", "call_tail_ms"}


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls beyond it, never below
    the median: (value, percentile, calls beyond)."""
    d = sorted(durations)
    n = len(d)
    rank = max(n - 11, n // 2)
    return d[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def end_to_end(shares: list[dict], durations: str, setup: str) -> dict:
    """End-to-end metrics of the shares of one run, from the named
    duration and set-up fields (normalised or raw)."""
    pooled = [d for s in shares for d in s[durations]]
    attempted = sum(s["attempted"] for s in shares)
    value, pct, beyond = tail(pooled)
    return {
        "setup_s": statistics.median(s[setup] for s in shares),
        "items_per_s": sum(s["items"] for s in shares) / sum(pooled),
        "call_p50_ms": 1e3 * statistics.median(pooled),
        "call_tail_ms": 1e3 * value,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in shares),
        "error_rate": sum(s["failed"] for s in shares) / attempted,
        "err_ratio_max": max(s["err_ratio_max"] for s in shares),
        "tail": {"percentile": pct, "calls_beyond": beyond,
                 "calls": len(pooled)}}


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "machine": platform.machine()}


def start_worker(workload, seed, seconds, trace, offset, tiny, spans,
                 deadline):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace",
           str(trace), "--offset", str(offset), "--src", str(SRC)]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, tiny) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.npz"
        shares = [start_worker(workload, seed, seconds, 1, 0, tiny, spans,
                               deadline)]
    else:
        shares = [start_worker(workload, seed, seconds / SHARES, 0,
                               k * SHARE_STRIDE[workload], tiny, None,
                               deadline)
                  for k in range(SHARES)]
    attempted = sum(s["attempted"] for s in shares)
    failed = sum(s["failed"] for s in shares)
    mismatches = sum(s["mismatches"] for s in shares)
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "correct": failed == 0 and mismatches == 0,
        "err_ratio_max": max(s["err_ratio_max"] for s in shares),
        "versions": shares[0]["versions"],
        "shares": [{k: v for k, v in s.items()
                    if k not in ("per_layer", "versions")} for s in shares],
    }
    if trace:
        summary["per_layer"] = shares[0]["per_layer"]
    else:
        summary["e2e"] = end_to_end(shares, "durations_norm", "setup_norm")
        summary["raw"] = end_to_end(shares, "durations", "setup_s")
        summary["machine_speed"] = statistics.median(
            REF_S / r for s in shares for r in s["refs"])
    return summary


def report(summaries: list[dict], trace: int) -> dict:
    """Print the metric lines; return the final JSON object."""
    multi = len(summaries) > 1
    metrics = {}
    for s in summaries:
        print(f"workload {s['workload']} seed {s['seed']} trace {trace}: "
              f"{s['attempted']} calls, {s['failed']} failed, "
              f"{s['mismatches']} digest mismatches, worst error/tolerance "
              f"{s['err_ratio_max']:.3g}")
        prefix = s["workload"] + "." if multi else ""
        if trace:
            for name, unit in per_layer_units().items():
                value = s["per_layer"][name]
                print(f"  {name:<40s} {value:.6g} {unit}")
                metrics[prefix + name] = {"value": value, "unit": unit}
            continue
        e2e, raw = s["e2e"], s["raw"]
        print(f"  machine speed {s['machine_speed']:.3f} of the reference; "
              "times below are scaled to the reference, raw in brackets")
        for name, unit in END_TO_END.items():
            note = f"  [raw {raw[name]:.6g}]" if name in TIMES else ""
            if name == "call_tail_ms":
                t = e2e["tail"]
                note += (f"  p{t['percentile']:.1f} of {t['calls']} calls, "
                         f"{t['calls_beyond']} beyond")
            print(f"  {name:<14s} {e2e[name]:.6g} {unit}{note}")
        for name in GATED:
            metrics[prefix + name] = {"value": e2e[name],
                                      "unit": END_TO_END[name]}
    return {"correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] + s["mismatches"] for s in summaries),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}); seed "
                         f"{HELD_OUT_SEED} is held out for re-checking "
                         "claims, never for tuning")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="two rays or pairs per call (smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "lorlab" / "__init__.py").is_file():
        print(f"no lorlab sources under {SRC}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")
    env = environment()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace,
                                  args.tiny) for w in names]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    env.update(summaries[0]["versions"])
    print("env: " + json.dumps(env))
    result = report(summaries, args.trace)
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps({"env": env, "summaries": summaries,
                                  "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
