"""One benchmark process: set up one workload, run its closed loop and
print one JSON record on stdout.  Started by ``run.py``, one process per
workload share, never more than one at a time.

Untraced, the loop times each public lorlab call and runs
``reference_kernel`` before the first call and after every call; each
call's time and the set-up time are also reported scaled to the
machine speed ``REF_S`` (see ``README.md``, Noise).  Traced, each input is
run twice, once untraced and once under the tracer (alternating which
goes first); the two outputs must be bit-identical, the untraced/traced
time ratio gives the tracing overhead, and the per-layer metrics come
from the spans of the first ``WINDOW`` traced calls, so that their
counts repeat exactly for a given seed whatever the machine's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

WINDOW = 4   # traced calls behind the per-layer metrics: one identity cycle
REF_S = 0.035  # typical reference_kernel() time on the 2-core sandbox


def reference_kernel() -> float:
    """Wall time of a fixed kernel shaped like lorlab's inner loop: RK4
    on 16 states with a 3x3 metric, its determinant and a solve per stage.

    It runs between timed calls to measure how fast the machine is at that
    moment; untraced call times are scaled by ``REF_S`` over it.  It uses
    numpy only, so changes to lorlab cannot move it.
    """
    import numpy as np

    def accel(x, v):
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = -1.0
        c = 1.0 + 0.1 * np.exp(-np.einsum("...i,...i->...", x[..., 1:],
                                          x[..., 1:]))
        g[..., 1, 1] = g[..., 2, 2] = c
        np.linalg.det(g)
        rhs = np.einsum("...i,...i->...", v, v)[..., None] * x
        return -np.linalg.solve(g, rhs[..., None])[..., 0]

    x = np.tile([0.0, 0.3, -0.2], (16, 1))
    v = np.tile([1.0, 0.5, 0.4], (16, 1))
    h = 1e-3
    t = time.perf_counter()
    for _ in range(200):
        a1 = accel(x, v)
        a2 = accel(x + 0.5 * h * v, v + 0.5 * h * a1)
        a3 = accel(x + 0.5 * h * v + 0.25 * h * h * a1, v + 0.5 * h * a2)
        a4 = accel(x + h * v + 0.5 * h * h * a2, v + h * a3)
        x = x + h * v + (h * h / 6.0) * (a1 + a2 + a3)
        v = v + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
    return time.perf_counter() - t


def _same(a, b) -> bool:
    """Bit-identical digests; a failed call matches nothing."""
    return a is not None and b is not None and len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--offset", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken before this "
                         "process was started")
    ap.add_argument("--src", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy
    import lorlab
    src = os.path.realpath(args.src)
    if not os.path.realpath(lorlab.__file__).startswith(src + os.sep):
        print(f"lorlab imported from {lorlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    kw = {"batch": 2} if args.tiny and args.workload != "identity-checks" \
        else {}
    wl = workloads.WORKLOADS[args.workload](args.seed, **kw)
    n_in = len(wl.inputs)

    def run(i):
        inp = wl.inputs[i % n_in]
        t = time.perf_counter()
        try:
            out = wl.call(inp)
        except lorlab.LorlabError as exc:
            print(f"call {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return time.perf_counter() - t, None, float("inf")
        dt = time.perf_counter() - t
        return dt, wl.digest(out), wl.check(inp, out)

    # untimed warm-up on the first input; the first timed call repeats it
    _, warm, _ = run(args.offset)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    rec = {"setup_s": setup_s, "durations": [], "items": 0, "attempted": 0,
           "failed": 0, "err_ratio_max": 0.0, "mismatches": 0}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        rec.update(traced_durations=[], untraced_durations=[])
    else:
        refs = [reference_kernel()]   # before each call, after the last

    def account(dt, dig, ratio):
        rec["attempted"] += 1
        rec["durations"].append(dt)
        ok = dig is not None and ratio <= 1.0
        rec["failed"] += not ok
        rec["items"] += wl.items_per_call if ok else 0
        rec["err_ratio_max"] = max(rec["err_ratio_max"], ratio)

    i = args.offset
    n_calls = 0
    t_loop = time.perf_counter()
    cpu0 = time.process_time()
    while True:
        if tracer is None:
            plain = run(i)
            refs.append(reference_kernel())
            account(*plain)
        else:
            def traced(i):
                with tracer.installed(n_calls):
                    return run(i)

            if n_calls % 2 == 0:
                plain = run(i)
                tr = traced(i)
            else:
                tr = traced(i)
                plain = run(i)
            account(*plain)
            account(*tr)
            rec["untraced_durations"].append(plain[0])
            rec["traced_durations"].append(tr[0])
            rec["mismatches"] += not _same(plain[1], tr[1])
        if n_calls == 0:          # same input as the warm-up call
            rec["mismatches"] += not _same(plain[1], warm)
        i += 1
        n_calls += 1
        elapsed = time.perf_counter() - t_loop
        if n_calls % wl.calls_per_cycle:
            continue
        per_cycle = elapsed / (n_calls // wl.calls_per_cycle)
        if elapsed + 0.5 * per_cycle >= args.seconds and (
                tracer is None or n_calls >= WINDOW):
            break
    rec["timed_s"] = time.perf_counter() - t_loop
    rec["cpu_s"] = time.process_time() - cpu0
    rec["calls"] = n_calls
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["versions"] = {"python": sys.version.split()[0],
                       "numpy": np.__version__, "scipy": scipy.__version__}
    if tracer is None:
        rec["refs"] = refs
        rec["setup_norm"] = setup_s * REF_S / refs[0]
        rec["durations_norm"] = [2 * REF_S * d / (a + b) for d, a, b in
                                 zip(rec["durations"], refs, refs[1:])]
    else:
        layers = tracer.layer_metrics(range(WINDOW))
        layers["trace.overhead"] = (sum(rec["untraced_durations"])
                                    / sum(rec["traced_durations"]))
        rec["per_layer"] = layers
        if args.spans:
            np.savez_compressed(args.spans, **tracer.arrays())
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
