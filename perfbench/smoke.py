"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload with two rays or pairs per call, untraced once and
traced twice, each in fresh processes, and asserts that every metric
``BENCHMARK.json`` names is emitted with its unit, that every count
repeats exactly between the two traced runs, and that the count
identities of the traced run hold.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit " \
                                 f"{proc.returncode}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def expect_metrics(out: dict, declared: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    assert set(out["metrics"]) == set(names), \
        set(out["metrics"]) ^ set(names)
    for name, unit in names.items():
        got = out["metrics"][name]
        assert got["unit"] == unit, (name, got)
        assert isinstance(got["value"], (int, float)), (name, got)


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        expect_metrics(run(w, 0), SPEC["end_to_end"])
        first, second = run(w, 1), run(w, 1)
        expect_metrics(first, SPEC["per_layer"])
        m = {k: v["value"] for k, v in first["metrics"].items()}
        m2 = {k: v["value"] for k, v in second["metrics"].items()}
        for k, v in first["metrics"].items():
            if v["unit"] == "count":
                assert m[k] == m2[k], f"{w}: {k} {m[k]} then {m2[k]}"
        assert all(m[f"{mod}.errors"] == 0 for mod in (
            "geometry", "scattering", "connect", "lightray", "stationary",
            "gauge"))
        assert m["geometry.matrix.calls"] > 0 and m["geometry.accel.calls"] > 0
        if w == "scatter-grid":
            assert m["geometry.accel.calls"] == 4 * m["geometry.march_steps"] \
                + m["geometry.refine.accel_calls"], m
            assert m["geometry.fixed.calls"] == m["connect.solve.calls"] == 0
            assert 0 < m["geometry.lockstep_useful"] <= 1
            assert m["scattering.rays"] == m["lightray.transform.calls"]
        elif w == "shoot-pairs":
            assert m["geometry.to_surface.calls"] == 0
            assert m["geometry.march_steps"] == 0
            assert m["connect.residual_evals"] >= m["connect.solve.calls"] > 0
            assert m["connect.jacobian_builds"] <= m["connect.solve.calls"]
        else:
            for layer in ("scattering.scatter", "connect.michel_check",
                          "stationary.magnetic_scatter",
                          "stationary.magnetic_connector",
                          "stationary.thmmag_verify",
                          "stationary.magnetic_michel",
                          "gauge.hamiltonian_flow",
                          "gauge.conformal_reparam_check"):
                assert m[f"{layer}.calls"] > 0, layer
            assert m["scattering.scatter_batch.calls"] == 0
            assert m["geometry.lockstep_useful"] == 1.0   # single rays
        print(f"{w}: ok ({len(m)} per-layer metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
