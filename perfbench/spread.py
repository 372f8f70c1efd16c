"""Run the benchmark on every workload of BENCHMARK.json with seeds 1-10,
print each end-to-end metric's median, quartiles and spread (interquartile
distance / median), and write them to perfbench/baseline.json.

    python3 perfbench/spread.py

Workloads are interleaved (seed by seed) so that drift of the machine
spreads over all of them alike.  baseline.json also records the bounds
from BENCHMARK.json, the machine and the library versions, and the
per-layer metrics of one traced run per workload (seed 1).  Run it from
the root of the checkout.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)


def versions() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]

    def run(w: str, seed: int, trace: int) -> dict:
        cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["correct"]:
            raise SystemExit(f"{w} seed {seed}: incorrect output")
        return doc

    values: dict = {w: {} for w in names}
    for seed in SEEDS:
        for w in names:
            doc = run(w, seed, 0)
            for m, v in doc["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.5g}" for m, v in doc["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    for w in names:
        summary[w] = {}
        for m, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w][m] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(vals), "spread": spread,
                             "bound": bounds[m]}
            flag = "" if spread < bounds[m] / 3 else "  <-- above bound/3"
            print(f"{w:8} {m:12} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n {len(vals)} spread {spread:.4f} "
                  f"(bound {bounds[m]}){flag}")
    traced = {w: {m: v["value"] for m, v in
                  run(w, SEEDS[0], 1)["metrics"].items()}
              for w in names}
    doc = {"seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
           "run_seconds": bench["run_seconds"], "machine": versions(),
           "workloads": summary, "traced_seed": SEEDS[0], "traced": traced}
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
