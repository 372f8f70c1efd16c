"""focusfocus benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {report,spiral,stencil} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every CLI invocation runs cold, in a fresh interpreter
(perfbench/child.py), as a user's run does: the process-wide torus cache
would make in-process repeats time a different program.

--trace 0 repeats passes of the workload until S seconds have passed (at
least one pass) and reports, by their median over the run:

  wall_s       seconds inside cli.main, summed over a pass's invocations
  setup_s      seconds from spawning an interpreter until main is entered
               (median over every spawn of the run, plus SETUP_SPAWNS
               spawns that only import)
  peak_rss_mb  peak resident memory of any invocation of the run
  pass_frac    operations that passed / operations attempted (the
               complement of fail_frac, which is printed too)

wall_s and setup_s are scaled to a machine of constant speed by the run's
median time of a fixed reference computation (perfbench/calib.py), which
every child process samples during its timed work, so that a shared host's
drift over minutes does not read as a change of the program.  The
unscaled medians are printed too.

--trace 1 runs one untraced pass, then one pass with the layer tracer
(perfbench/tracer.py) installed, and reports the per-layer metrics of
BENCHMARK.json, computed by perfbench/layers.py.  Both passes must write
identical outputs.

Outputs go to a temporary directory inside the checkout, which is removed
at the end.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib       # noqa: E402
import layers      # noqa: E402
import workloads   # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 170


def spawn(tmp: Path, mode: str, argv: list[str]) -> dict:
    """Run child.py once; return its result document."""
    fd, result = tempfile.mkstemp(suffix=".json", dir=tmp)
    os.close(fd)
    log_path = Path(result).with_suffix(".log")
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "wb") as log:
        cmd = [sys.executable, str(CHILD), result, repr(time.monotonic()),
               mode, *argv]
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, timeout=CHILD_TIMEOUT_S, check=False)
    text = Path(result).read_text(encoding="utf-8")
    if proc.returncode != 0 or not text:
        log_text = log_path.read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"child {argv[:1]} exited {proc.returncode}:\n"
                           f"{log_text[-2000:]}")
    return json.loads(text)


def run_pass(tmp: Path, tag: str, invocations, mode: str) -> dict:
    """One pass over the workload's invocations, each in a fresh process."""
    docs, ops, digests = [], [], {}
    for label, argv in invocations:
        out = tmp / tag / label
        doc = spawn(tmp, mode, [*argv, "--jobs", "1", "--out", str(out)])
        docs.append(doc)
        ops += workloads.check(label, doc["rc"], out)
        digests[label] = workloads.digest(out)
    shutil.rmtree(tmp / tag)
    return {"wall_s": sum(d["wall_s"] for d in docs),
            "setup": [d["setup_s"] for d in docs],
            "rss": max(d["peak_rss_mb"] for d in docs),
            "ref": [r for d in docs for r in d["ref_s"]],
            "ops": ops, "digests": digests,
            "traces": [d["trace"] for d in docs if "trace" in d]}


def print_row(name: str, metric: dict, samples: list[float]) -> None:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    print(f"  {name:<12} {metric['value']:>12.6g} {metric['unit']:<3} "
          f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}")


def measure(tmp, invocations, seconds):
    """Passes until `seconds` have passed; the run's end-to-end metrics."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(tmp, f"pass{len(passes)}", invocations, "run"))
    setups = [spawn(tmp, "setup", []) for _ in range(SETUP_SPAWNS)]
    refs = [r for p in passes for r in p["ref"]]
    scale = calib.REF_S / statistics.median(refs)
    samples = {
        "wall_s": [p["wall_s"] * scale for p in passes],
        "setup_s": [s * scale for p in passes for s in p["setup"]]
        + [d["setup_s"] * scale for d in setups],
        "peak_rss_mb": [p["rss"] for p in passes],
    }
    ops = [ok for p in passes for ok in p["ops"]]
    metrics = {
        "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(samples["setup_s"]),
                    "unit": "s"},
        "peak_rss_mb": {"value": max(samples["peak_rss_mb"]), "unit": "MB"},
        "pass_frac": {"value": sum(ops) / len(ops), "unit": "ratio"},
    }
    for name, vals in samples.items():
        print_row(name, metrics[name], vals)
    print(f"  scale {scale:.6g} = REF_S / median of {len(refs)} reference "
          f"times; unscaled wall_s {metrics['wall_s']['value'] / scale:.6g} "
          f"s, setup_s {metrics['setup_s']['value'] / scale:.6g} s")
    print(f"  pass_frac {metrics['pass_frac']['value']:.6g}, fail_frac "
          f"{1 - metrics['pass_frac']['value']:.6g} "
          f"({ops.count(False)} of {len(ops)} operations failed)")
    return passes, ops, metrics


def trace(tmp, invocations):
    plain = run_pass(tmp, "plain", invocations, "run")
    traced = run_pass(tmp, "traced", invocations, "trace")
    merged = layers.merge(traced["traces"])
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics = {}
    for m in layers.metrics():
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": layers.value(name, merged, overhead),
                         "unit": unit}
        print(f"  {name:<48} {metrics[name]['value']:>12.6g} {unit}")
    print(f"  untraced wall_s {plain['wall_s']:.4f} s, traced "
          f"{traced['wall_s']:.4f} s; work inside C9's --jobs 2 workers "
          "is not traced")
    return [plain, traced], plain["ops"] + traced["ops"], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["report", "spiral", "stencil"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = HERE.parent
    if not (root / "src" / "focusfocus" / "cli.py").is_file():
        print(f"no focusfocus sources under {root / 'src'}", file=sys.stderr)
        return 2
    invocations = workloads.invocations(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: "
          + "; ".join(" ".join(argv) for _, argv in invocations))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as td:
        tmp = Path(td)
        spawn(tmp, "setup", [])   # untimed: compiles bytecode, warms caches
        if args.trace:
            passes, ops, metrics = trace(tmp, invocations)
        else:
            passes, ops, metrics = measure(tmp, invocations, args.seconds)

    same = all(p["digests"] == passes[0]["digests"] for p in passes)
    if not same:
        print("outputs differ between passes", file=sys.stderr)
    failed = ops.count(False)
    print(json.dumps({"correct": failed == 0 and same,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
