"""The benchmark's own tests.  They run the real workloads (about two
minutes in all) and are not part of the package's test suite:

    python3 -m pytest perfbench
"""
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib      # noqa: E402
import layers     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def scratch():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as td:
        yield Path(td)


@pytest.mark.parametrize("workload", ["spiral", "stencil", "report"])
def test_trace_repeats_counts_and_changes_no_output(workload, scratch):
    invocations = workloads.invocations(workload, 7)
    plain = run.run_pass(scratch, "plain", invocations, "run")
    traced = [run.run_pass(scratch, f"traced{k}", invocations, "trace")
              for k in range(2)]
    assert all(plain["ops"])
    for t in traced:
        assert t["digests"] == plain["digests"]
    a, b = (layers.merge(t["traces"]) for t in traced)
    for name in layers.exact():
        assert layers.value(name, a, 0.0) == layers.value(name, b, 0.0), name
    if workload == "report":
        assert layers.value("numerics.integrate_flow.steps", a, 0.0) > 0
    else:
        assert layers.value("numerics.integrate_flow.calls", a, 0.0) == 0


def test_every_traced_metric_has_a_mapping():
    assert [m["name"] for m in layers.metrics()] == list(layers.MOVES)


def test_sampler_times_the_reference_during_the_block():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        time.sleep(2.5 * calib.TICK_S)   # resumed after each tick (PEP 475)
    assert len(sampler.times) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    with calib.Sampler() as short:
        pass
    assert len(short.times) == 1


def test_refuses_to_run_without_sources(scratch):
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spiral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _write(out: Path, name: str, doc: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(doc), encoding="utf-8")


def test_checks_fail_bad_outputs(scratch):
    assert workloads.check("monodromy-champagne", 0, scratch / "none") \
        == [False]
    assert workloads.check("spiral-pendulum", 3, scratch / "none") \
        == [False] * 3

    _write(scratch / "m", "monodromy_summary.json", {"index": 1.002})
    assert workloads.check("monodromy-champagne", 0, scratch / "m") == [False]

    expected = -0.5 / 2 ** 0.5
    fits = [{"slope_fit": expected * f, "partial": p}
            for f, p in ((1.0, False), (1.2, False), (1.0, True))]
    _write(scratch / "s", "spiral_summary.json", {"fits": fits})
    assert workloads.check("spiral-champagne", 0, scratch / "s") \
        == [True, False, False]

    _write(scratch / "r", "report.json",
           {"criteria": [{"status": "pass"}] * 8 + [{"status": "fail"}]})
    assert workloads.check("report", 2, scratch / "r") == [True] * 8 + [False]

    def twistless(system, roots, no_torus):
        out = Path(tempfile.mkdtemp(dir=scratch))
        _write(out, "twistless_summary.json", {
            "failures": [{"h": h, "reason": f"no twistless torus at h={h}"}
                         for h in no_torus],
            "tangent_slope_fit": -0.64,
            "ratios_h_over_lstar": [0.2, 0.1, 0.05]})
        (out / "twistless.csv").write_text(
            "h,l_star\n" + "".join(f"{h!r},0.1\n" for h in roots),
            encoding="utf-8")
        return workloads.check(f"twistless-{system}", 0, out)

    every = list(workloads.H_VALUES)
    # the champagne bottle needs a root at every energy
    assert twistless("champagne", every, []) == [True] * 9
    assert twistless("champagne", every[:-1], every[-1:]) \
        == [True] * 7 + [False, True]
    # the pendulum: roots at h = 0.005, 0.01, 0.02, the documented
    # "no twistless torus" at h < 0 and at h = +0.05
    lacks = [h for h in every if workloads.pendulum_lacks_root(h)]
    roots = [h for h in every if h not in lacks]
    assert twistless("pendulum", roots, lacks) == [True] * 9
    # ... a root at h = +0.05 is allowed too
    assert twistless("pendulum", roots + [0.05],
                     [h for h in lacks if h != 0.05]) == [True] * 9
    # ... a missing positive-h root fails
    assert twistless("pendulum", [h for h in roots if h != 0.01],
                     lacks + [0.01]) \
        == [h != 0.01 for h in every] + [True]
    # ... and so does a spurious root at h < 0
    assert twistless("pendulum", roots + [-0.02],
                     [h for h in lacks if h != -0.02]) \
        == [h != -0.02 for h in every] + [True]
