"""The package surface the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps pinned package functions and methods by name,
reads the engine and rel_tol parameters of
lattice.reduced_period_rotation, and counts flow steps as
len(Trajectory.times) - 1.  One traced crosscheck through the benchmark's
own child process exercises all of it, so a change to src/ that drops one
of these names fails here rather than only in the slower perfbench suite.
perfbench/run.py adds "--jobs 1 --out DIR" to every command line of its
workloads, which must therefore all parse, and the spiral and stencil
workloads' outputs must pass perfbench/workloads.check.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from focusfocus import cli

ROOT = Path(__file__).resolve().parents[1]


def test_traced_crosscheck_runs(tmp_path):
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                    str(result), "0", "trace", "crosscheck", "--n-tori", "2",
                    "--out", str(tmp_path / "out")],
                   cwd=tmp_path, capture_output=True, text=True, timeout=300,
                   check=True, env=env)
    doc = json.loads(result.read_text(encoding="utf-8"))
    assert doc["rc"] == 0
    assert doc["trace"]["flow_steps"] > 0
    assert doc["trace"]["engine_calls"]["quadrature"] > 0
    # one solve of the reduced cubic per flow torus
    assert doc["trace"]["spans"]["systems.reduced_profile"][0] == 2


def load_workloads(monkeypatch):
    """perfbench/workloads.py, imported without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("workload", ["report", "spiral", "stencil"])
def test_workload_command_lines_parse(tmp_path, capsys, monkeypatch,
                                      workload):
    workloads = load_workloads(monkeypatch)
    for command in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, command, lambda cfg: cli.EXIT_OK)
    for label, argv in workloads.invocations(workload, 1):
        rc = cli.main([*argv, "--jobs", "1", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK, (label, capsys.readouterr().err)


@pytest.mark.parametrize("workload", ["spiral", "stencil"])
def test_workload_operations_pass(tmp_path, capsys, monkeypatch, workload):
    # the benchmark's own output checks on every invocation at seed 1, run
    # in-process: a pass_frac regression fails here before the benchmark
    workloads = load_workloads(monkeypatch)
    for label, argv in workloads.invocations(workload, 1):
        out = tmp_path / label
        rc = cli.main([*argv, "--jobs", "1", "--out", str(out)])
        ops = workloads.check(label, rc, out)
        assert ops and all(ops), (label, ops, capsys.readouterr().err)
