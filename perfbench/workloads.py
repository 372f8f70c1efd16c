"""The three workloads: the CLI invocations each one makes from a seed, and
the rules that decide which of its operations failed.

* ``report`` is ``focusfocus report`` at defaults, the paper's acceptance
  battery C1-C9.  It is bound by the flow oracle (C1).  One operation per
  criterion; it fails unless its status is ``pass``.
* ``spiral`` is ``focusfocus spiral`` at defaults for both systems: cold
  quadrature grids with no flow and no repeated torus.  One operation per
  spiral fit.
* ``stencil`` is ``twistless``, ``kolmogorov`` and ``monodromy`` for both
  systems: clustered finite-difference stencils and Brent brackets, where
  engine error is amplified, and where tori repeat.  The seed draws each
  ``--ray-angle`` (uniform over the whole circle) and ``--radius``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

SYSTEMS = ("champagne", "pendulum")

# Linearisation at the champagne-bottle equilibrium (gamma = 0.5): the
# eigenvalues of J d^2H are +-sqrt(2) +- 0.5 i.  The pendulum has omega = 0.
ALPHA = {"champagne": math.sqrt(2.0), "pendulum": 1.0}
OMEGA = {"champagne": 0.5, "pendulum": 0.0}

# The paper's energies for the twistless curve (the CLI's defaults).
H_VALUES = (0.005, -0.005, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05)
SPIRAL_LEVELS = 3          # the CLI's default quantile levels
MONODROMY_RADII = (0.05, 0.1)   # the radii C2 uses


def pendulum_lacks_root(h: float) -> bool:
    """Energies at which the pendulum's documented result is "no twistless
    torus": omega = 0 puts none at h < 0, and at h = +0.05 l* lies beyond
    the |j| <= 0.2 window."""
    return h < 0.0 or h == 0.05


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of every invocation in one pass."""
    if workload == "report":
        # cmd_report accepts --seed but does not pass it on to C1, so this
        # pass is the same for every seed until that is fixed
        return [("report", ["report", "--seed", str(seed)])]
    if workload == "spiral":
        return [(f"spiral-{s}", ["spiral", "--system", s]) for s in SYSTEMS]
    if workload == "stencil":
        rng = random.Random(seed)
        out = []
        for s in SYSTEMS:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(*MONODROMY_RADII)
            out += [
                (f"twistless-{s}",
                 ["twistless", "--system", s,
                  "--h-values", ",".join(repr(h) for h in H_VALUES)]),
                (f"kolmogorov-{s}",
                 ["kolmogorov", "--system", s, "--ray-angle", repr(angle)]),
                (f"monodromy-{s}",
                 ["monodromy", "--system", s, "--radius", repr(radius)]),
            ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _summary(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _csv_column(path: Path, column: str) -> list[float]:
    with path.open(newline="", encoding="utf-8") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _check_report(out: Path) -> list[bool]:
    criteria = _summary(out, "report.json")["criteria"]
    ok = [c["status"] == "pass" for c in criteria]
    return ok + [False] * (9 - len(ok))


def _check_spiral(out: Path, system: str) -> list[bool]:
    expected = -OMEGA[system] / ALPHA[system]
    ok = []
    for fit in _summary(out, "spiral_summary.json")["fits"]:
        err = abs(fit["slope_fit"] - expected)
        gate = 0.10 * abs(expected) if system == "champagne" else 0.02
        ok.append(not fit["partial"] and err <= gate)
    return ok + [False] * (SPIRAL_LEVELS - len(ok))


def _check_twistless(out: Path, system: str) -> list[bool]:
    doc = _summary(out, "twistless_summary.json")
    found = set(_csv_column(out / "twistless.csv", "h"))
    reasons = {h: r for h, r in
               ((f["h"], f["reason"]) for f in doc["failures"])}
    ok = []
    for h in H_VALUES:
        if system == "pendulum" and pendulum_lacks_root(h):
            if h in found:
                ok.append(h > 0.0)      # a root at h < 0 is spurious
            else:
                ok.append("no twistless torus" in reasons.get(h, ""))
        else:
            ok.append(h in found)
    if system == "champagne":
        a, w = ALPHA[system], OMEGA[system]
        expected = w * (w * w + a * a) / (w * w - a * a)
        fit = doc["tangent_slope_fit"]
        ok.append(fit is not None and math.isfinite(fit)
                  and abs(fit - expected) <= 0.15 * abs(expected))
    else:
        # degenerate mode: |h|/|l*| must fall as |h| falls (as C6 asks of
        # the gamma = 0 champagne bottle)
        r = doc["ratios_h_over_lstar"]
        ok.append(len(r) >= 3 and all(x > y for x, y in zip(r, r[1:])))
    return ok


def _check_kolmogorov(out: Path) -> list[bool]:
    doc = _summary(out, "kolmogorov_summary.json")
    dets = _csv_column(out / "kolmogorov.csv", "det_I")
    return [bool(doc["all_negative"]) and bool(dets)
            and all(d < 0 for d in dets)]


def _check_monodromy(out: Path) -> list[bool]:
    return [abs(_summary(out, "monodromy_summary.json")["index"] - 1.0)
            <= 1e-3]


N_OPS = {"report": 9, "spiral": SPIRAL_LEVELS,
         "twistless": len(H_VALUES) + 1, "kolmogorov": 1, "monodromy": 1}


def check(label: str, rc: int, out: Path) -> list[bool]:
    """Pass/fail of each operation of one invocation."""
    command, _, system = label.partition("-")
    ok_rc = rc == 0 or (command == "report" and rc == 2)
    if ok_rc:
        try:
            if command == "report":
                return _check_report(out)
            if command == "spiral":
                return _check_spiral(out, system)
            if command == "twistless":
                return _check_twistless(out, system)
            if command == "kolmogorov":
                return _check_kolmogorov(out)
            if command == "monodromy":
                return _check_monodromy(out)
        except (OSError, ValueError, KeyError, TypeError):
            pass   # missing or malformed output: every operation failed
    return [False] * N_OPS[command]


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, with the run-specific config (which
    holds the output path) dropped from JSON summaries."""
    docs = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("config", None)
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        docs[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return docs
