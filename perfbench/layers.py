"""Per-layer metrics: which end-to-end metric each should move, and how
each is computed from the merged trace of a pass.  Their names, units and
directions are the ``per_layer`` entries of BENCHMARK.json.

Names are ``<module>.<function>.<quantity>``.  Quantities: ``calls``;
``s`` (inclusive seconds); ``self_s`` (inclusive minus traced children);
``us_per_call`` / ``ms_per_call`` (inclusive time per call); ``ms``.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_QUAD = "spiral.wall_s and stencil.wall_s most, report.wall_s ~18%"
_SYSTEMS = "spiral.wall_s most, then stencil.wall_s and report.wall_s"
_FLOW = "report.wall_s; zero on spiral and stencil"

# the end-to-end metric each per-layer metric should move
MOVES = {
    "numerics.integrate_flow.calls": _FLOW,
    "numerics.integrate_flow.steps": _FLOW,
    "numerics.integrate_flow.self_s": _FLOW,
    "numerics.integrate_flow.ms_per_call": "report.wall_s",
    "numerics.quad_singular.calls": _QUAD,
    "numerics.quad_singular.self_s": _QUAD,
    "numerics.quad_singular.us_per_call": _QUAD,
    "numerics.find_root_bracketed.calls": "stencil.wall_s",
    "numerics.find_root_bracketed.self_s": "stencil.wall_s",
    "systems.eval_constants.calls": _SYSTEMS,
    "systems.eval_constants.self_s": _SYSTEMS,
    "systems.eval_constants.us_per_call": _SYSTEMS,
    "systems.reduced_profile.calls": _SYSTEMS,
    "systems.reduced_profile.us_per_call": _SYSTEMS,
    "systems.check_window.us_per_call": _SYSTEMS,
    "lattice.reduced_period_rotation.quadrature.calls": "all wall_s",
    "lattice.reduced_period_rotation.flow.calls": _FLOW,
    "lattice.distinct_tori": "all wall_s",
    "lattice.repeat_frac": "stencil.wall_s; zero on spiral",
    "lattice.reduced_period_rotation.first_us":
        "spiral.wall_s and stencil.wall_s",
    "lattice.reduced_period_rotation.repeat_us":
        "stencil.wall_s; no repeats on spiral",
    "lattice.cross_check.self_s": "report.wall_s",
    "lattice.period_lattice.calls": "all wall_s",
    "lattice.annulus_sweep.s": "report.wall_s",
    "lattice.fit_asymptotic_model.us_per_call": "report.wall_s",
    "rotation.rotation_grid.self_s": "spiral.wall_s",
    "rotation.extract_level_curve.self_s": "spiral.wall_s",
    "rotation.fit_log_spiral.us_per_call": "spiral.wall_s",
    "rotation.monodromy_index.s": "stencil.wall_s and report.wall_s",
    "twist.twist.calls": "stencil.wall_s",
    "twist.twist.us_per_call": "stencil.wall_s",
    "twist.twistless_point.s": "stencil.wall_s",
    "kolmogorov.frequency_jacobian_det.us_per_call":
        "stencil.wall_s, slightly report.wall_s",
    "kolmogorov.tau_jacobian.us_per_call":
        "report.wall_s (C8 only); zero on spiral and stencil",
    **{f"acceptance.c{k}_s": "report.wall_s" for k in range(1, 10)},
    "cli.write_csv.ms": "negligible everywhere",
    "cli.write_summary.ms": "negligible everywhere",
    "trace.overhead_s":
        "none: traced wall_s minus untraced wall_s of the same pass",
}


def metrics() -> list[dict]:
    """The per-layer metrics of BENCHMARK.json: name, unit, better."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]


def exact() -> list[str]:
    """Counts that must repeat exactly between two traced runs."""
    return [m["name"] for m in metrics() if m["unit"] == "count"]


def merge(snapshots: list[dict]) -> dict:
    """Sum the tracer snapshots of a pass's invocations.  Each invocation
    is its own process with its own torus cache, so distinct tori add."""
    spans: dict[str, list] = {}
    engine_calls: dict[str, int] = {}
    total = {"spans": spans, "engine_calls": engine_calls, "flow_steps": 0,
             "distinct_tori": 0, "first": [0, 0.0], "repeat": [0, 0.0]}
    for snap in snapshots:
        for name, vals in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for engine, n in snap["engine_calls"].items():
            engine_calls[engine] = engine_calls.get(engine, 0) + n
        for key in ("flow_steps", "distinct_tori"):
            total[key] += snap[key]
        for key in ("first", "repeat"):
            total[key] = [a + b for a, b in zip(total[key], snap[key])]
    return total


def _per_call(n: int, seconds: float, scale: float) -> float:
    return seconds / n * scale if n else 0.0


def _quadrature_calls(t: dict) -> int:
    return t["engine_calls"].get("quadrature", 0)


# metrics that are not a quantity of one span
DERIVED = {
    "numerics.integrate_flow.steps": lambda t: t["flow_steps"],
    "lattice.reduced_period_rotation.quadrature.calls": _quadrature_calls,
    "lattice.reduced_period_rotation.flow.calls":
        lambda t: t["engine_calls"].get("flow", 0),
    "lattice.distinct_tori": lambda t: t["distinct_tori"],
    "lattice.repeat_frac":
        lambda t: (1.0 - t["distinct_tori"] / _quadrature_calls(t)
                   if _quadrature_calls(t) else 0.0),
    "lattice.reduced_period_rotation.first_us":
        lambda t: _per_call(*t["first"], 1e6),
    "lattice.reduced_period_rotation.repeat_us":
        lambda t: _per_call(*t["repeat"], 1e6),
}


def value(name: str, trace: dict, overhead_s: float) -> float:
    """Value of one per-layer metric from a merged trace."""
    if name == "trace.overhead_s":
        return overhead_s
    if name in DERIVED:
        return DERIVED[name](trace)
    if name.startswith("acceptance."):      # acceptance.cK_s
        span, quantity = name[:-2], "s"
    else:
        span, quantity = name.rsplit(".", 1)
    calls, total_s, self_s = trace["spans"].get(span, (0, 0.0, 0.0))
    return {"calls": calls, "s": total_s, "self_s": self_s,
            "ms": total_s * 1e3,
            "us_per_call": _per_call(calls, total_s, 1e6),
            "ms_per_call": _per_call(calls, total_s, 1e3)}[quantity]
