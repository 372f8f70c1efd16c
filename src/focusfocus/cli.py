"""Command-line front end.

Subcommands orchestrate the analyses and emit CSV files plus a JSON
summary embedding the fully resolved configuration.  Outputs are
deterministic for a fixed configuration at any parallelism degree: numbers
are serialized with 17 significant digits and results are assembled by
index, never by arrival order.

Exit codes: 0 success, 1 configuration error, 2 acceptance failure,
3 numerical total failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FocusFocusError
from .numerics import TWO_PI
from .systems import EMValue, eval_constants, make_system
from .lattice import (CROSS_TOL, MomentumValue, annulus_sweep, cross_checks,
                      fit_asymptotic_model, from_momentum_chart,
                      period_lattice, sample_cross_tori, to_momentum_chart)
from .rotation import (MIN_LOOP_POINTS, AnnulusRegion, extract_level_curve,
                       fit_log_spiral, monodromy_index, rotation_grid)
from .twist import expected_twistless_slope, twistless_curve
from .kolmogorov import asymptote_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ACCEPTANCE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


# the tolerance keys each subcommand reads: only crosscheck reads one (its
# engine agreement); a tolerance given to any other subcommand is an error
TOL_KEYS = {"crosscheck": {"cross"}}


@dataclass
class RunConfig:
    system: str = "champagne"
    params: dict = field(default_factory=dict)
    window: tuple[float, float] = (1e-4, 1e-2)   # |j| range for the command
    window_given: bool = False                   # explicit --window / file key
    res: tuple[int, int] = (32, 64)
    out: str = "out"
    jobs: int = 1
    radius: float = 0.1
    n_points: int = 256
    h_values: tuple[float, ...] = (0.005, -0.005, 0.01, -0.01,
                                   0.02, -0.02, 0.05, -0.05)
    ray_angle: float = 0.7
    levels: tuple[float, ...] = (0.3, 0.5, 0.7)  # quantiles of mid-row W
    n_tori: int = 50
    seed: int = 20260810
    tol: dict = field(default_factory=dict)

    def validate(self, command: str) -> None:
        if not (0 < self.window[0] < self.window[1]):
            raise ConfigError(f"invalid window {self.window}")
        if self.res[0] < 2 or self.res[1] < 4:
            raise ConfigError(f"resolution too small {self.res}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.n_points < MIN_LOOP_POINTS:
            raise ConfigError(f"n_points must be >= {MIN_LOOP_POINTS}, got "
                              f"{self.n_points}")
        known = TOL_KEYS.get(command, set())
        for k, v in self.tol.items():
            if k not in known:
                raise ConfigError(f"{command} reads no tolerance {k!r}; "
                                  f"known: {sorted(known)}")
            if not v > 0:
                raise ConfigError(f"tolerance {k} must be > 0, got {v}")

    def build_system(self):
        try:
            return make_system(self.system, **self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["window"] = list(self.window)
        d["res"] = list(self.res)
        d["h_values"] = list(self.h_values)
        d["levels"] = list(self.levels)
        return d


def _parse_kv(text: str, what: str) -> tuple[str, float]:
    if "=" not in text:
        raise ConfigError(f"{what} must look like key=value, got {text!r}")
    k, v = text.split("=", 1)
    try:
        return k.strip(), float(v)
    except ValueError as exc:
        raise ConfigError(f"bad {what} value {v!r}") from exc


def _parse_pair(text: str, what: str, cast=float) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated values")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


# configuration-file keys (RunConfig fields) and the parser of each value
CONFIG_KEYS = {
    "system": str,
    "window": lambda v: _parse_pair(v, "window"),
    "res": lambda v: _parse_pair(v, "res", int),
    "out": str,
    "jobs": int,
    "radius": float,
    "n_points": int,
    "h_values": lambda v: _parse_floats(v, "h_values"),
    "ray_angle": float,
    "levels": lambda v: _parse_floats(v, "levels"),
    "n_tori": int,
    "seed": int,
}


def parse_config_file(path: str | Path) -> dict:
    """Flat "key = value" lines; '#' starts a comment; keys param.NAME and
    tol.NAME feed the respective dictionaries.  Unknown keys, unparsable
    values and an unreadable file are configuration errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror or exc}") from exc
    raw: dict = {"params": {}, "tol": {}}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (t.strip() for t in line.split("=", 1))
        try:
            if key.startswith("param."):
                raw["params"][key[6:]] = float(value)
            elif key.startswith("tol."):
                raw["tol"][key[4:]] = float(value)
            elif key in CONFIG_KEYS:
                raw[key] = CONFIG_KEYS[key](value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for "
                              f"{key!r}") from exc
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = parse_config_file(args.config)
        cfg.params.update(raw.pop("params"))
        cfg.tol.update(raw.pop("tol"))
        cfg.window_given = "window" in raw
        for key, value in raw.items():
            setattr(cfg, key, value)
    # flags override the file
    if args.system:
        cfg.system = args.system
    for kv in args.param or []:
        k, v = _parse_kv(kv, "--param")
        cfg.params[k] = v
    for kv in args.tol or []:
        k, v = _parse_kv(kv, "--tol")
        cfg.tol[k] = v
    if args.window:
        cfg.window = _parse_pair(args.window, "--window")
        cfg.window_given = True
    if args.res:
        cfg.res = _parse_pair(args.res, "--res", int)
    if args.out:
        cfg.out = args.out
    if args.jobs is not None:
        cfg.jobs = args.jobs
    for name in ("radius", "n_points", "ray_angle", "n_tori", "seed"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "h_values", None):
        cfg.h_values = _parse_floats(args.h_values, "--h-values")
    cfg.validate(args.command)
    return cfg


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, cfg: RunConfig, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config": cfg.as_dict(), **payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2,
                               default=float) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_constants(cfg: RunConfig) -> int:
    system = cfg.build_system()
    ff = eval_constants(system)
    slope = expected_twistless_slope(ff.alpha, ff.omega)
    doc = {
        "alpha": ff.alpha,
        "omega": ff.omega,
        "lambda": [ff.alpha, ff.omega],
        "A0": ff.A0,
        "expected_twistless_slope":
            slope if ff.omega != 0.0 else "degenerate (omega = 0)",
    }
    out = Path(cfg.out)
    write_summary(out / "constants.json", cfg, doc)
    print(json.dumps(doc, sort_keys=True, indent=2, default=float))
    return EXIT_OK


def cmd_grid(cfg: RunConfig) -> int:
    system = cfg.build_system()
    grid = rotation_grid(system, AnnulusRegion(*cfg.window), cfg.res,
                         jobs=cfg.jobs)
    rows = []
    for i, rho in enumerate(grid.axis0):
        for k, th in enumerate(grid.axis1):
            j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
            c = from_momentum_chart(system, j)
            rows.append((c.h, c.l, j.j1, j.j2, grid.w[i, k],
                         grid.branch[i, k], grid.mask[i, k]))
    out = Path(cfg.out)
    write_csv(out / "grid.csv", ["h", "l", "j1", "j2", "W", "branch", "mask"],
              rows)
    if np.all(grid.mask != 0):
        return EXIT_NUMERICAL
    write_summary(out / "grid_summary.json", cfg, {
        "masked_fraction": grid.masked_fraction(),
        "W_range": [float(np.nanmin(grid.w)), float(np.nanmax(grid.w))]})
    return EXIT_OK


def cmd_spiral(cfg: RunConfig) -> int:
    system = cfg.build_system()
    ff = eval_constants(system)
    grid = rotation_grid(system, AnnulusRegion(*cfg.window), cfg.res,
                         jobs=cfg.jobs)
    mid = grid.w[len(grid.axis0) // 2]
    fits = []
    rows = []
    for q in cfg.levels:
        level = float(np.quantile(mid, q))
        curve = extract_level_curve(grid, level)
        fit = fit_log_spiral(curve, -ff.A0)
        fits.append({"level": fit.level, "slope_fit": fit.slope_fit,
                     "expected_slope": fit.expected_slope,
                     "residual": fit.residual, "n_points": fit.n_points,
                     "partial": curve.touches_boundary})
        for (lr, th), (j1, j2) in zip(zip(curve.lnrho, curve.theta),
                                      curve.j_points):
            rows.append((level, lr, th, j1, j2))
    out = Path(cfg.out)
    write_csv(out / "contours.csv", ["level", "ln_rho", "theta", "j1", "j2"],
              rows)
    write_summary(out / "spiral_summary.json", cfg, {"fits": fits})
    return EXIT_OK


def cmd_monodromy(cfg: RunConfig) -> int:
    system = cfg.build_system()
    index = monodromy_index(system, cfg.radius, cfg.n_points)
    rows = []
    angles = (np.arange(cfg.n_points + 1) * TWO_PI / cfg.n_points
              + math.pi / cfg.n_points)
    theta_ref = None
    for th in angles:
        j = MomentumValue(cfg.radius * math.cos(th), cfg.radius * math.sin(th))
        c = from_momentum_chart(system, j)
        samp = period_lattice(system, c, theta_ref=theta_ref)
        theta_ref = samp.theta
        rows.append((c.h, c.l, samp.T, samp.theta, samp.tau1, samp.tau2,
                     samp.branch))
    out = Path(cfg.out)
    write_csv(out / "monodromy_loop.csv",
              ["h", "l", "T", "Theta", "tau1", "tau2", "branch"], rows)
    doc = {"index": index, "radius": cfg.radius, "n_points": cfg.n_points}
    write_summary(out / "monodromy_summary.json", cfg, doc)
    print(json.dumps(doc, sort_keys=True, default=float))
    return EXIT_OK


def cmd_twistless(cfg: RunConfig) -> int:
    system = cfg.build_system()
    curve = twistless_curve(system, list(cfg.h_values))
    rows = [(s.h, s.l_star, s.j1, s.j2, s.s_residual) for s in curve.samples]
    out = Path(cfg.out)
    write_csv(out / "twistless.csv",
              ["h", "l_star", "j1", "j2", "S_residual"], rows)
    doc = {
        "degenerate_mode": curve.degenerate,
        "expected_slope": curve.expected_slope,
        "tangent_slope_fit": curve.tangent_slope_fit,
        "ratios_h_over_lstar": curve.ratios,
        "failures": [{"h": h, "reason": r} for h, r in curve.failures],
    }
    write_summary(out / "twistless_summary.json", cfg, doc)
    if not curve.samples:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_kolmogorov(cfg: RunConfig) -> int:
    system = cfg.build_system()
    sweep = asymptote_sweep(system, cfg.ray_angle, cfg.window[0],
                            cfg.window[1], samples_per_decade=3)
    rows = [(s.j_mod, s.tau1, s.det_I, s.asymptote, s.ratio) for s in sweep]
    out = Path(cfg.out)
    write_csv(out / "kolmogorov.csv",
              ["j_mod", "tau1", "det_I", "asymptote", "ratio"], rows)
    write_summary(out / "kolmogorov_summary.json", cfg, {
        "ray_angle": cfg.ray_angle,
        "all_negative": bool(all(s.det_I < 0 for s in sweep)),
        "ratios": [s.ratio for s in sweep]})
    return EXIT_OK


def cmd_crosscheck(cfg: RunConfig) -> int:
    system = cfg.build_system()
    rng = np.random.default_rng(cfg.seed)
    try:
        tori = sample_cross_tori(system, rng, cfg.n_tori, window=cfg.window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = cross_checks(system, tori,
                           cross_tol=cfg.tol.get("cross", CROSS_TOL))
    rows = [(c.h, c.l, res["T_quad"], res["T_flow"], res["theta_quad"],
             res["theta_flow"], res["rel_dT"], res["rel_dtheta"])
            for c, res in zip(tori, results) if isinstance(res, dict)]
    failures = len(tori) - len(rows)
    out = Path(cfg.out)
    write_csv(out / "crosscheck.csv",
              ["h", "l", "T_quad", "T_flow", "Theta_quad", "Theta_flow",
               "rel_dT", "rel_dTheta"], rows)
    write_summary(out / "crosscheck_summary.json", cfg, {
        "n_tori": cfg.n_tori, "failures": failures,
        "max_rel_dT": max((r[6] for r in rows), default=0.0),
        "max_rel_dTheta": max((r[7] for r in rows), default=0.0)})
    # per-point failures are recorded in the summary; only total failure
    # is a nonzero exit
    return EXIT_NUMERICAL if failures == cfg.n_tori else EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    from .acceptance import AcceptanceConfig, run_all
    # an explicit --window narrows the regular window of every system under
    # test; criteria whose |j| ranges no longer fit degrade to the
    # insufficient_range status
    acc_cfg = AcceptanceConfig(
        gamma=cfg.params.get("gamma", 0.5),
        j_floor=cfg.window[0] if cfg.window_given else None,
        j_cap=cfg.window[1] if cfg.window_given else None,
        jobs=cfg.jobs,
        n_cross_tori=cfg.n_tori,
        grid_resolution=cfg.res,
        seed=cfg.seed)
    results = run_all(acc_cfg)
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL",
               "insufficient_range": "SKIP(insufficient range)",
               "error": "ERROR"}[r.status]
        print(f"[{tag}] {r.cid}: {r.description}")
    doc = {"criteria": [{"id": r.cid, "description": r.description,
                         "status": r.status, "details": r.details}
                        for r in results],
           "all_passed": all(r.passed for r in results)}
    write_summary(Path(cfg.out) / "report.json", cfg, doc)
    return EXIT_OK if doc["all_passed"] else EXIT_ACCEPTANCE


COMMANDS = {
    "constants": cmd_constants,
    "grid": cmd_grid,
    "spiral": cmd_spiral,
    "monodromy": cmd_monodromy,
    "twistless": cmd_twistless,
    "kolmogorov": cmd_kolmogorov,
    "crosscheck": cmd_crosscheck,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="focusfocus",
        description="rotation number, twist and frequency-map analyses near "
                    "a focus-focus equilibrium")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key = value configuration file")
        sp.add_argument("--system", choices=["champagne", "pendulum"])
        sp.add_argument("--param", action="append", metavar="K=V")
        sp.add_argument("--tol", action="append", metavar="K=V")
        sp.add_argument("--window", metavar="RIN,ROUT")
        sp.add_argument("--res", metavar="N_R,N_THETA")
        sp.add_argument("--out")
        sp.add_argument("--jobs", type=int)
        if name == "monodromy":
            sp.add_argument("--radius", type=float)
            sp.add_argument("--n-points", dest="n_points", type=int)
        if name == "twistless":
            sp.add_argument("--h-values", dest="h_values",
                            metavar="H1,H2,...")
        if name == "kolmogorov":
            sp.add_argument("--ray-angle", dest="ray_angle", type=float)
        if name in ("crosscheck", "report"):
            sp.add_argument("--n-tori", dest="n_tori", type=int)
            sp.add_argument("--seed", type=int)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FocusFocusError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
