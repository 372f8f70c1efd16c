"""Command-line front end.

Subcommands orchestrate the analyses and emit CSV files plus a JSON
summary embedding the fully resolved configuration.  Outputs are
byte-identical run to run for a fixed configuration: every subcommand runs
in one process, and numbers are serialized with 17 significant digits.

Each subcommand reads the keys below (READS), given as flags or as
"key = value" lines of a --config file, which the flags override; any
other key is a configuration error.  param.NAME sets one parameter of the
system (--param NAME=V), tol.NAME one tolerance (--tol NAME=V).  Every
subcommand also takes --out DIR and --jobs 1: it runs in one process (a
grid is one array call, which workers only slowed), and the flag stays for
the benchmark harness, perfbench/run.py, which passes --jobs 1 to all.

    constants   system, param.NAME
    grid        system, param.NAME, window, res
    spiral      system, param.NAME, window, res, levels
    monodromy   system, param.NAME, radius, n_points
    twistless   system, param.NAME, h_values
    kolmogorov  system, param.NAME, window, ray_angle
    crosscheck  system, param.NAME, window, n_tori, seed, tol.cross
    report      param.gamma, window, res, n_tori, seed

res: a grid's radii and angles; for spiral (and C5), each traced curve's
radii and the angles of the mid ring, whose W quantiles are the levels.

Exit codes: 0 success, 1 configuration error, 2 acceptance failure,
3 numerical total failure.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FocusFocusError, ScanError
from .systems import eval_constants, make_system
from .lattice import CROSS_TOL, cross_checks, sample_cross_tori
from .rotation import (MASK_CORE, MASK_REGULAR, MIN_LOOP_POINTS,
                       extract_level_curve, fit_log_spiral, monodromy_loop,
                       rotation_grid)
from .twist import expected_twistless_slope, twistless_curve
from .kolmogorov import asymptote_sweep
from .acceptance import RNG_SEED, AcceptanceConfig, run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ACCEPTANCE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


WINDOW = (1e-4, 1e-2)
RES = (32, 64)
# the keys each subcommand reads, with their defaults.  A subcommand that
# reads "system" also reads every param.NAME of that system.
READS = {
    "constants": {"system": "champagne"},
    "grid": {"system": "champagne", "window": WINDOW, "res": RES},
    "spiral": {"system": "champagne", "window": WINDOW, "res": RES,
               "levels": (0.3, 0.5, 0.7)},
    "monodromy": {"system": "champagne", "radius": 0.1, "n_points": 256},
    "twistless": {"system": "champagne",
                  "h_values": (0.005, -0.005, 0.01, -0.01,
                               0.02, -0.02, 0.05, -0.05)},
    "kolmogorov": {"system": "champagne", "window": WINDOW, "ray_angle": 0.7},
    "crosscheck": {"system": "champagne", "window": WINDOW, "n_tori": 50,
                   "seed": RNG_SEED, "tol.cross": CROSS_TOL},
    # no default window: the criteria run on each system's own |j|
    # window, which a given window narrows
    "report": {"param.gamma": 0.5, "window": None, "res": RES, "n_tori": 50,
               "seed": RNG_SEED},
}


@dataclass(frozen=True)
class Key:
    """How the text of a key parses, the condition its value must meet
    (need, in words), and the metavar and help of its flag."""
    parse: Callable[[str], object]
    metavar: str
    help: str
    check: Callable[[object], bool] | None = None
    need: str = ""


def _float(text: str) -> float:
    """A finite float: inf and nan would pass every order check."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _numbers(cast, count: int | None = None):
    """Parser of comma-separated numbers, exactly count of them if given."""
    def parse(text: str) -> tuple:
        values = tuple(cast(t) for t in text.split(","))
        if count is not None and len(values) != count:
            raise ValueError(f"need {count} comma-separated values")
        return values
    return parse


# every key by its file name; param.NAME and tol.NAME take the param and
# tol entries.  The flag of a key is --NAME, with dashes for underscores.
KEYS = {
    "system": Key(str, "{champagne,pendulum}", "system under study"),
    "param": Key(_float, "NAME=V", "system parameter"),
    "tol": Key(_float, "NAME=V", "tolerance", lambda v: v > 0, "> 0"),
    "window": Key(_numbers(_float, 2), "RIN,ROUT", "|j| window",
                  lambda w: 0 < w[0] < w[1], "0 < RIN < ROUT"),
    # a row of 4 angles steps Theta by 0.5 pi + O(|j|), which the wrap
    # guard of lattice.transport (MAX_BRANCH_STEP = 0.5 pi) rejects
    "res": Key(_numbers(int, 2), "N_R,N_THETA", "radii and angles",
               lambda r: r[0] >= 2 and r[1] >= 5, "N_R >= 2, N_THETA >= 5"),
    "levels": Key(_numbers(_float), "Q1,Q2,...",
                  "contour levels, as quantiles of the mid-ring W",
                  lambda qs: all(0 <= q <= 1 for q in qs), "in [0, 1]"),
    "radius": Key(_float, "R", "|j| of the monodromy loop", lambda r: r > 0,
                  "> 0"),
    "n_points": Key(int, "N", "tori on the monodromy loop",
                    lambda n: n >= MIN_LOOP_POINTS, f">= {MIN_LOOP_POINTS}"),
    # a repeated energy would count twice toward the tangent fit's samples
    "h_values": Key(_numbers(_float), "H1,H2,...",
                    "energies of the twistless tori",
                    lambda hs: len(set(hs)) == len(hs), "distinct"),
    "ray_angle": Key(_float, "ANGLE", "arg zeta of the ray"),
    "n_tori": Key(int, "N", "cross-check tori per system", lambda n: n >= 1,
                  ">= 1"),
    "seed": Key(int, "N", "seed of the cross-check tori", lambda n: n >= 0,
                ">= 0"),
    "out": Key(str, "DIR", "output directory"),
    "jobs": Key(int, "N", "worker processes: 1 only", lambda n: n == 1, "1"),
}


def _flags(command: str) -> list[str]:
    """The KEYS entries a subcommand has a flag for, in table order."""
    flags = []
    for key in READS[command]:
        flags.append(key.partition(".")[0])
        if key == "system":
            flags.append("param")
    return list(dict.fromkeys(flags + ["out", "jobs"]))


def parse_config_file(path: str | Path) -> list[tuple[str, str, str]]:
    """(key, value text, file:line) of each "key = value" line, in order;
    '#' starts a comment.  An unreadable file or a line without '=' is a
    configuration error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror or exc}") from exc
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        lines.append((key.strip(), value.strip(), f"{path}:{lineno}"))
    return lines


def _assign(cfg: dict, command: str, key: str, text: str, where: str) -> None:
    """Parse and check text as the value of key, into cfg."""
    if not (key in cfg or key.startswith("param.") and "system" in cfg):
        raise ConfigError(f"{where}: {command} reads no key {key!r}")
    spec = KEYS[key.partition(".")[0]]
    try:
        value = spec.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value {text!r} for {key!r}: "
                          f"{exc}") from exc
    if spec.check is not None and not spec.check(value):
        raise ConfigError(f"{where}: {key} must be {spec.need}, got {text!r}")
    cfg[key] = value


def build_config(args: argparse.Namespace) -> dict:
    """The value of every key the subcommand reads, plus out and jobs: the
    defaults of READS, then the --config file, then the flags."""
    cfg = {**READS[args.command], "out": "out", "jobs": 1}
    given = parse_config_file(args.config) if args.config else []
    for flag, value in vars(args).items():
        if flag in ("command", "config") or value is None:
            continue
        where = "--" + flag.replace("_", "-")
        if flag not in ("param", "tol"):
            given.append((flag, value, where))
            continue
        for kv in value:
            name, eq, text = kv.partition("=")
            if not eq:
                raise ConfigError(f"{where} must look like NAME=V, got "
                                  f"{kv!r}")
            given.append((f"{flag}.{name.strip()}", text, where))
    for key, text, where in given:
        _assign(cfg, args.command, key, text, where)
    return cfg


def build_system(cfg: dict):
    """The system cfg names, with its param.NAME values."""
    params = {k[6:]: cfg[k] for k in cfg if k.startswith("param.")}
    try:
        return make_system(cfg["system"], **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def fmt(x) -> str:
    return format(x, ".17g")   # the CSVs' ints (branch, mask) are small


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _strict(value):
    """value with every non-finite float as None: JSON has no NaN or
    infinity, and a strict parser rejects the NaN that json writes."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def write_summary(path: Path, cfg: dict, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = _strict({"config": cfg, **payload})
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=float,
                               allow_nan=False) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_constants(cfg: dict) -> int:
    system = build_system(cfg)
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
    out = Path(cfg["out"])
    write_summary(out / "constants.json", cfg, doc)
    print(json.dumps(doc, sort_keys=True, indent=2, default=float))
    return EXIT_OK


def cmd_grid(cfg: dict) -> int:
    system = build_system(cfg)
    grid = rotation_grid(system, cfg["window"], cfg["res"])
    rows = list(zip(*(a.ravel().tolist() for a in (
        grid.h, grid.l, grid.j1, grid.l, grid.w, grid.branch, grid.mask))))
    out = Path(cfg["out"])
    write_csv(out / "grid.csv", ["h", "l", "j1", "j2", "W", "branch", "mask"],
              rows)
    if np.all(grid.mask != MASK_REGULAR):
        core = np.count_nonzero(grid.mask == MASK_CORE)
        raise FocusFocusError(f"every torus of the grid is masked: {core} "
                              f"below the |j| floor, {grid.mask.size - core} "
                              "failed")
    write_summary(out / "grid_summary.json", cfg, {
        "masked_fraction": grid.masked_fraction(),
        "W_range": [float(np.nanmin(grid.w)), float(np.nanmax(grid.w))]})
    return EXIT_OK


def cmd_spiral(cfg: dict) -> int:
    system = build_system(cfg)
    ff = eval_constants(system)
    expected = -ff.A0 if ff.omega else 0.0   # as C5's, never -0.0
    fits = []
    rows = []
    for curve in extract_level_curve(system, cfg["window"], cfg["res"],
                                     cfg["levels"]):
        slope, residual = fit_log_spiral(curve)
        fits.append({"level": curve.level, "slope_fit": slope,
                     "expected_slope": expected, "residual": residual,
                     "n_points": len(curve.lnrho),
                     "partial": curve.touches_boundary})
        for (lr, th), (j1, j2) in zip(zip(curve.lnrho, curve.theta),
                                      curve.j_points):
            rows.append((curve.level, lr, th, j1, j2))
    out = Path(cfg["out"])
    write_csv(out / "contours.csv", ["level", "ln_rho", "theta", "j1", "j2"],
              rows)
    write_summary(out / "spiral_summary.json", cfg, {"fits": fits})
    return EXIT_OK


def cmd_monodromy(cfg: dict) -> int:
    system = build_system(cfg)
    loop, index = monodromy_loop(system, cfg["radius"], cfg["n_points"])
    rows = list(zip(*(a.ravel().tolist() for a in (
        loop.h, loop.l, loop.T, loop.theta, loop.tau1, loop.tau2,
        loop.branch))))
    out = Path(cfg["out"])
    write_csv(out / "monodromy_loop.csv",
              ["h", "l", "T", "Theta", "tau1", "tau2", "branch"], rows)
    doc = {"index": index, "radius": cfg["radius"],
           "n_points": cfg["n_points"]}
    write_summary(out / "monodromy_summary.json", cfg, doc)
    print(json.dumps(doc, sort_keys=True, default=float))
    return EXIT_OK


def cmd_twistless(cfg: dict) -> int:
    system = build_system(cfg)
    curve = twistless_curve(system, list(cfg["h_values"]))
    rows = [(s.h, s.l_star, s.j1, s.j2, s.s_residual) for s in curve.samples]
    out = Path(cfg["out"])
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
        h, reason = curve.failures[0]
        raise ScanError(f"no twistless torus at any energy; at h={h:.6g}: "
                        f"{reason}")
    return EXIT_OK


def cmd_kolmogorov(cfg: dict) -> int:
    system = build_system(cfg)
    sweep = asymptote_sweep(system, cfg["ray_angle"], *cfg["window"],
                            samples_per_decade=3)
    rows = [(s.j_mod, s.tau1, s.det_I, s.asymptote, s.ratio) for s in sweep]
    out = Path(cfg["out"])
    write_csv(out / "kolmogorov.csv",
              ["j_mod", "tau1", "det_I", "asymptote", "ratio"], rows)
    write_summary(out / "kolmogorov_summary.json", cfg, {
        "ray_angle": cfg["ray_angle"],
        "all_negative": bool(all(s.det_I < 0 for s in sweep)),
        "ratios": [s.ratio for s in sweep]})
    return EXIT_OK


def cmd_crosscheck(cfg: dict) -> int:
    system = build_system(cfg)
    rng = np.random.default_rng(cfg["seed"])
    try:
        tori = sample_cross_tori(system, rng, cfg["n_tori"],
                                 window=cfg["window"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results, stats = cross_checks(system, tori, cross_tol=cfg["tol.cross"])
    rows = [(c.h, c.l, res["T_quad"], res["T_flow"], res["theta_quad"],
             res["theta_flow"], res["rel_dT"], res["rel_dtheta"])
            for c, res in zip(tori, results) if isinstance(res, dict)]
    failures = len(tori) - len(rows)
    out = Path(cfg["out"])
    write_csv(out / "crosscheck.csv",
              ["h", "l", "T_quad", "T_flow", "Theta_quad", "Theta_flow",
               "rel_dT", "rel_dTheta"], rows)
    write_summary(out / "crosscheck_summary.json", cfg, {
        "n_tori": cfg["n_tori"], "failures": failures,
        "max_rel_dT": max((r[6] for r in rows), default=0.0),
        "max_rel_dTheta": max((r[7] for r in rows), default=0.0), **stats})
    # per-point failures are recorded in the summary; only total failure
    # is a nonzero exit
    if failures == cfg["n_tori"]:
        first = results[0]
        raise FocusFocusError(f"every one of the {failures} cross-check tori "
                              f"failed, the first with "
                              f"{type(first).__name__}: {first}")
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    # a given window narrows the regular window of every system under test;
    # criteria whose |j| ranges no longer fit degrade to the
    # insufficient_range status
    j_floor, j_cap = cfg["window"] or (None, None)
    acc_cfg = AcceptanceConfig(
        gamma=cfg["param.gamma"],
        j_floor=j_floor,
        j_cap=j_cap,
        n_cross_tori=cfg["n_tori"],
        grid_resolution=cfg["res"],
        seed=cfg["seed"])
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
    write_summary(Path(cfg["out"]) / "report.json", cfg, doc)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a
    ConfigError, as build_config reports a bad key or value.  A token of
    "-" or "-." and a digit is a value (-1e-2,2e-2), which argparse, taking
    only plain numbers such as -0.5 as values, would read as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the name of a subcommand, only that
    subcommand's parser is built (the one a command line naming it runs);
    otherwise all of them, which --help lists and an unknown name is
    checked against."""
    p = _Parser(prog="focusfocus",
                description="rotation number, twist and frequency-map "
                            "analyses near a focus-focus equilibrium")
    sub = p.add_subparsers(dest="command", required=True)
    for name in [command] if command in READS else READS:
        reads = READS[name]
        sp = sub.add_parser(name)
        sp.add_argument("--config", metavar="FILE",
                        help="'key = value' lines, which the flags override")
        for flag in _flags(name):
            key = KEYS[flag]
            if flag in ("param", "tol"):
                names = [k.partition(".")[2] for k in reads
                         if k.startswith(flag + ".")]
                sp.add_argument("--" + flag, action="append", help=key.help,
                                metavar="|".join(names) + "=V" if names
                                else key.metavar)
            else:
                sp.add_argument("--" + flag.replace("_", "-"),
                                metavar=key.metavar, help=key.help)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return COMMANDS[args.command](build_config(args))
    except SystemExit:   # --help; a bad command line raises ConfigError
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FocusFocusError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
