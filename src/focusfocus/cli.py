"""Command-line front end.

Subcommands orchestrate the analyses and emit CSV files plus a JSON
summary embedding the fully resolved configuration.  Outputs are
byte-identical run to run for a fixed configuration: every subcommand runs
in one process, and numbers are serialized with 17 significant digits.

Each subcommand reads the keys below (READS), given as "key = value"
lines of a --config file or as flags; any other key is a configuration
error.  A flag is --NAME VALUE or --NAME=VALUE, NAME the key with dashes
for underscores, never abbreviated; the token after a flag is its value
even when it starts with "-" (--h-values -1e-2,2e-2), but not "--".  The
file's lines apply first, then the flags in order: the last setting of a
key wins.  param.NAME sets one parameter of the system (--param NAME=V),
tol.NAME one tolerance (--tol NAME=V).  Every subcommand also takes --out
DIR and --jobs 1: it runs in one process (a grid is one array call, which
workers only slowed), and the flag stays for the benchmark harness,
perfbench/run.py, which passes --jobs 1 to all.  -h or --help lists the
subcommands, or after one its flags.

    constants   system, param.NAME
    grid        system, param.NAME, window, res
    spiral      system, param.NAME, window, res, levels
    monodromy   system, param.NAME, radius, n_points
    twistless   system, param.NAME, h_values
    kolmogorov  system, param.NAME, window, ray_angle
    crosscheck  system, param.NAME, window, n_tori, seed, tol.cross
    report      param.gamma, res, n_tori, seed

res: a grid's radii and angles; for spiral (and C5), each traced curve's
radii and the angles of the mid ring, whose W quantiles are the levels.

Exit codes: 0 success, 1 configuration error, 2 acceptance failure,
3 numerical total failure.
"""
from __future__ import annotations

import json
import math
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
    # no window: the criteria run on each system's own |j| window
    "report": {"param.gamma": 0.5, "res": RES, "n_tori": 50,
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


# the flag of each key, and of the --config file
FLAGS = {"--" + name.replace("_", "-"): name for name in ("config", *KEYS)}
HELP = ("-h", "--help")


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


def parse_argv(argv: list[str]) -> tuple[str | None,
                                         list[tuple[str, str, str]] | None]:
    """The subcommand argv names and the (key, value text, where) of each
    setting it gives: the --config file's lines, then the flags in order.
    The settings are None where argv asks for help, and the subcommand too
    where it asks before naming one."""
    if not argv:
        raise ConfigError(f"no subcommand; choose from {', '.join(READS)}")
    if argv[0] in HELP:
        return None, None
    command, tokens = argv[0], iter(argv[1:])
    if command not in READS:
        raise ConfigError(f"invalid choice: {command!r} (choose from "
                          f"{', '.join(READS)})")
    config, flags = None, []
    for token in tokens:
        if token in HELP:
            return command, None
        flag, eq, text = token.partition("=")
        if flag not in FLAGS:
            raise ConfigError(f"unrecognized argument {token!r}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ConfigError(f"{flag}: expected one argument")
        key = FLAGS[flag]
        if key == "config":
            config = text
            continue
        if key in ("param", "tol"):
            name, eq, text = text.partition("=")
            if not eq:
                raise ConfigError(f"{flag} must look like NAME=V, got "
                                  f"{name!r}")
            key = f"{key}.{name.strip()}"
        flags.append((key, text, flag))
    return command, (parse_config_file(config) if config is not None
                     else []) + flags


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

def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    """One line per row, every value with 17 significant digits (the ints,
    branch and mask, are small)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header), *(row % values for values in rows)]
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
    acc_cfg = AcceptanceConfig(
        gamma=cfg["param.gamma"], n_cross_tori=cfg["n_tori"],
        grid_resolution=cfg["res"], seed=cfg["seed"])
    try:
        acc_cfg.systems()   # a bad gamma, as build_system reports it
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = run_all(acc_cfg)
    for r in results:
        print(f"[{r.status.upper()}] {r.cid}: {r.description}")
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


def usage(command: str | None) -> str:
    """The --help text: the subcommands, or the flags of one."""
    if command is None:
        return (f"usage: focusfocus {{{','.join(READS)}}} [FLAG VALUE]...\n\n"
                "rotation number, twist and frequency-map analyses near a "
                "focus-focus equilibrium;\n'focusfocus COMMAND --help' lists "
                "the flags of a subcommand")
    reads = READS[command]
    names = [key.partition(".")[0] for key in reads]
    names += ["param"] * ("system" in reads) + ["out", "jobs"]
    rows = [("--config FILE", "'key = value' lines, which the flags "
                              "override")]
    for name in dict.fromkeys(names):
        key = KEYS[name]
        subs = [k.partition(".")[2] for k in reads if k.startswith(name + ".")]
        metavar = "|".join(subs) + "=V" if subs else key.metavar
        rows.append((f"--{name.replace('_', '-')} {metavar}", key.help))
    rows.append(("-h, --help", "show this help"))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([f"usage: focusfocus {command} [FLAG VALUE]...", ""]
                     + [f"  {flag:{width}}{text}" for flag, text in rows])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, given = parse_argv(argv)
        if given is None:
            print(usage(command))
            return EXIT_OK
        cfg = {**READS[command], "out": "out", "jobs": 1}
        for key, text, where in given:
            _assign(cfg, command, key, text, where)
        return COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FocusFocusError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
