"""Acceptance suite: structural and asymptotic checks at desk scale.

Each criterion is a pure function returning (status, details), the measured
values, and its docstring states the claim.  run_all executes the battery
and alone builds each CriterionResult, on every status: the id from the
function's name, the description from its docstring.  Criteria degrade to
"insufficient_range" when the window cannot host their |j| range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import (ChampagneBottle, MomentumValue, SphericalPendulum,
                      eval_constants, from_momentum_chart, polar)
from .lattice import (CROSS_DOMAINS, CROSS_TOL, annulus_sweep, cross_checks,
                      fit_asymptotic_model, sample_cross_tori)
from .rotation import extract_level_curve, fit_log_spiral, monodromy_index
from .twist import tilde_s, twistless_curve, twists
from .kolmogorov import asymptote_sweep, frequency_samples, tau_jacobian
from .errors import FocusFocusError

RNG_SEED = 20260810


@dataclass
class CriterionResult:
    cid: str
    description: str
    status: str                  # pass | fail | insufficient_range | error
    details: dict

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class AcceptanceConfig:
    gamma: float = 0.5
    j_floor: float | None = None     # override the systems' default floor
    j_cap: float | None = None
    n_cross_tori: int = 50
    grid_resolution: tuple[int, int] = (32, 64)
    seed: int = RNG_SEED             # draws C1's cross-check tori

    def systems(self):
        import dataclasses

        def adj(s):
            kw = {}
            if self.j_floor is not None:
                kw["j_floor"] = self.j_floor
            if self.j_cap is not None:
                kw["j_cap"] = min(self.j_cap, s.j_cap)
            return dataclasses.replace(s, **kw) if kw else s

        return (adj(ChampagneBottle(gamma=self.gamma)),
                adj(ChampagneBottle(gamma=0.0)),
                adj(SphericalPendulum()))


def _range_ok(system, r_lo: float, r_hi: float) -> bool:
    return system.j_floor <= r_lo and r_hi <= system.j_cap


def _insufficient(need: tuple[float, float], system) -> tuple[str, dict]:
    return "insufficient_range", {"needed_j_range": list(need),
                                  "window": [system.j_floor, system.j_cap]}


# --------------------------------------------------------------------------

def c1_cross_engine(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """quadrature vs flow (T, Theta) on random regular tori agree to 1e-7
    relative, both systems"""
    champ, _, pend = cfg.systems()
    rng = np.random.default_rng(cfg.seed)
    worst = {"rel_dT": 0.0, "rel_dtheta": 0.0}
    n_done = 0
    flow = {"flow_steps": {}, "max_energy_drift": {}}
    for system in (champ, pend):
        r_lo, r_hi = CROSS_DOMAINS[system.name]
        if not _range_ok(system, r_lo, r_hi):
            return _insufficient((r_lo, r_hi), system)
        tori = sample_cross_tori(system, rng, cfg.n_cross_tori)
        results, stats = cross_checks(system, tori, cross_tol=CROSS_TOL)
        for key, value in stats.items():
            flow[key][system.name] = value
        for res in results:
            if isinstance(res, FocusFocusError):
                return "fail", {"error": str(res), "tori_checked": n_done}
            worst["rel_dT"] = max(worst["rel_dT"], res["rel_dT"])
            worst["rel_dtheta"] = max(worst["rel_dtheta"], res["rel_dtheta"])
            n_done += 1
    # a check of no torus shows nothing
    return "pass" if n_done else "fail", {"tori_checked": n_done, **worst,
                                          "tol": CROSS_TOL, **flow}


def c2_monodromy(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """monodromy index 1.000 +- 1e-3 around the critical value (champagne
    gamma in {0, 0.5} and pendulum, radii {0.05, 0.1}); orientation
    reversal gives -1"""
    champ, champ0, pend = cfg.systems()
    cases = []
    for system in (champ, champ0, pend):
        for radius in (0.05, 0.1):
            if radius > system.j_cap or radius < system.j_floor:
                return _insufficient((radius, radius), system)
            cases.append((system.name, getattr(system, "gamma", None),
                          radius, monodromy_index(system, radius, 256)))
    rev = monodromy_index(champ, 0.1, 256, orientation=-1)
    ok = all(abs(ix - 1.0) <= 1e-3 for *_, ix in cases) \
        and abs(rev + 1.0) <= 1e-3
    return "pass" if ok else "fail", {
        "indices": [{"system": n, "gamma": g, "radius": r, "index": ix}
                    for n, g, r, ix in cases],
        "reversed_orientation": rev, "tol": 1e-3}


def c3_period_asymptotics(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """fitted coefficients of -Re ln(zeta) in tau1 and +Im ln(zeta) in tau2
    equal 1 +- 5% on |j| in [1e-4, 1e-2]"""
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient((1e-4, 1e-2), champ)
    model = fit_asymptotic_model(annulus_sweep(champ, 1e-4, 1e-2, 10, 16))
    ok = (abs(model.log_coeff_tau1 - 1.0) <= 0.05
          and abs(model.log_coeff_tau2 - 1.0) <= 0.05)
    return "pass" if ok else "fail", {
        "log_coeff_tau1": model.log_coeff_tau1,
        "log_coeff_tau2": model.log_coeff_tau2,
        "sigma1_0": model.sigma1_0, "sigma2_0": model.sigma2_0,
        "residuals": [model.residual_tau1, model.residual_tau2],
        "tol": 0.05}


def c4_rotation_form(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """2 pi W + A(0) ln|j| + arg(zeta) spreads by < 0.2 over |j| in [1e-4,
    1e-3]"""
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-3):
        return _insufficient((1e-4, 1e-3), champ)
    a0 = eval_constants(champ).A0
    sweep = annulus_sweep(champ, 1e-4, 1e-3, 5, 16)
    vals = [th + a0 * math.log(math.hypot(j1, j2)) + arg
            for th, j1, j2, arg in zip(*(a.ravel().tolist() for a in (
                sweep.theta, sweep.j1, sweep.j2, sweep.arg)))]
    spread = float(max(vals) - min(vals))
    return "pass" if spread < 0.2 else "fail", {
        "spread": spread, "n_samples": len(vals), "tol": 0.2}


def c5_spirals(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """W-contours are log-spirals with pitch -omega/alpha within 10%
    (champagne); pendulum contours are radial, slope 0 +- 0.02"""
    champ, _, pend = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2) or not _range_ok(pend, 1e-4, 1e-2):
        return _insufficient((1e-4, 1e-2), champ)
    out = {"champagne": [], "pendulum": []}
    ok = True
    for system, key in ((champ, "champagne"), (pend, "pendulum")):
        ff = eval_constants(system)
        # at omega = 0 the spiral is a star: 10% of a 0 pitch is no bound
        expected, tol = ((-ff.A0, 0.10 * abs(ff.A0)) if ff.omega
                         else (0.0, 0.02))
        for curve in extract_level_curve(system, (1e-4, 1e-2),
                                         cfg.grid_resolution,
                                         (0.3, 0.5, 0.7)):
            slope, residual = fit_log_spiral(curve)
            out[key].append({"level": curve.level, "slope": slope,
                             "expected": expected, "residual": residual})
            ok &= abs(slope - expected) <= tol
    return "pass" if ok else "fail", out


def c6_twistless(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """unique twistless torus per energy (champagne, h in {+-0.02,
    +-0.05}); twistless-curve tangent slope within 15% of
    omega(omega^2+alpha^2)/(omega^2-alpha^2) as h -> 0; gamma=0 degenerate
    mode: |h|/|l*| -> 0"""
    champ, champ0, _ = cfg.systems()
    details: dict = {}
    try:
        curve = twistless_curve(
            champ, [0.005, -0.005, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05])
    except FocusFocusError as exc:
        return "fail", {"error": str(exc)}
    if curve.degenerate:
        return "fail", {
            "error": "no loxodromic tangent at omega = 0: the expected "
                     "twistless slope is 0, so no relative error exists"}
    named = {s.h: s for s in curve.samples}
    unique_ok = all(h in named for h in (0.02, -0.02, 0.05, -0.05))
    slope_err = abs(curve.tangent_slope_fit - curve.expected_slope) \
        / abs(curve.expected_slope)
    details["samples"] = [{"h": s.h, "l_star": s.l_star,
                           "s_residual": s.s_residual}
                          for s in curve.samples]
    details["failures"] = curve.failures
    details["tangent_slope_fit"] = curve.tangent_slope_fit
    details["expected_slope"] = curve.expected_slope
    details["slope_rel_err"] = slope_err

    ratios_ok = False
    try:
        dcurve = twistless_curve(
            champ0, [0.002, -0.002, 0.005, -0.005, 0.01, -0.01])
        details["degenerate_ratios"] = dcurve.ratios
        r = dcurve.ratios
        ratios_ok = len(r) >= 3 and all(r[i] > r[i + 1]
                                        for i in range(len(r) - 1))
    except FocusFocusError as exc:
        details["degenerate_error"] = str(exc)

    ok = unique_ok and slope_err <= 0.15 and ratios_ok
    return "pass" if ok else "fail", details


def c7_tilde_s(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """S~ -> 0 at the origin (monotone over |j| = 1e-2, 1e-3, 1e-4 along 8
    rays) and its central-difference gradient at the origin equals (A0^2
    - 1, -2 A0) within 10%"""
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient((1e-4, 1e-2), champ)
    ff = eval_constants(champ)
    d = 1e-3   # the gradient's central-difference step in j
    # 8 rays (rows) at 3 radii; then (d, 0), (-d, 0) on the j1 axis and,
    # mirrored, (0, d), (0, -d): math.cos(pi / 2) is not 0
    rays = polar((1e-2, 1e-3, 1e-4), [k * math.pi / 4 + 0.02
                                      for k in range(8)])
    axis = polar((d, -d), [0.0])
    c = from_momentum_chart(champ, MomentumValue(
        np.concatenate([rays.j1.T.ravel(), axis.j1.ravel(), axis.j2.ravel()]),
        np.concatenate([rays.j2.T.ravel(), axis.j2.ravel(), axis.j1.ravel()])))
    st = tilde_s(champ, c.h, c.l, twists(champ, c.h, c.l)).tolist()
    ray_values = [list(map(abs, st[k:k + 3])) for k in range(0, 24, 3)]
    decay_ok = all(v[0] > v[1] > v[2] for v in ray_values)
    g1, g2 = (st[-4] - st[-3]) / (2.0 * d), (st[-2] - st[-1]) / (2.0 * d)
    exp1, exp2 = ff.A0 ** 2 - 1.0, -2.0 * ff.A0
    grad_ok = (abs(g1 - exp1) <= 0.10 * abs(exp1)
               and abs(g2 - exp2) <= 0.10 * abs(exp2))
    return "pass" if (decay_ok and grad_ok) else "fail", {
        "ray_decay": ray_values, "grad_fd": [g1, g2],
        "grad_expected": [exp1, exp2]}


def c8_kolmogorov(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """det domega/dI < 0 on every evaluated torus with |j| <= 1e-2 (both
    systems); ratio to -(2 pi alpha/(|j| tau1^2))^2 within 30% at |j| =
    1e-4 and |ratio - 1| decreasing over decades; det dtau/dj |j|^2 = -1
    +- 10% at 1e-3; mixed partials to 1e-5"""
    champ, _, pend = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient((1e-4, 1e-2), champ)
    details: dict = {}

    # negativity on both systems, each in one call
    dets = []
    for system in (champ, pend):
        c = from_momentum_chart(system, polar(np.geomspace(1e-4, 1e-2, 3),
                                              (0.7, 2.2, 3.9, 5.5)))
        dets += [fs.det_I for fs in frequency_samples(system, c.h.ravel(),
                                                      c.l.ravel())]
    neg_ok = all(d < 0.0 for d in dets)
    details["n_negativity_samples"] = len(dets)
    details["max_det_I"] = max(dets)

    # ratio trend and endpoint value along one ray
    sweep = asymptote_sweep(champ, 0.7, 1e-4, 1e-2, samples_per_decade=1)
    ratios = [fs.ratio for fs in sweep]     # ascending |j|
    errs = [abs(r - 1.0) for r in ratios]
    ratio_ok = errs[0] <= 0.30 and all(errs[i] <= errs[i + 1] * 1.05
                                       for i in range(len(errs) - 1))
    details["ratios_ascending_j"] = ratios

    # tau-Jacobian structure at |j| = 1e-3
    th = 0.7
    j = MomentumValue(1e-3 * math.cos(th), 1e-3 * math.sin(th))
    c = from_momentum_chart(champ, j)
    tj = tau_jacobian(champ, c)
    det_scaled = float((tj[0, 0] * tj[1, 1] - tj[0, 1] * tj[1, 0]) * 1e-6)
    mixed_rel = float(abs(tj[0, 1] - tj[1, 0])
                      / max(abs(tj[0, 1]), abs(tj[1, 0])))
    det_ok = abs(det_scaled + 1.0) <= 0.10
    mixed_ok = mixed_rel <= 1e-5
    details["det_dtau_scaled"] = det_scaled
    details["mixed_partial_rel_asym"] = mixed_rel

    ok = neg_ok and ratio_ok and det_ok and mixed_ok
    details["checks"] = {"negativity": neg_ok, "ratio_trend": ratio_ok,
                         "det_tau": det_ok, "mixed_partials": mixed_ok}
    return "pass" if ok else "fail", details


def c9_determinism(cfg: AcceptanceConfig) -> tuple[str, dict]:
    """identical configs produce byte-identical CSVs run to run"""
    import tempfile
    from pathlib import Path
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as td:
        outs = []
        for tag in ("a", "b"):
            out = Path(td) / tag
            rc = cli_main(["grid", "--system", "champagne",
                           "--param", f"gamma={cfg.gamma}",
                           "--window", "1e-3,1e-2", "--res", "6,12",
                           "--out", str(out)])
            if rc != 0:
                return "fail", {"exit_code": rc, "run": tag}
            outs.append((out / "grid.csv").read_bytes())
    ok = outs[0] == outs[1]
    return "pass" if ok else "fail", {"bytes": len(outs[0]), "identical": ok}


CRITERIA = [c1_cross_engine, c2_monodromy, c3_period_asymptotics,
            c4_rotation_form, c5_spirals, c6_twistless, c7_tilde_s,
            c8_kolmogorov, c9_determinism]


def run_all(cfg: AcceptanceConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or AcceptanceConfig()
    results = []
    for crit in CRITERIA:
        try:
            status, details = crit(cfg)
        except FocusFocusError as exc:
            status, details = "error", {"error": str(exc)}
        name = crit.__name__
        doc = crit.__doc__ or name      # python -OO strips docstrings
        results.append(CriterionResult(name.split("_")[0].upper(),
                                       " ".join(doc.split()), status, details))
    return results
