"""Acceptance suite: structural and asymptotic checks at desk scale.

Each criterion is a pure function returning a CriterionResult with measured
values; run_all executes the full battery.  Criteria degrade gracefully to
an "insufficient_range" status when the configured window cannot host the
required |j| range instead of crashing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .systems import (ChampagneBottle, MomentumValue, SphericalPendulum,
                      eval_constants, from_momentum_chart)
from .lattice import (CROSS_DOMAINS, CROSS_TOL, annulus_sweep, cross_checks,
                      fit_asymptotic_model, sample_cross_tori)
from .rotation import (AnnulusRegion, contour_levels, extract_level_curve,
                       fit_log_spiral, monodromy_index, rotation_grid)
from .twist import tilde_s, twistless_curve, twists
from .kolmogorov import asymptote_sweep, frequency_samples, tau_jacobian
from .errors import FocusFocusError

RNG_SEED = 20260810


@dataclass
class CriterionResult:
    cid: str
    description: str
    status: str                  # pass | fail | insufficient_range | error
    details: dict = field(default_factory=dict)

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


def _insufficient(cid: str, desc: str, need: tuple[float, float],
                  system) -> CriterionResult:
    return CriterionResult(cid, desc, "insufficient_range", {
        "needed_j_range": list(need),
        "window": [system.j_floor, system.j_cap]})


# --------------------------------------------------------------------------

def c1_cross_engine(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("quadrature vs flow (T, Theta) on random regular tori agree to "
            "1e-7 relative, both systems")
    champ, _, pend = cfg.systems()
    rng = np.random.default_rng(cfg.seed)
    worst = {"rel_dT": 0.0, "rel_dtheta": 0.0}
    n_done = 0
    for system in (champ, pend):
        r_lo, r_hi, _ = CROSS_DOMAINS[system.name]
        if not _range_ok(system, r_lo, r_hi):
            return _insufficient("C1", desc, (r_lo, r_hi), system)
        tori = sample_cross_tori(system, rng, cfg.n_cross_tori)
        for res in cross_checks(system, tori, cross_tol=CROSS_TOL):
            if isinstance(res, FocusFocusError):
                return CriterionResult("C1", desc, "fail",
                                       {"error": str(res),
                                        "tori_checked": n_done})
            worst["rel_dT"] = max(worst["rel_dT"], res["rel_dT"])
            worst["rel_dtheta"] = max(worst["rel_dtheta"], res["rel_dtheta"])
            n_done += 1
    # a check of no torus shows nothing
    return CriterionResult("C1", desc, "pass" if n_done else "fail",
                           {"tori_checked": n_done, **worst,
                            "tol": CROSS_TOL})


def c2_monodromy(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("monodromy index 1.000 +- 1e-3 around the critical value "
            "(champagne gamma in {0, 0.5} and pendulum, radii {0.05, 0.1}); "
            "orientation reversal gives -1")
    champ, champ0, pend = cfg.systems()
    cases = []
    for system in (champ, champ0, pend):
        for radius in (0.05, 0.1):
            if radius > system.j_cap or radius < system.j_floor:
                return _insufficient("C2", desc, (radius, radius), system)
            cases.append((system.name, getattr(system, "gamma", None),
                          radius, monodromy_index(system, radius, 256)))
    rev = monodromy_index(champ, 0.1, 256, orientation=-1)
    ok = all(abs(ix - 1.0) <= 1e-3 for *_, ix in cases) \
        and abs(rev + 1.0) <= 1e-3
    return CriterionResult("C2", desc, "pass" if ok else "fail", {
        "indices": [{"system": n, "gamma": g, "radius": r, "index": ix}
                    for n, g, r, ix in cases],
        "reversed_orientation": rev, "tol": 1e-3})


def c3_period_asymptotics(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("fitted coefficients of -Re ln(zeta) in tau1 and +Im ln(zeta) "
            "in tau2 equal 1 +- 5% on |j| in [1e-4, 1e-2]")
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient("C3", desc, (1e-4, 1e-2), champ)
    model = fit_asymptotic_model(annulus_sweep(champ, 1e-4, 1e-2, 10, 16))
    ok = (abs(model.log_coeff_tau1 - 1.0) <= 0.05
          and abs(model.log_coeff_tau2 - 1.0) <= 0.05)
    return CriterionResult("C3", desc, "pass" if ok else "fail", {
        "log_coeff_tau1": model.log_coeff_tau1,
        "log_coeff_tau2": model.log_coeff_tau2,
        "sigma1_0": model.sigma1_0, "sigma2_0": model.sigma2_0,
        "residuals": [model.residual_tau1, model.residual_tau2],
        "tol": 0.05})


def c4_rotation_form(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("2 pi W + A(0) ln|j| + arg(zeta) spreads by < 0.2 over "
            "|j| in [1e-4, 1e-3]")
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-3):
        return _insufficient("C4", desc, (1e-4, 1e-3), champ)
    a0 = eval_constants(champ).A0
    vals = [s.lattice.theta + a0 * math.log(s.j.modulus) + s.theta_tracked
            for s in annulus_sweep(champ, 1e-4, 1e-3, 5, 16)]
    spread = float(max(vals) - min(vals))
    return CriterionResult("C4", desc, "pass" if spread < 0.2 else "fail",
                           {"spread": spread, "n_samples": len(vals),
                            "tol": 0.2})


def c5_spirals(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("W-contours are log-spirals with pitch -omega/alpha within 10% "
            "(champagne); pendulum contours are radial, slope 0 +- 0.02")
    champ, _, pend = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2) or not _range_ok(pend, 1e-4, 1e-2):
        return _insufficient("C5", desc, (1e-4, 1e-2), champ)
    out = {"champagne": [], "pendulum": []}
    ok = True
    for system, expected, tol_abs, key in (
            (champ, -eval_constants(champ).A0, None, "champagne"),
            (pend, 0.0, 0.02, "pendulum")):
        grid = rotation_grid(system, AnnulusRegion(1e-4, 1e-2),
                             cfg.grid_resolution)
        for level in contour_levels(grid, (0.3, 0.5, 0.7)):
            fit = fit_log_spiral(extract_level_curve(grid, level), expected)
            out[key].append({"level": fit.level, "slope": fit.slope_fit,
                             "expected": expected,
                             "residual": fit.residual})
            if tol_abs is None:
                ok &= abs(fit.slope_fit - expected) <= 0.10 * abs(expected)
            else:
                ok &= abs(fit.slope_fit - expected) <= tol_abs
    return CriterionResult("C5", desc, "pass" if ok else "fail", out)


def c6_twistless(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("unique twistless torus per energy (champagne, h in {+-0.02, "
            "+-0.05}); twistless-curve tangent slope within 15% of "
            "omega(omega^2+alpha^2)/(omega^2-alpha^2) as h -> 0; gamma=0 "
            "degenerate mode: |h|/|l*| -> 0")
    champ, champ0, _ = cfg.systems()
    details: dict = {}
    try:
        curve = twistless_curve(
            champ, [0.005, -0.005, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05])
    except FocusFocusError as exc:
        return CriterionResult("C6", desc, "fail", {"error": str(exc)})
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
    return CriterionResult("C6", desc, "pass" if ok else "fail", details)


def c7_tilde_s(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("S~ -> 0 at the origin (monotone over |j| = 1e-2, 1e-3, 1e-4 "
            "along 8 rays) and its central-difference gradient at the "
            "origin equals (A0^2 - 1, -2 A0) within 10%")
    champ, _, _ = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient("C7", desc, (1e-4, 1e-2), champ)
    ff = eval_constants(champ)
    rays = [k * math.pi / 4 + 0.02 for k in range(8)]
    d = 1e-3   # the gradient's central-difference step in j
    js = [MomentumValue(rho * math.cos(th), rho * math.sin(th))
          for th in rays for rho in (1e-2, 1e-3, 1e-4)]
    js += [MomentumValue(*v) for v in ((d, 0.), (-d, 0.), (0., d), (0., -d))]
    cs = [from_momentum_chart(champ, j) for j in js]
    st = [tilde_s(champ, c, S) for c, S in zip(cs, twists(champ, cs))]
    ray_values = [list(map(abs, st[k:k + 3])) for k in range(0, 24, 3)]
    decay_ok = all(v[0] > v[1] > v[2] for v in ray_values)
    g1, g2 = (st[-4] - st[-3]) / (2.0 * d), (st[-2] - st[-1]) / (2.0 * d)
    exp1, exp2 = ff.A0 ** 2 - 1.0, -2.0 * ff.A0
    grad_ok = (abs(g1 - exp1) <= 0.10 * abs(exp1)
               and abs(g2 - exp2) <= 0.10 * abs(exp2))
    status = "pass" if (decay_ok and grad_ok) else "fail"
    return CriterionResult("C7", desc, status, {
        "ray_decay": ray_values, "grad_fd": [g1, g2],
        "grad_expected": [exp1, exp2]})


def c8_kolmogorov(cfg: AcceptanceConfig) -> CriterionResult:
    desc = ("det domega/dI < 0 on every evaluated torus with |j| <= 1e-2 "
            "(both systems); ratio to -(2 pi alpha/(|j| tau1^2))^2 within "
            "30% at |j| = 1e-4 and |ratio - 1| decreasing over decades; "
            "det dtau/dj |j|^2 = -1 +- 10% at 1e-3; mixed partials to 1e-5")
    champ, _, pend = cfg.systems()
    if not _range_ok(champ, 1e-4, 1e-2):
        return _insufficient("C8", desc, (1e-4, 1e-2), champ)
    details: dict = {}

    # negativity on both systems, each in one call
    dets = []
    for system in (champ, pend):
        dets += [fs.det_I for fs in frequency_samples(system, [
            from_momentum_chart(system, MomentumValue(rho * math.cos(th),
                                                      rho * math.sin(th)))
            for th in (0.7, 2.2, 3.9, 5.5)
            for rho in np.geomspace(1e-4, 1e-2, 3).tolist()])]
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
    return CriterionResult("C8", desc, "pass" if ok else "fail", details)


def c9_determinism(cfg: AcceptanceConfig) -> CriterionResult:
    desc = "identical configs produce byte-identical CSVs run to run"
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
                return CriterionResult("C9", desc, "fail",
                                       {"exit_code": rc, "run": tag})
            outs.append((out / "grid.csv").read_bytes())
    ok = outs[0] == outs[1]
    return CriterionResult("C9", desc, "pass" if ok else "fail",
                           {"bytes": len(outs[0]), "identical": ok})


CRITERIA = [c1_cross_engine, c2_monodromy, c3_period_asymptotics,
            c4_rotation_form, c5_spirals, c6_twistless, c7_tilde_s,
            c8_kolmogorov, c9_determinism]


def run_all(cfg: AcceptanceConfig | None = None) -> list[CriterionResult]:
    cfg = cfg or AcceptanceConfig()
    results = []
    for crit in CRITERIA:
        try:
            results.append(crit(cfg))
        except FocusFocusError as exc:
            cid = crit.__name__.split("_")[0].upper()
            results.append(CriterionResult(cid, crit.__doc__ or crit.__name__,
                                           "error", {"error": str(exc)}))
    return results
