"""The battery's structure and its power to fail.

run_all alone builds each CriterionResult, its id from the criterion's name
and its description from the docstring, on every status.  Each named
defect, planted by monkeypatching only, fails the criterion that guards it.
"""
import ast
import importlib
import json
import math
import re
from pathlib import Path

from focusfocus import acceptance, cli, kolmogorov, lattice, rotation
from focusfocus.errors import BranchError

# the package exports the function twist, which hides the module
twist = importlib.import_module("focusfocus.twist")
TWO_PI = 2.0 * math.pi
C2_DESCRIPTION = ("monodromy index 1.000 +- 1e-3 around the critical value "
                  "(champagne gamma in {0, 0.5} and pendulum, radii {0.05, "
                  "0.1}); orientation reversal gives -1")


def test_an_errored_criterion_keeps_its_description(monkeypatch, tmp_path,
                                                    capsys):
    def broken(*args, **kwargs):
        raise BranchError("planted branch failure")

    monkeypatch.setattr(acceptance, "monodromy_index", broken)
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.c2_monodromy])
    (res,) = acceptance.run_all()
    assert (res.cid, res.status, res.description, res.details) == (
        "C2", "error", C2_DESCRIPTION, {"error": "planted branch failure"})

    assert cli.main(["report", "--out", str(tmp_path)]) \
        == cli.EXIT_ACCEPTANCE
    assert capsys.readouterr().out == f"[ERROR] C2: {C2_DESCRIPTION}\n"
    (doc,) = json.loads((tmp_path / "report.json").read_text())["criteria"]
    assert (doc["id"], doc["status"], doc["description"]) == (
        "C2", "error", C2_DESCRIPTION)


def test_only_run_all_builds_a_result():
    tree = ast.parse(Path(acceptance.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def builds(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "CriterionResult"]

    assert builds(tree) == builds(functions["run_all"]) != []
    # each criterion states its claim once, as its docstring, and its id
    # only in its name
    for crit in acceptance.CRITERIA:
        node = functions[crit.__name__]
        assert ast.get_docstring(node)
        assert "desc" not in {n.id for n in ast.walk(node)
                              if isinstance(n, ast.Name)}
        assert not [n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant)
                    and isinstance(n.value, str)
                    and re.fullmatch(r"C[1-9]", n.value)]


class TestPlantedDefects:
    def test_a_turn_slip_in_one_flow_lane_fails_c1(self, monkeypatch):
        frame_turns = lattice._frame_turns

        def slipped(states, times, rate, sign):
            turns = frame_turns(states, times, rate, sign)
            turns[-1, 0] += TWO_PI
            return turns

        monkeypatch.setattr(lattice, "_frame_turns", slipped)
        status, details = acceptance.c1_cross_engine(
            acceptance.AcceptanceConfig())
        assert status == "fail" and "error" in details

    def test_one_flow_theta_off_a_sheet_fails_c1(self, monkeypatch):
        tori_flow = lattice._tori_flow

        def shifted(system, cs):
            out, stats = tori_flow(system, cs)
            T, theta = out[0]
            out[0] = (T, theta + TWO_PI)
            return out, stats

        monkeypatch.setattr(lattice, "_tori_flow", shifted)
        status, details = acceptance.c1_cross_engine(
            acceptance.AcceptanceConfig())
        assert status == "fail"
        assert details["error"].startswith("engines disagree")

    def test_a_loop_end_off_a_sheet_fails_c2(self, monkeypatch):
        polar_tori = rotation.polar_tori

        def slipped(system, radii, angles):
            loop = polar_tori(system, radii, angles)
            loop.tau2[..., -1] += TWO_PI
            return loop

        monkeypatch.setattr(rotation, "polar_tori", slipped)
        status, _ = acceptance.c2_monodromy(acceptance.AcceptanceConfig())
        assert status == "fail"

    def test_swapped_squares_in_the_twistless_slope_fail_c6(self,
                                                            monkeypatch):
        def swapped(alpha, omega):
            return omega * (alpha ** 2 + omega ** 2) / (alpha ** 2
                                                        - omega ** 2)

        monkeypatch.setattr(twist, "expected_twistless_slope", swapped)
        status, details = acceptance.c6_twistless(
            acceptance.AcceptanceConfig())
        assert status == "fail"
        assert details["slope_rel_err"] > 1.9

    def test_a_sign_flip_of_theta_h_fails_c8(self, monkeypatch):
        hessian = kolmogorov._hessian

        def flipped(system, h, l):
            rows = hessian(system, h, l)
            rows[3] = -rows[3]      # Theta_h
            return rows

        monkeypatch.setattr(kolmogorov, "_hessian", flipped)
        status, details = acceptance.c8_kolmogorov(
            acceptance.AcceptanceConfig())
        assert status == "fail"
        assert details["checks"] == dict.fromkeys(
            ("negativity", "ratio_trend", "det_tau", "mixed_partials"), False)
