import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfocus import (acceptance, align_angle, cli, eval_constants, lattice,
                        make_system, rotation)
from focusfocus.systems import MomentumValue, from_momentum_chart

# tolerance names no subcommand reads; only "cross" is a known key
UNREAD_TOL_KEYS = ["quad_rel", "flow_rtol", "energy_drift", "root_xtol",
                 "fd_floor", "fd_rel", "jac_step_rel"]

# the keys each subcommand's analysis uses.  A subcommand that builds the
# system named by "system" takes every parameter of it (param.j_cap stands
# for them); report builds its own systems and takes gamma alone.
READ = {
    "constants": {"system", "param.j_cap"},
    "grid": {"system", "param.j_cap", "window", "res"},
    "spiral": {"system", "param.j_cap", "window", "res", "levels"},
    "monodromy": {"system", "param.j_cap", "radius", "n_points"},
    "twistless": {"system", "param.j_cap", "h_values"},
    "kolmogorov": {"system", "param.j_cap", "window", "ray_angle"},
    "crosscheck": {"system", "param.j_cap", "window", "n_tori", "seed",
                   "tol.cross"},
    "report": {"param.gamma", "res", "n_tori", "seed"},
}
# an admissible value of every key, and its parsed form
VALUES = {"system": ("pendulum", "pendulum"), "param.gamma": ("0.3", 0.3),
          "param.j_cap": ("0.15", 0.15),
          "tol.cross": ("1e-6", 1e-6), "window": ("1e-3,2e-3", (1e-3, 2e-3)),
          "res": ("3,7", (3, 7)), "radius": ("0.05", 0.05),
          "n_points": ("64", 64), "h_values": ("0.01,-0.01", (0.01, -0.01)),
          "ray_angle": ("0.3", 0.3), "levels": ("0.4", (0.4,)),
          "n_tori": ("2", 2), "seed": ("3", 3)}
PAIRS = [(command, key) for command in READ for key in VALUES]


def reads(command, key):
    return key in READ[command] or (key.startswith("param.")
                                    and "system" in READ[command])


def as_flag(key, text):
    name, _, sub = key.partition(".")
    if sub:
        return [f"--{name}", f"{sub}={text}"]
    return ["--" + key.replace("_", "-"), text]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().err


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestKeysEachSubcommandReads:
    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("command,key", PAIRS)
    def test_accepted_only_where_read(self, tmp_path, capsys, monkeypatch,
                                      command, key, form):
        seen = []
        monkeypatch.setitem(cli.COMMANDS, command,
                            lambda cfg: seen.append(cfg) or cli.EXIT_OK)
        text, value = VALUES[key]
        if form == "flag":
            argv = as_flag(key, text)
        else:
            argv = ["--config", config_file(tmp_path, f"{key} = {text}\n")]
        rc, err = run(capsys, command, *argv)
        if reads(command, key):
            assert rc == cli.EXIT_OK, err
            assert seen[0][key] == value
        else:
            assert rc == cli.EXIT_CONFIG
            assert "configuration error:" in err
            assert not seen

    @pytest.mark.parametrize("command", sorted(READ))
    def test_every_accepted_key_is_read(self, tmp_path, capsys, monkeypatch,
                                        command):
        # each subcommand runs at small size with every key of its table
        # entry set; a key it accepts and never reads would be a knob that
        # does nothing
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        monkeypatch.setitem(cli.COMMANDS, command,
                            lambda cfg, run=cli.COMMANDS[command]:
                            run(Recording(cfg)))
        monkeypatch.setattr(acceptance, "CRITERIA", [])
        keys = set(cli.READS[command])
        if "system" in keys:
            keys.add("param.j_cap")
        argv = [a for key in sorted(keys)
                for a in as_flag(key, VALUES[key][0])]
        run(capsys, command, *argv, "--out", str(tmp_path))
        assert read - {"out", "jobs"} == keys

    def test_module_docstring_lists_them(self):
        listed = {line.split()[0]: set(line.split(None, 1)[1].split(", "))
                  for line in cli.__doc__.splitlines()
                  if line.startswith("    ") and line.split()[0] in READ}
        for command, keys in READ.items():
            if "system" in keys:
                keys = keys - {"param.j_cap"} | {"param.NAME"}
            assert listed[command] == keys


class TestConfigErrors:
    # each line goes to a subcommand that reads its key
    @pytest.mark.parametrize("command,line", [
        pytest.param(command, line, id=line) for command, line in [
            ("constants", "param.gamma = abc"),
            ("crosscheck", "tol.cross = x"), ("monodromy", "n_points = many"),
            ("twistless", "h_values = 0.1,y")]])
    def test_non_numeric_value_in_config_file(self, tmp_path, capsys,
                                              command, line):
        rc, err = run(capsys, command,
                      "--config", config_file(tmp_path, line + "\n"),
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err
        assert "bad value" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc, err = run(capsys, "constants",
                      "--config", str(tmp_path / "absent.cfg"),
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    def test_non_numeric_h_values(self, tmp_path, capsys):
        rc, err = run(capsys, "twistless", "--h-values", "0.01,abc",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    @pytest.mark.parametrize("values", ["0.01,0.01,0.02,0.02",
                                        "0.01,-0.01,0.01"])
    def test_repeated_energy(self, tmp_path, capsys, values):
        # a repeated energy would be written twice and count twice toward
        # the tangent fit's 4 samples
        rc, err = run(capsys, "twistless", "--h-values", values,
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err
        assert "distinct" in err
        assert not (tmp_path / "out").exists()

    def test_monodromy_too_few_points(self, tmp_path, capsys):
        rc, err = run(capsys, "monodromy", "--n-points", "10",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    @pytest.mark.parametrize("key", UNREAD_TOL_KEYS)
    def test_unread_tolerance_key_rejected(self, tmp_path, capsys, key):
        rc, err = run(capsys, "crosscheck", "--tol", f"{key}=1e-9",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    @pytest.mark.parametrize("argv", [
        ["report", "--n-tori", "0", "--res", "8,16"],
        ["crosscheck", "--n-tori", "-3"],
        ["crosscheck", "--n-tori", "0"],
        ["monodromy", "--radius", "-0.1"]])
    def test_non_positive_count_or_radius(self, tmp_path, capsys, argv):
        rc, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,need", [
        (["grid", "--param", "j_cap=-1"], "0 < j_floor < j_cap"),
        (["grid", "--param", "j_floor=0.5"], "0 < j_floor < j_cap"),
        (["grid", "--param", "j_floor=-1"], "0 < j_floor < j_cap"),
        (["report", "--param", "gamma=3"], "|gamma| < 2")])
    def test_system_that_cannot_be_built(self, tmp_path, capsys, argv,
                                         need):
        # a window with no |j| in it, or one reaching down to the singular
        # fiber, is a bad system, not an all-masked grid; report builds its
        # systems before any criterion runs
        rc, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert err.startswith(f"configuration error: need {need}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_report_reads_no_window(self, tmp_path, capsys):
        # each criterion judges a fixed |j| range on its systems' own
        # windows; a window could only switch criteria off
        rc, err = run(capsys, "report", "--window", "1e-3,1e-2",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["crosscheck", "--seed", "-1"],
                                      ["report", "--seed", "-5"]])
    def test_negative_seed(self, tmp_path, capsys, argv):
        # numpy's generator takes only non-negative seeds
        rc, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["grid", "--window", "1e-3,inf"], ["kolmogorov", "--ray-angle", "inf"],
        ["twistless", "--h-values", "0.01,nan"],
        ["constants", "--param", "gamma=nan"]])
    def test_non_finite_value(self, tmp_path, capsys, argv):
        rc, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "not a finite number" in err

    def test_level_quantile_outside_the_unit_interval(self, tmp_path, capsys):
        rc, err = run(capsys, "spiral", "--levels", "0.5,2", "--res", "2,5",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    def test_cross_tolerance_accepted(self, tmp_path, capsys):
        cfg = config_file(tmp_path, "tol.cross = 1e-7\nn_tori = 1\n")
        rc, _ = run(capsys, "crosscheck", "--config", cfg,
                    "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_OK
        assert (tmp_path / "out" / "crosscheck_summary.json").is_file()

    @pytest.mark.parametrize("command", sorted(set(cli.COMMANDS)
                                               - {"crosscheck"}))
    def test_tolerance_rejected_outside_crosscheck(self, tmp_path, capsys,
                                                   command):
        # only crosscheck reads a tolerance; elsewhere it would be echoed
        # into the summary while changing nothing
        rc, err = run(capsys, command, "--tol", "cross=1e-7",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    def test_tolerance_in_config_file_rejected_outside_crosscheck(
            self, tmp_path, capsys):
        rc, err = run(capsys, "report",
                      "--config", config_file(tmp_path, "tol.cross = 1e-7\n"),
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err


class TestKolmogorovNearAxis:
    @pytest.mark.parametrize("angle", [math.pi, math.pi + 1e-4,
                                       math.pi - 1e-4, math.pi - 1e-2, 0.01])
    def test_pendulum_ray_near_the_l_axis(self, tmp_path, capsys, angle):
        # the complex-step lanes on these rays land within ~1e-8 of l = 0,
        # where the closed form splits each third-kind pole off exactly
        out = tmp_path / "out"
        rc, err = run(capsys, "kolmogorov", "--system", "pendulum",
                      "--ray-angle", repr(angle), "--out", str(out))
        assert rc == cli.EXIT_OK, err
        with (out / "kolmogorov.csv").open(newline="") as fh:
            dets = [float(row["det_I"]) for row in csv.DictReader(fh)]
        assert dets and all(d < 0.0 for d in dets)


def test_report_smoke(tmp_path, capsys):
    # the acceptance battery end to end at reduced size: nine criteria pass
    rc, _ = run(capsys, "report", "--n-tori", "4", "--res", "8,16",
                "--out", str(tmp_path))
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [c["status"] for c in doc["criteria"]] == ["pass"] * 9


class TestCrosscheck:
    @pytest.mark.parametrize("fault", ["budget", "drift"])
    def test_one_failing_torus_counts_once(self, tmp_path, capsys,
                                           monkeypatch, fault):
        from focusfocus import lattice
        integrate_flow = lattice.integrate_flow

        def faulty_flow(field, p0, t_max, **kwargs):
            if fault == "budget":
                t_max = np.array(t_max, dtype=float)
                t_max[2] = 1.0
                return integrate_flow(field, p0, t_max, **kwargs)
            traj = integrate_flow(field, p0, t_max, **kwargs)
            traj.drift[2] = 1e-6
            return traj

        monkeypatch.setattr(lattice, "integrate_flow", faulty_flow)
        out = tmp_path / "out"
        rc, _ = run(capsys, "crosscheck", "--n-tori", "4", "--out", str(out))
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "crosscheck_summary.json").read_text())
        assert doc["failures"] == 1
        with (out / "crosscheck.csv").open(newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 3

    def test_window_outside_the_domain(self, tmp_path, capsys):
        rc, err = run(capsys, "crosscheck", "--window", "0.2,0.3",
                      "--n-tori", "1", "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err


def test_c1_records_its_flow_steps():
    # the batch steps of C1's two flow integrations at the default seed:
    # deterministic, so a change to the oracle's cost shows here
    status, details = acceptance.c1_cross_engine(acceptance.AcceptanceConfig())
    assert status == "pass"
    assert details["flow_steps"] == {"champagne": 49, "pendulum": 46}


def test_c1_records_its_worst_energy_drift(monkeypatch):
    # C1's details name each system's largest energy drift over its flow
    # lanes: the maximum of the drifts its two integrations track
    integrate_flow = lattice.integrate_flow
    drifts = []

    def recording_flow(*args, **kwargs):
        traj = integrate_flow(*args, **kwargs)
        drifts.append(float(traj.drift.max()))
        return traj

    monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
    status, details = acceptance.c1_cross_engine(acceptance.AcceptanceConfig())
    assert status == "pass"
    got = details["max_energy_drift"]
    assert got == {"champagne": drifts[0], "pendulum": drifts[1]}
    assert 0.0 < max(got.values()) <= lattice.ENERGY_DRIFT_TOL


def test_crosscheck_summary_records_its_flow_steps(tmp_path, capsys,
                                                   monkeypatch):
    integrate_flow = lattice.integrate_flow
    steps = []

    def recording_flow(*args, **kwargs):
        traj = integrate_flow(*args, **kwargs)
        steps.append(len(traj.times) - 1)
        return traj

    monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
    rc, _ = run(capsys, "crosscheck", "--n-tori", "3", "--out", str(tmp_path))
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "crosscheck_summary.json").read_text())
    assert len(steps) == 1 and doc["flow_steps"] == steps[0] > 0


def test_crosscheck_summary_records_its_worst_energy_drift(tmp_path, capsys,
                                                          monkeypatch):
    integrate_flow = lattice.integrate_flow
    drifts = []

    def recording_flow(*args, **kwargs):
        traj = integrate_flow(*args, **kwargs)
        drifts.append(float(traj.drift.max()))
        return traj

    monkeypatch.setattr(lattice, "integrate_flow", recording_flow)
    rc, _ = run(capsys, "crosscheck", "--n-tori", "3", "--out", str(tmp_path))
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "crosscheck_summary.json").read_text())
    assert doc["max_energy_drift"] == drifts[0]
    assert 0.0 < drifts[0] <= lattice.ENERGY_DRIFT_TOL


def test_c1_fails_when_no_torus_is_checked():
    status, details = acceptance.c1_cross_engine(acceptance.AcceptanceConfig(
        n_cross_tori=0))
    assert status == "fail"
    assert details["tori_checked"] == 0


def test_c9_runs_in_one_process(monkeypatch):
    # two identical grid runs, compared byte for byte, without a worker
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise RuntimeError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.c9_determinism])
    (res,) = acceptance.run_all()
    assert res.status == "pass", res.details
    assert res.details["identical"] and res.details["bytes"] > 0
    assert res.description == ("identical configs produce byte-identical "
                               "CSVs run to run")


def reference_chart_columns(system, window, res):
    """(h, l, j1, j2) of each grid point, formatted as grid.csv writes them,
    each from its own scalar chart evaluation, in row order: the reference
    for the chart arrays rotation_grid keeps."""
    n0, n1 = res
    rows = []
    for rho in np.geomspace(*window, n0):
        for th in lattice.RAY_OFFSET + 2.0 * math.pi * np.arange(n1) / n1:
            j = MomentumValue(rho * math.cos(th), rho * math.sin(th))
            c = from_momentum_chart(system, j)
            rows.append([f"{v:.17g}" for v in (c.h, c.l, j.j1, j.j2)])
    return rows


@pytest.mark.parametrize("argv", [
    [], ["--res", "5,32", "--window", "1e-5,0.2"],
    ["--param", "gamma=-0.5", "--res", "7,12", "--window", "3e-4,0.05"],
    ["--window", "2e-6,1e-3", "--res", "3,16"],   # a core row
    ["--system", "pendulum"],
    ["--system", "pendulum", "--res", "6,11", "--window", "2e-3,0.15"]])
def test_grid_chart_columns_equal_the_per_point_reference(tmp_path, capsys,
                                                          argv):
    rc, err = run(capsys, "grid", *argv, "--out", str(tmp_path))
    assert rc == cli.EXIT_OK, err
    cfg = json.loads((tmp_path / "grid_summary.json").read_text())["config"]
    expected = reference_chart_columns(cli.build_system(cfg), cfg["window"],
                                       cfg["res"])
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "h,l,j1,j2,W,branch,mask"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:4] for row in rows] == expected
    if "2e-6,1e-3" in argv:
        assert {row[6] for row in rows[:16]} == {str(rotation.MASK_CORE)}


def test_report_seed_reaches_c1(tmp_path, capsys, monkeypatch):
    # C1 alone, on two tori per system: the seed picks the tori, and a
    # seed repeats its C1 details exactly
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.c1_cross_engine])
    sample = acceptance.sample_cross_tori
    drawn = []

    def recording_sample(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(acceptance, "sample_cross_tori", recording_sample)

    def c1(tag, *seed):
        drawn.clear()
        out = tmp_path / tag
        rc, _ = run(capsys, "report", "--n-tori", "1", *seed,
                    "--out", str(out))
        assert rc == cli.EXIT_OK
        (doc,) = json.loads((out / "report.json").read_text())["criteria"]
        assert doc["status"] == "pass"
        return list(drawn), doc["details"]

    tori_a, details_a = c1("a", "--seed", "1")
    tori_b, details_b = c1("b", "--seed", "1")
    tori_c, _ = c1("c", "--seed", "2")
    tori_d, _ = c1("d")
    assert tori_a == tori_b and details_a == details_b
    assert tori_a != tori_c
    # the default seed draws the tori C1 has always drawn
    rng = np.random.default_rng(acceptance.RNG_SEED)
    champ, _, pend = acceptance.AcceptanceConfig().systems()
    assert tori_d == [sample(s, rng, 1) for s in (champ, pend)]


def rejecting_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summaries_are_strict_json(tmp_path, capsys):
    # JSON has no NaN: a non-finite number (the pendulum's tangent slope
    # fit, which omega = 0 leaves undefined) is written as null
    for system in ("champagne", "pendulum"):
        for command in ("constants", "grid", "spiral", "monodromy",
                        "twistless", "kolmogorov"):
            rc = cli.main([command, "--system", system,
                           "--out", str(tmp_path / f"{command}-{system}")])
            assert rc == cli.EXIT_OK
    assert cli.main(["crosscheck", "--n-tori", "2",
                     "--out", str(tmp_path / "crosscheck")]) == cli.EXIT_OK
    assert cli.main(["report", "--n-tori", "2", "--res", "8,16",
                     "--out", str(tmp_path / "report")]) == cli.EXIT_OK
    capsys.readouterr()
    docs = {path.relative_to(tmp_path).as_posix(): json.loads(
                path.read_text(encoding="utf-8"),
                parse_constant=rejecting_constant)
            for path in tmp_path.glob("*/*.json")}
    assert len(docs) == 14 and "report/report.json" in docs
    fit = docs["twistless-pendulum/twistless_summary.json"]
    assert fit["tangent_slope_fit"] is None


def parsed(monkeypatch, capsys, *argv):
    """The exit code and stderr of cli.main(argv), and the configuration
    the subcommand would have run with (None if it was not run)."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, argv[0] if argv else "constants",
                        lambda cfg: seen.append(cfg) or cli.EXIT_OK)
    rc, err = run(capsys, *argv)
    return rc, err, seen[0] if seen else None


class TestParser:
    @pytest.mark.parametrize("token", ["-1e-2,2e-2", "-.5,1", "-0.5", "-3",
                                       "-1,2"])
    def test_dash_digit_token_is_a_value(self, monkeypatch, capsys, token):
        # the token after a flag is its value, whatever its first character
        rc, err, cfg = parsed(monkeypatch, capsys, "twistless", "--h-values",
                              token)
        assert rc == cli.EXIT_OK, err
        assert cfg["h_values"] == tuple(float(t) for t in token.split(","))

    def test_flag_after_a_flag_is_still_a_flag(self, monkeypatch, capsys):
        rc, err, cfg = parsed(monkeypatch, capsys, "grid", "--window",
                              "--res", "3,7")
        assert rc == cli.EXIT_CONFIG and cfg is None
        assert err == "configuration error: --window: expected one argument\n"

    def test_flag_equals_value(self, monkeypatch, capsys):
        rc, err, cfg = parsed(monkeypatch, capsys, "crosscheck",
                              "--window=1e-3,2e-3", "--param=gamma=0.3",
                              "--tol=cross=1e-6", "--n-tori=2")
        assert rc == cli.EXIT_OK, err
        assert (cfg["window"], cfg["param.gamma"], cfg["tol.cross"],
                cfg["n_tori"]) == ((1e-3, 2e-3), 0.3, 1e-6, 2)

    def test_repeated_flag_last_wins(self, tmp_path, monkeypatch, capsys):
        # the --config file's lines apply first, wherever --config stands,
        # then the flags in order
        cfg_file = config_file(tmp_path, "radius = 0.05\nn_points = 64\n")
        rc, err, cfg = parsed(monkeypatch, capsys, "monodromy",
                              "--n-points", "128", "--radius", "0.07",
                              "--config", cfg_file, "--radius=0.08",
                              "--param", "gamma=0.1", "--param", "gamma=0.2")
        assert rc == cli.EXIT_OK, err
        assert (cfg["n_points"], cfg["radius"], cfg["param.gamma"]) \
            == (128, 0.08, 0.2)

    @pytest.mark.parametrize("argv", [
        pytest.param(["grid", "--bogus", "1"], id="unknown-flag"),
        pytest.param(["grid", "--sys", "pendulum"], id="prefix"),
        pytest.param(["grid", "--h_values", "0.1"], id="underscore"),
        pytest.param(["grid", "stray"], id="positional"),
        pytest.param(["grid", "--out", "o", "--res"], id="no-value"),
        pytest.param(["--out", "o", "grid"], id="option-before-subcommand"),
        pytest.param([], id="empty")])
    def test_bad_command_line(self, monkeypatch, capsys, argv):
        rc, err, cfg = parsed(monkeypatch, capsys, *argv)
        assert rc == cli.EXIT_CONFIG and cfg is None
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["focusfocus", "constants", "--out",
                                          str(tmp_path)])
        assert cli.main() == cli.EXIT_OK
        assert (tmp_path / "constants.json").is_file()
        capsys.readouterr()

    def test_system_exit_from_a_command_is_not_success(self, monkeypatch):
        # only --help exits 0 without running a subcommand
        def exiting(cfg):
            raise SystemExit(5)

        monkeypatch.setitem(cli.COMMANDS, "constants", exiting)
        with pytest.raises(SystemExit, match="5"):
            cli.main(["constants"])

    def test_h_values_led_by_a_negative_energy(self, tmp_path, capsys):
        rc, err = run(capsys, "twistless", "--system", "pendulum",
                      "--h-values", "-1e-2,2e-2", "--out", str(tmp_path))
        assert rc == cli.EXIT_OK, err
        doc = json.loads((tmp_path / "twistless_summary.json").read_text())
        assert doc["config"]["h_values"] == [-0.01, 0.02]
        assert [f["h"] for f in doc["failures"]] == [-0.01]

    def test_window_led_by_a_negative_value(self, tmp_path, capsys):
        rc, err = run(capsys, "grid", "--window", "-1,2",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert err == ("configuration error: --window: window must be "
                       "0 < RIN < ROUT, got '-1,2'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(cli.READS))
    def test_jobs_accepts_one_alone(self, tmp_path, capsys, monkeypatch,
                                    command):
        # every subcommand runs in one process; --jobs 1 stays accepted
        seen = []
        monkeypatch.setitem(cli.COMMANDS, command,
                            lambda cfg: seen.append(cfg) or cli.EXIT_OK)
        for value in ("2", "0", "-1"):
            rc, err = run(capsys, command, "--jobs", value,
                          "--out", str(tmp_path))
            assert rc == cli.EXIT_CONFIG
            assert err == (f"configuration error: --jobs: jobs must be 1, "
                           f"got {value!r}\n")
        rc, err = run(capsys, command, "--config",
                      config_file(tmp_path, "jobs = 2\n"))
        assert rc == cli.EXIT_CONFIG and "jobs must be 1" in err
        assert not seen
        assert run(capsys, command, "--jobs", "1",
                   "--out", str(tmp_path)) == (cli.EXIT_OK, "")
        assert seen[0]["jobs"] == 1

    def test_help_lists_every_subcommand(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "{" + ",".join(cli.READS) + "}" in out

    def test_unknown_subcommand(self, capsys):
        rc, err = run(capsys, "bogus")
        assert rc == cli.EXIT_CONFIG
        assert err.startswith("configuration error:")
        assert "invalid choice: 'bogus'" in err

    def test_subcommand_help_shows_its_flags_alone(self, capsys):
        assert cli.main(["spiral", "--help"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        flags = {word.strip("[],") for word in out.split()
                 if word.strip("[],").startswith("--")}
        assert flags == {"--config", "--system", "--param", "--window",
                         "--res", "--levels", "--out", "--jobs", "--help"}


class TestExitCodes:
    def test_grid_row_below_the_wrap_guard_resolution(self, tmp_path, capsys):
        # a 4-angle row steps Theta by just over the 0.5 pi wrap guard
        rc, err = run(capsys, "grid", "--res", "2,4",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    def test_acceptance_failure(self, tmp_path, capsys, monkeypatch):
        # a planted criterion that fails
        def c0_planted(cfg):
            """a planted failure"""
            return "fail", {}

        monkeypatch.setattr(acceptance, "CRITERIA", [c0_planted])
        rc, _ = run(capsys, "report", "--out", str(tmp_path))
        assert rc == cli.EXIT_ACCEPTANCE
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert not doc["all_passed"]
        assert [(c["id"], c["status"]) for c in doc["criteria"]] \
            == [("C0", "fail")]

    def test_numerical_failure(self, tmp_path, capsys):
        # every grid point lies below the system's |j| floor
        out = tmp_path / "out"
        rc, err = run(capsys, "grid", "--window", "1e-7,1e-6", "--res",
                      "2,5", "--out", str(out))
        assert rc == cli.EXIT_NUMERICAL
        assert err == ("numerical failure: every torus of the grid is "
                       "masked: 10 below the |j| floor, 0 failed\n")
        with (out / "grid.csv").open(newline="") as fh:
            assert {row["mask"] for row in csv.DictReader(fh)} == {"1"}

    def test_twistless_without_a_sample(self, tmp_path, capsys):
        # omega = 0: no twistless torus at any energy given
        rc, err = run(capsys, "twistless", "--system", "pendulum",
                      "--h-values", "0.3", "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure: no twistless torus at any "
                              "energy; at h=0.3: no twistless torus")
        doc = json.loads((tmp_path / "twistless_summary.json").read_text())
        assert [f["h"] for f in doc["failures"]] == [0.3]

    def test_twistless_fit_names_the_first_failed_energy(self, tmp_path,
                                                         capsys):
        rc, err = run(capsys, "twistless", "--h-values", "0",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err == ("numerical failure: tangent fit needs >= 4 twistless "
                       "samples, got 0; the first failure at h=0: h = 0 "
                       "excluded\n")

    def test_twistless_energy_without_a_scan_window(self, tmp_path, capsys):
        # at h = 0.5 every l puts |j| above the scan cap 0.2
        rc, err = run(capsys, "twistless", "--h-values", "0.5",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err == ("numerical failure: tangent fit needs >= 4 twistless "
                       "samples, got 0; the first failure at h=0.5: no "
                       "twistless torus on C_h, h=0.5: every l puts "
                       "|j| above the scan cap 0.2\n")

    def test_window_bound_printed_at_full_precision(self, tmp_path, capsys):
        # a loop of radius 0.2, the pendulum's cap: hypot rounds its |j| up
        # by an ulp, which three digits would hide
        rc, err = run(capsys, "monodromy", "--system", "pendulum",
                      "--radius", "0.2", "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err == ("numerical failure: |j|=0.20000000000000004 above cap "
                       "0.20000000000000001\n")

    def test_crosscheck_with_every_torus_failed(self, tmp_path, capsys,
                                                monkeypatch):
        # a flow budget no torus closes in
        integrate_flow = lattice.integrate_flow

        def short_flow(field, p0, t_max, **kwargs):
            return integrate_flow(field, p0, np.full(np.shape(t_max), 1.0),
                                  **kwargs)

        monkeypatch.setattr(lattice, "integrate_flow", short_flow)
        rc, err = run(capsys, "crosscheck", "--n-tori", "3",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure: every one of the 3 "
                              "cross-check tori failed, the first with ")
        doc = json.loads((tmp_path / "crosscheck_summary.json").read_text())
        assert doc["failures"] == 3

    def test_spiral_with_a_masked_mid_row(self, tmp_path, capsys):
        # |j| beyond the pendulum's cap 0.2 fails the mid ring, whose W
        # gives the levels
        rc, err = run(capsys, "spiral", "--system", "pendulum",
                      "--window", "0.1,0.5", "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err == ("numerical failure: the mid ring, |j| = 0.2295, "
                       "fails: |j|=0.22948732935908364 above cap "
                       "0.20000000000000001; no contour levels\n")

    def test_spiral_expects_a_zero_pitch_at_omega_zero(self, tmp_path,
                                                       capsys):
        # the pendulum's star: spiral_summary.json states the expected
        # slope as C5 does, 0.0, not -0.0
        rc, err = run(capsys, "spiral", "--system", "pendulum",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_OK, err
        doc = json.loads((tmp_path / "spiral_summary.json").read_text())
        _, c5 = acceptance.c5_spirals(acceptance.AcceptanceConfig())
        for fits in (doc["fits"], c5["pendulum"]):
            expected = [f.get("expected_slope", f.get("expected"))
                        for f in fits]
            assert [(x, math.copysign(1.0, x)) for x in expected] \
                == [(0.0, 1.0)] * 3

    def test_spiral_below_the_floor_is_partial(self, tmp_path, capsys):
        # the radii below the floor 1e-5 lose their points: the curves
        # are partial, and their fits still run
        rc, err = run(capsys, "spiral", "--window", "1e-6,1e-2",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_OK, err
        doc = json.loads((tmp_path / "spiral_summary.json").read_text())
        assert [(f["partial"], f["n_points"]) for f in doc["fits"]] \
            == [(True, 24)] * 3

    def test_kolmogorov_past_the_window_cap(self, tmp_path, capsys):
        # the champagne bottle's cap is |j| = 0.3
        rc, err = run(capsys, "kolmogorov", "--window", "0.1,0.5",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure: ") and "above cap" in err

    def test_brent_without_convergence_exits_numerical(self, tmp_path, capsys,
                                                       monkeypatch):
        from focusfocus import numerics
        monkeypatch.setattr(numerics, "BRENT_MAX_ITER", 2)
        rc, err = run(capsys, "twistless", "--h-values", "0.02",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_NUMERICAL
        assert "did not converge" in err and "Traceback" not in err


# runs in a fresh interpreter: the scipy modules (and numpy.ma, which
# np.quantile and np.unique import lazily) loaded after importing the CLI
# and after each subcommand, and the LAPACK kernels each stage called
COLD_PROBE = """
import json, sys
from numpy.linalg import _umath_linalg
from focusfocus import cli

calls = []

def recorder(name, kernel):
    def recorded(*args, **kwargs):
        calls.append(name)
        return kernel(*args, **kwargs)
    return recorded

# every LAPACK kernel numpy.linalg calls (eig, lstsq under np.polyfit, svd
# under np.linalg.cond, ...) is looked up on this module at each call
for name in dir(_umath_linalg):
    if not name.startswith("_") and callable(getattr(_umath_linalg, name)):
        setattr(_umath_linalg, name, recorder(name, getattr(_umath_linalg,
                                                           name)))

def watched_modules():
    return sorted(m for m in sys.modules
                  if m.partition(".")[0] == "scipy" or m == "numpy.ma")

def stage(name, rc):
    seen.append([name, rc, watched_modules(), sorted(set(calls))])
    calls.clear()

out, seen = sys.argv[1], []
stage("import", 0)
for system in ("champagne", "pendulum"):
    for command in ("constants", "grid", "spiral", "twistless", "kolmogorov",
                    "monodromy"):
        stage(f"{command} {system}",
              cli.main([command, "--system", system,
                        "--out", f"{out}/{command}-{system}"]))
stage("crosscheck", cli.main(["crosscheck", "--n-tori", "1",
                              "--out", f"{out}/crosscheck"]))
stage("report", cli.main(["report", "--out", f"{out}/report"]))
print(json.dumps(seen))
"""


def fresh_process(*args, check=True):
    """python args in a fresh interpreter that imports the package from
    this source tree, its output captured."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300, check=check)


def run_fresh(*args):
    """python -c args in a fresh interpreter; its standard output."""
    return fresh_process("-c", *args).stdout


@pytest.fixture(scope="module")
def cold_stages(tmp_path_factory):
    """[stage, exit code, scipy and numpy.ma modules loaded, LAPACK kernels
    called] of every subcommand at its defaults, one after another in one
    fresh interpreter (COLD_PROBE); the first stage is the import."""
    stdout = run_fresh(COLD_PROBE, str(tmp_path_factory.mktemp("cold")))
    # the subcommands print to stdout; the probe's record is the last line
    stages = json.loads(stdout.splitlines()[-1])
    assert len(stages) == 15 and stages[-1][0] == "report"
    for name, rc, _, _ in stages:
        assert rc == cli.EXIT_OK, name
    return stages


def test_closed_form_subcommands_run_on_numpy_alone(cold_stages):
    # a cold start of every subcommand, the flow oracle's crosscheck and
    # the report battery too, pays for numpy alone, without numpy.ma
    # the flow oracle carries its own DOP853 tableau, and C3 counts its
    # sectors without np.unique
    for name, _, modules, _ in cold_stages:
        assert modules == [], name


def test_only_report_calls_lapack(cold_stages):
    # eval_constants takes alpha and omega from traces and fit_log_spiral
    # solves its normal equations, so no subcommand but report pages
    # LAPACK into a cold process; report's C3 fits its four-parameter
    # model by lstsq, which shows the recorder sees the calls
    for name, _, _, kernels in cold_stages[:-1]:
        assert kernels == [], name
    assert "lstsq" in cold_stages[-1][3]


@pytest.mark.parametrize("gamma", [math.sqrt(2.0), -math.sqrt(2.0)])
def test_omega_equal_to_alpha_is_a_stated_pole(tmp_path, gamma):
    # at gamma = +-sqrt(2), |omega| = alpha to the bit, the pole of the
    # twistless slope omega (omega^2 + alpha^2)/(omega^2 - alpha^2)
    codes = {"constants": cli.EXIT_OK, "twistless": cli.EXIT_OK,
             "report": cli.EXIT_ACCEPTANCE}
    for command, code in codes.items():
        proc = fresh_process(
            "-m", "focusfocus.cli", command, "--param", f"gamma={gamma!r}",
            "--out", str(tmp_path / command),
            *(["--n-tori", "2"] if command == "report" else []), check=False)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    def summary(command, name):
        return json.loads((tmp_path / command / name).read_text("utf-8"))
    assert summary("constants", "constants.json")[
        "expected_twistless_slope"] == "pole (omega^2 = alpha^2)"
    assert summary("twistless", "twistless_summary.json")[
        "expected_slope"] is None
    criteria = {c["id"]: c for c in summary("report", "report.json")[
        "criteria"]}
    assert "pole" in criteria["C6"]["details"]["error"]
    assert {cid for cid, c in criteria.items()
            if c["status"] != "pass"} == {"C6", "C7"}


def test_importing_the_cli_loads_no_argparse():
    # argparse's import and parser build cost every cold subcommand ~1.5 ms
    stdout = run_fresh("import sys, focusfocus.cli; "
                       "print('argparse' in sys.modules)")
    assert stdout == "False\n"


# every kind of value the CSVs hold: floats of every class (nan, the
# infinities, -0.0, subnormals), numpy's, and the branch and mask ints
CSV_VALUES = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, -math.inf, 5e-324, -2.225e-308]),
    st.integers(-2**63, 2**63 - 1),
    st.integers(-2**63, 2**63 - 1).map(np.int64))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just([f"c{i}" for i in range(n)]),
    st.lists(st.tuples(*[CSV_VALUES] * n), max_size=5))))
@settings(max_examples=300, deadline=None)
def test_write_csv_equals_the_per_value_join(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "csv" / "rows.csv"
    cli.write_csv(path, header, rows)
    expected = [",".join(header)] + [",".join(format(v, ".17g") for v in row)
                                     for row in rows]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("radius", ["0.25", "0.29"])
def test_monodromy_loop_off_the_image_names_the_torus(tmp_path, capsys,
                                                      radius):
    # past |j| ~ 0.13 the bottle's image boundary cuts the loop: its wide
    # Theta step spans tori with no regular torus, and the first of them,
    # not the path's resolution, is what the run reports
    rc, err = run(capsys, "monodromy", "--radius", radius,
                  "--out", str(tmp_path))
    assert rc == cli.EXIT_NUMERICAL
    assert "no regular torus at (h, l)=" in err
    assert "refine the path" not in err


class TestNegativeGamma:
    # gamma < 0 turns omega negative (the S^1 action orients it): the
    # spirals wind the other way, and the twistless tangent flips sign
    def test_spiral(self, tmp_path, capsys):
        rc, err = run(capsys, "spiral", "--param", "gamma=-0.5",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_OK, err
        doc = json.loads((tmp_path / "spiral_summary.json").read_text())
        expected = 0.5 / math.sqrt(2.0)   # -omega/alpha
        assert len(doc["fits"]) == 3
        for fit in doc["fits"]:
            assert fit["slope_fit"] == pytest.approx(expected, rel=0.10)

    def test_twistless(self, tmp_path, capsys):
        rc, err = run(capsys, "twistless", "--param", "gamma=-0.5",
                      "--out", str(tmp_path))
        assert rc == cli.EXIT_OK, err
        doc = json.loads((tmp_path / "twistless_summary.json").read_text())
        assert doc["tangent_slope_fit"] == pytest.approx(9.0 / 14.0, rel=0.15)


@pytest.mark.parametrize("system", ["champagne", "pendulum"])
def test_monodromy_csv_matches_a_per_torus_reference(tmp_path, capsys,
                                                      system):
    # the loop at defaults, one torus at a time: each torus's raw values
    # from one closed-form call, each Theta aligned to its predecessor's,
    # and the lattice basis
    rc, _ = run(capsys, "monodromy", "--system", system,
                "--out", str(tmp_path))
    assert rc == cli.EXIT_OK
    sys_ = make_system(system)
    ff = eval_constants(sys_)
    radius, n, two_pi = 0.1, 256, 2.0 * math.pi
    tori = []
    for k in range(n + 1):
        th = k * two_pi / n + math.pi / n
        tori.append(from_momentum_chart(sys_, MomentumValue(
            radius * math.cos(th), radius * math.sin(th))))
    Ts, raws, ok, _ = lattice._tori(sys_, np.array([c.h for c in tori]),
                                    np.array([c.l for c in tori]))
    assert ok.all()
    lines, theta_ref = ["h,l,T,Theta,tau1,tau2,branch"], None
    for c, T, raw in zip(tori, Ts.tolist(), raws.tolist()):
        theta = raw if theta_ref is None else align_angle(raw, theta_ref)
        theta_ref = theta
        lines.append(",".join(
            [f"{v:.17g}" for v in (c.h, c.l, T, theta, ff.alpha * T,
                                   ff.omega * T - theta)]
            + [str(round((theta - raw) / two_pi))]))
    assert (tmp_path / "monodromy_loop.csv").read_text() \
        == "\n".join(lines) + "\n"


def test_report_at_gamma_zero_fails_without_a_traceback(tmp_path, capsys):
    # at omega = 0 the twistless curve has no loxodromic tangent, and C6's
    # relative slope error has no expected slope to divide by
    rc, _ = run(capsys, "report", "--param", "gamma=0", "--n-tori", "2",
                "--out", str(tmp_path))
    assert rc == cli.EXIT_ACCEPTANCE
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    status = {c["id"]: c["status"] for c in doc["criteria"]}
    assert status.pop("C6") == "fail"
    # C5 judges the champagne bottle at omega = 0 by the star bound
    assert set(status.values()) == {"pass"}
    c5 = next(c for c in doc["criteria"] if c["id"] == "C5")
    assert {fit["expected"] for fit in c5["details"]["champagne"]} == {0.0}
    c6 = next(c for c in doc["criteria"] if c["id"] == "C6")
    assert "no loxodromic tangent at omega = 0" in c6["details"]["error"]
