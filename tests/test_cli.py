import csv
import json
import math

import numpy as np
import pytest

from focusfocus import acceptance, cli

# tolerance names no subcommand reads; only "cross" is a known key
UNREAD_TOL_KEYS = ["quad_rel", "flow_rtol", "energy_drift", "root_xtol",
                 "fd_floor", "fd_rel", "jac_step_rel"]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().err


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigErrors:
    @pytest.mark.parametrize("line", ["param.gamma = abc", "tol.cross = x",
                                      "n_points = many", "h_values = 0.1,y"])
    def test_non_numeric_value_in_config_file(self, tmp_path, capsys, line):
        rc, err = run(capsys, "constants",
                      "--config", config_file(tmp_path, line + "\n"),
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

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

    def test_monodromy_too_few_points(self, tmp_path, capsys):
        rc, err = run(capsys, "monodromy", "--n-points", "10",
                      "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_CONFIG
        assert "configuration error:" in err

    @pytest.mark.parametrize("key", UNREAD_TOL_KEYS)
    def test_unread_tolerance_key_rejected(self, tmp_path, capsys, key):
        rc, err = run(capsys, "constants", "--tol", f"{key}=1e-9",
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
        # finite-difference stencils on these rays land within ~1e-8 of
        # l = 0 without reaching the axis tolerance
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
            traj.states[-1, 3, 2] += 1e-6
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
