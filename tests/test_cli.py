import csv
import json
import math

import pytest

from focusfocus import cli

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
