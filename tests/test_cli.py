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
