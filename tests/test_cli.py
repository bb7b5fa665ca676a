import json
import os
import subprocess
import sys

import pytest

from icrt_lab.cli import main
from icrt_lab.verify import SUITES


def run_cli(args, tmp_path=None):
    return main(args)


class TestSample:
    def test_sample_y_writes_csv(self, tmp_path):
        out = tmp_path / "y.csv"
        rc = run_cli(["sample", "y", "--theta", "0.862,0.345,0.302,0.216",
                      "--seed", "7", "--grid", "256", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,left_value,right_value"

    def test_bad_theta_exits_2(self, capsys):
        rc = run_cli(["sample", "y", "--theta", "0.5,0.5"])
        assert rc == 2
        assert "NormError" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample", "excursion", "--theta", "0.862,0.345,0.302,0.216",
                "--seed", "11", "--grid", "256"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_bridge_and_width(self, tmp_path):
        assert run_cli(["sample", "bridge", "--grid", "64", "--seed", "1",
                        "--out", str(tmp_path / "b.csv")]) == 0
        assert run_cli(["sample", "width", "--uniform", "--n", "50", "--seed", "2",
                        "--out", str(tmp_path / "w.csv")]) == 0
        lines = (tmp_path / "w.csv").read_text().splitlines()
        assert lines[0] == "height,width,cumulative"

    def test_sample_ptree_header(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run_cli(["sample", "ptree", "--uniform", "--n", "10",
                      "--construction", "depth", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0][2:])
        assert header["n"] == 10 and header["kind"] == "depth"
        assert lines[1] == "vertex,parent"
        assert len(lines) == 12

    def test_bad_n_exits_2(self, capsys):
        rc = run_cli(["sample", "ptree", "--uniform", "--n", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--n must be >= 1" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_sample_icrt_json(self, tmp_path):
        out = tmp_path / "t.json"
        rc = run_cli(["sample", "icrt", "--theta", "1.0", "--J", "3",
                      "--seed", "4", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert len(obj["leaves"]) == 3
        assert all(len(e) == 3 for e in obj["edges"])


class TestVerify:
    def test_unknown_suite_exits_2(self, capsys):
        assert run_cli(["verify", "not-a-suite"]) == 2

    def test_small_suite_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        rc = run_cli(["verify", "y-oracle", "--samples", "4", "--grid", "256",
                      "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows and all("p_value" in r and "pass" in r for r in rows)
        assert rows[0]["config"]["suite"] == "y-oracle"

    def test_identities_small(self):
        assert run_cli(["verify", "identities", "--n", "60", "--samples", "6"]) == 0

    @pytest.mark.parametrize("suite", ["identities", "pkey"])
    def test_zero_samples_exit_2(self, suite, capsys):
        rc = run_cli(["verify", suite, "--n", "20", "--samples", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--samples must be >= 1" in err and "PASS" not in err

    def test_zero_sample_checks_fail(self):
        reports, ok = SUITES["identities"](n=20, reps=0)
        assert not ok
        assert all(r.n_samples == 0 and not r.passed for r in reports)

    def test_jeulin_report_is_json(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        res = subprocess.run(
            [sys.executable, "-m", "icrt_lab.cli", "verify", "jeulin", "--grid", "256",
             "--samples", "50", "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode in (0, 1), res.stderr
        assert "Traceback" not in res.stderr
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(isinstance(r["pass"], bool) for r in rows)

    def test_threads_env_validated(self, monkeypatch, capsys):
        monkeypatch.setenv("ICRT_LAB_THREADS", "zebra")
        rc = run_cli(["verify", "y-oracle", "--samples", "2", "--grid", "128"])
        assert rc == 2

    def test_threads_env_recorded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ICRT_LAB_THREADS", "4")
        out = tmp_path / "rep.jsonl"
        rc = run_cli(["verify", "y-oracle", "--samples", "2", "--grid", "128",
                      "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text().splitlines()[0])
        assert row["config"]["threads"] == 4


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "icrt_lab.cli", "sample", "bridge",
             "--grid", "32", "--seed", "0", "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True)
        assert res.returncode == 0
