import json
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

    @pytest.mark.parametrize("args, expected", [
        (["ptree", "--construction", "breadth"],
         '# {"n": 6, "root": 4, "p": [0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666], "kind": "breadth"}\n'
         "vertex,parent\n0,1\n1,3\n2,5\n3,5\n4,-1\n5,4\n"),
        (["ptree", "--construction", "depth"],
         '# {"n": 6, "root": 4, "p": [0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666, 0.16666666666666666], "kind": "depth"}\n'
         "vertex,parent\n0,2\n1,3\n2,5\n3,5\n4,-1\n5,4\n"),
        (["width"],
         "height,width,cumulative\n"
         "0,0.16666666666666666,0\n"
         "0.40824829046386302,0.16666666666666666,0.16666666666666666\n"
         "0.81649658092772603,0.33333333333333331,0.33333333333333331\n"
         "1.2247448713915889,0.16666666666666666,0.66666666666666663\n"
         "1.6329931618554521,0.16666666666666666,0.83333333333333326\n"
         "2.0412414523193152,0,1\n"),
    ], ids=["ptree-breadth", "ptree-depth", "width"])
    def test_sample_tree_bytes_are_pinned(self, tmp_path, args, expected):
        # one small tree per construction; a layout change must not move it
        out = tmp_path / "t.csv"
        assert run_cli(["sample", *args, "--uniform", "--n", "6", "--seed", "0",
                        "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

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

    def test_single_sample_jeulin_raises(self):
        # one replicate has no sample variance for the height-mean check
        with pytest.raises(ValueError, match="replicates >= 2"):
            SUITES["jeulin"](grid=64, replicates=1)

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


REFERENCE = "0.862,0.345,0.302,0.216"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["sample", "bridge", "--grid", "1"], "--grid must be >= 2",
                 id="sample-bridge-grid"),
    pytest.param(["verify", "theorem1", "--grid", "1", "--samples", "5"],
                 "--grid must be >= 2", id="verify-theorem1-grid"),
    pytest.param(["sample", "icrt", "--J", "0"], "--J must be >= 1", id="sample-icrt-J"),
    pytest.param(["verify", "theorem2", "--J", "0", "--samples", "5"], "--J must be >= 1",
                 id="verify-theorem2-J"),
    pytest.param(["sample", "ptree", "--theta", REFERENCE, "--n", "3"],
                 "--n 3 is too small for theta", id="sample-ptree-n"),
    pytest.param(["sample", "width", "--theta", REFERENCE, "--n", "3"],
                 "--n 3 is too small for theta", id="sample-width-n"),
    pytest.param(["verify", "theorem2", "--n", "3", "--samples", "5"],
                 "--n 3 is too small for theta", id="verify-theorem2-n"),
    pytest.param(["verify", "theorem2", "--n", "50", "--samples", "3", "--J", "60"],
                 "--J 60 is too large for theorem2", id="verify-theorem2-J-above-n"),
    pytest.param(["verify", "identities", "--n", "3", "--samples", "5"],
                 "--n 3 is too small for theta", id="verify-identities-n"),
    pytest.param(["verify", "btree-law", "--samples", "10"], "--samples 10 is too small",
                 id="verify-btree-law-samples"),
    pytest.param(["verify", "jeulin", "--grid", "64", "--samples", "1"],
                 "--samples must be >= 2 for jeulin", id="verify-jeulin-samples"),
    pytest.param(["sample", "bridge", "--grid", "8", "--seed", "-1"], "--seed must be >= 0",
                 id="sample-bridge-seed"),
    pytest.param(["verify", "y-oracle", "--samples", "2", "--grid", "64", "--seed", "-3"],
                 "--seed must be >= 0", id="verify-y-oracle-seed"),
])
def test_bad_input_exits_2(argv, message, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_path_kinds_do_not_check_n_against_theta(tmp_path):
    # at the default --n 1000 the atom 0.01 would fall below the light
    # entries, but sampling an excursion never builds the vector
    assert run_cli(["sample", "excursion", "--theta", "0.99995,0.01", "--grid", "64",
                    "--out", str(tmp_path / "x.csv")]) == 0


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "icrt_lab.cli", "sample", "bridge",
             "--grid", "32", "--seed", "0", "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True)
        assert res.returncode == 0
