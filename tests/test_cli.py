import json
import subprocess
import sys

import pytest

from duploss import verify
from duploss.classes import minimal_forbidden_basis
from duploss.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestStepApply:
    def test_figure_step(self, capsys):
        code, out = run_cli(
            capsys, "step", "apply", "--perm", "1,2,3,4,5,6,7",
            "--start", "3", "--width", "4", "--keep", "2,3",
        )
        assert code == 0
        assert out.strip() == "1,2,4,5,3,6,7"

    def test_empty_keep(self, capsys):
        code, out = run_cli(
            capsys, "step", "apply", "--perm", "1,2,3", "--start", "1", "--width", "2",
        )
        assert code == 0 and out.strip() == "1,2,3"


class TestScenario:
    def test_radix_summary(self, capsys):
        code, out = run_cli(capsys, "scenario", "--algo", "radix", "--perm", "3,1,4,2")
        assert code == 0
        assert "steps: 2" in out and "final: 3,1,4,2" in out

    def test_bucket_json(self, capsys):
        code, out = run_cli(
            capsys, "scenario", "--algo", "bucket", "--perm", "2,10,1,7,6,5,8,9,3,4",
            "--width", "6", "--emit", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["final"] == "2,10,1,7,6,5,8,9,3,4"
        assert obj["width_limit"] == 6
        assert all(step["width"] <= 6 for step in obj["steps"])

    def test_bucket_needs_width(self, capsys):
        code = main(["scenario", "--algo", "bucket", "--perm", "2,1"])
        assert code == 2


class TestClass:
    def test_enumerate(self, capsys):
        code, out = run_cli(
            capsys, "class", "enumerate", "--width", "2", "--steps", "1", "--size", "3",
        )
        assert code == 0
        assert out.split() == ["1,2,3", "1,3,2", "2,1,3"]

    def test_theorem_basis(self, capsys):
        code, out = run_cli(
            capsys, "class", "basis", "--width", "4", "--steps", "1", "--theorem",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["patterns"]) == 11
        assert obj["provenance"] == "theorem-constructed"
        assert obj["antichain"] is True

    def test_brute_basis(self, capsys):
        code, out = run_cli(
            capsys, "class", "basis", "--width", "2", "--steps", "1", "--max-size", "5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["patterns"] == ["2,3,1", "3,1,2", "3,2,1", "2,1,4,3"]
        assert obj["provenance"] == "brute-force"

    def test_basis_needs_max_size(self):
        assert main(["class", "basis", "--width", "2", "--steps", "1"]) == 2

    def test_member(self, capsys):
        code, out = run_cli(
            capsys, "class", "member", "--width", "2", "--steps", "1", "--perm", "2,1,4,3",
        )
        assert code == 0 and out.strip() == "false"
        code, out = run_cli(
            capsys, "class", "member", "--width", "2", "--steps", "2", "--perm", "2,1,4,3",
        )
        assert code == 0 and out.strip() == "true"


class TestOracle:
    def test_min_steps(self, capsys):
        code, out = run_cli(capsys, "oracle", "min-steps", "--perm", "3,1,4,2", "--width", "4")
        assert code == 0 and out.strip() == "2"
        code, out = run_cli(capsys, "oracle", "min-steps", "--perm", "3,1,4,2", "--width", "inf")
        assert code == 0 and out.strip() == "2"


class TestErrors:
    @pytest.mark.parametrize("argv, error", [
        (["step", "apply", "--perm", "1,2,2", "--start", "1", "--width", "2", "--keep", "2"],
         "DuplicateValueError"),
        (["oracle", "min-steps", "--perm", "3,1,4,2", "--width", "1"], "InvalidWidthError"),
        (["step", "apply", "--perm", "1,2,3", "--start", "0", "--width", "2"],
         "InvalidParameterError"),
        (["class", "enumerate", "--width", "3", "--steps", "-1", "--size", "3"],
         "InvalidParameterError"),
        (["bench", "--policy", "foo", "--sizes", "8"], "InvalidParameterError"),
        (["bench", "--policy", "constant:1", "--sizes", "8"], "InvalidParameterError"),
        (["bench", "--policy", "constant:x", "--sizes", "8"], "InvalidParameterError"),
        (["bench", "--policy", "8", "--sizes", "8", "--samples", "0"], "InvalidParameterError"),
        (["verify", "--suite", "closure", "--max-size", "-2"], "InvalidParameterError"),
        (["verify", "--suite", "closure", "--max-size", "0"], "InvalidParameterError"),
        (["bench", "--policy", "8", "--sizes", "-3"], "InvalidParameterError"),
        (["class", "basis", "--width", "inf", "--steps", "1", "--theorem"],
         "InfiniteWidthError"),
    ])
    def test_library_error_is_one_stderr_line(self, capsys, argv, error):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"duploss: {error}: ")

    @pytest.mark.parametrize("argv", [
        ["scenario", "--algo", "bucket", "--perm", "3,1,2", "--width", "abc"],
        ["oracle", "min-steps", "--perm", "2,1", "--width", "2.5"],
        ["step", "apply", "--perm", "1,2,3", "--start", "1", "--width", "2", "--keep", "a"],
        ["bench", "--policy", "8", "--sizes", "8,x"],
    ])
    def test_malformed_number_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(f"duploss {argv[0]}")

    def test_non_integer_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DUPLOSS_ENUM_CAP", "abc")
        argv = ["class", "enumerate", "--width", "2", "--steps", "1", "--size", "3"]
        self.test_library_error_is_one_stderr_line(capsys, argv, "InvalidParameterError")


class TestVerify:
    @pytest.mark.parametrize("suite", ["lemmas", "closure", "basis", "whole-genome"])
    def test_suites_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", "--suite", suite, "--max-size", "5")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip()

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "closure", lambda *size: [("broken", False, "why")])
        code, out = run_cli(capsys, "verify", "--suite", "closure")
        assert code == 1
        assert out.splitlines() == ["FAIL broken -- why"]

    def test_basis_suite_stays_within_max_size(self, monkeypatch):
        sizes = []

        def recording(spec, max_size):
            sizes.append(max_size)
            return minimal_forbidden_basis(spec, max_size)

        monkeypatch.setattr(verify, "minimal_forbidden_basis", recording)
        assert all(ok for _, ok, _ in verify.run_suite("basis", 3))
        assert sizes and max(sizes) <= 3


class TestBench:
    def test_stdout_csv(self, capsys):
        code, out = run_cli(
            capsys, "bench", "--policy", "constant:4", "--sizes", "8,12",
            "--samples", "2", "--seed", "11",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,K,algorithm,seed,steps,inversions,descents,wall_time_ms"
        assert len(lines) == 2 + 2 * 3

    def test_byte_identical_reruns(self, tmp_path):
        # end-to-end determinism through the real console entry point
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            sys.executable, "-m", "duploss.cli", "bench", "--policy", "constant:4",
            "--sizes", "16,24", "--samples", "3", "--seed", "99",
        ]
        r1 = subprocess.run(argv + ["--csv", str(out1)], capture_output=True, text=True)
        r2 = subprocess.run(argv + ["--csv", str(out2)], capture_output=True, text=True)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirror_written(self, tmp_path):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        code = main([
            "bench", "--policy", "full", "--sizes", "6", "--samples", "2",
            "--seed", "1", "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert len(payload) == 3
