import hashlib
import json
import subprocess
import sys

import pytest

from duploss import Scenario, bench, cli, verify
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


class TestClass:
    def test_enumerate(self, capsys):
        code, out = run_cli(
            capsys, "class", "enumerate", "--width", "2", "--steps", "1", "--size", "3",
        )
        assert code == 0
        assert out.split() == ["1,2,3", "1,3,2", "2,1,3"]

    def test_enumerate_a_small_budget_past_size_ten(self, capsys):
        code, out = run_cli(
            capsys, "class", "enumerate", "--width", "3", "--steps", "2", "--size", "30",
        )
        assert code == 0
        assert len(out.split()) == 3647

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
        (["class", "enumerate", "--width", "3", "--steps", "1", "--size", "-1"],
         "InvalidParameterError"),
        (["class", "basis", "--width", "3", "--steps", "1", "--max-size", "-1"],
         "InvalidParameterError"),
        (["scenario", "--algo", "bucket", "--perm", "2,1"], "InvalidParameterError"),
        (["scenario", "--algo", "radix", "--perm", "3,1,4,2", "--width", "2"],
         "InvalidParameterError"),
        (["class", "basis", "--width", "2", "--steps", "1"], "InvalidParameterError"),
        (["class", "basis", "--width", "3", "--steps", "2", "--theorem"],
         "InvalidParameterError"),
        (["class", "basis", "--width", "3", "--steps", "1", "--theorem", "--max-size", "2"],
         "InvalidParameterError"),
        (["class", "basis", "--width", "30", "--steps", "1", "--theorem"],
         "BudgetExceededError"),
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

    @pytest.mark.parametrize("attr, fake", [
        ("bucket_scenario", lambda perm, width: Scenario(len(perm), width, ())),
        ("_lower_bound", lambda n, d, inv, width: n * n),
    ], ids=["replays-elsewhere", "below-lower-bound"])
    def test_failed_row_check(self, capsys, monkeypatch, attr, fake):
        monkeypatch.setattr(bench, attr, fake)
        argv = ["bench", "--policy", "8", "--sizes", "8", "--samples", "1"]
        self.test_library_error_is_one_stderr_line(capsys, argv, "VerificationError")

    def test_search_past_the_state_budget(self, capsys):
        argv = ["oracle", "min-steps", "--perm", "2,1,3,4,5,6,7,8,9,10", "--width", "3"]
        self.test_library_error_is_one_stderr_line(capsys, argv, "BudgetExceededError")


class TestCachedParser:
    """main() parses with one parser per process, so a call after other
    subcommands and after a usage error prints what it prints alone."""

    SEQUENCE = [
        ["scenario", "--algo", "radix", "--perm", "3,1,4,2", "--emit", "json"],
        ["bench", "--policy", "8", "--sizes", "16", "--samples", "2", "--seed", "5"],
        ["oracle", "min-steps", "--perm", "2,1", "--width", "2.5"],
        ["class", "member", "--width", "3", "--steps", "1", "--perm", "3,1,2"],
    ]

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_serves_every_call(self, capsys):
        alone = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            alone.append(self._run(capsys, argv))
        cli._parser.cache_clear()
        together = [self._run(capsys, argv) for argv in self.SEQUENCE]
        assert together == alone
        assert [code for code, _, _ in together] == [0, 0, 2, 0]
        assert cli._parser.cache_info().misses == 1

    def test_parser_is_cached_and_build_parser_is_not(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


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


    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_output_path_that_cannot_be_opened(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / ("r.csv" if flag == "--csv" else "r.json")
        code = main(["bench", "--policy", "8", "--sizes", "8", flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("duploss: FileNotFoundError: ") and str(path) in lines[0]


class TestGoldenStdout:
    """sha256 of each command's stdout.  Together the commands run the step
    kernel, both generators, the class search, the bench writer and the four
    verify suites, so a refactor that changes what any of them prints fails
    here.  The radix scenario at n = 1 pins its width limit of n."""

    STDOUT_SHA256 = {
        "bench --policy constant:8 --sizes 64,128,256 --samples 20 --seed 42":
            "b7fdccda093b0ed1379b0efb37eb7a395aeaf700b06c342d17ea732d5f49bbab",
        "class enumerate --width 3 --steps 2 --size 7":
            "2890682faf22c782836844e3f293a9533b82c8416d0e82b753d099c02a40a887",
        "class basis --width 3 --steps 1 --max-size 5":
            "e31e12b1ac1fc1150dbd760cda8ea84f3a78eb458a547fd9bd1017e0aa7cc64a",
        "oracle min-steps --perm 6,5,4,3,2,1 --width 2":
            "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f",
        "scenario --algo radix --perm 3,1,4,2 --emit json":
            "9e493298a4976e36986b3fcfb01354caac809c4d18d561ec24028e1207e1eba8",
        "scenario --algo radix --perm 1 --emit json":
            "616f5849a3f8e3e8464ecc9f58e7ab9b562e4a430e1b8062918e93a017d576c1",
        "scenario --algo bucket --perm 2,10,1,7,6,5,8,9,3,4 --width 6 --emit json":
            "a850210547035baa33d397728ef60f2bc8f7e36c85c60982daf8eb9a016f6799",
        "verify --suite lemmas":
            "ce8842c49dd659aa16bd6fb7e835eba8ee9d793a351ccc72461c9f5f12caeeb8",
        "verify --suite closure":
            "4a0c59ac0fe40eaa9b9120e6e4c1a197eb8b2ba21cfdf9de3c3b169dff021269",
        "verify --suite basis":
            "729df6290624a2738c3ce56aa7901f53e24b24f94963c9891453b1911cba2191",
        "verify --suite whole-genome":
            "4eca0b13c91f915770dbafcaaf58ea117700d9611fd9b95f89c511522789c658",
    }

    @pytest.mark.parametrize("command", STDOUT_SHA256)
    def test_stdout_digest(self, capsys, command):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[command]
