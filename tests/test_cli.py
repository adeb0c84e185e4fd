import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gswalk import cli, enumeration, inequalities
from gswalk.cli import main
from gswalk.instances import generate_instance, load_instance, save_instance
from helpers import counting_forks


@pytest.fixture
def id4(tmp_path):
    path = tmp_path / "id4.txt"
    assert main(["gen", "--kind", "identity", "--d", "4", "--n", "4",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def rand24(tmp_path):
    path = tmp_path / "r24.txt"
    assert main(["gen", "--kind", "random_unit_sphere", "--d", "2", "--n", "4",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_identity(self, id4):
        inst = load_instance(id4)
        assert np.array_equal(inst.matrix, np.eye(4))

    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "identity", "--d", "2", "--n", "2",
                  "--out", str(tmp_path / "x.txt"), "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_domain_error_exit_one(self, tmp_path, capsys):
        code = main(["gen", "--kind", "identity", "--d", "2", "--n", "3",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_and_trace_dump(self, id4, tmp_path, capsys):
        dump = tmp_path / "trace.json"
        assert main(["run", "--instance", str(id4), "--seed", "5",
                     "--dump-trace", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "T=4" in out and "discrepancy=1" in out
        steps = json.loads(dump.read_text())
        assert len(steps) == 4
        assert {"t", "pivot", "u", "delta_plus", "delta_minus",
                "chosen_delta", "choice_probability",
                "frozen"} == set(steps[0])

    def test_deterministic_output(self, rand24, capsys):
        assert main(["run", "--instance", str(rand24), "--seed", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--instance", str(rand24), "--seed", "8"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed(self, rand24, capsys, monkeypatch):
        monkeypatch.setenv("GSWALK_SEED", "41")
        assert main(["run", "--instance", str(rand24)]) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("GSWALK_SEED")
        assert main(["run", "--instance", str(rand24), "--seed", "41"]) == 0
        assert capsys.readouterr().out == env_out
        assert "seed 41" in env_out

    def test_missing_instance_file(self, tmp_path, capsys):
        assert main(["run", "--instance", str(tmp_path / "nope.txt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_prints_decomposition(self, id4, capsys):
        assert main(["trace", "--instance", str(id4), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "total nontrivial blocks: 4" in out
        assert "freeze order" in out and "basis proxies" in out


class TestMc:
    def test_json_report(self, id4, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["mc", "--instance", str(id4), "--runs", "200",
                     "--seed", "7", "--out", str(out), "--threads", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["mean_hatT"] == 4.0
        assert payload["runs"] == 200
        assert "mean_hatT=4" in capsys.readouterr().out

    def test_csv_report(self, rand24, tmp_path):
        out = tmp_path / "runs.csv"
        assert main(["mc", "--instance", str(rand24), "--runs", "50",
                     "--seed", "1", "--out", str(out), "--format", "csv",
                     "--threads", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "run_index,discrepancy,hatT,maxZ,final_X"
        assert len(lines) == 51

    def test_threads_default_is_usable_cores(self, monkeypatch):
        monkeypatch.setattr(cli.instances, "usable_cores", lambda: 3)
        args = cli._build_parser().parse_args(["mc", "--instance", "i", "--runs", "1",
                                               "--out", "o"])
        assert args.threads == 3

    def test_out_of_memory_is_one_line(self, id4, tmp_path, capsys, monkeypatch):
        from gswalk import harness

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(harness, "run_experiment", exhausted)
        out = tmp_path / "r.json"
        assert main(["mc", "--instance", str(id4), "--runs", "10", "--threads", "1",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: Unable to allocate 72.8 TiB"]
        assert captured.out == "" and not out.exists()

    # sha256 of the report, whose tail reads each run's image of the coloring
    @pytest.mark.parametrize("n,runs,digest", [
        (8, 500, "b03ef88bf6c090c194845d82e22ecb69f152d0a4f664b37cae3d84a624163fd9"),
        (532, 24, "e831cd02e31d6446203d8aecd41c268de27f4f74d4edc1b519284b08a2fb96c9"),
    ])
    def test_json_bytes_pinned(self, tmp_path, monkeypatch, n, runs, digest):
        monkeypatch.chdir(tmp_path)     # the report records the instance path
        save_instance(generate_instance("random_unit_sphere", 8, n, 1), "instance.txt")
        assert main(["mc", "--instance", "instance.txt", "--runs", str(runs), "--seed", "1",
                     "--threads", "1", "--out", "report.json"]) == 0
        assert hashlib.sha256(Path("report.json").read_bytes()).hexdigest() == digest

    def test_byte_identical_reruns(self, rand24, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["mc", "--instance", str(rand24), "--runs", "100",
                         "--seed", "13", "--out", str(path),
                         "--threads", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOracle:
    def test_all_checks_identity(self, id4, capsys):
        assert main(["oracle", "--instance", str(id4), "--check", "all",
                     "--lambda", "1", "--v", "e1"]) == 0
        out = capsys.readouterr().out
        assert "martingale" in out and "subgaussian" in out
        assert "increment" in out and "brute force" in out
        assert "FAIL" not in out

    def test_subgaussian_random_direction(self, rand24, capsys):
        assert main(["oracle", "--instance", str(rand24),
                     "--check", "subgaussian", "--lambda", "2",
                     "--v", "random", "--seed", "6"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_direction(self, id4, capsys):
        assert main(["oracle", "--instance", str(id4), "--check", "martingale",
                     "--v", "e9"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["martingale", "subgaussian", "all"])
    def test_direction_checked_before_enumeration(self, id4, monkeypatch, capsys, check):
        def refuse(inst):
            raise AssertionError("enumeration reached with a bad --v")

        monkeypatch.setattr(enumeration, "enumerate_walk", refuse)
        assert main(["oracle", "--instance", str(id4), "--check", check, "--v", "foo"]) == 1
        assert capsys.readouterr().err == "error: unknown direction spec 'foo'\n"

    def test_subgaussian_large_lambda(self, tmp_path, capsys):
        # most leaves' exponents lie below -EXP_LIMIT, the largest near -49
        path = tmp_path / "i.txt"
        save_instance(generate_instance("random_unit_sphere", 4, 13, 3), path)
        assert main(["oracle", "--instance", str(path), "--check", "subgaussian",
                     "--lambda", "40"]) == 0
        assert capsys.readouterr().out == (
            "subgaussian moment (lambda=40.0) = 3.3763586158e-27 (ok)\n")

    def test_failed_check_fails_closed(self, id4, monkeypatch, capsys):
        monkeypatch.setattr(enumeration, "verify_martingale", lambda dist, inst, v: 1.0)
        assert main(["oracle", "--instance", str(id4), "--check", "martingale"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "martingale |E<MX,v>| = 1.000e+00 (FAIL)\n"
        assert captured.err == "error: 1 oracle check(s) failed\n"


class TestCheckIneq:
    def test_lemma1_coarse(self, capsys):
        assert main(["check-ineq", "--which", "lemma1",
                     "--grid-step", "0.1"]) == 0
        assert "min gap" in capsys.readouterr().out

    def test_hoeffding_coarse(self):
        assert main(["check-ineq", "--which", "hoeffding",
                     "--grid-step", "0.1"]) == 0

    def test_cosh_coarse(self):
        assert main(["check-ineq", "--which", "cosh", "--grid-step", "0.1"]) == 0

    def test_grids_pinned(self, capsys):
        # the grid step of the benchmark; the mirrored axes print what plain ones did
        for which in ("lemma1", "hoeffding", "cosh"):
            assert main(["check-ineq", "--which", which, "--grid-step", "0.01"]) == 0
        assert capsys.readouterr().out == (
            "lemma1 min gap over grid: 0.000e+00\n"
            "hoeffding two-point min gap over grid: 0.000e+00\n"
            "cosh chain min gaps over grid: 1.003e-04, 4.557e-41\n")

    def test_failed_certification_fails_closed(self, monkeypatch, capsys):
        monkeypatch.setattr(inequalities, "two_point_grid_min", lambda step: -1.0)
        assert main(["check-ineq", "--which", "hoeffding"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "hoeffding two-point min gap over grid: -1.000e+00\n"
        assert captured.err == "error: inequality certification failed\n"

    def test_comparison_trials(self, capsys):
        assert main(["check-ineq", "--which", "comparison", "--trials", "20",
                     "--seed", "5"]) == 0
        assert "relative slack" in capsys.readouterr().out

    def test_comparison_pinned(self, capsys):
        # every trial reads the one quadrature rule built for the process
        assert main(["check-ineq", "--which", "comparison", "--trials", "100",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "comparison min relative slack over 100 trials: -3.713e-14\n")


class TestSmoothed:
    def test_pipeline_json(self, rand24, tmp_path, capsys):
        out = tmp_path / "sm.json"
        assert main(["smoothed", "--instance", str(rand24), "--sigma", "1.0",
                     "--epsilon", "1.0", "--r-trials", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"instance", "config", "tilted",
                                "outer_success", "admissibility"}
        assert len(payload["admissibility"]["conditions"]) == 6
        assert 0.0 <= payload["outer_success"]["fraction"] <= 1.0
        assert "outer success fraction" in capsys.readouterr().out

    def test_epsilon_auto_and_determinism(self, rand24, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["smoothed", "--instance", str(rand24),
                         "--epsilon-auto", "--r-trials", "10", "--seed", "2",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("option, line", [
        (["--epsilon-auto"], "outer success fraction 0.1 (95% Wilson [0.02787, 0.301]), "
                             "epsilon=0.294353\n"),
        ([], "outer success fraction 0.1 (95% Wilson [0.02787, 0.301]), epsilon=0.294353\n"),
        (["--epsilon", "0.5"], "outer success fraction 0.7 (95% Wilson [0.481, 0.8545]), "
                               "epsilon=0.5\n"),
    ])
    def test_epsilon_options_pinned(self, tmp_path, capsys, option, line):
        inst = tmp_path / "i.txt"
        save_instance(generate_instance("random_unit_sphere", 4, 12, 1), inst)
        assert main(["smoothed", "--instance", str(inst), *option, "--r-trials", "20",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == line

    # sha256 of the report, whose tilt reads each support point's image
    @pytest.mark.parametrize("seed,digest", [
        (1, "77477c31de2bf5355dce2d8c1930ef1fb1e00e9b527147cec1cae0b972cea6ae"),
        (2, "090679799a80de5a9350b8a8bd7c3aeecdecb308d5962e0c146c5b64acca3fae"),
    ])
    def test_json_bytes_pinned(self, tmp_path, monkeypatch, seed, digest):
        monkeypatch.chdir(tmp_path)     # the report records the instance path
        save_instance(generate_instance("random_unit_sphere", 4, 12, seed), "instance.txt")
        assert main(["smoothed", "--instance", "instance.txt", "--epsilon-auto",
                     "--r-trials", "300", "--seed", str(seed), "--out", "report.json"]) == 0
        assert hashlib.sha256(Path("report.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("options", [["--epsilon", "0.5", "--epsilon-auto"],
                                         ["--epsilon-auto", "--epsilon", "0.5"]])
    def test_epsilon_and_auto_exclusive(self, rand24, capsys, options):
        with pytest.raises(SystemExit) as exc:
            main(["smoothed", "--instance", str(rand24), *options])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_cutoff_mass_written_at_most_one(self, tmp_path):
        # the base masses of this cutoff set sum to 1 + 2^-52
        inst, out = tmp_path / "b.txt", tmp_path / "b.json"
        save_instance(generate_instance("random_unit_sphere", 3, 6, 2), inst)
        assert main(["smoothed", "--instance", str(inst), "--cutoff-c", "1e6",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tilted"]["cutoff_mass"] == 1.0


class TestDomainErrors:
    """Bad parameters exit 1 with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["mc", "--instance", "{id4}", "--runs", "0", "--out", "{tmp}/r.json"],
        ["smoothed", "--instance", "{id4}", "--sigma", "0.5"],
        ["oracle", "--instance", "{id4}", "--check", "subgaussian",
         "--lambda", "1000"],
        ["check-ineq", "--which", "cosh", "--grid-step", "-1"],
        ["check-ineq", "--which", "cosh", "--grid-step", "0"],
        ["check-ineq", "--which", "lemma1", "--grid-step", "0"],
        ["check-ineq", "--which", "hoeffding", "--grid-step", "-0.5"],
        ["check-ineq", "--which", "comparison", "--trials", "0"],
        ["oracle", "--instance", "{id4}", "--check", "martingale", "--v", "e"],
        ["oracle", "--instance", "{id4}", "--check", "martingale", "--v", "ex"],
        ["oracle", "--instance", "{id4}", "--check", "martingale", "--v", "e1.5"],
        ["oracle", "--instance", "{id4}", "--check", "martingale", "--v", "foo"],
        ["run", "--instance", "{id4}", "--seed", "-3"],
        ["smoothed", "--instance", "{id4}", "--delta", "-1", "--out", "{tmp}/s.json"],
        ["smoothed", "--instance", "{id4}", "--epsilon", "nan", "--out", "{tmp}/s.json"],
        ["smoothed", "--instance", "{id4}", "--sigma", "nan", "--out", "{tmp}/s.json"],
        ["check-ineq", "--which", "cosh", "--grid-step", "inf"],
        ["check-ineq", "--which", "lemma1", "--grid-step", "inf"],
        ["check-ineq", "--which", "hoeffding", "--grid-step", "inf"],
        ["check-ineq", "--which", "lemma1", "--grid-step", "5"],
        ["check-ineq", "--which", "hoeffding", "--grid-step", "5"],
        ["check-ineq", "--which", "cosh", "--grid-step", "5"],
        ["check-ineq", "--which", "lemma1", "--grid-step", "0.00002"],
        ["check-ineq", "--which", "hoeffding", "--grid-step", "0.00002"],
        ["check-ineq", "--which", "cosh", "--grid-step", "0.00002"],
        ["run", "--instance", "{tmp}/latin1.txt"],
        ["report", "--in", "{tmp}/latin1.json"],
        ["smoothed", "--instance", "{id4}", "--kappa", "-100000", "--out", "{tmp}/s.json"],
        ["smoothed", "--instance", "{id4}", "--sigma", "1e200", "--out", "{tmp}/s.json"],
        ["oracle", "--instance", "{id4}", "--check", "subgaussian", "--lambda", "nan"],
        ["oracle", "--instance", "{id4}", "--check", "all", "--lambda", "nan"],
        ["mc", "--instance", "{id4}", "--runs", "10", "--threads", "0",
         "--out", "{tmp}/r.json"],
        ["mc", "--instance", "{id4}", "--runs", "10", "--threads", "-2",
         "--out", "{tmp}/r.json"],
        # one run past the 32-bit stream keys, refused before any allocation
        ["mc", "--instance", "{id4}", "--runs", "4294967297", "--threads", "1",
         "--out", "{tmp}/s.json"],
        # d/(sigma^2 n) so large that a tilt weight exp(d s/(2 sigma^2 n)) overflows
        ["smoothed", "--instance", "{tmp}/big.txt", "--r-trials", "3",
         "--out", "{tmp}/s.json"],
        # the forked worker of runs 32 to 63, the second of two chunks, is
        # killed mid-run (patched below)
        ["mc", "--instance", "{id4}", "--runs", "64", "--threads", "2",
         "--out", "{tmp}/s.json"],
    ])
    def test_message_not_traceback(self, id4, tmp_path, capsys, monkeypatch, argv):
        from gswalk import harness
        run_range = harness._run_range

        def killed_if_forked(inst, master_seed, start, stop):
            if start:           # only a forked child walks a range past run 0
                os.kill(os.getpid(), signal.SIGKILL)
            return run_range(inst, master_seed, start, stop)

        monkeypatch.setattr(harness, "_run_range", killed_if_forked)
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        monkeypatch.setattr(harness, "CHUNK_FLOATS", 32 * 4 * 4)   # 32 runs of id4
        pids = counting_forks(monkeypatch)
        (tmp_path / "latin1.txt").write_bytes(b"2 2\n1 0\n0 1\n# caf\xe9\n")
        (tmp_path / "latin1.json").write_bytes(b'{"runs": 1, "caf\xe9": 2}\n')
        save_instance(generate_instance("random_unit_sphere", 2000, 4, 1),
                      tmp_path / "big.txt")
        argv = [a.format(id4=id4, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "s.json").exists()
        threads = argv[argv.index("--threads") + 1] if "--threads" in argv else None
        assert len(pids) == int(threads == "2")

    @pytest.mark.parametrize("option", [["--epsilon", "0"], ["--kappa", "1e6"]])
    def test_zero_epsilon_reports(self, rand24, tmp_path, option):
        out = tmp_path / "s.json"
        assert main(["smoothed", "--instance", str(rand24), "--r-trials", "3",
                     *option, "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        assert payload["config"]["epsilon"] == 0.0
        assert payload["outer_success"]["fraction"] == 0.0
        cond = payload["admissibility"]["conditions"][0]
        assert cond["name"] == "gaussian_cube_mass"
        assert cond["lhs"] == 0.0 and cond["holds"] is False

    @pytest.mark.parametrize("matrix, option, name, holds", [
        # no variance to bound epsilon by: the rhs is +inf, so eps <= rhs
        ("2 3\n0 0 0\n0 0 0\n", [], "epsilon_upper_variance", True),
        # sigma^2 is finite but 16 sigma^2 overflows, so n/d >= rhs fails
        (None, ["--sigma", "1e154"], "aspect_ratio", False),
    ])
    def test_non_finite_bounds_are_null(self, rand24, tmp_path, matrix, option, name,
                                        holds):
        inst = rand24
        if matrix is not None:
            inst = tmp_path / "zero.txt"
            inst.write_text(matrix, encoding="utf-8")
        out = tmp_path / "s.json"
        assert main(["smoothed", "--instance", str(inst), "--r-trials", "3",
                     *option, "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
        conds = {c["name"]: c for c in payload["admissibility"]["conditions"]}
        assert conds[name]["rhs"] is None and conds[name]["margin"] is None
        assert conds[name]["holds"] is holds
        others = [c for c in conds.values() if c["name"] != name]
        assert all(c["rhs"] is not None and c["margin"] is not None for c in others)

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "identity", "--d", "2", "--n", "2", "--out", "{tmp}/g.txt"],
        ["run", "--instance", "{id4}"],
        ["trace", "--instance", "{id4}"],
        ["mc", "--instance", "{id4}", "--runs", "2", "--out", "{tmp}/r.json"],
        ["oracle", "--instance", "{id4}", "--check", "martingale", "--v", "random"],
        ["check-ineq", "--which", "comparison", "--trials", "1"],
        ["smoothed", "--instance", "{id4}", "--r-trials", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("source,seed", [("flag", "-3"), ("env", "-3"),
                                             ("env", "abc"), ("env", "")])
    def test_bad_seed(self, id4, tmp_path, capsys, monkeypatch, argv, source, seed):
        argv = [a.format(id4=id4, tmp=tmp_path) for a in argv]
        if source == "flag":
            argv += ["--seed", seed]
        else:
            monkeypatch.setenv("GSWALK_SEED", seed)
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "non-negative integer" in lines[0]
        assert captured.out == ""
        assert not (tmp_path / "g.txt").exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("option", [["--delta", "-1"], ["--epsilon", "nan"],
                                        ["--sigma", "nan"], ["--kappa", "inf"],
                                        ["--cutoff-c", "nan"], ["--delta", "0"]])
    def test_smoothed_config_checked_before_enumeration(self, id4, monkeypatch,
                                                        option):
        def refuse(inst):
            raise AssertionError("enumeration reached with a bad config")

        monkeypatch.setattr(enumeration, "enumerate_walk", refuse)
        assert main(["smoothed", "--instance", str(id4), *option]) == 1

    @pytest.mark.parametrize("text", [
        "run_index,discrepancy,hatT,maxZ,final_X\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,0.25\n",
        "neither json nor csv\n",
        '{"runs": 3, "mean_maxZ": 0.5}\n',
        '{"runs": 3, "mean_hatT": "x", "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": [{"c": 0.5}]}\n',
        "run_index,discrepancy,hatT,maxZ,final_X\n0,nan,2,inf,garbage\n1,0.5,-3,0.2,+1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,nan,2,0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,inf,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,-3,0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,0.25,-+11\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,0.25,+1-1\n1,0.5,2,0.25,+1\n",
        '{"runs": -3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 0, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": true, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3.0, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3, "mean_hatT": NaN, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": Infinity, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1e999, '
        '"min_disc": 1, "tail": []}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": -Infinity, "tail": []}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": [{"c": 0.5, "empirical": NaN, "bound": 1}]}\n',
        '{"runs": 3, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": [{"c": 1e999, "empirical": 0, "bound": 1}]}\n',
        '{"runs": 3, "mean_hatT": 1%s, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n' % ("0" * 400),
        '{"runs": 1%s, "mean_hatT": 1, "mean_maxZ": 1, "theorem1_bound": 1, '
        '"min_disc": 1, "tail": []}\n' % ("0" * 5000),
        "run_index,discrepancy,hatT,maxZ,final_X\n0,-2.0,2,0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,7.5,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n0,0.5,2,-0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n-1,0.5,2,0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n5,0.5,2,0.25,+1-1\n5,0.5,2,0.25,+1-1\n",
        "run_index,discrepancy,hatT,maxZ,final_X\n5,0.5,2,0.25,+1-1\n3,0.5,2,0.25,+1-1\n",
    ], ids=["csv-header-only", "csv-four-fields", "not-a-report", "json-no-mean_hatT",
            "json-str-mean_hatT", "json-tail-no-bound", "csv-nan-inf-garbage",
            "csv-nan-discrepancy", "csv-inf-maxZ", "csv-negative-hatT",
            "csv-signs-not-in-pairs", "csv-rows-differ-in-n",
            "json-negative-runs", "json-zero-runs", "json-bool-runs", "json-float-runs",
            "json-nan-mean_hatT", "json-inf-mean_maxZ", "json-overflow-bound",
            "json-minus-inf-min_disc", "json-nan-tail-empirical", "json-overflow-tail-c",
            "json-int-overflows-float", "json-runs-too-many-digits",
            "csv-negative-discrepancy", "csv-maxZ-above-one",
            "csv-negative-maxZ", "csv-negative-run_index", "csv-repeated-run_index",
            "csv-unsorted-run_index"])
    def test_malformed_report(self, tmp_path, capsys, text):
        path = tmp_path / "bad-report"
        path.write_text(text)
        # --summary reads a JSON report's tail rows and is refused on any CSV
        summary = ["--summary"] if text.startswith("{") else []
        assert main(["report", "--in", str(path), *summary]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""

    def test_smoothed_threads_flag_removed(self, id4):
        with pytest.raises(SystemExit) as exc:
            main(["smoothed", "--instance", str(id4), "--threads", "2"])
        assert exc.value.code == 2


class TestReportCmd:
    def test_json_summary(self, id4, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        main(["mc", "--instance", str(id4), "--runs", "50", "--seed", "2",
              "--out", str(rep), "--threads", "1"])
        capsys.readouterr()
        assert main(["report", "--in", str(rep), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "mean_hatT=4" in out and "tail c=" in out

    def test_csv_summary(self, rand24, tmp_path, capsys):
        rep = tmp_path / "runs.csv"
        main(["mc", "--instance", str(rand24), "--runs", "30", "--seed", "2",
              "--out", str(rep), "--format", "csv", "--threads", "1"])
        capsys.readouterr()
        assert main(["report", "--in", str(rep)]) == 0
        assert "runs=30" in capsys.readouterr().out
        # a per-run CSV has no tail rows to print
        assert main(["report", "--in", str(rep), "--summary"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--summary" in lines[0]
        assert captured.out == ""

    def test_summary_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())     # argparse may wrap it
        assert "--summary JSON reports: also print each tail row" in help_text


def test_runs_without_scipy(rand24):
    # gswalk needs numpy alone: with SciPy blocked, importing the CLI and the
    # two commands that evaluate erf and the normal CDF still succeed
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {src!r}); "
            "from gswalk.cli import main; "
            f"assert main(['smoothed', '--instance', {str(rand24)!r}, '--epsilon-auto', "
            "'--r-trials', '5', '--seed', '1']) == 0; "
            "assert main(['check-ineq', '--which', 'comparison', '--trials', '5']) == 0")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "outer success fraction" in out.stdout and "relative slack" in out.stdout
