"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, span_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "mc-small": dict(runs=12, sample=3, replay_runs=2),
    "mc-wide": dict(n=24, runs=8, sample=2, replay_runs=1),
    "certify": dict(n=5, grid_step=0.25, trials=3),
    "smoothed": dict(n=5, r_trials=4),
}


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TINY)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"} <= set(bounds)
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_spans_nest_and_parents_resolve():
    tr = Tracer("w")
    with tr.span("cli.a"):
        with tr.span("layer.b"):
            pass
        with tr.span("layer.c"):
            with tr.span("layer.d"):
                pass
    assert span_problems(tr.spans) == []
    assert [s["name"] for s in tr.children("cli.")] == ["layer.b", "layer.c"]
    orphan = dict(tr.spans[1], id=99, parent=42)
    outside = dict(tr.spans[3], id=100, end=tr.spans[2]["end"] + 1.0)
    problems = span_problems(tr.spans + [orphan, outside])
    assert len(problems) == 2


def _record(name, trace):
    workload = workloads.WORKLOADS[name](**TINY[name])
    return run.measure(workload, seed=5, seconds=0.0, trace=trace, spec=SPEC)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run(name):
    record = _record(name, trace=True)
    result = record["result"]
    assert result["correct"], [c for c in record["checks"] if not c["passed"]]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["fail_rate"]["value"] == 0.0
    assert record["spans"] and span_problems(record["spans"]) == []
    assert {s["workload"] for s in record["spans"]} == {name}


def test_tiny_timed_run():
    record = _record("mc-small", trace=False)
    result = record["result"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["repeats"]) >= run.MIN_REPEATS


@pytest.fixture
def mc_repeat(tmp_path):
    def make(name):
        workload = workloads.WORKLOADS[name](**TINY[name])
        ctx = workloads.Context(workdir=tmp_path, seed=3, nproc=1)
        workload.prepare(ctx)
        rep = run.run_sequence(workload, ctx, run.child_env(pinned=True),
                               deadline=run.time.monotonic() + 60)
        return workload, ctx, rep
    return make


def _failed(workload, ctx, rep):
    checks, _ = run.output_checks(workload, ctx, [], [rep])
    return sum(not ok for _, ok in checks), len(checks)


def test_checks_catch_flipped_sign_in_csv(mc_repeat):
    workload, ctx, rep = mc_repeat("mc-small")
    assert _failed(workload, ctx, rep)[0] == 0
    lines = rep["files"]["runs.csv"].decode().splitlines()
    row = workload.sampled_runs()[1] + 1
    lines[row] = lines[row][:-2] + ("-1" if lines[row].endswith("+1") else "+1")
    rep["files"]["runs.csv"] = ("\n".join(lines) + "\n").encode()
    failed, attempted = _failed(workload, ctx, rep)
    assert failed == 1 and attempted > 1


@pytest.mark.parametrize("corrupt", [
    lambda r: dict(r, frac_within_bound=1.5),
    lambda r: dict(r, runs=r["runs"] + 1),
    lambda r: {k: v for k, v in r.items() if k != "min_disc"},
])
def test_checks_catch_bad_report(mc_repeat, corrupt):
    workload, ctx, rep = mc_repeat("mc-wide")
    report = json.loads(rep["files"]["report.json"])
    rep["files"]["report.json"] = json.dumps(corrupt(report)).encode()
    assert _failed(workload, ctx, rep)[0] >= 1


def test_repeat_step_share():
    paths = [(True, False), (True, True), (False, True)]
    # run 2 repeats the root and the prefix (True,); run 3 only the root
    assert workloads.repeat_step_share(paths) == pytest.approx(3 / 6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
