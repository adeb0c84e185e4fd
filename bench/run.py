#!/usr/bin/env python3
"""Run one gswalk benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0

The workload's instance is generated from ``--seed``.  With ``--trace 0`` its
gswalk CLI commands run in fresh processes, the whole sequence repeated for
about ``--seconds``.  ``wall_s`` and ``cpu_s`` are means over the repeats, the
other end-to-end metrics medians.
With ``--trace 1`` the sequence runs once for reference, then the same
library calls run in this process under timing spans, which give the
per-layer metrics.  Outputs are checked in both modes, outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and units
come from BENCHMARK.json.  Raw figures, checks and spans are written under
``.bench_build/bench/``.  See bench/README.md.
"""
from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

# Pin BLAS to one thread before numpy loads, here and in every child process:
# unpinned OpenBLAS pools oversubscribe the cores next to mc's process pool.
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_BLAS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
SETUP_REPEATS = 5           # fresh interpreters timed for setup_s
MIN_REPEATS = 2             # command sequences timed per run, at least
RUN_BUDGET_S = 160.0        # every process of a run ends within this


@dataclass
class Proc:
    label: str
    returncode: int
    wall: float
    cpu: float              # user + sys, including reaped pool workers
    rss_mb: float           # peak resident set over the process and its workers
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(label, argv, env, cwd: Path, deadline: float) -> Proc:
    """Run argv to completion in its own process group; resources from wait4."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:         # killed: take its workers down too
            _kill_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return Proc(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"))


def child_env(pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in PINNED_BLAS and k != "GSWALK_SEED"}
    if pinned:
        env.update(PINNED_BLAS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_sequence(workload, ctx, env, deadline) -> dict:
    """One repeat: every command of the workload, one fresh process each."""
    procs, files = [], {}
    for cmd in workload.commands(ctx):
        if cmd.out:
            (ctx.workdir / cmd.out).unlink(missing_ok=True)
        procs.append(run_process(cmd.label, [sys.executable, "-m", "gswalk.cli",
                                             *cmd.args],
                                 env, ctx.workdir, deadline))
        if cmd.out:
            path = ctx.workdir / cmd.out
            files[cmd.out] = path.read_bytes() if path.exists() else b""
    return {"wall": sum(p.wall for p in procs), "cpu": sum(p.cpu for p in procs),
            "rss_mb": max(p.rss_mb for p in procs), "procs": procs,
            "files": files}


def setup_once(ctx, env, deadline) -> Proc:
    """A fresh interpreter that imports gswalk and loads the workload's instance."""
    code = ("import gswalk; "
            f"gswalk.load_instance({str(ctx.workdir / 'instance.txt')!r})")
    return run_process("setup", [sys.executable, "-c", code], env, ctx.workdir,
                       deadline)


def run_repeats(workload, ctx, env, seconds, min_repeats, deadline):
    """Repeat the command sequence until the timed total is nearest ``seconds``:
    another repeat starts while it would end less than half a repeat past it.

    The set-up samples are taken between the first repeats, so that they see
    the same host conditions as the sequences.  Returns (setups, repeats)."""
    setups, repeats = [], []
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_once(ctx, env, deadline))
        repeats.append(run_sequence(workload, ctx, env, deadline))
        typical = statistics.median(r["wall"] for r in repeats)
        elapsed = sum(r["wall"] for r in repeats)
        if time.monotonic() + 2 * typical > deadline:
            break
        if len(repeats) >= min_repeats and elapsed + typical / 2 > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(ctx, env, deadline))
    return setups, repeats


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def output_checks(workload, ctx, setups, repeats) -> tuple[list, dict]:
    """Checks on exit codes, stdout lines, repeat identity and contents.

    Returns the (name, passed) list and the sha256 of each output, for the
    record only: outputs may change bytes between commits."""
    checks = [(f"setup_{i}.exit", p.returncode == 0) for i, p in enumerate(setups)]
    commands = workload.commands(ctx)
    for i, rep in enumerate(repeats):
        for cmd, proc in zip(commands, rep["procs"]):
            checks.append((f"repeat_{i}.{cmd.label}.exit", proc.returncode == 0))
            for pattern in cmd.expect:
                checks.append((f"repeat_{i}.{cmd.label}.stdout /{pattern}/",
                               re.search(pattern, proc.stdout, re.M) is not None))
    digests = {}
    for k, cmd in enumerate(commands):
        outputs = {f"{cmd.label}.stdout": [r["procs"][k].stdout for r in repeats]}
        if cmd.out:
            outputs[cmd.out] = [r["files"][cmd.out] for r in repeats]
        for name, versions in outputs.items():
            hashes = [sha256(v) for v in versions]
            digests[name] = hashes[0]
            if len(hashes) > 1:
                checks.append((f"identical_across_repeats.{name}",
                               len(set(hashes)) == 1))
    first = repeats[0]
    try:
        checks += workload.check(ctx, {c.label: p.stdout for c, p in
                                       zip(commands, first["procs"])},
                                 first["files"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        checks.append((f"{workload.name}.content ({type(exc).__name__}: {exc})", False))
    return checks, digests


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": PINNED_BLAS, "mc_workers": nproc,
            "machine": platform.machine()}


def traced_pass(workload, ctx, wall_s, setup_s, layer_names, deadline) -> tuple[dict, list]:
    """Per-layer metrics from spans around the workload's library calls."""
    tr = Tracer(workload.name)
    layer = dict.fromkeys(layer_names, 0.0)
    workload.traced(ctx, tr, layer)
    top = tr.children("cli.")
    load = sum(s["end"] - s["start"] for s in top if s["name"] == "instances.load_instance")
    layer["instances.load_instance.s"] = load
    # setup_s already covers the import and the instance load of each command
    spans = sum(s["end"] - s["start"] for s in top) - load
    layer["cli.residual_s"] = wall_s - len(workload.commands(ctx)) * setup_s - spans
    if workload.unpinned_probe:
        walls = {True: [wall_s], False: []}
        for pinned in (False, True, False):
            walls[pinned].append(
                run_sequence(workload, ctx, child_env(pinned), deadline)["wall"])
        layer["harness.unpinned_blas_slowdown"] = (statistics.median(walls[False])
                                                   / statistics.median(walls[True]))
    unknown = set(layer) - set(layer_names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return layer, tr.spans


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result object plus the raw record."""
    import workloads
    deadline = time.monotonic() + RUN_BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    workdir = OUT_DIR / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(workdir=workdir, seed=seed % 2**32, nproc=nproc)
        workload.prepare(ctx)
        env = child_env(pinned=True)
        setups, repeats = run_repeats(workload, ctx, env, 0 if trace else seconds,
                                      1 if trace else MIN_REPEATS, deadline)
        checks, digests = output_checks(workload, ctx, setups, repeats)
        failed = sum(not ok for _, ok in checks)
        # Means, not medians: host speed comes in regimes of several repeats,
        # and the median of a few repeats jumps between them (bench/README.md).
        wall_s = statistics.fmean(r["wall"] for r in repeats)
        setup_s = statistics.median(p.wall for p in setups)
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if trace else "end_to_end"]}
        spans = []
        if trace:
            values, spans = traced_pass(workload, ctx, wall_s, setup_s, list(units),
                                        deadline)
            values["fail_rate"] = failed / len(checks)
        else:
            values = {"wall_s": wall_s,
                      "cpu_s": statistics.fmean(r["cpu"] for r in repeats),
                      "setup_s": setup_s,
                      "peak_rss_mb": statistics.median(r["rss_mb"] for r in repeats)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(nproc),
              "repeats": [{k: r[k] for k in ("wall", "cpu", "rss_mb")} for r in repeats],
              "setup_walls": [p.wall for p in setups],
              "checks": [{"name": n, "passed": ok} for n, ok in checks],
              "output_sha256": digests, "result": result, "spans": spans}
    for rep in repeats:
        for proc in rep["procs"]:
            if proc.returncode:
                record.setdefault("errors", []).append(
                    f"{proc.label} exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gswalk" / "__init__.py").is_file():
        print(f"error: no gswalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gswalk
    if Path(gswalk.__file__).resolve().parent != (SRC / "gswalk").resolve():
        print(f"error: imported gswalk from {gswalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    record = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
    result = record["result"]

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    env = record["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(record['repeats'])} repeat(s)"
          f"{' (traced pass)' if args.trace else ''}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {result['failed']} of {result['attempted']} checks failed "
          f"(fail_rate {result['failed'] / result['attempted']:.6g})")
    for check in record["checks"]:
        if not check["passed"]:
            print(f"  FAILED {check['name']}")
    for error in record.get("errors", []):
        print(f"  {error}")
    print(f"  record: {results / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
