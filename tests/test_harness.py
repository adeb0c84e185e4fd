import concurrent.futures
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswalk import harness
from gswalk.exceptions import ContractViolationError, ParameterError, ReportFormatError
from gswalk.harness import (RunStats, build_report, empirical_tail,
                            estimate_bound, parse_csv, report_to_json,
                            run_experiment, stats_to_csv, write_report)
from gswalk.instances import Instance, generate_instance, stream_rng
from gswalk.ortho import basis_variance_proxies, decompose
from gswalk.walk import run_walk
from conftest import make_columns

# the instances run_experiment meets in the acceptance suite, plus the
# degenerate kinds
LOCKSTEP_CASES = [("identity", 4, 4, 0), ("random_unit_sphere", 8, 8, 4000),
                  ("random_unit_sphere", 8, 8, 77), ("random_unit_sphere", 3, 5, 33),
                  ("random_unit_sphere", 2, 4, 17), ("duplicated_column", 3, 6, 0),
                  ("sign_columns", 4, 8, 1)]


def reference_stats(inst, runs: int, master_seed: int) -> tuple[RunStats, np.ndarray]:
    """Per-run statistics computed run by run through the uncached run_walk,
    and each run's d basis proxies (runs, d)."""
    rows, proxies = [], []
    for r in range(runs):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=master_seed, spawn_key=(r,)))
        trace = run_walk(inst, rng)
        dec = decompose(inst, trace)
        proxies.append(basis_variance_proxies(inst, dec))
        rows.append((r, float(np.abs(inst.matrix @ trace.final_x).max()),
                     dec.total_nontrivial, float(proxies[-1].max()), trace.final_x))
    return RunStats(*map(np.array, zip(*rows))), np.array(proxies)


def assert_matches_reference(stats, inst, master_seed: int) -> None:
    """The CSV of ``stats``, which holds T-hat and max Z, and each run's
    block count equal the reference's."""
    want, _ = reference_stats(inst, stats.run_index.size, master_seed)
    assert stats_to_csv(stats) == stats_to_csv(want)
    assert np.array_equal(stats.block_count, want.block_count)


def columns(max_proxy: float = 1.0, block_count: int = 4, runs: int = 1) -> RunStats:
    """A table of ``runs`` equal runs with discrepancy 1 and signs (+1, +1)."""
    return RunStats(np.arange(runs), np.ones(runs), np.full(runs, block_count),
                    np.full(runs, max_proxy), np.ones((runs, 2)))


def assert_same_columns(got: RunStats, want: RunStats) -> None:
    """Every column of ``got`` equals ``want``'s in dtype, shape and bytes."""
    for name, col in vars(want).items():
        other = getattr(got, name)
        assert (other.dtype, other.shape) == (col.dtype, col.shape), name
        assert other.tobytes() == col.tobytes(), name


FAMILIES = ("rank_deficient", "duplicate_opposite", "mixed_scale", "d1",
            "sign_columns", "wide")


def family_instance(family: str, seed: int) -> Instance:
    """An instance of one degenerate family, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = 1 if family == "d1" else int(rng.integers(2, 5))
    if family == "sign_columns":        # several coordinates freeze in one step
        return generate_instance("sign_columns", d, n, seed)
    if family == "wide":                # the direction comes from the Gram matrix
        m = rng.standard_normal((8, 40))
    elif family == "rank_deficient":
        m = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, n))
    elif family == "duplicate_opposite":
        base = rng.standard_normal((d, max(1, n // 2)))
        m = base[:, rng.integers(0, base.shape[1], n)] * rng.choice([-1.0, 1.0], n)
    else:
        m = rng.standard_normal((d, n))
    m = m / np.linalg.norm(m, axis=0)
    if family == "mixed_scale":
        m = m * 10.0 ** rng.uniform(-12, 0, m.shape[1])
    return Instance(m)


class InProcessPool:
    """Stand-in process pool that records its size and maps in this process."""
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunExperiment:
    def test_identity_four(self):
        inst = generate_instance("identity", 4, 4, 0)
        stats = run_experiment(inst, 50, 123)
        assert np.all(stats.discrepancy == 1.0)
        assert np.all(stats.block_count == 4)
        assert stats.max_proxy == pytest.approx(np.ones(50), abs=1e-10)

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        stats = run_experiment(inst, 50, 9)
        assert np.all(stats.discrepancy == 0.0)
        assert np.all(stats.block_count == 1)

    def test_deterministic_csv(self):
        inst = generate_instance("random_unit_sphere", 3, 5, 2)
        a = stats_to_csv(run_experiment(inst, 100, 7))
        b = stats_to_csv(run_experiment(inst, 100, 7))
        assert a == b

    def test_run_index_determines_run(self):
        # a longer experiment extends a shorter one without changing it
        inst = generate_instance("random_unit_sphere", 3, 5, 2)
        short = run_experiment(inst, 20, 7)
        long = run_experiment(inst, 40, 7)
        assert np.array_equal(short.discrepancy, long.discrepancy[:20])
        assert np.array_equal(short.signs, long.signs[:20])

    def test_parallel_matches_serial(self):
        inst = generate_instance("random_unit_sphere", 3, 5, 2)
        serial = stats_to_csv(run_experiment(inst, 64, 3, workers=1))
        parallel = stats_to_csv(run_experiment(inst, 64, 3, workers=2))
        assert serial == parallel

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # run_experiment imports the pool class when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(harness, "usable_cores", lambda: 3)
        inst = generate_instance("random_unit_sphere", 3, 5, 2)
        capped = stats_to_csv(run_experiment(inst, 2000, 3, workers=500))
        assert InProcessPool.sizes == [3]
        assert capped == stats_to_csv(run_experiment(inst, 2000, 3, workers=1))

    def test_invariants_per_run(self):
        inst = generate_instance("random_unit_sphere", 4, 8, 6)
        stats = run_experiment(inst, 100, 11)
        # the reference runs are these runs: their CSVs are equal
        want, proxies = reference_stats(inst, 100, 11)
        assert stats_to_csv(stats) == stats_to_csv(want)
        assert np.all(stats.block_count <= min(inst.d, inst.n))
        assert np.all((0 <= stats.max_proxy) & (stats.max_proxy <= 1 + 1e-8))
        assert np.all(proxies.sum(axis=1) <= stats.block_count + 1e-8)
        recomputed = np.abs(stats.signs @ inst.matrix.T).max(axis=1)
        assert np.all(np.abs(recomputed - stats.discrepancy) <= 1e-10)

    def test_mean_increment_consistent(self):
        inst = generate_instance("random_unit_sphere", 3, 6, 4)
        stats = run_experiment(inst, 2000, 21)
        margins = stats.signs @ inst.matrix.T
        for i in range(inst.d):
            col = margins[:, i]
            assert abs(col.mean()) <= 3 * col.std(ddof=1) / math.sqrt(len(col))

    def test_runs_validated(self):
        inst = generate_instance("identity", 2, 2, 0)
        with pytest.raises(ValueError):
            run_experiment(inst, 0, 0)
        with pytest.raises(ParameterError):
            run_experiment(inst, -3, 0)
        # every run index must be one 32-bit stream key; refused before allocating
        with pytest.raises(ParameterError, match=r"2\*\*32"):
            run_experiment(inst, 2**32 + 1, 0)
        # numpy's SeedSequence, whose streams the runs draw, refuses it too
        with pytest.raises(ParameterError, match="seed"):
            run_experiment(inst, 3, -1)

    # sha256 of stats_to_csv before the runs' draws were computed in bulk
    @pytest.mark.parametrize("d,n,runs,seed,workers,digest", [
        (8, 8, 3000, 1, 1, "d11593d0fbd009688b693c6cb4d689d51e84f37e59fc0a6ba84086f39efc583c"),
        (8, 8, 3000, 1, 2, "d11593d0fbd009688b693c6cb4d689d51e84f37e59fc0a6ba84086f39efc583c"),
        (8, 8, 40, 2**128 + 1, 1,
         "0a39c620d862c17944b7af23ea53a191b7f7f8ea53f7aa10d7892ac59ef424e7"),
        (8, 64, 30, 1, 1, "27b6b174a4bb9542ef1065366f1763071c3732ea3db451440f25f97bf176bdc2"),
    ])
    def test_csv_bytes_pinned(self, d, n, runs, seed, workers, digest):
        inst = generate_instance("random_unit_sphere", d, n, 1)
        text = stats_to_csv(run_experiment(inst, runs, seed, workers=workers))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def assert_stream_uniforms(seed: int, keys, n: int) -> None:
    """Each row of ``_stream_uniforms`` has the bits of numpy's own stream,
    with every warning an error."""
    keys = np.asarray(keys, dtype=np.int64)
    want = np.array([stream_rng(seed, k).random(n) for k in keys.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = harness._stream_uniforms(seed, keys, n)
    assert got.shape == (keys.size, n)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStreamUniforms:
    """The bulk draws are numpy's SeedSequence and PCG64 streams; a numpy
    release that changes either algorithm fails here."""

    @pytest.mark.parametrize("n", [1, 8, 532])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 9])
    def test_matches_numpy(self, seed, n):
        assert_stream_uniforms(seed, [0, 1, 2**32 - 1], n)

    @pytest.mark.parametrize("n", [1, 8])
    def test_matches_numpy_over_a_range(self, n):
        assert_stream_uniforms(7, np.arange(3000), n)

    @given(seed=st.integers(0, 2**200 - 1),
           keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_property(self, seed, keys, n):
        assert_stream_uniforms(seed, keys, n)


class TestLockstep:
    """Runs advanced as rows in chunks, sharing directions by active set and
    statistics by freeze sequence, against the per-run ``run_walk`` reference."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,d,n,seed", LOCKSTEP_CASES)
    def test_matches_uncached_walk(self, kind, d, n, seed, workers):
        inst = generate_instance(kind, d, n, seed)
        stats = run_experiment(inst, 300, 5 + seed, workers=workers)
        assert np.array_equal(stats.run_index, np.arange(300))
        assert_matches_reference(stats, inst, 5 + seed)

    def test_runs_do_not_share_arrays(self):
        # writing into one experiment's columns leaves a second one unchanged
        inst = generate_instance("identity", 3, 3, 0)
        stats = run_experiment(inst, 200, 2)
        want = stats_to_csv(stats)
        again = run_experiment(inst, 200, 2)
        for col in vars(stats).values():
            col[:] = 0
        assert stats_to_csv(again) == want
        assert stats_to_csv(run_experiment(inst, 200, 2)) == want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, None], ids=["rows1", "rows2", "default"])
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_differential_families(self, rows, workers, family, seed):
        # chunks of 1 and 2 rows split the runs of each worker's range; the
        # pool maps in this process so that it sees the patched chunk size
        inst = family_instance(family, seed)
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(harness, "CHUNK_FLOATS", rows * inst.n * inst.d)
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
            patch.setattr(InProcessPool, "sizes", [])
            patch.setattr(harness, "usable_cores", lambda: 2)
            got = run_experiment(inst, 13, seed % 1000, workers=workers)
        assert np.array_equal(got.run_index, np.arange(13))
        assert_matches_reference(got, inst, seed % 1000)

    def test_memory_keeps_no_step_directions(self):
        # one u row per step would be 8 runs x 300 steps x 300 floats = 5.8 MB
        inst = generate_instance("random_unit_sphere", 4, 300, 1)
        run_experiment(inst, 1, 0)
        tracemalloc.start()
        try:
            run_experiment(inst, 8, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_memory_bounded_in_runs(self):
        # what a chunk keeps is freed with it: beyond the returned statistics,
        # 22 runs in chunks of 2 need no more memory than 6 runs do, where a
        # table kept for the whole range would grow with every run
        inst = generate_instance("random_unit_sphere", 4, 100, 1)
        run_experiment(inst, 1, 0)
        extra = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "CHUNK_FLOATS", 2 * inst.n * inst.d)
            for runs in (6, 22):
                tracemalloc.start()
                try:
                    stats = run_experiment(inst, runs, 2)
                    current, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert stats.run_index.size == runs
                extra.append(peak - current)
        assert extra[1] - extra[0] < 8 * 2**10

    def test_memory_retained_is_the_columns(self):
        # an experiment keeps its five columns, four 8-byte values and n signs a
        # run (281 KiB here), and no object or array per run beside them
        inst = generate_instance("random_unit_sphere", 8, 8, 1)
        run_experiment(inst, 1, 0)
        tracemalloc.start()
        try:
            stats = run_experiment(inst, 3000, 2)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        columns = 3000 * (4 + inst.n) * 8
        assert retained < 2 * columns
        assert sum(col.nbytes for col in vars(stats).values()) == columns


class TestEstimateBound:
    def test_identity_four(self):
        inst = generate_instance("identity", 4, 4, 0)
        stats = run_experiment(inst, 20, 5)
        bound, existence = estimate_bound(stats)
        assert bound == pytest.approx(2 * math.sqrt(2 * math.log(4)), rel=1e-9)
        assert existence

    def test_single_column(self):
        inst = make_columns([0.5, 0.0])
        stats = run_experiment(inst, 20, 5)
        bound, existence = estimate_bound(stats)
        assert bound == 2.0
        assert existence

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_bound(columns(runs=0))

    def test_proxy_above_one_fails_closed(self):
        with pytest.raises(ContractViolationError, match="exceeds"):
            estimate_bound(columns(1.5))

    def test_proxy_roundoff_is_taken_as_one(self):
        assert estimate_bound(columns(1.0 + 5e-10)) == estimate_bound(columns(1.0))

    def test_block_count_floor_is_exact(self):
        # below one block ln E T < 0, and the bound's max(1, .) is 1
        assert estimate_bound(columns(1.0, block_count=0)) == (2.0, True)


class TestEmpiricalTail:
    def test_c_zero(self):
        inst = generate_instance("identity", 2, 2, 0)
        stats = run_experiment(inst, 30, 1)
        (row,) = empirical_tail(inst, stats, 0, [0.0])
        assert row["bound"] == 2.0
        assert row["empirical"] <= row["bound"]

    def test_identity_large_c(self):
        inst = generate_instance("identity", 3, 3, 0)
        stats = run_experiment(inst, 50, 2)
        (row,) = empirical_tail(inst, stats, 1, [1.5])
        assert row["empirical"] == 0.0
        assert row["bound"] == pytest.approx(2 * math.exp(-1.125), rel=1e-12)

    def test_random_within_bound(self):
        inst = generate_instance("random_unit_sphere", 4, 8, 10)
        stats = run_experiment(inst, 3000, 13)
        runs = stats.run_index.size
        for row in empirical_tail(inst, stats, 0, [1.0, 2.0, 3.0]):
            se = math.sqrt(max(row["empirical"], 1e-12)
                           * (1 - row["empirical"]) / runs)
            assert row["empirical"] <= row["bound"] + 3 * se


class TestReports:
    def make(self, runs=40, seed=3):
        inst = generate_instance("identity", 4, 4, 0)
        stats = run_experiment(inst, runs, seed)
        desc = {"d": 4, "n": 4, "kind": "identity", "seed": seed}
        return inst, stats, build_report(inst, desc, stats, seed)

    def test_identity_report_values(self):
        _, _, report = self.make()
        assert report.mean_hatT == 4.0
        assert report.se_hatT == 0.0
        assert report.min_disc == report.max_disc == 1.0
        assert report.brute_force_opt == 1.0
        assert report.frac_within_bound == 1.0

    def test_json_schema(self, tmp_path):
        _, stats, report = self.make()
        path = tmp_path / "rep.json"
        write_report(report, path, fmt="json")
        payload = json.loads(path.read_text())
        assert list(payload) == [
            "instance", "runs", "master_seed", "mean_hatT", "se_hatT",
            "mean_maxZ", "se_maxZ", "theorem1_bound", "min_disc", "mean_disc",
            "max_disc", "frac_within_bound", "brute_force_opt", "tail"]
        assert payload["mean_hatT"] == 4.0
        assert payload["runs"] == 40
        assert all(set(row) == {"c", "empirical", "bound"}
                   for row in payload["tail"])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind,d,n", [("random_unit_sphere", 3, 5), ("sign_columns", 3, 6),
                                          ("duplicated_column", 3, 6),
                                          ("random_in_ball", 3, 5)])
    def test_csv_round_trip(self, tmp_path, kind, d, n, workers):
        inst = generate_instance(kind, d, n, 8)
        stats = run_experiment(inst, 25, 4, workers=workers)
        path = tmp_path / "runs.csv"
        desc = {"d": d, "n": n, "kind": kind, "seed": 4}
        report = build_report(inst, desc, stats, 4)
        write_report(report, path, fmt="csv", stats=stats)
        text = path.read_text()
        assert text.splitlines()[0] == "run_index,discrepancy,hatT,maxZ,final_X"
        assert len(text.splitlines()) == 26
        # the record reads back bit for bit, and the report recomputes from it
        got = parse_csv(text)
        assert_same_columns(got, stats)
        assert np.array_equal(got.run_index, np.arange(25))
        assert report_to_json(build_report(inst, desc, got, 4)) == report_to_json(report)

    @pytest.mark.parametrize("row", ["0,nan,2,0.25,+1-1", "0,0.5,2,inf,+1-1",
                                     "0,0.5,-3,0.25,+1-1", "0,0.5,2,0.25,-+11",
                                     "0,0.5,2,0.25,+1-", "0,0.5,2,0.25,",
                                     "0,0.5,2,0.25,+1"])
    def test_parse_csv_names_the_bad_row(self, row):
        # the first row holds two signs, so the last case differs in n
        text = f"run_index,discrepancy,hatT,maxZ,final_X\n1,0.5,2,0.25,+1-1\n{row}\n"
        with pytest.raises(ReportFormatError, match=re.escape(repr(row))):
            parse_csv(text)

    def test_csv_needs_stats(self, tmp_path):
        _, _, report = self.make()
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "x.csv", fmt="csv")

    def test_unknown_format(self, tmp_path):
        _, stats, report = self.make()
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "x.xml", fmt="xml", stats=stats)

    def test_json_byte_stable(self):
        _, _, a = self.make()
        _, _, b = self.make()
        assert report_to_json(a) == report_to_json(b)
