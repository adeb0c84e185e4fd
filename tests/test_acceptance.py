"""End-to-end acceptance checks.

Each test covers one numbered criterion; the shared tree suite (50 exactly
enumerated small instances) feeds criteria 1, 2, 3, and 5.  Runtime budgets
are asserted where stated.
"""
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gswalk.enumeration import (conditional_increment_check, enumerate_walk,
                                verify_martingale)
from gswalk.harness import (report_to_json, run_experiment, build_report,
                            estimate_bound, stats_to_csv)
from gswalk.inequalities import BoundInputs, lemma1_grid_min, theorem1_bound
from gswalk.instances import distinct_rows, generate_instance
from gswalk.ortho import (basis_variance_proxies, decompose,
                          direction_expansion_residual, variance_proxy_batch)
from gswalk.smoothed import (SmoothedConfig, TiltedDistribution,
                             admissibility_report, build_augmented,
                             comparison_constant, epsilon_of,
                             inner_hit_probability, joint_rect_probability,
                             outer_success_estimate, product_rect_probability,
                             sample_perturbation, tilt_distribution)
from gswalk.walk import run_walk


@dataclass
class TreeCase:
    inst: object
    dist: object
    vs: np.ndarray          # (d, d+5) test directions, columns unit
    margins: np.ndarray     # (leaves, d+5) of <M x, v>
    proxies: np.ndarray     # (leaves, d+5) of the per-leaf variance proxy
    probs: np.ndarray
    blocks: np.ndarray      # per-leaf nontrivial block count


def _report(name: str, started: float) -> None:
    print(f"{name}: pass ({time.monotonic() - started:.1f}s)")


@pytest.fixture(scope="module")
def tree_suite():
    started = time.monotonic()
    combos = list(itertools.product((2, 3, 4), range(3, 9)))
    cases = []
    for seed in range(50):
        d, n = combos[seed % len(combos)]
        inst = generate_instance("random_unit_sphere", d, n, 1000 + seed)
        dist = enumerate_walk(inst)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(5,)))
        extra = rng.standard_normal((d, 5))
        extra /= np.linalg.norm(extra, axis=0)
        vs = np.hstack([np.eye(d), extra])
        margins = np.empty((len(dist.leaves), vs.shape[1]))
        proxies = np.empty_like(margins)
        for j, lf in enumerate(dist.leaves):
            margins[j] = (inst.matrix @ lf.signs) @ vs
            proxies[j] = variance_proxy_batch(inst, lf.ortho, vs)
        cases.append(TreeCase(
            inst=inst, dist=dist, vs=vs, margins=margins, proxies=proxies,
            probs=np.array([lf.probability for lf in dist.leaves]),
            blocks=np.array([lf.ortho.total_nontrivial
                             for lf in dist.leaves])))
    return cases, time.monotonic() - started


def test_criterion_1_subgaussian_moment(tree_suite):
    cases, build_seconds = tree_suite
    started = time.monotonic()
    worst = -math.inf
    for case in cases:
        for lam in (0.5, 1.0, 2.0):
            moments = case.probs @ np.exp(
                lam * case.margins - 0.5 * lam * lam * case.proxies)
            worst = max(worst, float(moments.max()))
    assert worst <= 1 + 1e-10
    elapsed = build_seconds + time.monotonic() - started
    assert elapsed < 120.0
    _report("criterion 1 (subgaussian moment)", started - build_seconds)


def test_criterion_2_martingale(tree_suite):
    started = time.monotonic()
    cases, _ = tree_suite
    for case in cases:
        d = case.inst.d
        deviations = np.abs(case.probs @ case.margins[:, :d])
        assert float(deviations.max()) <= 1e-10
        for i in range(d):
            v = np.zeros(d)
            v[i] = 1.0
            assert verify_martingale(case.dist, case.inst, v) <= 1e-10
    _report("criterion 2 (martingale)", started)


def test_criterion_3_instrumentation_chain(tree_suite):
    started = time.monotonic()
    cases, _ = tree_suite
    for case in cases:
        d, n = case.inst.d, case.inst.n
        norms_sq = np.sum(case.vs ** 2, axis=0)
        assert np.all(case.proxies <= norms_sq[None, :] + 1e-8)
        basis_sums = case.proxies[:, :d].sum(axis=1)
        assert np.all(basis_sums <= case.blocks + 1e-8)
        assert np.all(case.blocks <= min(d, n))
        for lf in case.dist.leaves:
            assert direction_expansion_residual(case.inst, lf.trace,
                                                lf.ortho) <= 1e-8
    # the same chain on sampled runs of a larger instance
    inst = generate_instance("random_unit_sphere", 8, 8, 77)
    for r in range(200):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=7,
                                                           spawn_key=(r,)))
        trace = run_walk(inst, gen)
        dec = decompose(inst, trace)
        proxies = basis_variance_proxies(inst, dec)
        assert np.all(proxies <= 1 + 1e-8)
        assert proxies.sum() <= dec.total_nontrivial + 1e-8
        assert dec.total_nontrivial <= 8
        assert direction_expansion_residual(inst, trace, dec) <= 1e-8
    _report("criterion 3 (instrumentation chain)", started)


def test_criterion_4_existence_bound():
    started = time.monotonic()
    inst = generate_instance("identity", 4, 4, 0)
    dist = enumerate_walk(inst)
    probs = np.array([lf.probability for lf in dist.leaves])
    blocks = np.array([lf.ortho.total_nontrivial for lf in dist.leaves])
    max_z = np.array([basis_variance_proxies(inst, lf.ortho).max()
                      for lf in dist.leaves])
    assert float(probs @ blocks) == pytest.approx(4.0, abs=1e-12)
    assert float(probs @ max_z) == pytest.approx(1.0, abs=1e-9)
    bound = theorem1_bound(BoundInputs(min(float(probs @ max_z), 1.0),
                                       float(probs @ blocks)))
    assert bound == pytest.approx(2 * math.sqrt(2) * math.sqrt(math.log(4)),
                                  rel=1e-9)
    assert bound == pytest.approx(3.330, abs=5e-4)
    min_disc = min(float(np.abs(inst.matrix @ lf.signs).max())
                   for lf in dist.leaves)
    assert min_disc == 1.0 <= bound

    for seed in range(20):
        big = generate_instance("random_unit_sphere", 8, 8, 4000 + seed)
        stats = run_experiment(big, 10_000, 9000 + seed)
        bound, existence = estimate_bound(stats)
        assert existence, f"instance seed {4000 + seed}: bound {bound}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report("criterion 4 (existence bound)", started)


def test_criterion_5_conditional_increments(tree_suite):
    started = time.monotonic()
    cases, _ = tree_suite
    for case in cases:
        assert conditional_increment_check(case.dist) <= 1e-10
    _report("criterion 5 (conditional increments)", started)


def test_criterion_6_lemma1_grid():
    started = time.monotonic()
    assert lemma1_grid_min(step=0.01) >= -1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("criterion 6 (scalar inequality grid)", started)


def _mc_joint(mu, nu, s1, s2, eps, samples, seed):
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1_000_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        g = rng.standard_normal((m, 2))
        hits += int(np.sum(np.abs(s1 * g[:, 0] - mu)
                           + np.abs(s2 * g[:, 1] - nu) <= eps))
        done += m
    return hits / samples


def test_criterion_7_comparison_inequality():
    started = time.monotonic()
    rng = np.random.default_rng(2718)
    trials = 0
    while trials < 100:
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 10))
        x = rng.choice([-1.0, 1.0], n)
        y = rng.choice([-1.0, 1.0], n)
        dot = abs(float(x @ y))
        if dot > n / 2 or dot == n:
            continue
        row = rng.normal(0, 1 / math.sqrt(n), n)
        sigma = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.05, 1.0))
        ci = comparison_constant(row, x, y, sigma, d, n, eps)
        prod = product_rect_probability(row, x, y, sigma, d, n, eps)
        joint = joint_rect_probability(row, x, y, sigma, d, n, eps)
        assert joint <= ci * prod * (1 + 1e-6)
        trials += 1

    # quadrature validated against a 10^7-sample Monte Carlo oracle
    spot = [
        (np.zeros(8), np.array([1, 1, 1, 1, -1, -1, -1, -1.0]),
         np.array([1, 1, -1, -1, 1, 1, -1, -1.0]), 1.0, 4, 8, 1.0),
        (np.full(8, 0.1), np.array([1, 1, 1, 1, -1, -1, -1, -1.0]),
         np.array([1, 1, -1, -1, 1, 1, -1, -1.0]), 1.5, 4, 8, 0.8),
        (np.linspace(-0.3, 0.3, 6), np.array([1, 1, 1, -1, -1, -1.0]),
         np.array([1, -1, 1, -1, 1, -1.0]), 1.0, 3, 6, 0.5),
        (np.full(4, 0.2), np.array([1, 1, -1, -1.0]),
         np.array([1, -1, 1, -1.0]), 2.0, 2, 4, 1.2),
        (np.array([0.4, -0.2, 0.1, 0.0, 0.3, -0.1, 0.2, 0.0]),
         np.array([1, -1, 1, -1, 1, -1, 1, -1.0]),
         np.array([1, -1, 1, -1, 1, 1, -1, -1.0]), 1.2, 5, 8, 0.6),
    ]
    for i, (row, x, y, sigma, d, n, eps) in enumerate(spot):
        k = 0.25 * float(np.sum((x + y) ** 2))
        m1, m2 = float(row @ x), float(row @ y)
        s1 = sigma * math.sqrt(k / d)
        s2 = sigma * math.sqrt((n - k) / d)
        mu, nu = 0.5 * (m1 + m2), 0.5 * (m1 - m2)
        quad = joint_rect_probability(row, x, y, sigma, d, n, eps)
        mc = _mc_joint(mu, nu, s1, s2, eps, 10_000_000, 31_000 + i)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / 10_000_000)
        assert abs(quad - mc) <= 3 * se, f"spot case {i}: {quad} vs {mc}"
    _report("criterion 7 (comparison inequality)", started)


def test_criterion_8_tilted_distribution():
    started = time.monotonic()
    combos = list(itertools.product((2, 3, 4), (3, 4, 5, 6, 8)))
    rng = np.random.default_rng(515)
    for idx in range(20):
        d, n = combos[idx % len(combos)]
        inst = generate_instance("random_unit_sphere", d, n, 6000 + idx)
        sigma = (1.0, 1.5)[idx % 2]
        cutoff = (2.0, 3.0)[idx % 2]
        leaves = enumerate_walk(build_augmented(inst))
        tilted = tilt_distribution(leaves, inst, sigma, cutoff)

        assert abs(sum(tilted.tilted_p) - 1.0) <= 1e-12
        assert tilted.cutoff_mass >= 1 - 1 / cutoff - 1e-9

        radius = 2 * cutoff * tilted.half_variance
        w = 0.0
        for lf in leaves.leaves:
            s = float(np.sum((inst.matrix @ lf.signs) ** 2))
            if s <= radius * (1 + 1e-12) + 1e-300:
                w += lf.probability * math.exp(d * s / (2 * sigma ** 2 * n))
        assert abs(tilted.normalizer - w) <= 1e-12 * max(1.0, w)

        # subgaussian transfer to the sign coordinates of the augmented walk
        probs = np.array([lf.probability for lf in leaves.leaves])
        signs = np.array([lf.signs for lf in leaves.leaves])
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        e1 = np.zeros(n)
        e1[0] = 1.0
        for u in (e1, v):
            for lam in (0.5, 1.0, 2.0):
                moment = float(probs @ np.exp(lam * (signs @ u)))
                assert moment <= math.exp(lam * lam) + 1e-10
    _report("criterion 8 (tilted distribution)", started)


def test_criterion_9_oracle_equivalence():
    started = time.monotonic()
    inst = generate_instance("random_unit_sphere", 2, 4, 17)
    dist = enumerate_walk(inst)
    exact: dict[bytes, float] = {}
    for lf in dist.leaves:
        key = lf.signs.astype(np.int8).tobytes()
        exact[key] = exact.get(key, 0.0) + lf.probability
    runs = 100_000
    # the production sampler draws run r from the stream run_walk gets below
    stats = run_experiment(inst, runs, 99)
    for r, x in zip(stats.run_index[:2000].tolist(), stats.signs):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(r,)))
        assert x.tobytes() == run_walk(inst, gen).final_x.tobytes()
    signs = stats.signs.astype(np.int8)
    first, number = distinct_rows(signs)
    counts = dict(zip([row.tobytes() for row in signs[first]], np.bincount(number).tolist()))
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        se = math.sqrt(p * (1 - p) / runs)
        freq = counts.get(key, 0) / runs
        assert abs(freq - p) <= 3 * se + 1e-12, f"leaf {p} vs {freq}"
    _report("criterion 9 (oracle equivalence)", started)


def test_criterion_10_smoothed_sanity():
    started = time.monotonic()
    inst = generate_instance("random_unit_sphere", 4, 4, 21)
    leaves = enumerate_walk(build_augmented(inst))
    tilted = tilt_distribution(leaves, inst, 1.0, 2.0)

    def config(eps):
        return SmoothedConfig(sigma=1.0, kappa=32.0, cutoff_c=2.0,
                              epsilon=eps, r_trials=40, master_seed=11)

    frac, _ = outer_success_estimate(inst, tilted, config(inst.n + inst.d))
    assert frac == 1.0
    frac, _ = outer_success_estimate(inst, tilted, config(0.0))
    assert frac == 0.0

    pert = sample_perturbation(4, 4, 1.0, np.random.default_rng(2))
    grid = np.linspace(0.0, inst.n + 4.0, 10)
    vals = [inner_hit_probability(inst, pert, tilted, e) for e in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))

    # reference tolerance reproduced through the report
    eps10 = epsilon_of(1.0, 10, 32.0)
    assert eps10 == pytest.approx(0.15174, abs=1e-5)
    cfg10 = SmoothedConfig(sigma=1.0, kappa=32.0, cutoff_c=2.0,
                           epsilon=eps10, r_trials=1, master_seed=0)
    # enumeration is infeasible beyond small n; the report only consumes the
    # half-variance, bounded above by the expected block count <= d
    surrogate10 = TiltedDistribution(support=np.empty((0, 20)), base_p=np.empty(0),
                                     tilted_p=np.empty(0), normalizer=1.0,
                                     half_variance=10.0, cutoff_mass=1.0)
    report = admissibility_report(
        cfg10, generate_instance("sign_columns", 10, 20, 0), surrogate10)
    assert report["parameters"]["epsilon"] == pytest.approx(0.15174, abs=1e-5)

    # all six conditions with explicit margins at theorem scale
    d = 8
    kappa = 32.0
    n = round(kappa * d * math.log(d))
    big = generate_instance("sign_columns", d, n, 1)
    cfg = SmoothedConfig(sigma=1.0, kappa=kappa,
                         cutoff_c=max(2.0, math.log(d) ** 2),
                         epsilon=epsilon_of(1.0, d, kappa), r_trials=1,
                         master_seed=0)
    # enumeration is infeasible at this n; the report only consumes the
    # half-variance, bounded above by the expected block count <= d
    surrogate = TiltedDistribution(support=np.empty((0, n)), base_p=np.empty(0),
                                   tilted_p=np.empty(0), normalizer=1.0,
                                   half_variance=float(d), cutoff_mass=1.0)
    scale_report = admissibility_report(cfg, big, surrogate)
    assert len(scale_report["conditions"]) == 6
    for cond in scale_report["conditions"]:
        assert cond["sense"] in (">=", "<=")
        assert math.isfinite(cond["lhs"]) and math.isfinite(cond["rhs"])
        assert math.isfinite(cond["margin"])
        assert isinstance(cond["holds"], bool)
    _report("criterion 10 (smoothed pipeline sanity)", started)


def test_criterion_11_determinism(tmp_path):
    started = time.monotonic()
    inst = generate_instance("random_unit_sphere", 3, 5, 33)
    outs = []
    for _ in range(2):
        stats = run_experiment(inst, 300, 55)
        desc = {"d": 3, "n": 5, "kind": "random_unit_sphere", "seed": 55}
        report = build_report(inst, desc, stats, 55)
        outs.append((stats_to_csv(stats), report_to_json(report)))
    assert outs[0] == outs[1]

    from gswalk.cli import main
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    src = tmp_path / "inst.txt"
    main(["gen", "--kind", "random_unit_sphere", "--d", "2", "--n", "4",
          "--seed", "3", "--out", str(src)])
    for p in paths:
        assert main(["smoothed", "--instance", str(src), "--epsilon", "1.0",
                     "--r-trials", "15", "--seed", "8", "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report("criterion 11 (determinism)", started)
