import dataclasses
import math
from decimal import Decimal, getcontext
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from gswalk import smoothed
from gswalk.enumeration import enumerate_walk
from gswalk.exceptions import (ContractViolationError, DegeneratePairError,
                               ParameterError)
from gswalk.instances import Instance, generate_instance
from gswalk.smoothed import (SmoothedConfig, TiltedDistribution,
                             admissibility_report, base_law, build_augmented,
                             comparison_constant, cube_gaussian_measure,
                             epsilon_of, inner_hit_probability,
                             joint_rect_probability, outer_success_estimate,
                             product_rect_probability, sample_perturbation,
                             tilt_distribution, verify_comparison,
                             wilson_interval)


def tilted_for(inst, sigma=1.0, cutoff=2.0):
    leaves = enumerate_walk(build_augmented(inst))
    return leaves, tilt_distribution(leaves, inst, sigma, cutoff)


class TestAugmented:
    def test_zero_matrix(self):
        inst = Instance(np.zeros((2, 2)))
        aug = build_augmented(inst)
        assert aug.d == 4 and aug.n == 2
        expected = np.vstack([np.zeros((2, 2)), np.eye(2)]) / math.sqrt(2)
        assert np.allclose(aug.matrix, expected, atol=1e-15)
        assert np.allclose(np.linalg.norm(aug.matrix, axis=0),
                           1 / math.sqrt(2))

    def test_unit_columns(self):
        inst = generate_instance("random_unit_sphere", 3, 4, 0)
        aug = build_augmented(inst)
        assert np.allclose(np.linalg.norm(aug.matrix, axis=0), 1.0,
                           atol=1e-12)

    def test_dimensions(self):
        inst = generate_instance("random_in_ball", 3, 5, 1)
        assert build_augmented(inst).matrix.shape == (8, 5)


class TestTiltedDistribution:
    def test_zero_matrix_is_base_law(self):
        inst = Instance(np.zeros((2, 3)))
        leaves, tilted = tilted_for(inst)
        assert tilted.half_variance == 0.0
        assert tilted.cutoff_mass == pytest.approx(1.0, abs=1e-12)
        assert tilted.normalizer == pytest.approx(1.0, abs=1e-12)
        base = {x.tobytes(): p for x, p in zip(*base_law(leaves))}
        for x, bp, tp in zip(tilted.support, tilted.base_p, tilted.tilted_p):
            assert tp == pytest.approx(base[x.tobytes()], abs=1e-12)
            assert bp == pytest.approx(base[x.tobytes()], abs=1e-15)

    def test_law_of_another_n_refused(self):
        leaves = enumerate_walk(build_augmented(generate_instance("identity", 4, 4, 0)))
        with pytest.raises(ContractViolationError, match="disagree on n"):
            tilt_distribution(leaves, generate_instance("identity", 5, 5, 0), 1.0, 2.0)

    def test_masses_sum_to_one(self):
        for seed in range(4):
            inst = generate_instance("random_unit_sphere", 2, 4, seed)
            _, tilted = tilted_for(inst, sigma=1.5, cutoff=3.0)
            total = sum(tilted.tilted_p)
            assert abs(total - 1.0) <= 1e-12

    def test_support_inside_cutoff_set(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 7)
        _, tilted = tilted_for(inst, cutoff=1.5)
        radius = 2 * 1.5 * tilted.half_variance
        for x in tilted.support:
            assert np.sum((inst.matrix @ x) ** 2) <= radius + 1e-9

    def test_markov_cutoff_mass(self):
        for cutoff in (1.5, 2.0, 4.0):
            inst = generate_instance("random_unit_sphere", 3, 5, 3)
            _, tilted = tilted_for(inst, cutoff=cutoff)
            assert tilted.cutoff_mass >= 1 - 1 / cutoff - 1e-9

    @pytest.mark.parametrize("case", [(4, 4, 7), (3, 6, 2), (4, 8, 2), (2, 10, 3)],
                             ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}")
    def test_cutoff_mass_at_most_one(self, case):
        # the cutoff set is the whole support, whose masses sum past 1 by roundoff
        _, tilted = tilted_for(generate_instance("random_unit_sphere", *case), cutoff=1e6)
        assert float(sum(tilted.base_p)) > 1.0
        assert tilted.cutoff_mass == 1.0

    def test_huge_sigma_is_conditioned_base_law(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 5)
        leaves, tilted = tilted_for(inst, sigma=1e9, cutoff=2.0)
        conditioned = {x.tobytes(): bp / tilted.cutoff_mass
                       for x, bp in zip(tilted.support, tilted.base_p)}
        tv = 0.5 * sum(abs(tp - conditioned[x.tobytes()])
                       for x, tp in zip(tilted.support, tilted.tilted_p))
        assert tv <= 1e-9

    def test_normalizer_double_entry(self):
        # recompute W by direct summation over raw leaves
        inst = generate_instance("random_unit_sphere", 2, 4, 9)
        sigma, cutoff = 1.3, 2.5
        leaves, tilted = tilted_for(inst, sigma=sigma, cutoff=cutoff)
        radius = 2 * cutoff * tilted.half_variance
        w = 0.0
        for lf in leaves.leaves:
            s = float(np.sum((inst.matrix @ lf.signs) ** 2))
            if s <= radius * (1 + 1e-12):
                w += lf.probability * math.exp(
                    inst.d * s / (2 * sigma * sigma * inst.n))
        assert tilted.normalizer == pytest.approx(w, abs=1e-12)

    def test_variance_within_block_count_bound(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 2)
        leaves, tilted = tilted_for(inst)
        e_blocks = sum(lf.probability * lf.ortho.total_nontrivial
                       for lf in leaves.leaves)
        assert 2 * tilted.half_variance <= 2 * e_blocks + 1e-9


@lru_cache(maxsize=1)
def augmented_leaves(kind, d, n, seed):
    inst = generate_instance(kind, d, n, seed)
    return inst, enumerate_walk(build_augmented(inst))


def reference_tilt(leaves, inst, sigma, cutoff_c):
    """The bytes-keyed dict and tuple loops the array form replaced."""
    agg = {}
    for lf in leaves.leaves:
        key = lf.signs.astype(np.int8).tobytes()
        if key in agg:
            agg[key] = (agg[key][0], agg[key][1] + lf.probability)
        else:
            agg[key] = (lf.signs.copy(), lf.probability)
    law = list(agg.values())
    d, n = inst.d, inst.n
    sq_norms = [float(np.sum((inst.matrix @ x) ** 2)) for x, _ in law]
    two_v = sum(p * s for (_, p), s in zip(law, sq_norms))
    radius = cutoff_c * two_v
    support = []
    normalizer = 0.0
    cutoff_mass = 0.0
    for (x, p), s in zip(law, sq_norms):
        if s <= radius * (1.0 + 1e-12) + 1e-300:
            weight = math.exp(d * s / (2.0 * sigma * sigma * n))
            support.append((x, p, p * weight))
            normalizer += p * weight
            cutoff_mass += p
    support = [(x, p, tp / normalizer) for x, p, tp in support]
    return len(law), support, normalizer, 0.5 * two_v, cutoff_mass


class TestArrayLawMatchesReference:
    # both instances have leaves that share a sign vector
    @pytest.mark.parametrize("case, sizes, sigma, cutoff, kept", [
        (("random_unit_sphere", 4, 12, 1), (4096, 2734), 1.0, 2.0, 1496),
        (("random_unit_sphere", 4, 12, 1), (4096, 2734), 1.5, 1.3, 794),
        (("sign_columns", 3, 6, 1), (64, 56), 1.0, 2.0, 50),
    ])
    def test_bitwise(self, case, sizes, sigma, cutoff, kept):
        inst, leaves = augmented_leaves(*case)
        distinct, support, normalizer, half_variance, cutoff_mass = \
            reference_tilt(leaves, inst, sigma, cutoff)
        assert (len(leaves.leaves), distinct) == sizes
        tilted = tilt_distribution(leaves, inst, sigma, cutoff)
        assert len(tilted.support) == len(support) == kept < distinct
        assert tilted.support.tobytes() == np.array([x for x, _, _ in support]).tobytes()
        assert tilted.base_p.tobytes() == np.array([p for _, p, _ in support]).tobytes()
        assert tilted.tilted_p.tobytes() == np.array([tp for _, _, tp in support]).tobytes()
        assert tilted.normalizer == normalizer
        assert tilted.half_variance == half_variance
        assert tilted.cutoff_mass == cutoff_mass

        grid = [0.0, epsilon_of(sigma, inst.d, 32.0), *np.linspace(0.25, 3.0, 12)]
        positive = 0
        for i in range(200):
            pert = sample_perturbation(inst.d, inst.n, sigma, np.random.default_rng(i))
            m = inst.matrix + pert
            reach = [np.abs(m @ x).max() for x, _, _ in support]
            for eps in grid:
                ref = float(sum(tp for (_, _, tp), r in zip(support, reach) if r <= eps))
                got = inner_hit_probability(inst, pert, tilted, eps)
                # the masked sum may add in another order; the hit set is the same
                assert (got > 0.0) == (ref > 0.0)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
                positive += ref > 0.0
        assert 0 < positive < 200 * len(grid)


class TestPerturbation:
    def test_moments(self):
        rng = np.random.default_rng(0)
        sigma, d = 2.0, 4
        sample = sample_perturbation(d, 250_000, sigma, rng)
        entries = sample.ravel()
        assert entries.size == 1_000_000
        scale = sigma / math.sqrt(d)
        assert abs(entries.mean()) <= 3 * scale / 1000
        assert abs(entries.var() - sigma * sigma / d) <= 0.01 * sigma * sigma / d

    def test_deterministic(self):
        a = sample_perturbation(3, 4, 1.0, np.random.default_rng(5))
        b = sample_perturbation(3, 4, 1.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            sample_perturbation(2, 2, 0.0, np.random.default_rng(0))


class TestInnerOuter:
    def setup_method(self):
        self.inst = generate_instance("random_unit_sphere", 4, 4, 21)
        _, self.tilted = tilted_for(self.inst)

    def config(self, eps, trials=40, seed=11, sigma=1.0):
        return SmoothedConfig(sigma=sigma, kappa=32.0, cutoff_c=2.0,
                              epsilon=eps, r_trials=trials, master_seed=seed)

    def test_inner_enormous_epsilon(self):
        pert = sample_perturbation(4, 4, 1.0, np.random.default_rng(3))
        eps = self.inst.n + self.inst.d * 1.0
        assert inner_hit_probability(self.inst, pert, self.tilted, eps) == 1.0

    @pytest.mark.parametrize("case", [(4, 4, 0), (3, 6, 9), (4, 8, 1), (2, 10, 3)],
                             ids=lambda c: f"{c[0]}x{c[1]}-{c[2]}")
    def test_inner_all_hit_at_most_one(self, case):
        # every point hits, and the tilted masses sum past 1 by roundoff
        d, n, seed = case
        inst = generate_instance("random_unit_sphere", d, n, seed)
        _, tilted = tilted_for(inst)
        assert float(tilted.tilted_p.sum()) > 1.0
        assert inner_hit_probability(inst, np.zeros((d, n)), tilted, 1e9) == 1.0

    def test_inner_zero_epsilon(self):
        pert = sample_perturbation(4, 4, 1.0, np.random.default_rng(3))
        assert inner_hit_probability(self.inst, pert, self.tilted, 0.0) == 0.0

    def test_inner_monotone(self):
        pert = sample_perturbation(4, 4, 1.0, np.random.default_rng(8))
        grid = np.linspace(0.0, self.inst.n + 4.0, 10)
        vals = [inner_hit_probability(self.inst, pert, self.tilted, e)
                for e in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_outer_extremes(self):
        frac, _ = outer_success_estimate(
            self.inst, self.tilted, self.config(self.inst.n + 4.0))
        assert frac == 1.0
        frac, (lo, hi) = outer_success_estimate(
            self.inst, self.tilted, self.config(0.0))
        assert frac == 0.0 and lo == pytest.approx(0.0, abs=1e-12)

    def test_outer_reproducible_and_consistent(self):
        cfg = self.config(1.2, trials=60, seed=4)
        a = outer_success_estimate(self.inst, self.tilted, cfg)
        b = outer_success_estimate(self.inst, self.tilted, cfg)
        assert a == b
        other = outer_success_estimate(self.inst, self.tilted,
                                       self.config(1.2, trials=60, seed=5))
        # Wilson intervals of the two seeds overlap
        assert a[1][0] <= other[1][1] and other[1][0] <= a[1][1]

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo > 0.9

    @pytest.mark.parametrize("trials", [1, 3, 50, 300, 10_000])
    def test_wilson_low_end_exact_without_successes(self, trials):
        lo, hi = wilson_interval(0, trials)
        assert lo == 0.0 and 0.0 < hi < 1.0

    @pytest.mark.parametrize("trials", [1, 3, 50, 300, 10_000])
    def test_wilson_high_end_exact_without_failures(self, trials):
        lo, hi = wilson_interval(trials, trials)
        assert hi == 1.0 and 0.0 < lo < 1.0

    def test_wilson_interval_inside_unit_range(self):
        for trials in (1, 2, 7, 300):
            for hits in range(trials + 1):
                lo, hi = wilson_interval(hits, trials)
                assert 0.0 <= lo <= hits / trials <= hi <= 1.0


class TestEpsilonOf:
    def test_reference_value(self):
        assert epsilon_of(1.0, 10, 32.0) == pytest.approx(0.15174, abs=1e-5)

    def test_linear_in_sigma(self):
        assert epsilon_of(2.0, 10, 32.0) == 2 * epsilon_of(1.0, 10, 32.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_of(1.0, 1, 32.0)

    @pytest.mark.parametrize("kappa", [0.5, -100000.0, -math.inf])
    def test_kappa_below_one_rejected(self, kappa):
        with pytest.raises(ParameterError):
            epsilon_of(1.0, 4, kappa)

    def test_large_kappa_underflows_to_zero(self):
        assert epsilon_of(1.0, 4, 1e6) == 0.0


class TestComparisonConstant:
    def test_orthogonal_pair_is_one(self):
        x = np.array([1, 1, -1, -1.0])
        y = np.array([1, -1, 1, -1.0])
        row = np.array([0.3, -0.2, 0.1, 0.4])
        assert comparison_constant(row, x, y, 1.5, 3, 4, 0.7) == pytest.approx(
            1.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 8
            x = rng.choice([-1.0, 1.0], n)
            y = rng.choice([-1.0, 1.0], n)
            if abs(x @ y) == n:
                continue
            row = rng.standard_normal(n)
            a = comparison_constant(row, x, y, 1.2, 4, n, 0.5)
            b = comparison_constant(row, y, x, 1.2, 4, n, 0.5)
            assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_pair(self):
        x = np.ones(4)
        with pytest.raises(DegeneratePairError):
            comparison_constant(np.zeros(4), x, x, 1.0, 2, 4, 0.5)
        with pytest.raises(DegeneratePairError):
            comparison_constant(np.zeros(4), x, -x, 1.0, 2, 4, 0.5)

    def test_double_entry_high_precision(self):
        # independent recomputation with 50-digit decimal arithmetic
        getcontext().prec = 50
        rng = np.random.default_rng(12)
        n, d, sigma, eps = 8, 4, 1.5, 0.4
        x = np.array([1, 1, 1, -1, -1, 1, -1, 1.0])
        y = np.array([1, 1, 1, 1, 1, -1, 1, -1.0])    # agrees at 3 positions
        assert 0.25 * np.sum((x + y) ** 2) == 3.0
        row = rng.normal(0, 1 / math.sqrt(n), n)
        val = comparison_constant(row, x, y, sigma, d, n, eps)
        k = Decimal(3)
        nn = Decimal(n)
        m1 = Decimal(float(row @ x))
        m2 = Decimal(float(row @ y))
        e = Decimal(eps)
        scale = Decimal(d) / (2 * nn * Decimal(sigma) ** 2 * max(k, nn - k))
        pref = nn / (2 * (k * (nn - k)).sqrt())
        tilt = (scale * abs(nn - 2 * k) * (e * (abs(m1) + abs(m2)) + e * e)).exp()
        cross = (-scale * (nn - 2 * k) * m1 * m2).exp()
        ref = float(pref * tilt * cross)
        assert val == pytest.approx(ref, rel=1e-12)


class TestRectProbabilities:
    def case(self, seed=123):
        rng = np.random.default_rng(seed)
        n, d = 8, 4
        x = np.array([1, 1, 1, -1, -1, 1, -1, 1.0])
        y = np.array([1, -1, 1, 1, -1, 1, -1, -1.0])
        row = rng.normal(0, 1 / math.sqrt(n), n)
        return row, x, y, 1.5, d, n

    def test_joint_zero_epsilon(self):
        row, x, y, sigma, d, n = self.case()
        assert joint_rect_probability(row, x, y, sigma, d, n, 0.0) == 0.0

    def test_joint_full_mass(self):
        row, x, y, sigma, d, n = self.case()
        eps = 1e3 * sigma * math.sqrt(n / d) + abs(row @ x) + abs(row @ y)
        assert joint_rect_probability(row, x, y, sigma, d, n, eps) == pytest.approx(
            1.0, abs=1e-8)

    def test_joint_margins_past_reach_are_zero(self):
        # the mean sits far more than 12 standard deviations beyond epsilon
        row, x, y, sigma, d, n = self.case()
        assert joint_rect_probability(10.0 * x, x, y, sigma, d, n, 0.5) == 0.0
        assert joint_rect_probability(-10.0 * x, x, y, sigma, d, n, 0.5) == 0.0

    def test_joint_one_panel_off_zero(self):
        # row along the overlap (x + y)/2 puts mu = 15 sd and nu = 0, so the
        # clipped a-range [-27 sd, -3 sd] excludes 0 and is one panel
        _, x, y, sigma, d, n = self.case()
        k = 0.25 * float(np.sum((x + y) ** 2))
        s1 = sigma * math.sqrt(k / d)
        row = 15.0 * s1 / k * (x + y) / 2
        val = joint_rect_probability(row, x, y, sigma, d, n, 1e6)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_joint_against_monte_carlo(self):
        # symmetric case m1 = m2 = 0, k = n/2
        n, d, sigma, eps = 8, 4, 1.0, 1.0
        x = np.array([1, 1, 1, 1, -1, -1, -1, -1.0])
        y = np.array([1, 1, -1, -1, 1, 1, -1, -1.0])
        row = np.zeros(n)
        val = joint_rect_probability(row, x, y, sigma, d, n, eps)
        rng = np.random.default_rng(77)
        a = sigma * math.sqrt(n / (2 * d))
        samples = 2_000_000
        g = rng.standard_normal((samples, 2))
        hits = np.abs(a * g[:, 0]) + np.abs(a * g[:, 1]) <= eps
        p_hat = hits.mean()
        se = math.sqrt(p_hat * (1 - p_hat) / samples)
        assert abs(val - p_hat) <= 3 * se

    def test_joint_degenerate(self):
        row, x, y, sigma, d, n = self.case()
        with pytest.raises(DegeneratePairError):
            joint_rect_probability(row, x, x, sigma, d, n, 0.5)

    def test_quadrature_rule_built_once_read_only(self):
        rule = smoothed._gauss_legendre()
        assert smoothed._gauss_legendre() is rule
        want = leggauss(smoothed.QUAD_POINTS)
        for got, ref in zip(rule, want, strict=True):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0

    def test_product_zero_epsilon(self):
        row, x, y, sigma, d, n = self.case()
        assert product_rect_probability(row, x, y, sigma, d, n, 0.0) == 0.0

    def test_product_reference_value(self):
        n, d, sigma = 8, 2, 1.2
        x = np.ones(n)
        y = np.concatenate([np.ones(4), -np.ones(4)])
        row = np.zeros(n)
        eps = sigma * math.sqrt(n / d)
        val = product_rect_probability(row, x, y, sigma, d, n, eps)
        assert val == pytest.approx(math.erf(1 / math.sqrt(2)) ** 2, rel=1e-12)

    def test_product_swap_symmetric(self):
        row, x, y, sigma, d, n = self.case()
        a = product_rect_probability(row, x, y, sigma, d, n, 0.6)
        b = product_rect_probability(row, y, x, sigma, d, n, 0.6)
        assert a == pytest.approx(b, rel=1e-14)

    def test_verify_comparison_orthogonal(self):
        n, d = 8, 4
        x = np.array([1, 1, 1, 1, -1, -1, -1, -1.0])
        y = np.array([1, 1, -1, -1, 1, 1, -1, -1.0])
        rng = np.random.default_rng(5)
        row = rng.normal(0, 0.3, n)
        for eps in (0.2, 0.7, 2.0):
            ci = comparison_constant(row, x, y, 1.0, d, n, eps)
            slack = verify_comparison(row, x, y, 1.0, d, n, eps)
            assert ci == pytest.approx(1.0, rel=1e-14)
            assert slack >= -1e-6

    def test_verify_comparison_one_flip(self):
        rng = np.random.default_rng(6)
        n, d = 6, 3
        x = rng.choice([-1.0, 1.0], n)
        y = x.copy()
        y[2] = -y[2]                      # k = n - 1
        row = rng.normal(0, 0.4, n)
        assert verify_comparison(row, x, y, 1.3, d, n, 0.5) >= -1e-6

    def test_verify_comparison_is_relative_slack(self):
        row, x, y, sigma, d, n = self.case()
        ci = comparison_constant(row, x, y, sigma, d, n, 0.4)
        prod = product_rect_probability(row, x, y, sigma, d, n, 0.4)
        joint = joint_rect_probability(row, x, y, sigma, d, n, 0.4)
        assert (verify_comparison(row, x, y, sigma, d, n, 0.4)
                == (ci * prod - joint) / (ci * prod))


class TestCubeMeasure:
    def test_large_radius(self):
        assert cube_gaussian_measure(40.0, 5) == pytest.approx(1.0, abs=1e-15)

    def test_one_dimensional(self):
        assert cube_gaussian_measure(1.0, 1) == pytest.approx(0.682689, abs=1e-6)

    def test_product_structure(self):
        assert cube_gaussian_measure(1.0, 2) == pytest.approx(
            cube_gaussian_measure(1.0, 1) ** 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            cube_gaussian_measure(0.0, 3)


class TestAdmissibility:
    def config(self, eps, sigma=1.0, cutoff=2.0):
        return SmoothedConfig(sigma=sigma, kappa=32.0, cutoff_c=cutoff,
                              epsilon=eps, r_trials=1, master_seed=0)

    def test_identity_aspect_ratio_fails(self):
        inst = generate_instance("identity", 4, 4, 0)
        _, tilted = tilted_for(inst)
        report = admissibility_report(self.config(0.1), inst, tilted)
        (cond,) = [c for c in report["conditions"] if c["name"] == "aspect_ratio"]
        assert cond["holds"] is False
        assert cond["lhs"] == 1.0

    def test_zero_matrix_reports_all_conditions(self):
        inst = Instance(np.zeros((2, 3)))
        _, tilted = tilted_for(inst)
        report = admissibility_report(self.config(50.0), inst, tilted)
        names = [c["name"] for c in report["conditions"]]
        assert names == ["gaussian_cube_mass", "second_moment_scale",
                         "aspect_ratio", "epsilon_upper_variance",
                         "epsilon_upper_scale", "epsilon_lower"]
        for c in report["conditions"]:
            assert set(c) == {"name", "lhs", "rhs", "sense", "holds", "margin"}
            # an infinite bound (no variance) is written as None, margin too
            assert (c["rhs"] is None) == (c["margin"] is None)
            assert c["margin"] is None or math.isfinite(c["margin"])
        assert any(c["rhs"] is None for c in report["conditions"])

    def test_zero_radius_has_no_cube_mass(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 1)
        _, tilted = tilted_for(inst)
        report = admissibility_report(self.config(0.0), inst, tilted)
        cond = report["conditions"][0]
        assert cond["name"] == "gaussian_cube_mass"
        assert cond["lhs"] == 0.0 and cond["holds"] is False
        assert report["all_hold"] is False

    @pytest.mark.parametrize("field, value", [("cutoff_c", 1.0), ("epsilon", -0.1),
                                              ("r_trials", 0)])
    def test_config_refuses_out_of_range(self, field, value):
        with pytest.raises(ParameterError):
            dataclasses.replace(self.config(0.1), **{field: value})

    @pytest.mark.parametrize("sigma", [1e155, 1e200])
    def test_config_rejects_overflowing_sigma(self, sigma):
        with pytest.raises(ParameterError):
            self.config(0.1, sigma=sigma)

    def test_parameters_echoed(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 1)
        _, tilted = tilted_for(inst)
        report = admissibility_report(self.config(0.3), inst, tilted)
        params = report["parameters"]
        assert params["d"] == 2 and params["n"] == 4
        assert params["epsilon"] == 0.3
        assert params["half_variance"] == tilted.half_variance
        assert report["all_hold"] == all(c["holds"]
                                         for c in report["conditions"])
