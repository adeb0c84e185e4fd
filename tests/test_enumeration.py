import math

import numpy as np
import pytest

from gswalk import enumeration
from gswalk.enumeration import (brute_force_min_discrepancy,
                                conditional_increment_check, enumerate_walk,
                                exact_expectation, verify_martingale,
                                verify_subgaussian)
from gswalk.exceptions import DimensionError, DomainOverflowError
from gswalk.instances import generate_instance
from gswalk.ortho import decompose
from conftest import make_columns


class TestEnumerateWalk:
    def test_single_column(self):
        dist = enumerate_walk(make_columns([0.5, 0.0]))
        outcomes = sorted((lf.signs[0], lf.probability) for lf in dist.leaves)
        assert outcomes == [(-1.0, 0.5), (1.0, 0.5)]

    def test_identity_two(self):
        dist = enumerate_walk(generate_instance("identity", 2, 2, 0))
        assert len(dist.leaves) == 4
        assert all(lf.probability == pytest.approx(0.25, abs=1e-15)
                   for lf in dist.leaves)
        signs = {tuple(lf.signs) for lf in dist.leaves}
        assert signs == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_probabilities_sum_to_one(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 3, 6, seed)
            dist = enumerate_walk(inst)
            total = sum(lf.probability for lf in dist.leaves)
            assert abs(total + dist.pruned_mass - 1.0) <= 1e-12
            assert dist.pruned_mass <= 1e-12

    def test_leaves_replay(self):
        inst = generate_instance("random_unit_sphere", 2, 5, 3)
        dist = enumerate_walk(inst)
        for lf in dist.leaves:
            assert np.max(np.abs(lf.trace.replay() - lf.signs)) <= 1e-9

    def test_leaf_decomposition_built_on_first_read(self, monkeypatch):
        inst = generate_instance("random_unit_sphere", 3, 6, 2)
        calls = []

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(enumeration, "decompose", counting)
        dist = enumerate_walk(inst)
        assert calls == []
        first = dist.leaves[0]
        assert first.ortho is first.ortho
        assert len(calls) == 1
        for lf in dist.leaves:
            want = decompose(inst, lf.trace)
            got = lf.ortho
            assert np.array_equal(got.order, want.order)
            assert np.array_equal(got.directions, want.directions)
            assert got.blocks == want.blocks
            assert got.total_nontrivial == want.total_nontrivial
        assert len(calls) == len(dist.leaves)

    def test_branch_probability_forms(self):
        # leaf mass multiplies 1 - p_plus on - branches while the records keep
        # the sampled walk's dp/(dm+dp); the two differ in the last bit here
        inst = generate_instance("random_unit_sphere", 3, 7, 4)
        differ = 0
        for lf in enumerate_walk(inst).leaves:
            mass = 1.0
            for rec in lf.trace.steps:
                dm, dp = rec.delta_minus, rec.delta_plus
                p_plus = dm / (dm + dp)
                if rec.chosen_delta > 0:
                    mass *= p_plus
                    assert rec.choice_probability == p_plus
                else:
                    mass *= 1.0 - p_plus
                    assert rec.choice_probability == dp / (dm + dp)
                    differ += dp / (dm + dp) != 1.0 - p_plus
            assert lf.probability == mass
        assert differ > 0

    def test_depth_cap(self):
        inst = generate_instance("duplicated_column", 2, 17, 0)
        with pytest.raises(DimensionError):
            enumerate_walk(inst)

    def test_matches_sampled_law(self):
        # light oracle-equivalence check; the full one runs in acceptance
        inst = generate_instance("random_unit_sphere", 2, 3, 11)
        dist = enumerate_walk(inst)
        runs = 20_000
        counts: dict[tuple, int] = {}
        from gswalk.walk import run_walk
        for r in range(runs):
            gen = np.random.default_rng(
                np.random.SeedSequence(entropy=99, spawn_key=(r,)))
            key = tuple(run_walk(inst, gen).final_x)
            counts[key] = counts.get(key, 0) + 1
        exact: dict[tuple, float] = {}
        for lf in dist.leaves:
            key = tuple(lf.signs)
            exact[key] = exact.get(key, 0.0) + lf.probability
        for key, p in exact.items():
            se = math.sqrt(p * (1 - p) / runs)
            assert abs(counts.get(key, 0) / runs - p) <= 4 * se + 1e-9


class TestExactExpectation:
    def test_constant(self):
        dist = enumerate_walk(generate_instance("identity", 2, 2, 0))
        assert exact_expectation(dist, lambda lf: 1.0) == pytest.approx(1.0,
                                                                        abs=1e-15)

    def test_block_count_identity(self):
        dist = enumerate_walk(generate_instance("identity", 2, 2, 0))
        val = exact_expectation(dist, lambda lf: lf.ortho.total_nontrivial)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_duplicated_columns_cancel(self):
        inst = make_columns([1, 0], [1, 0])
        dist = enumerate_walk(inst)
        val = exact_expectation(
            dist, lambda lf: float(np.abs(inst.matrix @ lf.signs).max()))
        assert val == 0.0


class TestMartingale:
    def test_identity_exact_zero(self):
        inst = generate_instance("identity", 2, 2, 0)
        dist = enumerate_walk(inst)
        assert verify_martingale(dist, inst, [1.0, 0.0]) == 0.0

    def test_random_instance(self):
        inst = generate_instance("random_unit_sphere", 3, 5, 7)
        dist = enumerate_walk(inst)
        assert verify_martingale(dist, inst, [0.0, 1.0, 0.0]) <= 1e-10

    def test_zero_vector(self):
        inst = generate_instance("random_unit_sphere", 3, 4, 1)
        dist = enumerate_walk(inst)
        assert verify_martingale(dist, inst, np.zeros(3)) == 0.0


class TestSubgaussian:
    def test_lambda_zero(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 5)
        dist = enumerate_walk(inst)
        assert verify_subgaussian(dist, inst, [1.0, 0.0], 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_identity_hand_value(self):
        inst = generate_instance("identity", 2, 2, 0)
        dist = enumerate_walk(inst)
        val = verify_subgaussian(dist, inst, [1.0, 0.0], 1.0)
        expected = (math.exp(0.5) + math.exp(-1.5)) / 2.0
        assert val == pytest.approx(expected, rel=1e-12)
        assert val <= 1.0

    def test_exponent_out_of_range(self):
        inst = generate_instance("random_unit_sphere", 2, 4, 5)
        dist = enumerate_walk(inst)
        with pytest.raises(DomainOverflowError):
            verify_subgaussian(dist, inst, [1.0, 0.0], 1000.0)

    def test_random_matrix_of_cases(self):
        rng = np.random.default_rng(17)
        for seed in range(4):
            inst = generate_instance("random_unit_sphere", 2, 4, seed)
            dist = enumerate_walk(inst)
            dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            v = rng.standard_normal(2)
            dirs.append(v / np.linalg.norm(v))
            for v in dirs:
                for lam in (0.5, 1.0, 2.0):
                    assert verify_subgaussian(dist, inst, v, lam) <= 1 + 1e-10


class TestConditionalIncrements:
    def test_root_symmetric(self):
        inst = make_columns([0.5, 0.0])
        dist = enumerate_walk(inst)
        assert conditional_increment_check(dist) <= 1e-15

    def test_random_instances(self):
        for seed in range(5):
            inst = generate_instance("random_unit_sphere", 3, 5, seed)
            dist = enumerate_walk(inst)
            assert conditional_increment_check(dist) <= 1e-10


class TestBruteForce:
    def test_identity(self):
        for n in (2, 3, 4):
            inst = generate_instance("identity", n, n, 0)
            val, signs = brute_force_min_discrepancy(inst)
            assert val == 1.0
            assert np.all(np.abs(signs) == 1.0)

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        val, signs = brute_force_min_discrepancy(inst)
        assert val == 0.0
        assert list(signs) == [-1.0, 1.0]

    def test_oblique_pair(self):
        inst = make_columns([1, 0], [0.5, math.sqrt(3) / 2])
        val, signs = brute_force_min_discrepancy(inst)
        assert val == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
        # the optimum is attained at +-(1, -1); the lexicographically
        # smallest of the two minimizers is (-1, 1)
        assert np.abs(inst.matrix @ signs).max() == pytest.approx(val, rel=1e-12)
        assert list(signs) == [-1.0, 1.0]

    def test_walk_support_never_beats_optimum(self):
        for seed in range(5):
            inst = generate_instance("random_unit_sphere", 3, 6, seed)
            opt, _ = brute_force_min_discrepancy(inst)
            dist = enumerate_walk(inst)
            leaf_min = min(float(np.abs(inst.matrix @ lf.signs).max())
                           for lf in dist.leaves)
            assert opt <= leaf_min + 1e-12

    def test_size_guard(self):
        inst = generate_instance("duplicated_column", 2, 21, 0)
        with pytest.raises(DimensionError):
            brute_force_min_discrepancy(inst)
