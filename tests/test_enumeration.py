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
from gswalk.ortho import decompose, variance_proxy
from conftest import make_columns

SHARING_CASES = [("random_unit_sphere", 3, 7, 4), ("sign_columns", 3, 8, 2),
                 ("duplicated_column", 3, 7, 1), ("random_in_ball", 4, 9, 3)]


def freeze_sequence(lf):
    return tuple((rec.pivot, tuple(rec.frozen)) for rec in lf.trace.steps)


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
        # one decomposition per distinct freeze sequence, not one per leaf
        assert len(calls) == len({freeze_sequence(lf) for lf in dist.leaves})

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_shared_decompositions_equal_per_leaf(self, case):
        inst = generate_instance(*case)
        for lf in enumerate_walk(inst).leaves:
            got, want = lf.ortho, decompose(inst, lf.trace)
            assert np.array_equal(got.order, want.order)
            assert np.array_equal(got.position, want.position)
            assert np.array_equal(got.directions, want.directions)
            assert got.pivot_phases == want.pivot_phases
            assert list(got.blocks.items()) == list(want.blocks.items())
            assert got.block_counts == want.block_counts
            assert got.total_nontrivial == want.total_nontrivial

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_equal_freeze_sequences_share_one_decomposition(self, case):
        dist = enumerate_walk(generate_instance(*case))
        groups: dict[tuple, list] = {}
        for lf in dist.leaves:
            groups.setdefault(freeze_sequence(lf), []).append(lf)
        assert len(groups) < len(dist.leaves)
        for members in groups.values():
            assert all(lf.ortho is members[0].ortho for lf in members)
        assert len({id(lf.ortho) for lf in dist.leaves}) == len(groups)

    def test_enumerations_do_not_share_decompositions(self):
        inst = generate_instance("random_unit_sphere", 3, 6, 2)
        first, second = enumerate_walk(inst), enumerate_walk(inst)
        assert first.leaves[0].ortho is not second.leaves[0].ortho

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

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_one_proxy_per_decomposition(self, case, monkeypatch):
        inst = generate_instance(*case)
        v = np.linspace(1.0, -0.5, inst.d)
        dist = enumerate_walk(inst)
        # reference: each leaf decomposed and its proxy computed on its own
        want = exact_expectation(dist, lambda lf: math.exp(
            0.7 * float(inst.matrix @ lf.signs @ v)
            - 0.5 * 0.7 * 0.7 * variance_proxy(inst, decompose(inst, lf.trace), v)))
        calls = []

        def counting(*args):
            calls.append(args)
            return variance_proxy(*args)

        monkeypatch.setattr(enumeration, "variance_proxy", counting)
        assert verify_subgaussian(dist, inst, v, 0.7) == want
        assert len(calls) == len({freeze_sequence(lf) for lf in dist.leaves})

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

    @staticmethod
    def regrouped(dist):
        """Reference: regroup the leaves by prefix, one member list per node."""
        groups: dict[tuple[bool, ...], list] = {}
        for lf in dist.leaves:
            for depth in range(len(lf.choices)):
                groups.setdefault(lf.choices[:depth], []).append(lf)
        worst = 0.0
        for prefix, members in groups.items():
            depth = len(prefix)
            rep = members[0].trace
            x = np.zeros(dist.n)
            for rec in rep.steps[:depth]:
                x = x + rec.chosen_delta * rec.u
            pivot = rep.steps[depth].pivot
            z = float(x[pivot])
            total = sum(lf.probability for lf in members)
            plus = sum(lf.probability for lf in members if lf.signs[pivot] > 0)
            p_plus = plus / total
            worst = max(worst, abs(p_plus - (1.0 + z) / 2.0))
            mean_move = p_plus * (1.0 - z) + (1.0 - p_plus) * (-1.0 - z)
            worst = max(worst, abs(mean_move))
        return worst

    @pytest.mark.parametrize("case", SHARING_CASES + [
        ("random_unit_sphere", 3, 5, seed) for seed in range(5)] + [
        ("random_unit_sphere", 2, 8, 5), ("identity", 3, 3, 0)],
        ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}-{c[3]}")
    @pytest.mark.parametrize("law", ["exact", "perturbed", "pruned"])
    def test_node_runs_bitwise_equal_regrouping(self, case, law):
        dist = enumerate_walk(generate_instance(*case))
        if law != "exact":
            # a law that breaks the two-point form by O(0.1), so the worst
            # node and its sums decide the result, not roundoff alone
            factors = np.random.default_rng(5).uniform(0.8, 1.2, len(dist.leaves))
            for lf, f in zip(dist.leaves, factors):
                lf.probability *= float(f)
        if law == "pruned":
            # drop a - subtree and a + subtree, as pruning does, so that
            # some nodes keep only one child, and all but one leaf below
            # the node (False, True)
            lone = [lf for lf in dist.leaves if lf.choices[:2] == (False, True)][:1]
            dist.leaves = [lf for lf in dist.leaves if lf in lone or (
                lf.choices[:2] not in ((True, False), (False, True))
                and lf.choices[:3] != (False, False, True))]
        got = conditional_increment_check(dist)
        assert got.hex() == self.regrouped(dist).hex()


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
