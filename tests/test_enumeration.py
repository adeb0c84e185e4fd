import builtins
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswalk import enumeration, walk
from gswalk.enumeration import (brute_force_min_discrepancy,
                                conditional_increment_check, enumerate_walk,
                                verify_martingale, verify_subgaussian)
from gswalk.exceptions import (ContractViolationError, DimensionError,
                               DomainOverflowError)
from gswalk.inequalities import PROXY_SLACK
from gswalk.instances import EXP_LIMIT, Instance, generate_instance
from gswalk.ortho import (basis_variance_proxies, decompose, decompose_stack,
                          variance_proxy, variance_proxy_batch)
from gswalk.smoothed import base_law, build_augmented, tilt_distribution
from gswalk.walk import WalkState
from conftest import make_columns
from helpers import choices, freeze_row, replay

SHARING_CASES = [("random_unit_sphere", 3, 7, 4), ("sign_columns", 3, 8, 2),
                 ("duplicated_column", 3, 7, 1), ("random_in_ball", 4, 9, 3)]


def freeze_sequence(lf):
    return tuple((rec.pivot, tuple(rec.frozen)) for rec in lf.trace.steps)


FAMILIES = ("plain", "rank_deficient", "duplicate_columns", "mixed_scale", "d1")


def family_instance(family: str, seed: int) -> Instance:
    """A small instance of one degenerate family, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    d = 1 if family == "d1" else int(rng.integers(2, 5))
    if family == "rank_deficient":
        m = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, n))
    elif family == "duplicate_columns":
        # equal and opposite columns freeze together
        base = rng.standard_normal((d, max(1, n // 2)))
        m = base[:, rng.integers(0, base.shape[1], n)] * rng.choice([-1.0, 1.0], n)
    else:
        m = rng.standard_normal((d, n))
    m = m / np.linalg.norm(m, axis=0)
    if family == "mixed_scale":
        m = m * 10.0 ** rng.uniform(-12, 0, n)
    return Instance(m)


def uncached_enumeration(inst):
    """Reference descent: every node solves its own direction and steps by
    ``walk.apply_step``.  Returns the leaves as (probability, signs, steps),
    the pruned mass and the (depth, active set) of every expanded internal
    node."""
    leaves, actives, pruned = [], [], [0.0]

    def descend(state, steps, prob):
        if not state.active.size:
            leaves.append((prob, state.x, steps))
            return
        actives.append((state.t, state.active.tobytes()))
        u = walk.min_norm_direction(inst, state.active, state.pivot)
        dm, dp = walk.feasible_interval(state.x, u)
        p_plus = dm / (dm + dp)
        for take_plus in (True, False):
            p_branch = prob * (p_plus if take_plus else 1.0 - p_plus)
            if p_branch < enumeration.PRUNE_TOL:
                pruned[0] += p_branch
                continue
            # the - branch records dp/(dm+dp), as the sampled walk does
            chosen, p = (dp, p_plus) if take_plus else (-dm, dp / (dm + dp))
            nxt, rec = walk.apply_step(state, u, chosen, dm, dp, p)
            descend(nxt, steps + [rec], p_branch)

    descend(WalkState.initial(inst.n), [], 1.0)
    return leaves, pruned[0], actives


def per_leaf_expectation(dist, f):
    """Reference: p(leaf) * f(leaf) over the leaf views, summed left to right
    in decreasing-probability order."""
    ordered = sorted(dist.leaves, key=lambda lf: -lf.probability)
    return float(sum(lf.probability * f(lf) for lf in ordered))


def per_leaf_base_law(dist):
    """Reference: leaf masses summed per sign vector in leaf order."""
    law: dict[bytes, list] = {}
    for lf in dist.leaves:
        key = lf.signs.tobytes()
        if key in law:
            law[key][1] += lf.probability
        else:
            law[key] = [lf.signs, lf.probability]
    return (np.array([x for x, _ in law.values()]),
            np.array([p for _, p in law.values()]))


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
            assert np.max(np.abs(replay(lf.trace) - lf.signs)) <= 1e-9

    def test_leaf_decomposition_built_on_first_read(self, monkeypatch):
        inst = generate_instance("random_unit_sphere", 3, 6, 2)
        calls = []

        def counting(*args):
            calls.append(args)
            return decompose_stack(*args)

        monkeypatch.setattr(enumeration, "decompose_stack", counting)
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
            assert np.array_equal(got.block, want.block)
            assert got.total_nontrivial == want.total_nontrivial
        # one stack for the law, one row per distinct freeze sequence
        assert len(calls) == 1
        assert len(calls[0][1]) == len({freeze_sequence(lf) for lf in dist.leaves})

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_shared_decompositions_equal_per_leaf(self, case):
        inst = generate_instance(*case)
        for lf in enumerate_walk(inst).leaves:
            got, want = lf.ortho, decompose(inst, lf.trace)
            assert np.array_equal(got.order, want.order)
            assert np.array_equal(got.position, want.position)
            assert np.array_equal(got.directions, want.directions)
            assert np.array_equal(got.pivot, want.pivot)
            assert np.array_equal(got.block, want.block)
            assert np.array_equal(got.run, want.run)
            assert np.array_equal(got.nonzero, want.nonzero)
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
        assert per_leaf_expectation(dist, lambda lf: 1.0) == pytest.approx(1.0,
                                                                           abs=1e-15)

    def test_block_count_identity(self):
        dist = enumerate_walk(generate_instance("identity", 2, 2, 0))
        val = per_leaf_expectation(dist, lambda lf: lf.ortho.total_nontrivial)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_duplicated_columns_cancel(self):
        inst = make_columns([1, 0], [1, 0])
        dist = enumerate_walk(inst)
        val = per_leaf_expectation(
            dist, lambda lf: float(np.abs(inst.matrix @ lf.signs).max()))
        assert val == 0.0

    def test_totals_do_not_depend_on_the_interpreters_sum(self, monkeypatch):
        # Python 3.12 made sum() over floats compensated; reported totals
        # add left to right on every supported interpreter.  Under fsum
        # each of these totals moves in its last bits.
        inst = generate_instance("random_unit_sphere", 4, 13, 1)
        small = generate_instance("random_unit_sphere", 3, 8, 1)
        dist, law = enumerate_walk(inst), enumerate_walk(build_augmented(small))

        def totals():
            tilted = tilt_distribution(law, small, 1.0, 2.0)
            return (verify_subgaussian(dist, inst, np.eye(4)[0], 1.0),
                    tilted.half_variance, tilted.normalizer, tilted.cutoff_mass)

        want = totals()
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert totals() == want


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

    def test_overflowing_exponent_refused(self, monkeypatch):
        # with every proxy 0 a leaf's exponent is lam <M x, v>, which math.exp
        # would refuse with an OverflowError
        inst = generate_instance("random_unit_sphere", 2, 4, 5)
        dist = enumerate_walk(inst)
        monkeypatch.setattr(enumeration, "variance_proxy_batch",
                            lambda inst, dec, v: np.zeros((len(dist.when), v.shape[1])))
        top = 1e4 * enumeration.leaf_margins(dist, inst, [1.0, 0.0]).max()
        assert top > EXP_LIMIT
        with pytest.raises(DomainOverflowError, match=re.escape(f"exponent {top:.3g} ")):
            verify_subgaussian(dist, inst, [1.0, 0.0], 1e4)

    @pytest.mark.parametrize("case", SHARING_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
    def test_one_proxy_per_decomposition(self, case, monkeypatch):
        inst = generate_instance(*case)
        v = np.linspace(1.0, -0.5, inst.d)
        dist = enumerate_walk(inst)
        # reference: each leaf decomposed and its proxy computed on its own
        want = per_leaf_expectation(dist, lambda lf: math.exp(
            0.7 * float(inst.matrix @ lf.signs @ v)
            - 0.5 * 0.7 * 0.7 * variance_proxy(inst, decompose(inst, lf.trace), v)))
        rows = []

        def counting(*args):
            rows.append(variance_proxy_batch(*args))
            return rows[-1]

        monkeypatch.setattr(enumeration, "variance_proxy_batch", counting)
        assert verify_subgaussian(dist, inst, v, 0.7) == want
        # one call, one proxy row per distinct freeze sequence
        assert [z.shape for z in rows] == [(len({freeze_sequence(lf)
                                                 for lf in dist.leaves}), 1)]

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

    @pytest.mark.parametrize("kind", ["random_unit_sphere", "random_in_ball",
                                      "sign_columns", "duplicated_column"])
    def test_invariant_chain_on_every_freeze_id(self, kind):
        # Z_{e_i} <= ||e_i||^2 = 1, sum_i Z_{e_i} <= hatT <= min(d, n)
        for d, n in ((2, 9), (3, 11), (4, 13)):
            for seed in range(3):
                inst = generate_instance(kind, d, n, seed)
                stack = enumerate_walk(inst).decompositions
                z = basis_variance_proxies(inst, stack)
                assert np.all(z <= 1.0 + PROXY_SLACK)
                assert np.all(z.sum(axis=1) <= stack.total_nontrivial + PROXY_SLACK)
                assert np.all(stack.total_nontrivial <= min(d, n))


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
        """Reference: regroup the leaves by prefix, one member list per node,
        replaying each node's coloring from its records."""
        groups: dict[tuple[bool, ...], list] = {}
        for lf in dist.leaves:
            for depth in range(len(choices(lf))):
                groups.setdefault(choices(lf)[:depth], []).append(lf)
        worst = 0.0
        for prefix, members in groups.items():
            depth = len(prefix)
            rep = members[0].trace
            x = np.zeros(dist.n)
            for rec in rep.steps[:depth]:
                x = x + rec.chosen_delta * rec.u
            pivot = rep.steps[depth].pivot
            z = float(x[pivot])
            total = plus = 0.0
            for lf in members:          # left to right, whatever sum() does
                total += lf.probability
                if lf.signs[pivot] > 0:
                    plus += lf.probability
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
    def test_node_runs_bitwise_equal_regrouping(self, case, law, monkeypatch):
        if law == "pruned":
            # prune real branches, so that some nodes keep one child, some
            # one leaf and, on most cases, some none
            monkeypatch.setattr(enumeration, "PRUNE_TOL", 0.01)
        dist = enumerate_walk(generate_instance(*case))
        if law == "pruned":
            assert dist.pruned_mass > 0 or case[0] == "identity"
        if law != "exact":
            # a law that breaks the two-point form by O(0.1), so the worst
            # node and its sums decide the result, not roundoff alone
            factors = np.random.default_rng(5).uniform(0.8, 1.2, len(dist.leaves))
            dist.probabilities = dist.probabilities * factors
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


class TestColumnarLaw:
    """The direction table and the column readers against per-leaf references."""

    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1),
           st.sampled_from([enumeration.PRUNE_TOL, 0.01]))
    @settings(max_examples=80, deadline=None)
    def test_table_equals_uncached_descent(self, family, seed, prune_tol):
        inst = family_instance(family, seed)
        with pytest.MonkeyPatch.context() as patch:
            # 0.01 prunes real branches, whose masses are summed in tree order
            patch.setattr(enumeration, "PRUNE_TOL", prune_tol)
            dist = enumerate_walk(inst)
            leaves, pruned, _ = uncached_enumeration(inst)
        assert len(dist.leaves) == len(leaves)
        assert dist.pruned_mass.hex() == pruned.hex()
        assert abs(sum(dist.probabilities.tolist()) + dist.pruned_mass - 1.0) <= 1e-12
        for lf, (prob, signs, steps) in zip(dist.leaves, leaves):
            assert lf.probability == prob
            assert lf.signs.tobytes() == signs.tobytes()
            assert len(lf.trace.steps) == len(steps)
            for got, want in zip(lf.trace.steps, steps):
                assert got.u.tobytes() == want.u.tobytes()
                assert (got.t, got.pivot, got.frozen) == (want.t, want.pivot, want.frozen)
                assert got.chosen_delta == want.chosen_delta
                assert (got.delta_minus, got.delta_plus, got.choice_probability) == (
                    want.delta_minus, want.delta_plus, want.choice_probability)
            assert choices(lf) == tuple(rec.chosen_delta > 0 for rec in steps)

    @given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1),
           st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=80, deadline=None)
    def test_column_readers_equal_per_leaf(self, family, seed, lam):
        inst = family_instance(family, seed)
        dist = enumerate_walk(inst)
        v = np.random.default_rng(seed).standard_normal(inst.d)
        m = inst.matrix
        margin = per_leaf_expectation(dist, lambda lf: float(m @ lf.signs @ v))
        assert verify_martingale(dist, inst, v) == abs(margin)
        moment = per_leaf_expectation(dist, lambda lf: math.exp(
            lam * float(m @ lf.signs @ v)
            - 0.5 * lam * lam * variance_proxy(inst, decompose(inst, lf.trace), v)))
        assert verify_subgaussian(dist, inst, v, lam) == moment
        got = conditional_increment_check(dist)
        assert got.hex() == TestConditionalIncrements.regrouped(dist).hex()
        signs, probs = base_law(dist)
        want_signs, want_probs = per_leaf_base_law(dist)
        assert signs.tobytes() == want_signs.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_freeze_ids_number_sequences_in_first_leaf_order(self):
        dist = enumerate_walk(generate_instance("duplicated_column", 3, 7, 1))
        seen: dict[tuple, int] = {}
        for lf in dist.leaves:
            seen.setdefault(freeze_sequence(lf), len(seen))
        assert dist.freeze_ids.tolist() == [seen[freeze_sequence(lf)]
                                            for lf in dist.leaves]
        # ``when`` keeps each id's freeze row, read off its first leaf
        for k in range(len(seen)):
            first = dist.leaves[dist.freeze_ids.tolist().index(k)]
            assert dist.when[k].tolist() == freeze_row(first.trace).tolist()

    @pytest.mark.parametrize("case", [("random_unit_sphere", 4, 10, 1),
                                      ("sign_columns", 3, 8, 2),
                                      ("duplicated_column", 3, 7, 1),
                                      # two active sets recur at a later
                                      # depth: 7 solves of 5 distinct sets
                                      ("sign_columns", 3, 7, 1)],
                             ids=lambda c: f"{c[0]}-{c[2]}")
    def test_one_solve_per_active_set(self, case, monkeypatch):
        # each depth solves its distinct sets once; a set recurring at a
        # later depth is solved again
        inst = generate_instance(*case)
        _, _, actives = uncached_enumeration(inst)
        depths = []
        stacked, solve = walk.stacked_directions, walk.min_norm_directions

        def per_depth(inst, active):
            depths.append([])
            return stacked(inst, active)

        def counting(inst, sets):
            # each row is one set, as the index array the reference descent keeps
            depths[-1].extend(row.tobytes() for row in sets)
            return solve(inst, sets)

        monkeypatch.setattr(walk, "stacked_directions", per_depth)
        monkeypatch.setattr(walk, "min_norm_directions", counting)
        enumerate_walk(inst)
        solved = [(t, key) for t, keys in enumerate(depths, 1) for key in keys]
        assert len(solved) == len(set(solved)) == len(set(actives)) < len(actives)
        assert set(solved) == set(actives)
        if case == ("sign_columns", 3, 7, 1):
            assert len(solved) == 7 > len({key for _, key in actives}) == 5

    def test_records_built_on_read(self, monkeypatch):
        # the law holds its paths as codes and each freeze sequence as the
        # step at which each coordinate froze; a record exists once its path
        # is replayed, and no check reads a path
        inst = generate_instance("random_unit_sphere", 3, 8, 2)
        built = []
        record = walk.StepRecord

        def counting(*args, **kwargs):
            built.append(args or kwargs)
            return record(*args, **kwargs)

        monkeypatch.setattr(walk, "StepRecord", counting)
        dist = enumerate_walk(inst)
        law = enumerate_walk(build_augmented(inst))
        base_law(law)
        tilt_distribution(law, inst, 1.0, 2.0)
        v = np.array([0.6, -0.8, 0.0])
        verify_martingale(dist, inst, v)
        conditional_increment_check(dist)
        verify_subgaussian(dist, inst, v, 0.7)
        assert built == []
        assert len(dist.trace(0).steps) == len(built) > 0
        assert len(dist.when) < len(dist.probabilities)

    def test_trace_refuses_altered_code(self):
        dist = enumerate_walk(generate_instance("random_unit_sphere", 3, 6, 2))
        other = next(j for j, x in enumerate(dist.signs)
                     if x.tobytes() != dist.signs[0].tobytes())
        assert dist.trace(other).final_x.tobytes() == dist.signs[other].tobytes()
        dist.codes = dist.codes.copy()
        dist.codes[0] = dist.codes[other]
        with pytest.raises(ContractViolationError, match="leaf 0"):
            dist.trace(0)

    def test_depth_cap_instance(self):
        # n = DEPTH_CAP, the widest tree enumerated: 2^16 leaves
        inst = generate_instance("random_unit_sphere", 2, enumeration.DEPTH_CAP, 0)
        dist = enumerate_walk(inst)
        m = len(dist.probabilities)
        assert m == 2 ** inst.n and dist.pruned_mass == 0.0
        assert abs(sum(dist.probabilities.tolist()) + dist.pruned_mass - 1.0) <= 1e-12
        # preorder runs of leaves: the root's run is all of them, and a run
        # is nested in every open run it starts in, never straddling one
        nodes = list(zip(*(column.tolist() for column in dist.nodes)))
        assert len(nodes) == m - 1 and nodes[0][:2] == (0, m)
        open_runs, start = [(0, m)], 0
        for lo, hi, pivot, z in nodes[1:]:
            assert start <= lo < hi <= m and 0 <= pivot < inst.n and abs(z) < 1.0
            start = lo
            while hi > open_runs[-1][1]:
                assert open_runs.pop()[1] <= lo
            open_runs.append((lo, hi))
        for v in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
            assert verify_martingale(dist, inst, v) <= 1e-10
            assert verify_subgaussian(dist, inst, v, 1.0) <= 1.0 + 1e-10
        assert conditional_increment_check(dist) <= 1e-10

    def test_walks_keep_no_table(self, monkeypatch):
        # sampled walks solve every step afresh: one solve per step taken
        inst = generate_instance("random_unit_sphere", 3, 6, 2)
        calls = []
        solve = walk.min_norm_directions

        def counting(inst, sets):
            calls.append(len(sets))
            return solve(inst, sets)

        monkeypatch.setattr(walk, "min_norm_directions", counting)
        steps = sum(walk.run_walk(inst, np.random.default_rng(seed)).total_steps
                    for seed in range(3))
        assert calls == [1] * steps
