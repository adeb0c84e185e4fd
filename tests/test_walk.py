import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswalk.exceptions import ContractViolationError
from gswalk.instances import Instance, generate_instance
from gswalk.walk import (RANK_RCOND, WalkState, apply_step, feasible_interval,
                         min_norm_direction, min_norm_directions, move, run_walk,
                         stacked_directions, step_rows)
from conftest import make_columns
from helpers import replay

EPS = np.finfo(float).eps
GUARD = 1e-6        # documented eigenvalue ratio below which lstsq solves


def lstsq_direction(inst, active, pivot):
    """Reference direction with every solve done by lstsq."""
    active = np.asarray(active)
    u = np.zeros(inst.n)
    u[pivot] = 1.0
    others = active[active != pivot]
    if others.size:
        coef, *_ = np.linalg.lstsq(inst.matrix[:, others], -inst.matrix[:, pivot],
                                   rcond=RANK_RCOND)
        u[others] = coef
    return u


def gram_direction(inst, active, pivot):
    """Reference Gram-path direction of one set, solved with 2-D arrays."""
    active = np.asarray(active)
    u = np.zeros(inst.n)
    u[pivot] = 1.0
    others = active[active != pivot]
    a = inst.matrix[:, others]
    lam, vecs = np.linalg.eigh(a @ a.T)
    u[others] = a.T @ (vecs @ ((vecs.T @ -inst.matrix[:, pivot]) / lam))
    return u


def gram_eigenvalues(inst, state):
    """Eigenvalues of the other active columns' Gram matrix, or None when the
    step is not wide (no more other active columns than rows)."""
    a = inst.matrix[:, state.active[state.active != state.pivot]]
    return np.linalg.eigh(a @ a.T)[0] if a.shape[1] > inst.d else None


def walk_states(inst, seed):
    """Every state a walk of ``inst`` steps from, in order, replayed from its
    trace by ``apply_step``."""
    state = WalkState.initial(inst.n)
    for rec in run_walk(inst, np.random.default_rng(seed)).steps:
        yield state
        state, _ = apply_step(state, rec.u, rec.chosen_delta, rec.delta_minus,
                              rec.delta_plus, rec.choice_probability)


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def bench_shaped(d, n, seed):
    """Unit Gaussian columns drawn as the benchmark's wide workload draws them."""
    gen = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    return Instance(unit_columns(gen.standard_normal((d, n))))


def degenerate(family, seed):
    gen = np.random.default_rng(seed)
    if family == "duplicated_column":
        return generate_instance("duplicated_column", 3, 20, seed)
    if family == "subspace":           # d = 8 columns spanning 3 dimensions
        basis = np.linalg.qr(gen.standard_normal((8, 3)))[0]
        return Instance(unit_columns(basis @ gen.standard_normal((3, 40))))
    if family == "nearly_parallel":
        return Instance(unit_columns(np.eye(4)[:, :1]
                                     + 1e-7 * gen.standard_normal((4, 30))))
    if family == "mixed_scale":
        return Instance(unit_columns(gen.standard_normal((4, 30)))
                        * 10.0 ** gen.uniform(-12, 0, 30))
    return Instance(gen.uniform(-1, 1, (1, 20)))         # d = 1


class FixedDraw:
    """Stand-in generator returning scripted uniform draws."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestMinNormDirection:
    def test_orthogonal_columns(self):
        inst = generate_instance("identity", 2, 2, 0)
        u = min_norm_direction(inst, [0, 1], 1)
        assert np.allclose(u, [0.0, 1.0], atol=1e-12)

    def test_exact_cancellation(self):
        inst = make_columns([1, 0], [1, 0])
        u = min_norm_direction(inst, [0, 1], 1)
        assert np.allclose(u, [-1.0, 1.0], atol=1e-12)
        assert np.linalg.norm(inst.matrix @ u) <= 1e-12

    def test_oblique_pair(self):
        inst = make_columns([1, 0], [0.5, math.sqrt(3) / 2])
        u = min_norm_direction(inst, [0, 1], 1)
        assert np.allclose(u, [-0.5, 1.0], atol=1e-12)
        assert np.allclose(inst.matrix @ u, [0.0, math.sqrt(3) / 2], atol=1e-12)

    def test_pivot_entry_is_one_and_support_respected(self):
        inst = generate_instance("random_unit_sphere", 3, 6, 11)
        u = min_norm_direction(inst, [1, 3, 5], 5)
        assert u[5] == 1.0
        assert np.all(u[[0, 2, 4]] == 0.0)

    def test_minimality_vs_pivot_column(self):
        for seed in range(5):
            inst = generate_instance("random_unit_sphere", 3, 5, seed)
            u = min_norm_direction(inst, list(range(5)), 4)
            assert (np.linalg.norm(inst.matrix @ u)
                    <= np.linalg.norm(inst.matrix[:, 4]) + 1e-12)


class TestGramDirection:
    """Wide steps solve from the d x d Gram matrix; lstsq stays the reference."""

    def check_walk(self, inst, seed):
        """Compare every step of one walk with lstsq; (gram, refused) counts."""
        gram = refused = 0
        for state in walk_states(inst, seed):
            u = min_norm_direction(inst, state.active, state.pivot)
            want = lstsq_direction(inst, state.active, state.pivot)
            lam = gram_eigenvalues(inst, state)
            if lam is None or not lam[0] > GUARD * lam[-1]:
                refused += lam is not None
                assert u.tobytes() == want.tobytes()
            else:
                gram += 1
                # the normal equations lose accuracy in proportion to cond(G)
                rel = np.linalg.norm(u - want) / np.linalg.norm(want)
                assert rel <= max(1e-12, 16 * EPS * lam[-1] / lam[0])
        return gram, refused

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_shaped_walk_within_1e12(self, seed):
        inst = bench_shaped(8, 532, seed)
        worst = 0.0
        for state in walk_states(inst, seed):
            u = min_norm_direction(inst, state.active, state.pivot)
            want = lstsq_direction(inst, state.active, state.pivot)
            worst = max(worst, np.linalg.norm(u - want) / np.linalg.norm(want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind,d,n", [("random_unit_sphere", 8, 120),
                                          ("random_unit_sphere", 4, 60),
                                          ("random_in_ball", 5, 50),
                                          ("random_unit_sphere", 1, 12)])
    def test_differential_wide_random(self, kind, d, n):
        for seed in range(3):
            gram, refused = self.check_walk(generate_instance(kind, d, n, seed), seed)
            assert gram > 0 and refused == 0

    @pytest.mark.parametrize("family", ["duplicated_column", "subspace",
                                        "nearly_parallel", "mixed_scale", "d1"])
    def test_degenerate_families_fall_back_bitwise(self, family):
        gram = refused = 0
        for seed in range(4):
            g, r = self.check_walk(degenerate(family, seed), seed)
            gram, refused = gram + g, refused + r
        if family == "d1":
            assert gram > 0 and refused == 0
        else:
            assert refused > 0

    def test_gram_branch_skips_lstsq(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counting(*args, **kw):
            calls.append(args[0].shape)
            return real(*args, **kw)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        inst = bench_shaped(8, 60, 0)
        wide = narrow = 0
        for state in walk_states(inst, 0):
            before = len(calls)
            min_norm_direction(inst, state.active, state.pivot)
            if state.active.size - 1 > inst.d:
                wide += 1
                assert len(calls) == before
            elif state.active.size > 1:
                narrow += 1
                assert len(calls) == before + 1
        assert wide >= 40 and narrow > 0


class TestStackedSolve:
    """A stack of active sets gets the bits of one ``min_norm_direction`` per set."""

    def test_stack_mixing_gram_and_lstsq_sets(self):
        # columns 0..11 span 2 of the 4 dimensions, so a set drawn from them
        # alone has a singular Gram matrix and is refused by the guard
        gen = np.random.default_rng(3)
        low = np.linalg.qr(gen.standard_normal((4, 2)))[0] @ gen.standard_normal((2, 12))
        inst = Instance(unit_columns(np.hstack([low, gen.standard_normal((4, 18))])))
        sets = np.array([np.sort(gen.choice(pool, 9, replace=False))
                         for pool in [np.arange(12)] * 3 + [np.arange(30)] * 5])
        sets = sets[gen.permutation(len(sets))]
        u = min_norm_directions(inst, sets)
        refused = 0
        for row, active in zip(u, sets):
            state = WalkState(1, np.zeros(inst.n), active, int(active[-1]))
            lam = gram_eigenvalues(inst, state)
            accepted = lam[0] > GUARD * lam[-1]
            refused += not accepted
            want = (gram_direction if accepted else lstsq_direction)(inst, active, active[-1])
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == min_norm_direction(inst, active, active[-1]).tobytes()
        assert 0 < refused < len(sets)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_shaped_stacks_equal_2d_solves(self, seed):
        # the active sets of several walks at one depth, as lockstep sampling stacks them
        inst = bench_shaped(8, 532, seed)
        walks = [list(walk_states(inst, seed + r)) for r in range(4)]
        for t in (1, 50, 300, 500):
            states = [w[t - 1] for w in walks]
            sets = np.array([s.active for s in states if s.active.size == states[0].active.size])
            for row, active in zip(min_norm_directions(inst, sets), sets):
                assert row.tobytes() == gram_direction(inst, active, active[-1]).tobytes()

    @pytest.mark.parametrize("family", ["sign_columns", "duplicated_column",
                                        "mixed_scale", "d1"])
    def test_mixed_sizes_in_one_call(self, family):
        # one call with sets of several sizes, some repeated, in shuffled
        # order, as one depth of an enumeration or of lockstep sampling
        # brings them
        if family == "sign_columns":
            inst = generate_instance("sign_columns", 2, 16, 4)
        else:
            inst = degenerate(family, 4)
        gen = np.random.default_rng(5)
        sizes = [1, 2, inst.d, inst.d + 2, 9, inst.n] * 3
        active = np.zeros((len(sizes) + 1, inst.n), dtype=bool)
        for row, k in zip(active, gen.permutation(sizes)):
            row[gen.choice(inst.n, k, replace=False)] = True
        # the columns parallel to column 0: unless d = 1, a set the guard
        # refuses once it has more other columns than rows
        unit = inst.matrix / np.linalg.norm(inst.matrix, axis=0)
        active[-1] = np.abs(unit.T @ unit[:, 0]) > 1.0 - 1e-9
        active = np.concatenate((active, active[-4:]))[gen.permutation(len(active) + 4)]
        u = stacked_directions(inst, active)
        assert u.shape == active.shape
        refused = 0
        for row, mask in zip(u, active):
            sel = np.flatnonzero(mask)
            assert row.tobytes() == min_norm_direction(inst, sel, sel[-1]).tobytes()
            lam = gram_eigenvalues(inst, WalkState(1, np.zeros(inst.n), sel, int(sel[-1])))
            refused += lam is not None and not lam[0] > GUARD * lam[-1]
        assert (refused > 0) == (family != "d1")

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_narrow_sets_solve_by_lstsq(self, k):
        inst = generate_instance("random_unit_sphere", 4, 12, 5)
        gen = np.random.default_rng(k)
        sets = np.sort([gen.choice(12, k, replace=False) for _ in range(6)], axis=1)
        for row, active in zip(min_norm_directions(inst, sets), sets):
            assert row.tobytes() == lstsq_direction(inst, active, active[-1]).tobytes()


def interval_reference(x, u):
    """(delta_minus, delta_plus) of one coloring, over the support of u gathered."""
    support = np.flatnonzero(u)
    xs, us = x[support], u[support]
    ends = np.stack([(-1.0 - xs) / us, (1.0 - xs) / us])
    return -float(ends.min(axis=0).max()), float(ends.max(axis=0).min())


class TestFeasibleInterval:
    def test_symmetric_cube(self):
        dm, dp = feasible_interval(np.zeros(2), np.array([-1.0, 1.0]))
        assert (dm, dp) == (1.0, 1.0)

    def test_intersection(self):
        dm, dp = feasible_interval(np.array([0.5, 0.0]), np.array([1.0, 0.25]))
        assert (dm, dp) == (1.5, 0.5)

    def test_binding_second_coordinate(self):
        dm, dp = feasible_interval(np.array([0.0, -0.8]), np.array([0.5, 1.0]))
        assert np.allclose([dm, dp], [0.2, 1.8])

    def test_frozen_support_rejected(self):
        # at either end of the cube, moving in either direction along it
        for end in (1.0, -1.0):
            for slope in (1.0, -1.0):
                with pytest.raises(ContractViolationError, match="touches a frozen"):
                    feasible_interval(np.array([end, 0.0]), np.array([slope, 1.0]))

    def test_nan_direction_rejected(self):
        with pytest.raises(ContractViolationError, match="does not contain 0"):
            feasible_interval(np.zeros(2), np.array([np.nan, 1.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_interval_endpoints_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        x = rng.uniform(-0.99, 0.99, n)
        u = rng.standard_normal(n)
        u[rng.integers(n)] = 1.0
        dm, dp = feasible_interval(x, u)
        assert dm > 0 and dp > 0
        # both endpoints stay inside the cube, and slightly beyond leaves it
        assert np.all(np.abs(x + dp * u) <= 1 + 1e-12)
        assert np.all(np.abs(x - dm * u) <= 1 + 1e-12)
        assert (np.abs(x + (dp * 1.01) * u).max() > 1
                and np.abs(x - (dm * 1.01) * u).max() > 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_equals_support_gather(self, seed):
        # frozen coordinates and zeros of either sign off the support bound nothing
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        on = rng.random(n) < 0.6
        on[rng.integers(n)] = True
        x = np.where(on, rng.uniform(-0.99, 0.99, n), rng.choice([-1.0, 1.0, 0.5], n))
        u = np.where(on, rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 0, n),
                     rng.choice([0.0, -0.0], n))
        dm, dp = feasible_interval(x, u)
        assert (dm.hex(), dp.hex()) == tuple(v.hex() for v in interval_reference(x, u))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_ends_near_the_faces_equal_the_quotients(self, seed):
        # coordinates within a few ulps of a face, and slopes from subnormal
        # to huge, where a quotient rounds, underflows or overflows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        x = rng.choice([-1.0, 1.0], n) * (1.0 - rng.integers(1, 4, n) * 2.0 ** -53)
        x[rng.random(n) < 0.3] = 0.0
        u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-310, 300, n)
        dm, dp = feasible_interval(x, u)
        assert (dm.hex(), dp.hex()) == tuple(v.hex() for v in interval_reference(x, u))


class TestRows:
    """Rows sharing a direction step with the bits of one call per row."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_rows_equal_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n, g = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        active = np.flatnonzero(rng.random(n) < 0.8)
        if not active.size:
            active = np.array([n - 1])
        x = rng.choice([-1.0, 1.0], (g, n))
        x[:, active] = rng.uniform(-0.99, 0.99, (g, active.size))
        u = np.zeros(n)
        u[active] = rng.standard_normal(active.size)
        u[active[-1]] = 1.0
        dm, dp = feasible_interval(x, u)
        chosen = np.where(rng.random(g) < 0.5, dp, -dm)
        mask = np.isin(np.arange(n), active)
        moved, froze = move(x, u, chosen[:, None], mask)
        for i in range(g):
            assert (dm[i], dp[i]) == feasible_interval(x[i], u)
            want_x, want_froze = move(x[i], u, chosen[i], mask)
            assert moved[i].tobytes() == want_x.tobytes()
            assert froze[i].tolist() == want_froze.tolist()
            assert want_froze.any()

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_row_directions_equal_vectors(self, seed):
        # one direction per row, each with its own active set
        rng = np.random.default_rng(seed)
        n, g = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        active = rng.random((g, n)) < 0.8
        active[:, -1] = True
        x = np.where(active, rng.uniform(-0.99, 0.99, (g, n)), rng.choice([-1.0, 1.0], (g, n)))
        u = np.where(active, rng.standard_normal((g, n)), 0.0)
        u[rng.random((g, n)) < 0.2] = 0.0
        u[:, -1] = 1.0
        draws = rng.random(g)
        moved, froze, dm, dp, p_plus, plus = step_rows(x, u, draws, active)
        for i in range(g):
            want = interval_reference(x[i], u[i])
            assert (dm[i], dp[i]) == feasible_interval(x[i], u[i]) == want
            assert p_plus[i] == dm[i] / (dm[i] + dp[i]) and plus[i] == (draws[i] < p_plus[i])
            want_x, want_froze = move(x[i], u[i], dp[i] if plus[i] else -dm[i], active[i])
            assert moved[i].tobytes() == want_x.tobytes()
            assert froze[i].tolist() == want_froze.tolist()

    def test_row_checks(self):
        x = np.array([[0.5, 0.0], [0.0, -0.25]])
        u = np.array([1.0, 1.0])
        dm, dp = feasible_interval(x, u)
        assert dm.tolist() == [1.0, 0.75] and dp.tolist() == [0.5, 1.0]
        with pytest.raises(ContractViolationError, match="frozen coordinate"):
            feasible_interval(np.array([[0.5, 0.0], [1.0, 0.0]]), u)
        # the second row moves to the middle of its interval and freezes nothing
        with pytest.raises(ContractViolationError, match="froze no coordinate"):
            move(x, u, np.array([[dp[0]], [0.5 * dp[1]]]), np.ones(2, dtype=bool))


class TestWalkStep:
    def test_choice_probability(self):
        # delta+ = 0.5, delta- = 1.5 -> + endpoint with probability 0.75
        x, u, active = np.array([[0.5]]), np.array([1.0]), np.array([True])
        for draw, plus, moved in ((0.74, True, 1.0), (0.76, False, -1.0)):
            got, froze, dm, dp, p_plus, took = step_rows(x, u, np.array([draw]), active)
            assert (dm[0], dp[0], p_plus[0]) == (1.5, 0.5, 0.75)
            assert took[0] == plus and got[0, 0] == moved and froze[0, 0]
        # the second step of a walk of columns 1 and 0.5 starts at x_0 = -0.5
        inst = make_columns([1.0], [0.5])
        rec = run_walk(inst, FixedDraw(0.4, 0.24)).steps[1]
        assert (rec.delta_minus, rec.delta_plus) == (0.5, 1.5)
        assert rec.chosen_delta == 1.5 and rec.choice_probability == 0.25
        rec = run_walk(inst, FixedDraw(0.4, 0.26)).steps[1]
        assert rec.chosen_delta == -0.5 and rec.choice_probability == 0.75

    def test_single_column_symmetric(self):
        inst = make_columns([0.5, 0.0])
        for draw, sign in ((0.4, 1.0), (0.6, -1.0)):
            trace = run_walk(inst, FixedDraw(draw))
            (rec,) = trace.steps
            assert trace.final_x[0] == sign
            assert rec.choice_probability == 0.5

    def test_mean_zero_identity(self):
        inst = generate_instance("random_unit_sphere", 3, 5, 2)
        dm, dp = feasible_interval(np.zeros(5), min_norm_direction(inst, np.arange(5), 4))
        assert dp * dm / (dm + dp) - dm * dp / (dm + dp) == 0.0

    def test_freezes_at_least_one(self, rng):
        inst = generate_instance("random_unit_sphere", 3, 5, 4)
        for rec in run_walk(inst, rng).steps:
            assert rec.frozen and rec.frozen == sorted(rec.frozen, reverse=True)


class TestApplyStep:
    @pytest.mark.parametrize("d,n", [(3, 6), (5, 12), (8, 16)])
    def test_frozen_decreasing_and_active_rest(self, d, n):
        # sign columns freeze several coordinates in one step
        multi = 0
        for seed in range(10):
            inst = generate_instance("sign_columns", d, n, seed)
            for state in walk_states(inst, seed):
                u = min_norm_direction(inst, state.active, state.pivot)
                dm, dp = feasible_interval(state.x, u)
                for chosen in (dp, -dm):
                    nxt, rec = apply_step(state, u, chosen, dm, dp, 0.5)
                    hit = [int(i) for i in state.active if abs(nxt.x[i]) == 1.0]
                    assert rec.frozen == sorted(hit, reverse=True)
                    assert all(type(i) is int for i in rec.frozen)
                    assert nxt.active.tolist() == [int(i) for i in state.active
                                                   if i not in hit]
                    assert nxt.pivot == (nxt.active[-1] if nxt.active.size else None)
                    multi += len(rec.frozen) > 1
        assert multi > 0


class TestRunWalk:
    def test_single_column(self, rng):
        inst = make_columns([0.5, 0.0])
        outcomes = set()
        for _ in range(32):
            trace = run_walk(inst, rng)
            assert trace.total_steps == 1
            assert abs(inst.matrix @ trace.final_x).max() == 0.5
            outcomes.add(trace.final_x[0])
        assert outcomes == {-1.0, 1.0}

    def test_identity_two(self, rng):
        inst = generate_instance("identity", 2, 2, 0)
        for _ in range(16):
            trace = run_walk(inst, rng)
            assert trace.total_steps == 2
            assert np.abs(inst.matrix @ trace.final_x).max() == 1.0
            assert set(np.abs(trace.final_x)) == {1.0}

    def test_duplicated_columns(self, rng):
        inst = make_columns([1, 0], [1, 0])
        for _ in range(16):
            trace = run_walk(inst, rng)
            assert trace.total_steps == 1
            assert np.all(inst.matrix @ trace.final_x == 0.0)
            assert tuple(trace.final_x) in {(-1.0, 1.0), (1.0, -1.0)}

    def test_trace_invariants_random(self):
        for seed in range(8):
            inst = generate_instance("random_unit_sphere", 3, 7, seed)
            gen = np.random.default_rng(seed)
            trace = run_walk(inst, gen)
            assert trace.total_steps <= inst.n
            assert np.all(np.abs(trace.final_x) == 1.0)
            frozen = [j for rec in trace.steps for j in rec.frozen]
            assert sorted(frozen) == list(range(inst.n))
            assert np.array_equal(replay(trace), trace.final_x) or \
                np.max(np.abs(replay(trace) - trace.final_x)) <= 1e-9
            active = set(range(inst.n))
            for rec in trace.steps:
                assert rec.u[rec.pivot] == 1.0
                assert rec.pivot == max(active)
                assert set(np.nonzero(rec.u)[0]) <= active
                assert (np.linalg.norm(inst.matrix @ rec.u)
                        <= np.linalg.norm(inst.matrix[:, rec.pivot]) + 1e-12)
                assert rec.delta_plus > 0 and rec.delta_minus > 0
                assert rec.chosen_delta in (rec.delta_plus, -rec.delta_minus)
                active -= set(rec.frozen)
            assert not active

    def test_deterministic_given_stream(self):
        inst = generate_instance("random_unit_sphere", 4, 6, 1)
        a = run_walk(inst, np.random.default_rng(7))
        b = run_walk(inst, np.random.default_rng(7))
        assert np.array_equal(a.final_x, b.final_x)
        assert a.total_steps == b.total_steps
