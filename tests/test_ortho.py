import math
from dataclasses import replace

import numpy as np
import pytest

from gswalk.enumeration import enumerate_walk
from gswalk.exceptions import ContractViolationError
from gswalk.instances import Instance, generate_instance
from gswalk.ortho import (ZERO_RESIDUAL_RTOL, basis_variance_proxies, decompose,
                          decompose_stack, direction_expansion_residual,
                          variance_proxy, variance_proxy_batch)
from gswalk.smoothed import build_augmented
from gswalk.walk import run_walk
from conftest import make_columns
from helpers import (freeze_row, project_pivot, reference_decomposition,
                     reference_proxies)


def walk_and_decompose(inst, seed=0):
    trace = run_walk(inst, np.random.default_rng(seed))
    return trace, decompose(inst, trace)


class TestFreezeOrder:
    def test_identity_two(self):
        inst = generate_instance("identity", 2, 2, 0)
        trace, dec = walk_and_decompose(inst)
        # first pivot (column 1) owns the top position, column 0 the next
        assert list(dec.order) == [0, 1]

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        trace, dec = walk_and_decompose(inst)
        # pivot first (top position), then the frozen non-pivot coordinate
        assert list(dec.order) == [0, 1]

    def test_single_column(self):
        inst = make_columns([0.5, 0.0])
        _, dec = walk_and_decompose(inst)
        assert list(dec.order) == [0]

    def test_is_permutation(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 3, 7, seed)
            trace, dec = walk_and_decompose(inst, seed)
            assert sorted(dec.order) == list(range(inst.n))
            assert np.array_equal(dec.order[dec.position], np.arange(inst.n))
            # the first pivot always takes the top position
            assert dec.order[inst.n - 1] == trace.steps[0].pivot

    def test_malformed_trace_rejected(self):
        inst = generate_instance("identity", 2, 2, 0)
        trace, _ = walk_and_decompose(inst)
        trace.steps = trace.steps[:-1]      # a coordinate never freezes
        with pytest.raises(ContractViolationError):
            decompose(inst, trace)


class TestMultiFreeze:
    """Steps that freeze several coordinates: one pass assigns every field."""

    def walk(self):
        inst = generate_instance("sign_columns", 3, 6, 1)
        trace = run_walk(inst, np.random.default_rng(1))
        assert [rec.frozen for rec in trace.steps] == [[5, 1, 0], [4, 3, 2]]
        return inst, trace

    def test_fields_pinned(self):
        inst, trace = self.walk()
        dec = decompose(inst, trace)
        assert dec.order.tolist() == [2, 3, 4, 0, 1, 5]
        assert dec.position.tolist() == [3, 4, 0, 1, 2, 5]
        # blocks (5, 0), (5, 1), (4, 1), (4, 2) from the top down
        assert dec.pivot.tolist() == [4, 4, 4, 5, 5, 5]
        assert dec.block.tolist() == [2, 2, 1, 1, 1, 0]
        assert dec.run.tolist() == [3, 3, 2, 1, 1, 0]
        # block (5, 1) holds two nonzero directions, block (4, 2) one
        assert dec.nonzero.tolist() == [True, False, False, True, True, False]
        assert dec.total_nontrivial == 2
        proxies = basis_variance_proxies(inst, dec)
        assert [float(z).hex() for z in proxies] == [
            "0x1.ed097b425ed0ep-2", "0x1.da12f684bda16p-1", "0x1.ed097b425ed0fp-2"]

    def test_proxies_bitwise_equal_blockwise_reference(self):
        # Reference: per pivot, rescan every block and sum it in stored
        # position order.  Z must keep that order of additions bit for bit.
        for d, n in ((5, 12), (8, 16)):
            for seed in range(6):
                inst = generate_instance("sign_columns", d, n, seed)
                trace, dec = walk_and_decompose(inst, seed)
                want = unskipped_proxies(
                    inst, reference_decomposition(inst, freeze_row(trace)), np.eye(d))
                got = basis_variance_proxies(inst, dec)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frozen", [[4, 3, 1], [4, 3], [4, 3, 2, 0]])
    def test_column_frozen_twice_or_never(self, frozen):
        inst, trace = self.walk()
        trace.steps[1] = replace(trace.steps[1], frozen=frozen)
        with pytest.raises(ContractViolationError):
            decompose(inst, trace)

    def test_step_after_every_freeze_rejected(self):
        # no coordinate is active at a third step, so it has no pivot
        inst, trace = self.walk()
        trace.steps.append(replace(trace.steps[1], t=3, frozen=[]))
        with pytest.raises(ContractViolationError):
            decompose(inst, trace)

    # step 2's pivot is 4, the largest coordinate still active; its number is 2
    @pytest.mark.parametrize("change", [{"pivot": 3}, {"pivot": 5}, {"t": 3}, {"t": 1}])
    def test_step_inconsistent_with_freezes(self, change):
        inst, trace = self.walk()
        trace.steps[1] = replace(trace.steps[1], **change)
        with pytest.raises(ContractViolationError):
            decompose(inst, trace)


def full_gram_schmidt(inst, order):
    """Reference: the residual of every position, with no early stop."""
    w = np.zeros((inst.n, inst.d))
    for r in range(inst.n):
        v = inst.matrix[:, order[r]].copy()
        scale = np.linalg.norm(v)
        if r:
            v -= w[:r].T @ (w[:r] @ v)
            v -= w[:r].T @ (w[:r] @ v)
        nrm = np.linalg.norm(v)
        if scale > 0 and nrm > ZERO_RESIDUAL_RTOL * scale:
            w[r] = v / nrm
    return w


def unskipped_proxies(inst, ref, vs):
    """Reference: every pivot and every block of the per-sequence reference,
    rescanned per pivot, zero directions included."""
    beta = ref.directions @ vs
    out = np.zeros(vs.shape[1])
    for p, _ in ref.pivot_phases:
        alpha = ref.directions @ inst.matrix[:, p]
        acc = np.zeros_like(out)
        for (owner, _), q in ref.blocks.items():
            if owner == p:
                acc += np.abs(alpha[list(q)] @ beta[list(q)])
        out += acc ** 2
    return out


class TestEarlyStopBitwise:
    """The Gram-Schmidt early stop and the skipped zero blocks change no bit."""

    def instances(self):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(2,)))
        m = gen.standard_normal((8, 532))
        yield Instance(m / np.linalg.norm(m, axis=0)), 1       # benchmark-shaped
        basis = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 2)))[0]
        low = basis @ np.random.default_rng(6).standard_normal((2, 30))
        yield Instance(low / np.linalg.norm(low, axis=0)), 3    # rank 2 in R^6
        yield generate_instance("sign_columns", 3, 6, 1), 1     # multi-freeze

    def test_directions_and_proxies_match_full_loops(self):
        for inst, seed in self.instances():
            trace, dec = walk_and_decompose(inst, seed)
            full = full_gram_schmidt(inst, dec.order)
            assert dec.directions.tobytes() == full.tobytes()
            ref = reference_decomposition(inst, freeze_row(trace))
            vs = np.column_stack([np.eye(inst.d), np.random.default_rng(seed)
                                  .standard_normal((inst.d, 3))])
            got = variance_proxy_batch(inst, dec, vs)
            assert got.tobytes() == unskipped_proxies(inst, ref, vs).tobytes()
            assert (basis_variance_proxies(inst, dec).tobytes()
                    == unskipped_proxies(inst, ref, np.eye(inst.d)).tobytes())
            if inst.n > 6:
                # the skips are exercised: pivots whose blocks are all zero
                assert any(not dec.nonzero[dec.pivot == p].any() for p in set(dec.pivot))


def in_index_order(n):
    """A freeze row that places column r at position r: each coordinate
    freezes alone, largest first, and so leads its own phase."""
    return np.arange(n, 0, -1)


class TestGramSchmidt:
    def test_identity(self):
        inst = generate_instance("identity", 3, 3, 0)
        dec = decompose_stack(inst, in_index_order(3)[None])[0]
        assert dec.order.tolist() == [0, 1, 2]
        assert np.allclose(dec.directions, np.eye(3), atol=1e-14)

    def test_dependent_column_zeroed(self):
        inst = make_columns([1, 0], [1, 0])
        w = decompose_stack(inst, in_index_order(2)[None])[0].directions
        assert np.allclose(w[0], [1, 0])
        assert np.all(w[1] == 0.0)

    def test_oblique_pair(self):
        inst = make_columns([1, 0], [0.5, math.sqrt(3) / 2])
        w = decompose_stack(inst, in_index_order(2)[None])[0].directions
        assert np.allclose(w[0], [1, 0], atol=1e-14)
        assert np.allclose(w[1], [0, 1], atol=1e-14)

    def test_orthonormality(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 4, 8, seed)
            when = np.random.default_rng(seed).integers(1, 9, size=(20, 8))
            stack = decompose_stack(inst, when)
            for w, nonzero in zip(stack.directions, stack.nonzero):
                gram = w[nonzero] @ w[nonzero].T
                assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8
                norms = np.linalg.norm(w, axis=1)
                assert np.all((np.abs(norms - 1) <= 1e-10) | (norms == 0.0))
                assert np.array_equal(norms > 0.5, nonzero)


class TestFreezeBlocks:
    def test_identity_two(self):
        inst = generate_instance("identity", 2, 2, 0)
        trace, dec = walk_and_decompose(inst)
        # each pivot carries exactly its own singleton block: (1, 0), (0, 1)
        assert dec.pivot.tolist() == [0, 1]
        assert dec.block.tolist() == [1, 0]

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        trace, dec = walk_and_decompose(inst)
        # blocks (1, 0) and (1, 1)
        assert dec.pivot.tolist() == [1, 1]
        assert dec.block.tolist() == [1, 0]

    def test_single_column(self):
        inst = make_columns([0.5, 0.0])
        _, dec = walk_and_decompose(inst)
        assert dec.pivot.tolist() == [0]
        assert dec.block.tolist() == [0]

    def test_partition_property(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 3, 8, seed)
            trace, dec = walk_and_decompose(inst, seed)
            runs = {}
            for r, key in enumerate(zip(dec.pivot.tolist(), dec.block.tolist())):
                runs.setdefault(key, []).append(r)
            # every block and every phase is a contiguous run of positions
            for rows in runs.values():
                assert rows == list(range(rows[0], rows[-1] + 1))
            for p in set(dec.pivot.tolist()):
                rows = np.flatnonzero(dec.pivot == p)
                assert rows.tolist() == list(range(rows[0], rows[-1] + 1))
                # topped by the pivot's own singleton block
                assert rows[-1] == dec.position[p]
                assert runs[(p, dec.block[rows[-1]])] == [rows[-1]]
            want = reference_decomposition(inst, freeze_row(trace)).blocks
            assert {key: tuple(rows[::-1]) for key, rows in runs.items()} == want
            # run labels number the same blocks from 0 at the top
            for label, rows in enumerate(want.values()):
                assert dec.run[list(rows)].tolist() == [label] * len(rows)


class TestNontrivialCount:
    def test_identity(self):
        for n in (2, 3, 4):
            inst = generate_instance("identity", n, n, 0)
            _, dec = walk_and_decompose(inst)
            assert dec.total_nontrivial == n
            assert dec.nonzero.all()

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        _, dec = walk_and_decompose(inst)
        assert dec.total_nontrivial == 1

    def test_rank_bound(self):
        for seed in range(8):
            inst = generate_instance("random_unit_sphere", 2, 3, seed)
            _, dec = walk_and_decompose(inst, seed)
            assert dec.total_nontrivial <= 2
            assert dec.total_nontrivial == len(set(zip(dec.pivot[dec.nonzero],
                                                       dec.block[dec.nonzero])))
            assert dec.total_nontrivial == len(set(dec.run[dec.nonzero].tolist()))

    def test_dimension_bound(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 4, 7, seed)
            _, dec = walk_and_decompose(inst, seed)
            assert dec.total_nontrivial <= min(inst.d, inst.n)


class TestVarianceProxy:
    def test_identity_basis(self):
        inst = generate_instance("identity", 3, 3, 0)
        _, dec = walk_and_decompose(inst)
        for i in range(3):
            v = np.zeros(3)
            v[i] = 1.0
            assert variance_proxy(inst, dec, v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        inst = generate_instance("random_unit_sphere", 3, 5, 1)
        _, dec = walk_and_decompose(inst)
        assert variance_proxy(inst, dec, np.zeros(3)) == 0.0

    def test_norm_bound_and_sum_bound(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            inst = generate_instance("random_unit_sphere", 3, 6, seed)
            _, dec = walk_and_decompose(inst, seed)
            for _ in range(4):
                v = rng.standard_normal(3)
                assert variance_proxy(inst, dec, v) <= v @ v + 1e-8
            proxies = basis_variance_proxies(inst, dec)
            assert np.all(proxies >= 0)
            assert proxies.sum() <= dec.total_nontrivial + 1e-8

    def test_batch_matches_scalar(self):
        inst = generate_instance("random_unit_sphere", 4, 6, 3)
        _, dec = walk_and_decompose(inst)
        proxies = basis_variance_proxies(inst, dec)
        for i in range(4):
            v = np.zeros(4)
            v[i] = 1.0
            assert proxies[i] == pytest.approx(variance_proxy(inst, dec, v),
                                               abs=1e-14)


class TestDirectionExpansion:
    def test_identity(self):
        inst = generate_instance("identity", 4, 4, 0)
        trace, dec = walk_and_decompose(inst)
        assert direction_expansion_residual(inst, trace, dec) <= 1e-12

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        trace, dec = walk_and_decompose(inst)
        # M u = 0 and the expansion telescopes to zero as well
        assert direction_expansion_residual(inst, trace, dec) <= 1e-12

    def test_random(self):
        for seed in range(8):
            inst = generate_instance("random_unit_sphere", 3, 5, seed)
            trace, dec = walk_and_decompose(inst, seed)
            assert direction_expansion_residual(inst, trace, dec) <= 1e-8


class TestProjectPivot:
    def test_identity_projection(self):
        inst = generate_instance("identity", 2, 2, 0)
        _, dec = walk_and_decompose(inst)
        e1 = np.array([0.0, 1.0])
        assert np.allclose(project_pivot(dec, 1, e1), e1, atol=1e-12)

    def test_orthogonal_vector_maps_to_zero(self):
        inst = make_columns([1, 0, 0], [1, 0, 0])
        _, dec = walk_and_decompose(inst)
        v = np.array([0.0, 0.3, -0.7])
        assert np.allclose(project_pivot(dec, 1, v), 0.0, atol=1e-12)

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(4)
        inst = generate_instance("random_unit_sphere", 4, 6, 8)
        _, dec = walk_and_decompose(inst)
        for p in set(dec.pivot.tolist()):
            v = rng.standard_normal(4)
            pv = project_pivot(dec, p, v)
            assert np.max(np.abs(project_pivot(dec, p, pv) - pv)) <= 1e-10
            assert np.linalg.norm(pv) <= np.linalg.norm(v) + 1e-12

    def test_sum_of_projections_is_column_span_projector(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            inst = generate_instance("random_unit_sphere", 5, 3, seed)
            _, dec = walk_and_decompose(inst, seed)
            # independent oracle: orthogonal projector onto the column span
            u_svd, s, _ = np.linalg.svd(inst.matrix, full_matrices=False)
            basis = u_svd[:, s > 1e-10]
            v = rng.standard_normal(5)
            total = sum(project_pivot(dec, p, v) for p in set(dec.pivot.tolist()))
            assert np.max(np.abs(total - basis @ (basis.T @ v))) <= 1e-8

    def test_unknown_pivot(self):
        inst = make_columns([1, 0], [1, 0])
        _, dec = walk_and_decompose(inst)
        with pytest.raises(ContractViolationError):
            project_pivot(dec, 0, np.array([1.0, 0.0]))


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def differential_instance(name: str) -> Instance:
    """The generators, the degenerate families, the augmented 16x12 and a
    multi-freeze instance, each small enough to enumerate."""
    gen = np.random.default_rng(3)
    if name == "nearly_parallel":
        return Instance(unit_columns(np.eye(4)[:, :1] + 1e-7 * gen.standard_normal((4, 10))))
    if name == "tiny":
        return Instance(1e-300 * unit_columns(gen.standard_normal((3, 9))))
    if name == "mixed_scale":
        return Instance(unit_columns(gen.standard_normal((4, 10)))
                        * 10.0 ** gen.uniform(-12, 0, 10))
    if name == "rank_deficient":       # 10 columns spanning 2 dimensions of R^5
        basis = np.linalg.qr(gen.standard_normal((5, 2)))[0]
        return Instance(unit_columns(basis @ gen.standard_normal((2, 10))))
    if name == "d1":
        return Instance(gen.uniform(-1, 1, (1, 10)))
    if name == "augmented":
        return build_augmented(generate_instance("random_unit_sphere", 4, 12, 1))
    if name == "multi_freeze":
        return generate_instance("sign_columns", 3, 6, 1)
    kind, d, n, seed = {"identity": ("identity", 4, 4, 0),
                        "duplicated_column": ("duplicated_column", 3, 9, 1),
                        "sign_columns": ("sign_columns", 5, 12, 1),
                        "random_unit_sphere": ("random_unit_sphere", 4, 11, 1),
                        "random_in_ball": ("random_in_ball", 3, 10, 2)}[name]
    return generate_instance(kind, d, n, seed)


class TestColumnarBuilder:
    """Every freeze sequence of a law, built as one stack, against the
    per-sequence reference and against a stack of one, byte for byte."""

    @pytest.mark.parametrize("name", [
        "identity", "duplicated_column", "sign_columns", "random_unit_sphere",
        "random_in_ball", "nearly_parallel", "tiny", "mixed_scale",
        "rank_deficient", "d1", "augmented", "multi_freeze"])
    def test_stack_matches_reference_and_stack_of_one(self, name):
        inst = differential_instance(name)
        when = enumerate_walk(inst).when
        stack = decompose_stack(inst, when)
        vs = np.column_stack([np.eye(inst.d), unit_columns(
            np.random.default_rng(7).standard_normal((inst.d, 3)))])
        proxies = variance_proxy_batch(inst, stack, vs)
        # one column takes the dot-product path of the block sums
        single = variance_proxy_batch(inst, stack, vs[:, -1:])
        assert proxies.shape == (len(when), vs.shape[1])
        for k, row in enumerate(when):
            ref = reference_decomposition(inst, row)
            assert stack.order[k].tolist() == ref.order.tolist()
            assert stack.directions[k].tobytes() == ref.directions.tobytes()
            assert stack.total_nontrivial[k] == ref.total_nontrivial
            for label, rows in enumerate(ref.blocks.values()):
                assert stack.run[k, list(rows)].tolist() == [label] * len(rows)
            assert proxies[k].tobytes() == reference_proxies(inst, ref, vs).tobytes()
            assert single[k].tobytes() == reference_proxies(inst, ref, vs[:, -1:]).tobytes()
            one = decompose_stack(inst, row[None])[0]
            for got, want in ((one.order, stack.order[k]), (one.pivot, stack.pivot[k]),
                              (one.block, stack.block[k]), (one.run, stack.run[k]),
                              (one.nonzero, stack.nonzero[k]),
                              (one.directions, stack.directions[k])):
                assert got.tobytes() == want.tobytes()
            assert one.total_nontrivial == stack.total_nontrivial[k]
            assert variance_proxy_batch(inst, one, vs).tobytes() == proxies[k].tobytes()

    def test_any_positive_freeze_steps(self):
        # rows no walk produces: repeated and skipped steps, steps beyond n
        inst = generate_instance("random_unit_sphere", 3, 6, 1)
        when = np.random.default_rng(0).integers(1, 40, size=(200, 6))
        stack = decompose_stack(inst, when)
        proxies = basis_variance_proxies(inst, stack)
        for k, row in enumerate(when):
            ref = reference_decomposition(inst, row)
            assert stack.order[k].tolist() == ref.order.tolist()
            assert stack.total_nontrivial[k] == ref.total_nontrivial
            assert proxies[k].tobytes() == reference_proxies(inst, ref, np.eye(3)).tobytes()

    def test_rows_do_not_depend_on_the_rest_of_the_stack(self):
        inst = differential_instance("random_unit_sphere")
        when = enumerate_walk(inst).when
        stack = decompose_stack(inst, when)
        pick = np.random.default_rng(1).permutation(len(when))[:25]
        part = decompose_stack(inst, when[pick])
        assert part.directions.tobytes() == stack.directions[pick].tobytes()
        assert (basis_variance_proxies(inst, part).tobytes()
                == basis_variance_proxies(inst, stack)[pick].tobytes())
