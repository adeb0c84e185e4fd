import math
from dataclasses import replace

import numpy as np
import pytest

from gswalk.exceptions import ContractViolationError
from gswalk.instances import Instance, generate_instance
from gswalk.ortho import (ZERO_RESIDUAL_RTOL, basis_variance_proxies, decompose,
                          direction_expansion_residual, gram_schmidt_sequence,
                          variance_proxy, variance_proxy_batch)
from gswalk.walk import run_walk
from conftest import make_columns
from helpers import project_pivot


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
        # insertion order too: the blocks of one pivot are adjacent
        assert list(dec.blocks.items()) == [((5, 0), (5,)), ((5, 1), (4, 3)),
                                            ((4, 1), (2,)), ((4, 2), (1, 0))]
        assert dec.pivot_phases == [(5, 1), (4, 2)]
        assert dec.block_counts == {5: 1, 4: 1}
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
                _, dec = walk_and_decompose(inst, seed)
                beta = dec.directions @ np.eye(d)
                want = np.zeros(d)
                for p, _ in dec.pivot_phases:
                    alpha = dec.directions @ inst.matrix[:, p]
                    acc = np.zeros(d)
                    for (owner, _), q in dec.blocks.items():
                        if owner == p:
                            acc += np.abs(alpha[list(q)] @ beta[list(q)])
                    want += acc ** 2
                got = basis_variance_proxies(inst, dec)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frozen", [[4, 3, 1], [4, 3], [4, 3, 2, 0]])
    def test_column_frozen_twice_or_never(self, frozen):
        inst, trace = self.walk()
        trace.steps[1] = replace(trace.steps[1], frozen=frozen)
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


def unskipped_proxies(inst, dec, vs):
    """Reference: every pivot and every block, zero directions included."""
    beta = dec.directions @ vs
    out = np.zeros(vs.shape[1])
    for p, _ in dec.pivot_phases:
        alpha = dec.directions @ inst.matrix[:, p]
        acc = np.zeros_like(out)
        for (owner, _), q in dec.blocks.items():
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
            _, dec = walk_and_decompose(inst, seed)
            full = full_gram_schmidt(inst, dec.order)
            assert dec.directions.tobytes() == full.tobytes()
            assert gram_schmidt_sequence(inst, dec.order).tobytes() == full.tobytes()
            vs = np.column_stack([np.eye(inst.d), np.random.default_rng(seed)
                                  .standard_normal((inst.d, 3))])
            got = variance_proxy_batch(inst, dec, vs)
            assert got.tobytes() == unskipped_proxies(inst, dec, vs).tobytes()
            assert (basis_variance_proxies(inst, dec).tobytes()
                    == unskipped_proxies(inst, dec, np.eye(inst.d)).tobytes())
            if inst.n > 6:
                # the skips are exercised: pivots whose blocks are all zero
                assert 0 in dec.block_counts.values()


class TestGramSchmidt:
    def test_identity(self):
        inst = generate_instance("identity", 3, 3, 0)
        w = gram_schmidt_sequence(inst, np.arange(3))
        assert np.allclose(w, np.eye(3), atol=1e-14)

    def test_dependent_column_zeroed(self):
        inst = make_columns([1, 0], [1, 0])
        w = gram_schmidt_sequence(inst, np.arange(2))
        assert np.allclose(w[0], [1, 0])
        assert np.all(w[1] == 0.0)

    def test_oblique_pair(self):
        inst = make_columns([1, 0], [0.5, math.sqrt(3) / 2])
        w = gram_schmidt_sequence(inst, np.arange(2))
        assert np.allclose(w[0], [1, 0], atol=1e-14)
        assert np.allclose(w[1], [0, 1], atol=1e-14)

    def test_orthonormality(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 4, 8, seed)
            order = np.random.default_rng(seed).permutation(8)
            w = gram_schmidt_sequence(inst, order)
            nonzero = w[np.linalg.norm(w, axis=1) > 0.5]
            gram = nonzero @ nonzero.T
            assert np.max(np.abs(gram - np.eye(len(nonzero)))) <= 1e-8
            norms = np.linalg.norm(w, axis=1)
            assert np.all((np.abs(norms - 1) <= 1e-10) | (norms == 0.0))


class TestFreezeBlocks:
    def test_identity_two(self):
        inst = generate_instance("identity", 2, 2, 0)
        trace, dec = walk_and_decompose(inst)
        # each pivot carries exactly its own singleton block
        assert dec.blocks == {(1, 0): (1,), (0, 1): (0,)}

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        trace, dec = walk_and_decompose(inst)
        assert dec.blocks == {(1, 0): (1,), (1, 1): (0,)}

    def test_single_column(self):
        inst = make_columns([0.5, 0.0])
        _, dec = walk_and_decompose(inst)
        assert dec.blocks == {(0, 0): (0,)}

    def test_partition_property(self):
        for seed in range(6):
            inst = generate_instance("random_unit_sphere", 3, 8, seed)
            trace, dec = walk_and_decompose(inst, seed)
            covered = sorted(r for q in dec.blocks.values() for r in q)
            assert covered == list(range(inst.n))
            for (p, t0) in dec.pivot_phases:
                assert dec.blocks[(p, t0 - 1)] == (int(dec.position[p]),)


class TestNontrivialCount:
    def test_identity(self):
        for n in (2, 3, 4):
            inst = generate_instance("identity", n, n, 0)
            _, dec = walk_and_decompose(inst)
            assert dec.total_nontrivial == n
            assert all(c == 1 for c in dec.block_counts.values())

    def test_duplicated_columns(self):
        inst = make_columns([1, 0], [1, 0])
        _, dec = walk_and_decompose(inst)
        assert dec.total_nontrivial == 1

    def test_rank_bound(self):
        for seed in range(8):
            inst = generate_instance("random_unit_sphere", 2, 3, seed)
            _, dec = walk_and_decompose(inst, seed)
            assert dec.total_nontrivial <= 2
            assert dec.total_nontrivial == sum(dec.block_counts.values())

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
        for p, _ in dec.pivot_phases:
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
            total = sum(project_pivot(dec, p, v) for p, _ in dec.pivot_phases)
            assert np.max(np.abs(total - basis @ (basis.T @ v))) <= 1e-8

    def test_unknown_pivot(self):
        inst = make_columns([1, 0], [1, 0])
        _, dec = walk_and_decompose(inst)
        with pytest.raises(ContractViolationError):
            project_pivot(dec, 0, np.array([1.0, 0.0]))
