import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gswalk import inequalities
from gswalk.exceptions import DomainOverflowError, GswError
from gswalk.inequalities import (BoundInputs, _check_grid, cosh_chain_check,
                                 cosh_chain_grid_min, lemma1_grid_min,
                                 lemma1_sweep, theorem1_bound,
                                 two_point_grid_min, two_point_mgf_gap,
                                 two_point_moment)
from helpers import lemma1_gap


class InlinePool:
    """Stand-in for ThreadPoolExecutor that maps in the calling thread."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestLemma1:
    def test_origin(self):
        assert lemma1_gap(0.0, 0.0, 0.0) == 0.0

    def test_cosh_section(self):
        # x = 0, a = 0: the average is cosh(b), bounded by exp(b^2/2)
        for b in (-2.5, -1.0, 0.3, 2.0):
            gap = lemma1_gap(0.0, 0.0, b)
            assert gap == pytest.approx(math.exp(b * b / 2) - math.cosh(b),
                                        rel=1e-12)
            assert gap >= 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1, 1)
            a, b = rng.uniform(-3, 3, 2)
            assert abs(lemma1_gap(x, a, b)
                       - lemma1_gap(-x, -a, -b)) <= 1e-12 * (
                           1 + abs(lemma1_gap(x, a, b)))

    def test_broadcasting(self):
        a = np.linspace(-1, 1, 5)[:, None]
        b = np.linspace(-1, 1, 7)[None, :]
        out = lemma1_gap(0.5, a, b)
        assert out.shape == (5, 7)
        assert out[2, 3] == lemma1_gap(0.5, a[2, 0], b[0, 3])

    def test_overflow_guard(self):
        with pytest.raises(DomainOverflowError):
            lemma1_gap(0.0, 60.0, 0.0)

    @given(st.floats(-1, 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_property(self, x, a, b):
        assert lemma1_gap(x, a, b) >= -1e-12

    def test_coarse_grid(self):
        # fine grid is exercised by the acceptance suite
        assert lemma1_grid_min(step=0.05) >= -1e-12

    def test_sweep_bitwise_equal_gap(self):
        xs = np.linspace(-0.99, 0.99, 34)
        ab = np.linspace(-3.0, 3.0, 97)
        count = 0
        for x, gap in zip(xs, lemma1_sweep(xs, ab, ab), strict=True):
            want = lemma1_gap(x, ab[:, None], ab[None, :])
            assert gap.shape == want.shape
            assert np.array_equal(gap.view(np.int64), want.view(np.int64))
            count += 1
        assert count == len(xs)

    def test_grid_min_is_min_of_gaps(self):
        xs = np.linspace(-0.99, 0.99, 41)
        ab = np.linspace(-3.0, 3.0, 121)
        want = min(float(lemma1_gap(x, ab[:, None], ab[None, :]).min()) for x in xs)
        assert lemma1_grid_min(step=0.05) == want

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    @pytest.mark.parametrize("step", [0.495, 0.05, 0.02])
    def test_split_min_is_serial_min(self, monkeypatch, cores, step):
        xs = inequalities._grid(-inequalities.X_LIM, inequalities.X_LIM, step)
        ab = inequalities._grid(-inequalities.AB_LIM, inequalities.AB_LIM, step)
        want = min(float(gap.min()) for gap in lemma1_sweep(xs, ab, ab))
        bands, swept = [], []

        def spy(xs, a, b):
            bands.append(a)
            swept.append(xs)
            return lemma1_sweep(xs, a, b)

        monkeypatch.setattr(inequalities, "usable_cores", lambda: cores)
        monkeypatch.setattr(inequalities, "lemma1_sweep", spy)
        assert lemma1_grid_min(step=step) == want
        # one band of rows per core, at most one per row; together the a-axis
        assert len(bands) == min(cores, len(ab))
        bands.sort(key=lambda a: a[0])
        assert np.concatenate(bands).tobytes() == ab.tobytes()
        # each band sweeps the slices x >= 0 alone, x = 0 among them on an odd axis
        assert all(half.tobytes() == xs[xs >= 0].tobytes() for half in swept)

    def test_split_capped_at_one_row_a_band(self, monkeypatch):
        # more cores than the 13 rows of step 0.495: no band may be empty
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(inequalities, "usable_cores", lambda: 64)
        bands = []

        def spy(xs, a, b):
            bands.append(a)
            return lemma1_sweep(xs, a, b)

        monkeypatch.setattr(inequalities, "lemma1_sweep", spy)
        assert lemma1_grid_min(step=0.495) == 0.0
        assert [len(a) for a in bands] == [1] * 13

    def test_band_gaps_are_rows_of_the_full_sweep(self):
        xs = np.linspace(-0.99, 0.99, 9)
        ab = np.linspace(-3.0, 3.0, 121)
        full = [gap.copy() for gap in lemma1_sweep(xs, ab, ab)]
        for rows in np.array_split(np.arange(len(ab)), 3):
            band = lemma1_sweep(xs, ab[rows], ab)
            for want, gap in zip(full, band, strict=True):
                assert gap.tobytes() == want[rows].tobytes()


class TestTwoPointMoment:
    def test_closed_forms(self):
        # A(x, 0) = 1 and A(0, s) = cosh(s)
        assert two_point_moment(0.3, 0.0) == 1.0
        for s in (-2.0, 0.5, 1.5):
            assert float(two_point_moment(0.0, s)) == pytest.approx(math.cosh(s),
                                                                     rel=1e-15)

    def test_mean_zero_two_point_law(self):
        x, s = 0.4, 0.7
        lo, hi = -(1.0 + x), 1.0 - x
        p_hi = (1.0 + x) / 2.0          # mean (1-p_hi) lo + p_hi hi = 0
        want = (1.0 - p_hi) * math.exp(s * lo) + p_hi * math.exp(s * hi)
        assert float(two_point_moment(x, s)) == pytest.approx(want, rel=1e-15)


class TestTwoPoint:
    def test_origin(self):
        assert two_point_mgf_gap(0.0, 0.0) == 0.0

    def test_degenerate_mass(self):
        for b in (-2.0, 0.5, 3.0):
            assert two_point_mgf_gap(1.0, b) == pytest.approx(
                math.exp(b * b / 2) - 1.0, rel=1e-12)

    def test_grid(self):
        assert two_point_grid_min(step=0.02) >= -1e-12

    def test_gaps_match_reference_bits(self):
        # the gap as one expression, each temporary its own array
        zs = inequalities._grid(-inequalities.Z_LIM, inequalities.Z_LIM, 0.01)[:, None]
        bs = inequalities._grid(-inequalities.B_LIM, inequalities.B_LIM, 0.01)[None, :]
        want = np.exp(0.5 * bs * bs) - (0.5 * (1.0 - zs) * np.exp(-(1.0 + zs) * bs)
                                        + 0.5 * (1.0 + zs) * np.exp((1.0 - zs) * bs))
        assert two_point_mgf_gap(zs, bs).tobytes() == want.tobytes()
        assert two_point_grid_min(step=0.01) == float(want.min())

    def test_grid_memory(self):
        # the 201 x 601 grid at once peaked at 2.07e6 bytes; a band is 8192 points
        two_point_grid_min(step=0.01)
        tracemalloc.start()
        try:
            two_point_grid_min(step=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_overflow_guard(self):
        with pytest.raises(DomainOverflowError):
            two_point_mgf_gap(0.0, 51.0)


class TestCoshChain:
    def test_c2_lambda1(self):
        g1, g2 = cosh_chain_check(2.0, 1.0)
        assert g1 == pytest.approx(math.exp(2) - 3 - math.exp(1), rel=1e-12)
        assert g1 == pytest.approx(1.671, abs=5e-4)
        assert g2 >= 0.0

    def test_small_lambda_series(self):
        # both sides ~ lam^2 * (C^2/2 vs 1): the first gap stays positive
        g1, g2 = cosh_chain_check(2.0, 1e-6)
        assert g1 > 0.0
        assert g2 >= 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            cosh_chain_check(1.5, 1.0)
        with pytest.raises(ValueError):
            cosh_chain_check(2.0, 0.0)
        with pytest.raises(DomainOverflowError):
            cosh_chain_check(50.0, 3.0)

    def test_broadcasting(self):
        cs = np.linspace(2.0, 10.0, 6)
        lams = np.linspace(0.05, 5.0, 9)
        g1, g2 = cosh_chain_check(cs[:, None], lams[None, :])
        assert g1.shape == g2.shape == (6, 9)
        for i, c in enumerate(cs):
            row1, row2 = cosh_chain_check(c, lams)
            assert np.array_equal(g1[i], row1) and np.array_equal(g2[i], row2)
            assert (float(g1[i, 4]), float(g2[i, 4])) == cosh_chain_check(c, lams[4])

    def test_array_domain(self):
        with pytest.raises(ValueError):
            cosh_chain_check(np.array([2.0, 1.9]), 1.0)
        with pytest.raises(ValueError):
            cosh_chain_check(2.0, np.array([0.5, float("nan")]))
        with pytest.raises(DomainOverflowError):
            cosh_chain_check(np.array([2.0, 30.0]), np.array([1.0, 4.0]))

    def test_grid(self):
        g1, g2 = cosh_chain_grid_min(step=0.05)
        assert g1 > 0.0
        assert g2 >= 0.0

    def test_gaps_match_reference_bits(self):
        # the chain as one expression per gap, each temporary its own array
        cs = inequalities._grid(2.0, inequalities.C_MAX, 0.01)[:, None]
        lams = inequalities._grid(0.01, inequalities.LAM_MAX, 0.01)[None, :]
        cl = cs * lams
        e1 = np.expm1(cl) - cl
        e2 = 2.0 * (np.cosh(cl) - 1.0)
        want1 = e1 - lams * lams * np.exp(0.5 * cl)
        want2 = lams * lams * (np.expm1(-cl) + cl) / (e1 * e2)
        g1, g2 = cosh_chain_check(cs, lams)
        assert g1.tobytes() == want1.tobytes() and g2.tobytes() == want2.tobytes()
        assert cosh_chain_grid_min(step=0.01) == (float(want1.min()), float(want2.min()))
        for i, j in ((0, 0), (400, 123), (800, 499)):
            assert cosh_chain_check(cs[i, 0], lams[0, j]) == (want1[i, j], want2[i, j])

    def test_grid_memory(self):
        # all of the 801 x 500 grid's temporaries at once peaked at 19.3e6 bytes
        cosh_chain_grid_min(step=0.01)
        tracemalloc.start()
        try:
            cosh_chain_grid_min(step=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19.3e6 / 2


class TestMirroredGrids:
    STEPS = [0.495, 0.05, 0.02, 0.01, 0.003]

    @pytest.mark.parametrize("lim", ["X_LIM", "AB_LIM", "Z_LIM", "B_LIM"])
    @pytest.mark.parametrize("step", STEPS)
    def test_symmetric_axes_mirror_exactly(self, lim, step):
        lim = getattr(inequalities, lim)
        g = inequalities._grid(-lim, lim, step)
        plain = np.linspace(-lim, lim, int(round(2 * lim / step)) + 1)
        # 0 - g, not -g: the centre of an odd axis is +0, whose negation is -0
        assert g[::-1].tobytes() == (0.0 - g).tobytes()
        assert (g[0], g[-1]) == (-lim, lim)
        assert g.size == plain.size and np.abs(g - plain).max() <= 4.5e-16

    @pytest.mark.parametrize("step", STEPS)
    def test_cosh_axes_are_plain_linspace(self, step):
        for lo, hi in ((2.0, inequalities.C_MAX), (step, inequalities.LAM_MAX)):
            plain = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
            assert inequalities._grid(lo, hi, step).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("step", [0.05, 0.02])     # 41 and 100 x values
    def test_sweep_gap_is_mirror_symmetric(self, step):
        xs = inequalities._grid(-inequalities.X_LIM, inequalities.X_LIM, step)
        ab = inequalities._grid(-inequalities.AB_LIM, inequalities.AB_LIM, step)
        gaps = [gap.copy() for gap in lemma1_sweep(xs, ab, ab)]
        for gap, mirror in zip(gaps, reversed(gaps), strict=True):
            assert gap[::-1, ::-1].tobytes() == mirror.tobytes()


class TestBandedGrids:
    @pytest.mark.parametrize("grid_min, gap, ends", [
        (two_point_grid_min, "two_point_mgf_gap",
         lambda step: ((-inequalities.Z_LIM, inequalities.Z_LIM),
                       (-inequalities.B_LIM, inequalities.B_LIM))),
        (cosh_chain_grid_min, "cosh_chain_check",
         lambda step: ((2.0, inequalities.C_MAX), (step, inequalities.LAM_MAX))),
    ], ids=["hoeffding", "cosh"])
    @pytest.mark.parametrize("step", [0.3, 0.07, 0.01])
    def test_grid_axes_hit_domain_ends(self, monkeypatch, grid_min, gap, ends, step):
        # an arange axis overshot to c = 10.1, lam = 5.1 at step 0.3 and
        # stopped at c = 9.98 at step 0.07
        seen = []
        real = getattr(inequalities, gap)

        def spy(row, col):
            seen.append((row.ravel(), col.ravel()))
            return real(row, col)

        monkeypatch.setattr(inequalities, gap, spy)
        grid_min(step=step)
        # the row axis arrives in bands, in row order, each against the whole column axis
        row_axis = np.concatenate([row for row, _ in seen])
        col_axis = seen[0][1]
        assert all(np.array_equal(col, col_axis) for _, col in seen)
        assert all(row.size * col_axis.size <= inequalities.BAND_FLOATS for row, _ in seen)
        assert ((row_axis[0], row_axis[-1]), (col_axis[0], col_axis[-1])) == ends(step)
        for axis in (row_axis, col_axis):
            gaps = np.diff(axis)
            assert gaps.min() > 0 and gaps.max() - gaps.min() < 1e-12
            assert abs(gaps[0] - step) <= step / 2


class TestEmptyGrids:
    @pytest.mark.parametrize("grid_min", [lemma1_grid_min, two_point_grid_min,
                                          cosh_chain_grid_min])
    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf"),
                                      5.0, 2e-5, 5e-324])
    def test_nonpositive_step_rejected(self, grid_min, step):
        with pytest.raises(GswError):
            grid_min(step=step)

    def test_min_axis_points_boundary(self):
        # the x axis of lemma 1 is 1.98 wide: four steps of 0.495 fit, of 0.5 not
        assert lemma1_grid_min(step=0.495) >= -1e-12
        with pytest.raises(GswError):
            lemma1_grid_min(step=0.5)

    @pytest.mark.parametrize("spans", [(-2.0, 6.0, 6.0), (2.0, -2.0),
                                       (-1.0, 4.9), (8.0, -0.05)])
    def test_empty_domain_rejected(self, spans):
        # an empty grid certifies nothing, so none of these may return inf
        with pytest.raises(GswError):
            _check_grid(0.1, *spans)


class TestTheorem1Bound:
    def test_unit_inputs(self):
        assert theorem1_bound(BoundInputs(1.0, 1.0)) == 2.0

    def test_e_blocks(self):
        assert theorem1_bound(BoundInputs(1.0, math.e)) == pytest.approx(
            2 * math.sqrt(2), rel=1e-12)

    def test_four_blocks(self):
        val = theorem1_bound(BoundInputs(1.0, 4.0))
        assert val == pytest.approx(2 * math.sqrt(2) * math.sqrt(math.log(4)),
                                    rel=1e-12)
        assert val == pytest.approx(3.330, abs=5e-4)

    def test_monotone(self):
        zs = np.linspace(0.0, 1.0, 9)
        ts = np.linspace(1.0, 20.0, 9)
        vals = [[theorem1_bound(BoundInputs(z, t)) for t in ts] for z in zs]
        arr = np.array(vals)
        assert np.all(np.diff(arr, axis=0) >= -1e-12)
        assert np.all(np.diff(arr, axis=1) >= -1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(1.2, 2.0)
        for blocks in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                BoundInputs(0.5, blocks)
