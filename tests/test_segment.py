import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contrast, segment_cost
from scalebreak import (
    PiecewiseSpec,
    SampledPath,
    ScaleGrid,
    SegmentationConstraints,
    ValidationError,
    design_matrix,
    detect,
    make_band_limited,
    make_compact_poly,
    shrink,
    simulate_piecewise,
)
from scalebreak.scalogram import ScalogramTable
from scalebreak import segment
from scalebreak.segment import _pair_costs, cost_matrix


def exhaustive_minimum(cands, cost, m):
    """Brute-force oracle over all m-tuples of interior candidates.

    Segment costs are summed right-to-left, the association order of the
    suffix recursion, so that equal minima agree to the last bit.
    """
    best_g, best_ks = np.inf, None
    interior = range(1, len(cands) - 1)
    for combo in itertools.combinations(interior, m):
        idx = [0, *combo, len(cands) - 1]
        g = 0.0
        for a, b in zip(reversed(idx[:-1]), reversed(idx[1:])):
            g = cost[a, b] + g
        if g < best_g:
            best_g = g
            best_ks = tuple(int(cands[i]) for i in combo)
    return best_g, best_ks


def random_path(n, seed):
    rng = np.random.default_rng(seed)
    return SampledPath(values=rng.normal(size=n + 1))


W3 = make_compact_poly(3)
GRID = ScaleGrid(4, (1, 2, 3))


class TestContrast:
    def test_m0_equals_whole_series_cost(self):
        path = random_path(512, 0)
        y = ScalogramTable(path, W3, GRID).log_variance_vector(0, 512)
        expected = segment_cost(y, design_matrix(GRID))
        assert contrast(path, W3, GRID, []) == pytest.approx(expected, rel=1e-12)

    def test_additivity(self):
        path = random_path(512, 1)
        ks = [200, 360]
        total = contrast(path, W3, GRID, ks)
        table = ScalogramTable(path, W3, GRID)
        parts = [
            segment_cost(table.log_variance_vector(a, b), design_matrix(GRID))
            for a, b in [(0, 200), (200, 360), (360, 512)]
        ]
        assert total == pytest.approx(sum(parts), rel=1e-12)

    def test_ordering_validated(self):
        path = random_path(256, 2)
        with pytest.raises(ValidationError):
            contrast(path, W3, GRID, [200, 100])

    def test_piecewise_linear_mock_attains_zero(self):
        # A process whose log-variances are exactly linear per segment has
        # zero contrast at the true break; verified through the DP result
        # on synthetic power-law data below (statistical smoke test here).
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.2, 0.8))
        path = simulate_piecewise(spec, 4096, seed=3)
        at_truth = contrast(path, W3, GRID, [2048])
        elsewhere = contrast(path, W3, GRID, [1024])
        assert at_truth >= 0.0 and elsewhere >= 0.0


class TestDetect:
    def test_m0_returns_empty(self):
        path = random_path(512, 4)
        cons = SegmentationConstraints(m=0, min_len=64, candidate_stride=4)
        res = detect(path, W3, GRID, cons)
        assert res.k_hat == () and res.tau_hat == ()
        assert res.g_min >= 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dp_equals_exhaustive(self, m):
        # Exact equality of both the minimum and the minimizer on small
        # candidate sets, for both objectives.
        path = random_path(640, 10 + m)
        cons = SegmentationConstraints(m=m, min_len=48, candidate_stride=16)
        table = ScalogramTable(path, W3, GRID)
        for objective in ("plain", "stabilized"):
            cands, cost = cost_matrix(table, cons, objective)
            assert len(cands) <= 42
            res = detect(path, W3, GRID, cons, table=table, objective=objective)
            g_ex, k_ex = exhaustive_minimum(cands, cost, m)
            assert res.g_min == g_ex
            assert res.k_hat == k_ex

    def test_m1_fast_path_matches_exhaustive(self):
        path = random_path(640, 21)
        cons = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        res = detect(path, W3, GRID, cons)
        table = ScalogramTable(path, W3, GRID)
        cands, cost = cost_matrix(table, cons, "plain")
        g_ex, k_ex = exhaustive_minimum(cands, cost, 1)
        assert res.g_min == g_ex
        assert res.k_hat == k_ex

    def test_detect_value_agrees_with_contrast(self):
        path = random_path(640, 22)
        cons = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        res = detect(path, W3, GRID, cons)
        assert contrast(path, W3, GRID, list(res.k_hat)) == pytest.approx(
            res.g_min, rel=1e-9
        )

    def test_monotone_refinement(self):
        # Adding a candidate can never increase the attained minimum.
        path = random_path(640, 30)
        table = ScalogramTable(path, W3, GRID)
        coarse = SegmentationConstraints(m=1, min_len=48, candidate_stride=32)
        fine = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        g_coarse = detect(path, W3, GRID, coarse).g_min
        g_fine = detect(path, W3, GRID, fine).g_min
        assert g_fine <= g_coarse + 1e-12

    def test_tau_strictly_increasing(self):
        spec = PiecewiseSpec(
            family="fgn", tau_stars=(0.3, 0.7), exponents=(0.2, 0.8, 0.3)
        )
        path = simulate_piecewise(spec, 2048, seed=5)
        cons = SegmentationConstraints(m=2, min_len=128, candidate_stride=16)
        res = detect(path, W3, GRID, cons)
        taus = res.tau_hat
        assert all(0.0 < t < 1.0 for t in taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_infeasible_constraints(self):
        path = random_path(256, 6)
        cons = SegmentationConstraints(m=3, min_len=100, candidate_stride=8)
        with pytest.raises(ValidationError):
            detect(path, W3, GRID, cons)

    def test_unknown_objective(self):
        path = random_path(256, 7)
        cons = SegmentationConstraints(m=1, min_len=32, candidate_stride=8)
        with pytest.raises(ValidationError):
            detect(path, W3, GRID, cons, objective="bogus")

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_dp_optimality_property(self, seed):
        path = random_path(512, seed)
        cons = SegmentationConstraints(m=2, min_len=64, candidate_stride=32)
        table = ScalogramTable(path, W3, GRID)
        cands, cost = cost_matrix(table, cons, "plain")
        res = detect(path, W3, GRID, cons, table=table)
        g_ex, _ = exhaustive_minimum(cands, cost, 2)
        assert res.g_min == g_ex

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=0, max_value=3),
        objective=st.sampled_from(["plain", "stabilized"]),
        stride=st.integers(min_value=13, max_value=29),
        cells=st.integers(min_value=12, max_value=28),
        short=st.integers(min_value=1, max_value=12),
        min_len=st.integers(min_value=24, max_value=150),
    )
    def test_search_equals_exhaustive_property(
        self, seed, m, objective, stride, cells, short, min_len
    ):
        # Band-limited wavelet on a trimmed grid (length-dependent shift
        # ranges), and a stride that leaves a short last candidate gap.
        n = stride * cells + short
        path = random_path(n, seed)
        grid = ScaleGrid(1, (3, 4, 6), trim=0.1)
        wavelet = make_band_limited(2.0, 3.0)
        cons = SegmentationConstraints(m=m, min_len=min_len, candidate_stride=stride)
        table = ScalogramTable(path, wavelet, grid)
        cands, cost = cost_matrix(table, cons, objective)
        g_ex, k_ex = exhaustive_minimum(cands, cost, m)
        if not np.isfinite(g_ex):
            with pytest.raises(ValidationError):
                detect(path, wavelet, grid, cons, table=table, objective=objective)
            return
        res = detect(path, wavelet, grid, cons, table=table, objective=objective)
        assert res.g_min == g_ex
        assert res.k_hat == k_ex

    def test_search_memory_is_subquadratic(self):
        # P = 4001 candidates: the full pair matrix alone would be 128 MB.
        n = 4000
        path = random_path(n, 12)
        table = ScalogramTable(path, W3, GRID)
        cons = SegmentationConstraints(m=2, min_len=400, candidate_stride=1)
        p = n + 1
        tracemalloc.start()
        try:
            detect(path, W3, GRID, cons, table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8 / 10


class TestReachableBand:
    # 20 consecutive scales, as on the stationary detection grids; min_len
    # 200 is not a multiple of the stride 30, and N leaves a short last gap.
    GRID20 = ScaleGrid(1, tuple(range(2, 22)))
    N, STRIDE, MIN_LEN = 1207, 30, 200

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("objective", ["plain", "stabilized"])
    def test_search_equals_exhaustive_on_dense_grid(self, m, objective):
        path = random_path(self.N, 50 + m)
        cons = SegmentationConstraints(
            m=m, min_len=self.MIN_LEN, candidate_stride=self.STRIDE
        )
        table = ScalogramTable(path, W3, self.GRID20)
        cands, cost = cost_matrix(table, cons, objective)
        g_ex, k_ex = exhaustive_minimum(cands, cost, m)
        res = detect(path, W3, self.GRID20, cons, table=table, objective=objective)
        assert np.isfinite(g_ex)
        assert res.g_min == g_ex
        assert res.k_hat == k_ex

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_cell_outside_the_reachable_band(self, m, monkeypatch):
        path = random_path(self.N, 60 + m)
        cons = SegmentationConstraints(
            m=m, min_len=self.MIN_LEN, candidate_stride=self.STRIDE
        )
        table = ScalogramTable(path, W3, self.GRID20)
        cands = segment._candidates(self.N, self.STRIDE)
        p, gap = cands.size, -(-self.MIN_LEN // self.STRIDE)
        seen = set()

        def recording(table, k_lo, k_hi, *args, **kwargs):
            lo, hi = np.broadcast_arrays(k_lo, k_hi)
            rows = np.searchsorted(cands, lo.ravel())
            cols = np.searchsorted(cands, hi.ravel())
            seen.update(zip(rows.tolist(), cols.tolist()))
            return _pair_costs(table, k_lo, k_hi, *args, **kwargs)

        monkeypatch.setattr(segment, "_pair_costs", recording)
        res = detect(path, W3, self.GRID20, cons, table=table, objective="stabilized")
        assert np.isfinite(res.g_min)
        for i, c in seen:
            if c == p - 1:  # a last segment
                assert gap <= i <= p - 1 - gap
            else:
                assert i < c <= p - 1 - gap
                assert i == 0 or gap <= i < p - 2 * gap
        # Every feasible pair of the band was evaluated.
        if m >= 2:
            band = {
                (i, c)
                for i in range(gap, p - 2 * gap)
                for c in range(i + gap, p - gap)
            }
            assert band <= seen

    def test_zero_variance_stretch_is_infinite_and_silent(self):
        rng = np.random.default_rng(70)
        vals = rng.normal(size=self.N + 1)
        vals[400:800] = 0.0
        path = SampledPath(values=vals)
        table = ScalogramTable(path, W3, self.GRID20)
        k_lo = np.array([[408.0], [0.0]])
        k_hi = np.array([[600.0, 780.0, 1207.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for objective in ("plain", "stabilized"):
                cost = _pair_costs(table, k_lo, k_hi, 100, objective)
                assert np.isinf(cost[0, :2]).all()
                assert np.isfinite(cost[0, 2]) and np.isfinite(cost[1]).all()
            cons = SegmentationConstraints(m=2, min_len=150, candidate_stride=16)
            res = detect(path, W3, self.GRID20, cons, table=table)
        assert np.isfinite(res.g_min)


class TestShrink:
    def _result(self, n=1000, k=(400,)):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.4,), exponents=(0.2, 0.8))
        path = simulate_piecewise(spec, n, seed=8)
        cons = SegmentationConstraints(m=1, min_len=100, candidate_stride=8)
        return detect(path, W3, GRID, cons)

    def test_huge_v_gives_full_segments(self):
        res = self._result()
        out = shrink(res, 1e12)
        bounds = [0, *res.k_hat, res.n]
        expected = [
            (int(math.ceil(a)), int(math.floor(b)))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert list(out.shrunk) == expected

    def test_margin_formula(self):
        res = self._result()
        v = 10.0
        out = shrink(res, v)
        margin = res.n / v
        k = res.k_hat[0]
        assert out.shrunk[0] == (int(math.ceil(margin)), int(math.floor(k - margin)))
        assert out.shrunk[1] == (
            int(math.ceil(k + margin)),
            int(math.floor(res.n - margin)),
        )
        assert out.v_n == v

    def test_m0_single_interval(self):
        path = random_path(512, 9)
        cons = SegmentationConstraints(m=0, min_len=64, candidate_stride=8)
        res = detect(path, W3, GRID, cons)
        out = shrink(res, 16.0)
        assert out.shrunk == ((32, 480),)

    def test_margin_swallows_segment(self):
        res = self._result()
        with pytest.raises(ValidationError):
            shrink(res, 2.0)

    def test_corollary_margin_check(self):
        # kappa = 0.05 long-memory schedule: margin below half the smallest
        # segment for the reference design.
        n, kappa = 20000, 0.05
        v = n ** (0.4 - 3 * kappa)
        margin = n / v
        assert margin < 0.5 * 5000


def test_tau_error_shrinks_in_distribution_as_n_doubles():
    # Consistency of the change-instant estimator: over 20 replicates of
    # the reference design, the median |tau_hat - tau*| at N=20000 does not
    # exceed the one at N=5000.
    from scalebreak import default_params
    from scalebreak.pipeline import run_montecarlo

    spec = PiecewiseSpec(family="fgn", tau_stars=(0.75,), exponents=(0.2, 0.8))
    medians = {}
    for n, ell in ((5000, 8), (20000, 30)):
        params = default_params("fgn", n, m=1, ell=ell)
        recs = run_montecarlo(spec, n, params, reps=20, seed=55000)
        taus = np.array([r["tau_hat"][0] for r in recs])
        medians[n] = float(np.median(np.abs(taus - 0.75)))
    assert medians[20000] <= medians[5000]


def test_stride_one_agrees_with_stride_base_on_strong_mock():
    # The candidate stride equal to the base scale loses at most one grid
    # cell against the exhaustive stride-1 grid when the change is sharp.
    # Cost plateaus change only where a boundary crosses the shift grid of
    # some scale; for a base-aligned grid those points are multiples of the
    # base, so the stride-base candidate set sees every distinct cost.
    rng = np.random.default_rng(40)
    k_star = 2458
    vals = rng.normal(size=4097)
    vals[k_star:] *= 8.0  # abrupt variance jump
    path = SampledPath(values=vals)
    grid = ScaleGrid(8, (1, 2, 3))
    for objective in ("plain", "stabilized"):
        fine = detect(
            path, W3, grid,
            SegmentationConstraints(m=1, min_len=256, candidate_stride=1),
            objective=objective,
        )
        coarse = detect(
            path, W3, grid,
            SegmentationConstraints(m=1, min_len=256, candidate_stride=8),
            objective=objective,
        )
        assert abs(fine.k_hat[0] - coarse.k_hat[0]) <= 8


def test_candidate_stride_matches_result_field():
    path = random_path(512, 11)
    cons = SegmentationConstraints(m=0, min_len=64, candidate_stride=16)
    res = detect(path, W3, GRID, cons)
    assert res.stride == 16
    assert res.n == 512
    assert res.delta == 1.0
