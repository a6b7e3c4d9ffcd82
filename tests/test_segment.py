import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import contrast, segment_cost
from scalebreak import (
    PiecewiseSpec,
    SampledPath,
    ScaleGrid,
    SegmentationConstraints,
    ValidationError,
    default_params,
    design_matrix,
    detect,
    make_band_limited,
    make_compact_poly,
    simulate_piecewise,
)
from scalebreak.scalogram import ScalogramTable
from scalebreak import segment
from scalebreak.pipeline import _keep, _windows
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
        res = detect(ScalogramTable(path, W3, GRID), cons)
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
            res = detect(table, cons, objective=objective)
            g_ex, k_ex = exhaustive_minimum(cands, cost, m)
            assert res.g_min == g_ex
            assert res.k_hat == k_ex

    def test_m1_fast_path_matches_exhaustive(self):
        path = random_path(640, 21)
        cons = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        table = ScalogramTable(path, W3, GRID)
        res = detect(table, cons)
        cands, cost = cost_matrix(table, cons, "plain")
        g_ex, k_ex = exhaustive_minimum(cands, cost, 1)
        assert res.g_min == g_ex
        assert res.k_hat == k_ex

    def test_detect_value_agrees_with_contrast(self):
        path = random_path(640, 22)
        cons = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        res = detect(ScalogramTable(path, W3, GRID), cons)
        assert contrast(path, W3, GRID, list(res.k_hat)) == pytest.approx(
            res.g_min, rel=1e-9
        )

    def test_monotone_refinement(self):
        # Adding a candidate can never increase the attained minimum.
        path = random_path(640, 30)
        table = ScalogramTable(path, W3, GRID)
        coarse = SegmentationConstraints(m=1, min_len=48, candidate_stride=32)
        fine = SegmentationConstraints(m=1, min_len=48, candidate_stride=16)
        g_coarse = detect(table, coarse).g_min
        g_fine = detect(table, fine).g_min
        assert g_fine <= g_coarse + 1e-12

    def test_tau_strictly_increasing(self):
        spec = PiecewiseSpec(
            family="fgn", tau_stars=(0.3, 0.7), exponents=(0.2, 0.8, 0.3)
        )
        path = simulate_piecewise(spec, 2048, seed=5)
        cons = SegmentationConstraints(m=2, min_len=128, candidate_stride=16)
        res = detect(ScalogramTable(path, W3, GRID), cons)
        taus = res.tau_hat
        assert all(0.0 < t < 1.0 for t in taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_infeasible_constraints(self):
        path = random_path(256, 6)
        cons = SegmentationConstraints(m=3, min_len=100, candidate_stride=8)
        with pytest.raises(ValidationError):
            detect(ScalogramTable(path, W3, GRID), cons)

    def test_unknown_objective(self):
        path = random_path(256, 7)
        cons = SegmentationConstraints(m=1, min_len=32, candidate_stride=8)
        with pytest.raises(ValidationError):
            detect(ScalogramTable(path, W3, GRID), cons, objective="bogus")

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_dp_optimality_property(self, seed):
        path = random_path(512, seed)
        cons = SegmentationConstraints(m=2, min_len=64, candidate_stride=32)
        table = ScalogramTable(path, W3, GRID)
        cands, cost = cost_matrix(table, cons, "plain")
        res = detect(table, cons)
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
                detect(table, cons, objective=objective)
            return
        res = detect(table, cons, objective=objective)
        assert res.g_min == g_ex
        assert res.k_hat == k_ex

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=1, max_value=3),
        objective=st.sampled_from(["plain", "stabilized"]),
        small=st.integers(min_value=2, max_value=6),
        below=st.booleans(),
        cells=st.integers(min_value=12, max_value=28),
        short=st.integers(min_value=1, max_value=12),
        hole=st.booleans(),
        steps=st.booleans(),
        data=st.data(),
    )
    def test_untrimmed_search_equals_exhaustive_property(
        self, seed, m, objective, small, below, cells, short, hole, steps, data
    ):
        # Untrimmed grids take the screened shift-step rows (and column at
        # m = 1) where steps pay, and with ``steps`` everywhere; the stride
        # falls below or above the smallest scale, and a zeroed stretch gives
        # infeasible cells inside the band.
        stride = data.draw(
            st.integers(1, small - 1) if below else st.integers(small, 12),
            label="stride",
        )
        n = stride * cells + short
        grid = ScaleGrid(1, (small, small + 1, small + 3))
        # Two shifts at the top scale need 2 * (small + 3) samples.
        shortest = 2 * (small + 3)
        assume(n >= (m + 1) * shortest)
        min_len = data.draw(st.integers(shortest, n // (m + 1)), label="min_len")
        vals = np.random.default_rng(seed).normal(size=n + 1)
        if hole:
            vals[n // 3 : n // 2] = 0.0
        table = ScalogramTable(SampledPath(values=vals), W3, grid)
        cons = SegmentationConstraints(m=m, min_len=min_len, candidate_stride=stride)
        cands, cost = cost_matrix(table, cons, objective)
        g_ex, k_ex = exhaustive_minimum(cands, cost, m)
        with pytest.MonkeyPatch.context() as patch:
            if steps:
                patch.setattr(segment, "_CELLS_PER_STEP", 0)
            if not np.isfinite(g_ex):
                with pytest.raises(ValidationError):
                    detect(table, cons, objective=objective)
                return
            res = detect(table, cons, objective=objective)
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
            detect(table, cons)
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
        res = detect(table, cons, objective=objective)
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
        res = detect(table, cons, objective="stabilized")
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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("objective", ["plain", "stabilized"])
    def test_block_size_changes_nothing(self, m, objective, monkeypatch):
        # One row per block, the default (blocks of 15 to 75 rows here), and
        # blocks of gap rows over the whole band give the same result.
        path = random_path(3000, 80 + m)
        cons = SegmentationConstraints(m=m, min_len=150, candidate_stride=2)
        table = ScalogramTable(path, W3, GRID)
        calls = []

        def counting(*args, **kwargs):
            calls[-1] += 1
            return _pair_costs(*args, **kwargs)

        monkeypatch.setattr(segment, "_pair_costs", counting)
        results = []
        for cells in (1, segment._BLOCK_CELLS, 1 << 40):
            monkeypatch.setattr(segment, "_BLOCK_CELLS", cells)
            calls.append(0)
            res = detect(table, cons, objective=objective)
            results.append((res.k_hat, res.g_min))
        assert results[0] == results[1] == results[2]
        assert calls[0] > calls[1] > calls[2]

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
            # The shift-step vectors: a row from inside the stretch, a row
            # from 0 and the column to N, against the pair costs.
            ks = 16.0 * np.arange(26, 75)
            for objective in ("plain", "stabilized"):
                for fixed, fixed_is_hi in ((408, False), (0, False), (1207, True)):
                    steps, bound = segment._step_costs(
                        table, fixed, 416, 16, ks.size, fixed_is_hi, 100, objective
                    )
                    k_lo, k_hi = (ks, fixed) if fixed_is_hi else (fixed, ks)
                    exact = _pair_costs(table, k_lo, k_hi, 100, objective)
                    np.testing.assert_array_equal(np.isinf(steps), np.isinf(exact))
                    assert np.all(bound[np.isinf(steps)] == 0.0)
                    if fixed == 408:
                        assert np.isinf(steps[:10]).all()
                        assert np.isfinite(steps[-10:]).all()
            cons = SegmentationConstraints(m=2, min_len=150, candidate_stride=16)
            res = detect(table, cons)
            cons = SegmentationConstraints(m=1, min_len=150, candidate_stride=16)
            res_m1 = detect(table, cons)
        assert np.isfinite(res.g_min) and np.isfinite(res_m1.g_min)


class TestShiftStepScreen:
    """The m = 1 vectors by shift-step differences, screened and confirmed
    by :func:`_pair_costs`."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        objective=st.sampled_from(["plain", "stabilized"]),
        small=st.integers(min_value=2, max_value=8),
        stride=st.integers(min_value=1, max_value=20),
        fixed_is_hi=st.booleans(),
        hole=st.booleans(),
    )
    def test_step_costs_lie_within_their_bound(
        self, seed, objective, small, stride, fixed_is_hi, hole
    ):
        n = 1200
        vals = np.random.default_rng(seed).normal(size=n + 1)
        if hole:
            vals[300:700] = 0.0
        grid = ScaleGrid(small, (1, 2, 3, 5, 8, 13))
        table = ScalogramTable(SampledPath(values=vals), W3, grid)
        fixed, k0 = (n, stride) if fixed_is_hi else (0, stride)
        count = (n - 1 - k0) // stride + 1
        cost, bound = segment._step_costs(
            table, fixed, k0, stride, count, fixed_is_hi, 40, objective
        )
        ks = k0 + stride * np.arange(count, dtype=float)
        k_lo, k_hi = (ks, fixed) if fixed_is_hi else (fixed, ks)
        exact = _pair_costs(table, k_lo, k_hi, 40, objective)
        finite = np.isfinite(exact)
        np.testing.assert_array_equal(np.isfinite(cost), finite)
        assert finite.any()
        assert np.all(np.abs(cost[finite] - exact[finite]) <= bound[finite])
        assert np.all(bound[~finite] == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(min_value=1, max_value=30))
    def test_screen_keeps_the_first_exact_argmin(self, data, size):
        # Integer totals and bounds keep every perturbation exact.
        exact = np.array(data.draw(st.lists(
            st.one_of(st.integers(0, 20), st.just(math.inf)),
            min_size=size, max_size=size,
        )), dtype=float)
        bound = np.array(data.draw(st.lists(
            st.integers(0, 6), min_size=size, max_size=size
        )), dtype=float)
        bound[np.isinf(exact)] = 0.0
        shift = [data.draw(st.integers(-int(b), int(b))) for b in bound]
        keep = segment._screen(exact + np.array(shift, dtype=float), bound)
        if np.isinf(exact).all():
            assert keep.size == 0
            return
        first = int(np.argmin(exact))
        assert keep[np.argmin(exact[keep])] == first

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_wide_screen_still_confirms_the_exact_minimum(self, m, monkeypatch):
        # Bounds inflated by 1e9 keep every feasible cell; the confirming
        # call must still pick the exhaustive minimizer among them.
        step_costs = segment._step_costs
        monkeypatch.setattr(segment, "_CELLS_PER_STEP", 0)

        def loose(*args):
            cost, bound = step_costs(*args)
            return cost, np.where(np.isfinite(cost), bound + 1e9, 0.0)

        monkeypatch.setattr(segment, "_step_costs", loose)
        path = random_path(640, 90 + m)
        cons = SegmentationConstraints(m=m, min_len=48, candidate_stride=16)
        table = ScalogramTable(path, W3, GRID)
        for objective in ("plain", "stabilized"):
            cands, cost = cost_matrix(table, cons, objective)
            res = detect(table, cons, objective=objective)
            assert (res.g_min, res.k_hat) == exhaustive_minimum(cands, cost, m)

    def test_steps_pay_on_the_many_scale_grids_only(self):
        # The m = 1 stretches of the benchmark's farima, fbm and fgn designs.
        pay = segment._steps_pay
        assert pay(ScaleGrid(1, tuple(range(12, 501))), 16000, 3201)
        assert pay(ScaleGrid(1, tuple(range(20, 251))), 3000, 3001)
        assert not pay(ScaleGrid(1, tuple(range(2, 32))), 18000, 3601)
        assert not pay(ScaleGrid(1, tuple(range(20, 251)), trim=0.1), 3000, 3001)

    def test_m1_detect_confirms_a_handful_of_cells(self, monkeypatch):
        # The farima design of the benchmark: 489 detection scales, stride
        # 5, P = 4001.  One pair-cost call re-evaluates the few cells the
        # screen keeps, for the row and the column at once.
        n = 20000
        params = default_params("farima", n, m=1, ell=30)
        spec = PiecewiseSpec(family="farima", tau_stars=(0.75,), exponents=(0.2, 0.8))
        path = simulate_piecewise(spec, n, seed=0)
        table = ScalogramTable(path, params.wavelet, params.det_grid)
        cells = []

        def counting(table, k_lo, k_hi, *args, **kwargs):
            cells.append(np.broadcast(k_lo, k_hi).size)
            return _pair_costs(table, k_lo, k_hi, *args, **kwargs)

        monkeypatch.setattr(segment, "_pair_costs", counting)
        res = detect(table, params.constraints, params.det_objective)
        assert np.isfinite(res.g_min)
        assert len(cells) == 1 and cells[0] <= 8


class TestShrink:
    """The estimation windows of :func:`scalebreak.pipeline._windows`."""

    def test_huge_v_gives_full_segments(self):
        for v_n in (1e12, math.inf):
            windows, margin, clamped = _windows((400,), 1000, v_n, keep=50)
            assert windows == [(0, 400), (400, 1000)]
            assert margin == 1000 / v_n and not clamped

    def test_margin_formula(self):
        k, n, v = 403, 1000, 12.0
        windows, margin, clamped = _windows((k,), n, v, keep=50)
        assert margin == n / v and not clamped
        assert windows == [
            (math.ceil(margin), math.floor(k - margin)),
            (math.ceil(k + margin), math.floor(n - margin)),
        ]

    def test_m0_single_interval(self):
        assert _windows((), 512, 16.0, keep=50) == ([(32, 480)], 32.0, False)

    def test_quarter_segment_cap(self):
        # The shortest segment, 400 samples, caps the margin N/v_n = 500.
        windows, margin, clamped = _windows((400,), 1000, 2.0, keep=50)
        assert (margin, clamped) == (100.0, True)
        assert windows == [(100, 300), (500, 900)]

    def test_keep_cap(self):
        # (400 - 300)/2 = 50 is below 400/4, so every window keeps 300.
        windows, margin, clamped = _windows((400,), 1000, 2.0, keep=300)
        assert (margin, clamped) == (50.0, True)
        assert windows[0] == (50, 350)

    def test_margin_swallows_segment(self):
        # Only a user-set min_len admits a segment shorter than keep.
        with pytest.raises(ValidationError, match="min_len admits a 400-sample"):
            _windows((400,), 1000, 10.0, keep=401)

    def test_corollary_margin_check(self):
        # kappa = 0.05 long-memory schedule: margin below half the smallest
        # segment for the reference design.
        n, kappa = 20000, 0.05
        v = n ** (0.4 - 3 * kappa)
        margin = n / v
        assert margin < 0.5 * 5000


_BAND = {"freq_band": (0.3, 1.2), "delta": 0.25}


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["fgn", "farima", "fbm", "locfrac"]),
    n=st.integers(1000, 40000),
    ell=st.integers(3, 30),
    v_n=st.one_of(st.none(), st.floats(1.0, 1e6)),
    data=st.data(),
)
def test_every_admissible_window_has_two_shifts(family, n, ell, v_n, data):
    # Every segmentation that min_len admits gives windows with at least 2
    # shifts at every estimation scale after trim: analyze can fit them.
    extra = _BAND if family == "locfrac" else {}
    ell = min(ell, 15) if family == "locfrac" else ell
    params = default_params(family, n, ell=ell, v_n=v_n, **extra)
    min_len = params.constraints.min_len
    assume(2 * min_len <= n)
    m = data.draw(st.integers(1, min(3, n // min_len - 1)))
    slack = sorted(data.draw(st.lists(
        st.integers(0, n - (m + 1) * min_len), min_size=m, max_size=m
    )))
    k_hat = tuple(min_len * (j + 1) + s for j, s in enumerate(slack))
    windows, _, _ = _windows(k_hat, n, params.v_n, _keep(params.grid))
    # A table whose prefix sums count the shifts: log_variance_vector raises
    # on a window with fewer than 2 shifts at some scale.
    table = object.__new__(ScalogramTable)
    table.grid, table.n, table.scales = params.grid, n, params.grid.scales
    table.sq_prefix = [np.arange(n + 2.0)] * params.grid.ell
    for k_lo, k_hi in windows:
        assert np.all(np.isfinite(table.log_variance_vector(k_lo, k_hi)))


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
    table = ScalogramTable(path, W3, ScaleGrid(8, (1, 2, 3)))
    for objective in ("plain", "stabilized"):
        fine = detect(
            table,
            SegmentationConstraints(m=1, min_len=256, candidate_stride=1),
            objective=objective,
        )
        coarse = detect(
            table,
            SegmentationConstraints(m=1, min_len=256, candidate_stride=8),
            objective=objective,
        )
        assert abs(fine.k_hat[0] - coarse.k_hat[0]) <= 8


def test_candidate_stride_matches_result_field():
    path = random_path(512, 11)
    cons = SegmentationConstraints(m=0, min_len=64, candidate_stride=16)
    res = detect(ScalogramTable(path, W3, GRID), cons)
    assert res.n == 512
