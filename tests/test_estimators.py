import math

import numpy as np
import pytest

from lrpovm import estimators
from lrpovm.estimators import (CurvePoint, RunStatistics, default_q_grid,
                               enumerate_exact, estimate, frontier_value,
                               min_copies, sweep_curve, sweep_curves)
from lrpovm.models import ModelConfig, tomography_config, \
    tomography_projections
from lrpovm.sphere import RngStream


class TestRunStatistics:
    def test_probabilities_normalized(self):
        stats = estimate(ModelConfig(kind="simple-bell", seed=1), 20_000)
        for i in range(2):
            for j in range(2):
                assert stats.pair_probabilities(i, j).sum() == \
                    pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_rejected(self):
        w = -np.ones((2, 2, 3, 3))
        with pytest.raises(ValueError):
            RunStatistics(kind="bell", weights=w, samples=0)

    def test_degenerate_pair_flagged(self):
        w = np.zeros((2, 2, 3, 3))
        w[:, :, 1, 1] = 1.0  # everything lands in the double-zero cell
        stats = RunStatistics(kind="bell", weights=w, samples=4)
        assert stats.pair(0, 0).degenerate
        s, se, degenerate = stats.chsh()
        assert degenerate and math.isnan(s)

    def test_empty_steering_bin_flagged(self):
        w = np.zeros((3, 3, 3, 3))
        # only a = +1 rows populated: the a = -1 conditional bin is empty
        w[:, :, 2, 0] = 5.0
        w[:, :, 2, 2] = 5.0
        stats = RunStatistics(kind="steering", weights=w, samples=30)
        _, _, flagged = stats.steering()
        assert flagged


class TestEstimateBell:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            estimate(ModelConfig(kind="simple-bell"), 100)

    def test_simple_bell_quantum_value(self):
        stats = estimate(ModelConfig(kind="simple-bell", seed=3), 400_000)
        s, se, degenerate = stats.chsh()
        assert not degenerate
        assert abs(abs(s) - 2 * math.sqrt(2)) < 3 * se

    def test_chaotic_ball_zero_threshold(self):
        stats = estimate(tomography_config("bell", math.inf, seed=5),
                         100_000)
        s, se, _ = stats.chsh()
        assert abs(abs(s) - 2.0) <= 3 * se + 1e-12

    def test_exact_agrees_with_mc(self):
        config = tomography_config("bell", 3, q=0.3, seed=7)
        mc = estimate(config, 200_000)
        exact = enumerate_exact(config)
        s_mc, se, _ = mc.chsh()
        s_ex, se_ex, _ = exact.chsh()
        assert se_ex == 0.0
        assert abs(s_mc - s_ex) < 3 * se


class TestEstimateSteering:
    def test_ideal_quantum_reference(self):
        from lrpovm.quantum import quantum_steering_T
        assert quantum_steering_T() == pytest.approx(1.0, abs=1e-12)

    def test_trusted_enumeration(self):
        stats = enumerate_exact(ModelConfig(kind="trusted-steering"))
        t, se, _ = stats.steering()
        assert (t, se) == (pytest.approx(1 / 3, abs=1e-12), 0.0)

    def test_mc_agrees_with_enumeration(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=2, seed=9)
        mc = estimate(config, 200_000)
        exact = enumerate_exact(config)
        t_mc, se, _ = mc.steering()
        t_ex, _, _ = exact.steering()
        assert abs(t_mc - t_ex) < 3 * se + 1e-9


class TestEnumerateExact:
    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="qubit-copies", n_copies=2)

    @pytest.mark.parametrize("kind,n", [("bell", 1), ("bell", 4),
                                        ("bell", math.inf), ("steering", 2)])
    def test_tomography_zero_threshold_cells(self, kind, n):
        # No dead zone at q = 0: every zero-trit cell is exactly 0, never
        # a rounding residue below it.
        stats = enumerate_exact(tomography_config(kind, n, q=0.0))
        assert np.all(stats.weights >= 0.0)
        assert np.all(stats.weights[:, :, 1, :] == 0.0)
        assert np.all(stats.weights[:, :, :, 1] == 0.0)
        assert np.allclose(stats.weights.sum(axis=(2, 3)), 1.0, atol=1e-12)

    def test_ncopy_cap(self):
        with pytest.raises(ValueError):
            enumerate_exact(ModelConfig(kind="ncopy-steering", n_copies=11))

    def test_simple_bell_efficiency(self):
        stats = enumerate_exact(ModelConfig(kind="simple-bell"))
        assert stats.efficiency("alice") == pytest.approx(0.5, abs=1e-15)


class TestParallelDeterminism:
    def test_worker_count_invariance(self):
        config = ModelConfig(kind="simple-bell", seed=11)
        one = estimate(config, 50_000, workers=1)
        three = estimate(config, 50_000, workers=3)
        assert np.array_equal(one.weights, three.weights)

    def test_sweep_reproducible(self):
        a = sweep_curve("bell", 2, [0.0, 0.3], 20_000, seed=13)
        b = sweep_curve("bell", 2, [0.0, 0.3], 20_000, seed=13, workers=2)
        assert a == b

    def test_uneven_tail_estimate(self):
        config = tomography_config("steering", 3, q=0.2, seed=41)
        one = estimate(config, 50_001, workers=1, chunk=7_000)
        two = estimate(config, 50_001, workers=2, chunk=7_000)
        assert np.array_equal(one.weights, two.weights)
        assert np.all(one.weights.sum(axis=(2, 3)) == 50_001)

    def test_uneven_tail_sweep(self):
        a = sweep_curve("bell", 2, [0.6, 0.0, 0.3], 50_001, seed=43,
                        chunk=7_000)
        b = sweep_curve("bell", 2, [0.6, 0.0, 0.3], 50_001, seed=43,
                        workers=2, chunk=7_000)
        assert a == b


def _reference_sweep_tables(kind, n_copies, q_grid, samples, seed, chunk):
    """Per-threshold trit tables by plain comparison, one q at a time."""
    config = tomography_config(kind, n_copies, seed=seed)
    sizes = [chunk] * (samples // chunk) + (
        [samples % chunk] if samples % chunk else [])
    draws = [tomography_projections(config, RngStream(seed, index).generator,
                                    size)
             for index, size in enumerate(sizes)]
    proj_a = np.concatenate([a for a, _ in draws])
    proj_b = np.concatenate([b for _, b in draws])
    ma, mb = proj_a.shape[1], proj_b.shape[1]
    tables = []
    for q in q_grid:
        trit_a = np.where(proj_a > q, 2, np.where(proj_a < -q, 0, 1))
        trit_b = np.where(proj_b > q, 2, np.where(proj_b < -q, 0, 1))
        counts = np.zeros((ma, mb, 3, 3), dtype=np.int64)
        for i in range(ma):
            for j in range(mb):
                np.add.at(counts[i, j], (trit_a[:, i], trit_b[:, j]), 1)
        tables.append(counts)
    return tables


class TestSweepKernelOracle:
    """Sweep count tables equal a per-threshold reference count."""

    @pytest.mark.parametrize("grid", [
        (0.0, 0.3, 0.6, 0.95), (0.6, 0.0, 0.3, 0.3, 0.95),
        tuple(default_q_grid())], ids=["sorted", "unsorted", "default"])
    @pytest.mark.parametrize("seed", [12345, 7, 1])
    @pytest.mark.parametrize("n_copies", [1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_tables_match_reference(self, monkeypatch, kind, n_copies,
                                    seed, grid):
        seen = []

        class Recording(RunStatistics):
            def __post_init__(self):
                super().__post_init__()
                seen.append(self.weights)

        monkeypatch.setattr(estimators, "RunStatistics", Recording)
        points = sweep_curve(kind, n_copies, grid, 50_001, seed=seed,
                             chunk=7_000)
        expected = _reference_sweep_tables(kind, n_copies, grid, 50_001,
                                           seed, 7_000)
        assert [p.q for p in points] == list(grid)
        assert len(seen) == len(grid)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)


class TestStderrScaling:
    def test_inverse_sqrt_samples(self):
        config = ModelConfig(kind="simple-bell", seed=15)
        exact = 2 * math.sqrt(2)
        prev_se = None
        for k, samples in enumerate([25_000, 100_000, 400_000]):
            stats = estimate(config, samples, seed=15 + k)
            s, se, _ = stats.chsh()
            assert abs(abs(s) - exact) < 4 * se
            if prev_se is not None:
                assert se == pytest.approx(prev_se / 2.0, rel=0.15)
            prev_se = se


class TestSweepCurve:
    def test_zero_threshold_full_efficiency(self):
        pts = sweep_curve("bell", 2, [0.0, 0.3, 0.6], 20_000, seed=17)
        assert pts[0].eta == 1.0
        assert [p.q for p in pts] == [0.0, 0.3, 0.6]

    def test_eta_monotone_via_shared_draws(self):
        pts = sweep_curve("bell", 1, [0.0, 0.2, 0.4, 0.8], 20_000, seed=19)
        etas = [p.eta for p in pts]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_degenerate_points_are_nan(self):
        pts = sweep_curve("bell", math.inf, [0.0, 0.95], 20_000, seed=23)
        assert math.isnan(pts[1].value)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            sweep_curve("bell", 1, [0.0, 1.0], 20_000)

    def test_default_grid(self):
        grid = default_q_grid()
        assert len(grid) == 33
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.96)


class TestFrontierMonotonicity:
    """At fixed q, both swept statistics are non-decreasing in N."""

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_value_grows_with_copies(self, kind):
        n_list = [1, 2, 4, 7, 10]
        curves = sweep_curves(kind, n_list, [0.0, 0.3], 100_000, seed=37)
        for iq in range(2):
            seq = [curves[n][iq] for n in n_list]
            for lo, hi in zip(seq, seq[1:]):
                assert hi.value >= lo.value - 3 * (lo.stderr + hi.stderr)


class TestFrontier:
    def _toy_curve(self):
        return [CurvePoint(2, 0.0, 1.0, 0.10, 0.0, 100),
                CurvePoint(2, 0.3, 0.8, 0.30, 0.0, 100),
                CurvePoint(2, 0.6, 0.5, 0.25, 0.0, 100)]

    def test_interpolation(self):
        assert frontier_value(self._toy_curve(), 0.9) == \
            pytest.approx(0.20)

    def test_non_monotone_uses_maximum(self):
        assert frontier_value(self._toy_curve(), 0.5) == pytest.approx(0.30)

    def test_unreachable_eta(self):
        curve = self._toy_curve()[1:]
        assert frontier_value(curve, 0.9) is None


class TestMinCopies:
    def test_sub_bound_needs_no_copies(self):
        assert min_copies(0.30, 0.30, "steering", 10,
                          curves={}) == 1
        assert min_copies(1.95, 0.50, "bell", 10, curves={}) == 1

    def test_unreachable_observation(self):
        curves = sweep_curves("bell", [1, 2], [0.0, 0.3, 0.6], 20_000,
                              seed=29)
        assert min_copies(2.8, 0.99, "bell", 2, curves=curves) is None

    def test_frontier_dominance(self):
        curves = sweep_curves("steering", [1, 2, 3, 4, 5],
                              [0.0, 0.1, 0.2, 0.3], 50_000, seed=31)
        n = min_copies(0.34, 0.85, "steering", 5, curves=curves)
        assert n == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            min_copies(0.5, 0.0, "steering", 5, curves={})
        with pytest.raises(ValueError):
            min_copies(math.inf, 0.5, "steering", 5, curves={})
