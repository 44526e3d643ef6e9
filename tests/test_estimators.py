import dataclasses
import functools
import math
import os
import resource
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from lrpovm import estimators, models, quantum
from lrpovm.estimators import (CurvePoint, RunStatistics, default_q_grid,
                               enumerate_exact, estimate, frontier_value,
                               min_copies, sweep_curves)
from lrpovm.models import DEFAULT_SEED, ModelConfig, sample_batch, \
    tomography_config, unanimity_cell_batch
from lrpovm.sphere import (BLOCK, Workspace, blocks, rng_stream,
                           sample_pair)


class TestRunStatistics:
    def test_probabilities_normalized(self):
        stats = estimate(ModelConfig(kind="simple-bell"), 20_000, seed=1)
        for i in range(2):
            for j in range(2):
                assert stats.pair_probabilities(i, j).sum() == \
                    pytest.approx(1.0, abs=1e-12)

    def test_negative_weights_rejected(self):
        w = -np.ones((2, 2, 3, 3))
        with pytest.raises(ValueError, match="negative weights"):
            RunStatistics(kind="bell", weights=w, samples=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        w = np.ones((2, 2, 3, 3))
        w[1, 0, 2, 2] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            RunStatistics(kind="bell", weights=w, samples=36)

    def test_empty_pair_probabilities_are_nan(self):
        # An empty pair divides 0 by 0 without a warning, as its correlation
        # does: alone, and in a sweep-like stack whose off-diagonal
        # steering pairs are never counted.
        stats = RunStatistics("bell", np.zeros((2, 2, 3, 3)), 10)
        assert np.isnan(stats.pair_probabilities(0, 0)).all()
        assert math.isnan(stats.pair(0, 0).correlation)
        w = np.zeros((4, 5, 3, 3, 3, 3))
        w[..., range(3), range(3), :, :] = 1.0
        stack = RunStatistics("steering", w, 9)
        assert np.isnan(stack.pair_probabilities(0, 1)).all()
        assert np.all(stack.pair_probabilities(1, 1) == 1.0 / 9.0)

    def test_steering_rejects_unmatched_choice_counts(self):
        """Steering reads matched pairs (j, j), so Ma must equal Mb; Bell
        reads every pair and takes any shape."""
        w = np.ones((2, 3, 3, 3))
        with pytest.raises(ValueError, match="matching choice counts"):
            RunStatistics(kind="steering", weights=w, samples=0)
        assert len(RunStatistics(kind="bell", weights=w, samples=0)
                   .reading_pairs()) == 6

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

    def test_efficiency_rejects_unknown_variant(self):
        w = np.ones((2, 2, 3, 3))
        stats = RunStatistics(kind="bell", weights=w, samples=36)
        assert stats.efficiency("bob") == stats.efficiency("alice")
        with pytest.raises(ValueError, match="'Alice'"):
            stats.efficiency("Alice")


# ---------------------------------------------------------------------------
# The one-table formulas, kept here as the oracle of the array statistics:
# each statistic of one (Ma, Mb, 3, 3) table, pair by pair, in Python
# scalars and small numpy sums.  The array path must give the same bits.
# ---------------------------------------------------------------------------

def oracle_pair(w, exact):
    """(correlation, stderr, coincidences, eta_alice, eta_bob, degenerate)."""
    coinc = w[np.ix_((0, 2), (0, 2))]
    n_c = coinc.sum()
    a_det = w[(0, 2), :].sum()
    b_det = w[:, (0, 2)].sum()
    if n_c <= 0.0:
        corr = se = math.nan
    else:
        corr = (coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0]) / n_c
        se = 0.0 if exact else math.sqrt(max(0.0, 1.0 - corr * corr) / n_c)
    return (corr, se, n_c, n_c / a_det if a_det > 0 else math.nan,
            n_c / b_det if b_det > 0 else math.nan, n_c <= 0.0)


def oracle_steering(weights, exact):
    m = weights.shape[0]
    total = var = 0.0
    empty_bins = False
    for j in range(m):
        registered = weights[j, j][:, (0, 2)]
        w_reg = registered.sum()
        if w_reg <= 0.0:
            empty_bins = True
            continue
        for s in range(3):
            n_s = registered[s].sum()
            if n_s <= 0.0:
                empty_bins = empty_bins or s != 1
                continue
            mean_b = (registered[s, 1] - registered[s, 0]) / n_s
            p_s = n_s / w_reg
            total += (1.0 / m) * p_s * mean_b ** 2
            if not exact:
                var_p = p_s * (1.0 - p_s) / w_reg
                var_m = max(0.0, 1.0 - mean_b ** 2) / n_s
                var += ((mean_b ** 2 / m) ** 2 * var_p
                        + (2.0 * p_s * mean_b / m) ** 2 * var_m)
    return total, math.sqrt(var), empty_bins


def oracle_statistics(kind, weights, exact):
    """(value, stderr, degenerate, eta_alice, eta_bob) of one table."""
    ma, mb = weights.shape[:2]
    pairs = ([(j, j) for j in range(ma)] if kind == "steering"
             else [(i, j) for i in range(ma) for j in range(mb)])
    etas = []
    for col in (3, 4):
        vals = [oracle_pair(weights[p], exact)[col] for p in pairs]
        etas.append(math.nan if all(math.isnan(v) for v in vals)
                    else float(np.nanmean(vals)))
    if kind == "steering":
        return (*oracle_steering(weights, exact), *etas)
    ps = [oracle_pair(weights[i, j], exact) for i in (0, 1) for j in (0, 1)]
    if any(p[5] for p in ps):
        return (math.nan, math.nan, True, *etas)
    s = ps[0][0] + ps[1][0] + ps[2][0] - ps[3][0]
    return (abs(s), math.sqrt(sum(p[1] ** 2 for p in ps)), False, *etas)


def oracle_tables(config, n_copies, q):
    """Exact tables of one (N, q): one ``tomography_pair_table`` per
    distinct |a.b|, Bob's trits reversed where a.b < 0."""
    out = np.zeros((len(config.alice_directions),
                    len(config.bob_directions), 3, 3))
    tables = {}
    for i, a in enumerate(config.alice_directions):
        for j, b in enumerate(config.bob_directions):
            ct = float(np.dot(a, b))
            if abs(ct) not in tables:
                tables[abs(ct)] = estimators.tomography_pair_table(
                    n_copies, q, a, -b if ct < 0 else b)
            out[i, j] = tables[abs(ct)][:, ::-1] if ct < 0 else tables[abs(ct)]
    return out


def same_bits(got, want):
    """Equal bits, NaN (of any sign or payload) at the same positions."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    nan = np.isnan(got)
    return np.array_equal(nan, np.isnan(want)) and \
        got[~nan].tobytes() == want[~nan].tobytes()


class TestArrayStatisticsOracle:
    """The array statistics equal the one-table formulas bit for bit, NaN
    positions included."""

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    @pytest.mark.parametrize("grid", ["default", "0.01"])
    def test_exact_curves(self, kind, grid):
        q_grid = (default_q_grid() if grid == "default"
                  else np.round(np.arange(100) * 0.01, 10))
        ns = [*range(1, 11), math.inf]
        curves = sweep_curves(kind, ns, q_grid, None)
        for n in ns:
            config = tomography_config(kind, n)
            want = []
            for q in q_grid:
                value, se, bad, eta, _ = oracle_statistics(
                    kind, oracle_tables(config, n, float(q)), True)
                want.append((eta, math.nan if bad else value,
                             math.nan if bad else se))
            got = [(p.eta, p.value, p.stderr) for p in curves[n]]
            assert same_bits(got, want), n

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_monte_carlo_curves(self, kind):
        grid = (0.6, 0.0, 0.3, 0.3, 0.95)
        ns = [1, 2, math.inf]
        curves = sweep_curves(kind, ns, grid, 20_001, seed=8)
        q_sorted, index = np.unique(grid, return_inverse=True)
        tables = estimators._tables(
            tomography_config(kind), tuple(ns), q_sorted, 20_001,
            pairs=estimators._reading_pairs(kind, 2 if kind == "bell" else 3,
                                            2 if kind == "bell" else 3),
            seed=8)
        for k, n in enumerate(ns):
            want = []
            for l in index:
                value, se, bad, eta, _ = oracle_statistics(
                    kind, tables[k, l].astype(float), False)
                want.append((eta, math.nan if bad else value,
                             math.nan if bad else se))
            got = [(p.eta, p.value, p.stderr) for p in curves[n]]
            assert same_bits(got, want), n

    @pytest.mark.parametrize("kind,shape", [("bell", (2, 2)), ("bell", (2, 3)),
                                            ("steering", (3, 3))])
    @pytest.mark.parametrize("exact", [False, True])
    def test_random_tables(self, kind, shape, exact):
        # Sparse tables, so that empty pairs and empty bins occur; counts,
        # or probabilities when exact.
        rng = np.random.default_rng(len(shape) + shape[1] + exact)
        w = rng.integers(0, 6, (40, 7, *shape, 3, 3)) \
            * (rng.random((40, 7, *shape, 3, 3)) < 0.4)
        w = w / w.sum(axis=(-2, -1), keepdims=True).clip(1) if exact \
            else w.astype(float)
        batch = RunStatistics(kind=kind, weights=w, samples=100, exact=exact)
        got = np.stack([*batch.value(), batch.efficiency("alice"),
                        batch.efficiency("bob")], axis=-1)
        assert got.shape == (40, 7, 5)
        pairs = [batch.pair(i, j) for i, j in np.ndindex(shape)]
        full = [batch.full_correlation(i, j) for i, j in np.ndindex(shape)]
        for b in np.ndindex(40, 7):
            want = oracle_statistics(kind, w[b], exact)
            assert same_bits(got[b], want), b
            for (i, j), p, f in zip(np.ndindex(shape), pairs, full):
                table = w[b][i, j]
                assert same_bits([x[b] for x in p],
                                 oracle_pair(table, exact)), (b, i, j)
                assert same_bits(f[b], _full_correlation(table))

    def test_one_table_gives_python_scalars(self):
        stats = enumerate_exact(tomography_config("steering", 2, 0.3))
        values = [*stats.value(), stats.efficiency("alice"),
                  stats.full_correlation(0, 0), *stats.pair(1, 1)]
        assert all(type(v) in (float, bool) for v in values)
        degenerate = RunStatistics(kind="bell", weights=np.zeros((2, 2, 3, 3)),
                                   samples=0)
        assert degenerate.chsh()[0] is math.nan
        assert degenerate.efficiency() is math.nan


def _full_correlation(w):
    coinc = w[np.ix_((0, 2), (0, 2))]
    num = coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0]
    den = w[:, (0, 2)].sum()
    return num / den if den > 0 else math.nan


class TestEstimateBell:
    def test_minimum_samples(self):
        # A float or None is named too; enumerate_exact is the exact twin.
        for samples, error in ((100, ValueError), (1e5, TypeError),
                               (None, TypeError)):
            with pytest.raises(error, match="samples"):
                estimate(ModelConfig(kind="simple-bell"), samples)

    @pytest.mark.parametrize("workers", [0, -2, 2.0])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(TypeError if isinstance(workers, float)
                           else ValueError, match="workers"):
            estimate(ModelConfig(kind="simple-bell"), 20_000,
                     workers=workers)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        error = TypeError if isinstance(seed, float) else ValueError
        with pytest.raises(error, match="seed"):
            estimate(ModelConfig(kind="simple-bell"), 20_000, seed=seed)
        with pytest.raises(error, match="seed"):
            sweep_curves("bell", [1], [0.0, 0.3], 20_000, seed=seed)

    def test_simple_bell_quantum_value(self):
        stats = estimate(ModelConfig(kind="simple-bell"), 400_000, seed=3)
        s, se, degenerate = stats.chsh()
        assert not degenerate
        assert abs(abs(s) - 2 * math.sqrt(2)) < 3 * se

    def test_chaotic_ball_zero_threshold(self):
        stats = estimate(tomography_config("bell", math.inf), 100_000,
                         seed=5)
        s, se, _ = stats.chsh()
        assert abs(abs(s) - 2.0) <= 3 * se + 1e-12

    def test_exact_agrees_with_mc(self):
        config = tomography_config("bell", 3, q=0.3)
        mc = estimate(config, 200_000, seed=7)
        exact = enumerate_exact(config)
        s_mc, se, _ = mc.chsh()
        s_ex, se_ex, _ = exact.chsh()
        assert se_ex == 0.0
        assert abs(s_mc - s_ex) < 3 * se


class TestRunMetadata:
    def test_default_seed(self):
        config = tomography_config("steering", 2, q=0.3)
        default = estimate(config, 2_000)
        assert np.array_equal(
            default.weights,
            estimate(config, 2_000, seed=DEFAULT_SEED).weights)
        assert sweep_curves("bell", [2], [0.0, 0.3], 2_000) == \
            sweep_curves("bell", [2], [0.0, 0.3], 2_000, seed=DEFAULT_SEED)


class TestEstimateSteering:
    def test_ideal_quantum_reference(self):
        from lrpovm.quantum import quantum_steering_T
        assert quantum_steering_T() == pytest.approx(1.0, abs=1e-12)

    def test_trusted_enumeration(self):
        stats = enumerate_exact(ModelConfig(kind="trusted-steering"))
        t, se, _ = stats.steering()
        assert (t, se) == (pytest.approx(1 / 3, abs=1e-12), 0.0)

    def test_mc_agrees_with_enumeration(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=2)
        mc = estimate(config, 200_000, seed=9)
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

    @pytest.mark.parametrize("n", [11, 20])
    def test_unanimity_beyond_ten_copies(self, n):
        # Closed form at any N: a distribution per pair, and every cell
        # within 6 sigma of a 2M-sample Monte Carlo frequency.
        config = ModelConfig(kind="ncopy-steering", n_copies=n)
        p = enumerate_exact(config).weights
        assert np.all(p >= 0.0)
        assert np.allclose(p.sum(axis=(2, 3)), 1.0, atol=1e-12)
        counts = estimate(config, 2_000_000, seed=43).weights
        total = counts.sum(axis=(2, 3), keepdims=True)
        assert np.all(np.abs(counts / total - p)
                      <= 6.0 * np.sqrt(p * (1.0 - p) / total))

    def test_simple_bell_efficiency(self):
        stats = enumerate_exact(ModelConfig(kind="simple-bell"))
        assert stats.efficiency("alice") == pytest.approx(0.5, abs=1e-15)


def band_nodes(axis, lo, hi, n_copies):
    """Nodes and weights on the band lo <= A.axis <= hi of the unit sphere
    that integrate every polynomial of degree <= N in A's components
    exactly: Gauss-Legendre in the polar cosine x (floor(N/2) + 2 nodes)
    times an (N+2)-point trapezoid in the azimuth.  All weights are >= 0.
    """
    x, wx = np.polynomial.legendre.leggauss(n_copies // 2 + 2)
    half = 0.5 * (hi - lo)
    xs, wxs = lo + half * (x + 1.0), half * wx
    phis = 2.0 * math.pi * np.arange(n_copies + 2) / (n_copies + 2)
    helper = np.eye(3)[0] if abs(axis[0]) < 0.9 else np.eye(3)[1]
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    ring = np.cos(phis)[:, None] * e1 + np.sin(phis)[:, None] * e2
    sx = np.sqrt(1.0 - xs * xs)
    nodes = xs[:, None, None] * axis + sx[:, None, None] * ring[None]
    weights = np.repeat(wxs * 2.0 * math.pi / (n_copies + 2), n_copies + 2)
    return nodes.reshape(-1, 3), weights


def dense_pair_table(n_copies, q, dir_a, dir_b):
    """Reference table, with neither symmetry of ``tomography_pair_table``.

    Finite N: the pair density ((N+1)/(16 pi^2)) ((1 - A.B)/2)^N is a
    polynomial of degree N in the components of A and of B, so the tensor
    product of ``band_nodes`` for the two parties integrates each cell
    exactly.  N = inf: ``shared_axis_table``.
    """
    table = np.zeros((3, 3))
    if n_copies != math.inf:
        n = int(n_copies)
        edges = [-1.0, -q, q, 1.0]
        bands = list(zip(edges, edges[1:]))
        for i, band_a in enumerate(bands):
            nodes_a, w_a = band_nodes(np.asarray(dir_a, float), *band_a, n)
            for j, band_b in enumerate(bands):
                nodes_b, w_b = band_nodes(np.asarray(dir_b, float), *band_b,
                                          n)
                density = ((1.0 - nodes_a @ nodes_b.T) / 2.0) ** n
                table[i, j] = w_a @ density @ w_b
        return (n + 1) / (16.0 * math.pi ** 2) * table
    return shared_axis_table(q, dir_a, dir_b)


def shared_axis_table(q, dir_a, dir_b):
    """N = inf (B = A) reference table by quadrature in A's polar angle u
    about a, independent of the lens formula.

    At each u the azimuthal fraction of b.A above a threshold t is an
    arccos; it has square-root kinks where the circle of A touches the
    cap edge of radius r = arccos(t) about b: at |theta - r|, theta + r
    and 2 pi - theta - r.  Split at those and at Alice's band edges, each
    piece is halved and each half mapped to u = end +- h v^2, which
    smooths the kink at its end, with 60 Gauss-Legendre nodes in v.
    """
    ct = float(np.clip(np.dot(dir_a, dir_b), -1.0, 1.0))
    theta, st = math.acos(ct), math.sqrt(1.0 - ct * ct)
    radii = (math.acos(q), math.acos(-q))
    cuts = {0.0, math.pi, *radii}
    for r in radii:
        cuts.update(k for k in (abs(theta - r), theta + r,
                                2.0 * math.pi - theta - r)
                    if 0.0 < k < math.pi)
    cuts = sorted(cuts)
    v, wv = np.polynomial.legendre.leggauss(60)
    v, wv = (v + 1.0) / 2.0, wv / 2.0
    table = np.zeros((3, 3))
    for u0, u1 in zip(cuts, cuts[1:]):
        h = (u1 - u0) / 2.0
        u = np.concatenate([u0 + h * v * v, u1 - h * v * v])
        # du = 2 h v dv; the uniform measure on the sphere is sin(u) du / 2.
        w = np.tile(2.0 * h * v * wv, 2) * np.sin(u) / 2.0
        mean, amp = ct * np.cos(u), st * np.sin(u)

        def above(t):
            with np.errstate(divide="ignore", invalid="ignore"):
                arc = np.arccos(np.clip((t - mean) / amp, -1.0, 1.0))
            return np.where(amp > 0.0, arc / math.pi, mean > t)

        p_plus, p_live = above(q), above(-q)
        x_mid = math.cos((u0 + u1) / 2.0)
        row = 2 if x_mid > q else 0 if x_mid < -q else 1
        table[row] += [w @ (1.0 - p_live), w @ (p_live - p_plus), w @ p_plus]
    return table


def random_tomography_config(n_copies, q, seed=3):
    """Random unit directions; Bob's third is minus his first, so a.b takes
    distinct values of both signs and one |a.b| repeats with a sign flip."""
    dirs = np.random.default_rng(seed).standard_normal((4, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return ModelConfig(kind="ncopy-tomography", n_copies=n_copies, q=q,
                       alice_directions=dirs[:2],
                       bob_directions=np.vstack([dirs[2:], -dirs[2]]))


# One finite-N oracle pair per q, alternating so that each N sees both:
# Bell (0, 0) has a.b < 0 (the mirrored table) and (1, 1) has a.b > 0;
# steering (0, 0) is parallel and (0, 1) orthogonal.
ORACLE_PAIRS = {"bell": [(0, 0), (1, 1)], "steering": [(0, 0), (0, 1)]}
ORACLE_Q = [0.0, 0.3, 0.9, 0.99]


class TestQuadratureOracle:
    @pytest.mark.parametrize("kind", ["bell", "steering"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 10, math.inf])
    @pytest.mark.parametrize("q", ORACLE_Q)
    def test_tables_match_dense_reference(self, kind, n, q):
        config = tomography_config(kind, n, q=q)
        tables = enumerate_exact(config).weights
        assert np.all(tables >= 0.0)
        pairs = (np.ndindex(tables.shape[:2]) if n == math.inf else
                 [ORACLE_PAIRS[kind][ORACLE_Q.index(q) % 2]])
        for i, j in pairs:
            ref = dense_pair_table(n, q, config.alice_directions[i],
                                   config.bob_directions[j])
            assert np.max(np.abs(tables[i, j] - ref)) <= 1e-14, (i, j)

    @pytest.mark.parametrize("n,q", [(3, 0.3), (math.inf, 0.6)])
    def test_random_directions_match_dense_reference(self, n, q):
        config = random_tomography_config(n, q)
        dots = config.alice_directions @ config.bob_directions.T
        assert np.any(dots < 0) and len(set(np.abs(dots).ravel())) == 4
        tables = enumerate_exact(config).weights
        for i, j in np.ndindex(tables.shape[:2]):
            ref = dense_pair_table(n, q, config.alice_directions[i],
                                   config.bob_directions[j])
            assert np.max(np.abs(tables[i, j] - ref)) <= 1e-14, (i, j)

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_large_n_tables_match_50_digit_sum(self, n):
        """Past N = 10 the dense reference grows too costly, so the
        Funk-Hecke sum is evaluated again at 50 digits: every cell within
        1e-14, at a = b, a = -b and two oblique pairs."""
        import mpmath
        mp = mpmath.mp.clone()
        mp.dps = 50

        def legendre(x):  # P_0 .. P_{N+1} by the mpf recurrence
            p = [mp.mpf(1), x]
            for l in range(2, n + 2):
                p.append(((2 * l - 1) * x * p[-1] - (l - 1) * p[-2]) / l)
            return p

        def band_integrals(lo, hi):  # F_l of [lo, hi], l = 0 .. N
            a, b = legendre(lo), legendre(hi)
            return [hi - lo] + [(b[l + 1] - b[l - 1] - a[l + 1] + a[l - 1])
                                / (2 * l + 1) for l in range(1, n + 1)]

        coef = [(-1) ** l * (2 * l + 1) * mp.factorial(n) ** 2
                / (mp.factorial(n - l) * mp.factorial(n + l + 1))
                for l in range(n + 1)]
        worst = 0.0
        for q in (0.0, 0.3, math.cos(math.pi / 8)):
            edges = [mp.mpf(-1), -mp.mpf(q), mp.mpf(q), mp.mpf(1)]
            bands = [band_integrals(lo, hi) for lo, hi in zip(edges, edges[1:])]
            dots = (1.0, -1.0, math.cos(math.pi / 4), 0.3)
            tables = models.tomography_tables(n, [q], dots)[0]
            for dot, table in zip(dots, tables):
                p = legendre(mp.mpf(dot))
                for i, j in np.ndindex(3, 3):
                    ref = (n + 1) / mp.mpf(4) * mp.fsum(
                        c * f * g * pl for c, f, g, pl
                        in zip(coef, bands[i], bands[j], p))
                    worst = max(worst, abs(float(table[i, j] - ref)))
        assert worst <= 1e-14

    def test_finite_n_table_memory_bounded(self):
        # A dense 3-D quadrature grid needed ~114 MB here.
        z, x = np.eye(3)[2], np.eye(3)[0]
        tracemalloc.start()
        try:
            estimators.tomography_pair_table(4, 0.3, z, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestClosedFormTables:
    @pytest.mark.parametrize("kind", ["bell", "steering"])
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_marginals_exact(self, kind, n, q):
        tables = enumerate_exact(tomography_config(kind, n, q=q)).weights
        expect = np.array([(1.0 - q) / 2.0, q, (1.0 - q) / 2.0])
        for i, j in np.ndindex(tables.shape[:2]):
            t = tables[i, j]
            assert np.max(np.abs(t.sum(axis=0) - expect)) <= 1e-14, (i, j)
            assert np.max(np.abs(t.sum(axis=1) - expect)) <= 1e-14, (i, j)
            assert abs(t.sum() - 1.0) <= 1e-14, (i, j)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_near_zero_cells_not_negative(self, n):
        # At q = 0.99 and a.b = 1 some cells are ~1e-19 in truth; the sum
        # rounds them below 0 unless they are set to 0.
        stats = enumerate_exact(tomography_config("steering", n, q=0.99))
        assert np.all(stats.weights >= 0.0)

    def test_pair_table_arguments_named(self):
        z, x = np.eye(3)[2], np.eye(3)[0]
        for q in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match="q must lie in"):
                estimators.tomography_pair_table(2, q, z, x)
        for n, error, message in (
                (-1, ValueError, "be >= 0, got -1"),
                (2.5, TypeError, r"be an integer, got 2\.5"),
                (math.nan, TypeError, "be an integer, got nan")):
            message = f"^n_copies must {message}$"
            with pytest.raises(error, match=message):
                estimators.tomography_pair_table(n, 0.3, z, x)
        for bad in (2 * x, np.full(3, math.nan)):
            with pytest.raises(ValueError, match="dir_b"):
                estimators.tomography_pair_table(2, 0.3, z, bad)
            with pytest.raises(ValueError, match="dir_a"):
                estimators.tomography_pair_table(2, 0.3, bad, z)
        # A matrix of unit rows is not one direction.
        rows = np.eye(3)[:2]
        for args, name in (((rows, rows), "dir_a"), ((z, rows), "dir_b")):
            message = rf"^{name} must be one 3-vector, got shape \(2, 3\)$"
            with pytest.raises(ValueError, match=message):
                estimators.tomography_pair_table(2, 0.3, *args)
        # N = 0 is the independent pair: every table is the product of the
        # marginals ((1-q)/2, q, (1-q)/2).
        m = np.array([0.35, 0.3, 0.35])
        assert np.allclose(estimators.tomography_pair_table(0, 0.3, z, x),
                           np.outer(m, m), atol=1e-14)

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 10, 50, math.inf])
    def test_pair_table_is_exact_tables_cell(self, kind, n):
        """One pair's table is its cell of the whole-config call, bit for
        bit, at every default-grid threshold."""
        config = tomography_config(kind)
        grid = default_q_grid()
        tables = models.exact_tables(config, grid, (n,))[0]
        for l, q in enumerate(grid):
            for i, a in enumerate(config.alice_directions):
                for j, b in enumerate(config.bob_directions):
                    cell = estimators.tomography_pair_table(n, q, a, b)
                    assert cell.tobytes() == tables[l, i, j].tobytes(), \
                        (l, i, j)

    @pytest.mark.parametrize("n", [60, 200, 1000])
    def test_large_n_tables_non_negative(self, n):
        z = np.eye(3)[2]
        for ct in np.linspace(-1.0, 1.0, 11):
            b = np.array([math.sqrt(1.0 - ct * ct), 0.0, ct])
            for q in np.linspace(0.0, 0.99, 12):
                t = estimators.tomography_pair_table(n, q, z, b)
                assert np.all(t >= 0.0), (ct, q)
                assert abs(t.sum() - 1.0) <= 1e-12, (ct, q)
        if n <= 100:
            for q, ct in [(0.3, 0.5), (0.99, 1.0)]:
                b = np.array([math.sqrt(1.0 - ct * ct), 0.0, ct])
                ref = dense_pair_table(n, q, z, b)
                t = estimators.tomography_pair_table(n, q, z, b)
                assert np.max(np.abs(t - ref)) <= 1e-14, (q, ct)


def exact_bell_point(n_copies, q):
    """(|S|, eta) of the exact tomography Bell model; None if degenerate."""
    stats = enumerate_exact(tomography_config("bell", n_copies, q=q))
    value, _, degenerate = stats.value()
    return None if degenerate else (value, stats.efficiency("alice"))


class TestChaoticBallTables:
    def test_larsson_bound(self):
        """No local model beats |S| <= 4/eta - 2 (Larsson, PRA 57, 3304,
        1998)."""
        for n in [*range(1, 11), math.inf]:
            for q in np.round(np.arange(96) * 0.01, 10):
                point = exact_bell_point(n, q)
                if point is not None:
                    value, eta = point
                    assert value <= 4.0 / eta - 2.0 + 1e-12, (n, q)

    def test_zero_threshold_touches_bound(self):
        value, eta = exact_bell_point(math.inf, 0.0)
        assert eta == 1.0 and abs(value - 2.0) <= 1e-12

    def test_quantum_value_crossing(self):
        """|S| reaches 2 sqrt(2) at eta = 0.822495 (q = 0.174544), below
        the Garg-Mermin efficiency 2(sqrt(2) - 1) = 0.828427."""
        lo, hi = 0.0, 0.5
        for _ in range(50):
            mid = (lo + hi) / 2.0
            if exact_bell_point(math.inf, mid)[0] < 2.0 * math.sqrt(2.0):
                lo = mid
            else:
                hi = mid
        eta = exact_bell_point(math.inf, lo)[1]
        assert abs(lo - 0.174544) <= 1e-6
        assert abs(eta - 0.822495) <= 1e-6
        assert eta < 2.0 * (math.sqrt(2.0) - 1.0)

    @pytest.mark.parametrize("q", [0.0, 0.074, 0.6])
    def test_parallel_and_antiparallel(self, q):
        z = np.eye(3)[2]
        diag = np.diag([(1.0 - q) / 2.0, q, (1.0 - q) / 2.0])
        assert np.array_equal(
            estimators.tomography_pair_table(math.inf, q, z, z), diag)
        assert np.array_equal(
            estimators.tomography_pair_table(math.inf, q, z, -z),
            diag[:, ::-1])

    def test_degenerate_geometry_non_negative(self):
        """Tangent cap edges (a.b = 2 q^2 - 1) and directions a rounding
        away from parallel lose half the digits of an arccos, which must
        not leave a negative cell."""
        z = np.eye(3)[2]
        for q, ct in [(0.9, np.nextafter(0.62, 1.0)), (0.75, 0.125),
                      (0.68, 1.0 - 2 ** -53)]:
            b = np.array([math.sqrt(1.0 - ct * ct), 0.0, ct])
            t = estimators.tomography_pair_table(math.inf, q, z, b)
            ref = shared_axis_table(q, z, b)
            assert np.all(t >= 0.0), (q, ct)
            assert np.max(np.abs(t - ref)) <= 1e-8, (q, ct)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 7 000 samples, so that 50 001 samples make seven chunks
    and an uneven 1 001-sample tail; calling it sets another size."""
    def resize(size):
        monkeypatch.setattr(estimators, "DEFAULT_CHUNK", size)
    resize(7_000)
    return resize


class TestParallelDeterminism:
    def test_worker_count_invariance(self, small_chunks):
        config = ModelConfig(kind="simple-bell")
        one = estimate(config, 50_000, seed=11, workers=1)
        three = estimate(config, 50_000, seed=11, workers=3)
        assert np.array_equal(one.weights, three.weights)

    def test_sweep_reproducible(self, small_chunks):
        a = sweep_curves("bell", [2], [0.0, 0.3], 20_000, seed=13)
        b = sweep_curves("bell", [2], [0.0, 0.3], 20_000, seed=13, workers=2)
        assert a == b

    def test_uneven_tail_estimate(self, small_chunks):
        config = tomography_config("steering", 3, q=0.2)
        one = estimate(config, 50_001, seed=41, workers=1)
        two = estimate(config, 50_001, seed=41, workers=2)
        assert np.array_equal(one.weights, two.weights)
        assert np.all(one.weights.sum(axis=(2, 3)) == 50_001)

    def test_uneven_tail_sweep(self, small_chunks):
        a = sweep_curves("bell", [2], [0.6, 0.0, 0.3], 50_001, seed=43)
        b = sweep_curves("bell", [2], [0.6, 0.0, 0.3], 50_001, seed=43,
                         workers=2)
        assert a == b


@pytest.fixture
def pools(monkeypatch):
    """Every pool the estimators build in the test, with no cached pool
    before or after it."""
    built = []

    class Counted(estimators.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with estimators._POOL_LOCK:
        estimators._drop_pool()
    monkeypatch.setattr(estimators, "ProcessPoolExecutor", Counted)
    yield built
    with estimators._POOL_LOCK:
        estimators._drop_pool()
    for pool in built:
        pool.shutdown()


@pytest.mark.usefixtures("small_chunks")
class TestProcessPool:
    """One pool per process, reused across calls; outputs never depend on
    which pool, or whether a pool, counted them."""

    CONFIG = tomography_config("steering", 3, q=0.2)

    def _tables(self, workers):
        return estimate(self.CONFIG, 50_001, seed=47,
                        workers=workers).weights

    def test_reused_across_calls(self, pools):
        serial = self._tables(1)
        assert not pools
        first = self._tables(2)
        curves = sweep_curves("bell", [2, math.inf], [0.0, 0.3], 20_000,
                              seed=13, workers=2)
        second = self._tables(2)
        assert len(pools) == 1
        assert serial.tobytes() == first.tobytes() == second.tobytes()
        assert curves == sweep_curves("bell", [2, math.inf], [0.0, 0.3],
                                      20_000, seed=13)

    def test_at_most_one_worker_per_chunk(self, pools):
        # 7 000 samples are one chunk, counted in this process whatever the
        # worker count; 20 000 are three, counted by three workers.
        for samples, workers in ((7_000, 4), (20_000, 8)):
            serial = estimate(self.CONFIG, samples, seed=47, workers=1)
            pooled = estimate(self.CONFIG, samples, seed=47, workers=workers)
            assert pooled.weights.tobytes() == serial.weights.tobytes()
        assert [pool._max_workers for pool in pools] == [3]

    def test_worker_count_change_replaces_pool(self, pools):
        serial = self._tables(1)
        assert self._tables(2).tobytes() == serial.tobytes()
        assert self._tables(3).tobytes() == serial.tobytes()
        assert len(pools) == 2
        # The replaced pool was shut down before the new one was built.
        with pytest.raises(RuntimeError, match="shutdown"):
            pools[0].submit(int)

    def test_killed_worker_rebuilds_pool(self, pools):
        serial = self._tables(1)
        assert self._tables(2).tobytes() == serial.tobytes()
        victim = pools[0].submit(os.getpid).result()
        os.kill(victim, signal.SIGKILL)
        # The pool reaps the worker once it has marked itself broken.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "killed worker not reaped"
            time.sleep(0.01)
        assert self._tables(2).tobytes() == serial.tobytes()
        assert len(pools) == 2
        assert self._tables(2).tobytes() == serial.tobytes()
        assert len(pools) == 2

    def test_forked_child_builds_own_pool(self, pools):
        serial = self._tables(1)
        assert self._tables(2).tobytes() == serial.tobytes()
        # Fork while this thread holds the pool lock, as a thread inside
        # another call would: the child must get a fresh lock and no pool,
        # build its own and leave the parent's running.  The parent's pool
        # thread is alive at the fork (Python >= 3.12 warns).
        with estimators._POOL_LOCK, warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fresh = estimators._POOL is None
                    same = self._tables(2).tobytes() == serial.tobytes()
                    code = 0 if fresh and same and len(pools) == 2 else 1
                finally:
                    try:  # reap the child's own workers
                        with estimators._POOL_LOCK:
                            estimators._drop_pool()
                    finally:
                        os._exit(code)
        deadline = time.monotonic() + 30.0
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child blocked")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert len(pools) == 1
        assert pools[0].submit(int).result() == 0
        assert self._tables(2).tobytes() == serial.tobytes()
        assert len(pools) == 1

    def test_concurrent_threads_share_pool(self, pools):
        # Calls from two threads at once run one at a time on one pool.
        serial = self._tables(1)
        results = [None, None]

        def run(i):
            results[i] = self._tables(2)
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [r.tobytes() for r in results] == [serial.tobytes()] * 2
        assert len(pools) == 1


def _reference_pairs(n_copies, gen, size):
    """The chunk's direction pairs from the public sphere sampler."""
    if n_copies == math.inf:
        a = sample_pair(0, gen, size)[0]
        return a, a
    return sample_pair(n_copies, gen, size)


@functools.lru_cache(maxsize=None)
def _reference_sweep_tables(kind, n_copies, q_grid, samples, seed, chunk):
    """Per-threshold trit tables by plain comparison, one q at a time, on
    the pairs ``assert_read_pairs_match`` reads (the matched (j, j) for
    steering); the other tables are zero.

    Memoised: the single-N and the several-N oracle tests read the same
    references."""
    config = tomography_config(kind, n_copies)
    sizes = [chunk] * (samples // chunk) + (
        [samples % chunk] if samples % chunk else [])
    draws = [_reference_pairs(n_copies, rng_stream(seed, index), size)
             for index, size in enumerate(sizes)]
    proj_a = np.concatenate([a for a, _ in draws]) @ config.alice_directions.T
    proj_b = np.concatenate([b for _, b in draws]) @ config.bob_directions.T
    ma, mb = proj_a.shape[1], proj_b.shape[1]
    read = [(j, j) for j in range(ma)] if kind == "steering" \
        else list(np.ndindex(ma, mb))
    tables = []
    for q in q_grid:
        trit_a = np.where(proj_a > q, 2, np.where(proj_a < -q, 0, 1))
        trit_b = np.where(proj_b > q, 2, np.where(proj_b < -q, 0, 1))
        counts = np.zeros((ma, mb, 3, 3), dtype=np.int64)
        for i, j in read:
            counts[i, j] = np.bincount(3 * trit_a[:, i] + trit_b[:, j],
                                       minlength=9).reshape(3, 3)
        tables.append(counts)
    return tuple(tables)


ORACLE_GRIDS = [
    (0.0, 0.3, 0.6, 0.95), (0.6, 0.0, 0.3, 0.3, 0.95),
    tuple(default_q_grid()),
    (0.5, 1 / 1024, np.nextafter(0.5, 1.0), np.nextafter(1 / 1024, 0.0),
     0.5, 0.0, np.nextafter(1023 / 1024, 1.0))]
ORACLE_GRID_IDS = ["sorted", "unsorted", "default", "adversarial"]
MULTI_N = [1, 2, 5, math.inf]


def assert_read_pairs_match(kind, got, want):
    """A sweep's table equals the reference on every reading pair its
    statistic reads, bit for bit, and is exactly zero on the others: a
    steering sweep counts only the matched pairs (j, j)."""
    ma, mb = got.shape[:2]
    read = np.eye(ma, mb, dtype=bool) if kind == "steering" \
        else np.ones((ma, mb), dtype=bool)
    assert np.array_equal(got[read], want[read])
    assert not np.any(got[~read])


def point_tables(weights, grid):
    """Each copy count's tables in ``grid`` order, from the one (K, L, Ma,
    Mb, 3, 3) array a sweep reduces, whose L runs over the sorted distinct
    thresholds."""
    _, index = np.unique(np.asarray(grid, float), return_inverse=True)
    return [[per_n[k] for k in index] for per_n in weights]


class TestSweepKernelOracle:
    """Sweep count tables equal a per-threshold reference count on the
    pairs the sweep reads."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_GRID_IDS)
    @pytest.mark.parametrize("seed", [12345, 7, 1])
    @pytest.mark.parametrize("n_copies", [1, 2, math.inf])
    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_tables_match_reference(self, monkeypatch, small_chunks, kind,
                                    n_copies, seed, grid):
        seen = []

        class Recording(RunStatistics):
            def __post_init__(self):
                super().__post_init__()
                seen.append(self.weights)

        monkeypatch.setattr(estimators, "RunStatistics", Recording)
        points = sweep_curves(kind, [n_copies], grid, 50_001,
                              seed=seed)[n_copies]
        expected = _reference_sweep_tables(kind, n_copies, grid, 50_001,
                                           seed, 7_000)
        assert [p.q for p in points] == list(grid)
        assert len(seen) == 1
        (got,) = point_tables(seen[0], grid)
        assert len(got) == len(grid)
        for table, want in zip(got, expected):
            assert_read_pairs_match(kind, table, want)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_GRID_IDS)
    @pytest.mark.parametrize("seed", [12345, 7, 1])
    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_copy_counts_in_one_pass(self, monkeypatch, small_chunks, kind,
                                     seed, grid):
        """One sweep over several copy counts gives each N the tables of
        the reference count of that N alone."""
        seen = []

        class Recording(RunStatistics):
            def __post_init__(self):
                super().__post_init__()
                seen.append(self.weights)

        monkeypatch.setattr(estimators, "RunStatistics", Recording)
        curves = sweep_curves(kind, MULTI_N, grid, 50_001, seed=seed)
        assert list(curves) == MULTI_N
        assert len(seen) == 1
        tables = point_tables(seen[0], grid)
        assert len(tables) == len(MULTI_N)
        for k, n in enumerate(MULTI_N):
            assert [p.q for p in curves[n]] == list(grid)
            assert all(p.n_copies == n for p in curves[n])
            expected = _reference_sweep_tables(kind, n, grid, 50_001, seed,
                                               7_000)
            for table, want in zip(tables[k], expected):
                assert_read_pairs_match(kind, table, want)

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_fine_grid(self, monkeypatch, small_chunks, kind):
        """A grid of 60 thresholds, whose joint-level histograms have more
        cells than a block has rows, is counted as the reference counts
        it, block by block as on the default grid."""
        seen = []

        class Recording(RunStatistics):
            def __post_init__(self):
                super().__post_init__()
                seen.append(self.weights)

        monkeypatch.setattr(estimators, "RunStatistics", Recording)
        grid = tuple(np.round(np.linspace(0.0, 0.98, 60), 10).tolist())
        n_copies = [2, math.inf]
        sweep_curves(kind, n_copies, grid, 50_001, seed=3)
        for n, tables in zip(n_copies, point_tables(seen[0], grid)):
            expected = _reference_sweep_tables(kind, n, grid, 50_001, 3,
                                               7_000)
            for table, want in zip(tables, expected):
                assert_read_pairs_match(kind, table, want)

    @pytest.mark.parametrize("pairs", [[(1, 0)], [(0, 1), (1, 1)]])
    def test_pairs_skipping_an_alice_direction(self, pairs):
        """A pair list that leaves out an Alice direction counts its pairs
        as the every-pair count does, and leaves the other tables zero."""
        config = tomography_config("bell", 2)
        grid = (0.0, 0.3, 0.6)
        n_copies = (2, math.inf)
        got, want = (models.count_tables(config, rng_stream(5, 1), 20_005,
                                         grid, n_copies, p, Workspace())
                     for p in (pairs, None))
        read = np.zeros((2, 2), dtype=bool)
        read[tuple(zip(*pairs))] = True
        assert np.array_equal(got[:, :, read], want[:, :, read])
        assert not np.any(got[:, :, ~read])
        assert np.all(want[:, :, read].sum(axis=(-2, -1)) == 20_005)

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_copy_counts_worker_invariance(self, small_chunks, kind):
        grid = (0.6, 0.0, 0.3, 0.3, 0.95)
        one = sweep_curves(kind, MULTI_N, grid, 50_001, seed=43)
        two = sweep_curves(kind, MULTI_N, grid, 50_001, seed=43, workers=2)
        assert one == two


class TestEstimateCountsEveryPair:
    def test_steering_estimate_tables_match_sample_batch(self, small_chunks):
        """A steering estimate counts all nine (i, j) pairs, which
        ``lrpovm steer --out`` writes, not only the matched pairs a sweep
        reads: every table equals the count of ``sample_batch``'s trits
        drawn from the same chunk streams."""
        config = tomography_config("steering", math.inf, q=0.3)
        stats = estimate(config, 50_001, seed=17)
        batches = [sample_batch(config, rng_stream(17, index), size)
                   for index, size in enumerate([7_000] * 7 + [1_001])]
        alice = np.concatenate([b.alice for b in batches]) + 1
        bob = np.concatenate([b.bob for b in batches]) + 1
        want = np.zeros((3, 3, 3, 3), dtype=np.int64)
        for i in range(3):
            for j in range(3):
                np.add.at(want[i, j], (alice[:, i], bob[:, j]), 1)
        off = ~np.eye(3, dtype=bool)
        assert np.all(want[off].sum(axis=(1, 2)) == 50_001)
        assert np.array_equal(stats.weights, want)


UNANIMITY_CONFIGS = {
    "simple-bell": dict(kind="simple-bell"),
    "bell-2x3": dict(kind="simple-bell",
                     bob_directions=quantum.STEERING_TRIPLE),
    "trusted-M2": dict(kind="trusted-steering", m_choices=2),
    "trusted-M3": dict(kind="trusted-steering", m_choices=3),
    **{f"ncopy-N{n}": dict(kind="ncopy-steering", n_copies=n, m_choices=3)
       for n in (1, 2, 3, 7)}}


def copywise_cell_batch(config, gen, n):
    """Unanimity pick-cell indices, one reading per copy, in the sampler's
    draw order: picks, then each copy's sign, then each copy's match.

    The cell ((pick_a Mb + pick_b) 3 + a + 1) 3 + b + 1 is one-to-one in
    (pick_a, pick_b, a, b), so it checks picks and trits exactly."""
    table = -config.alice_directions @ config.bob_directions.T
    ma, mb = table.shape
    pick_a = gen.integers(0, ma, n)
    pick_b = gen.integers(0, mb, n)
    p_same = (1.0 + table[pick_a, pick_b]) / 2.0
    alice = 2 * gen.integers(0, 2, (n, config.n_copies)) - 1
    bob = np.where(gen.random((n, config.n_copies)) < p_same[:, None],
                   alice, -alice)
    a_val = np.where((alice == alice[:, :1]).all(axis=1), alice[:, 0], 0)
    b_val = np.where((bob == bob[:, :1]).all(axis=1), bob[:, 0], 0)
    return ((pick_a * mb + pick_b) * 3 + a_val + 1) * 3 + b_val + 1


class TestPickCountOracle:
    """Pick-histogram tables equal the level kernel over scattered trits.

    The sizes leave a last block of 1, 7, 1695, BLOCK and BLOCK + 1
    rows."""

    @pytest.mark.parametrize("seed", [12345, 7, 1])
    @pytest.mark.parametrize("name", sorted(UNANIMITY_CONFIGS))
    def test_picks_match_copywise_reference(self, name, seed):
        config = ModelConfig(**UNANIMITY_CONFIGS[name])
        for size in (1, 7, 99_999, 131_072, 2 * BLOCK + 1):
            got = unanimity_cell_batch(config, rng_stream(seed, 3),
                                       size, Workspace())
            want = copywise_cell_batch(config, rng_stream(seed, 3), size)
            assert np.array_equal(got, want), size

    @pytest.mark.parametrize("seed", [12345, 7, 1])
    @pytest.mark.parametrize("name", sorted(UNANIMITY_CONFIGS))
    def test_tables_match_level_kernel(self, name, seed):
        config = ModelConfig(**UNANIMITY_CONFIGS[name])
        for size in (1, 7, 99_999, 131_072, 2 * BLOCK + 1):
            got = estimators._count_chunk(
                (config, (config.n_copies,), (config.q,), None, seed, 3,
                 size))[0, 0]
            batch = sample_batch(config, rng_stream(seed, 3), size)
            counter = models._LevelCounter(
                1, (config.n_copies,), batch.alice.shape[1],
                batch.bob.shape[1], None, Workspace())
            for rows in blocks(size):
                counter(rows, 0, batch.alice[rows], batch.bob[rows])
            want = counter.tables()[0, 0]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), size


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi^2(df): the regularised upper incomplete gamma
    Q(df/2, x/2), from its series below a + 1 and its continued fraction
    (modified Lentz) above.  Within 5e-15 of scipy's for df 1..8."""
    a, x = df / 2.0, x / 2.0
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - front * total
    b = x + 1.0 - a
    c, d = 1e300, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return front * h


def g_test(counts: np.ndarray, probs: np.ndarray) -> float:
    """p of the G-test of a table of counts against cell probabilities,
    the cells of expected count below 5 pooled into one."""
    expected = probs * counts.sum()
    small = expected < 5.0
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0.0
    observed, expected = observed[keep], expected[keep]
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen]
                           * np.log(observed[seen] / expected[seen])))
    return chi2_sf(g, observed.size - 1)


def ks_uniform_p(p_values) -> float:
    """Asymptotic Kolmogorov-Smirnov p of p-values against U(0, 1)."""
    p = np.sort(p_values)
    n = p.size
    k = np.arange(1, n + 1)
    d = max(np.max(k / n - p), np.max(p - (k - 1) / n))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return min(1.0, max(0.0, 2.0 * sum(
        (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        for j in range(1, 101))))


def random_unanimity_configs(geometry_seed: int) -> list[ModelConfig]:
    """Seven unanimity models at random unit directions, each also with
    its first pair forced to a = b and to a = -b."""
    rng = np.random.default_rng(geometry_seed)
    configs = []
    for kind, m, n in [("simple-bell", 2, 1), ("trusted-steering", 2, 1),
                       ("trusted-steering", 3, 1), ("ncopy-steering", 2, 2),
                       ("ncopy-steering", 3, 3), ("ncopy-steering", 2, 5),
                       ("ncopy-steering", 3, 1)]:
        dirs = rng.normal(size=(2, m, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        for force in (None, 1.0, -1.0):
            alice, bob = dirs.copy()
            if force is not None:
                alice[0] = force * bob[0]
            kwargs = {} if kind == "simple-bell" else {"m_choices": m}
            configs.append(ModelConfig(kind=kind, n_copies=n, **kwargs,
                                       alice_directions=alice,
                                       bob_directions=bob))
    return configs


class TestUnanimityGoodnessOfFit:
    """Monte Carlo counts against the exact tables at random geometry.

    Gate, fixed before any run: over geometry seeds 1-4 there are 84
    configs and 516 pair tables, each of 200 000 samples G-tested against
    ``enumerate_exact``; the least p must reach the Bonferroni bound
    0.01 / 516 of a family alpha of 0.01, and any count in a cell of
    probability 0 fails.  The KS uniformity of the p-values is reported
    in the message but not gated: the G-test's small-count asymptotics
    bend it on an honest run.
    """

    SAMPLES = 200_000

    def test_counts_fit_exact_tables(self):
        p_values, zero_cell_counts = [], []
        configs = [c for seed in range(1, 5)
                   for c in random_unanimity_configs(seed)]
        for index, config in enumerate(configs):
            counts = estimate(config, self.SAMPLES, seed=index).weights
            probs = enumerate_exact(config).weights
            for i, j in np.ndindex(counts.shape[:2]):
                if np.any(counts[i, j][probs[i, j] == 0.0] > 0):
                    zero_cell_counts.append((index, i, j))
                p_values.append(g_test(counts[i, j], probs[i, j]))
        tests = len(p_values)
        assert (len(configs), tests) == (84, 516)
        report = (f"min p {min(p_values):.3g} over {tests} tests, KS "
                  f"uniformity p {ks_uniform_p(p_values):.3g}")
        assert not zero_cell_counts, report
        assert min(p_values) >= 0.01 / tests, report


def random_tomography_configs(geometry_seed: int) -> list[ModelConfig]:
    """Thirty tomography models at random unit directions, alternately
    2 x 2 (a Bell run) and 3 x 3 (a steering run), with N drawn from
    {1, 2, 3, 5, 8, inf} and q from [0, 0.95).  In every sixth one the
    first pair is forced, in turn, to a = b, to a = -b, or to caps whose
    edges touch, q = cos(theta/2) for the angle theta between a and b."""
    rng = np.random.default_rng(geometry_seed)
    configs = []
    for i in range(30):
        m = 2 + i % 2
        alice, bob = rng.normal(size=(2, m, 3))
        alice /= np.linalg.norm(alice, axis=-1, keepdims=True)
        bob /= np.linalg.norm(bob, axis=-1, keepdims=True)
        n = [1, 2, 3, 5, 8, math.inf][rng.integers(6)]
        q = rng.uniform(0.0, 0.95)
        force = "none" if i % 6 else ("same", "opposite", "touch")[i // 6 % 3]
        if force == "same":
            alice[0] = bob[0]
        elif force == "opposite":
            alice[0] = -bob[0]
        elif force == "touch":
            q = math.cos(math.acos(np.clip(alice[0] @ bob[0], -1.0, 1.0)) / 2)
        configs.append(ModelConfig(
            kind="chaotic-ball" if n == math.inf else "ncopy-tomography",
            n_copies=n, q=q, alice_directions=alice, bob_directions=bob))
    return configs


class TestTomographyGoodnessOfFit:
    """Monte Carlo counts against the exact tables at random geometry.

    Gate, fixed before any run: over geometry seeds 1-2 there are 60
    configs and 390 pair tables, each of 200 000 samples G-tested against
    ``enumerate_exact``; the least p must reach the Bonferroni bound
    0.01 / 390 of a family alpha of 0.01, and any count in a cell of
    probability 0 fails.  The KS uniformity of the p-values is reported
    in the message but not gated.
    """

    SAMPLES = 200_000

    def test_counts_fit_exact_tables(self):
        p_values, zero_cell_counts = [], []
        for geometry_seed in (1, 2):
            for i, config in enumerate(
                    random_tomography_configs(geometry_seed)):
                counts = estimate(config, self.SAMPLES,
                                  seed=1000 * geometry_seed + i).weights
                probs = enumerate_exact(config).weights
                for a, b in np.ndindex(counts.shape[:2]):
                    if np.any(counts[a, b][probs[a, b] == 0.0] > 0):
                        zero_cell_counts.append((geometry_seed, i, a, b))
                    p_values.append(g_test(counts[a, b], probs[a, b]))
        tests = len(p_values)
        assert tests == 390
        report = (f"min p {min(p_values):.3g} over {tests} tests, KS "
                  f"uniformity p {ks_uniform_p(p_values):.3g}")
        assert not zero_cell_counts, report
        assert min(p_values) >= 0.01 / tests, report


@pytest.fixture
def fresh_workspace(monkeypatch):
    """A new, empty chunk workspace for this thread, restored afterwards."""
    ws = Workspace()
    monkeypatch.setattr(estimators._CHUNK_WORKSPACE, "workspace", ws)
    return ws


def chunk_peak(config, q_sorted=None, n_copies=None) -> int:
    """Peak bytes of one DEFAULT_CHUNK-sample chunk, workspace included.

    The grid and copy counts default to the config's own q and N, the
    point estimate's.  The first call sizes the chunk workspace; the
    second is traced, and the workspace's bytes held before it are added
    to its tracemalloc peak.  Start from a fresh workspace (the
    ``fresh_workspace`` fixture) so that it holds this config's need alone.
    """
    task = (config, (config.n_copies,) if n_copies is None else n_copies,
            (config.q,) if q_sorted is None else q_sorted, None, 5, 0,
            estimators.DEFAULT_CHUNK)
    estimators._count_chunk(task)
    held = estimators._CHUNK_WORKSPACE.workspace.nbytes
    tracemalloc.start()
    try:
        estimators._count_chunk(task)
        return held + tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


POINT_CONFIGS = {
    "simple-bell": lambda: ModelConfig(kind="simple-bell"),
    "trusted-steering": lambda: ModelConfig(kind="trusted-steering",
                                            m_choices=3),
    "ncopy-steering-N3": lambda: ModelConfig(kind="ncopy-steering",
                                             n_copies=3, m_choices=3),
    "tomography-bell-N4": lambda: tomography_config("bell", 4, q=0.3),
    "chaotic-ball-steering": lambda: tomography_config("steering", math.inf,
                                                       q=0.3)}


def chunk_workspace(monkeypatch, config, n_copies) -> int:
    """Bytes of a fresh chunk workspace once it has served one default-grid
    chunk of ``config`` at ``n_copies``."""
    ws = Workspace()
    monkeypatch.setattr(estimators._CHUNK_WORKSPACE, "workspace", ws)
    chunk_peak(config, default_q_grid(), n_copies)
    return ws.nbytes


@pytest.mark.usefixtures("fresh_workspace")
class TestChunkMemory:
    """One chunk allocates no more than its measured peak, plus about 2%.

    The peaks, measured by ``chunk_peak`` (second call, seed 5), are
    5 867 866 B for tomography Bell N = 4 at q = 0.3, 6 910 763 B for it
    on the default grid, 1 960 580 B for ncopy-steering N = 3, 4 111 937 B
    for a chaotic-ball steering point chunk, 8 137 939 B for a steering
    N = 2 chunk on the default grid, and 11 623 231 B and 8 459 653 B for
    steering and Bell chunks of N = 1..10 and inf on it.  Of these the
    workspace is 5.79, 6.32, 1.76, 4.04, 6.81, 6.81 and 6.32 MB: a
    tomography chunk holds A's normal rows and the opening uniforms u at
    full size and everything else in blocks, so its workspace does not
    grow with the number of copy counts; only the histograms, one per
    counted (copy count, reading pair), do.
    """

    def test_tomography_bell_point(self):
        assert chunk_peak(tomography_config("bell", 4, q=0.3)) <= 6_000_000

    def test_tomography_bell_sweep(self):
        assert chunk_peak(tomography_config("bell", 4),
                          default_q_grid()) <= 7_050_000

    def test_ncopy_steering(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=3, m_choices=3)
        assert chunk_peak(config) <= 2_000_000

    def test_chaotic_ball_steering_point(self):
        config = tomography_config("steering", math.inf, q=0.3)
        assert chunk_peak(config) <= 4_200_000

    def test_tomography_steering_sweep(self):
        assert chunk_peak(tomography_config("steering", 2),
                          default_q_grid()) <= 8_300_000

    def test_steering_sweep_many_copy_counts(self, monkeypatch):
        """One chunk of N = 1..10 and inf holds the workspace of an N = 2
        chunk; only its histograms grow with the copy counts."""
        config = tomography_config("steering", 2)
        many = (*range(1, 11), math.inf)
        assert chunk_peak(config, default_q_grid(), many) <= 11_850_000
        assert chunk_workspace(monkeypatch, config, many) \
            == chunk_workspace(monkeypatch, config, (2,))

    def test_bell_sweep_many_copy_counts(self, monkeypatch):
        config = tomography_config("bell", 2)
        many = (*range(1, 11), math.inf)
        assert chunk_peak(config, default_q_grid(), many) <= 8_650_000
        assert chunk_workspace(monkeypatch, config, many) \
            == chunk_workspace(monkeypatch, config, (2,))

    def test_repeated_chunk_reuses_workspace(self, fresh_workspace):
        """A chunk run again takes its arrays from the kept arena, so it
        makes no fresh pages: at most 16 minor faults a call.  Fresh
        arrays in place of the arena make 1 488 a call in the steering
        sweep chunk alone, and 1 072, 149 and 267 in the three chunks
        here, one after another; the Bell sweep and ncopy-steering chunks
        alone read 0 even then, as the allocator reuses their freed
        pages."""
        grid = default_q_grid()
        tasks = [(tomography_config("bell"), (2, math.inf), grid,
                  estimators._reading_pairs("bell", 2, 2), 5, 0,
                  estimators.DEFAULT_CHUNK),
                 (tomography_config("steering"), (2, math.inf), grid,
                  estimators._reading_pairs("steering", 3, 3), 5, 0,
                  estimators.DEFAULT_CHUNK),
                 (ModelConfig(kind="ncopy-steering", n_copies=3), (3,),
                  (0.0,), None, 5, 0, estimators.DEFAULT_CHUNK)]
        for task in tasks * 2:
            estimators._count_chunk(task)
        for task in tasks:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            estimators._count_chunk(task)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert faults - before <= 16, task[0].kind

    def test_workspace_shared_across_configs(self, monkeypatch):
        """The five point configs in turn leave one workspace, no larger
        than the largest single config's need."""
        def run(config):
            estimators._count_chunk((config, (config.n_copies,),
                                     (config.q,), None, 5, 0,
                                     estimators.DEFAULT_CHUNK))

        single = {}
        for name, make in POINT_CONFIGS.items():
            ws = Workspace()
            monkeypatch.setattr(estimators._CHUNK_WORKSPACE, "workspace", ws)
            run(make())
            run(make())
            single[name] = ws.nbytes
        shared = Workspace()
        monkeypatch.setattr(estimators._CHUNK_WORKSPACE, "workspace", shared)
        for _ in range(2):
            for make in POINT_CONFIGS.values():
                run(make())
        assert min(single.values()) > 0
        assert shared.nbytes <= max(single.values())


class TestThreadWorkspaces:
    def test_concurrent_threads_match_serial(self, small_chunks):
        """Each thread counts in its own workspace, so estimates run on
        more threads than cores equal the serial ones."""
        small_chunks(4_000)
        configs = [make() for make in POINT_CONFIGS.values()] * 2
        serial = [estimate(c, 30_001, seed=9).weights for c in configs]
        threaded = [None] * len(configs)

        def run(k):
            threaded[k] = estimate(configs[k], 30_001, seed=9).weights

        # Daemon threads, so that a thread stuck on a corrupted workspace
        # fails the test instead of hanging it.
        threads = [threading.Thread(target=run, args=(k,), daemon=True)
                   for k in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(threaded, serial):
            assert got is not None and np.array_equal(got, want)


class TestStderrScaling:
    def test_inverse_sqrt_samples(self):
        config = ModelConfig(kind="simple-bell")
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
        pts = sweep_curves("bell", [2], [0.0, 0.3, 0.6], 20_000, seed=17)[2]
        assert pts[0].eta == 1.0
        assert [p.q for p in pts] == [0.0, 0.3, 0.6]

    def test_eta_monotone_via_shared_draws(self):
        pts = sweep_curves("bell", [1], [0.0, 0.2, 0.4, 0.8], 20_000,
                           seed=19)[1]
        etas = [p.eta for p in pts]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_degenerate_points_are_nan(self):
        pts = sweep_curves("bell", [math.inf], [0.0, 0.95], 20_000,
                           seed=23)[math.inf]
        assert math.isnan(pts[1].value)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            sweep_curves("bell", [1], [0.0, 1.0], 20_000)

    def test_nan_grid_rejected(self):
        with pytest.raises(ValueError, match="q_grid"):
            sweep_curves("bell", [1], [0.0, math.nan], 20_000)

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(ValueError, match="q_grid"):
            sweep_curves("bell", [1], [[0.0, 0.3], [0.6, 0.9]], 20_000)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="q_grid"):
            sweep_curves("bell", [1], [], 20_000)

    @pytest.mark.parametrize("workers", [0, -2, 2.0])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(TypeError if isinstance(workers, float)
                           else ValueError, match="workers"):
            sweep_curves("bell", [1], [0.0, 0.3], 20_000, workers=workers)

    @pytest.mark.parametrize("arg", ["samples", "workers"])
    def test_empty_copy_counts_checked(self, arg):
        # The run arguments are checked before an empty sweep returns {},
        # a float is named too, and an exact sweep checks workers.
        good = {"samples": 20_000, "workers": 1}
        assert sweep_curves("bell", [], **good) == {}
        with pytest.raises(ValueError, match=arg):
            sweep_curves("bell", [], **{**good, arg: 0})
        with pytest.raises(TypeError, match=arg):
            sweep_curves("bell", [1], [0.0, 0.3],
                         **{**good, arg: float(good[arg])})
        if arg != "samples":
            with pytest.raises(ValueError, match=arg):
                sweep_curves("bell", [], **{**good, "samples": None, arg: 0})

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    def test_exact_sweep_is_enumerate_exact(self, monkeypatch, kind):
        # samples=None draws nothing, and every point is that of
        # enumerate_exact at its (N, q), bit for bit (NaN included).
        def no_draw(task):
            raise AssertionError("an exact sweep drew Monte Carlo samples")
        monkeypatch.setattr(estimators, "_count_chunk", no_draw)

        def as_bytes(points):
            return np.array([dataclasses.astuple(p) for p in points],
                            dtype=float).tobytes()
        def enumerated(n, q):
            stats = enumerate_exact(tomography_config(kind, n, q))
            value, stderr, degenerate = stats.value()
            if degenerate:
                value = stderr = math.nan
            return CurvePoint(n, q, stats.efficiency("alice"), value, stderr,
                              0)
        ns, grid = [1, 2, 10, math.inf], default_q_grid()
        curves = sweep_curves(kind, ns, grid, None)
        assert list(curves) == ns
        for n in ns:
            assert as_bytes(curves[n]) == as_bytes(
                [enumerated(n, q) for q in grid])
        with pytest.raises(ValueError, match="samples"):
            sweep_curves(kind, ns, grid, 0)
        assert sweep_curves(kind, [], samples=None) == {}
        with pytest.raises(ValueError, match="q_grid"):
            sweep_curves(kind, [], [math.nan], samples=None)

    def test_no_alice_detection_point_is_nan_without_warning(self):
        # Just below q = 1 no reading pair has an Alice detection.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = sweep_curves("bell", [1], [0.0, np.nextafter(1, 0)],
                               50_001, seed=1)[1]
        assert pts[0].eta == 1.0
        assert math.isnan(pts[1].eta) and math.isnan(pts[1].value)

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

    def test_nan_eta_named(self):
        with pytest.raises(ValueError, match="eta"):
            frontier_value(self._toy_curve(), math.nan)


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
        # Checked before the early return below the bound, too.
        with pytest.raises(ValueError, match="kind"):
            min_copies(0.30, 0.50, "foo", 5, curves={})
        for n_max, error in ((0, ValueError), (-3, ValueError),
                             (3.5, TypeError)):
            with pytest.raises(error, match="n_max"):
                min_copies(0.30, 0.50, "steering", n_max, curves={})

    @pytest.mark.parametrize("kind,value,eta,expected", [
        ("steering", 0.34, 0.85, 4), ("steering", 0.40, 0.70, 3),
        ("steering", 0.50, 0.45, 4), ("bell", 2.5, 0.6, 4),
        ("bell", 2.2, 0.8, 6), ("bell", 2.9, 0.5, 4), ("bell", 3.0, 0.4, 3)])
    def test_exact_default(self, monkeypatch, kind, value, eta, expected):
        # Without curves the frontiers are exact: nothing is drawn.  Exact
        # curves passed in give the same answers.
        def no_draw(task):
            raise AssertionError("min_copies drew Monte Carlo samples")
        monkeypatch.setattr(estimators, "_count_chunk", no_draw)
        assert min_copies(value, eta, kind, 10) == expected
        curves = sweep_curves(kind, range(1, 11), samples=None)
        assert min_copies(value, eta, kind, 10, curves=curves) == expected

    def test_exact_search_stops_at_answer(self, monkeypatch):
        # Each N's curve is built only once the smaller N fall short, so a
        # large n_max costs nothing past the answer.  Each N's tables, over
        # every q and |a.b|, take one call.
        calls = []
        tables = models.tomography_tables

        def counted(n_copies, q, dots):
            calls.append((n_copies, len(q)))
            return tables(n_copies, q, dots)
        monkeypatch.setattr(models, "tomography_tables", counted)
        assert min_copies(0.34, 0.85, "steering", 40) == 4
        assert calls == [(n, len(default_q_grid())) for n in (1, 2, 3, 4)]
