import math

import numpy as np
import pytest

from lrpovm import models
from lrpovm.sphere import (BLOCK, PairSampler, Workspace, blocks,
                           cap_overlap_quadrature, circle_arc_fraction,
                           pair_density, rng_stream, sample_pair)


def three_sigma(var, n):
    return 3.0 * math.sqrt(var / n)


def uniform_directions(rng, size=None):
    """A of ``sample_pair``: the uniform direction(s) it draws first."""
    return sample_pair(0, rng, size)[0]


class TestUniformDirection:
    def test_unit_norm(self):
        v = uniform_directions(rng_stream(1), size=5000)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12

    def test_mean_is_zero(self):
        n = 1_000_000
        v = uniform_directions(rng_stream(2), size=n)
        # each component has variance 1/3
        tol = three_sigma(1.0 / 3.0, n)
        assert np.max(np.abs(v.mean(axis=0))) < tol

    def test_second_moment(self):
        n = 1_000_000
        v = uniform_directions(rng_stream(3), size=n)
        # Var(z^2) = E[z^4] - 1/9 = 1/5 - 1/9
        tol = three_sigma(1.0 / 5.0 - 1.0 / 9.0, n)
        assert np.max(np.abs((v ** 2).mean(axis=0) - 1.0 / 3.0)) < tol

    def test_scalar_shape(self):
        v = uniform_directions(rng_stream(4))
        assert v.shape == (3,)


class TestSamplePair:
    @pytest.mark.parametrize("n_copies,expected", [(1, 2.0 / 3.0),
                                                   (10, 11.0 / 12.0)])
    def test_mean_opening_variable(self, n_copies, expected):
        n = 1_000_000
        a, b = sample_pair(n_copies, rng_stream(5), size=n)
        u = (1.0 - np.sum(a * b, axis=1)) / 2.0
        var = (n_copies + 1) / (n_copies + 3) - expected ** 2
        assert abs(u.mean() - expected) < three_sigma(var, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_u_moments(self, m):
        n_copies, n = 4, 400_000
        a, b = sample_pair(n_copies, rng_stream(6), size=n)
        u = (1.0 - np.sum(a * b, axis=1)) / 2.0
        expected = (n_copies + 1) / (n_copies + 1 + m)
        second = (n_copies + 1) / (n_copies + 1 + 2 * m)
        assert abs((u ** m).mean() - expected) < \
            three_sigma(second - expected ** 2, n)

    def test_marginal_of_a_uniform(self):
        n = 400_000
        a, _ = sample_pair(3, rng_stream(7), size=n)
        assert np.max(np.abs(a.mean(axis=0))) < three_sigma(1 / 3, n)

    def test_zero_copies_independent(self):
        n = 400_000
        a, b = sample_pair(0, rng_stream(8), size=n)
        # B uniform and independent: E[A.B] = 0, Var(A.B) = 1/3
        dot = np.sum(a * b, axis=1)
        assert abs(dot.mean()) < three_sigma(1 / 3, n)
        assert np.max(np.abs(np.linalg.norm(b, axis=1) - 1)) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sample_pair(-1, rng_stream(9))
        # A copy count that is not an integer is named, never truncated.
        for n in (2.5, math.inf, math.nan):
            with pytest.raises(TypeError, match="n_copies"):
                sample_pair(n, rng_stream(9))
        for got, want in zip(sample_pair(np.int64(2), rng_stream(9), 5),
                             sample_pair(2, rng_stream(9), 5)):
            assert np.array_equal(got, want)

    def test_draw_count_named(self):
        # A draw count is named, never truncated or left to numpy.
        for size, error, message in (
                (2.5, TypeError, r"be an integer, got 2\.5"),
                (-1, ValueError, "be >= 0, got -1")):
            with pytest.raises(error, match=f"^size must {message}$"):
                sample_pair(2, rng_stream(9), size)
        for got, want in zip(sample_pair(2, rng_stream(9), np.int64(5)),
                             sample_pair(2, rng_stream(9), 5)):
            assert np.array_equal(got, want)


def cross_sample_pair(n_copies, gen, size):
    """Reference sampler: the same draws, framed with ``np.cross``.

    A is normalised with ``np.linalg.norm``; the frame is the broadcast
    helper axis, two ``np.cross`` calls and a second norm, and B is formed
    from whole (n, 3) arrays.
    """
    a = gen.standard_normal((size, 3))
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    assert np.all(norms >= 1e-12)
    a /= norms
    u = gen.random(size) ** (1.0 / (n_copies + 1))
    cos_t = 1.0 - 2.0 * u
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    chi = gen.random(size) * (2.0 * math.pi)
    helper = np.where(np.abs(a[:, 0:1]) < 0.9, np.array([1.0, 0.0, 0.0]),
                      np.array([0.0, 1.0, 0.0]))
    e1 = np.cross(a, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(a, e1)
    b = (cos_t[:, None] * a
         + sin_t[:, None] * (np.cos(chi)[:, None] * e1
                             + np.sin(chi)[:, None] * e2))
    return a, b


class TestSamplePairOracle:
    """The component-wise sampler equals the np.cross reference bit for bit."""

    @pytest.mark.parametrize("seed", [1, 12345, 2024])
    @pytest.mark.parametrize("n_copies", [0, 1, 2, 4, 7])
    def test_matches_cross_reference(self, n_copies, seed):
        a, b = sample_pair(n_copies, rng_stream(seed), size=50_001)
        ref_a, ref_b = cross_sample_pair(n_copies, rng_stream(seed), 50_001)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(b, ref_b)
        # both helper axes are exercised
        assert 0 < np.sum(np.abs(a[:, 0]) >= 0.9) < len(a)

    def test_single_draw_matches(self):
        a, b = sample_pair(3, rng_stream(5))
        ref_a, ref_b = cross_sample_pair(3, rng_stream(5), 1)
        assert np.array_equal(a, ref_a[0]) and np.array_equal(b, ref_b[0])


GENERATORS = {
    "pcg64": lambda: rng_stream(3),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(3)),
}


def next_draws(gen):
    """The generator's next random() and integers() draws."""
    return gen.random(), gen.integers(0, 1 << 40)


def reference_next_draws(gen, n, finite):
    """``next_draws`` after drawing n pairs' numbers at full size, in the
    sampler's order: normal rows for A, then, for a finite N, n opening
    uniforms u and n azimuth uniforms chi."""
    gen.standard_normal((n, 3))
    if finite:
        gen.random(n)
        gen.random(n)
    return next_draws(gen)


class TestGeneratorEndState:
    """Drawing chi block by block leaves the generator where one full-size
    draw of each kind leaves it."""

    @pytest.mark.parametrize("n", [1, BLOCK + 1, 2 * BLOCK + 5])
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_sample_pair(self, gen, n):
        rng = GENERATORS[gen]()
        sample_pair(2, rng, n)
        assert next_draws(rng) == reference_next_draws(
            GENERATORS[gen](), n, True)

    @pytest.mark.parametrize("n", [1, BLOCK + 1, 2 * BLOCK + 5])
    @pytest.mark.parametrize("n_copies", [2, math.inf])
    @pytest.mark.parametrize("gen", sorted(GENERATORS))
    def test_tomography_batch(self, gen, n_copies, n):
        rng = GENERATORS[gen]()
        models.sample_batch(models.tomography_config("bell", n_copies, 0.3),
                            rng, n)
        assert next_draws(rng) == reference_next_draws(
            GENERATORS[gen](), n, n_copies != math.inf)


STREAM_SIZE = 20_001  # not a multiple of BLOCK


def twin_state(draws):
    """The state of ``rng_stream(31)`` after ``draws(gen)``."""
    gen = rng_stream(31)
    draws(gen)
    return gen.bit_generator.state


def pair_draws(gen):
    gen.standard_normal((STREAM_SIZE, 3))
    gen.random(STREAM_SIZE)
    gen.random(STREAM_SIZE)


class TestStreamConsumed:
    """Each sampler leaves its generator where a twin that made the draws
    its docstring lists, whole and in that order, leaves its own."""

    @pytest.mark.parametrize("n_copies", [0, 3])
    def test_sample_pair(self, n_copies):
        gen = rng_stream(31)
        sample_pair(n_copies, gen, STREAM_SIZE)
        assert gen.bit_generator.state == twin_state(pair_draws)

    def test_pair_sampler_shared_axis(self):
        gen = rng_stream(31)
        PairSampler((math.inf,), gen, STREAM_SIZE, Workspace())
        assert gen.bit_generator.state == twin_state(
            lambda g: g.standard_normal((STREAM_SIZE, 3)))

    @pytest.mark.parametrize("config", [
        models.ModelConfig("simple-bell"),
        models.ModelConfig("ncopy-steering", n_copies=3)],
        ids=["simple-bell", "ncopy-steering-3"])
    def test_unanimity_cell_batch(self, config):
        ma, mb = len(config.alice_directions), len(config.bob_directions)
        copies = config.n_copies

        def draws(g):
            g.integers(0, ma, STREAM_SIZE)
            g.integers(0, mb, STREAM_SIZE)
            g.integers(0, 2, (STREAM_SIZE, copies))
            g.random((STREAM_SIZE, copies))

        gen = rng_stream(31)
        models.unanimity_cell_batch(config, gen, STREAM_SIZE, Workspace())
        assert gen.bit_generator.state == twin_state(draws)


class TestBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK, BLOCK + 1, BLOCK + 2,
                                   2 * BLOCK + 1, 3 * BLOCK - 1])
    def test_cover_without_one_row_blocks(self, n):
        rows = list(blocks(n))
        assert [r.start for r in rows[1:]] == [r.stop for r in rows[:-1]]
        assert sum(r.stop - r.start for r in rows) == n
        assert all(1 <= r.stop - r.start <= BLOCK + 1 for r in rows)
        assert n == 1 or all(r.stop - r.start > 1 for r in rows)

    @pytest.mark.parametrize("n", [1, 2, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1])
    @pytest.mark.parametrize("n_copies", [2, math.inf])
    def test_projections_match_full_matmul(self, n, n_copies):
        """Blocked projections equal one whole-array product bit for bit."""
        config = models.tomography_config("bell", n_copies)
        if n_copies == math.inf:
            a = b = uniform_directions(rng_stream(21), n)
        else:
            a, b = sample_pair(n_copies, rng_stream(21), n)
        want_a = a @ config.alice_directions.T
        want_b = b @ config.bob_directions.T
        pairs = PairSampler((n_copies,), rng_stream(21), n,
                            Workspace())
        covered = 0
        for rows in blocks(n):
            block_a = pairs.block(rows)
            block_b = pairs.partner(n_copies, block_a, rows)
            assert np.array_equal(block_a @ config.alice_directions.T,
                                  want_a[rows])
            assert np.array_equal(block_b @ config.bob_directions.T,
                                  want_b[rows])
            covered += rows.stop - rows.start
        assert covered == n


class TestWorkspace:
    def test_views_reused_after_reset(self):
        ws = Workspace()
        ws.take((5, 3))
        ws.take(7, np.int8)
        assert ws.nbytes == 0  # the first round only sizes the arena
        ws.reset()
        first = ws.take((5, 3))
        levels = ws.take(7, np.int8)
        assert first.shape == (5, 3) and first.dtype == float
        assert levels.dtype == np.int8 and first.flags.c_contiguous
        assert not np.shares_memory(first, levels)
        ws.reset()
        assert np.shares_memory(first, ws.take((5, 3)))

    def test_grows_to_largest_round(self):
        ws = Workspace()
        for size in (100, 1000, 10):
            ws.take(size)
            ws.reset()
        assert ws.nbytes == 1000 * 8


class TestPairDensity:
    def test_aligned_forbidden(self):
        assert pair_density(1, 1.0) == 0.0

    def test_antiparallel_value(self):
        assert pair_density(1, -1.0) == pytest.approx(
            2.0 / (4 * math.pi) ** 2, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normalization_by_quadrature(self, n):
        integral = cap_overlap_quadrature(lambda c: pair_density(n, c), 64)
        integral *= (4 * math.pi) * (2 * math.pi)
        assert abs(integral - 1.0) < 1e-10

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        a, b = sample_pair(0, rng)
        # random rotation via QR
        m, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ra, rb = m @ a, m @ b
        assert pair_density(4, float(a @ b)) == pytest.approx(
            pair_density(4, float(ra @ rb)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pair_density(1, 1.5)
        for n in (2.5, math.inf, math.nan):
            with pytest.raises(TypeError, match="n_copies"):
                pair_density(n, 0.3)
        assert pair_density(np.int64(2), 0.3) == pair_density(2, 0.3)


class TestQuadrature:
    def test_constant(self):
        assert cap_overlap_quadrature(lambda c: 1.0, 8) == \
            pytest.approx(2.0, abs=1e-14)

    def test_square(self):
        assert cap_overlap_quadrature(lambda c: c ** 2, 16) == \
            pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_tomography_power(self):
        val = cap_overlap_quadrature(lambda c: ((1 - c) / 2) ** 5, 16)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_node_minimum(self):
        with pytest.raises(ValueError, match="nodes"):
            cap_overlap_quadrature(lambda c: c, 1)
        for nodes in (3.7, math.inf, math.nan):
            with pytest.raises(TypeError, match="nodes"):
                cap_overlap_quadrature(lambda c: c, nodes)
        assert cap_overlap_quadrature(lambda c: c ** 2, np.int64(16)) == \
            cap_overlap_quadrature(lambda c: c ** 2, 16)


class TestRngStream:
    def test_deterministic_sequences(self):
        a = rng_stream(42, 3).random(100)
        b = rng_stream(42, 3).random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(42, 0).random(100)
        b = rng_stream(42, 1).random(100)
        assert not np.array_equal(a, b)

    def test_tuple_streams(self):
        draw = rng_stream(7, 2, 1).random(10)
        assert np.array_equal(draw, rng_stream(7, 2, 1).random(10))
        for other in ((2,), (1, 2)):
            assert not np.array_equal(
                draw, rng_stream(7, *other).random(10))

    def test_each_call_starts_afresh(self):
        first, second = rng_stream(5, 1), rng_stream(5, 1)
        assert first is not second
        draw = first.random(10)
        assert np.array_equal(draw, second.random(10))
        assert not np.array_equal(draw, first.random(10))


class TestArcFraction:
    def test_full_circle(self):
        assert circle_arc_fraction(1.0, 0.5, 0.0) == 1.0

    def test_empty(self):
        assert circle_arc_fraction(-1.0, 0.5, 0.0) == 0.0

    def test_half(self):
        assert circle_arc_fraction(0.0, 1.0, 0.0) == pytest.approx(0.5)

    def test_matches_sampling(self):
        rng = np.random.default_rng(1)
        phi = rng.random(200_000) * 2 * math.pi
        mean, amp, thr = 0.3, 0.8, 0.5
        frac = np.mean(mean + amp * np.cos(phi) > thr)
        assert circle_arc_fraction(mean, amp, thr) == \
            pytest.approx(frac, abs=0.005)
