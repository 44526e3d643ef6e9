import math

import numpy as np
import pytest

from lrpovm.sphere import (RngStream, cap_overlap_quadrature,
                           circle_arc_fraction, pair_density, sample_pair,
                           sample_uniform_direction)


def three_sigma(var, n):
    return 3.0 * math.sqrt(var / n)


class TestUniformDirection:
    def test_unit_norm(self):
        v = sample_uniform_direction(RngStream(1), size=5000)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-12

    def test_mean_is_zero(self):
        n = 1_000_000
        v = sample_uniform_direction(RngStream(2), size=n)
        # each component has variance 1/3
        tol = three_sigma(1.0 / 3.0, n)
        assert np.max(np.abs(v.mean(axis=0))) < tol

    def test_second_moment(self):
        n = 1_000_000
        v = sample_uniform_direction(RngStream(3), size=n)
        # Var(z^2) = E[z^4] - 1/9 = 1/5 - 1/9
        tol = three_sigma(1.0 / 5.0 - 1.0 / 9.0, n)
        assert np.max(np.abs((v ** 2).mean(axis=0) - 1.0 / 3.0)) < tol

    def test_scalar_shape(self):
        v = sample_uniform_direction(RngStream(4))
        assert v.shape == (3,)


class TestSamplePair:
    @pytest.mark.parametrize("n_copies,expected", [(1, 2.0 / 3.0),
                                                   (10, 11.0 / 12.0)])
    def test_mean_opening_variable(self, n_copies, expected):
        n = 1_000_000
        a, b = sample_pair(n_copies, RngStream(5), size=n)
        u = (1.0 - np.sum(a * b, axis=1)) / 2.0
        var = (n_copies + 1) / (n_copies + 3) - expected ** 2
        assert abs(u.mean() - expected) < three_sigma(var, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_u_moments(self, m):
        n_copies, n = 4, 400_000
        a, b = sample_pair(n_copies, RngStream(6), size=n)
        u = (1.0 - np.sum(a * b, axis=1)) / 2.0
        expected = (n_copies + 1) / (n_copies + 1 + m)
        second = (n_copies + 1) / (n_copies + 1 + 2 * m)
        assert abs((u ** m).mean() - expected) < \
            three_sigma(second - expected ** 2, n)

    def test_marginal_of_a_uniform(self):
        n = 400_000
        a, _ = sample_pair(3, RngStream(7), size=n)
        assert np.max(np.abs(a.mean(axis=0))) < three_sigma(1 / 3, n)

    def test_zero_copies_independent(self):
        n = 400_000
        a, b = sample_pair(0, RngStream(8), size=n)
        # B uniform and independent: E[A.B] = 0, Var(A.B) = 1/3
        dot = np.sum(a * b, axis=1)
        assert abs(dot.mean()) < three_sigma(1 / 3, n)
        assert np.max(np.abs(np.linalg.norm(b, axis=1) - 1)) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sample_pair(-1, RngStream(9))


def cross_sample_pair(n_copies, rng, size):
    """Reference sampler: the same draws, framed with ``np.cross``.

    A is normalised with ``np.linalg.norm``; the frame is the broadcast
    helper axis, two ``np.cross`` calls and a second norm, and B is formed
    from whole (n, 3) arrays.
    """
    gen = rng.generator
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
        a, b = sample_pair(n_copies, RngStream(seed), size=50_001)
        ref_a, ref_b = cross_sample_pair(n_copies, RngStream(seed), 50_001)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(b, ref_b)
        # both helper axes are exercised
        assert 0 < np.sum(np.abs(a[:, 0]) >= 0.9) < len(a)

    def test_single_draw_matches(self):
        a, b = sample_pair(3, RngStream(5))
        ref_a, ref_b = cross_sample_pair(3, RngStream(5), 1)
        assert np.array_equal(a, ref_a[0]) and np.array_equal(b, ref_b[0])


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
        a = sample_uniform_direction(rng)
        b = sample_uniform_direction(rng)
        # random rotation via QR
        m, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ra, rb = m @ a, m @ b
        assert pair_density(4, float(a @ b)) == pytest.approx(
            pair_density(4, float(ra @ rb)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pair_density(1, 1.5)


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
        with pytest.raises(ValueError):
            cap_overlap_quadrature(lambda c: c, 1)


class TestRngStream:
    def test_deterministic_sequences(self):
        a = RngStream(42, 3).generator.random(100)
        b = RngStream(42, 3).generator.random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator.random(100)
        b = RngStream(42, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_substream_nesting(self):
        s = RngStream(7)
        a = s.substream(2).substream(1)
        b = RngStream(7).substream(2).substream(1)
        assert np.array_equal(a.generator.random(10), b.generator.random(10))


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
