import collections
import itertools
import math

import numpy as np
import pytest

from lrpovm import causality, quantum
from lrpovm.estimators import enumerate_exact, estimate
from lrpovm.models import (ModelConfig, enumerate_unanimity,
                           ncopy_steering_sample,
                           ncopy_tomography_sample, qubit_copies_joint,
                           sample_batch, simple_bell_sample,
                           threshold_levels, threshold_readout,
                           tomography_config, trusted_steering_sample)
from lrpovm.sphere import RngStream


class TestThresholdReadout:
    def test_inside_deadzone(self):
        assert threshold_readout(0.3, 0.5) == 0

    def test_boundary_is_zero(self):
        assert threshold_readout(0.5, 0.5) == 0
        assert threshold_readout(-0.5, 0.5) == 0

    def test_positive(self):
        assert threshold_readout(0.9, 0.5) == 1

    def test_negative(self):
        assert threshold_readout(-0.51, 0.5) == -1

    def test_q_zero_keeps_origin(self):
        assert threshold_readout(0.0, 0.0) == 0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            threshold_readout(0.2, 1.0)


class TestThresholdLevels:
    """Signed levels decode to the scalar trit at every grid index."""

    @staticmethod
    def _trit(level, k):
        return 1 if level >= k + 1 else -1 if level <= -(k + 1) else 0

    @pytest.mark.parametrize("grid", [[0.0], [0.5], [0.0, 0.3, 0.6, 0.95],
                                      list(np.round(np.arange(33) * 0.03, 10))])
    def test_agrees_with_scalar_readout(self, grid):
        q_sorted = np.array(grid)
        boundaries = np.concatenate([q_sorted, -q_sorted,
                                     np.nextafter(q_sorted, 2.0),
                                     -np.nextafter(q_sorted, 2.0)])
        values = np.concatenate([
            boundaries, [0.0, -0.0, 1.0, -1.0],
            np.random.default_rng(3).uniform(-1.0, 1.0, 500)])
        levels = threshold_levels(values, q_sorted)
        assert levels.shape == values.shape
        for p, level in zip(values, levels):
            for k, q in enumerate(grid):
                assert self._trit(level, k) == threshold_readout(p, q), (p, q)

    def test_one_point_grid_is_the_trit(self):
        p = np.array([[-0.7, -0.3, 0.0], [0.3, 0.31, 1.0]])
        assert threshold_levels(p, (0.3,)).tolist() == [[-1, 0, 0],
                                                        [0, 1, 1]]


class TestSimpleBell:
    def test_efficiency_exact_half(self):
        stats = enumerate_exact(ModelConfig(kind="simple-bell"))
        assert stats.efficiency("alice") == pytest.approx(0.5, abs=1e-15)
        assert stats.efficiency("bob") == pytest.approx(0.5, abs=1e-15)

    def test_exact_coincidence_correlations(self):
        config = ModelConfig(kind="simple-bell")
        stats = enumerate_exact(config)
        for i in range(2):
            for j in range(2):
                expected = quantum.quantum_correlation(
                    config.alice_directions[i], config.bob_directions[j])
                assert stats.pair(i, j).correlation == \
                    pytest.approx(expected, abs=1e-12)

    def test_mc_coincidence_correlations(self):
        config = ModelConfig(kind="simple-bell", seed=21)
        stats = estimate(config, 200_000)
        for i in range(2):
            for j in range(2):
                p = stats.pair(i, j)
                expected = quantum.quantum_correlation(
                    config.alice_directions[i], config.bob_directions[j])
                assert abs(p.correlation - expected) < 3 * p.stderr

    def test_single_readout_shape(self):
        r = simple_bell_sample(RngStream(1))
        assert sum(v != 0 for v in r.alice) == 1
        assert sum(v != 0 for v in r.bob) == 1
        assert not r.discarded


class TestTrustedSteering:
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_over_m_suppression(self, m):
        config = ModelConfig(kind="trusted-steering", m_choices=m)
        stats = enumerate_exact(config)
        for j in range(m):
            assert stats.full_correlation(j, j) == \
                pytest.approx(1.0 / m, abs=1e-12)

    def test_coincidences_stay_perfect(self):
        stats = enumerate_exact(ModelConfig(kind="trusted-steering"))
        assert stats.pair(0, 0).correlation == pytest.approx(1.0, abs=1e-12)

    def test_bob_marginal_matches_trusted_povm(self):
        # Conditioned on registration Bob's outcomes follow the qubit
        # statistics of the maximally mixed reduced state: half and half.
        stats = enumerate_exact(ModelConfig(kind="trusted-steering"))
        for j in range(3):
            w = stats.weights[j, j]
            registered = w[:, (0, 2)].sum(axis=0)
            assert registered[0] / registered.sum() == \
                pytest.approx(0.5, abs=1e-10)

    def test_exact_T_at_bound(self):
        stats = enumerate_exact(ModelConfig(kind="trusted-steering"))
        t, _, flagged = stats.steering()
        assert t == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert not flagged

    def test_mc_T_within_bound(self):
        stats = estimate(
            ModelConfig(kind="trusted-steering", seed=23), 200_000)
        t, se, _ = stats.steering()
        assert t <= 1.0 / 3.0 + 3 * se

    def test_sample_shape(self):
        r = trusted_steering_sample(3, quantum.STEERING_TRIPLE, RngStream(2))
        assert len(r.alice) == 3 and len(r.bob) == 3


class TestNcopySteering:
    def test_single_copy_reduces_to_trusted(self):
        trusted = enumerate_exact(ModelConfig(kind="trusted-steering"))
        ncopy = enumerate_exact(ModelConfig(kind="ncopy-steering", n_copies=1))
        assert np.allclose(trusted.weights, ncopy.weights, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_unanimity_rate(self, n):
        config = ModelConfig(kind="ncopy-steering", n_copies=n, seed=29)
        stats = estimate(config, 100_000)
        # Bob's registration rate per matched pair: pick match (1/3) times
        # unanimity (2^(1-n)).
        expected = 2.0 ** (1 - n) / 3.0
        for j in range(3):
            w = stats.weights[j, j]
            rate = w[:, (0, 2)].sum() / w.sum()
            sigma = math.sqrt(expected * (1 - expected) / w.sum())
            assert abs(rate - expected) < 3 * sigma + 1e-12

    def test_matched_coincidence_perfect(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=4, seed=31)
        stats = estimate(config, 100_000)
        p = stats.pair(1, 1)
        assert p.correlation == pytest.approx(1.0, abs=1e-12)

    def test_exact_matches_mc(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=3, seed=37)
        exact = enumerate_exact(config)
        mc = estimate(config, 200_000)
        t_exact, _, _ = exact.steering()
        t_mc, se, _ = mc.steering()
        assert abs(t_mc - t_exact) < 3 * se + 1e-9

    def test_discard_flag(self):
        r = ncopy_steering_sample(5, quantum.STEERING_TRIPLE, RngStream(3))
        assert r.discarded == (not any(r.bob))

    def test_rejects_infinite_copies(self):
        with pytest.raises(ValueError, match="n_copies"):
            ModelConfig(kind="ncopy-steering", n_copies=math.inf)


class TestUnanimityEnumeration:
    """The closed-form enumerator against a sum over per-copy outcomes."""

    @staticmethod
    def brute_force(config):
        alice, bob = config.alice_directions, config.bob_directions
        ma, mb = len(alice), len(bob)
        terms = collections.defaultdict(list)
        strings = list(itertools.product((0, 1), repeat=config.n_copies))
        for pick_a, pick_b in itertools.product(range(ma), range(mb)):
            # singlet table indices 0: +1, 1: -1
            pm = quantum.singlet_pair_probabilities(alice[pick_a], bob[pick_b])
            for xs, zs in itertools.product(strings, strings):
                p = math.prod(pm[x, z] for x, z in zip(xs, zs)) / (ma * mb)
                a = 1 - 2 * xs[0] if len(set(xs)) == 1 else 0
                b = 1 - 2 * zs[0] if len(set(zs)) == 1 else 0
                for i, j in itertools.product(range(ma), range(mb)):
                    terms[i, j, (a if i == pick_a else 0) + 1,
                          (b if j == pick_b else 0) + 1].append(p)
        # fsum keeps the oracle's own rounding below the tolerance
        probs = np.zeros((ma, mb, 3, 3))
        for index, values in terms.items():
            probs[index] = math.fsum(values)
        return probs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("alice,bob", [
        (quantum.CHSH_ALICE, quantum.CHSH_BOB),
        (-quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE)])
    def test_matches_brute_force(self, n, alice, bob):
        config = ModelConfig(kind="ncopy-steering", n_copies=n,
                             m_choices=len(bob), alice_directions=alice,
                             bob_directions=bob)
        probs = enumerate_unanimity(config)
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(probs - self.brute_force(config))) <= 1e-14

    def test_pick_kinds_pin_one_copy(self):
        pinned = ModelConfig(kind="trusted-steering", n_copies=3)
        single = ModelConfig(kind="trusted-steering")
        assert pinned.n_copies == 1
        a = sample_batch(pinned, RngStream(8), 5_000)
        b = sample_batch(single, RngStream(8), 5_000)
        assert np.array_equal(a.alice, b.alice)
        assert np.array_equal(a.bob, b.bob)
        assert np.array_equal(enumerate_exact(pinned).weights,
                              enumerate_exact(single).weights)


class TestTomography:
    def test_full_efficiency_at_zero_threshold(self):
        config = tomography_config("bell", 3, q=0.0, seed=41)
        batch = sample_batch(config, RngStream(41), 50_000)
        assert np.all(batch.alice != 0)
        assert np.all(batch.bob != 0)

    def test_deadzone_swallows_everything(self):
        config = tomography_config("bell", 1, q=0.95, seed=43)
        stats = estimate(config, 50_000)
        assert stats.efficiency("alice") < 0.1

    def test_mc_matches_quadrature_matched_axes(self):
        # Matched settings at q = 0: the correlation also has a clean
        # one-dimensional quadrature through the opening-angle density.
        from lrpovm.sphere import cap_overlap_quadrature
        n = 1
        direction = np.array([[0.0, 0.0, 1.0]])
        config = ModelConfig(kind="ncopy-tomography", n_copies=n, q=0.0,
                             alice_directions=direction,
                             bob_directions=direction, seed=47)
        batch = sample_batch(config, RngStream(47), 400_000)
        mc = float(np.mean(batch.alice[:, 0] * batch.bob[:, 0]))
        rho = lambda c: ((n + 1) / 2.0) * ((1 - c) / 2.0) ** n
        quad = cap_overlap_quadrature(
            lambda c: rho(c) * (1 - 2 * np.arccos(np.clip(c, -1, 1)) / math.pi),
            64)
        se = math.sqrt((1 - mc * mc) / 400_000)
        assert abs(mc - quad) < 3 * se
        # closed form of the matched-axis sign correlation at N = 1; the
        # arccos kink limits 64-node Gauss-Legendre to ~1e-6 here
        assert quad == pytest.approx(-0.25, abs=1e-5)

    def test_mc_matches_quadrature_full_table(self):
        config = tomography_config("bell", 2, q=0.4, seed=53)
        exact = enumerate_exact(config)
        mc = estimate(config, 200_000)
        s_mc, se, _ = mc.chsh()
        s_ex, _, _ = exact.chsh()
        assert abs(s_mc - s_ex) < 3 * se

    def test_chaotic_ball_signed_endpoint(self):
        config = tomography_config("bell", math.inf, q=0.0, seed=59)
        stats = estimate(config, 200_000)
        s, se, _ = stats.chsh()
        assert abs(s - (-2.0)) < 3 * se + 1e-9

    def test_sample_helper_infinite(self):
        r = ncopy_tomography_sample(math.inf, 0.0, RngStream(5))
        assert all(v != 0 for v in r.alice)

    def test_preselection_metadata(self):
        config = tomography_config("bell", 4, q=0.1)
        assert config.metadata["preselection_weight"] == \
            pytest.approx(5.0 / 16.0)


class TestQubitCopies:
    def test_special_times(self):
        p = qubit_copies_joint(math.pi / 2, math.pi, 1.0, 2)
        assert p[:, 1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_requires_enough_copies(self):
        with pytest.raises(ValueError, match="[Ii]nsufficient|at least"):
            qubit_copies_joint(0.1, 0.2, 1.0, 1)

    def test_zero_time_start(self):
        p = qubit_copies_joint(0.0, 1.3, 1.0, 2)
        assert p[1, :].sum() == pytest.approx(1.0, abs=1e-12)
        assert p[1, 1] == pytest.approx(
            quantum.qubit_probability_plus(1.3), abs=1e-12)


class TestNoSignaling:
    """Each party's marginal must not depend on the other party's choice."""

    @pytest.mark.parametrize("kind,n", [("simple-bell", 1),
                                        ("trusted-steering", 1),
                                        ("ncopy-steering", 3)])
    def test_exact_marginals(self, kind, n):
        config = ModelConfig(kind=kind, n_copies=n)
        stats = enumerate_exact(config)
        ma, mb = stats.weights.shape[:2]
        for i in range(ma):
            base = stats.alice_marginal(i, 0)
            for j in range(1, mb):
                assert np.allclose(stats.alice_marginal(i, j), base,
                                   atol=1e-12)
        for j in range(mb):
            base = stats.bob_marginal(0, j)
            for i in range(1, ma):
                assert np.allclose(stats.bob_marginal(i, j), base,
                                   atol=1e-12)

    def test_tomography_marginals_mc(self):
        config = tomography_config("bell", 2, q=0.3, seed=61)
        stats = estimate(config, 200_000)
        for i in range(2):
            m0 = stats.alice_marginal(i, 0)
            m1 = stats.alice_marginal(i, 1)
            assert np.allclose(m0, m1, atol=1e-12)  # same samples, exactly


class TestLocalRealisticBounds:
    """Theorem-backed bounds.

    Full-detection models obey |S| <= 2; the trusted and unanimity
    steering models obey T <= 1/3 because their registered readouts come
    from genuine qubit measurements.  The threshold tomography model has
    no such protection for T: its zero-threshold value is the square of
    C_N = (2/pi) B(N + 3/2, 1/2) - 1, which crosses 1/3 at N = 6.
    """

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_bell_bound_full_detection(self, n):
        config = tomography_config("bell", n, q=0.0, seed=67)
        stats = estimate(config, 100_000)
        s, se, _ = stats.chsh()
        assert abs(s) <= 2.0 + 3 * se

    @pytest.mark.parametrize("kind,n", [("trusted-steering", 1),
                                        ("ncopy-steering", 2),
                                        ("ncopy-steering", 5)])
    def test_steering_bound_trusted_models(self, kind, n):
        stats = estimate(
            ModelConfig(kind=kind, n_copies=n, seed=71), 100_000)
        t, se, _ = stats.steering()
        assert t <= 1.0 / 3.0 + 3 * se

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_tomography_zero_threshold_value(self, n):
        c_n = (2.0 / math.pi) * math.gamma(n + 1.5) * math.gamma(0.5) \
            / math.gamma(n + 2.0) - 1.0
        config = tomography_config("steering", n, q=0.0, seed=73)
        stats = estimate(config, 200_000)
        t, se, _ = stats.steering()
        assert t == pytest.approx(c_n ** 2, abs=4 * se + 1e-4)


class TestChoiceConditionedCompleteness:
    def test_signature_matches_readout_layout(self):
        # Two spacelike choices, one readout per party inside its own
        # choice's cone only: each party's record conditions on its own
        # choice alone, which is exactly the per-party trit vector the
        # models emit.
        scenario = causality.CausalScenario(
            choices=(("a", causality.Event(0.0, (-2.0, 0.0, 0.0))),
                     ("b", causality.Event(0.0, (2.0, 0.0, 0.0)))),
            readouts=(("alpha", causality.Event(1.0, (-2.5, 0.0, 0.0))),
                      ("beta", causality.Event(1.0, (2.5, 0.0, 0.0)))))
        sig = causality.readout_signature(scenario)
        assert sig.influences["alpha"] == ("a",)
        assert sig.influences["beta"] == ("b",)
        config = ModelConfig(kind="simple-bell")
        batch = sample_batch(config, RngStream(6), 16)
        # one conditioned trit per option of the party's own choice
        assert batch.alice.shape[1] == len(config.alice_directions)
        assert batch.bob.shape[1] == len(config.bob_directions)
