import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from lrpovm import causality, quantum
from lrpovm.estimators import enumerate_exact, estimate
from lrpovm.models import (LEVEL_BINS, ModelConfig, enumerate_unanimity,
                           preselection_weight, sample_batch, threshold_levels, threshold_readout,
                           tomography_config)
from lrpovm.sphere import rng_stream


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


def searchsorted_levels(projections, q_sorted):
    """Signed levels by binary search, the lookup the bucket table replaced."""
    p = np.asarray(projections)
    level = np.searchsorted(q_sorted, np.abs(p), side="left")
    return np.copysign(level, p).astype(level.dtype)


def _edge_grid():
    """Thresholds on the bin edges k / LEVEL_BINS and their neighbours."""
    edges = np.array([0, 1, 2, 3, 511, 512, 513, 1022, 1023]) / LEVEL_BINS
    grid = np.concatenate([edges, np.nextafter(edges, 1.0),
                           np.nextafter(edges, -1.0)])
    return np.sort(grid[(grid >= 0.0) & (grid < 1.0)])


ADVERSARIAL_GRIDS = {
    "one-ulp": [0.5, np.nextafter(0.5, 1.0)],
    "duplicates": [0.0, 0.0, 0.2, 0.3, 0.3, 0.3, 0.7, 0.7],
    "bin-edges": _edge_grid(),
    "below-one": [0.25, np.nextafter(1.0, 0.0)],
    "crowded": np.sort(np.random.default_rng(11).random(2_000)),
}


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

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_GRIDS))
    def test_matches_binary_search(self, name):
        q_sorted = np.asarray(ADVERSARIAL_GRIDS[name], dtype=float)
        near = np.concatenate([q_sorted, np.nextafter(q_sorted, 2.0),
                               np.nextafter(q_sorted, -1.0)])
        mags = np.concatenate([
            near, [0.0, 1.0, 1.0 + 2.0 ** -52],
            np.random.default_rng(5).random(5_000)])
        values = np.concatenate([mags, -mags])  # -0.0, -1, -(1 + 2^-52)
        want = searchsorted_levels(values, q_sorted)
        assert np.array_equal(threshold_levels(values, q_sorted), want)
        shaped = values[:len(values) // 3 * 3].reshape(-1, 3)
        assert np.array_equal(threshold_levels(shaped, q_sorted),
                              searchsorted_levels(shaped, q_sorted))

    def test_levels_fit_their_dtype(self):
        for size in (2, 127, 128, 300):
            q_sorted = np.linspace(0.0, 0.9, size)
            values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
            levels = threshold_levels(values, q_sorted)
            assert np.array_equal(levels,
                                  searchsorted_levels(values, q_sorted))


class TestModelConfig:
    def test_fields_are_the_model(self):
        # The seed belongs to the run, and the preselection weight is
        # derived from n_copies.
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "kind", "n_copies", "q", "m_choices", "alice_directions",
            "bob_directions"]

    @pytest.mark.parametrize("config,run_kind", [
        (ModelConfig(kind="simple-bell"), "bell"),
        (ModelConfig(kind="trusted-steering", m_choices=2,
                     alice_directions=quantum.CHSH_ALICE,
                     bob_directions=quantum.CHSH_BOB), "steering"),
        (ModelConfig(kind="ncopy-steering", n_copies=2), "steering"),
        (ModelConfig(kind="chaotic-ball"), "bell"),
        (tomography_config("bell", 3), "bell"),
        (tomography_config("steering", math.inf), "steering"),
    ])
    def test_run_kind(self, config, run_kind):
        assert config.run_kind == run_kind

    def test_tomography_steering_counts_must_match(self):
        # Three Alice directions make a steering run, which reads matched
        # pairs; the mismatch fails before anything is drawn.
        with pytest.raises(ValueError, match="alice_directions"):
            ModelConfig(kind="ncopy-tomography", n_copies=2,
                        alice_directions=np.eye(3),
                        bob_directions=np.eye(3)[:2])


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
        config = ModelConfig(kind="simple-bell")
        stats = estimate(config, 200_000, seed=21)
        for i in range(2):
            for j in range(2):
                p = stats.pair(i, j)
                expected = quantum.quantum_correlation(
                    config.alice_directions[i], config.bob_directions[j])
                assert abs(p.correlation - expected) < 3 * p.stderr

    def test_single_readout_shape(self):
        r = sample_batch(ModelConfig(kind="simple-bell"), rng_stream(1), 1)
        assert r.alice.shape == r.bob.shape == (1, 2)
        assert np.count_nonzero(r.alice) == 1
        assert np.count_nonzero(r.bob) == 1


class TestTrustedSteering:
    @pytest.mark.parametrize("kind", ["trusted-steering", "ncopy-steering"])
    def test_rejects_unmatched_alice_directions(self, kind):
        with pytest.raises(ValueError, match="alice_directions"):
            ModelConfig(kind=kind, m_choices=3,
                        alice_directions=np.eye(3)[:2])

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
            ModelConfig(kind="trusted-steering"), 200_000, seed=23)
        t, se, _ = stats.steering()
        assert t <= 1.0 / 3.0 + 3 * se

    def test_sample_shape(self):
        config = ModelConfig(kind="trusted-steering", m_choices=3,
                             bob_directions=quantum.STEERING_TRIPLE)
        r = sample_batch(config, rng_stream(2), 1)
        assert r.alice.shape == r.bob.shape == (1, 3)


class TestNcopySteering:
    def test_single_copy_reduces_to_trusted(self):
        trusted = enumerate_exact(ModelConfig(kind="trusted-steering"))
        ncopy = enumerate_exact(ModelConfig(kind="ncopy-steering", n_copies=1))
        assert np.allclose(trusted.weights, ncopy.weights, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_unanimity_rate(self, n):
        config = ModelConfig(kind="ncopy-steering", n_copies=n)
        stats = estimate(config, 100_000, seed=29)
        # Bob's registration rate per matched pair: pick match (1/3) times
        # unanimity (2^(1-n)).
        expected = 2.0 ** (1 - n) / 3.0
        for j in range(3):
            w = stats.weights[j, j]
            rate = w[:, (0, 2)].sum() / w.sum()
            sigma = math.sqrt(expected * (1 - expected) / w.sum())
            assert abs(rate - expected) < 3 * sigma + 1e-12

    def test_matched_coincidence_perfect(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=4)
        stats = estimate(config, 100_000, seed=31)
        p = stats.pair(1, 1)
        assert p.correlation == pytest.approx(1.0, abs=1e-12)

    def test_exact_matches_mc(self):
        config = ModelConfig(kind="ncopy-steering", n_copies=3)
        exact = enumerate_exact(config)
        mc = estimate(config, 200_000, seed=37)
        t_exact, _, _ = exact.steering()
        t_mc, se, _ = mc.steering()
        assert abs(t_mc - t_exact) < 3 * se + 1e-9

    def test_mc_tables_match_enumeration_off_axis(self):
        # CHSH directions give |corr| = 1/sqrt(2), where Bob's unanimity
        # depends on both xi and the same-sign draws; every cell of every
        # reading pair is checked, not only the matched ones.
        config = ModelConfig(kind="ncopy-steering", n_copies=3, m_choices=2,
                             alice_directions=quantum.CHSH_ALICE,
                             bob_directions=quantum.CHSH_BOB)
        samples = 200_000
        exact = enumerate_exact(config).weights
        freq = estimate(config, samples, seed=61).weights / samples
        bound = 5.0 * np.sqrt(exact * (1.0 - exact) / samples) + 1e-12
        assert np.all(np.abs(freq - exact) <= bound)

    def test_discard_flag(self):
        # Bob discards a run (reads 0 at every choice) exactly when his
        # five copies disagree, with probability 1 - 2^(1-5).
        n = 20_000
        config = ModelConfig(kind="ncopy-steering", n_copies=5)
        r = sample_batch(config, rng_stream(3), n)
        assert np.all(np.count_nonzero(r.alice, axis=1) <= 1)
        assert np.all(np.count_nonzero(r.bob, axis=1) <= 1)
        discarded = np.mean(~r.bob.any(axis=1))
        expected = 1.0 - 2.0 ** (1 - 5)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(discarded - expected) < 5 * sigma

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
        a = sample_batch(pinned, rng_stream(8), 5_000)
        b = sample_batch(single, rng_stream(8), 5_000)
        assert np.array_equal(a.alice, b.alice)
        assert np.array_equal(a.bob, b.bob)
        assert np.array_equal(enumerate_exact(pinned).weights,
                              enumerate_exact(single).weights)


class TestTomography:
    def test_full_efficiency_at_zero_threshold(self):
        config = tomography_config("bell", 3, q=0.0)
        batch = sample_batch(config, rng_stream(41), 50_000)
        assert np.all(batch.alice != 0)
        assert np.all(batch.bob != 0)

    def test_deadzone_swallows_everything(self):
        config = tomography_config("bell", 1, q=0.95)
        stats = estimate(config, 50_000, seed=43)
        assert stats.efficiency("alice") < 0.1

    def test_mc_matches_quadrature_matched_axes(self):
        # Matched settings at q = 0: the correlation also has a clean
        # one-dimensional quadrature through the opening-angle density.
        from lrpovm.sphere import cap_overlap_quadrature
        n = 1
        direction = np.array([[0.0, 0.0, 1.0]])
        config = ModelConfig(kind="ncopy-tomography", n_copies=n, q=0.0,
                             alice_directions=direction,
                             bob_directions=direction)
        batch = sample_batch(config, rng_stream(47), 400_000)
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
        config = tomography_config("bell", 2, q=0.4)
        exact = enumerate_exact(config)
        mc = estimate(config, 200_000, seed=53)
        s_mc, se, _ = mc.chsh()
        s_ex, _, _ = exact.chsh()
        assert abs(s_mc - s_ex) < 3 * se

    def test_chaotic_ball_signed_endpoint(self):
        config = tomography_config("bell", math.inf, q=0.0)
        stats = estimate(config, 200_000, seed=59)
        s, se, _ = stats.chsh()
        assert abs(s - (-2.0)) < 3 * se + 1e-9

    def test_sample_helper_infinite(self):
        r = sample_batch(ModelConfig(kind="chaotic-ball", q=0.0),
                         rng_stream(5), 1)
        assert r.alice.shape == (1, 2) and np.all(r.alice != 0)

    def test_preselection_metadata(self):
        config = tomography_config("bell", 4, q=0.1)
        assert config.preselection_weight == \
            pytest.approx(5.0 / 16.0)

    @pytest.mark.parametrize("n", [1, 4, 10, 1023])
    def test_preselection_weight_bits(self, n):
        # (n + 1) / 2**n, the form it replaced, to the last bit
        assert preselection_weight(n) == (n + 1) / 2.0 ** n

    def test_preselection_weight_large_n(self):
        # 2.0 ** 1024 overflows a float; the weight itself does not
        assert preselection_weight(1024) == 1025 * 2.0 ** -1024 > 0.0
        assert preselection_weight(100_000) == 0.0
        config = tomography_config("bell", 100_000)
        assert config.preselection_weight == 0.0


class TestQubitCopies:
    """The two-time readout served by distinct qubit copies."""

    def test_special_times(self):
        p = quantum.copies_joint_probability(math.pi / 2, math.pi, 1.0, 2)
        assert p[:, 1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_requires_enough_copies(self):
        with pytest.raises(ValueError, match="[Ii]nsufficient|at least"):
            quantum.copies_joint_probability(0.1, 0.2, 1.0, 1)


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
        config = tomography_config("bell", 2, q=0.3)
        stats = estimate(config, 200_000, seed=61)
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
        config = tomography_config("bell", n, q=0.0)
        stats = estimate(config, 100_000, seed=67)
        s, se, _ = stats.chsh()
        assert abs(s) <= 2.0 + 3 * se

    @pytest.mark.parametrize("kind,n", [("trusted-steering", 1),
                                        ("ncopy-steering", 2),
                                        ("ncopy-steering", 5)])
    def test_steering_bound_trusted_models(self, kind, n):
        stats = estimate(
            ModelConfig(kind=kind, n_copies=n), 100_000, seed=71)
        t, se, _ = stats.steering()
        assert t <= 1.0 / 3.0 + 3 * se

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_tomography_zero_threshold_value(self, n):
        c_n = (2.0 / math.pi) * math.gamma(n + 1.5) * math.gamma(0.5) \
            / math.gamma(n + 2.0) - 1.0
        config = tomography_config("steering", n, q=0.0)
        stats = estimate(config, 200_000, seed=73)
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
        batch = sample_batch(config, rng_stream(6), 16)
        # one conditioned trit per option of the party's own choice
        assert batch.alice.shape[1] == len(config.alice_directions)
        assert batch.bob.shape[1] == len(config.bob_directions)
