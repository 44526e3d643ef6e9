import math

import numpy as np
import pytest

from lrpovm.quantum import (STEERING_TRIPLE,
                            chsh_value, coherent_state, collective_spin,
                            copies_joint_probability, oracle_pair_density,
                            projector, qubit_probability_plus,
                            quantum_correlation,
                            quantum_correlation_bruteforce,
                            quantum_steering_T, sequential_qubit_probability,
                            singlet_power, steering_value_for_state,
                            trusted_reduction_deviation,
                            trusted_steering_kraus)


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestQubitProbability:
    def test_initial(self):
        assert qubit_probability_plus(0.0) == 1.0

    def test_full_flip(self):
        assert qubit_probability_plus(math.pi) == pytest.approx(0.0, abs=1e-30)

    def test_half(self):
        assert qubit_probability_plus(math.pi / 2) == pytest.approx(0.5)


class TestSingletPower:
    def test_one_copy_amplitudes(self):
        psi = singlet_power(1)
        expected = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(psi, expected, atol=1e-15)

    def test_two_copies(self):
        psi = singlet_power(2)
        assert psi.shape == (16,)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        nonzero = np.abs(psi) > 1e-12
        assert nonzero.sum() == 4
        assert np.allclose(np.abs(psi[nonzero]), 0.5, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_spin_zero(self, n):
        psi = singlet_power(n)
        js = collective_spin(2 * n)
        j2 = sum(j @ j for j in js)
        assert abs(np.real(np.conj(psi) @ (j2 @ psi))) < 1e-10

    def test_cap(self):
        with pytest.raises(ValueError):
            singlet_power(6)
        # A copy count that is not an integer is named, never truncated.
        z, y = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
        for n in (2.5, math.inf, math.nan):
            for call in (lambda: singlet_power(n),
                         lambda: coherent_state(n, z),
                         lambda: oracle_pair_density(n, z, y)):
                with pytest.raises(TypeError, match="n_copies"):
                    call()
        assert np.array_equal(singlet_power(np.int64(2)), singlet_power(2))


class TestCoherentState:
    def test_north_pole(self):
        psi = coherent_state(3, [0.0, 0.0, 1.0])
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(psi, expected, atol=1e-15)

    def test_south_pole_single(self):
        psi = coherent_state(1, [0.0, 0.0, -1.0])
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi[0]) < 1e-12

    def test_spin_eigenvalue(self):
        rng = np.random.default_rng(11)
        n = 3
        d = random_direction(rng)
        psi = coherent_state(n, d)
        jx, jy, jz = collective_spin(n)
        j_d = d[0] * jx + d[1] * jy + d[2] * jz
        val = np.real(np.conj(psi) @ (j_d @ psi))
        assert abs(val - n / 2.0) < 1e-12


class TestOraclePairDensity:
    def test_aligned_vanishes(self):
        d = np.array([0.0, 1.0, 0.0])
        assert oracle_pair_density(1, d, d) < 1e-28

    def test_antiparallel_is_maximal(self):
        rng = np.random.default_rng(3)
        a = random_direction(rng)
        peak = oracle_pair_density(1, a, -a)
        for _ in range(25):
            assert peak >= oracle_pair_density(1, a, random_direction(rng))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ratio_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        a = random_direction(rng)
        ref_b = random_direction(rng)
        ref = oracle_pair_density(n, a, ref_b)
        ref_closed = ((1.0 - a @ ref_b) / 2.0) ** n
        for _ in range(10):
            b = random_direction(rng)
            ratio = oracle_pair_density(n, a, b) / ref
            closed = ((1.0 - a @ b) / 2.0) ** n / ref_closed
            assert ratio == pytest.approx(closed, rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        a, b = random_direction(rng), random_direction(rng)
        m, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert oracle_pair_density(2, a, b) == pytest.approx(
            oracle_pair_density(2, m @ a, m @ b), abs=1e-10)


class TestCorrelations:
    def test_aligned(self):
        d = np.array([1.0, 0.0, 0.0])
        assert quantum_correlation(d, d) == -1.0

    def test_orthogonal(self):
        assert quantum_correlation([1.0, 0, 0], [0, 1.0, 0]) == 0.0

    def test_bruteforce_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = random_direction(rng), random_direction(rng)
            assert quantum_correlation_bruteforce(a, b) == pytest.approx(
                quantum_correlation(a, b), abs=1e-12)

    def test_chsh_tsirelson(self):
        assert chsh_value() == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert chsh_value(correlation=quantum_correlation_bruteforce) == \
            pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_tsirelson_never_exceeded(self):
        rng = np.random.default_rng(13)
        bound = 2 * math.sqrt(2) + 1e-9
        for _ in range(1000):
            dirs = [random_direction(rng) for _ in range(4)]
            s = chsh_value(dirs[:2], dirs[2:])
            assert abs(s) <= bound


class TestSteering:
    def test_ideal_value(self):
        assert quantum_steering_T() == pytest.approx(1.0, abs=1e-12)

    def test_product_state_saturates_bound(self):
        plus_minus = np.zeros(4, dtype=complex)
        plus_minus[1] = 1.0  # |+-> in binary counting
        t = steering_value_for_state(plus_minus, -STEERING_TRIPLE,
                                     STEERING_TRIPLE)
        assert t == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestSequentialReadout:
    def test_quarter_probabilities(self):
        p = sequential_qubit_probability(math.pi / 2, math.pi, 1.0)
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_time_zero(self):
        p = sequential_qubit_probability(0.0, 0.0, 1.0)
        assert p[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_disturbed_marginal(self):
        t_a, t_b, omega = 0.7, 1.9, 1.0
        p = sequential_qubit_probability(t_a, t_b, omega)
        marginal = p[:, 1].sum()
        projective = qubit_probability_plus(omega * t_b)
        assert abs(marginal - projective) > 0.05

    def test_requires_ordering(self):
        with pytest.raises(ValueError):
            sequential_qubit_probability(2.0, 1.0, 1.0)


class TestCopiesReadout:
    def test_projective_zero_restored(self):
        p = copies_joint_probability(math.pi / 2, math.pi, 1.0)
        assert p[:, 1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_equal_times_product(self):
        t = 0.9
        p = copies_joint_probability(t, t, 1.0)
        pt = qubit_probability_plus(t)
        assert p[1, 1] == pytest.approx(pt * pt, abs=1e-12)

    def test_factorization(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            t_a, t_b = sorted(rng.random(2) * 6.0)
            p = copies_joint_probability(t_a, t_b, 1.0)
            pa = qubit_probability_plus(t_a)
            pb = qubit_probability_plus(t_b)
            expected = np.array([[(1 - pa) * (1 - pb), (1 - pa) * pb],
                                 [pa * (1 - pb), pa * pb]])
            assert np.allclose(p, expected, atol=1e-12)

    def test_zero_time_start(self):
        p = copies_joint_probability(0.0, 1.3, 1.0)
        assert p[1, :].sum() == pytest.approx(1.0, abs=1e-12)
        assert p[1, 1] == pytest.approx(qubit_probability_plus(1.3),
                                        abs=1e-12)


class TestTrustedKraus:
    def test_positivity(self):
        terms = trusted_steering_kraus(3, -STEERING_TRIPLE, STEERING_TRIPLE)
        for _, _, k in terms:
            eigs = np.linalg.eigvalsh(k.conj().T @ k)
            assert eigs.min() > -1e-10

    def test_completeness(self):
        terms = trusted_steering_kraus(3, -STEERING_TRIPLE, STEERING_TRIPLE)
        total = sum(k.conj().T @ k for _, _, k in terms)
        assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_reduction_to_trusted_product(self):
        assert trusted_reduction_deviation(3) < 1e-10

    def test_reduction_other_m(self):
        assert trusted_reduction_deviation(2) < 1e-10

    def test_choice_count_named(self):
        # A choice count is named, never truncated or left to the slice.
        message = r"^m_choices must be an integer, got 2\.5$"
        with pytest.raises(TypeError, match=message):
            trusted_steering_kraus(2.5, -STEERING_TRIPLE[:2],
                                   STEERING_TRIPLE[:2])
        with pytest.raises(TypeError, match=message):
            trusted_reduction_deviation(2.5)

    def test_projector_povm(self):
        rng = np.random.default_rng(19)
        d = random_direction(rng)
        total = projector(d) + projector(-d)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12
