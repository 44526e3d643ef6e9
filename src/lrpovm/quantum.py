"""Exact finite-dimensional quantum engine.

Qubit states and evolution, Pauli/POVM algebra, tensor powers of the
singlet, spin coherent states, and the brute-force oracles the local
realistic models are validated against.  Everything here is dense numpy
on small Hilbert spaces (dimension at most 4^5).
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

from .sphere import check_count, check_finite, check_unit

# Basis convention: |+> is index 0, |-> is index 1, binary counting.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Standard CHSH geometry: S evaluates to 2*sqrt(2) on the singlet.
CHSH_ALICE = np.array([[1.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0]])
CHSH_BOB = np.array([[-1.0, -1.0, 0.0],
                     [-1.0, 1.0, 0.0]]) / math.sqrt(2.0)
# Orthogonal triple used by the three-setting steering test.
STEERING_TRIPLE = np.eye(3)

COPY_CAP = 5  # exact singlet powers up to 4^5 amplitudes


def direction_operator(direction) -> np.ndarray:
    """The operator d . sigma for a unit direction d."""
    d = check_unit(direction)
    return d[0] * PAULI_X + d[1] * PAULI_Y + d[2] * PAULI_Z


def projector(direction) -> np.ndarray:
    """Qubit projector (1 + d.sigma)/2 onto the +1 eigenstate along d."""
    return 0.5 * (IDENTITY_2 + direction_operator(direction))


def bloch_state(direction) -> np.ndarray:
    """Unit eigenvector of d.sigma with eigenvalue +1."""
    d = check_unit(direction)
    theta = math.acos(min(1.0, max(-1.0, d[2])))
    phi = math.atan2(d[1], d[0])
    return np.array([math.cos(theta / 2.0),
                     math.sin(theta / 2.0) * complex(math.cos(phi),
                                                     math.sin(phi))],
                    dtype=complex)


def qubit_probability_plus(omega_t: float) -> float:
    """Survival probability of the initial state after phase omega*t."""
    return math.cos(check_finite(omega_t, "omega_t") / 2.0) ** 2


def evolution_operator(omega_t: float) -> np.ndarray:
    """Single-qubit evolution with amplitude cos(omega*t/2) on the initial state."""
    half = check_finite(omega_t, "omega_t") / 2.0
    c, s = math.cos(half), math.sin(half)
    return c * IDENTITY_2 - 1j * s * PAULI_X


def _check_copy_cap(n_copies: int) -> int:
    n = check_count(n_copies, minimum=1)
    if n > COPY_CAP:
        raise ValueError(
            f"n_copies={n} exceeds the exact-engine cap {COPY_CAP}")
    return n


def singlet_power(n_copies: int) -> np.ndarray:
    """Tensor power of the two-qubit singlet, qubit order (A_1..A_N, B_1..B_N).

    Amplitudes are indexed by binary counting with |+> as bit 0 and A_1 as
    the most significant qubit.  For one copy this is (0, 1, -1, 0)/sqrt(2)
    over the basis (++, +-, -+, --).
    """
    n = _check_copy_cap(n_copies)
    pair = np.zeros((2, 2), dtype=complex)
    pair[0, 1] = 1.0 / math.sqrt(2.0)
    pair[1, 0] = -1.0 / math.sqrt(2.0)
    full = reduce(np.multiply.outer, [pair] * n)  # axes (a1, b1, a2, b2, ...)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.ascontiguousarray(full.transpose(perm)).reshape(-1)


def coherent_state(n_copies: int, direction) -> np.ndarray:
    """Product state of n identically oriented qubits (maximal spin along d)."""
    n = _check_copy_cap(n_copies)
    single = bloch_state(direction)
    return reduce(np.kron, [single] * n)


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-qubit operator at the given site of an n-qubit register."""
    mats = [IDENTITY_2] * n_sites
    mats[site] = op
    return reduce(np.kron, mats)


def collective_spin(n_sites: int) -> list[np.ndarray]:
    """Total spin components (Jx, Jy, Jz) of an n-qubit register."""
    out = []
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        total = sum(site_operator(pauli, k, n_sites) for k in range(n_sites))
        out.append(0.5 * total)
    return out


def oracle_pair_density(n_copies: int, dir_a, dir_b) -> float:
    """Brute-force joint tomography density at directions (A, B).

    Computes |<A| x <B| Psi>|^2 from the explicit singlet power and
    coherent states, with the coherent-resolution weight (N+1)/(4 pi) on
    each side.  Integrated over both spheres this yields the preselection
    weight (N+1)/2^N; the shape in A.B is the ground truth for
    sphere.pair_density.
    """
    n = _check_copy_cap(n_copies)
    psi = singlet_power(n)
    bra = np.conj(np.kron(coherent_state(n, dir_a), coherent_state(n, dir_b)))
    amp = bra @ psi
    weight = (n + 1) / (4.0 * math.pi)
    return float(weight ** 2 * (amp.real ** 2 + amp.imag ** 2))


def quantum_correlation(dir_a, dir_b) -> float:
    """Singlet correlation <ab> = -a.b for projective readouts along a and b."""
    a = check_unit(dir_a)
    b = check_unit(dir_b)
    return float(-(a @ b))


def singlet_pair_probabilities(dir_a, dir_b) -> np.ndarray:
    """Joint outcome table p[xi, zeta] for the singlet, indices 0:+1, 1:-1."""
    corr = quantum_correlation(dir_a, dir_b)
    p = np.empty((2, 2))
    for i, xi in enumerate((1, -1)):
        for j, zeta in enumerate((1, -1)):
            p[i, j] = (1.0 + xi * zeta * corr) / 4.0
    return p


def quantum_correlation_bruteforce(dir_a, dir_b) -> float:
    """Same correlation evaluated through explicit two-qubit projectors."""
    psi = singlet_power(1)
    total = 0.0
    for xi in (1, -1):
        ka = projector(xi * check_unit(dir_a))
        for zeta in (1, -1):
            kb = projector(zeta * check_unit(dir_b))
            op = np.kron(ka, kb)
            total += xi * zeta * float(np.real(np.conj(psi) @ (op @ psi)))
    return total


def chsh_value(alice_dirs=CHSH_ALICE, bob_dirs=CHSH_BOB,
               correlation=quantum_correlation) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)."""
    e = [[correlation(a, b) for b in bob_dirs] for a in alice_dirs]
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def steering_value_for_state(state, alice_dirs, bob_dirs) -> float:
    """Three-setting steering functional for an arbitrary two-qubit state.

    T = sum_j sum_a p(a_j) <b_j>^2_{a_j} with the uniform choice weight 1/3
    folded into p(a_j).  The ideal singlet with antiparallel matched
    choices gives 1; the trusted local-realistic bound is 1/3.
    """
    state = np.asarray(state, dtype=complex)
    m = len(bob_dirs)
    total = 0.0
    for j in range(m):
        for a_out in (1, -1):
            ka = projector(a_out * check_unit(alice_dirs[j]))
            probs = {}
            for b_out in (1, -1):
                kb = projector(b_out * check_unit(bob_dirs[j]))
                op = np.kron(ka, kb)
                probs[b_out] = float(np.real(np.conj(state) @ (op @ state)))
            p_a = probs[1] + probs[-1]
            if p_a <= 0.0:
                continue
            mean_b = (probs[1] - probs[-1]) / p_a
            total += (1.0 / m) * p_a * mean_b ** 2
    return total


def quantum_steering_T() -> float:
    """Ideal steering value of the singlet with the orthogonal triple (= 1)."""
    return steering_value_for_state(
        singlet_power(1), -STEERING_TRIPLE, STEERING_TRIPLE)


_PLUS = np.array([1.0, 0.0], dtype=complex)
_PROJECTOR_PLUS = np.array([[1, 0], [0, 0]], dtype=complex)


def _heisenberg_projector(omega_t: float, outcome: int) -> np.ndarray:
    """u^dagger |+><+| u at phase omega_t for outcome 1, its complement
    for outcome 0."""
    u = evolution_operator(omega_t)
    p = u.conj().T @ _PROJECTOR_PLUS @ u
    return p if outcome == 1 else IDENTITY_2 - p


def _check_times(t_a: float, t_b: float, omega: float) -> None:
    """Both check times and the rate must be finite, each named."""
    for name, value in (("t_a", t_a), ("t_b", t_b), ("omega", omega)):
        check_finite(value, name)


def sequential_qubit_probability(t_a: float, t_b: float, omega: float
                                 ) -> np.ndarray:
    """Joint readout table for two sequential projective checks on one qubit.

    Returns p[beta, gamma] with beta, gamma in {0, 1} (1 = found in the
    initial state) for checks at times t_a <= t_b.  The operator is the
    product of time-evolved projectors, so the first readout disturbs the
    second; the marginals do not reproduce the single-check probability.
    """
    _check_times(t_a, t_b, omega)
    if t_a > t_b:
        raise ValueError("t_a must not exceed t_b")
    out = np.empty((2, 2))
    for beta in (0, 1):
        for gamma in (0, 1):
            k = _heisenberg_projector(omega * t_b, gamma) \
                @ _heisenberg_projector(omega * t_a, beta)
            amp = k @ _PLUS
            out[beta, gamma] = float(np.real(np.conj(amp) @ amp))
    return out


def copies_joint_probability(t_a: float, t_b: float, omega: float
                             ) -> np.ndarray:
    """Joint readout table when the two checks hit two different qubit copies.

    Both copies start in the initial state and evolve identically; the
    operator projects copy 0 at t_a and copy 1 at t_b.  Computed by brute
    force on the two-qubit register of the copies the checks read: further
    copies stay idle and never change the table.  The result factorizes
    into the undisturbed single-check probabilities.
    """
    _check_times(t_a, t_b, omega)
    psi0 = np.kron(_PLUS, _PLUS)
    out = np.empty((2, 2))
    for beta in (0, 1):
        pa = site_operator(_heisenberg_projector(omega * t_a, beta), 0, 2)
        for gamma in (0, 1):
            pb = site_operator(_heisenberg_projector(omega * t_b, gamma), 1, 2)
            amp = (pb @ (pa @ psi0))
            out[beta, gamma] = float(np.real(np.conj(amp) @ amp))
    return out


# ---------------------------------------------------------------------------
# Joint Kraus set of the trusted M-choice steering model, and its reduction.
# ---------------------------------------------------------------------------

def trusted_steering_kraus(m_choices: int, alice_dirs, bob_dirs
                           ) -> list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]:
    """All joint Kraus operators of the trusted M-choice steering model.

    One operator per (Alice pick, Bob pick, Alice outcome, Bob outcome):
    sqrt(1/M^2) K_A x K_B with qubit projectors along the picked axes.
    The returned labels give the full choice-conditioned readout vectors;
    Alice's mismatched choices read 0, Bob's are unregistered (encoded 0).
    """
    m = check_count(m_choices, "m_choices", 2)
    if len(alice_dirs) != m or len(bob_dirs) != m:
        raise ValueError("m_choices must match both direction sets")
    weight = 1.0 / m  # sqrt of the 1/M^2 pick probability
    terms = []
    for j, k in product(range(m), range(m)):
        for xi, zeta in product((1, -1), (1, -1)):
            ka = projector(xi * check_unit(alice_dirs[j]))
            kb = projector(zeta * check_unit(bob_dirs[k]))
            alice_label = tuple(xi if idx == j else 0 for idx in range(m))
            bob_label = tuple(zeta if idx == k else 0 for idx in range(m))
            terms.append((alice_label, bob_label, weight * np.kron(ka, kb)))
    return terms


def trusted_reduction_deviation(m_choices: int = 3) -> float:
    """Max deviation of the marginalized joint POVM from the trusted product.

    The directions are the defaults: Bob's first M axes of the orthogonal
    triple, Alice's their antipodes.  Sums K^dag K over every readout
    variable except (a_1, b_1) and compares against
    (K^dag K)_A(a_1) x (K^dag K)_B(b_1), where the single-party elements
    carry the pick weights: (1/M) P(+-a_1) for a_1 = +-1 and (1 - 1/M) I
    for the retained zero / unregistered outcome.
    """
    m = check_count(m_choices, "m_choices", 2)
    bob_dirs = STEERING_TRIPLE[:m]
    alice_dirs = -bob_dirs
    terms = trusted_steering_kraus(m, alice_dirs, bob_dirs)

    sums: dict[tuple[int, int], np.ndarray] = {}
    for alice_label, bob_label, k in terms:
        key = (alice_label[0], bob_label[0])
        sums[key] = sums.get(key, 0) + k.conj().T @ k

    def party_element(value: int, direction) -> np.ndarray:
        if value == 0:
            return (1.0 - 1.0 / m) * IDENTITY_2
        return (1.0 / m) * projector(value * check_unit(direction))

    worst = 0.0
    for a1 in (-1, 0, 1):
        for b1 in (-1, 0, 1):
            expected = np.kron(party_element(a1, alice_dirs[0]),
                               party_element(b1, bob_dirs[0]))
            got = sums.get((a1, b1), np.zeros((4, 4), dtype=complex))
            worst = max(worst, float(np.max(np.abs(got - expected))))
    return worst


def povm_completeness_deviation(terms) -> float:
    """Max entry deviation of sum K^dag K from the identity."""
    total = sum(k.conj().T @ k for _, _, k in terms)
    return float(np.max(np.abs(total - np.eye(len(total)))))
