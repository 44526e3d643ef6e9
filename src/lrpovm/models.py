"""Local realistic joint-POVM models.

Every model emits, per run, a trit readout (+1, 0, -1) for each choice of
each party simultaneously, so the record carries all choice-conditioned
variables at once.  A 0 means no detection; for the trusted steering
models a Bob-side 0 marks an unregistered (discarded) event, while
Alice's zeros always stay in her averages.

Model kinds
-----------
simple-bell       random pick of one of two directions per party; the
                  picked readout follows the exact singlet statistics,
                  the other reads 0, giving 50% efficiency.
trusted-steering  M-choice pick model: Bob registers only on a pick
                  match, Alice's mismatches read 0 and are kept.
ncopy-steering    N singlet copies with the unanimity rule: a party
                  reports +-1 only when all copies agree.
ncopy-tomography  thresholded projections of a correlated direction pair
                  (A, B) drawn from the N-copy tomography density.
chaotic-ball      the N -> infinity limit: both parties threshold
                  projections of one shared uniformly random axis.

The two pick kinds are the unanimity model at N = 1, since a single copy
is always unanimous: one sampler (``unanimity_batch``) and one exact
enumerator (``enumerate_unanimity``) serve all three discrete kinds, and
``ModelConfig`` pins ``n_copies = 1`` for the pick kinds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .sphere import as_generator, check_unit, sample_pair, \
    sample_uniform_direction

DEFAULT_SEED = 12345

KINDS = ("simple-bell", "trusted-steering", "ncopy-steering",
         "ncopy-tomography", "chaotic-ball")

# Preselection weight of the N-copy tomography construction, reported as
# metadata and never folded into the detection efficiency.
def preselection_weight(n_copies) -> float:
    if n_copies == math.inf:
        return 0.0
    n = int(n_copies)
    return (n + 1) / 2.0 ** n


@dataclass
class ModelConfig:
    """Immutable-by-convention model configuration.

    ``n_copies`` may be ``math.inf`` for the chaotic-ball limit; the pick
    kinds always hold ``n_copies = 1``.  The direction sets are (M, 3)
    arrays of unit rows; steering models default to the orthogonal triple
    for Bob and its antipodes for Alice, which is the perfectly correlated
    matched arrangement.
    """

    kind: str
    n_copies: float = 1
    q: float = 0.0
    m_choices: int = 3
    alice_directions: np.ndarray | None = None
    bob_directions: np.ndarray | None = None
    seed: int = DEFAULT_SEED
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        if self.n_copies != math.inf:
            if self.n_copies < 1 or int(self.n_copies) != self.n_copies:
                raise ValueError(f"n_copies must be a positive integer or "
                                 f"inf, got {self.n_copies}")
            self.n_copies = int(self.n_copies)
        elif self.kind == "ncopy-steering":
            raise ValueError("n_copies must be finite for ncopy-steering")
        if self.kind == "simple-bell":
            if self.alice_directions is None:
                self.alice_directions = quantum.CHSH_ALICE
            if self.bob_directions is None:
                self.bob_directions = quantum.CHSH_BOB
        elif self.kind in ("trusted-steering", "ncopy-steering"):
            if self.m_choices < 2:
                raise ValueError("m_choices must be at least 2 for steering")
            if self.bob_directions is None:
                self.bob_directions = quantum.STEERING_TRIPLE[:self.m_choices]
            if self.alice_directions is None:
                self.alice_directions = -np.asarray(self.bob_directions)
        elif self.kind in ("ncopy-tomography", "chaotic-ball"):
            if self.alice_directions is None:
                self.alice_directions = quantum.CHSH_ALICE
            if self.bob_directions is None:
                self.bob_directions = quantum.CHSH_BOB
        self.alice_directions = check_unit(
            np.atleast_2d(self.alice_directions), "alice_directions")
        self.bob_directions = check_unit(
            np.atleast_2d(self.bob_directions), "bob_directions")
        if self.kind in ("trusted-steering", "ncopy-steering"):
            if len(self.bob_directions) != self.m_choices:
                raise ValueError("m_choices must match the direction set")
        if self.kind == "chaotic-ball":
            self.n_copies = math.inf
        elif self.kind in ("simple-bell", "trusted-steering"):
            self.n_copies = 1
        self.metadata.setdefault(
            "preselection_weight",
            preselection_weight(self.n_copies)
            if self.kind in ("ncopy-tomography", "chaotic-ball") else None)

    @property
    def is_tomography(self) -> bool:
        return self.kind in ("ncopy-tomography", "chaotic-ball")


def tomography_config(kind: str = "bell", n_copies: float = 1,
                      q: float = 0.0, seed: int = DEFAULT_SEED) -> ModelConfig:
    """Tomography model preset for a Bell (CHSH angles) or steering (triple) run."""
    if kind == "bell":
        alice, bob = quantum.CHSH_ALICE, quantum.CHSH_BOB
    elif kind == "steering":
        alice, bob = quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE
    else:
        raise ValueError(f"kind must be 'bell' or 'steering', got {kind!r}")
    model = "chaotic-ball" if n_copies == math.inf else "ncopy-tomography"
    return ModelConfig(kind=model, n_copies=n_copies, q=q, seed=seed,
                       alice_directions=alice, bob_directions=bob)


@dataclass
class ReadoutBatch:
    """Vector of joint readouts: one trit per (sample, party choice)."""

    alice: np.ndarray  # (n, M_alice) int8
    bob: np.ndarray    # (n, M_bob) int8

    def __len__(self) -> int:
        return self.alice.shape[0]


@dataclass(frozen=True)
class JointReadout:
    """A single joint readout with all choice-conditioned trits.

    ``discarded`` is True when Bob registered no choice at all (for the
    unanimity model this is a failed agreement among his copies).
    """

    alice: tuple[int, ...]
    bob: tuple[int, ...]
    discarded: bool


def _first(batch: ReadoutBatch) -> JointReadout:
    alice = tuple(int(v) for v in batch.alice[0])
    bob = tuple(int(v) for v in batch.bob[0])
    return JointReadout(alice=alice, bob=bob, discarded=not any(bob))


def threshold_readout(projection: float, q: float) -> int:
    """Trit from a projection: +1 above +q, -1 below -q, else 0.

    The dead zone is the closed interval [-q, +q].
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if projection > q:
        return 1
    if projection < -q:
        return -1
    return 0


def threshold_levels(projections, q_sorted) -> np.ndarray:
    """Signed threshold level of each projection against a sorted q grid.

    The level is v = sign(p) * #{k : q_k < |p|}.  At grid index k the trit
    is +1 when v >= k + 1, -1 when v <= -(k + 1) and 0 when |v| <= k, so
    every dead zone is the closed interval [-q_k, +q_k], as in
    ``threshold_readout``.  On a one-point grid the level is the trit.
    """
    p = np.asarray(projections)
    level = np.searchsorted(q_sorted, np.abs(p), side="left")
    return np.copysign(level, p).astype(level.dtype)


def _correlation_table(alice_dirs, bob_dirs) -> np.ndarray:
    return -np.asarray(alice_dirs) @ np.asarray(bob_dirs).T


def _scatter(n: int, m: int, picks: np.ndarray, values: np.ndarray
             ) -> np.ndarray:
    out = np.zeros((n, m), dtype=np.int8)
    out[np.arange(n), picks] = values
    return out


def unanimity_batch(config: ModelConfig, rng, n: int) -> ReadoutBatch:
    """Unanimity model over N singlet copies; the pick models are N = 1.

    Each party picks one of its choices uniformly; the picked readout is
    +-1 when all N copies agree (exact singlet statistics per copy) and 0
    otherwise, and every other choice reads 0.  For the steering kinds
    Bob's zeros are unregistered events the estimator drops, which is
    what suppresses the full correlation to 1/M while coincidences stay
    perfect.
    """
    gen = as_generator(rng)
    table = _correlation_table(config.alice_directions, config.bob_directions)
    ma, mb = table.shape
    ncopies = int(config.n_copies)
    pick_a = gen.integers(0, ma, n)
    pick_b = gen.integers(0, mb, n)
    corr = table[pick_a, pick_b][:, None]
    xi = gen.integers(0, 2, (n, ncopies)).astype(np.int8) * 2 - 1
    same = gen.random((n, ncopies)) < (1.0 + corr) / 2.0
    zeta = np.where(same, xi, -xi).astype(np.int8)
    a_val = np.where(np.all(xi == xi[:, :1], axis=1), xi[:, 0], 0)
    b_val = np.where(np.all(zeta == zeta[:, :1], axis=1), zeta[:, 0], 0)
    return ReadoutBatch(alice=_scatter(n, ma, pick_a, a_val),
                        bob=_scatter(n, mb, pick_b, b_val))


def tomography_projections(config: ModelConfig, rng, n: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Projections of the sampled direction pair onto both parties' axes.

    For finite N the pair (A, B) follows the N-copy tomography density;
    the chaotic-ball limit shares one axis exactly (B = A).
    """
    gen = as_generator(rng)
    if config.n_copies == math.inf:
        a = sample_uniform_direction(gen, n)
        b = a
    else:
        a, b = sample_pair(int(config.n_copies), gen, n)
    return (a @ np.asarray(config.alice_directions).T,
            b @ np.asarray(config.bob_directions).T)


def tomography_batch(config: ModelConfig, rng, n: int) -> ReadoutBatch:
    alice, bob = (threshold_levels(p, (config.q,)).astype(np.int8)
                  for p in tomography_projections(config, rng, n))
    return ReadoutBatch(alice=alice, bob=bob)


def sample_batch(config: ModelConfig, rng, n: int) -> ReadoutBatch:
    """Draw n joint readouts from the configured model."""
    sampler = tomography_batch if config.is_tomography else unanimity_batch
    return sampler(config, rng, n)


# Convenience single-shot samplers -----------------------------------------

def simple_bell_sample(rng, alice_directions=None, bob_directions=None
                       ) -> JointReadout:
    config = ModelConfig(kind="simple-bell",
                         alice_directions=alice_directions,
                         bob_directions=bob_directions)
    return _first(unanimity_batch(config, rng, 1))


def trusted_steering_sample(m_choices: int, directions, rng,
                            alice_directions=None) -> JointReadout:
    config = ModelConfig(kind="trusted-steering", m_choices=m_choices,
                         bob_directions=directions,
                         alice_directions=alice_directions)
    return _first(unanimity_batch(config, rng, 1))


def ncopy_steering_sample(n_copies: int, directions, rng,
                          alice_directions=None, m_choices=None) -> JointReadout:
    config = ModelConfig(kind="ncopy-steering", n_copies=n_copies,
                         m_choices=m_choices or len(np.atleast_2d(directions)),
                         bob_directions=directions,
                         alice_directions=alice_directions)
    return _first(unanimity_batch(config, rng, 1))


def ncopy_tomography_sample(n_copies, q: float, rng,
                            alice_directions=None, bob_directions=None
                            ) -> JointReadout:
    kind = "chaotic-ball" if n_copies == math.inf else "ncopy-tomography"
    config = ModelConfig(kind=kind, n_copies=n_copies, q=q,
                         alice_directions=alice_directions,
                         bob_directions=bob_directions)
    return _first(tomography_batch(config, rng, 1))


def qubit_copies_joint(t_a: float, t_b: float, omega: float,
                       n_copies: int) -> np.ndarray:
    """Joint two-time readout distribution served by distinct qubit copies.

    Requires at least as many copies as readout times (two here).  The
    result is the undisturbed product p(beta) * p(gamma); it is computed
    by brute force on the copied register rather than asserted.
    """
    if n_copies < 2:
        raise ValueError("insufficient copies: need n_copies >= 2 readouts")
    return quantum.copies_joint_probability(t_a, t_b, omega, n_copies)


# Exact joint-readout distributions ----------------------------------------

def enumerate_unanimity(config: ModelConfig) -> np.ndarray:
    """Exact trit table for the unanimity model (and the pick kinds, N = 1).

    Returns probs[i, j, a, b] over every (Alice choice i, Bob choice j)
    reading pair, trit axes ordered (-1, 0, +1).  Per pick pair, both
    parties are unanimous with sign (s, t) with probability
    ((1 + s t corr) / 4)^N and one party alone with probability 2^-N.
    """
    table = _correlation_table(config.alice_directions, config.bob_directions)
    ma, mb = table.shape
    ncopies = int(config.n_copies)
    half_pow = 0.5 ** ncopies
    signs = np.array([-1.0, 1.0])
    both = ((1.0 + np.multiply.outer(table, np.outer(signs, signs))) / 4.0
            ) ** ncopies
    # cell[pick_a, pick_b] is the unanimity outcome of that pick pair.
    cell = np.empty((ma, mb, 3, 3))
    cell[..., ::2, ::2] = both
    cell[..., ::2, 1] = half_pow - both.sum(axis=-1)
    cell[..., 1, ::2] = half_pow - both.sum(axis=-2)
    cell[..., 1, 1] = 1.0 - 4.0 * half_pow + both.sum(axis=(-2, -1))
    # On reading pair (i, j): both picks match -> the cell; only Alice's
    # matches -> Bob reads 0; only Bob's -> Alice reads 0; neither -> (0, 0).
    probs = cell.copy()
    probs[..., 1] += np.einsum("iqa,qj->ija", cell.sum(axis=3),
                               1.0 - np.eye(mb))
    probs[..., 1, :] += np.einsum("pjb,pi->ijb", cell.sum(axis=2),
                                  1.0 - np.eye(ma))
    probs[..., 1, 1] += (ma - 1) * (mb - 1)
    return probs / (ma * mb)
