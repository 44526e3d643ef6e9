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
is always unanimous, and ``ModelConfig`` pins ``n_copies = 1`` for them.
A ``ModelConfig`` is the model alone: its ``run_kind`` names the test a
run of it feeds and its ``preselection_weight`` is derived from N, while
the seed belongs to each run and the samplers take a generator.
``sample_batch`` is the one public sampler: it returns a ``ReadoutBatch``
with one trit per (run, choice) for every kind.  It wraps the two kernels
that counting calls, one per model family.  ``unanimity_cell_batch``
folds each run's two picks and the trit read at each, which are the whole
unanimity readout, into one pick-cell index.  ``tomography_level_batch``
gives the threshold levels of the sampled projections on a q grid, for a
tuple of copy counts; a point estimate is the one-N, one-q case, whose
levels on the grid (q,) are the trits.  It is one explicit loop over
blocks of samples, with no generator layers: A, the opening and azimuth
uniforms and Alice's levels do not depend on N, so each block makes them
once, then loops over the copy counts, adding only Bob's directions,
projections and levels.  Each N's levels are bit-identical to a draw of
that N alone, because the single-N stream draws the same numbers in the
same order and every elementwise operation keeps its order.  Both
kernels take a ``sphere.Workspace`` and return views of it;
``sample_batch`` gives each call a fresh one.  One table map
(``pick_tables``) turns per-pick-pair outcomes into reading-pair tables,
for the exact enumerator (``enumerate_unanimity``) and for Monte Carlo
pick counts alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantum
from .sphere import BLOCK, PairSampler, Workspace, blocks, check_unit

DEFAULT_SEED = 12345

KINDS = ("simple-bell", "trusted-steering", "ncopy-steering",
         "ncopy-tomography", "chaotic-ball")

# Preselection weight (N+1)/2^N of the N-copy tomography construction: a
# property of the config, printed by ``lrpovm bell`` and never folded into
# the detection efficiency.
def preselection_weight(n_copies) -> float:
    if n_copies == math.inf:
        return 0.0
    n = int(n_copies)
    return math.ldexp(n + 1, -n)


@dataclass
class ModelConfig:
    """Immutable-by-convention model: the fixed local joint readout only.

    A run's randomness is not part of the model; the seed is an argument
    of the estimator that draws from it.  ``n_copies`` may be ``math.inf``
    for the chaotic-ball limit; the pick kinds always hold
    ``n_copies = 1``.  The direction sets are (M, 3) arrays of unit rows;
    steering models default to the orthogonal triple for Bob and its
    antipodes for Alice, which is the perfectly correlated matched
    arrangement.  A steering run reads matched pairs, so it needs one
    Alice direction per Bob direction.
    """

    kind: str
    n_copies: float = 1
    q: float = 0.0
    m_choices: int = 3
    alice_directions: np.ndarray | None = None
    bob_directions: np.ndarray | None = None

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
        if self.kind in ("trusted-steering", "ncopy-steering") \
                and len(self.bob_directions) != self.m_choices:
            raise ValueError("m_choices must match the direction set")
        if self.run_kind == "steering" \
                and len(self.alice_directions) != len(self.bob_directions):
            raise ValueError(
                f"alice_directions must have one row per Bob direction "
                f"({len(self.bob_directions)}) in a steering run, got "
                f"{len(self.alice_directions)}")
        if self.kind == "chaotic-ball":
            self.n_copies = math.inf
        elif self.kind in ("simple-bell", "trusted-steering"):
            self.n_copies = 1

    @property
    def is_tomography(self) -> bool:
        return self.kind in ("ncopy-tomography", "chaotic-ball")

    @property
    def run_kind(self) -> str:
        """The test a run of this model feeds: 'bell' or 'steering'.

        The pick and unanimity kinds fix it; a tomography model serves
        either test and is read as Bell with two Alice directions.
        """
        if self.kind in ("trusted-steering", "ncopy-steering"):
            return "steering"
        if self.kind == "simple-bell" or len(self.alice_directions) == 2:
            return "bell"
        return "steering"

    @property
    def preselection_weight(self) -> float | None:
        """(N+1)/2^N for the tomography kinds, None for the others."""
        return preselection_weight(self.n_copies) if self.is_tomography \
            else None


def tomography_config(kind: str = "bell", n_copies: float = 1,
                      q: float = 0.0) -> ModelConfig:
    """Tomography model preset for a Bell (CHSH angles) or steering (triple) run."""
    if kind == "bell":
        alice, bob = quantum.CHSH_ALICE, quantum.CHSH_BOB
    elif kind == "steering":
        alice, bob = quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE
    else:
        raise ValueError(f"kind must be 'bell' or 'steering', got {kind!r}")
    model = "chaotic-ball" if n_copies == math.inf else "ncopy-tomography"
    return ModelConfig(kind=model, n_copies=n_copies, q=q,
                       alice_directions=alice, bob_directions=bob)


@dataclass
class ReadoutBatch:
    """Vector of joint readouts: one trit per (sample, party choice)."""

    alice: np.ndarray  # (n, M_alice) int8
    bob: np.ndarray    # (n, M_bob) int8


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


# Uniform bins of |p| on [0, 1] for the level lookup; a power of two, so
# |p| * LEVEL_BINS is exact.
LEVEL_BINS = 1024


class _LevelGrid:
    """The kernel of ``threshold_levels``: the grid's bucket table, and work
    arrays for blocks of up to ``size`` projections taken from ``ws``."""

    def __init__(self, q_sorted, size: int, ws: Workspace) -> None:
        q = np.asarray(q_sorted, dtype=float)
        self.q = q
        self.dtype = np.min_scalar_type(-q.size - 1)
        self.bools = ws.take((2, size), bool)
        if q.size == 1:
            return
        q_bin = np.minimum(q * LEVEL_BINS, LEVEL_BINS).astype(np.intp)
        per_bin = np.bincount(q_bin, minlength=LEVEL_BINS + 1)
        self.first = np.zeros(LEVEL_BINS + 1, dtype=np.intp)
        np.cumsum(per_bin[:-1], out=self.first[1:])
        self.q_pad = np.append(q, np.inf)
        self.steps = int(per_bin.max())
        self.mag, self.near = ws.take((2, size))
        self.bins, self.level = ws.take((2, size), np.intp)

    def levels_into(self, p: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Levels of the projections p (any shape) written into out."""
        m = p.size
        p, out = p.reshape(m), out.reshape(m)
        above, below = self.bools[0, :m], self.bools[1, :m]
        if self.q.size == 1:
            np.greater(p, self.q[0], out=above)
            np.less(p, -self.q[0], out=below)
            return np.subtract(above.view(np.int8), below.view(np.int8),
                               out=out)
        mag, near = self.mag[:m], self.near[:m]
        bins, level = self.bins[:m], self.level[:m]
        np.abs(p, out=mag)
        np.multiply(mag, LEVEL_BINS, out=bins, casting="unsafe")
        np.minimum(bins, LEVEL_BINS, out=bins)
        np.take(self.first, bins, out=level, mode="clip")
        for _ in range(self.steps):
            np.take(self.q_pad, level, out=near, mode="clip")
            np.greater(mag, near, out=above)
            level += above
        np.copyto(out, level, casting="unsafe")
        # The sign 1 - 2 (p < 0) is built in the bytes of ``below``: a
        # plain multiply costs a small fraction of a masked negative.
        sign = np.less(p, 0.0, out=below).view(np.int8)
        np.multiply(sign, -2, out=sign)
        sign += 1
        out *= sign
        return out


def threshold_levels(projections, q_sorted) -> np.ndarray:
    """Signed threshold level of each projection against a sorted q grid.

    The level is v = sign(p) * #{k : q_k < |p|}.  At grid index k the trit
    is +1 when v >= k + 1, -1 when v <= -(k + 1) and 0 when |v| <= k, so
    every dead zone is the closed interval [-q_k, +q_k], as in
    ``threshold_readout``.  On a one-point grid the level is the trit,
    (p > q) - (p < -q).  Levels come back in the smallest signed integer
    type that holds +-L for L grid points (int8 up to L = 127).

    Longer grids use a bucket table over B = LEVEL_BINS bins.  As B is a
    power of two, bin(x) = min(floor(x B), B) is exact and monotone, so a
    grid point in a lower bin than |p| lies below |p| and one in a higher
    bin lies above it.  The count starts at first[bin(|p|)], the number of
    grid points in lower bins; each of w steps then adds 1 while the next
    grid point is below |p|, w being the most grid points one bin holds.
    Only same-bin points are ever compared, and the +inf that pads the grid
    stops a count that has passed every point.  The result equals the
    binary-search count for any sorted grid, duplicates included.
    """
    p = np.ascontiguousarray(projections, dtype=float).reshape(-1)
    grid = _LevelGrid(q_sorted, BLOCK + 1, Workspace())
    out = np.empty(p.shape, grid.dtype)
    for rows in blocks(p.size):
        grid.levels_into(p[rows], out[rows])
    return out.reshape(np.shape(projections))


def _correlation_table(alice_dirs, bob_dirs) -> np.ndarray:
    return -np.asarray(alice_dirs) @ np.asarray(bob_dirs).T


def _scatter(n: int, m: int, picks: np.ndarray, values: np.ndarray
             ) -> np.ndarray:
    out = np.zeros((n, m), dtype=np.int8)
    out[np.arange(n), picks] = values
    return out


def _unanimity_readout(config: ModelConfig, gen, n: int, ws: Workspace
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unanimity model over N singlet copies; the pick models are N = 1.

    Returns (pick, a_val, b_val): the pick pair pick_a * Mb + pick_b of
    each party's uniformly picked choice, and the trit each reads there,
    +-1 when all N copies agree (exact singlet statistics per copy) and 0
    otherwise.  The draws are pick_a, pick_b, each copy's sign xi and each
    copy's match, in that order; every array, ``pick`` too, is a view of
    ``ws``.  ``integers`` has no ``out=``, so its draws are made block by
    block and copied in: for int64 with a range below 2**32 it keeps no
    state between calls, so the blocks draw the numbers of one call.  The
    match uniforms, drawn last and read once, are drawn block by block
    into one block-sized buffer.
    """
    table = _correlation_table(config.alice_directions, config.bob_directions)
    p_same = ((1.0 + table) / 2.0).ravel()
    ma, mb = table.shape
    ncopies = int(config.n_copies)
    pick = ws.take(n, np.int64)
    for rows in blocks(n):
        pick[rows] = gen.integers(0, ma, rows.stop - rows.start)
    pick *= mb
    for rows in blocks(n):
        pick[rows] += gen.integers(0, mb, rows.stop - rows.start)
    xi = ws.take((n, ncopies), bool)
    for rows in blocks(n):
        np.not_equal(gen.integers(0, 2, (rows.stop - rows.start, ncopies)),
                     0, out=xi[rows])
    a_val, b_val = ws.take((2, n), np.int8)
    match = ws.take((BLOCK, ncopies))
    same = ws.take((BLOCK, ncopies), bool)
    work = ws.take(BLOCK + 1)
    alice_all, bob_all, agree, flag = ws.take((4, BLOCK + 1), bool)
    for rows in blocks(n):
        m = rows.stop - rows.start
        p = np.take(p_same, pick[rows], out=work[:m], mode="clip")
        s = same[:m]
        np.less(gen.random(out=match[:m]), p[:, None], out=s)
        # Bob's copy k reads xi_k when same_k and -xi_k otherwise, so his
        # copies agree with copy 0 exactly when
        # (xi_k == xi_0) == (same_k == same_0).
        xi_0, same_0 = xi[rows, 0], s[:, 0]
        a_all, b_all, eq, fl = alice_all[:m], bob_all[:m], agree[:m], flag[:m]
        a_all[:] = True
        b_all[:] = True
        for k in range(1, ncopies):
            np.equal(xi[rows, k], xi_0, out=eq)
            a_all &= eq
            np.equal(s[:, k], same_0, out=fl)
            np.equal(eq, fl, out=fl)
            b_all &= fl
        # Copy 0 reads +1 for Alice when xi_0, and for Bob when
        # xi_0 == same_0.
        _sign_into(xi_0, a_all, a_val[rows])
        np.equal(xi_0, same_0, out=fl)
        _sign_into(fl, b_all, b_val[rows])
    return pick, a_val, b_val


def _sign_into(positive, live, out) -> None:
    """out = (2 positive - 1) * live, for boolean positive and live."""
    np.multiply(positive.view(np.int8), 2, out=out)
    out -= 1
    out *= live


def unanimity_cell_batch(config: ModelConfig, rng: np.random.Generator,
                         n: int, ws: Workspace) -> np.ndarray:
    """Pick-cell index of n unanimity runs, the readout's whole content.

    The index ((pick_a Mb + pick_b) 3 + a + 1) 3 + b + 1 numbers the cells
    of the (Ma, Mb, 3, 3) table that ``pick_tables`` reads.  It is built
    in place on the pick array; the other work arrays come from ``ws``.
    """
    cell, a_val, b_val = _unanimity_readout(config, rng, n, ws)
    for rows in blocks(n):
        c = cell[rows]
        c *= 3
        c += a_val[rows]
        c *= 3
        c += b_val[rows]
        c += 4
    return cell


def tomography_level_batch(config: ModelConfig, rng: np.random.Generator,
                           n: int, q_sorted, ws: Workspace, n_copies
                           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Signed threshold levels of n sampled runs at several copy counts.

    Returns Alice's levels (n, Ma) and a list of Bob's (n, Mb), one per
    copy count in ``n_copies``; the config gives the direction sets.
    Levels are read against the sorted grid ``q_sorted`` as by
    ``threshold_levels``; a point estimate is the one-N, one-q case, whose
    levels on the grid (config.q,) are the trits.  One ``PairSampler`` draw
    serves every copy count: for finite N the pair (A, B) follows the
    N-copy tomography density, and the chaotic-ball limit shares one axis
    exactly (B = A).  Each block projects and levels Alice's directions
    once, then loops over the copy counts, adding Bob's directions,
    projections and levels; each N's levels equal those of a call with
    that N alone.  Where B = A and the direction sets are equal, Bob's
    levels are Alice's array and that N is skipped.  Every work array is
    taken from ``ws``, and the returned levels are views of it.
    """
    dirs_a = np.asarray(config.alice_directions).T
    dirs_b = np.asarray(config.bob_directions).T
    ma, mb = dirs_a.shape[1], dirs_b.shape[1]
    grid = _LevelGrid(q_sorted, (BLOCK + 1) * max(ma, mb), ws)
    levels_a = ws.take((n, ma), grid.dtype)
    shared = np.array_equal(dirs_a, dirs_b)
    levels_b = [levels_a if shared and k == math.inf
                else ws.take((n, mb), grid.dtype) for k in n_copies]
    proj_a = ws.take((BLOCK + 1, ma))
    proj_b = ws.take((BLOCK + 1, mb))
    pairs = PairSampler(n_copies, rng, n, ws)
    for rows in blocks(n):
        m = rows.stop - rows.start
        a = pairs.block(rows)
        grid.levels_into(np.matmul(a, dirs_a, out=proj_a[:m]),
                         levels_a[rows])
        for k, levels in zip(n_copies, levels_b):
            if levels is not levels_a:
                b = pairs.partner(k, a, rows)
                grid.levels_into(np.matmul(b, dirs_b, out=proj_b[:m]),
                                 levels[rows])
    return levels_a, levels_b


def sample_batch(config: ModelConfig, rng: np.random.Generator, n: int
                 ) -> ReadoutBatch:
    """Draw n joint readouts from the configured model.

    The unanimity family reads one trit at each party's picked choice and
    0 at every other; for the steering kinds Bob's zeros are unregistered
    events the estimator drops, which is what suppresses the full
    correlation to 1/M while coincidences stay perfect.  The tomography
    family reads every choice, thresholded at ``config.q``.
    """
    if config.is_tomography:
        alice, (bob,) = tomography_level_batch(
            config, rng, n, (config.q,), Workspace(), (config.n_copies,))
        # A shared-axis steering batch reads Alice's levels for Bob's.
        return ReadoutBatch(alice=alice,
                            bob=bob.copy() if bob is alice else bob)
    pick, a_val, b_val = _unanimity_readout(config, rng, n, Workspace())
    pick_a, pick_b = np.divmod(pick, len(config.bob_directions))
    return ReadoutBatch(
        alice=_scatter(n, len(config.alice_directions), pick_a, a_val),
        bob=_scatter(n, len(config.bob_directions), pick_b, b_val))


# Exact joint-readout distributions ----------------------------------------

def pick_tables(cell: np.ndarray) -> np.ndarray:
    """Reading-pair trit tables from unanimity outcomes per pick pair.

    ``cell[p, q]`` is the (Alice trit, Bob trit) table of the runs that
    picked (p, q), as counts or probabilities, trit axes ordered
    (-1, 0, +1).  On reading pair (i, j): both picks match -> that cell;
    only Alice's matches -> Bob reads 0; only Bob's -> Alice reads 0;
    neither -> (0, 0).  Each mismatch term is a row sum minus the matched
    pick, so integer counts stay integer-exact.
    """
    alice = cell.sum(axis=3)
    bob = cell.sum(axis=2)
    total = alice.sum(axis=2)
    tables = cell.copy()
    tables[..., 1] += alice.sum(axis=1, keepdims=True) - alice
    tables[..., 1, :] += bob.sum(axis=0, keepdims=True) - bob
    tables[..., 1, 1] += (total.sum() - total.sum(axis=1, keepdims=True)
                          - total.sum(axis=0, keepdims=True) + total)
    return tables


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
    return pick_tables(cell) / (ma * mb)
