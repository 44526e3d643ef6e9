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

``READS`` names the parameters each kind reads, and is the one statement
of that rule.  The two pick kinds are the unanimity model at N = 1, since
a single copy is always unanimous, and ``ModelConfig`` pins
``n_copies = 1`` for them.
A ``ModelConfig`` is the model alone: its ``run_kind`` names the test a
run of it feeds and its ``preselection_weight`` is derived from N, while
the seed belongs to each run and the samplers take a generator.
``sample_batch`` is the one public sampler: it returns a ``ReadoutBatch``
with one trit per (run, choice) for every kind.  It wraps one kernel per
model family, and ``count_tables`` turns the same kernels' draws into
the (K, L, Ma, Mb, 3, 3) trit tables of K copy counts and L thresholds,
the unanimity family being the 1 x 1 case.  ``exact_tables`` is its
exact twin, with one closed form per family: the unanimity enumeration
(``enumerate_unanimity``), and for the tomography family
``tomography_tables``, a Legendre sum at finite N or two-cap lens areas
at N = inf, made for every q and every a.b of any shape in one call per
N; one pair's table is the one-q, one-a.b call.

``unanimity_cell_batch`` gives each run's pick cell, one index of its two
picks and the trit read at each, the whole unanimity readout.  A party's
trit is +1 when all its copies read +1, -1 when none does, 0 otherwise,
so trit + 1 is the sum of the flags "all copies +1" and "some copy +1";
``sample_batch`` decodes it with ``divmod``, and counting bincounts it
and maps the pick-pair cells to reading pairs with ``pick_tables``, the
map the exact enumerator (``enumerate_unanimity``) uses too.

``tomography_level_batch`` gives the signed threshold levels
(``threshold_levels``) of the sampled projections on a sorted q grid,
for a tuple of copy counts; a point estimate is the one-N, one-q case,
whose levels on the grid (q,) are the trits.  It is one explicit loop
over blocks of samples: A, the opening and azimuth uniforms and Alice's
levels do not depend on N, so each block makes them once, then loops
over the copy counts, adding only Bob's directions, projections and
levels.  Each N's levels are bit-identical to a draw of that N alone,
because the single-N stream draws the same numbers in the same order and
every elementwise operation keeps its order.  The loop makes one call
of its caller's function per (block, copy count), in order, with level
arrays that are block views valid only during the call: ``sample_batch``
copies them into full arrays, and counting (``_LevelCounter``)
histograms the joint levels of each copy count and counted reading
pair, then reads every threshold's table from the histogram's 2-D prefix
sums.  A counted chunk therefore holds only A's normal rows and the
opening uniforms at full size, and a workspace that does not grow with
the number of copy counts.  ``_LevelGrid``, which every level path
builds, checks the grid: its points by the one threshold rule
(``sphere.check_threshold``), and its order itself.  Every kernel takes
a ``sphere.Workspace``; ``unanimity_cell_batch`` returns a view of it,
and ``sample_batch`` gives each call a fresh one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quantum
from .sphere import (BLOCK, PairSampler, Workspace, blocks, check_count,
                     check_kind, check_threshold, check_unit,
                     circle_arc_fraction)

DEFAULT_SEED = 12345

# The parameters each model kind reads; it ignores the others.  The kinds
# that read m_choices are the steering ones, those that read q the
# tomography ones; a kind that does not read n_copies pins it.
READS = {
    "simple-bell": (),
    "trusted-steering": ("m_choices",),
    "ncopy-steering": ("n_copies", "m_choices"),
    "ncopy-tomography": ("n_copies", "q"),
    "chaotic-ball": ("q",),
}


def check_copies(n_copies):
    """A copy count: ``math.inf``, the shared-axis limit, as ``math.inf``,
    and any other value an integer of at least 1 by the one integer rule,
    ``sphere.check_count``.  ``ModelConfig`` and ``sweep_curves`` take
    their copy counts through it."""
    if n_copies == math.inf:
        return math.inf
    return check_count(n_copies, minimum=1)


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
    Alice direction per Bob direction.  ``n_copies`` follows the copy
    counts' rule, ``check_copies``, ``m_choices`` (at least 2) the
    package's one integer rule, ``sphere.check_count``, and ``q`` its one
    threshold rule, ``sphere.check_threshold``.
    """

    kind: str
    n_copies: float = 1
    q: float = 0.0
    m_choices: int = 3
    alice_directions: np.ndarray | None = None
    bob_directions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in READS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        steering = "m_choices" in READS[self.kind]
        self.m_choices = check_count(self.m_choices, "m_choices", 2)
        self.q = check_threshold(self.q)
        self.n_copies = check_copies(self.n_copies)
        if self.n_copies == math.inf and self.kind == "ncopy-steering":
            raise ValueError("n_copies must be finite for ncopy-steering")
        if steering:
            if self.bob_directions is None:
                if self.m_choices > len(quantum.STEERING_TRIPLE):
                    raise ValueError(
                        f"m_choices must be at most "
                        f"{len(quantum.STEERING_TRIPLE)} with the default "
                        f"directions, got {self.m_choices}")
                self.bob_directions = quantum.STEERING_TRIPLE[:self.m_choices]
            if self.alice_directions is None:
                self.alice_directions = -np.asarray(self.bob_directions)
        else:  # simple-bell and tomography default to the CHSH settings
            if self.alice_directions is None:
                self.alice_directions = quantum.CHSH_ALICE
            if self.bob_directions is None:
                self.bob_directions = quantum.CHSH_BOB
        self.alice_directions = check_unit(
            np.atleast_2d(self.alice_directions), "alice_directions")
        self.bob_directions = check_unit(
            np.atleast_2d(self.bob_directions), "bob_directions")
        if steering and len(self.bob_directions) != self.m_choices:
            raise ValueError("m_choices must match the direction set")
        if self.run_kind == "steering" \
                and len(self.alice_directions) != len(self.bob_directions):
            raise ValueError(
                f"alice_directions must have one row per Bob direction "
                f"({len(self.bob_directions)}) in a steering run, got "
                f"{len(self.alice_directions)}")
        if "n_copies" not in READS[self.kind]:
            self.n_copies = math.inf if self.is_tomography else 1

    @property
    def is_tomography(self) -> bool:
        return "q" in READS[self.kind]

    @property
    def run_kind(self) -> str:
        """The test a run of this model feeds: 'bell' or 'steering'.

        The pick and unanimity kinds fix it; a tomography model serves
        either test and is read as Bell with two Alice directions.
        """
        if "m_choices" in READS[self.kind]:
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
    if check_kind(kind) == "bell":
        alice, bob = quantum.CHSH_ALICE, quantum.CHSH_BOB
    else:
        alice, bob = quantum.STEERING_TRIPLE, quantum.STEERING_TRIPLE
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

    The dead zone is the closed interval [-q, +q], and q follows the one
    threshold rule, ``sphere.check_threshold``: it lies in [0, 1).
    """
    check_threshold(q)
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
    arrays for blocks of up to ``size`` projections taken from ``ws``.
    Every level path builds one.  Its points follow the one threshold rule,
    ``sphere.check_threshold``, and it adds the order its bucket table
    needs: a grid that is not 1-D and non-decreasing fails here."""

    def __init__(self, q_sorted, size: int, ws: Workspace) -> None:
        q = check_threshold(np.asarray(q_sorted, dtype=float), "q_sorted")
        if q.ndim != 1 or not np.all(np.diff(q) >= 0.0):
            raise ValueError("q_sorted must be a sorted 1-D grid")
        self.q = q
        self.dtype = np.min_scalar_type(-q.size - 1)
        self.bools = ws.take((2, size), bool)
        if q.size == 1:
            return
        q_bin = (q * LEVEL_BINS).astype(np.intp)
        per_bin = np.bincount(q_bin, minlength=LEVEL_BINS + 1)
        self.first = np.zeros(LEVEL_BINS + 1, dtype=np.intp)
        np.cumsum(per_bin[:-1], out=self.first[1:])
        self.q_pad = np.append(q, np.inf)
        # Powers of two, largest first, summing to at least w, the most
        # grid points that one bin holds; at w = 2, two steps of 1, which
        # spare the multiply that a step of 2 costs.
        w = int(per_bin.max())
        self.steps = [1] * w if w <= 2 else [
            1 << k for k in reversed(range(w.bit_length()))]
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
        np.take(self.first, bins, out=level, mode="clip")
        for step in self.steps:
            # q_pad[level + step - 1], read through an offset view; the
            # bins are spent, so their buffer holds the step's increments.
            np.take(self.q_pad[step - 1:], level, out=near, mode="clip")
            np.greater(mag, near, out=above)
            level += above if step == 1 else \
                np.multiply(above, step, out=bins)
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
    grid points in lower bins, and a binary search over the bin's points
    ends it: for each power of two s below 2^bitlength(w), largest first,
    the count grows by s where the grid point at index count + s - 1 is
    below |p|, w being the most grid points one bin holds (at w = 2, two
    steps of 1).  That is ceil(log2(w + 1)) steps, which together can add
    up to 2^bitlength(w) - 1 >= w.  A read past the bin finds a higher
    bin's point, above |p|, or the +inf that pads the grid, and adds
    nothing.  The result equals the binary-search count for any sorted
    grid, duplicates included.  Every point must lie in [0, 1), by the
    one threshold rule
    (``sphere.check_threshold``), and a grid that is not 1-D and
    non-decreasing fails too (``_LevelGrid``).
    """
    grid = _LevelGrid(q_sorted, BLOCK + 1, Workspace())
    p = np.ascontiguousarray(projections, dtype=float).reshape(-1)
    out = np.empty(p.shape, grid.dtype)
    for rows in blocks(p.size):
        grid.levels_into(p[rows], out[rows])
    return out.reshape(np.shape(projections))


def _correlation_table(alice_dirs, bob_dirs) -> np.ndarray:
    # Clipped, as at a = +-b the product of unit rows may round past +-1.
    # No draw changes: u < p reads the same at p = 1 + eps as at p = 1.
    return np.clip(-np.asarray(alice_dirs) @ np.asarray(bob_dirs).T, -1.0, 1.0)


def _scatter(n: int, m: int, picks: np.ndarray, values: np.ndarray
             ) -> np.ndarray:
    out = np.zeros((n, m), dtype=np.int8)
    out[np.arange(n), picks] = values
    return out


def unanimity_cell_batch(config: ModelConfig, rng: np.random.Generator,
                         n: int, ws: Workspace) -> np.ndarray:
    """Pick-cell index of n unanimity runs, the readout's whole content.

    Over N singlet copies (the pick models are N = 1) each party reads its
    uniformly picked choice: +-1 when all N copies agree (exact singlet
    statistics per copy), 0 otherwise.  The cell
    9 (pick_a Mb + pick_b) + 3 (a + 1) + b + 1 numbers the (Ma, Mb, 3, 3)
    table that ``pick_tables`` reads.  The draws are pick_a, pick_b, each
    copy's sign xi and each copy's match, in that order.  ``integers`` has
    no ``out=``, so its draws are made block by block; the blocks draw the
    numbers of one call, as a bounded draw below 2**32 uses 32-bit halves
    of the output and PCG64 keeps an unused half (``has_uint32``,
    ``uinteger``) for the next one, which ``random()`` leaves alone.

    One block loop then draws the match uniforms and writes the cell in
    place on the pick array.  Alice's copy k reads +1 when xi_k, and
    Bob's when its match equals xi_k (a match copies Alice's sign, a
    mismatch flips it).  A party's trit + 1 is then the sum of two flags
    over its copies, "all read +1" and "some copy reads +1": 2 when all
    read +1, 0 when none does, 1 when they disagree.  Every array is a
    view of ``ws``.
    """
    table = _correlation_table(config.alice_directions, config.bob_directions)
    p_same = ((1.0 + table) / 2.0).ravel()
    ma, mb = table.shape
    ncopies = int(config.n_copies)
    cell = ws.take(n, np.int64)
    for rows in blocks(n):
        cell[rows] = rng.integers(0, ma, rows.stop - rows.start)
    cell *= mb
    for rows in blocks(n):
        cell[rows] += rng.integers(0, mb, rows.stop - rows.start)
    xi = ws.take((n, ncopies), bool)
    for rows in blocks(n):
        np.not_equal(rng.integers(0, 2, (rows.stop - rows.start, ncopies)),
                     0, out=xi[rows])
    match = ws.take((BLOCK + 1, ncopies))
    bob_plus = ws.take((BLOCK + 1, ncopies), bool)
    work = ws.take(BLOCK + 1)
    all_plus, any_plus = ws.take((2, BLOCK + 1), bool)
    for rows in blocks(n):
        m = rows.stop - rows.start
        c = cell[rows]
        p = np.take(p_same, c, out=work[:m], mode="clip")
        plus, every, some = bob_plus[:m], all_plus[:m], any_plus[:m]
        np.less(rng.random(out=match[:m]), p[:, None], out=plus)
        np.equal(plus, xi[rows], out=plus)
        for copies in (xi[rows], plus):
            np.logical_and(copies[:, 0], copies[:, -1], out=every)
            np.logical_or(copies[:, 0], copies[:, -1], out=some)
            for k in range(1, ncopies - 1):
                every &= copies[:, k]
                some |= copies[:, k]
            c *= 3
            c += every
            c += some
    return cell


def tomography_level_batch(config: ModelConfig, rng: np.random.Generator,
                           n: int, q_sorted, ws: Workspace, n_copies,
                           count) -> None:
    """Signed threshold levels of n sampled runs at several copy counts.

    Calls ``count(rows, k, levels_a, levels_b)`` once per block of runs
    and copy count, k = 0, 1, ... indexing ``n_copies`` in order within
    each block: Alice's levels of the block (m, Ma), and Bob's (m, Mb) at
    the k-th copy count, levelled into one reused block buffer just before
    the call.  Both are block views, valid only during the call.  The
    config gives the direction sets.  Levels are read against the sorted
    grid ``q_sorted`` as by ``threshold_levels``; a point estimate is the
    one-N, one-q case, whose levels on the grid (config.q,) are the trits.
    One ``PairSampler`` draw serves every copy count: for finite N the
    pair (A, B) follows the N-copy tomography density, and the
    chaotic-ball limit shares one axis exactly (B = A).  Each block
    projects and levels Alice's directions once, then loops over the copy
    counts, adding Bob's directions, projections and levels; each N's
    levels equal those of a call with that N alone.  Where B = A and the
    direction sets are equal, Bob's levels are Alice's block and that N
    draws and levels nothing.  Every work array is taken from ``ws``.  No
    array of n levels is made, and the workspace does not grow with the
    number of copy counts.
    """
    dirs_a = np.asarray(config.alice_directions).T
    dirs_b = np.asarray(config.bob_directions).T
    ma, mb = dirs_a.shape[1], dirs_b.shape[1]
    grid = _LevelGrid(q_sorted, (BLOCK + 1) * max(ma, mb), ws)
    shared = np.array_equal(dirs_a, dirs_b)
    block_a = ws.take((BLOCK + 1, ma), grid.dtype)
    block_b = ws.take((BLOCK + 1, mb), grid.dtype)
    proj_a = ws.take((BLOCK + 1, ma))
    proj_b = ws.take((BLOCK + 1, mb))
    pairs = PairSampler(n_copies, rng, n, ws)
    for rows in blocks(n):
        m = rows.stop - rows.start
        a = pairs.block(rows)
        levels_a, levels_b = block_a[:m], block_b[:m]
        grid.levels_into(np.matmul(a, dirs_a, out=proj_a[:m]), levels_a)
        for k, n_k in enumerate(n_copies):
            if shared and n_k == math.inf:
                count(rows, k, levels_a, levels_a)
                continue
            b = pairs.partner(n_k, a, rows)
            grid.levels_into(np.matmul(b, dirs_b, out=proj_b[:m]), levels_b)
            count(rows, k, levels_a, levels_b)


def sample_batch(config: ModelConfig, rng: np.random.Generator, n: int
                 ) -> ReadoutBatch:
    """Draw n joint readouts from the configured model.

    The unanimity family reads one trit at each party's picked choice and
    0 at every other; for the steering kinds Bob's zeros are unregistered
    events the estimator drops, which is what suppresses the full
    correlation to 1/M while coincidences stay perfect.  The tomography
    family reads every choice, thresholded at ``config.q``.
    """
    n = check_count(n, "n")
    ma, mb = len(config.alice_directions), len(config.bob_directions)
    if config.is_tomography:
        alice = np.empty((n, ma), np.int8)
        bob = np.empty((n, mb), np.int8)

        def keep(rows, k, levels_a, levels_b):
            alice[rows] = levels_a
            bob[rows] = levels_b

        tomography_level_batch(config, rng, n, (config.q,), Workspace(),
                               (config.n_copies,), keep)
        return ReadoutBatch(alice=alice, bob=bob)
    cell = unanimity_cell_batch(config, rng, n, Workspace())
    pick_a, pick_b = np.divmod(cell // 9, mb)
    a, b = np.divmod(cell % 9, 3)
    return ReadoutBatch(alice=_scatter(n, ma, pick_a, a - 1),
                        bob=_scatter(n, mb, pick_b, b - 1))


class _LevelCounter:
    """Trit tables of signed levels v in [-L, L], counted block by block.

    Called as ``tomography_level_batch`` calls ``count``, once per block
    and copy count k, it writes the code (v_a + L)(2L + 1) + L of each
    Alice direction when k = 0, then for every counted reading pair (i, j)
    adds Bob's v_b at j to Alice's code at i, giving the joint level code,
    and adds one to that code's cell of the pair's histogram at k by
    ``np.add.at``, which makes no histogram-sized array however fine the
    grid.  ``pairs`` lists the pairs to count, every pair when None; the
    other tables are zero.  The code arrays are block buffers of ``ws``.
    """

    def __init__(self, n_levels: int, n_copies, ma: int, mb: int, pairs,
                 ws: Workspace) -> None:
        self.n_levels, self.width = n_levels, 2 * n_levels + 1
        self.shape = ma, mb
        self.pairs = list(np.ndindex(ma, mb) if pairs is None else pairs)
        self.codes_a = ws.take((ma, BLOCK + 1), np.intp)
        self.code = ws.take(BLOCK + 1, np.intp)
        self.hist = np.zeros((len(n_copies), len(self.pairs),
                              self.width * self.width), dtype=np.int64)

    def __call__(self, rows, k, levels_a, levels_b) -> None:
        m = len(levels_a)
        codes_a, code = self.codes_a[:, :m], self.code[:m]
        if k == 0:
            np.multiply(levels_a.T, self.width, out=codes_a, dtype=np.intp)
            codes_a += self.n_levels * (self.width + 1)
        for counts, (i, j) in zip(self.hist[k], self.pairs):
            np.add(codes_a[i], levels_b[:, j], out=code)
            np.add.at(counts, code, 1)

    def tables(self) -> np.ndarray:
        """The tables (K, L, Ma, Mb, 3, 3) of the K copy counts: 2-D prefix
        sums of each histogram, read at the edges of every threshold's
        level bands (``threshold_levels``)."""
        n_levels, width = self.n_levels, self.width
        k = np.arange(n_levels)
        edges = np.stack([np.zeros_like(k), n_levels - k, n_levels + k + 1,
                          np.full_like(k, width)], axis=1)
        i, j = zip(*self.pairs)
        tables = np.zeros((len(self.hist), n_levels, *self.shape, 3, 3),
                          dtype=np.int64)
        cum = np.zeros((len(self.pairs), width + 1, width + 1), np.int64)
        for hist, out in zip(self.hist, tables):
            cum[:, 1:, 1:] = hist.reshape(-1, width, width).cumsum(1).cumsum(2)
            # corner[p, l, r, c] = cum at (edges[l, r], edges[l, c]).
            corner = cum[:, edges[:, :, None], edges[:, None, :]]
            out[:, i, j] = (corner[..., 1:, 1:] - corner[..., :-1, 1:]
                            - corner[..., 1:, :-1] + corner[..., :-1, :-1]
                            ).swapaxes(0, 1)
        return tables


def count_tables(config: ModelConfig, rng: np.random.Generator, n: int,
                 q_sorted, n_copies, pairs, ws: Workspace) -> np.ndarray:
    """Count tables (K, L, Ma, Mb, 3, 3) of n runs at the K copy counts of
    ``n_copies`` and the L thresholds of ``q_sorted``, counting the reading
    pairs of ``pairs`` (every pair when None).  The unanimity family fixes
    N, reads no threshold and counts every pair: the 1 x 1 case.  Every
    work array is taken from ``ws``.  The draw count n follows the one
    integer rule, ``sphere.check_count``.
    """
    n = check_count(n, "n")
    ma, mb = len(config.alice_directions), len(config.bob_directions)
    if not config.is_tomography:
        cell = unanimity_cell_batch(config, rng, n, ws)
        return pick_tables(np.bincount(cell, minlength=ma * mb * 9)
                           .reshape(ma, mb, 3, 3))[None, None]
    counter = _LevelCounter(len(q_sorted), n_copies, ma, mb, pairs, ws)
    tomography_level_batch(config, rng, n, q_sorted, ws, n_copies, counter)
    return counter.tables()


# Exact tables ---------------------------------------------------------------

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


def _legendre_tables(n: int, q, ct) -> np.ndarray:
    """Finite-N 3x3 trit tables (L, C, 3, 3) at the L thresholds of ``q``
    and the C values a.b of ``ct``, in closed form.

    The pair density ((1 - A.B)/2)^N is sum_l a_l P_l(A.B) with
    a_l = (-1)^l (2l+1) N!^2 / ((N-l)! (N+l+1)!).  By the Funk-Hecke
    formula the cell of Alice's band I and Bob's band J is
    ((N+1)/4) sum_l a_l F_l(I) F_l(J) P_l(a.b), where F_l(I) is the
    integral of P_l over I: the difference of (P_{l+1} - P_{l-1})/(2l+1)
    at I's ends, and I's length for l = 0: one Legendre recurrence over
    every band edge and every a.b, then one stacked matmul, whose rounding
    ``_legendre_zeroed`` clears.
    """
    q = np.asarray(q, dtype=float)
    edges = np.empty((len(q), 4))
    edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3] = -1.0, -q, q, 1.0
    # P_l, l <= N + 1: legvander's recurrence, without its set-up cost.
    x = np.concatenate([edges.ravel(), ct]) + 0.0
    legendre = np.empty((n + 2, x.size))
    legendre[0], legendre[1] = 1.0, x
    for l in range(2, n + 2):
        legendre[l] = (legendre[l - 1] * x * (2 * l - 1)
                       - legendre[l - 2] * (l - 1)) / l
    legendre = np.ascontiguousarray(legendre.T)
    at_edges = legendre[:edges.size].reshape(len(q), 4, n + 2)
    antideriv = np.empty((len(q), 4, n + 1))
    antideriv[..., 0] = edges
    coef, odd = _legendre_coef(n)
    antideriv[..., 1:] = (at_edges[..., 2:] - at_edges[..., :-2]) / odd
    bands = antideriv[:, 1:] - antideriv[:, :-1]  # F_l of the 3 bands
    pair = coef * legendre[edges.size:, :n + 1]
    return _legendre_zeroed(0.25 * (bands[:, None] * pair[:, None])
                            @ bands.swapaxes(1, 2)[:, None], n)


def _legendre_zeroed(table: np.ndarray, n: int) -> np.ndarray:
    """``table`` with its cells in [-4(N+1) eps, 0) set to 0, in place:
    cells whose true value is ~0 and that the N-term Legendre sum rounds
    below 0.  Anything below is left for ``RunStatistics`` to reject."""
    table[(table < 0.0) & (table >= -4 * (n + 1) * np.finfo(float).eps)] = 0.0
    return table


@functools.lru_cache(maxsize=None)
def _legendre_coef(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(N+1) a_l for l = 0..N, by the ratio a_l / a_{l-1}, and 2l + 1
    for l = 1..N."""
    deg = np.arange(1, n + 1)
    odd = 2 * deg + 1
    return np.cumprod(np.append(1.0, -odd * (n - deg + 1)
                                / ((2 * deg - 1) * (n + deg + 1.0)))), odd


def _lens_tables(q, ct) -> np.ndarray:
    """Chaotic-ball (B = A) 3x3 trit tables (L, C, 3, 3) at the L
    thresholds of ``q`` and the C values a.b >= 0 of ``ct``, in closed form.

    G(s, t) = P(a.A > s, b.A > t), a lens of two caps over 4 pi, is by
    Gauss-Bonnet 2G = f(ct, r_s r_t, s t) - s f(ct s, d r_s, t)
    - t f(ct t, d r_t, s), with f = ``circle_arc_fraction``, d = |a x b|
    and r_s = sqrt(1 - s^2); f's clipping covers disjoint, nested and
    complementary caps.  With the marginals (1 - s)/2, G at s, t = +-q is
    the joint survival function at the band edges, whose mixed second
    difference is the table; inverting A makes the -1 row the +1 row
    reversed.  At b = a (d = 0) f's strict indicator splits the tie of
    coincident caps, so that table is written out.  An arccos argument
    within rounding of +-1 loses half its digits: errors reach ~1e-10
    within 1e-6 rad of a = +-b and ~5e-9 where cap edges touch; cells
    left below 0 by at most sqrt(eps) become 0.
    """
    q = np.asarray(q, dtype=float)
    ct = np.asarray(ct, dtype=float)
    parallel = ct == 1.0
    c = (ct * ~parallel)[:, None, None]  # (C, 1, 1); f needs b != a
    s = np.multiply.outer(q, [-1.0, 1.0])[:, None, :, None]  # (L, 1, 2, 1)
    r = np.sqrt(1.0 - s * s)
    s_t, r_t = s.swapaxes(2, 3), r.swapaxes(2, 3)
    # f(ct t, d r_t, s) is f(ct s, d r_s, t) transposed.
    f = circle_arc_fraction(c * s, np.sqrt(1.0 - c * c) * r, s_t)
    survival = np.zeros((len(q), len(c), 4, 4))
    marginal = (1.0 - s[..., 0]) / 2.0                   # (L, 1, 2)
    survival[..., 0, 0] = 1.0
    survival[..., 0, 1:3] = survival[..., 1:3, 0] = marginal
    survival[..., 1:3, 1:3] = 0.5 * (circle_arc_fraction(c, r * r_t, s * s_t)
                                     - s * f - s_t * f.swapaxes(2, 3))
    rows = survival[:, :, 1:] - survival[:, :, :-1]
    table = rows[..., 1:] - rows[..., :-1]
    table[..., 0, :] = table[..., 2, ::-1]
    table[(table < 0.0) & (table >= -math.sqrt(np.finfo(float).eps))] = 0.0
    if parallel.any():
        diag = np.zeros((len(q), 3, 3))
        diag[:, 0, 0] = diag[:, 2, 2] = marginal[:, 0, 1]
        diag[:, 1, 1] = q
        table[:, parallel] = diag[:, None]
    return table


def tomography_tables(n_copies, q_sorted, dots) -> np.ndarray:
    """Exact 3x3 trit tables (L, *dots.shape, 3, 3) of tomography reading
    pairs at N = ``n_copies`` (N = 0 is the independent pair), the L
    thresholds of ``q_sorted`` and the values a.b of ``dots``, any shape.

    A pair's table depends only on (N, q, |a.b|), and one at a.b < 0 is
    the |a.b| table with Bob's trits reversed (b -> -b).  So one kernel
    call on every min(|a.b|, 1) makes them all: a Legendre sum at finite N,
    which follows the one integer rule (``sphere.check_count``), or two-cap
    lens areas at N = inf.  A value's table has the same bits whatever
    else the call holds, so one pair's table is its cell of a whole
    config's call.  The thresholds are left to the callers to check.
    """
    dots = np.asarray(dots, dtype=float)
    ct = np.minimum(np.abs(dots), 1.0).ravel()
    if n_copies == math.inf:
        tables = _lens_tables(q_sorted, ct)
    else:
        tables = _legendre_tables(check_count(n_copies), q_sorted, ct)
    tables = tables.reshape(len(tables), *dots.shape, 3, 3)
    return np.where((dots < 0.0)[..., None, None], tables[..., ::-1], tables)


def exact_tables(config: ModelConfig, q_sorted, n_copies) -> np.ndarray:
    """Exact tables (K, L, Ma, Mb, 3, 3) of every reading pair at the K copy
    counts of ``n_copies`` and the L thresholds of ``q_sorted``: the exact
    twin of ``count_tables``, the unanimity family (``enumerate_unanimity``)
    being the 1 x 1 case.  The tomography family makes every pair's table
    by one ``tomography_tables`` call per N.  As in ``count_tables``, each
    q and each finite N follow the package's threshold and integer rules.
    """
    if not config.is_tomography:
        return enumerate_unanimity(config)[None, None]
    check_threshold(np.asarray(q_sorted, dtype=float), "q_sorted")
    dots = np.array([[np.dot(a, b) for b in config.bob_directions]
                     for a in config.alice_directions])
    return np.array([tomography_tables(n, q_sorted, dots) for n in n_copies])
