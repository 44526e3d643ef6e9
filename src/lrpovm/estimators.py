"""Monte Carlo and exact estimation of efficiency, CHSH S, and steering T.

Every estimator reduces a model to a per-setting-pair table of trit
counts, and every derived statistic is a function of that table; the
exact paths fill the same layout with probabilities: closed-form
enumeration for the unanimity family, a closed-form Legendre sum for
finite-N tomography tables and two-cap lens areas at N = inf.  Each
model family has one counting kernel.  The unanimity family is counted
from its picks: one bincount over (pick pair, Alice trit, Bob trit)
codes, and ``models.pick_tables`` maps the pick-pair cells to reading
pairs, as it does for the exact enumeration.  The tomography family is
counted from threshold levels, for sweeps and point estimates alike: each
projection gets a signed level (``models.threshold_levels``: the number
of thresholds below |p|, read from a 1024-bin table of the grid and exact
by comparison with the few thresholds that share |p|'s bin), one
bincount per counted reading pair histograms the joint levels, and 2-D
prefix sums of it give the table of every threshold.  A sweep counts only
the pairs its statistic reads (the matched pairs (j, j) of a steering
run; every pair of a Bell run) and leaves the other tables zero, while a
point estimate counts every pair, since ``lrpovm steer --out`` writes all
of them.  There is one chunk path:
a chunk counts a tuple of copy counts on a sorted q grid, and a point
estimate (``estimate``) is the one-N, one-q case, whose level is the trit
itself, read back as element [0, 0] of the (N, q) tables.

A sweep over several copy counts N is one pass.  Chunk i draws from
``rng_stream(seed, i)`` whatever N is, and a single N draws A (normal rows
plus zero-norm redraws), then the opening and azimuth uniforms u and chi
if N is finite: the same numbers for every N.  So each chunk draws them
once, projects A on Alice's directions and takes her levels once, and
adds per N only Bob's directions, levels and counts, with every
elementwise operation in its single-N order.  Each N's tables are
therefore bit-identical to a sweep of that N alone.

Parallelism is a map over fixed-size sample chunks, one independent
stream per chunk, merged by integer addition; results are identical for
any worker count at a fixed (seed, chunk schedule).  A process keeps one
pool: the first call with ``workers > 1`` builds it and later calls reuse
it, so its workers stay warm (forked, heap faulted in) across calls, and
stay alive, with their memory, until the process exits.  Calls from
several threads share it one call at a time.  A call with another worker
count, after a breakage (a call whose reused pool broke retries once on
a fresh one) or in a forked child builds a new one; a child never shuts
down its parent's pool, and ``concurrent.futures`` joins the pool at
interpreter exit.  A one-shot ``lrpovm`` command makes one call, so it
gains nothing.  A chunk
allocates almost nothing: each thread (so each pool worker) keeps one
``sphere.Workspace`` that every chunk of every model config reuses.  The chunk's draws go straight
into it, and its projections, levels, trits and codes are computed in
cache-sized blocks of its buffers, in one explicit block loop with the
copy counts inside, so a sweep needs one extra level array per copy
count.  The workspace grows to the largest chunk seen, so it holds the
largest single config's need, not their sum.  ``Generator.integers``
has no ``out=``, so the picks and the copies' signs are drawn block by
block into block-sized arrays that the allocator reuses, and copied in.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelConfig, tomography_config
from .sphere import Workspace, circle_arc_fraction, rng_stream

DEFAULT_CHUNK = 1 << 17
DEFAULT_SWEEP_SAMPLES = 1_000_000
MIN_SAMPLES = 1_000

LR_BOUND = {"bell": 2.0, "steering": 1.0 / 3.0}

# Coincidence cells of a 3x3 table; trit axes are ordered (-1, 0, +1).
_COINC = np.ix_((0, 2), (0, 2))


def _reading_pairs(kind: str, ma: int, mb: int) -> list[tuple[int, int]]:
    """Pairs a run reads: every (i, j) for Bell, matched (j, j) for steering."""
    if kind == "steering":
        return [(j, j) for j in range(ma)]
    return [(i, j) for i in range(ma) for j in range(mb)]


def default_q_grid() -> np.ndarray:
    """33 thresholds from 0 to 0.96 in steps of 0.03."""
    return np.round(np.arange(33) * 0.03, 10)


@dataclass
class PairSummary:
    correlation: float
    stderr: float
    n_coincidence: float
    eta_alice: float
    eta_bob: float
    degenerate: bool


@dataclass
class RunStatistics:
    """Per-setting-pair trit tables plus the derived test statistics.

    ``weights[i, j]`` is the 3x3 table over (Alice trit, Bob trit) for the
    reading pair (choice i, choice j); entries are Monte Carlo counts, or
    exact probabilities when ``exact`` is set.  Bob's zeros count as
    non-detections for Bell runs and as unregistered events for steering
    runs; Alice's zeros always stay in her statistics.
    """

    kind: str
    weights: np.ndarray
    samples: int
    exact: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("bell", "steering"):
            raise ValueError(f"kind must be 'bell' or 'steering': {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 4 or self.weights.shape[2:] != (3, 3):
            raise ValueError("weights must have shape (Ma, Mb, 3, 3)")
        if np.any(self.weights < 0):
            raise ValueError("negative weights")
        ma, mb = self.weights.shape[:2]
        if self.kind == "steering" and ma != mb:
            raise ValueError(f"steering needs matching choice counts, got "
                             f"{ma} for Alice and {mb} for Bob")

    # -- per-pair quantities ------------------------------------------------

    def pair(self, i: int, j: int) -> PairSummary:
        w = self.weights[i, j]
        coinc = w[_COINC]
        n_c = coinc.sum()
        a_det = w[(0, 2), :].sum()
        b_det = w[:, (0, 2)].sum()
        degenerate = n_c <= 0.0
        if degenerate:
            corr, se = math.nan, math.nan
        else:
            corr = (coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0]) / n_c
            se = 0.0 if self.exact else math.sqrt(
                max(0.0, 1.0 - corr * corr) / n_c)
        return PairSummary(
            correlation=corr, stderr=se, n_coincidence=n_c,
            eta_alice=n_c / a_det if a_det > 0 else math.nan,
            eta_bob=n_c / b_det if b_det > 0 else math.nan,
            degenerate=degenerate)

    def pair_probabilities(self, i: int, j: int) -> np.ndarray:
        w = self.weights[i, j]
        return w / w.sum()

    def full_correlation(self, i: int, j: int) -> float:
        """<ab> with Alice's zero outcomes kept in the average.

        The denominator is the events where Bob registered (his trit
        nonzero), the accounting in which the trusted pick model shows the
        1/M suppression.
        """
        w = self.weights[i, j]
        coinc = w[_COINC]
        num = coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0]
        den = w[:, (0, 2)].sum()
        return num / den if den > 0 else math.nan

    def alice_marginal(self, i: int, j: int) -> np.ndarray:
        """Distribution of Alice's trit for choice i when read with Bob's j."""
        return self.pair_probabilities(i, j).sum(axis=1)

    def bob_marginal(self, i: int, j: int) -> np.ndarray:
        return self.pair_probabilities(i, j).sum(axis=0)

    # -- efficiency ----------------------------------------------------------

    def efficiency(self, variant: str = "alice") -> float:
        """Coincidence rate conditioned on one party's detection.

        For Bell runs this averages the four setting pairs; steering runs
        average the matched pairs.  ``variant`` picks the conditioning
        side: 'alice' for p(a2=b2=1)/p(a2=1), or 'bob'.  NaN when no pair
        has a detection on that side.
        """
        if variant not in ("alice", "bob"):
            raise ValueError(
                f"variant must be 'alice' or 'bob', got {variant!r}")
        vals = []
        for i, j in self.reading_pairs():
            p = self.pair(i, j)
            vals.append(p.eta_alice if variant == "alice" else p.eta_bob)
        if all(math.isnan(v) for v in vals):
            return math.nan
        return float(np.nanmean(vals))

    def reading_pairs(self) -> list[tuple[int, int]]:
        """Pairs read: every (i, j) for Bell, matched (j, j) for steering."""
        return _reading_pairs(self.kind, *self.weights.shape[:2])

    # -- Bell ----------------------------------------------------------------

    def chsh(self) -> tuple[float, float, bool]:
        """S, its standard error, and a degenerate flag.

        S combines the four coincidence-conditioned correlations as
        E(1,1) + E(1,2) + E(2,1) - E(2,2); any empty pair makes the
        combination undefined and sets the flag.
        """
        if self.weights.shape[0] < 2 or self.weights.shape[1] < 2:
            raise ValueError("CHSH needs two choices per party")
        ps = [self.pair(i, j) for i in (0, 1) for j in (0, 1)]
        if any(p.degenerate for p in ps):
            return math.nan, math.nan, True
        s = ps[0].correlation + ps[1].correlation \
            + ps[2].correlation - ps[3].correlation
        se = math.sqrt(sum(p.stderr ** 2 for p in ps))
        return s, se, False

    # -- steering ------------------------------------------------------------

    def steering(self) -> tuple[float, float, bool]:
        """T, its standard error, and a flag for empty conditional bins.

        T = sum_j sum_a p(a_j) <b_j>^2_{a_j} over matched settings, with
        the uniform choice weight 1/M folded into p(a_j).  Probabilities
        are conditioned on Bob registering (his trit nonzero); Alice's
        zero outcomes keep their own conditional-mean terms.
        """
        pairs = self.reading_pairs()
        m = len(pairs)
        total = 0.0
        var = 0.0
        empty_bins = False
        for i, j in pairs:
            w = self.weights[i, j]
            registered = w[:, (0, 2)]
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
                if not self.exact:
                    var_p = p_s * (1.0 - p_s) / w_reg
                    var_m = max(0.0, 1.0 - mean_b ** 2) / n_s
                    var += ((mean_b ** 2 / m) ** 2 * var_p
                            + (2.0 * p_s * mean_b / m) ** 2 * var_m)
        return total, math.sqrt(var), empty_bins

    def value(self) -> tuple[float, float, bool]:
        """The run's test statistic: (|S| or T, stderr, degenerate flag)."""
        if self.kind == "bell":
            s, se, bad = self.chsh()
            return (abs(s) if not bad else math.nan), se, bad
        return self.steering()


# ---------------------------------------------------------------------------
# Monte Carlo estimation.
# ---------------------------------------------------------------------------

def _count_levels(levels_a: np.ndarray, levels_b: np.ndarray,
                  n_levels: int, code: np.ndarray,
                  pairs=None) -> np.ndarray:
    """Trit tables (L, Ma, Mb, 3, 3) from signed levels v in [-L, L].

    Threshold k reads v <= -(k+1) as -1, |v| <= k as 0, v >= k+1 as +1.
    Each counted reading pair's joint level code
    (v_a + L)(2L + 1) + v_b + L is written into ``code`` (n intp work
    array) and histogrammed by one bincount.  ``pairs`` lists the (i, j)
    pairs to count, every pair when None; the other tables are zero.  A
    sweep passes the pairs its statistic reads (a steering run's matched
    pairs), ``estimate`` None.
    """
    width = 2 * n_levels + 1
    ma, mb = levels_a.shape[1], levels_b.shape[1]
    if pairs is None:
        pairs = np.ndindex(ma, mb)
    hist = np.zeros((ma, mb, width * width), dtype=np.int64)
    for i, j in pairs:
        np.multiply(levels_a[:, i], width, out=code, dtype=np.intp)
        code += levels_b[:, j]
        code += n_levels * (width + 1)
        hist[i, j] = np.bincount(code, minlength=width * width)
    cum = np.zeros((ma, mb, width + 1, width + 1), dtype=np.int64)
    cum[:, :, 1:, 1:] = hist.reshape(ma, mb, width, width).cumsum(2).cumsum(3)
    k = np.arange(n_levels)
    edges = np.stack([np.zeros_like(k), n_levels - k, n_levels + k + 1,
                      np.full_like(k, width)], axis=1)
    # corner[..., l, r, c] = cum at (edges[l, r], edges[l, c]).
    corner = cum[:, :, edges[:, :, None], edges[:, None, :]]
    tables = (corner[..., 1:, 1:] - corner[..., :-1, 1:]
              - corner[..., 1:, :-1] + corner[..., :-1, :-1])
    return np.moveaxis(tables, 2, 0)


class _ThreadWorkspace(threading.local):
    """The chunk workspace of each thread, shared by every model config."""

    def __init__(self) -> None:
        self.workspace = Workspace()


_CHUNK_WORKSPACE = _ThreadWorkspace()


def _count_chunk(task) -> np.ndarray:
    """Tables of one chunk, every work array taken from the thread's workspace.

    Returns (K, L, Ma, Mb, 3, 3) for the K copy counts of ``n_copies`` and
    the L thresholds of ``q_sorted``.  The tomography family counts every
    copy count from one draw, from its levels on the grid, and histograms
    the reading pairs of ``pairs`` (every pair when None); a point
    estimate is the 1 x 1 case.  The unanimity family, whose config fixes
    N and reads no threshold, is counted from its pick-cell histogram,
    which ``models.pick_tables`` turns into every reading pair's table,
    and comes back as the 1 x 1 case too.
    """
    config, n_copies, q_sorted, pairs, seed, index, size = task
    gen = rng_stream(seed, index)
    ws = _CHUNK_WORKSPACE.workspace
    ws.reset()
    if not config.is_tomography:
        ma, mb = len(config.alice_directions), len(config.bob_directions)
        cell = models.unanimity_cell_batch(config, gen, size, ws)
        return models.pick_tables(np.bincount(cell, minlength=ma * mb * 9)
                                  .reshape(ma, mb, 3, 3))[None, None]
    levels_a, levels_b = models.tomography_level_batch(
        config, gen, size, q_sorted, ws, n_copies)
    code = ws.take(size, np.intp)
    return np.stack([_count_levels(levels_a, levels, len(q_sorted), code,
                                   pairs)
                     for levels in levels_b])


# The process's one pool, kept warm across calls, and its worker count.  A
# forked child starts with no pool and a fresh lock: the parent's pool is
# not the child's, and the parent may have held the lock at the fork.
# concurrent.futures joins the pool at exit.
_POOL_LOCK = threading.Lock()
_POOL_WORKERS = 0
_POOL = None


def _pool(workers: int) -> ProcessPoolExecutor:
    """The cached pool, replaced by one of ``workers`` processes if its
    count differs."""
    global _POOL_WORKERS, _POOL
    if _POOL_WORKERS != workers:
        _drop_pool()
        _POOL_WORKERS, _POOL = workers, ProcessPoolExecutor(max_workers=workers)
    return _POOL


def _drop_pool() -> None:
    """Shut the cached pool down (waiting) and forget it."""
    global _POOL_WORKERS, _POOL
    if _POOL is not None:
        _POOL.shutdown()
    _POOL_WORKERS, _POOL = 0, None


def _forget_pool_in_child() -> None:
    global _POOL_LOCK, _POOL_WORKERS, _POOL
    _POOL_LOCK, _POOL_WORKERS, _POOL = threading.Lock(), 0, None


os.register_at_fork(after_in_child=_forget_pool_in_child)


def _count_chunks(head: tuple, samples: int, chunk: int,
                  workers: int) -> np.ndarray:
    """Sum the chunk tables of ``head`` = (config, copy counts, sorted q
    grid, reading pairs, seed), all chunks in one map, in this process at
    one worker and over the process's cached pool otherwise; a head with no
    copy counts is checked, then counts nothing."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not head[1]:
        return []
    full, rest = divmod(samples, chunk)
    sizes = [chunk] * full + ([rest] if rest else [])
    tasks = [head + (index, size) for index, size in enumerate(sizes)]
    if workers == 1:
        return sum(map(_count_chunk, tasks))
    with _POOL_LOCK:
        # A pool reused from an earlier call may have broken while idle; such
        # a call gets one more try on a fresh pool.
        for reused in (_POOL_WORKERS == workers, False):
            try:
                return sum(_pool(workers).map(_count_chunk, tasks))
            except BrokenProcessPool:
                _drop_pool()
                if not reused:
                    raise


def estimate(config: ModelConfig, samples: int, *,
             seed: int = models.DEFAULT_SEED, workers: int = 1,
             chunk: int = DEFAULT_CHUNK) -> RunStatistics:
    """Monte Carlo CHSH or steering statistics of a model.

    The test follows the model (``config.run_kind``): Bell for simple-bell
    and two-axis tomography configs, steering otherwise.  Chunk i draws
    from ``rng_stream(seed, i)``, so a (seed, chunk) pair fixes the result
    for any worker count.  Every (i, j) reading pair is counted, the ones
    the test does not read too.
    """
    counts = _count_chunks(
        (config, (config.n_copies,), (config.q,), None, seed),
        samples, chunk, workers)
    return RunStatistics(
        kind=config.run_kind, weights=counts[0, 0], samples=samples)


# ---------------------------------------------------------------------------
# Exact paths: enumeration for the discrete models, a closed-form Legendre
# sum for finite-N tomography tables, and two-cap lens areas for N = inf.
# ---------------------------------------------------------------------------

def _legendre_table(n: int, q: float, ct: float) -> np.ndarray:
    """Finite-N 3x3 trit table at a.b = ct, in closed form.

    The pair density ((1 - A.B)/2)^N is sum_l a_l P_l(A.B) with
    a_l = (-1)^l (2l+1) N!^2 / ((N-l)! (N+l+1)!).  By the Funk-Hecke
    formula the cell of Alice's band I and Bob's band J is
    ((N+1)/4) sum_l a_l F_l(I) F_l(J) P_l(a.b), where F_l(I) is the
    integral of P_l over I: the difference of (P_{l+1} - P_{l-1})/(2l+1)
    at I's ends, and I's length for l = 0.  Rounding leaves cells whose
    true value is ~0 slightly negative; those within 4(N+1) eps of 0 are
    set to 0, and anything below is left for ``RunStatistics`` to reject.
    """
    edges = np.array([-1.0, -q, q, 1.0])
    legendre = np.polynomial.legendre.legvander(np.append(edges, ct), n + 1)
    deg = np.arange(1, n + 1)
    antideriv = np.empty((4, n + 1))
    antideriv[:, 0] = edges
    antideriv[:, 1:] = (legendre[:4, 2:] - legendre[:4, :-2]) / (2 * deg + 1)
    bands = np.diff(antideriv, axis=0)  # F_l of the (-1, 0, +1) bands
    # (N+1) a_l, by the ratio a_l / a_{l-1}.
    coef = np.cumprod(np.append(1.0, -(2 * deg + 1) * (n - deg + 1)
                                / ((2 * deg - 1) * (n + deg + 1.0))))
    table = 0.25 * (bands * (coef * legendre[4, :n + 1])) @ bands.T
    table[(table < 0.0) & (table >= -4 * (n + 1) * np.finfo(float).eps)] = 0.0
    return table


def _lens_table(q: float, ct: float) -> np.ndarray:
    """Chaotic-ball (B = A) 3x3 trit table at a.b = ct, in closed form.

    G(s, t) = P(a.A > s, b.A > t), a lens of two caps over 4 pi, is by
    Gauss-Bonnet 2G = f(ct, r_s r_t, s t) - s f(ct s, d r_s, t)
    - t f(ct t, d r_t, s), with f = ``circle_arc_fraction``, d = |a x b|
    and r_s = sqrt(1 - s^2); f's clipping covers disjoint, nested and
    complementary caps.  With the marginals (1 - s)/2, G at s, t = +-q is
    the joint survival function at the band edges, whose mixed second
    difference is the table.  Inverting A makes the -1 row the +1 row
    reversed, and b -> -b reverses Bob's trits.  At b = a, f's strict
    indicator splits the tie of coincident caps, so that table is written
    out.  An arccos argument within rounding of +-1 loses half its digits:
    errors reach ~1e-10 within 1e-6 rad of a = +-b and ~5e-9 where cap
    edges touch; cells this leaves below 0 by at most sqrt(eps) become 0.
    """
    if ct < 0.0:
        return _lens_table(q, -ct)[:, ::-1]
    if ct == 1.0:
        return np.diag([(1.0 - q) / 2.0, q, (1.0 - q) / 2.0])
    d = math.sqrt(1.0 - ct * ct)
    s = np.array([[-q], [q]])
    r = np.sqrt(1.0 - s * s)
    survival = np.zeros((4, 4))
    survival[0, :3] = survival[:3, 0] = (1.0 + np.array([1.0, q, -q])) / 2.0
    survival[1:3, 1:3] = 0.5 * (
        circle_arc_fraction(ct, r * r.T, s * s.T)
        - s * circle_arc_fraction(ct * s, d * r, s.T)
        - s.T * circle_arc_fraction(ct * s.T, d * r.T, s))
    table = np.diff(np.diff(survival, axis=0), axis=1)
    table[0] = table[2, ::-1]
    table[(table < 0.0) & (table >= -math.sqrt(np.finfo(float).eps))] = 0.0
    return table


def tomography_pair_table(n_copies, q: float, dir_a, dir_b) -> np.ndarray:
    """Exact 3x3 trit table for one tomography setting pair: a Legendre
    sum at finite N, cap lens areas at N = inf.  It depends on the
    directions only through a.b, and b -> -b flips Bob's trit, which
    ``_tomography_tables`` uses.
    """
    ct = float(np.clip(np.dot(dir_a, dir_b), -1.0, 1.0))
    if n_copies != math.inf:
        return _legendre_table(int(n_copies), q, ct)
    return _lens_table(q, ct)


def _tomography_tables(config: ModelConfig) -> np.ndarray:
    """Exact tables of every reading pair, one per distinct |a.b|.

    A pair's table depends only on (N, q, a.b), and a pair with a.b < 0 is
    the |a.b| table with Bob's trits reversed (b -> -b), so each distinct
    |a.b| is computed once.
    """
    ma = len(config.alice_directions)
    mb = len(config.bob_directions)
    out = np.zeros((ma, mb, 3, 3))
    tables = {}
    for i, a in enumerate(config.alice_directions):
        for j, b in enumerate(config.bob_directions):
            ct = float(np.dot(a, b))
            if abs(ct) not in tables:
                tables[abs(ct)] = tomography_pair_table(
                    config.n_copies, config.q, a, -b if ct < 0 else b)
            out[i, j] = tables[abs(ct)][:, ::-1] if ct < 0 else tables[abs(ct)]
    return out


def enumerate_exact(config: ModelConfig) -> RunStatistics:
    """Exact statistics with no Monte Carlo error.

    The unanimity family (simple-bell, trusted-steering, and
    ncopy-steering at any N) is enumerated in closed form.  Tomography
    tables are a closed-form Legendre sum for finite N and two-cap lens
    areas for N = inf, both exact to rounding away from degenerate
    geometry (see ``tomography_pair_table``).
    """
    probs = (_tomography_tables(config) if config.is_tomography
             else models.enumerate_unanimity(config))
    return RunStatistics(
        kind=config.run_kind, weights=probs, samples=0, exact=True)


# ---------------------------------------------------------------------------
# Efficiency-versus-violation sweeps and the copy-count search.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """One swept point: detection efficiency against |S| or T."""

    n_copies: float
    q: float
    eta: float
    value: float
    stderr: float
    samples: int

    def __post_init__(self) -> None:
        if not (math.isnan(self.eta) or 0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta outside [0, 1]: {self.eta}")


def _q_grid(q_grid) -> np.ndarray:
    """``q_grid`` (the default when None), checked: 1-D, non-empty, [0, 1)."""
    q_grid = default_q_grid() if q_grid is None else np.asarray(q_grid, float)
    if q_grid.ndim != 1 or q_grid.size == 0:
        raise ValueError(f"q_grid must be a non-empty 1-D sequence, got "
                         f"shape {q_grid.shape}")
    if not np.all((q_grid >= 0) & (q_grid < 1)):
        raise ValueError("q_grid must lie in [0, 1) with no NaN")
    return q_grid


def _curve_point(n, q: float, stats: RunStatistics) -> CurvePoint:
    """The (N, q) point of ``stats``; NaN value and stderr if degenerate."""
    value, stderr, degenerate = stats.value()
    return CurvePoint(n_copies=n, q=float(q), eta=stats.efficiency("alice"),
                      value=math.nan if degenerate else value,
                      stderr=math.nan if degenerate else stderr,
                      samples=stats.samples)


def sweep_curves(kind: str, n_copies, q_grid=None,
                 samples: int = DEFAULT_SWEEP_SAMPLES, *,
                 seed: int = models.DEFAULT_SEED, workers: int = 1,
                 chunk: int = DEFAULT_CHUNK
                 ) -> dict[float, list[CurvePoint]]:
    """Sweep the dead-zone threshold for several copy counts.

    Keys are the ``n_copies`` values, in order.  All thresholds and all
    copy counts are evaluated in one pass over one chunk schedule, in one
    map over at most one process pool; each curve is bit-identical to a
    sweep of its N alone (see the module docstring).  Only the reading
    pairs the statistic reads are counted: the matched pairs of a
    steering sweep, every pair of a Bell sweep.  Shared draws make
    the efficiency exactly non-increasing along the grid and keep reruns
    byte-for-byte reproducible.  Degenerate points (no coincidences in
    some setting pair) carry NaN value and stderr.
    """
    # Every copy count has the same direction sets, so one config serves
    # them all; it also checks ``kind``.
    config = tomography_config(kind)
    q_grid = _q_grid(q_grid)
    n_copies = list(dict.fromkeys(n_copies))
    configs = [tomography_config(kind, n) for n in n_copies]
    q_sorted, sorted_index = np.unique(q_grid, return_inverse=True)
    pairs = _reading_pairs(kind, len(config.alice_directions),
                           len(config.bob_directions))
    counts = _count_chunks(
        (config, tuple(c.n_copies for c in configs), q_sorted, pairs, seed),
        samples, chunk, workers)
    return {n: [_curve_point(n, q, RunStatistics(
                    kind=kind, weights=tables[k], samples=samples))
                for q, k in zip(q_grid, sorted_index)]
            for n, tables in zip(n_copies, counts)}


def frontier_value(points: list[CurvePoint], eta: float) -> float | None:
    """Best curve value achievable at efficiency >= eta.

    Uses linear interpolation in eta between neighbouring points and a
    maximum over the qualifying part of the curve, so non-monotone curves
    are handled conservatively.  None when the curve never reaches eta.
    """
    pts = sorted((p.eta, p.value) for p in points
                 if not math.isnan(p.value) and not math.isnan(p.eta))
    if not pts or pts[-1][0] < eta:
        return None
    best = max(v for e, v in pts if e >= eta)
    for (e0, v0), (e1, v1) in zip(pts, pts[1:]):
        if e0 < eta <= e1 and e1 > e0:
            best = max(best, v0 + (eta - e0) * (v1 - v0) / (e1 - e0))
    return best


def min_copies(observed_value: float, observed_eta: float, kind: str,
               n_max: int, *, curves: dict[float, list[CurvePoint]] | None = None,
               q_grid=None) -> int | None:
    """Smallest copy count whose frontier dominates an observation.

    The frontiers are the given ``curves`` (keyed by N; N = inf and N >
    n_max are ignored), or else exact: ``enumerate_exact`` of the
    tomography model at N = 1, 2, ... on ``q_grid`` (default grid when
    None), with nothing drawn, each N built only once the smaller ones
    fall short.  An observation at or below the ideal
    local-realistic bound returns 1; None when no curve with up to n_max
    copies reaches the observed value at the observed efficiency.
    """
    if kind not in LR_BOUND:
        raise ValueError(f"kind must be 'bell' or 'steering': {kind!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not math.isfinite(observed_value):
        raise ValueError("observed_value must be finite")
    if not 0.0 < observed_eta <= 1.0:
        raise ValueError("observed_eta must lie in (0, 1]")
    if observed_value <= LR_BOUND[kind]:
        return 1
    if curves is None:
        q_grid = _q_grid(q_grid)
        found = ((n, [_curve_point(n, q, enumerate_exact(
                     tomography_config(kind, n, q))) for q in q_grid])
                 for n in range(1, n_max + 1))
    else:
        found = ((n, curves[n]) for n in sorted(curves)
                 if n != math.inf and n <= n_max)
    for n, points in found:
        best = frontier_value(points, observed_eta)
        if best is not None and best >= observed_value:
            return int(n)
    return None
