"""Monte Carlo and exact estimation of efficiency, CHSH S, and steering T.

There is one table source, ``_tables``: the (K, L, Ma, Mb, 3, 3) trit
tables of every reading pair at K copy counts and a sorted grid of L
thresholds, Monte Carlo counts when given ``samples`` and exact
probabilities when not.  ``RunStatistics`` reduces any stack of tables
at once, adding terms in a fixed left-to-right order, so a table's
statistics have the same bits alone or in a stack.  ``estimate`` and
``enumerate_exact`` reduce the one-N, one-q case (counted, exact),
``sweep_curves`` reduces a whole grid at once, and ``min_copies``
searches exact ``sweep_curves`` frontiers.  Exact tables are one
``models.exact_tables`` call; Monte Carlo tables are counted by
``models.count_tables``, one chunk at a time.

A sweep counts only the pairs its statistic reads (a steering run's
matched pairs (j, j)) and leaves the other tables zero; a point estimate
counts every pair, since ``lrpovm steer --out`` writes all of them.  A
sweep over several N is one pass: chunk i draws from
``rng_stream(seed, i)`` the same numbers whatever N is, and each N's
tables are bit-identical to a sweep of it alone.

Parallelism is a map over chunks of ``DEFAULT_CHUNK`` samples, one
stream per chunk, merged by integer addition, so a Monte Carlo result is
fixed by (model, samples, seed) whatever ``workers`` is.  A call uses
at most one worker per chunk, so a one-chunk call runs in this process.
A process keeps one warm pool until exit (rebuilt for a new worker
count, a broken pool or a forked child); threads share it one call at a
time.  Each thread's chunks reuse one ``sphere.Workspace``, computing
in cache-sized blocks of its buffers.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import models
from .models import ModelConfig, tomography_config
from .sphere import (Workspace, check_count, check_kind, check_threshold,
                     check_unit, rng_stream)

DEFAULT_CHUNK = 1 << 17
DEFAULT_SAMPLES = 1_000_000
MIN_SAMPLES = 1_000

LR_BOUND = {"bell": 2.0, "steering": 1.0 / 3.0}


def _reading_pairs(kind: str, ma: int, mb: int) -> list[tuple[int, int]]:
    """Pairs a run reads: every (i, j) for Bell, matched (j, j) for steering."""
    if kind == "steering":
        return [(j, j) for j in range(ma)]
    return [(i, j) for i in range(ma) for j in range(mb)]


def default_q_grid() -> np.ndarray:
    """33 thresholds from 0 to 0.96 in steps of 0.03."""
    return np.round(np.arange(33) * 0.03, 10)


def _added(terms: np.ndarray) -> np.ndarray:
    """Sum of terms >= 0 over the last axis, left to right; NaNs skipped."""
    return np.add.accumulate(np.fmax(terms, 0.0), axis=-1)[..., -1]


def _listed(x: np.ndarray) -> list:
    """``x.tolist()`` of a 1-D array; NaN is ``math.nan``, which == matches."""
    return [math.nan if v != v else v for v in x.tolist()]


def _scalar(x):
    """A result of one table as a Python scalar, a batch's as its array."""
    x = np.asarray(x)
    if x.ndim:
        return x
    x = x.item()
    return math.nan if x != x else x


class PairSummary(NamedTuple):
    """Per-pair quantities: arrays over (..., Ma, Mb), or one pair's scalars."""

    correlation: float
    stderr: float
    n_coincidence: float
    eta_alice: float
    eta_bob: float
    degenerate: bool


@dataclass
class RunStatistics:
    """Per-setting-pair trit tables plus the derived test statistics.

    ``weights[..., i, j]`` is the 3x3 table over (Alice trit, Bob trit) of
    the reading pair (choice i, choice j): Monte Carlo counts, or exact
    probabilities when ``exact`` is set.  Leading axes are a batch of runs
    (a sweep's (N, q) grid, say), reduced at once: methods return arrays
    of the batch shape, or Python scalars for one (Ma, Mb, 3, 3) run.
    Bob's zeros count as non-detections for Bell runs and as unregistered
    events for steering runs; Alice's zeros always stay in her statistics.
    """

    kind: str
    weights: np.ndarray
    samples: int
    exact: bool = False

    def __post_init__(self) -> None:
        check_kind(self.kind)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim < 4 or self.weights.shape[-2:] != (3, 3):
            raise ValueError("weights must have shape (..., Ma, Mb, 3, 3)")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if (self.weights < 0).any():
            raise ValueError("negative weights")
        ma, mb = self.weights.shape[-4:-2]
        if self.kind == "steering" and ma != mb:
            raise ValueError(f"steering needs matching choice counts, got "
                             f"{ma} for Alice and {mb} for Bob")

    @functools.cached_property
    def _sums(self) -> tuple[np.ndarray, ...]:
        """Coincidences, Alice's detections, Bob's detections and equal-
        minus opposite-sign coincidences of every pair, (..., Ma, Mb).

        Cell tk is the table's flat cell k = 3 a + b, trit indices (a, b)
        for -1, 0, +1.  Each sum adds its cells left to right in the order
        written, Bob's down his columns: that order fixes the statistics'
        last bits.  The cells are copied to contiguous arrays, so each
        addition is one pass.
        """
        (t0, t1, t2), (t3, _, t5), (t6, t7, t8) = np.ascontiguousarray(
            self.weights.transpose(-2, -1, *range(self.weights.ndim - 2)))
        return (t0 + t2 + t6 + t8,
                t0 + t1 + t2 + t6 + t7 + t8,
                t0 + t3 + t6 + t2 + t5 + t8,
                t0 + t8 - t2 - t6)

    @functools.cached_property
    def _pairs(self) -> PairSummary:
        """Every pair's quantities, as (..., Ma, Mb) arrays."""
        n_c, alice, bob, signed = self._sums
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = signed / n_c
            se = (corr - corr if self.exact  # exact: 0, NaN if degenerate
                  else np.sqrt(np.maximum(0.0, 1.0 - corr * corr) / n_c))
            return PairSummary(corr, se, n_c, n_c / alice, n_c / bob,
                               n_c <= 0.0)

    def pair(self, i: int, j: int) -> PairSummary:
        return PairSummary._make(_scalar(x[..., i, j]) for x in self._pairs)

    def pair_probabilities(self, i: int, j: int) -> np.ndarray:
        w = self.weights[..., i, j, :, :]
        with np.errstate(invalid="ignore"):  # a pair with no events: NaN
            return w / w.sum(axis=(-2, -1), keepdims=True)

    def full_correlation(self, i: int, j: int):
        """<ab> with Alice's zero outcomes kept in the average.

        The denominator is the events where Bob registered (his trit
        nonzero), the accounting in which the trusted pick model shows the
        1/M suppression.
        """
        _, _, bob, signed = self._sums
        with np.errstate(divide="ignore", invalid="ignore"):
            return _scalar(signed[..., i, j] / bob[..., i, j])

    def reading_pairs(self) -> list[tuple[int, int]]:
        """Pairs read: every (i, j) for Bell, matched (j, j) for steering."""
        return _reading_pairs(self.kind, *self.weights.shape[-4:-2])

    def efficiency(self, variant: str = "alice"):
        """Coincidence rate conditioned on one party's detection.

        For Bell runs this averages the four setting pairs; steering runs
        average the matched pairs.  ``variant`` picks the conditioning
        side: 'alice' for p(a2=b2=1)/p(a2=1), or 'bob'.  Pairs with no
        detection on that side are left out; NaN when no pair has one.
        """
        if variant not in ("alice", "bob"):
            raise ValueError(
                f"variant must be 'alice' or 'bob', got {variant!r}")
        eta = self._pairs.eta_alice if variant == "alice" \
            else self._pairs.eta_bob
        eta = eta[(..., *zip(*self.reading_pairs()))]
        with np.errstate(divide="ignore", invalid="ignore"):
            return _scalar(_added(eta) / np.add.reduce(eta == eta, axis=-1))

    def chsh(self):
        """S, its standard error, and a degenerate flag.

        S combines the four coincidence-conditioned correlations as
        E(1,1) + E(1,2) + E(2,1) - E(2,2); any empty pair makes the
        combination undefined (NaN) and sets the flag.
        """
        if self.weights.shape[-4] < 2 or self.weights.shape[-3] < 2:
            raise ValueError("CHSH needs two choices per party")
        e = self._pairs.correlation
        s = e[..., 0, 0] + e[..., 0, 1] + e[..., 1, 0] - e[..., 1, 1]
        v = self._pairs.stderr * self._pairs.stderr
        se = np.sqrt(v[..., 0, 0] + v[..., 0, 1] + v[..., 1, 0] + v[..., 1, 1])
        return _scalar(s), _scalar(se), _scalar(s != s)

    def steering(self):
        """T, its standard error, and a flag for empty conditional bins.

        T = sum_j sum_a p(a_j) <b_j>^2_{a_j} over matched settings, with
        the uniform choice weight 1/M folded into p(a_j).  Probabilities
        are conditioned on Bob registering (his trit nonzero); Alice's
        zero outcomes keep their own conditional-mean terms.  An empty bin
        adds nothing and sets the flag unless a = 0; terms add in (j, a)
        order.
        """
        j = np.arange(self.weights.shape[-3])
        w = self.weights[..., j, j, :, :]          # (..., M, 3, 3)
        m = len(j)
        w_reg = self._sums[2][..., j, j, None]      # (..., M, 1)
        n_a = w[..., 0] + w[..., 2]                 # (..., M, 3), over a
        flat = (*n_a.shape[:-2], -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_b = (w[..., 2] - w[..., 0]) / n_a  # NaN in empty bins
            p_a = n_a / w_reg
            mean_sq = mean_b * mean_b
            total = _added(((1.0 / m) * p_a * mean_sq).reshape(flat))
            # The delta method: each term's slopes in p_a and in mean_b.
            d_p, d_mean = mean_sq / m, 2.0 * p_a * mean_b / m
            se = total * 0.0 if self.exact else np.sqrt(_added((
                d_p * d_p * (p_a * (1.0 - p_a) / w_reg)
                + d_mean * d_mean
                * (np.maximum(0.0, 1.0 - mean_sq) / n_a)).reshape(flat)))
        empty_bins = (n_a[..., ::2] <= 0.0).reshape(flat).any(axis=-1)
        return _scalar(total), _scalar(se), _scalar(empty_bins)

    def value(self):
        """The run's test statistic: (|S| or T, stderr, degenerate flag)."""
        if self.kind == "bell":
            s, se, bad = self.chsh()
            return _scalar(np.abs(s)), se, bad
        return self.steering()


# ---------------------------------------------------------------------------
# Monte Carlo estimation.
# ---------------------------------------------------------------------------

class _ThreadWorkspace(threading.local):
    """The chunk workspace of each thread, shared by every model config."""

    def __init__(self) -> None:
        self.workspace = Workspace()


_CHUNK_WORKSPACE = _ThreadWorkspace()


def _count_chunk(task) -> np.ndarray:
    """``models.count_tables`` of one chunk, drawn from the chunk's own
    stream with the thread's workspace."""
    config, n_copies, q_sorted, pairs, seed, index, size = task
    ws = _CHUNK_WORKSPACE.workspace
    ws.reset()
    return models.count_tables(config, rng_stream(seed, index), size,
                               q_sorted, n_copies, pairs, ws)


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


def tomography_pair_table(n_copies, q: float, dir_a, dir_b) -> np.ndarray:
    """Exact 3x3 trit table for one tomography setting pair: the one-q,
    one-a.b call of ``models.tomography_tables``, which checks N.  N = 0 is
    the independent pair."""
    for name, direction in (("dir_a", dir_a), ("dir_b", dir_b)):
        if np.shape(check_unit(direction, name)) != (3,):
            raise ValueError(f"{name} must be one 3-vector, got shape "
                             f"{np.shape(direction)}")
    check_threshold(q)
    return models.tomography_tables(n_copies, [q], np.dot(dir_a, dir_b))[0]


# ---------------------------------------------------------------------------
# The one table source, and its one-N, one-q reductions.
# ---------------------------------------------------------------------------

def _tables(config: ModelConfig, n_copies, q_sorted, samples=None, *,
            pairs=None, seed: int = models.DEFAULT_SEED,
            workers: int = 1) -> np.ndarray:
    """The (K, L, Ma, Mb, 3, 3) tables of ``config`` at the K copy counts
    of ``n_copies`` and the L thresholds of ``q_sorted``; a unanimity
    config fixes N and reads no threshold, so it is the 1 x 1 case.

    With ``samples``, Monte Carlo counts of the reading pairs of ``pairs``
    (every pair when None): chunks of ``DEFAULT_CHUNK`` in one map, over
    the cached pool of at most one worker per chunk, or in this process
    when that is one worker.
    Without, ``models.exact_tables`` of every pair.  The run arguments are
    checked either way, and then no copy counts give ``[]``.
    """
    if samples is not None:
        samples = check_count(samples, "samples", MIN_SAMPLES)
    workers = check_count(workers, "workers", 1)
    seed = check_count(seed, "seed", 0)
    if not n_copies:
        return []
    if samples is None:
        return models.exact_tables(config, q_sorted, n_copies)
    full, rest = divmod(samples, DEFAULT_CHUNK)
    sizes = [DEFAULT_CHUNK] * full + ([rest] if rest else [])
    tasks = [(config, n_copies, q_sorted, pairs, seed, index, size)
             for index, size in enumerate(sizes)]
    workers = min(workers, len(tasks))
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
             seed: int = models.DEFAULT_SEED,
             workers: int = 1) -> RunStatistics:
    """Monte Carlo CHSH or steering statistics of a model.

    The test follows the model (``config.run_kind``): Bell for simple-bell
    and two-axis tomography configs, steering otherwise.  Chunk i draws
    from ``rng_stream(seed, i)``, so (config, samples, seed) fixes the
    result, whatever ``workers`` is.  Every (i, j) reading pair is counted,
    the ones the test does not read too.  ``enumerate_exact`` is the exact
    twin.
    """
    samples = check_count(samples, "samples", MIN_SAMPLES)
    counts = _tables(config, (config.n_copies,), (config.q,), samples,
                     seed=seed, workers=workers)
    return RunStatistics(
        kind=config.run_kind, weights=counts[0, 0], samples=samples)


def enumerate_exact(config: ModelConfig) -> RunStatistics:
    """Exact statistics with no Monte Carlo error: the one-N, one-q case
    of ``models.exact_tables``, the twin of ``estimate``.  The unanimity
    family is enumerated in closed form; tomography tables are exact to
    rounding away from degenerate geometry.
    """
    probs = _tables(config, (config.n_copies,), (config.q,))[0, 0]
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


def sweep_curves(kind: str, n_copies, q_grid=None,
                 samples: int | None = DEFAULT_SAMPLES, *,
                 seed: int = models.DEFAULT_SEED, workers: int = 1
                 ) -> dict[float, list[CurvePoint]]:
    """Sweep the dead-zone threshold for several copy counts.

    Keys are the ``n_copies`` values, in order; ``q_grid`` is the default
    grid when None.  With ``samples`` the curves are Monte Carlo: every
    threshold and copy count in one pass over the samples' chunks, each
    curve bit-identical to a sweep of its N alone, counting only the
    reading pairs the statistic reads.  Shared draws make the efficiency
    exactly non-increasing along the grid, and (kind, n_copies, q_grid,
    samples, seed) fix the curves byte for byte, whatever ``workers`` is.
    With ``samples=None`` the curves are exact (``samples`` 0, stderr 0),
    nothing is drawn, and each point equals ``enumerate_exact``'s at its
    (N, q).  The whole (N, q) stack is reduced in one ``RunStatistics``.
    Degenerate points (no coincidences in some setting pair) carry NaN
    value and stderr.  The arguments follow the package's rules: ``kind``
    is 'bell' or 'steering' (``sphere.check_kind``), every point of
    ``q_grid`` lies in [0, 1) (``sphere.check_threshold``), each copy
    count is ``math.inf`` or an integer of at least 1
    (``models.check_copies``), and ``samples``, ``seed`` and ``workers``
    are integers (``sphere.check_count``), checked even when ``n_copies``
    is empty.
    """
    # Every copy count has the same direction sets, so one config serves
    # them all; it also checks ``kind``.
    config = tomography_config(kind)
    q_grid = default_q_grid() if q_grid is None else np.asarray(q_grid, float)
    if q_grid.ndim != 1 or q_grid.size == 0:
        raise ValueError(f"q_grid must be a non-empty 1-D sequence, got "
                         f"shape {q_grid.shape}")
    q_grid = check_threshold(q_grid, "q_grid")
    n_copies = list(dict.fromkeys(n_copies))
    counts = tuple(map(models.check_copies, n_copies))
    q_sorted, sorted_index = np.unique(q_grid, return_inverse=True)
    pairs = _reading_pairs(kind, len(config.alice_directions),
                           len(config.bob_directions))
    tables = _tables(config, counts, q_sorted, samples, pairs=pairs,
                     seed=seed, workers=workers)
    if not n_copies:
        return {}
    # One reduction of the whole (K, L, Ma, Mb, 3, 3) array.
    stats = RunStatistics(kind=kind, weights=tables, samples=samples or 0,
                          exact=samples is None)
    value, stderr, degenerate = stats.value()
    value, stderr = (np.where(degenerate, math.nan, x) for x in (value, stderr))
    columns = (stats.efficiency("alice"), value, stderr)
    return {n: [CurvePoint(n_copies=n, q=q, eta=eta, value=v, stderr=se,
                           samples=stats.samples)
                for q, eta, v, se in zip(q_grid.tolist(), *(
                    _listed(x[k][sorted_index]) for x in columns))]
            for k, n in enumerate(n_copies)}


def frontier_value(points: list[CurvePoint], eta: float) -> float | None:
    """Best curve value achievable at efficiency >= eta.

    Uses linear interpolation in eta between neighbouring points and a
    maximum over the qualifying part of the curve, so non-monotone curves
    are handled conservatively.  None when the curve never reaches eta.
    """
    if math.isnan(eta):
        raise ValueError("eta must be a number, got nan")
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
               n_max: int, *, curves: dict[float, list[CurvePoint]] | None = None
               ) -> int | None:
    """Smallest copy count whose frontier dominates an observation.

    The frontiers are the given ``curves`` (keyed by N; N = inf and N >
    n_max are ignored), or else the exact curves of
    ``sweep_curves(kind, [N], samples=None)`` on the default q grid at
    N = 1, 2, ..., with nothing drawn, each N built only once the smaller
    ones fall short.  An observation at or below the ideal local-realistic bound
    returns 1; None when no curve with up to n_max copies reaches the
    observed value at the observed efficiency.
    """
    check_kind(kind)
    n_max = check_count(n_max, "n_max", 1)
    if not math.isfinite(observed_value):
        raise ValueError("observed_value must be finite")
    if not 0.0 < observed_eta <= 1.0:
        raise ValueError("observed_eta must lie in (0, 1]")
    if observed_value <= LR_BOUND[kind]:
        return 1
    if curves is None:
        found = ((n, sweep_curves(kind, [n], None, None)[n])
                 for n in range(1, n_max + 1))
    else:
        found = ((n, curves[n]) for n in sorted(curves)
                 if n != math.inf and n <= n_max)
    for n, points in found:
        best = frontier_value(points, observed_eta)
        if best is not None and best >= observed_value:
            return int(n)
    return None
