"""Monte Carlo and exact estimation of efficiency, CHSH S, and steering T.

Every estimator reduces a model to a per-setting-pair table of trit
counts, and every derived statistic is a function of that table; exact
enumeration and quadrature fill the same layout with probabilities.  One
kernel counts for sweeps and point estimates: each projection gets a
signed threshold level (``models.threshold_levels``), one bincount per
reading pair histograms the joint levels, and 2-D prefix sums of it give
the table of every threshold.  A fixed-q estimate is the one-level case.

Parallelism is a map over fixed-size sample chunks, one independent
substream per chunk, merged by integer addition; results are identical
for any worker count at a fixed (seed, chunk schedule).
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .models import ModelConfig, tomography_config
from .sphere import RngStream, circle_arc_fraction, gauss_legendre

DEFAULT_CHUNK = 1 << 17
DEFAULT_SWEEP_SAMPLES = 1_000_000
MIN_SAMPLES = 1_000

LR_BOUND = {"bell": 2.0, "steering": 1.0 / 3.0}

# Trit value <-> table index. Index axes are ordered (-1, 0, +1).
_IDX = {-1: 0, 0: 1, 1: 2}
_COINC = np.ix_((0, 2), (0, 2))


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
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("bell", "steering"):
            raise ValueError(f"kind must be 'bell' or 'steering': {self.kind!r}")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 4 or self.weights.shape[2:] != (3, 3):
            raise ValueError("weights must have shape (Ma, Mb, 3, 3)")
        if np.any(self.weights < 0):
            raise ValueError("negative weights")

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

    def full_correlation(self, i: int, j: int,
                         conditioning: str = "registered") -> float:
        """<ab> with zero outcomes kept in the average.

        With ``conditioning='registered'`` the denominator is the events
        where Bob registered (his trit nonzero), the accounting in which
        the trusted pick model shows the 1/M suppression; ``'all'`` keeps
        every event.
        """
        w = self.weights[i, j]
        coinc = w[_COINC]
        num = coinc[0, 0] + coinc[1, 1] - coinc[0, 1] - coinc[1, 0]
        den = w[:, (0, 2)].sum() if conditioning == "registered" else w.sum()
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
        side ('alice' for p(a2=b2=1)/p(a2=1)).
        """
        vals = []
        for i, j in self.reading_pairs():
            p = self.pair(i, j)
            vals.append(p.eta_alice if variant == "alice" else p.eta_bob)
        return float(np.nanmean(vals))

    def reading_pairs(self) -> list[tuple[int, int]]:
        """Pairs read: every (i, j) for Bell, matched (j, j) for steering."""
        ma, mb = self.weights.shape[:2]
        if self.kind == "steering":
            return [(j, j) for j in range(min(ma, mb))]
        return [(i, j) for i in range(ma) for j in range(mb)]

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
        pairs = self._matched_pairs()
        m = len(pairs)
        total = 0.0
        var = 0.0
        empty_bins = False
        for j in pairs:
            w = self.weights[j, j]
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

    def _matched_pairs(self) -> list[int]:
        ma, mb = self.weights.shape[:2]
        if ma != mb:
            raise ValueError("steering needs matching choice counts")
        return list(range(ma))

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
                  n_levels: int) -> np.ndarray:
    """Trit tables (L, Ma, Mb, 3, 3) from signed levels v in [-L, L].

    Threshold k reads v <= -(k+1) as -1, |v| <= k as 0, v >= k+1 as +1.
    """
    width = 2 * n_levels + 1
    a_codes = (np.asarray(levels_a, np.intp) + n_levels) * width
    b_codes = np.asarray(levels_b, np.intp) + n_levels
    ma, mb = a_codes.shape[1], b_codes.shape[1]
    hist = np.stack([np.bincount(a_codes[:, i] + b_codes[:, j],
                                 minlength=width * width)
                     for i in range(ma) for j in range(mb)])
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


def _count_chunk(task) -> np.ndarray:
    """Tables of one chunk: trits at the model's q, or levels on a q grid."""
    config, q_sorted, seed, index, size = task
    gen = RngStream(seed, index).generator
    if q_sorted is None:
        batch = models.sample_batch(config, gen, size)
        return _count_levels(batch.alice, batch.bob, 1)[0]
    proj_a, proj_b = models.tomography_projections(config, gen, size)
    return _count_levels(models.threshold_levels(proj_a, q_sorted),
                         models.threshold_levels(proj_b, q_sorted),
                         len(q_sorted))


def _count_chunks(head: tuple, samples: int, chunk: int,
                  workers: int) -> np.ndarray:
    """Sum the chunk tables of ``head`` = (config, q grid or None, seed)."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    full, rest = divmod(samples, chunk)
    sizes = [chunk] * full + ([rest] if rest else [])
    tasks = [head + (index, size) for index, size in enumerate(sizes)]
    if workers <= 1:
        return sum(map(_count_chunk, tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk, tasks))


def _run_kind(config: ModelConfig) -> str:
    if config.kind in ("trusted-steering", "ncopy-steering"):
        return "steering"
    if config.kind == "simple-bell":
        return "bell"
    # Tomography models serve either test; infer from the axis count.
    return "bell" if len(config.alice_directions) == 2 else "steering"


def estimate(config: ModelConfig, samples: int, *, seed: int | None = None,
             workers: int = 1, chunk: int = DEFAULT_CHUNK) -> RunStatistics:
    """Monte Carlo CHSH or steering statistics of a model.

    The test follows the model: Bell for simple-bell and two-axis
    tomography configs, steering otherwise.
    """
    seed = config.seed if seed is None else seed
    counts = _count_chunks((config, None, seed), samples, chunk, workers)
    return RunStatistics(kind=_run_kind(config), weights=counts,
                         samples=samples,
                         metadata=dict(config.metadata, model=config.kind,
                                       seed=seed))


# ---------------------------------------------------------------------------
# Exact paths: enumeration for the discrete models, quadrature for the
# tomography family.
# ---------------------------------------------------------------------------

def tomography_pair_table(n_copies, q: float, dir_a, dir_b, *,
                          x_nodes: int = 160, phi_nodes: int = 96,
                          w_nodes: int = 96) -> np.ndarray:
    """Exact 3x3 trit table for one tomography setting pair, by quadrature.

    The polar integral over the shared axis is split at the dead-zone
    edges; the two azimuthal integrals reduce to analytic circle arcs.
    For the finite-N pair spread the opening-angle integral runs over the
    exactly transformed uniform variable w with cos = 1 - 2 w^(1/(N+1)).
    Bob's cells come from the arcs above +q and above -q, so the dead-zone
    cell is a difference of ordered fractions and never negative.
    """
    ct = float(np.clip(np.dot(dir_a, dir_b), -1.0, 1.0))
    st = math.sqrt(max(0.0, 1.0 - ct * ct))
    table = np.zeros((3, 3))
    regions = [(q, 1.0, 2), (-q, q, 1), (-1.0, -q, 0)]
    for lo, hi, a_idx in regions:
        if hi - lo < 1e-15:
            continue
        xs, wxs = gauss_legendre(x_nodes, lo, hi)
        wxs = wxs / 2.0  # uniform measure dx/2 on the polar cosine
        sx = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        if n_copies == math.inf:
            mean = ct * xs
            amp = st * sx
            p_plus = circle_arc_fraction(mean, amp, q)
            p_live = circle_arc_fraction(mean, amp, -q)
            table[a_idx, 2] += float(np.dot(wxs, p_plus))
            table[a_idx, 0] += float(np.dot(wxs, 1.0 - p_live))
            table[a_idx, 1] += float(np.dot(wxs, p_live - p_plus))
            continue
        n = int(n_copies)
        phis, wph = gauss_legendre(phi_nodes, 0.0, math.pi)
        wph = wph / math.pi
        wgrid, ww = gauss_legendre(w_nodes, 0.0, 1.0)
        cos_open = 1.0 - 2.0 * wgrid ** (1.0 / (n + 1))
        sin_open = np.sqrt(np.clip(1.0 - cos_open ** 2, 0.0, None))
        beta = (ct * xs[:, None] + st * sx[:, None] * np.cos(phis)[None, :])
        sb = np.sqrt(np.clip(1.0 - beta ** 2, 0.0, None))
        mean = cos_open[None, None, :] * beta[:, :, None]
        amp = sin_open[None, None, :] * sb[:, :, None]
        p_plus = circle_arc_fraction(mean, amp, q)
        p_live = circle_arc_fraction(mean, amp, -q)
        wt = wxs[:, None, None] * wph[None, :, None] * ww[None, None, :]
        table[a_idx, 2] += float((wt * p_plus).sum())
        table[a_idx, 0] += float((wt * (1.0 - p_live)).sum())
        table[a_idx, 1] += float((wt * (p_live - p_plus)).sum())
    return table


def _tomography_tables(config: ModelConfig) -> np.ndarray:
    ma = len(config.alice_directions)
    mb = len(config.bob_directions)
    out = np.zeros((ma, mb, 3, 3))
    for i in range(ma):
        for j in range(mb):
            out[i, j] = tomography_pair_table(
                config.n_copies, config.q,
                config.alice_directions[i], config.bob_directions[j])
    return out


def enumerate_exact(config: ModelConfig) -> RunStatistics:
    """Exact statistics with no Monte Carlo error.

    The unanimity family (simple-bell, trusted-steering, and
    ncopy-steering up to 10 copies) is enumerated in closed form; the
    tomography family uses deterministic quadrature.
    """
    if config.is_tomography:
        probs = _tomography_tables(config)
    elif config.n_copies > 10:
        raise ValueError("unanimity enumeration capped at 10 copies")
    else:
        probs = models.enumerate_unanimity(config)
    return RunStatistics(kind=_run_kind(config), weights=probs, samples=0,
                         exact=True,
                         metadata=dict(config.metadata, model=config.kind))


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


def sweep_curve(kind: str, n_copies, q_grid=None, samples: int = DEFAULT_SWEEP_SAMPLES,
                *, seed: int | None = None, workers: int = 1,
                chunk: int = DEFAULT_CHUNK) -> list[CurvePoint]:
    """Sweep the dead-zone threshold for one copy count.

    All thresholds in the grid are evaluated on the same sample stream,
    which makes the efficiency exactly non-increasing along the grid and
    keeps reruns byte-for-byte reproducible.  Degenerate points (no
    coincidences in some setting pair) carry NaN value and stderr.
    """
    if kind not in ("bell", "steering"):
        raise ValueError(f"kind must be 'bell' or 'steering': {kind!r}")
    q_grid = default_q_grid() if q_grid is None else np.asarray(q_grid, float)
    if np.any((q_grid < 0) | (q_grid >= 1)):
        raise ValueError("q_grid must lie in [0, 1)")
    config = tomography_config(kind, n_copies,
                               seed=models.DEFAULT_SEED if seed is None else seed)
    q_sorted, sorted_index = np.unique(q_grid, return_inverse=True)
    counts = _count_chunks((config, q_sorted, config.seed), samples, chunk,
                           workers)
    points = []
    for q, k in zip(q_grid, sorted_index):
        stats = RunStatistics(kind=kind, weights=counts[k], samples=samples)
        value, stderr, degenerate = stats.value()
        points.append(CurvePoint(
            n_copies=n_copies, q=float(q),
            eta=stats.efficiency("alice"),
            value=math.nan if degenerate else value,
            stderr=math.nan if degenerate else stderr,
            samples=samples))
    return points


def sweep_curves(kind: str, n_list, q_grid=None,
                 samples: int = DEFAULT_SWEEP_SAMPLES, *,
                 seed: int | None = None, workers: int = 1
                 ) -> dict[float, list[CurvePoint]]:
    """Sweep several copy counts; keys are the n_copies values."""
    return {n: sweep_curve(kind, n, q_grid, samples, seed=seed,
                           workers=workers) for n in n_list}


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
               samples: int = 200_000, q_grid=None, seed: int | None = None,
               workers: int = 1) -> int | None:
    """Smallest copy count whose swept frontier dominates an observation.

    An observation at or below the ideal local-realistic bound needs no
    copies at all and returns 1.  Returns None when no curve with up to
    n_max copies reaches the observed value at the observed efficiency.
    """
    if not math.isfinite(observed_value):
        raise ValueError("observed_value must be finite")
    if not 0.0 < observed_eta <= 1.0:
        raise ValueError("observed_eta must lie in (0, 1]")
    if observed_value <= LR_BOUND[kind]:
        return 1
    if curves is None:
        curves = sweep_curves(kind, range(1, n_max + 1), q_grid, samples,
                              seed=seed, workers=workers)
    for n in sorted(k for k in curves if k != math.inf and k <= n_max):
        best = frontier_value(curves[n], observed_eta)
        if best is not None and best >= observed_value:
            return int(n)
    return None
