"""Sampling, circle arcs and the Gauss-Legendre rule on the unit sphere.

The seeded streams that every sampler draws from (``rng_stream``),
correlated direction pairs for the tomography models (``sample_pair``,
whose A is a uniform direction and whose N = 0 pair is two independent
ones), the circle-arc fraction of the exact chaotic-ball tables, and the
Gauss-Legendre rule of the pair-density normalisation check.  It also
holds the package's argument rules, which every module imports:
``check_count`` for integers, ``check_threshold`` for thresholds and
``check_kind`` for the test a run feeds.

A is a standard normal row divided by its norm, in one pass and with no
test of the norm: the direction of a Gaussian row is uniform whatever its
norm, so no row is ever redrawn.  Only an exactly zero row, about 1e-47 a
row, would give NaN; so would a ``Generator`` subclass whose
``standard_normal`` returns zero rows, and nothing guards against it.

Sampling writes into a ``Workspace``, one byte arena reused round after
round.  Of a draw of n pairs, only the normal rows of A and the opening
uniforms u are held at full size, straight in the arena
(``standard_normal(out=)``, ``random(out=)``), because each is drawn whole
before the next; the azimuth uniforms chi, drawn last, are drawn block by
block into a reused block buffer as the blocks are reached.  The
elementwise work (norms and division as A is drawn, the pair frame) runs
in blocks of ``BLOCK`` rows through reused block buffers, so the
workspace does not grow with the number of copy counts.  The Monte Carlo
estimators keep one workspace per thread for all their chunks; the
public samplers give each call a fresh one, so their results are new
arrays.  Blocking changes no bit of any result, nor the generator's state
once every block is drawn: a generator's ``random`` fills its output one
number at a time, so blocks of it draw the numbers of one call.

``PairSampler`` serves several copy counts N from one draw.  A, the
opening uniforms u and the azimuth uniforms chi are drawn once, in the
order a single N draws them, so each N sees the very numbers it would
draw alone.  Its caller walks the blocks itself: ``block`` draws a
block's chi and builds its azimuth vector once, and ``partner`` adds one
N's opening angle.  Every elementwise operation keeps the order of the
single-N code, so each N's pairs are bit-identical to its own run.
"""
from __future__ import annotations

import math
import operator

import numpy as np


def rng_stream(seed: int, *stream: int) -> np.random.Generator:
    """A fresh generator of the reproducible stream (seed, *stream).

    Equal arguments always give the identical sample sequence, and each
    call starts it afresh.  Distinct stream indices give statistically
    independent streams, which is what the parallel estimators hand to
    their chunks.  The indices are the spawn key of numpy's
    ``SeedSequence``, so (2, 1), (2,) and (1, 2) are distinct streams, and
    ``rng_stream(seed)`` is ``numpy.random.default_rng(seed)``.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=stream))


def check_unit(v, name: str = "direction") -> np.ndarray:
    """v as a float array; a vector, or each row of a matrix, must be unit
    (a NaN component fails)."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-9):
        raise ValueError(f"{name} is not unit length: {v!r}")
    return v


def check_count(value, name: str = "n_copies", minimum: int = 0) -> int:
    """value as an int of at least ``minimum``: the package's one integer
    rule, for every count, size, seed and worker argument.

    The rule is Python's own, ``operator.index``, which ``range`` and
    indexing apply: an int or a numpy integer passes, and every float
    fails, 2.0 included, as do bool, str and None.  A float is refused
    rather than truncated or compared with its int, because one that
    looks integral may not be meant as a count (1e20, or
    2.0000000000000004 from arithmetic), and because refusing every float
    is the rule that ``samples``, ``seed`` and ``workers`` already kept; a
    bool is a flag, not a count.  Callers that take the copy count
    ``math.inf`` test for it first.  A value that is not an integer raises
    TypeError, one below ``minimum`` ValueError, each naming ``name``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def check_threshold(q, name: str = "q"):
    """q, once it lies in [0, 1), with a -0.0 made +0.0: the package's one
    threshold rule, which every threshold goes through, and every point
    of a grid given as an array: a q >= 1 would put every projection in
    the dead zone [-q, q], and a negative q is no dead zone.  The first
    value that fails, NaN included, raises ValueError naming ``name``; a
    q that is neither a number nor an array fails its comparison.  A
    value that passes keeps its type, and abs changes no bit of it but
    the sign of a zero, so a -0 given is never printed back.  Grid shape
    and order belong to the grid's user (``models.threshold_levels``)."""
    for value in q.ravel().tolist() if isinstance(q, np.ndarray) else (q,):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {value}")
    return abs(q)


def check_kind(kind: str) -> str:
    """kind, once it is 'bell' or 'steering': the package's one rule for
    the test a run feeds, else ValueError."""
    if kind not in ("bell", "steering"):
        raise ValueError(f"kind must be 'bell' or 'steering', got {kind!r}")
    return kind


# Rows per block of elementwise work: one float vector of a block is 64 KiB,
# so a block's handful of work vectors stays in cache.
BLOCK = 8192


def blocks(n: int):
    """Slices covering range(n) in blocks of BLOCK rows.

    A one-row remainder joins the block before it, so no block has one row
    unless n = 1: numpy multiplies a one-row matrix through another BLAS
    routine, whose last bits can differ from the blocked rows'.  A block
    therefore holds at most BLOCK + 1 rows.
    """
    start = 0
    while start < n:
        stop = n if n - start <= BLOCK + 1 else start + BLOCK
        yield slice(start, stop)
        start = stop


class Workspace:
    """Reusable scratch memory: one byte arena carved into typed views.

    ``take`` hands out consecutive views of the arena; ``reset`` starts the
    next round of takes at its front again, so a view stays valid until the
    next reset.  A round that outgrows the arena gets new arrays for the
    rest, and the next reset grows the arena to the largest round seen.
    The arena therefore holds one round's need, the largest, and a fresh
    workspace allocates exactly what one round asks for.
    """

    ALIGN = 64  # views start on a cache line, whatever came before them

    def __init__(self) -> None:
        self._arena = np.empty(0, np.uint8)
        self._used = 0
        self._high = 0

    @property
    def nbytes(self) -> int:
        """Bytes the arena holds."""
        return self._arena.nbytes

    def reset(self) -> None:
        """Start a new round; the views of the last one become invalid."""
        if self._high > self._arena.size:
            self._arena = np.empty(0, np.uint8)  # free before growing
            self._arena = np.empty(self._high, np.uint8)
        self._used = 0

    def take(self, shape, dtype=float) -> np.ndarray:
        """An uninitialised C-contiguous array, in the arena if it fits."""
        dtype = np.dtype(dtype)
        start = -(-self._used // self.ALIGN) * self.ALIGN
        stop = start + math.prod(np.atleast_1d(shape)) * dtype.itemsize
        self._used = stop
        self._high = max(self._high, stop)
        if stop > self._arena.size:
            return np.empty(shape, dtype)
        return self._arena[start:stop].view(dtype).reshape(shape)


def _norm3(x, y, z, out, work) -> np.ndarray:
    """Euclidean norm of the rows (x, y, z) into out, as (x^2 + y^2) + z^2.

    That is the order ``np.linalg.norm(v, axis=1)`` uses on an (n, 3)
    array, so the two agree bit for bit.
    """
    np.multiply(x, x, out=out)
    np.multiply(y, y, out=work)
    out += work
    np.multiply(z, z, out=work)
    out += work
    return np.sqrt(out, out=out)


def _draw_directions(gen: np.random.Generator, n: int, ws: Workspace
                    ) -> np.ndarray:
    """n uniform directions (n, 3): standard normal rows drawn into ``ws``
    and divided by their norms block by block, in place.

    The division is unconditional.  The standard normal density in 3-D
    depends on the norm alone, so a row's direction is uniform whatever
    its norm (Muller, Commun. ACM 2, 19, 1959), and no row needs a
    redraw: a small norm is no worse than a large one.  Only an exactly
    zero row, at about 1e-47 a row, would give NaN, as would a generator
    subclass that returns zero rows.
    """
    v = ws.take((n, 3))
    gen.standard_normal(out=v)
    norms, work = ws.take((2, BLOCK + 1))
    for rows in blocks(n):
        block = v[rows]
        m = len(block)
        block /= _norm3(*block.T, norms[:m], work[:m])[:, None]
    return v


class PairSampler:
    """Direction pairs (A, B) of the N-copy tomography density, by blocks,
    for several copy counts N at once.

    The draws of n pairs come in this order: normal rows for A, then, if
    some N is finite, n uniforms for the opening variable and n for the
    azimuth.  No draw depends on N, so the stream of each single N is
    this one, cut short after A when N is inf: every N gets exactly the
    A, u and chi it would draw alone.  The constructor
    draws A and u, which are held at full size, as each is drawn whole
    before the next; each row of A is divided by its norm as it is drawn,
    with no test of the norm and no redraw (see ``_draw_directions``).

    ``block(rows)`` gives A for one block of ``blocks(n)``: those drawn
    rows, a view.  It draws the block's azimuth uniforms chi into a reused
    block buffer and builds its azimuth vector cos(chi) e1 + sin(chi) e2,
    which does not depend on N either.  As chi is drawn as the blocks are
    reached, ``block`` must be called once per block, in order.
    ``partner(N, A, rows)`` then gives that block's B for one N, in one
    reused block buffer, adding only N's opening cosine and sine, or A
    itself when N is inf (the shared axis of the chaotic-ball limit).
    Every other N follows the one integer rule, ``check_count``.
    """

    def __init__(self, n_copies, gen: np.random.Generator, n: int,
                 ws: Workspace) -> None:
        finite = [check_count(k) for k in n_copies if k != math.inf]
        self.finite = bool(finite)
        self.a = _draw_directions(gen, n, ws)
        if not self.finite:
            return
        self.gen = gen
        self.u = ws.take(n)
        gen.random(out=self.u)
        self.chi = ws.take(BLOCK + 1)
        self.b = ws.take((BLOCK + 1, 3))
        self.azimuth = ws.take((3, BLOCK + 1))
        self.work = ws.take((7, BLOCK + 1))
        self.use_y = ws.take((2, BLOCK + 1), bool)

    def block(self, rows: slice) -> np.ndarray:
        """A of the next block; its azimuth vector too if some N is
        finite."""
        a = self.a[rows]
        if self.finite:
            self._azimuth(a, self.gen.random(out=self.chi[:len(a)]))
        return a

    def _azimuth(self, a, chi) -> None:
        """cos(chi) e1 + sin(chi) e2 of one block (see ``sample_pair``),
        from A and its azimuth uniforms, which are overwritten."""
        m = len(a)
        cos_chi, e2_c, work, norm, e1 = (
            self.work[0, :m], self.work[1, :m], self.work[2, :m],
            self.work[3, :m], self.work[4:7, :m])
        use_y, use_x = self.use_y[0, :m], self.use_y[1, :m]
        chi *= 2.0 * math.pi
        np.cos(chi, out=cos_chi)
        sin_chi = np.sin(chi, out=chi)
        # e1 before normalisation: A x x-hat = (0, A_z, -A_y) where
        # |A_x| < 0.9, else A x y-hat = (-A_z, 0, A_x).
        ax, ay, az = a.T
        np.abs(ax, out=work)
        np.greater_equal(work, 0.9, out=use_y)
        np.logical_not(use_y, out=use_x)
        e1[:2] = 0.0
        np.negative(az, out=work)
        np.copyto(e1[0], work, where=use_y)
        np.copyto(e1[1], az, where=use_x)
        np.negative(ay, out=e1[2])
        np.copyto(e1[2], ax, where=use_y)
        e1 /= _norm3(*e1, norm, work)
        for c in range(3):
            # e2 = A x e1, component c.
            i, j = (c + 1) % 3, (c + 2) % 3
            np.multiply(a[:, i], e1[j], out=e2_c)
            np.multiply(a[:, j], e1[i], out=work)
            e2_c -= work
            e2_c *= sin_chi
            np.multiply(cos_chi, e1[c], out=self.azimuth[c, :m])
            self.azimuth[c, :m] += e2_c

    def partner(self, n_copies, a, rows: slice) -> np.ndarray:
        """B of the block A = ``block(rows)`` for n_copies: cos_t A + sin_t
        (the azimuth vector), with cos_t = 1 - 2 u^(1/(N+1)); A at inf."""
        if n_copies == math.inf:
            return a
        m = len(a)
        cos_t, sin_t, work = self.work[:3, :m]
        np.power(self.u[rows], 1.0 / (n_copies + 1), out=cos_t)
        cos_t *= -2.0
        cos_t += 1.0
        np.multiply(cos_t, cos_t, out=sin_t)
        np.subtract(1.0, sin_t, out=sin_t)
        np.clip(sin_t, 0.0, None, out=sin_t)
        np.sqrt(sin_t, out=sin_t)
        b = self.b[:m]
        for c in range(3):
            np.multiply(self.azimuth[c, :m], sin_t, out=work)
            np.multiply(cos_t, a[:, c], out=b[:, c])
            b[:, c] += work
        return b


def sample_pair(n_copies: int, rng: np.random.Generator,
                size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample correlated direction pairs (A, B) for the N-copy tomography model.

    A is uniform on the sphere.  The opening variable u = (1 - A.B)/2 has
    density (N+1) u^N on [0, 1], sampled exactly by inverse CDF as
    u = U^(1/(N+1)); B is uniform in azimuth about A.  For large N this
    concentrates B antipodally to A.  n_copies = 0 is the degenerate
    extension with B uniform and independent of A: two independent uniform
    directions, as the oracle tests use.

    The azimuth is measured in the frame e1 = A x h / |A x h|, e2 = A x e1,
    with helper h = x-hat unless |A_x| >= 0.9, then y-hat.  Components are
    computed one at a time, with the same operations ``np.cross`` performs.
    ``PairSampler`` does the work, in blocks; see it for the draw order.
    """
    n_copies = check_count(n_copies)
    n = 1 if size is None else check_count(size, "size")
    pairs = PairSampler((n_copies,), rng, n, Workspace())
    b = np.empty((n, 3))
    for rows in blocks(n):
        b[rows] = pairs.partner(n_copies, pairs.block(rows), rows)
    if size is None:
        return pairs.a[0], b[0]
    return pairs.a, b


def pair_density(n_copies: int, cos_angle) -> np.ndarray | float:
    """Normalized joint density of (A, B) at a given A.B, per unit area pair.

    Value is ((N+1)/(4 pi)^2) * ((1 - A.B)/2)^N; it integrates to 1 over
    the product of the two spheres.  The associated preselection weight
    (N+1)/2^N is bookkept separately by the models.
    """
    n_copies = check_count(n_copies)
    c = np.asarray(cos_angle, dtype=float)
    if np.any(np.abs(c) > 1.0 + 1e-12):
        raise ValueError("cos_angle outside [-1, 1]")
    c = np.clip(c, -1.0, 1.0)
    val = (n_copies + 1) / (16.0 * math.pi ** 2) \
        * ((1.0 - c) / 2.0) ** n_copies
    return float(val) if np.isscalar(cos_angle) else val


def cap_overlap_quadrature(f, nodes: int = 64) -> float:
    """Gauss-Legendre estimate of the integral of f over cos(theta) in [-1, 1].

    f must accept an ndarray of abscissas; scalar-valued constants are
    broadcast.  Used for polar-cap overlap integrands, hence the name.
    """
    x, w = np.polynomial.legendre.leggauss(check_count(nodes, "nodes", 2))
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    return float(np.dot(w, y))


def circle_arc_fraction(mean, amplitude, threshold) -> np.ndarray:
    """Fraction of the circle where mean + amplitude*cos(phi) > threshold.

    Computed analytically; all arguments broadcast, and every amplitude
    must be > 0.
    """
    out = np.asarray(np.subtract(threshold, mean, dtype=float) / amplitude)
    np.maximum(out, -1.0, out=out)
    np.minimum(out, 1.0, out=out)
    np.arccos(out, out=out)
    out /= math.pi
    return out
