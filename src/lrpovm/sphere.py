"""Sampling and deterministic quadrature on the unit sphere.

Random directions, correlated direction pairs for the tomography models,
and the Gauss-Legendre machinery used by the exact estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass
class RngStream:
    """Reproducible random stream identified by (seed, stream index).

    Equal (seed, stream) always produces the identical sample sequence.
    Distinct stream indices give statistically independent streams, which
    is what the parallel estimators hand to their workers.  The stream
    index is a tuple so substreams can be nested without collisions.
    """

    seed: int
    stream: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.stream, int):
            self.stream = (self.stream,)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=tuple(self.stream))
            self._gen = np.random.default_rng(seq)
        return self._gen

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream + (index,))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a numpy Generator, an int seed, or None."""
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


def check_unit(v, name: str = "direction") -> np.ndarray:
    """v as a float array; a vector, or each row of a matrix, must be unit."""
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-9):
        raise ValueError(f"{name} is not unit length: {v!r}")
    return v


def _norm3(x, y, z) -> np.ndarray:
    """Euclidean norm of the rows (x, y, z), summed as (x^2 + y^2) + z^2.

    That is the order ``np.linalg.norm(v, axis=1)`` uses on an (n, 3)
    array, so the two agree bit for bit.
    """
    norm = np.multiply(x, x)
    square = np.multiply(y, y)
    norm += square
    np.multiply(z, z, out=square)
    norm += square
    return np.sqrt(norm, out=norm)


def sample_uniform_direction(rng, size: int | None = None) -> np.ndarray:
    """Uniform direction(s) on the unit sphere.

    Returns shape (3,) when size is None, else (size, 3).
    """
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    v = gen.standard_normal((n, 3))
    norms = _norm3(*v.T)
    # A zero norm has probability ~1e-900; resample rather than divide by 0.
    bad = norms < 1e-12
    while np.any(bad):
        v[bad] = gen.standard_normal((int(bad.sum()), 3))
        norms = _norm3(*v.T)
        bad = norms < 1e-12
    v /= norms[:, None]
    return v[0] if size is None else v


def sample_pair(n_copies: int, rng, size: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sample correlated direction pairs (A, B) for the N-copy tomography model.

    A is uniform on the sphere.  The opening variable u = (1 - A.B)/2 has
    density (N+1) u^N on [0, 1], sampled exactly by inverse CDF as
    u = U^(1/(N+1)); B is uniform in azimuth about A.  For large N this
    concentrates B antipodally to A.  n_copies = 0 is the degenerate
    extension with B uniform and independent of A, used by oracle tests.

    The azimuth is measured in the frame e1 = A x h / |A x h|, e2 = A x e1,
    with helper h = x-hat unless |A_x| >= 0.9, then y-hat.  Components are
    computed one at a time, with the same operations ``np.cross`` performs,
    and B is written one column at a time.
    """
    n_copies = int(n_copies)
    if n_copies < 0:
        raise ValueError(f"n_copies must be >= 0, got {n_copies}")
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    a = sample_uniform_direction(gen, n)
    cos_t = gen.random(n) ** (1.0 / (n_copies + 1))
    cos_t *= -2.0
    cos_t += 1.0
    sin_t = np.multiply(cos_t, cos_t)
    np.subtract(1.0, sin_t, out=sin_t)
    np.clip(sin_t, 0.0, None, out=sin_t)
    np.sqrt(sin_t, out=sin_t)
    chi = gen.random(n)
    chi *= 2.0 * math.pi
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi, out=chi)
    # e1 before normalisation: A x x-hat = (0, A_z, -A_y) where |A_x| < 0.9,
    # else A x y-hat = (-A_z, 0, A_x).
    ax, ay, az = a.T
    use_y = np.abs(ax) >= 0.9
    e1 = np.zeros((3, n))
    np.negative(az, out=e1[0], where=use_y)
    np.copyto(e1[1], az, where=~use_y)
    np.negative(ay, out=e1[2])
    np.copyto(e1[2], ax, where=use_y)
    e1 /= _norm3(*e1)
    b = np.empty_like(a)
    e2_c, work = np.empty(n), np.empty(n)
    for c in range(3):
        # e2 = A x e1, component c; then B_c = cos_t A_c
        # + sin_t (cos_chi e1_c + sin_chi e2_c).
        i, j = (c + 1) % 3, (c + 2) % 3
        np.multiply(a[:, i], e1[j], out=e2_c)
        np.multiply(a[:, j], e1[i], out=work)
        e2_c -= work
        e2_c *= sin_chi
        np.multiply(cos_chi, e1[c], out=work)
        work += e2_c
        work *= sin_t
        np.multiply(cos_t, a[:, c], out=b[:, c])
        b[:, c] += work
    if size is None:
        return a[0], b[0]
    return a, b


def pair_density(n_copies: int, cos_angle) -> np.ndarray | float:
    """Normalized joint density of (A, B) at a given A.B, per unit area pair.

    Value is ((N+1)/(4 pi)^2) * ((1 - A.B)/2)^N; it integrates to 1 over
    the product of the two spheres.  The associated preselection weight
    (N+1)/2^N is bookkept separately by the models.
    """
    n_copies = int(n_copies)
    if n_copies < 0:
        raise ValueError(f"n_copies must be >= 0, got {n_copies}")
    c = np.asarray(cos_angle, dtype=float)
    if np.any(np.abs(c) > 1.0 + 1e-12):
        raise ValueError("cos_angle outside [-1, 1]")
    c = np.clip(c, -1.0, 1.0)
    val = (n_copies + 1) / (16.0 * math.pi ** 2) \
        * ((1.0 - c) / 2.0) ** n_copies
    return float(val) if np.isscalar(cos_angle) else val


@lru_cache(maxsize=64)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def gauss_legendre(nodes: int, lo: float = -1.0, hi: float = 1.0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    x, w = _leggauss(int(nodes))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def cap_overlap_quadrature(f, nodes: int = 64) -> float:
    """Gauss-Legendre estimate of the integral of f over cos(theta) in [-1, 1].

    f must accept an ndarray of abscissas; scalar-valued constants are
    broadcast.  Used for polar-cap overlap integrands, hence the name.
    """
    x, w = gauss_legendre(nodes)
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    return float(np.dot(w, y))


def circle_arc_fraction(mean, amplitude, threshold) -> np.ndarray:
    """Fraction of the circle where mean + amplitude*cos(phi) > threshold.

    Computed analytically; all arguments broadcast.  Amplitude must be
    non-negative; a zero amplitude degenerates to the plain indicator.
    """
    mean = np.asarray(mean, dtype=float)
    amplitude = np.asarray(amplitude, dtype=float)
    threshold = np.asarray(threshold, dtype=float)
    out = np.empty(np.broadcast_shapes(
        mean.shape, amplitude.shape, threshold.shape))
    live = amplitude > 0.0
    all_live = bool(live.all())
    np.subtract(threshold, mean, out=out)
    out /= amplitude if all_live else np.where(live, amplitude, 1.0)
    np.clip(out, -1.0, 1.0, out=out)
    np.arccos(out, out=out)
    out /= math.pi
    if not all_live:
        np.copyto(out, mean > threshold, where=~live)
    return out
