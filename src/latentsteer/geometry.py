"""Latent-space geometry: vectors, hyperplanes, signed distances, unit directions.

A latent vector is a plain 1-D float64 ndarray. Everything here is a pure
function over immutable inputs; arrays handed back are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, DimensionMismatchError

__all__ = [
    "Hyperplane",
    "as_latent",
    "sample_latents",
    "signed_distance",
    "unit_direction",
    "project_to_hyperplane",
    "cosine_similarity",
    "pairwise_cosines",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _latent_rows(values, dim: int | None = None) -> np.ndarray:
    """values as a C-contiguous float64 (n, dim) array, checked finite, with dim >= 2 and, when
    given, the model's or world's dim. An array that already fits is returned, not copied."""
    Z = np.ascontiguousarray(values, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] < 2:
        raise ValueError(f"latents must be a finite (n, dim) array with dim >= 2, got shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("latents must be a finite (n, dim) array: found NaN or Inf entries")
    if dim is not None and Z.shape[1] != dim:
        raise DimensionMismatchError(dim, Z.shape[1], what="latent vector")
    return Z


def as_latent(values, expected_dim: int | None = None) -> np.ndarray:
    """Coerce to a read-only float64 latent vector, checked as a row of `_latent_rows`."""
    z = np.array(values, dtype=np.float64, copy=True)
    if z.ndim != 1:
        raise ValueError(f"latent vector must be 1-D, got shape {z.shape}")
    _latent_rows(z[None], expected_dim)
    return _frozen(z)


def sample_latents(count: int, dim: int, seed: int) -> np.ndarray:
    """Draw `count` latent vectors with i.i.d. standard-normal coordinates.

    Returns a read-only (count, dim) array; deterministic for a given seed.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    return _frozen(rng.standard_normal((count, dim)))


@dataclass(frozen=True)
class Hyperplane:
    """Affine boundary {x : direction . x + intercept = 0}.

    Construction accepts any finite direction, including zero norm, so that
    degenerate fits remain representable; operations that need actual
    geometry (signed_distance, unit_direction) reject zero-norm directions.
    """

    direction: np.ndarray
    intercept: float

    def __post_init__(self):
        d = np.array(self.direction, dtype=np.float64, copy=True)
        if d.ndim != 1:
            raise ValueError(f"direction must be 1-D, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("direction contains NaN or Inf entries")
        object.__setattr__(self, "direction", _frozen(d))
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def dim(self) -> int:
        return self.direction.size

    def score(self, z: np.ndarray) -> float:
        """direction . z + intercept (positive on the direction side)."""
        return float(self.direction @ as_latent(z, self.dim) + self.intercept)


def signed_distance(z: np.ndarray, h: Hyperplane) -> float:
    """Signed distance from z to h, negative on the positive-score side."""
    norm = float(_unit_norm(h.direction)[1])
    if norm == 0.0:
        raise DegenerateModelError("hyperplane direction has zero norm")
    return -h.score(z) / norm


def unit_direction(h: Hyperplane) -> np.ndarray:
    """Normal of h normalized to unit length (read-only)."""
    unit, norm = _unit_norm(h.direction)
    if norm == 0.0:
        raise DegenerateModelError("hyperplane direction has zero norm")
    return _frozen(unit)


def project_to_hyperplane(z: np.ndarray, h: Hyperplane) -> np.ndarray:
    """Move z along the unit normal by its signed distance, landing on h."""
    z = np.asarray(z, dtype=np.float64)
    return _frozen(z + signed_distance(z, h) * unit_direction(h))


def _unit_norm(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector along v's last axis as a unit vector (a zero vector stays zero), and its norm.

    The package's one norm. v is scaled by the power of two that brings its largest |entry| into
    [0.5, 1), so its sum of squares cannot over- or underflow, and the norm is scaled back; both
    scalings are exact. The scaled copy is C-ordered, so a row reduces alone as in any batch: a
    vector's unit and norm read the same bits wherever they are taken. A norm past the float
    range is inf, silently; the unit vector is still right.
    """
    e = np.frexp(np.abs(v).max(axis=-1, keepdims=True, initial=0.0))[1]
    scaled = np.ldexp(v, -e, order="C")
    n = np.sqrt((scaled * scaled).sum(axis=-1))
    with np.errstate(over="ignore"):
        return scaled / np.where(n > 0.0, n, 1.0)[..., None], np.ldexp(n, e[..., 0])


def cosine_similarity(a, b) -> float:
    """a . b / (|a| |b|), clipped into [-1, 1]: the off-diagonal entry of their pairwise_cosines."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(a.size, b.size, what="direction vector")
    return float(pairwise_cosines(np.stack([a, b]))[0, 1])


def pairwise_cosines(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix of the rows of `vectors`.

    Symmetrized, with the diagonal pinned to exactly 1.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D stack of vectors, got shape {v.shape}")
    unit, norms = _unit_norm(v)
    if np.any(norms == 0.0):
        raise DegenerateModelError("cosine of a zero vector is undefined")
    m = unit @ unit.T
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return _frozen(m)
