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
    norm = float(np.linalg.norm(h.direction))
    if norm == 0.0:
        raise DegenerateModelError("hyperplane direction has zero norm")
    return -h.score(z) / norm


def unit_direction(h: Hyperplane) -> np.ndarray:
    """Normal of h normalized to unit length (read-only)."""
    norm = float(np.linalg.norm(h.direction))
    if norm == 0.0:
        raise DegenerateModelError("hyperplane direction has zero norm")
    return _frozen(h.direction / norm)


def project_to_hyperplane(z: np.ndarray, h: Hyperplane) -> np.ndarray:
    """Move z along the unit normal by its signed distance, landing on h."""
    z = np.asarray(z, dtype=np.float64)
    return _frozen(z + signed_distance(z, h) * unit_direction(h))


def _exponent_scaled(v: np.ndarray) -> np.ndarray:
    """v (each row of a 2-D v) times the power of two that brings its largest |entry| into
    [0.5, 1): exact, so cosines from it equal the unscaled ones wherever those neither over- nor
    underflow."""
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True, initial=0.0))[1])


def cosine_similarity(a, b) -> float:
    """a . b / (|a| |b|), clipped into [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(a.size, b.size, what="direction vector")
    a, b = _exponent_scaled(a), _exponent_scaled(b)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateModelError("cosine similarity of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def pairwise_cosines(vectors: np.ndarray) -> np.ndarray:
    """Pairwise cosine matrix of the rows of `vectors`.

    Symmetrized, with the diagonal pinned to exactly 1.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D stack of vectors, got shape {v.shape}")
    v = _exponent_scaled(v)
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateModelError("cosine matrix over a zero vector is undefined")
    unit = v / norms[:, None]
    m = unit @ unit.T
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return _frozen(m)
