"""Synthetic stand-in for a generator with known latent attribute structure.

A world owns one unit "ground truth" direction per binary/continuous
attribute and one per class of each multiclass attribute. The pairwise
cosines of those directions are dialed in exactly via a Cholesky factor of
the configured entanglement matrix, so tests can control how tangled the
attributes are.

Rendering is a strip of 8x8 blocks, one per attribute plus one texture
block: each attribute's value is encoded as its block's mean (discrete ones
by the models' tie rule), and an oracle reads the blocks back into labels
(optionally flipping discrete labels with a configured noise probability).
Both work on batches (`render_batch`, `read_batch`), and `generate_image`
and `oracle_label` are each a batch of one. Both compose two steps: latents
to block means, and block means to labels. Training labels (the whole
sample in one call) and the end-to-end eval's judge (an eval block at a
time) run the two steps on arrays of latents and build no pixel strips; the
texture block, which hashes the latent's bytes and which the oracle never
reads, is rendered only where an image is returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import LayoutError, WorldConfigError
from .geometry import _latent_rows, as_latent
from .models import CONTINUOUS, MULTICLASS, AttributeSchema, decide

__all__ = [
    "BLOCK_SIZE",
    "WorldConfig",
    "SyntheticWorld",
    "SyntheticImage",
    "AttributeLabels",
    "direction_slots",
    "build_world",
    "render_batch",
    "read_batch",
    "generate_image",
    "oracle_label",
]

BLOCK_SIZE = 8

PROFILE_LINEAR = "linear"
PROFILE_SIGMOID = "sigmoid"


@dataclass(frozen=True)
class WorldConfig:
    """Configuration of a synthetic world.

    entanglement is the target pairwise cosine matrix over all ground-truth
    directions (None means identity, i.e. fully disentangled attributes).
    label_noise is the probability of corrupting each discrete oracle label.
    """

    dim: int
    attributes: tuple[AttributeSchema, ...]
    entanglement: np.ndarray | None = None
    label_noise: float = 0.0
    continuous_profile: str = PROFILE_LINEAR
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise WorldConfigError(f"dim must be at least 2, got {self.dim}")
        attrs = tuple(self.attributes)
        if not attrs:
            raise WorldConfigError("a world needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise WorldConfigError(f"duplicate attribute names: {names}")
        object.__setattr__(self, "attributes", attrs)
        if not (0.0 <= self.label_noise < 0.5):
            raise WorldConfigError(f"label_noise must lie in [0, 0.5), got {self.label_noise}")
        if self.continuous_profile not in (PROFILE_LINEAR, PROFILE_SIGMOID):
            raise WorldConfigError(
                f"continuous_profile must be 'linear' or 'sigmoid', got {self.continuous_profile!r}"
            )
        if self.entanglement is not None:
            e = np.array(self.entanglement, dtype=np.float64, copy=True)
            e.flags.writeable = False
            object.__setattr__(self, "entanglement", e)


def direction_slots(attributes: tuple[AttributeSchema, ...]) -> tuple[tuple[str, str | None], ...]:
    """(attribute name, class name or None) for every ground-truth direction."""
    slots: list[tuple[str, str | None]] = []
    for attr in attributes:
        if attr.kind == MULTICLASS:
            slots.extend((attr.name, c) for c in attr.classes)
        else:
            slots.append((attr.name, None))
    return tuple(slots)


@dataclass(frozen=True)
class SyntheticWorld:
    """Built world: realized ground-truth directions, intercepts, and layout."""

    config: WorldConfig
    directions: np.ndarray  # (n_slots, dim), unit rows
    intercepts: np.ndarray  # (n_slots,)
    slots: tuple[tuple[str, str | None], ...]

    def __post_init__(self):
        d = np.array(self.directions, dtype=np.float64, copy=True)
        c = np.array(self.intercepts, dtype=np.float64, copy=True)
        slots = tuple((str(a), None if k is None else str(k)) for a, k in self.slots)
        if d.shape != (len(slots), self.config.dim) or c.shape != (len(slots),):
            raise WorldConfigError("directions/intercepts do not match the slot layout")
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise WorldConfigError("ground-truth directions must be unit norm")
        d.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "intercepts", c)
        object.__setattr__(self, "slots", slots)

    @property
    def latent_dim(self) -> int:
        return self.config.dim

    def slot_index(self, name: str, class_name: str | None = None) -> int:
        try:
            return self.slots.index((name, class_name))
        except ValueError:
            raise KeyError(f"no ground-truth direction for {(name, class_name)!r}") from None

    def direction_for(self, name: str, class_name: str | None = None) -> np.ndarray:
        return self.directions[self.slot_index(name, class_name)]

    def realized_entanglement(self) -> np.ndarray:
        m = self.directions @ self.directions.T
        m.flags.writeable = False
        return m


def _check_pixels(p: np.ndarray) -> None:
    """Raises LayoutError unless every pixel lies in [0, 1]: min and max propagate NaN, which fails."""
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise LayoutError("pixel values must lie in [0, 1]")


@dataclass(frozen=True)
class SyntheticImage:
    """Horizontal strip of 8x8 blocks with pixel values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.array(self.pixels, dtype=np.float64, copy=True)
        if p.ndim != 2 or p.shape[0] != BLOCK_SIZE or p.shape[1] % BLOCK_SIZE != 0 or not p.size:
            raise LayoutError(f"pixels must be ({BLOCK_SIZE}, {BLOCK_SIZE}*blocks), got {p.shape}")
        _check_pixels(p)
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    @property
    def block_count(self) -> int:
        return self.pixels.shape[1] // BLOCK_SIZE

    def block(self, i: int) -> np.ndarray:
        if not (0 <= i < self.block_count):
            raise LayoutError(f"block index {i} out of range for {self.block_count} blocks")
        return self.pixels[:, i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE]

    def block_mean(self, i: int) -> float:
        return float(self.block(i).mean())


@dataclass(frozen=True)
class AttributeLabels:
    """Attribute readout: class name per discrete attribute, real per continuous."""

    discrete: Mapping[str, str] = field(default_factory=dict)
    continuous: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "discrete", dict(self.discrete))
        object.__setattr__(self, "continuous", dict(self.continuous))


def _orthonormal_basis(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic (count, dim) stack of orthonormal rows."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, count))
    q, r = np.linalg.qr(m)
    # fix QR sign ambiguity so the basis is unique
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def build_world(cfg: WorldConfig) -> SyntheticWorld:
    """Realize ground-truth directions with the configured pairwise cosines.

    The Cholesky factor of the entanglement matrix is applied to a seeded
    orthonormal basis, which reproduces the target Gram matrix exactly (up
    to roundoff); rows are then re-normalized. Deterministic given cfg.seed.
    """
    slots = direction_slots(cfg.attributes)
    k = len(slots)
    if k > cfg.dim:
        raise WorldConfigError(
            f"{k} ground-truth directions need dim >= {k}, got dim={cfg.dim}"
        )
    if cfg.entanglement is None:
        ent = np.eye(k)
    else:
        ent = np.asarray(cfg.entanglement, dtype=np.float64)
    if ent.shape != (k, k):
        raise WorldConfigError(
            f"entanglement matrix must be {k}x{k} (one row per direction), got {ent.shape}"
        )
    if np.abs(ent - ent.T).max() > 1e-9:
        raise WorldConfigError("entanglement matrix must be symmetric")
    if np.abs(np.diag(ent) - 1.0).max() > 1e-9:
        raise WorldConfigError("entanglement matrix must have a unit diagonal")
    eigs = np.linalg.eigvalsh(ent)
    if eigs[0] < -1e-9:
        raise WorldConfigError(
            f"entanglement matrix is not positive semi-definite: eigenvalue {eigs[0]:.6g}"
        )
    try:
        chol = np.linalg.cholesky(ent)
    except np.linalg.LinAlgError:
        # PSD but singular at the boundary; a hair of jitter makes it factorable
        chol = np.linalg.cholesky(ent + 1e-12 * np.eye(k))

    basis = _orthonormal_basis(cfg.dim, k, cfg.seed)
    directions = chol @ basis
    directions /= np.linalg.norm(directions, axis=1)[:, None]

    realized = directions @ directions.T
    if np.abs(realized - ent).max() > 1e-6:
        raise WorldConfigError(
            "realized direction cosines deviate from the configured entanglement "
            f"by {np.abs(realized - ent).max():.3g}"
        )

    intercepts = np.zeros(k)
    for i, (name, class_name) in enumerate(slots):
        attr = next(a for a in cfg.attributes if a.name == name)
        if attr.kind == CONTINUOUS and cfg.continuous_profile == PROFILE_LINEAR:
            # center the raw value on the range midpoint
            intercepts[i] = 0.5 * (attr.lo + attr.hi)

    return SyntheticWorld(cfg, directions, intercepts, slots)


def _block_means(world: SyntheticWorld, Z) -> np.ndarray:
    """(n, attributes): the value every pixel of each attribute block of `render_batch` holds,
    for latents checked by `_latent_rows`."""
    S = np.einsum("nd,sd->ns", Z, world.directions) + world.intercepts
    attrs = world.config.attributes
    means = np.empty((len(Z), len(attrs)))
    start = 0
    for i, attr in enumerate(attrs):
        stop = start + (len(attr.classes) if attr.kind == MULTICLASS else 1)  # its slots
        raw, start = S[:, start:stop], stop
        if attr.is_discrete:
            means[:, i] = decide(attr.kind, raw) / (len(attr.classes) - 1)
        elif world.config.continuous_profile == PROFILE_SIGMOID:
            with np.errstate(over="ignore"):  # exp(-raw) = inf reads as its limit, 0
                np.divide(1.0, np.exp(-raw[:, 0]) + 1.0, means[:, i])
        else:
            means[:, i] = (np.clip(raw[:, 0], attr.lo, attr.hi) - attr.lo) / (attr.hi - attr.lo)
    return means


def render_batch(world: SyntheticWorld, Z) -> np.ndarray:
    """Pixel strips (n, BLOCK_SIZE, BLOCK_SIZE * blocks) of (n, dim) latents.

    One einsum scores a row the same way alone or in a batch, so row i is
    the render of Z[i] alone. The texture block hashes each latent's bytes.
    """
    Z = _latent_rows(Z, world.latent_dim)
    means = _block_means(world, Z)
    pixels = np.empty((len(Z), BLOCK_SIZE, means.shape[1] + 1, BLOCK_SIZE))
    pixels[:, :, :-1, :] = means[:, None, :, None]
    digests = b"".join([hashlib.shake_256(z).digest(BLOCK_SIZE * BLOCK_SIZE) for z in Z])
    np.divide(np.frombuffer(digests, np.uint8).reshape(len(Z), BLOCK_SIZE, BLOCK_SIZE), 255.0,
              pixels[:, :, -1, :])
    return pixels.reshape(len(Z), BLOCK_SIZE, -1)


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier (high and low halves)
_SS_INIT_A, _SS_MULT_A, _SS_INIT_B, _SS_MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32 = 0xFFFFFFFF


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """(high, low) halves of (hi, lo) * multiplier + (inc_hi, inc_lo) modulo 2**128."""
    a0, a1, b0, b1 = lo & _M32, lo >> 32, _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    cross = (a0 * b0 >> 32) + (a1 * b0 & _M32) + (a0 * b1 & _M32)
    carry = a1 * b1 + (a1 * b0 >> 32) + (a0 * b1 >> 32) + (cross >> 32)  # high half of lo * b
    new_lo = lo * _PCG_MULT_LO + inc_lo
    return carry + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_raw(seeds: np.ndarray, m: int) -> np.ndarray:
    """(n, m): np.random.PCG64(seed).random_raw(m) for each of n uint64 seeds, in array operations.

    SeedSequence(seed) hashes the seed's two 32-bit words, zero-padded to its
    pool of four; it mixes the pool and draws eight words from it. PCG64
    seeds its 128-bit LCG from those. Each output is the high ^ low half of
    the LCG's next state, rotated right by the state's top six bits. uint32
    and uint64 arrays wrap as the C code does.
    """
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _SS_MULT_A & _M32
        value = value * hash_const
        return value ^ value >> 16

    zero = np.zeros(len(seeds), np.uint32)
    pool = [hashmix(word) for word in ((seeds & _M32).astype(np.uint32),
                                       (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    state, hash_const = [], _SS_INIT_B
    for i in range(8):  # generate_state(4, np.uint64): little-endian pairs of 32-bit words
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _SS_MULT_B & _M32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _lcg_step(np.zeros_like(inc_hi), np.zeros_like(inc_lo), inc_hi, inc_lo)
    lo = lo + init_lo
    hi, lo = _lcg_step(hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    raw = np.empty((len(seeds), m), np.uint64)
    for j in range(m):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        raw[:, j] = x >> rot | x << ((64 - rot) & 63)
    return raw


def read_batch(world: SyntheticWorld, pixels, noise_seeds,
               label_noise: float | None = None) -> dict[str, np.ndarray]:
    """Per attribute, the class index or the value each of n pixel strips shows.

    With probability p each discrete label of image i, drawn in attribute
    order from default_rng(noise_seeds[i]), is flipped or resampled among the
    other classes. label_noise overrides the world's p (0.0 reads noiselessly).
    The texture block is never read.
    """
    attrs = world.config.attributes
    pixels = np.asarray(pixels, dtype=np.float64)
    n = len(pixels)
    if pixels.shape[1:] != (BLOCK_SIZE, BLOCK_SIZE * (len(attrs) + 1)):
        raise LayoutError(f"images of shape {pixels.shape[1:]} do not hold {len(attrs) + 1} blocks")
    _check_pixels(pixels)
    # each block's pixels copied together, so its mean rounds the same in any batch
    blocks = pixels.reshape(n, BLOCK_SIZE, -1, BLOCK_SIZE)[:, :, :-1].transpose(0, 2, 1, 3)
    return _read_means(world, blocks.reshape(n, len(attrs), -1).mean(axis=2), noise_seeds,
                       label_noise)


def _read_means(world: SyntheticWorld, means: np.ndarray, noise_seeds,
                label_noise: float | None) -> dict[str, np.ndarray]:
    """`read_batch` of images whose attribute blocks have the (n, attributes) means."""
    attrs = world.config.attributes
    n = len(means)
    if len(noise_seeds) != n:
        raise ValueError(f"{len(noise_seeds)} noise seeds for {n} images")
    # every block is read both ways, and each attribute keeps the reading of its kind
    lo, hi, k = np.array([(a.lo, a.hi, len(a.classes) - 1) for a in attrs]).T
    index = np.clip(np.rint(means * k), 0, k).astype(np.intp)
    values = lo + means * (hi - lo)
    labels = {a.name: index[:, i] if a.is_discrete else values[:, i] for i, a in enumerate(attrs)}
    p = world.config.label_noise if label_noise is None else float(label_noise)
    if p <= 0.0:
        return labels
    # per discrete attribute: its label column and how many other classes a resample draws from
    noisy = [(labels[a.name], len(a.classes) - 1 if a.kind == MULTICLASS else 0)
             for a in attrs if a.is_discrete]
    rows = range(n)
    seeds = np.asarray(noise_seeds)
    if seeds.dtype.kind in "iu" and (seeds >= 0).all():
        # default_rng(seed).random() is (next_uint64 >> 11) * 2**-53, below p exactly when
        # next_uint64 >> 11 < p * 2**53, so an image's draws are its raw PCG64 outputs, one per
        # discrete attribute, until a multiclass label resamples: integers() then draws buffered
        # 32-bit halves, so only the rows with a multiclass flip are replayed
        flips = _pcg64_raw(seeds.astype(np.uint64), len(noisy)) >> 11 < p * 2.0**53
        resampled = flips @ np.array([others > 0 for _, others in noisy], dtype=bool)
        for (column, others), flip in zip(noisy, flips.T):
            if not others:
                column ^= flip & ~resampled  # a binary label is 0 or 1
        rows = np.flatnonzero(resampled).tolist()
    for row in rows:
        rng = np.random.default_rng(noise_seeds[row])
        for column, others in noisy:
            if rng.random() < p:
                other = int(rng.integers(others)) if others else 0
                column[row] = other + (other >= column[row])
    return labels


def _label_latents(world: SyntheticWorld, Z: np.ndarray, noise_seeds,
                   label_noise: float | None = None) -> dict[str, np.ndarray]:
    """read_batch(world, render_batch(world, Z), noise_seeds, label_noise), building no strips.

    Each block's mean is taken over a broadcast view of 64 copies of its
    value, which rounds as read_batch's mean of the rendered block does.
    """
    means = _block_means(world, _latent_rows(Z, world.latent_dim))
    reads = np.broadcast_to(means[..., None], (*means.shape, BLOCK_SIZE * BLOCK_SIZE)).mean(axis=2)
    return _read_means(world, reads, noise_seeds, label_noise)


def generate_image(world: SyntheticWorld, z) -> SyntheticImage:
    """Render one latent: `render_batch` on a batch of one."""
    return SyntheticImage(render_batch(world, as_latent(z, world.latent_dim)[None])[0])


def oracle_label(world: SyntheticWorld, image: SyntheticImage, noise_seed: int,
                 label_noise: float | None = None) -> AttributeLabels:
    """Read one image: `read_batch` on a batch of one."""
    labels = read_batch(world, image.pixels[None], [noise_seed], label_noise)
    attrs = world.config.attributes
    return AttributeLabels({a.name: a.classes[labels[a.name][0]] for a in attrs if a.is_discrete},
                           {a.name: float(labels[a.name][0]) for a in attrs if not a.is_discrete})
