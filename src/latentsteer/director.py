"""Single-step conditioning of latent vectors.

Given a batch of latent vectors, desired attribute values per row, and a
bundle of fitted latent models, `condition_batch` computes one combined
update per row that moves it into the desired attribute subspaces:

  * each mismatched binary attribute contributes a move along its
    hyperplane's unit normal that crosses the boundary and lands a margin
    `delta_margin` past it on the desired side;
  * each mismatched multiclass attribute contributes moves across pairwise
    class-difference hyperplanes toward the desired class, redirecting up to
    MULTICLASS_MAX_REDIRECTS times when a third class captures the argmax;
  * each continuous attribute with a target contributes a move along the
    regression slope sized so the predicted value lands exactly on the
    target (in calibrated mode).

All contributions are summed and applied once. The "paper_literal" modes
preserve the uncorrected update formulas (negated crossing step, move length
not divided by the slope norm) so their failure to condition can be
measured against the corrected defaults.

`condition_batch` is the only steering code: it works on the bundle's
models stacked into one affine map (`ModelBundle.weights`, `.intercepts`).
`condition` steers a batch of one and reports it in detail, and
`latent_labels` is the same label readout on one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConditioningError, DegenerateModelError
from .geometry import _latent_rows, _unit_norm, as_latent
from .models import BINARY, CONTINUOUS, MULTICLASS, AttributeSchema, ModelBundle, decide
from .world import AttributeLabels

__all__ = [
    "SIGN_CORRECTED",
    "SIGN_PAPER_LITERAL",
    "CAL_CALIBRATED",
    "CAL_PAPER_LITERAL",
    "MULTICLASS_MAX_REDIRECTS",
    "ConditioningSpec",
    "ChooseVector",
    "DirectorConfig",
    "UpdateReport",
    "BatchUpdate",
    "latent_labels",
    "condition",
    "condition_batch",
]

SIGN_CORRECTED = "corrected"
SIGN_PAPER_LITERAL = "paper_literal"
CAL_CALIBRATED = "calibrated"
CAL_PAPER_LITERAL = "paper_literal"

MULTICLASS_MAX_REDIRECTS = 3  # redirect rounds a multiclass move may take


@dataclass(frozen=True)
class ConditioningSpec:
    """Desired attribute values; attributes absent from both maps are left alone."""

    discrete: Mapping[str, str] = field(default_factory=dict)
    continuous: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "discrete", {str(k): str(v) for k, v in self.discrete.items()})
        object.__setattr__(self, "continuous", {str(k): float(v) for k, v in self.continuous.items()})
        overlap = set(self.discrete) & set(self.continuous)
        if overlap:
            raise ConditioningError(f"attributes targeted as both discrete and continuous: {sorted(overlap)}")


@dataclass(frozen=True)
class ChooseVector:
    """Indicator per discrete attribute: 1 where a specified target mismatches."""

    names: tuple[str, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        names = tuple(self.names)
        bits = tuple(int(b) for b in self.bits)
        if len(names) != len(bits):
            raise ValueError("names and bits must have equal length")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "bits", bits)

    @property
    def any_set(self) -> bool:
        return any(self.bits)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.names, self.bits))


@dataclass(frozen=True)
class DirectorConfig:
    """Knobs of the conditioning step.

    delta_margin is the overshoot past a crossed hyperplane, in
    signed-distance units. sign_convention selects the corrected crossing
    update or the literal (non-crossing) one for binary attributes.
    continuous_calibration selects whether continuous moves are divided by
    the slope norm (exact target landing) or used raw.
    """

    delta_margin: float = 0.5
    sign_convention: str = SIGN_CORRECTED
    continuous_calibration: str = CAL_CALIBRATED

    def __post_init__(self):
        if not (self.delta_margin > 0 and np.isfinite(self.delta_margin)):
            raise ValueError(f"delta_margin must be positive, got {self.delta_margin}")
        if self.sign_convention not in (SIGN_CORRECTED, SIGN_PAPER_LITERAL):
            raise ValueError(f"unknown sign_convention {self.sign_convention!r}")
        if self.continuous_calibration not in (CAL_CALIBRATED, CAL_PAPER_LITERAL):
            raise ValueError(f"unknown continuous_calibration {self.continuous_calibration!r}")


@dataclass(frozen=True)
class UpdateReport:
    """Everything about one conditioning step, before and after."""

    z: np.ndarray
    z_prime: np.ndarray
    labels_before: AttributeLabels
    labels_after: AttributeLabels
    choose: ChooseVector
    deltas: Mapping[str, float]
    distances_before: Mapping[str, float]
    distances_after: Mapping[str, float]
    multiclass_moves: Mapping[str, int]
    config: DirectorConfig

    def __post_init__(self):
        object.__setattr__(self, "deltas", dict(self.deltas))
        object.__setattr__(self, "distances_before", dict(self.distances_before))
        object.__setattr__(self, "distances_after", dict(self.distances_after))
        object.__setattr__(self, "multiclass_moves", dict(self.multiclass_moves))

    @property
    def moved(self) -> bool:
        return not np.array_equal(self.z, self.z_prime)


@dataclass(frozen=True)
class BatchUpdate:
    """One conditioning step over a batch: row i of each array belongs to Z[i] and specs[i].

    A row that received no update is a bit-exact copy of its input.
    `satisfied` is computed on first use; `condition` never needs it.
    """

    bundle: ModelBundle
    targets: tuple[np.ndarray, ...]             # per block: class index (-1: unset) or value (NaN: unset)
    z_prime: np.ndarray                         # (n, dim)
    moved: np.ndarray                           # (n,) the row received an update
    scores_before: np.ndarray                   # (n, R) stacked affine scores at Z
    scores_after: np.ndarray                    # (n, R) the same at z_prime
    mismatch: Mapping[str, np.ndarray]          # discrete attribute -> (n,) target set and unmet
    multiclass_moves: Mapping[str, np.ndarray]  # multiclass attribute -> (n,) redirects made

    @cached_property
    def satisfied(self) -> np.ndarray:
        """(n,) every target met at z_prime: the class, or the value within 1e-9."""
        met = np.ones(len(self.z_prime), dtype=bool)
        for (_, kind, _, _), target, after in zip(self.bundle.blocks, self.targets,
                                                  _readout(self.bundle, self.scores_after)):
            if kind == CONTINUOUS:
                met &= np.isnan(target) | (np.abs(after - target) <= 1e-9)
            else:
                met &= (target < 0) | (after == target)
        return met


def _dim(bundle: ModelBundle) -> int | None:
    """The latent dim a bundle steers, or None (any dim) for an empty bundle."""
    return bundle.latent_dim if bundle.models else None


def _scores(bundle: ModelBundle, Z: np.ndarray) -> np.ndarray:
    # einsum rather than Z @ W.T: BLAS rounds a row differently depending on
    # how many rows share the call, while einsum rounds it the same way alone
    # or in a batch, so condition(z) equals its row of condition_batch
    if not bundle.blocks:
        return np.zeros((len(Z), 0))
    return np.einsum("nd,rd->nr", Z, bundle.weights) + bundle.intercepts


def _readout(bundle: ModelBundle, S: np.ndarray) -> list[np.ndarray]:
    """Per block, each row of scores read: its class index by `decide`, or its value."""
    return [S[:, rows.start] if kind == CONTINUOUS else decide(kind, S[:, rows])
            for _, kind, rows, _ in bundle.blocks]


def _labels(bundle: ModelBundle, readout: list[np.ndarray], n: int) -> list[AttributeLabels]:
    """The AttributeLabels of each of the n rows of a `_readout`."""
    read = list(zip(bundle.blocks, readout))
    return [AttributeLabels(
        {name: classes[v[i]] for (name, kind, _, classes), v in read if kind != CONTINUOUS},
        {name: float(v[i]) for (name, kind, _, _), v in read if kind == CONTINUOUS})
        for i in range(n)]


def latent_labels(bundle: ModelBundle, z) -> AttributeLabels:
    """Predicted class per discrete attribute and value per continuous one."""
    S = _scores(bundle, as_latent(z, _dim(bundle))[None, :])
    return _labels(bundle, _readout(bundle, S), 1)[0]


def _validate_spec(spec: ConditioningSpec, schema: tuple[AttributeSchema, ...]) -> None:
    by_name = {a.name: a for a in schema}
    for name, cls in spec.discrete.items():
        attr = by_name.get(name)
        if attr is None:
            raise ConditioningError(
                f"unknown attribute {name!r}; legal attributes: {sorted(by_name)}"
            )
        if not attr.is_discrete:
            raise ConditioningError(f"attribute {name!r} is continuous; give it a numeric target")
        if cls not in attr.classes:
            raise ConditioningError(
                f"unknown class {cls!r} for attribute {name!r}; legal classes: {list(attr.classes)}"
            )
    for name, value in spec.continuous.items():
        attr = by_name.get(name)
        if attr is None:
            raise ConditioningError(
                f"unknown attribute {name!r}; legal attributes: {sorted(by_name)}"
            )
        if attr.is_discrete:
            raise ConditioningError(
                f"attribute {name!r} is discrete; legal classes: {list(attr.classes)}"
            )
        if not (attr.lo <= value <= attr.hi):
            raise ConditioningError(
                f"target {value} for attribute {name!r} outside its range [{attr.lo}, {attr.hi}]"
            )


def _overflow(cfg: DirectorConfig) -> DegenerateModelError:
    return DegenerateModelError(f"the step overflows: a stepped latent or its scores are not "
                                f"finite (delta_margin={cfg.delta_margin})")


def _pair_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row a * k + c of each, for k class rows: the (a, c) boundary's normal, unit normal and norm."""
    pairs = (weights[:, None, :] - weights[None, :, :]).reshape(-1, weights.shape[1])
    return (pairs, *_unit_norm(pairs))


def _redirect(Z: np.ndarray, desired: np.ndarray, weights: np.ndarray, intercepts: np.ndarray,
              classes: tuple[str, ...], cfg: DirectorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Multiclass move of each row toward its desired class index, and its redirect count.

    Each round takes every row whose argmax is not yet the desired class
    across the (desired, current) pairwise boundary, delta_margin past it,
    in either sign_convention; at most MULTICLASS_MAX_REDIRECTS rounds.
    Raises the step's overflow error in the round a moved row stops being
    finite; it runs under `_condition_rows`' errstate, which keeps that silent.
    """
    z_work = Z.copy()
    count = np.zeros(len(Z), dtype=np.intp)
    active = np.arange(len(Z))
    pairs, units, norms = _pair_table(weights)
    for _ in range(MULTICLASS_MAX_REDIRECTS):
        current = decide(MULTICLASS, np.einsum("nd,kd->nk", z_work[active], weights) + intercepts)
        keep = current != desired[active]
        active, current = active[keep], current[keep]
        if not active.size:
            break
        want = desired[active]
        pair = want * len(weights) + current
        norm = norms[pair]
        if not norm.all():
            i = int(np.argmin(norm))
            raise DegenerateModelError(
                f"classes {classes[want[i]]!r} and {classes[current[i]]!r} share identical weights"
            )
        s = -(np.einsum("nd,nd->n", pairs[pair], z_work[active])
              + (intercepts[want] - intercepts[current])) / norm
        stepped = z_work[active] + (s + cfg.delta_margin)[:, None] * units[pair]
        if not np.isfinite(stepped).all():
            raise _overflow(cfg)
        z_work[active] = stepped
        count[active] += 1
    return z_work - Z, count


def condition_batch(Z, specs: Sequence[ConditioningSpec], bundle: ModelBundle,
                    cfg: DirectorConfig = DirectorConfig()) -> BatchUpdate:
    """Apply one combined conditioning step to every row of Z, row i toward specs[i].

    Reads each row's labels once and selects its mismatched discrete
    attributes. Each selected binary attribute and each continuous target
    sizes a step along its unit row; the steps are summed as one
    combination of those rows, the multiclass redirect moves are added, and
    the sum is applied once. Unspecified attributes never contribute, and
    every row is steered as it would be alone.
    """
    Z = _latent_rows(Z, _dim(bundle))
    if len(specs) != len(Z):
        raise ValueError(f"{len(Z)} latents but {len(specs)} conditioning specs")
    for spec in specs:
        _validate_spec(spec, bundle.schema)
    targets = [np.array([sp.continuous.get(name, np.nan) for sp in specs]) if kind == CONTINUOUS
               else np.array([classes.index(sp.discrete[name]) if name in sp.discrete else -1
                              for sp in specs], dtype=np.intp)
               for name, kind, _, classes in bundle.blocks]
    return _condition_rows(bundle, Z, tuple(targets), cfg)


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows raises, with no warning
def _condition_rows(bundle: ModelBundle, Z: np.ndarray, targets: tuple[np.ndarray, ...],
                    cfg: DirectorConfig) -> BatchUpdate:
    """`condition_batch` on checked latents and per-block targets, as `BatchUpdate.targets` holds them.

    Raises DegenerateModelError where a stepped row or its scores are not finite.
    """
    n = len(Z)
    S = _scores(bundle, Z)
    coef = np.zeros_like(S)       # step length along each unit row
    redirects = np.zeros_like(Z)  # summed multiclass moves
    moved = np.zeros(n, dtype=bool)
    mismatch: dict[str, np.ndarray] = {}
    mc_moves: dict[str, np.ndarray] = {}
    readout = _readout(bundle, S)
    for (name, kind, rows, classes), target, now in zip(bundle.blocks, targets, readout):
        # `go`: the rows the attribute moves
        r = rows.start
        if kind == CONTINUOUS:
            go = ~np.isnan(target)
        else:
            go = mismatch[name] = (target >= 0) & (target != now)
        if kind == BINARY and bundle.norms[r] == 0.0:
            raise DegenerateModelError("hyperplane direction has zero norm")
        if kind == MULTICLASS:
            mc_moves[name] = np.zeros(n, dtype=np.intp)
        if not go.any():
            continue

        if kind == CONTINUOUS:
            if bundle.norms[r] == 0.0:
                raise DegenerateModelError(f"regressor for attribute {name!r} has a zero slope")
            delta = target - S[:, r]
            go &= delta != 0.0
            calibrated = cfg.continuous_calibration == CAL_CALIBRATED
            coef[go, r] = delta[go] / bundle.norms[r] if calibrated else delta[go]
        elif kind == BINARY:
            s = -S[go, r] / bundle.norms[r]  # signed distance, negative on the positive side
            if cfg.sign_convention == SIGN_PAPER_LITERAL:
                coef[go, r] = -(s + cfg.delta_margin)
            else:
                # crossing step: land delta_margin past the boundary on the
                # desired side. sigma equals sign(s) except exactly on the
                # boundary, where the desired side disambiguates.
                coef[go, r] = s + np.where(target[go] == 1, 1.0, -1.0) * cfg.delta_margin
        else:
            picked = np.flatnonzero(go)
            move, mc_moves[name][picked] = _redirect(
                Z[picked], target[picked], bundle.weights[rows], bundle.intercepts[rows], classes, cfg)
            redirects[picked] += move
            go = mc_moves[name] > 0
        moved |= go

    Z_prime = Z.copy()
    if moved.any():
        # only moved rows get an update: adding a zero update would turn -0.0 into 0.0
        Z_prime[moved] += np.einsum("nr,rd->nd", coef[moved], bundle.units) + redirects[moved]
    S_prime = _scores(bundle, Z_prime)
    if not (np.isfinite(Z_prime).all() and np.isfinite(S_prime).all()):
        raise _overflow(cfg)
    return BatchUpdate(bundle, targets, Z_prime, moved, S, S_prime, mismatch, mc_moves)


def condition(z, spec: ConditioningSpec, bundle: ModelBundle,
              cfg: DirectorConfig = DirectorConfig()) -> UpdateReport:
    """Apply one combined conditioning step to z: `condition_batch` on a batch of one.

    Returns a report with labels, signed distances, and continuous deltas
    before and after. When nothing moves, z_prime is z itself.
    """
    z = as_latent(z, _dim(bundle))
    batch = condition_batch(z[None, :], [spec], bundle, cfg)
    z_prime = z  # bit-exact no-op unless the row moved
    if batch.moved[0]:
        z_prime = batch.z_prime[0]
        z_prime.flags.writeable = False

    S = np.concatenate([batch.scores_before, batch.scores_after])
    readout = _readout(bundle, S)
    before, after = _labels(bundle, readout, 2)
    chosen = {name: bool(mask[0]) for name, mask in batch.mismatch.items()}
    dist_before: dict[str, float] = {}
    dist_after: dict[str, float] = {}
    # a distance beyond the float range reads +-inf, silently, as _unit_norm's norm does
    with np.errstate(over="ignore"):
        for (name, kind, rows, _), target, now in zip(bundle.blocks, batch.targets, readout):
            if kind == BINARY:
                s = S[:, rows.start] / bundle.norms[rows.start]
            elif kind == MULTICLASS and chosen[name]:
                # the first redirect's boundary: the desired class against the class before
                hi, lo = rows.start + target[0], rows.start + now[0]
                m, e_norm = np.frexp(_unit_norm(bundle.weights[hi] - bundle.weights[lo])[1])
                # (S[hi] - S[lo]) / norm, bit for bit wherever it fits a float: the scores and
                # the norm are first brought near 1 by powers of two, which is exact, so their
                # difference cannot overflow; only the last scaling can, past the float range
                e = np.frexp(np.maximum(abs(S[:, hi]), abs(S[:, lo])))[1]
                s = np.ldexp((np.ldexp(S[:, hi], -e) - np.ldexp(S[:, lo], -e)) / m, e - e_norm)
            else:
                continue
            dist_before[name], dist_after[name] = (-s).tolist()

    return UpdateReport(
        z=z,
        z_prime=z_prime,
        labels_before=before,
        labels_after=after,
        choose=ChooseVector(tuple(chosen), tuple(chosen.values())),
        deltas={name: v - before.continuous[name] for name, v in spec.continuous.items()},
        distances_before=dist_before,
        distances_after=dist_after,
        multiclass_moves={name: int(c[0]) for name, c in batch.multiclass_moves.items()
                          if chosen[name]},
        config=cfg,
    )
