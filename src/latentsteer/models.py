"""Linear attribute models over latent vectors.

Binary attributes get a logistic classifier, multi-valued attributes a single
softmax classifier, continuous attributes a ridge regression line. Both
classifiers are fitted by one damped Newton (IRLS) routine over the softmax
objective, a binary attribute being its two-class case; it starts from zero
and stops once max |grad| <= GRAD_TOL. All training is full batch and
bit-deterministic for a given config: the only randomness is the train/test
split permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    BundleIncompleteError,
    DimensionMismatchError,
    DivergenceError,
    UnlearnableAttributeError,
)
from .geometry import Hyperplane

__all__ = [
    "AttributeSchema",
    "TrainingConfig",
    "TrainingMeta",
    "BinaryLatentClassifier",
    "MultiClassLatentClassifier",
    "LatentRegressor",
    "ModelBundle",
    "CompiledBundle",
    "BundleProvenance",
    "LatentModel",
    "fit_binary",
    "fit_multiclass",
    "fit_regressor",
    "logistic_loss_and_grad",
    "softmax_loss_and_grad",
]

BINARY = "binary"
MULTICLASS = "multiclass"
CONTINUOUS = "continuous"

GRAD_TOL = 1e-8  # a classifier fit stops once max |grad| falls to this


@dataclass(frozen=True)
class AttributeSchema:
    """Declares one attribute: its name, kind, and legal values.

    Discrete kinds carry class names; continuous carries an inclusive value
    range (lo, hi).
    """

    name: str
    kind: str
    classes: tuple[str, ...] = ()
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.kind not in (BINARY, MULTICLASS, CONTINUOUS):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.kind == BINARY and len(self.classes) != 2:
            raise ValueError(f"binary attribute {self.name!r} needs exactly 2 classes")
        if self.kind == MULTICLASS and len(self.classes) < 3:
            raise ValueError(f"multiclass attribute {self.name!r} needs at least 3 classes")
        if self.kind in (BINARY, MULTICLASS):
            if len(set(self.classes)) != len(self.classes):
                raise ValueError(f"attribute {self.name!r} has duplicate class names")
        else:
            lo, hi = float(self.lo), float(self.hi)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"continuous attribute {self.name!r} needs lo < hi")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    @classmethod
    def binary(cls, name: str, negative: str, positive: str) -> "AttributeSchema":
        return cls(name, BINARY, (negative, positive))

    @classmethod
    def multiclass(cls, name: str, classes: Sequence[str]) -> "AttributeSchema":
        return cls(name, MULTICLASS, tuple(classes))

    @classmethod
    def continuous(cls, name: str, lo: float, hi: float) -> "AttributeSchema":
        return cls(name, CONTINUOUS, (), lo, hi)

    @property
    def is_discrete(self) -> bool:
        return self.kind in (BINARY, MULTICLASS)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for fitting latent-attribute models.

    epochs caps the Newton iterations of a classifier fit; a fit stops
    earlier once it has converged. learning_rate is accepted for older
    callers and ignored: the Newton fit takes no step size.
    """

    learning_rate: float = 0.1
    epochs: int = 500
    l2_penalty: float = 1e-4
    split_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")
        if not (0.0 < self.split_fraction < 1.0):
            raise ValueError("split_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class TrainingMeta:
    """Fit record: Newton iterations, final loss and max |grad|, held-out metric.

    A classifier fit converged when grad_norm <= GRAD_TOL; grad_norm is NaN
    for a regressor, which has no iterative fit.
    """

    epochs_run: int = 0
    final_loss: float = float("nan")
    test_accuracy: float | None = None
    test_rmse: float | None = None
    grad_norm: float = float("nan")


@dataclass(frozen=True)
class BinaryLatentClassifier:
    """sign(direction . z + intercept) mapped to {negative_class, positive_class}.

    A score of exactly zero classifies as the positive class.
    """

    hyperplane: Hyperplane
    positive_class: str
    negative_class: str
    training_meta: TrainingMeta = TrainingMeta()

    @property
    def dim(self) -> int:
        return self.hyperplane.dim

    def predict(self, z) -> str:
        return self.positive_class if self.hyperplane.score(z) >= 0.0 else self.negative_class


@dataclass(frozen=True)
class MultiClassLatentClassifier:
    """argmax over per-class affine scores; ties break to the lowest class index."""

    class_weights: np.ndarray
    class_intercepts: np.ndarray
    class_names: tuple[str, ...]
    training_meta: TrainingMeta = TrainingMeta()

    def __post_init__(self):
        w = np.array(self.class_weights, dtype=np.float64, copy=True)
        b = np.array(self.class_intercepts, dtype=np.float64, copy=True)
        names = tuple(self.class_names)
        if w.ndim != 2 or w.shape[0] != len(names) or b.shape != (len(names),):
            raise ValueError("class_weights must be (k, dim) with k intercepts and k names")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "class_weights", w)
        object.__setattr__(self, "class_intercepts", b)
        object.__setattr__(self, "class_names", names)

    @property
    def dim(self) -> int:
        return self.class_weights.shape[1]

    def scores(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, z.size, what="latent vector")
        return self.class_weights @ z + self.class_intercepts

    def predict(self, z) -> str:
        return self.class_names[int(np.argmax(self.scores(z)))]

    def one_vs_rest_direction(self, class_name: str) -> np.ndarray:
        """Weights of one class contrasted against the mean of the others."""
        j = self.class_names.index(class_name)
        others = [i for i in range(len(self.class_names)) if i != j]
        d = self.class_weights[j] - self.class_weights[others].mean(axis=0)
        d.flags.writeable = False
        return d


@dataclass(frozen=True)
class LatentRegressor:
    """Regression line: predict(z) = direction . z + intercept."""

    line: Hyperplane
    training_meta: TrainingMeta = TrainingMeta()

    @property
    def dim(self) -> int:
        return self.line.dim

    def predict(self, z) -> float:
        return self.line.score(z)


LatentModel = Union[BinaryLatentClassifier, MultiClassLatentClassifier, LatentRegressor]


# --------------------------------------------------------------------------
# losses and gradients (analytic, checked against finite differences in tests)
# --------------------------------------------------------------------------

def logistic_loss_and_grad(w: np.ndarray, b: float, X: np.ndarray, t: np.ndarray,
                           l2: float) -> tuple[float, np.ndarray, float]:
    """Mean L2-regularized logistic loss and its gradient.

    t holds 0/1 targets; the intercept is not penalized. This is the
    two-class softmax loss with rows -w/2 and +w/2 and twice the penalty.
    """
    loss, gW, gb = softmax_loss_and_grad(np.stack([-w, w]) / 2, np.array([-b, b]) / 2, X,
                                         np.stack([1.0 - t, t], axis=1), 2.0 * l2)
    return loss, (gW[1] - gW[0]) / 2, float(gb[1] - gb[0]) / 2


def softmax_loss_and_grad(W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray,
                          l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean L2-regularized softmax cross-entropy and its gradient.

    Y is one-hot (n, k); intercepts are not penalized.
    """
    logits = X @ W.T + b
    logits -= logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=1))
    loss = float(np.mean(logz - (logits * Y).sum(axis=1)))
    loss += 0.5 * l2 * float((W * W).sum())
    P = np.exp(logits - logz[:, None])
    resid = P - Y
    grad_W = resid.T @ X / X.shape[0] + l2 * W
    grad_b = resid.mean(axis=0)
    return loss, grad_W, grad_b


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _as_matrix(latents) -> np.ndarray:
    X = np.asarray(latents, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"latents must be a (n, dim) array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("latents contain NaN or Inf entries")
    return X


def _split(n: int, cfg: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    n_train = int(np.floor(n * cfg.split_fraction))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(cfg.seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def _newton(X: np.ndarray, Y: np.ndarray, l2: float, max_iter: int):
    """Minimize softmax_loss_and_grad over (W, b) by damped Newton steps from zero.

    Each step solves H step = -grad by least squares, so it never moves along
    the directions the loss is flat in (a shared intercept shift, and at
    l2 = 0 a shared weight shift), and is halved until the Armijo condition
    holds. Stops once max |grad| <= GRAD_TOL, after max_iter steps, or when
    no halving lowers the loss. Returns W, b, loss, max |grad| and steps.
    """
    (n, d), k = X.shape, Y.shape[1]
    W, b = np.zeros((k, d)), np.zeros(k)
    loss, gW, gb = softmax_loss_and_grad(W, b, X, Y, l2)
    steps = 0
    while True:
        g = np.hstack([gW, gb[:, None]]).ravel()  # per class: d weights, then the intercept
        if steps == max_iter or np.abs(g).max() <= GRAD_TOL:
            break
        logits = X @ W.T + b
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        H = np.empty((k, d + 1, k, d + 1))
        for a in range(k):
            for c in range(a, k):
                s = P[:, a] * (float(a == c) - P[:, c]) / n
                # one (n, d) temporary at a time: it is freed before the next is made
                H[a, :d, c, :d] = X.T @ (X * s[:, None]) + (l2 * np.eye(d) if a == c else 0.0)
                H[a, :d, c, d] = H[a, d, c, :d] = s @ X
                H[a, d, c, d] = s.sum()
                H[c, :, a, :] = H[a, :, c, :].T
        H = H.reshape(k * (d + 1), k * (d + 1))
        if not (np.isfinite(H).all() and np.isfinite(g).all()):
            raise DivergenceError(steps, "non-finite gradient or Hessian")
        step = np.linalg.lstsq(H, -g, rcond=None)[0].reshape(k, d + 1)
        t = 1.0
        while t > 1e-12:
            trial = softmax_loss_and_grad(W + t * step[:, :d], b + t * step[:, d], X, Y, l2)
            if trial[0] <= loss + 1e-4 * t * float(g @ step.ravel()):
                break
            t /= 2
        else:
            break
        W, b = W + t * step[:, :d], b + t * step[:, d]
        loss, gW, gb = trial
        steps += 1
    return W, b, loss, float(np.abs(g).max()), steps


def _fit_classes(latents, labels: list[str], names: tuple[str, ...], cfg: TrainingConfig,
                 l2: float):
    """Checks, split and Newton fit shared by both classifiers.

    Returns W, b, the test fold's latents and class indices, and the fit
    record, whose test_accuracy the caller fills in with its decision rule.
    """
    X = _as_matrix(latents)
    if len(labels) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} latents but {len(labels)} labels")
    unknown = sorted(set(labels) - set(names))
    if unknown:
        raise UnlearnableAttributeError(f"labels outside the class set: {unknown}")
    missing = [c for c in names if labels.count(c) < 2]
    if missing:
        raise UnlearnableAttributeError(f"classes with fewer than 2 samples: {missing}")
    index = {c: i for i, c in enumerate(names)}
    y = np.array([index[label] for label in labels])
    tr, te = _split(X.shape[0], cfg)
    W, b, loss, grad_norm, steps = _newton(X[tr], np.eye(len(names))[y[tr]], l2, cfg.epochs)
    meta = TrainingMeta(epochs_run=steps, final_loss=loss, grad_norm=grad_norm)
    return W, b, X[te], y[te], meta


def fit_binary(latents, labels: Sequence[str], cfg: TrainingConfig = TrainingConfig(),
               positive_class: str | None = None) -> BinaryLatentClassifier:
    """Fit a binary logistic classifier over (n, dim) latents and n labels of two classes.

    positive_class maps to the positive score side (default: the larger of
    the two labels). This is the two-class softmax fit with twice the L2
    penalty: its rows come out as -w/2 and +w/2, whose penalty equals the
    logistic one on w = their difference. Held-out accuracy and convergence
    are recorded in training_meta.
    """
    labels = list(labels)
    present = sorted(set(labels))
    if len(present) != 2:
        raise UnlearnableAttributeError(f"binary fit needs exactly 2 classes, got {present}")
    if positive_class is not None and positive_class not in present:
        raise UnlearnableAttributeError(
            f"positive class {positive_class!r} absent from labels {present}")
    positive = present[1] if positive_class is None else positive_class
    negative = present[0] if present[1] == positive else present[1]
    W, b, Xte, yte, meta = _fit_classes(latents, labels, (negative, positive), cfg,
                                        2.0 * cfg.l2_penalty)
    h = Hyperplane(W[1] - W[0], float(b[1] - b[0]))
    accuracy = float(np.mean((Xte @ h.direction + h.intercept >= 0.0) == (yte == 1)))
    return BinaryLatentClassifier(h, positive, negative, replace(meta, test_accuracy=accuracy))


def fit_multiclass(latents, labels: Sequence[str], cfg: TrainingConfig = TrainingConfig(),
                   class_names: Sequence[str] | None = None) -> MultiClassLatentClassifier:
    """Fit one softmax classifier over k classes by damped Newton steps.

    class_names fixes the class order (default: sorted unique labels); every
    named class must appear at least twice in the labels.
    """
    labels = list(labels)
    names = tuple(class_names) if class_names is not None else tuple(sorted(set(labels)))
    if len(names) < 2:
        raise UnlearnableAttributeError(f"need at least 2 classes, got {list(names)}")
    W, b, Xte, yte, meta = _fit_classes(latents, labels, names, cfg, cfg.l2_penalty)
    accuracy = float(np.mean(np.argmax(Xte @ W.T + b, axis=1) == yte))
    return MultiClassLatentClassifier(W, b, names, replace(meta, test_accuracy=accuracy))


def fit_regressor(latents, targets, cfg: TrainingConfig = TrainingConfig()) -> LatentRegressor:
    """Fit a regression line by ridge-regularized normal equations.

    The ridge term is a fixed 1e-6 on the Gram matrix, just enough to keep it
    solvable; held-out RMSE is recorded on the split's test fold.
    """
    X = _as_matrix(latents)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"{X.shape[0]} latents but targets have shape {y.shape}")
    if X.shape[0] < 2:
        raise UnlearnableAttributeError("regression needs at least 2 samples")

    tr, te = _split(X.shape[0], cfg)
    A = np.hstack([X[tr], np.ones((len(tr), 1))])
    gram = A.T @ A + 1e-6 * np.eye(A.shape[1])
    beta = np.linalg.solve(gram, A.T @ y[tr])
    slope, intercept = beta[:-1], float(beta[-1])

    resid = X[te] @ slope + intercept - y[te]
    rmse = float(np.sqrt(np.mean(resid**2)))
    meta = TrainingMeta(test_rmse=rmse)
    return LatentRegressor(Hyperplane(slope, intercept), meta)


# --------------------------------------------------------------------------
# bundling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleProvenance:
    """How a bundle was produced: seeds, sample count, config, held-out metrics."""

    world_seed: int
    n_samples: int
    train_config: TrainingConfig
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "metrics", dict(self.metrics))


@dataclass(frozen=True)
class ModelBundle:
    """One fitted latent model per schema attribute, all sharing one latent dim."""

    schema: tuple[AttributeSchema, ...]
    models: Mapping[str, LatentModel]
    provenance: BundleProvenance | None = None

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "models", dict(self.models))
        dims = set()
        for attr in self.schema:
            model = self.models.get(attr.name)
            if model is None:
                raise BundleIncompleteError(f"no model for attribute {attr.name!r}")
            if attr.kind == BINARY and not isinstance(model, BinaryLatentClassifier):
                raise BundleIncompleteError(f"attribute {attr.name!r} needs a binary classifier")
            if attr.kind == MULTICLASS and not isinstance(model, MultiClassLatentClassifier):
                raise BundleIncompleteError(f"attribute {attr.name!r} needs a multiclass classifier")
            if attr.kind == CONTINUOUS and not isinstance(model, LatentRegressor):
                raise BundleIncompleteError(f"attribute {attr.name!r} needs a regressor")
            if attr.kind == BINARY:
                if {model.positive_class, model.negative_class} != set(attr.classes):
                    raise BundleIncompleteError(
                        f"attribute {attr.name!r}: classifier classes do not match the schema"
                    )
            if attr.kind == MULTICLASS and set(model.class_names) != set(attr.classes):
                raise BundleIncompleteError(
                    f"attribute {attr.name!r}: classifier classes do not match the schema"
                )
            dims.add(model.dim)
        if len(dims) > 1:
            raise BundleIncompleteError(f"models disagree on latent dim: {sorted(dims)}")

    @property
    def latent_dim(self) -> int:
        if not self.models:
            raise BundleIncompleteError("empty bundle has no latent dimension")
        return next(iter(self.models.values())).dim

    def model_for(self, name: str) -> LatentModel:
        try:
            return self.models[name]
        except KeyError:
            raise BundleIncompleteError(f"no model for attribute {name!r}") from None

    def attribute(self, name: str) -> AttributeSchema:
        for attr in self.schema:
            if attr.name == name:
                return attr
        raise BundleIncompleteError(f"no attribute named {name!r} in the schema")

    @cached_property
    def compiled(self) -> "CompiledBundle":
        """Every model of the bundle as rows of one affine map, built once per bundle."""
        weights: list[np.ndarray] = []
        intercepts: list[float] = []
        blocks = []
        for attr in self.schema:
            model = self.models[attr.name]
            if attr.kind == MULTICLASS:
                rows, b, classes = model.class_weights, model.class_intercepts, model.class_names
            else:
                plane = model.hyperplane if attr.kind == BINARY else model.line
                rows, b = [plane.direction], [plane.intercept]
                classes = (model.negative_class, model.positive_class) if attr.kind == BINARY else ()
            blocks.append((attr.name, attr.kind, slice(len(weights), len(weights) + len(rows)),
                           classes))
            weights.extend(rows)
            intercepts.extend(b)
        dim = self.latent_dim if self.schema else None
        w = np.array(weights, dtype=np.float64).reshape(len(weights), dim or 0)
        norms = np.sqrt((w * w).sum(axis=1))
        units = w / np.where(norms > 0.0, norms, 1.0)[:, None]
        arrays = (w, np.array(intercepts, dtype=np.float64), norms, units)
        for a in arrays:
            a.flags.writeable = False
        return CompiledBundle(dim, *arrays, tuple(blocks))


@dataclass(frozen=True)
class CompiledBundle:
    """A bundle's models stacked into one affine map z -> weights @ z + intercepts.

    A binary or continuous attribute owns one row, a multiclass attribute one
    row per class. `blocks` lists, in schema order, each attribute's
    (name, kind, row slice, class names): (negative, positive) for a binary
    row, the classifier's class order for a multiclass block, () for a
    regressor. dim is None for an empty bundle.
    """

    dim: int | None
    weights: np.ndarray     # (R, dim)
    intercepts: np.ndarray  # (R,)
    norms: np.ndarray       # (R,) row norms
    units: np.ndarray       # (R, dim) rows scaled to unit length; a zero row stays zero
    blocks: tuple[tuple[str, str, slice, tuple[str, ...]], ...]
