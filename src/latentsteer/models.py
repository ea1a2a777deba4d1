"""Linear attribute models over latent vectors.

Every fitted model is one `LatentModel`: affine rows over latent space, one
row for a binary or continuous attribute and one per class for a multiclass
attribute. Binary attributes get a logistic classifier, multi-valued
attributes a single softmax classifier, continuous attributes a ridge
regression line. Both classifiers are fitted by one damped Newton-CG
routine over the softmax objective, a binary attribute being its two-class
case: conjugate gradients on Hessian-vector products, preconditioned by
Böhning's bound. It starts from zero and stops once max |grad| <= GRAD_TOL.
All training is full batch and bit-deterministic for a given config,
whatever the BLAS thread count: the only randomness is the train/test split
permutation, which `split_folds` draws; every fit takes either latents or
the `Folds` it drew, so several fits over one sample can share one split. A
`ModelBundle` also holds its models' rows stacked into one affine map,
which steering reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BundleIncompleteError,
    DivergenceError,
    UnlearnableAttributeError,
)
from .geometry import Hyperplane, _latent_rows, _unit_norm, as_latent

__all__ = [
    "AttributeSchema",
    "TrainingConfig",
    "TrainingMeta",
    "LatentModel",
    "ModelBundle",
    "BundleProvenance",
    "Folds",
    "decide",
    "fit_binary",
    "fit_multiclass",
    "fit_regressor",
    "logistic_loss_and_grad",
    "softmax_loss_and_grad",
    "split_folds",
]

BINARY = "binary"
MULTICLASS = "multiclass"
CONTINUOUS = "continuous"

GRAD_TOL = 1e-8  # a classifier fit stops once max |grad| falls to this


def decide(kind: str, scores: np.ndarray) -> np.ndarray:
    """Class index per row of a discrete attribute's (n, k) scores: the one tie rule.

    A binary score (k = 1) >= 0 is the positive class 1; argmax ties go to the lowest index.
    """
    return (scores[:, 0] >= 0.0).astype(np.intp) if kind == BINARY else np.argmax(scores, axis=1)


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
        if not 0.0 <= self.l2_penalty < np.inf:  # also false for NaN
            raise ValueError(f"l2_penalty must be non-negative and finite, got {self.l2_penalty}")
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
class LatentModel:
    """One attribute's affine rows over latent space: scores = weights @ z + intercepts.

    A binary model has one row, whose score >= 0 is classes[1] (classes is
    (negative, positive)); a multiclass model has one row per class, in the
    order of classes, read by argmax; a continuous model has one row whose
    score is the predicted value, and no classes. `decide` is the tie rule.
    """

    kind: str
    weights: np.ndarray     # (k, dim)
    intercepts: np.ndarray  # (k,)
    classes: tuple[str, ...] = ()
    training_meta: TrainingMeta = TrainingMeta()

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        b = np.array(self.intercepts, dtype=np.float64, copy=True)
        classes = tuple(self.classes)
        n = len(classes)
        counts_fit = {BINARY: n == 2, MULTICLASS: n >= 2, CONTINUOUS: n == 0}
        if self.kind not in counts_fit:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not counts_fit[self.kind] or len(set(classes)) != n:
            raise ValueError(f"classes {classes} do not fit a {self.kind} model (binary: 2, "
                             "multiclass: 2 or more, continuous: none; all distinct)")
        rows = n if self.kind == MULTICLASS else 1
        if w.ndim != 2 or w.shape[0] != rows or b.shape != (rows,):
            raise ValueError(f"a {self.kind} model needs ({rows}, dim) weights and {rows} intercepts")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("model weights or intercepts contain NaN or Inf entries")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercepts", b)
        object.__setattr__(self, "classes", classes)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def hyperplane(self) -> Hyperplane:
        """The boundary (binary) or regression line (continuous) of a one-row model."""
        if self.kind == MULTICLASS:
            raise ValueError("a multiclass model has one row per class, not one hyperplane")
        return Hyperplane(self.weights[0], self.intercepts[0])

    line = hyperplane  # the name bench/workloads.py reads for a continuous model

    def predict(self, z):
        """The class of z for a discrete model, its value for a continuous one."""
        scores = self.weights @ as_latent(z, self.dim) + self.intercepts
        if self.kind == CONTINUOUS:
            return float(scores[0])
        return self.classes[decide(self.kind, scores[None, :])[0]]

    def one_vs_rest_direction(self, class_name: str) -> np.ndarray:
        """Weights of one class of a multiclass model contrasted against the mean of the others."""
        j = self.classes.index(class_name)
        others = [i for i in range(len(self.classes)) if i != j]
        d = self.weights[j] - self.weights[others].mean(axis=0)
        d.flags.writeable = False
        return d


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
    return _softmax_terms(W, b, X, Y, l2)[:3]


def _softmax_terms(W: np.ndarray, b: np.ndarray, X: np.ndarray, Y: np.ndarray,
                   l2: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """softmax_loss_and_grad's loss and gradient, and the (k, n) class probabilities.

    Logits and probabilities are class-major. Below 8 classes the results equal the
    row-major (n, k) pass bit for bit: a sum over the classes adds the rows in order,
    as numpy sums an (n, k) row (pairwise from 8 on), and the residual stays (n, k),
    so the gradient makes the row-major pass's BLAS call at every dim. np.dot
    releases the GIL; matmul keeps it for outputs of at most about 500 elements.
    """
    logits = W @ X.T + b[:, None]
    logits -= logits.max(axis=0)
    logz = np.log(np.exp(logits).sum(axis=0))
    loss = float(np.mean(logz - (logits * Y.T).sum(axis=0)))
    loss += 0.5 * l2 * float((W * W).sum())
    P = np.exp(logits - logz)
    resid = P.T - Y
    grad_W = np.dot(resid.T, X) / X.shape[0] + l2 * W
    grad_b = resid.mean(axis=0)
    return loss, grad_W, grad_b, P


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _split(n: int, cfg: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    n_train = int(np.floor(n * cfg.split_fraction))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(cfg.seed).permutation(n)
    return perm[:n_train], perm[n_train:]


@dataclass(frozen=True, eq=False)
class Folds:
    """A latent sample's train/test split, drawn once and read by every fit over the sample.

    train and test are the gathered rows latents[tr] and latents[te]; gram is
    the Gram matrix [train, 1]^T [train, 1] of the train fold with a column of
    ones, which the regressor solves with and every classifier builds its
    Newton-CG preconditioner from. All are read-only. split_fraction and seed
    are those of the config the split was drawn with.
    """

    train: np.ndarray  # (len(tr), dim)
    test: np.ndarray   # (len(te), dim)
    tr: np.ndarray
    te: np.ndarray
    gram: np.ndarray   # (dim + 1, dim + 1)
    split_fraction: float
    seed: int

    def __len__(self) -> int:
        return len(self.tr) + len(self.te)


def _gram(X: np.ndarray) -> np.ndarray:
    """[X, 1]^T [X, 1] from its blocks, without copying X into [X, 1]."""
    n, d = X.shape
    gram = np.empty((d + 1, d + 1))
    gram[:d, :d] = X.T @ X
    gram[:d, d] = gram[d, :d] = X.sum(axis=0)
    gram[d, d] = n
    return gram


def split_folds(latents, cfg: TrainingConfig) -> Folds:
    """Split (n, dim) latents into the train and test folds that cfg draws."""
    X = _latent_rows(latents)
    tr, te = _split(X.shape[0], cfg)
    train = X[tr]
    folds = Folds(train, X[te], tr, te, _gram(train), cfg.split_fraction, cfg.seed)
    for a in (folds.train, folds.test, folds.gram, tr, te):
        a.flags.writeable = False
    return folds


def _folds(latents, cfg: TrainingConfig) -> Folds:
    """latents as Folds: split by cfg if an array, checked against cfg if already split."""
    if not isinstance(latents, Folds):
        return split_folds(latents, cfg)
    if (latents.split_fraction, latents.seed) != (cfg.split_fraction, cfg.seed):
        raise ValueError(f"folds drawn with split_fraction={latents.split_fraction}, "
                         f"seed={latents.seed}; the config has split_fraction="
                         f"{cfg.split_fraction}, seed={cfg.seed}")
    return latents


def _preconditioner(gram: np.ndarray, n: int, l2: float) -> np.ndarray:
    """The pseudo-inverse of Böhning's bound gram / 2n + l2 (on the weights), (d + 1) x (d + 1).

    With m the train fold's mean, the bound is B^T diag(C, 1/2) B for B = [[I, 0], [m^T, 1]]
    and C = (X^T X / n - m m^T) / 2 + l2 I. So only C is pseudo-inverted, scaled to a unit
    diagonal before its eigenvalues are cut: no penalty cuts the intercept. At l2 = 0 a
    column whose variance is within the centring's rounding of zero (a dead or constant
    latent column) stays out of the range, so its weights stay zero.
    """
    d, eps = len(gram) - 1, np.finfo(np.float64).eps
    mean = gram[:d, d] / n
    C = (gram[:d, :d] / n - np.outer(mean, mean)) / 2.0 + l2 * np.eye(d)
    diagonal = np.diagonal(C)
    live = diagonal > d * eps * np.diagonal(gram)[:d] / n
    scale = np.zeros(d)
    scale[live] = 1.0 / np.sqrt(diagonal[live])
    lam, E = np.linalg.eigh(scale[:, None] * C * scale)
    keep = lam > d * eps * lam[-1]
    E = E[:, keep] * scale[:, None]
    C_inv = np.dot(E / lam[keep], E.T)
    shift = np.dot(C_inv, mean)
    return np.block([[C_inv, -shift[:, None]], [-shift[None, :], 2.0 + np.dot(mean, shift)]])


def _hessian_product(X: np.ndarray, P: np.ndarray, Q: np.ndarray, l2: float,
                     S: np.ndarray) -> np.ndarray:
    """H S at the class-major probabilities P (k, n), with S and H S in the basis Q: (k - 1, d + 1)."""
    n, d = X.shape
    D = Q @ (np.dot(S[:, :d], X.T) + S[:, d:])  # (k, n): each row's change of logits
    D *= P
    D -= P * D.sum(axis=0)
    U = Q.T @ D
    HS = np.empty_like(S)
    HS[:, :d] = np.dot(U, X) / n + l2 * S[:, :d]
    HS[:, d] = U.sum(axis=1) / n
    return HS


def _newton(X: np.ndarray, Y: np.ndarray, l2: float, max_iter: int, gram: np.ndarray):
    """Minimize softmax_loss_and_grad over (W, b) by damped Newton-CG steps from zero.

    Each step solves H step = -grad by preconditioned conjugate gradients (CG) on
    products H S (_hessian_product), and is halved until the Armijo condition holds and
    the loss falls. Stops once max |grad| <= GRAD_TOL, after max_iter steps, or when no
    halving lowers the loss. gram is `_gram(X)`. Returns W, b, loss, max |grad| and steps.

    A shift shared by every class leaves the probabilities unchanged, and the gradient
    never moves along one. So the steps run in an orthonormal (Helmert) basis Q of the
    class vectors that sum to zero, W = Q V and b = Q c: a binary fit has one row. CG
    stops at the forcing term |r| <= min(0.5, sqrt|g|) |g| (Eisenstat and Walker, 1996),
    or after as many products as there are unknowns. Its preconditioner M is Böhning's
    bound on the Hessian, in the basis Q one (d + 1) x (d + 1) matrix for every row of V
    (_preconditioner). CG's last residual r is preconditioned once more and added to the
    step: as H <= M, this never raises r's M^+ norm, and it clears r along the weights
    where the penalty dominates H, whose last gradient bits lower the loss by less than
    its rounding, so no later step could be accepted for them.

    At l2 = 0 a dead or constant latent column lies outside M's range, so its weights
    stay zero, and a duplicated column's difference direction falls under M's cut, so
    the copies share their weights evenly. For a dead or duplicated column M's range is
    H's, and each step is the minimum-norm one. A nearly collinear column's near-null
    direction falls under the cut too, and the steps leave it alone.
    """
    (n, d), k = X.shape, Y.shape[1]
    j, classes = np.arange(1, k), np.arange(k)[:, None]
    Q = ((classes < j) - j * (classes == j)) / np.sqrt(j * (j + 1.0))  # (k, k - 1)
    M = _preconditioner(gram, n, l2)
    W, b = np.zeros((k, d)), np.zeros(k)
    loss, gW, gb, P = _softmax_terms(W, b, X, Y, l2)
    steps = 0
    while True:
        g = np.hstack([gW, gb[:, None]])  # per class: d weights, then the intercept
        if steps == max_iter or np.abs(g).max() <= GRAD_TOL:
            break
        if not np.isfinite(g).all():
            raise DivergenceError(steps, "non-finite gradient")
        r = -(Q.T @ g)
        g_norm = math.sqrt(float((r * r).sum()))
        tol = min(0.5, math.sqrt(g_norm)) * g_norm
        s, p = np.zeros_like(r), np.dot(r, M)
        rz = float((r * p).sum())
        for _ in range(r.size):
            Hp = _hessian_product(X, P, Q, l2, p)
            curvature = float((p * Hp).sum())
            alpha = rz / curvature if curvature > 0.0 else 0.0
            if not 0.0 < alpha < math.inf:  # no curvature left to use
                break
            s += alpha * p
            r -= alpha * Hp
            if math.sqrt(float((r * r).sum())) <= tol:
                break
            z = np.dot(r, M)
            rz, rz_old = float((r * z).sum()), rz
            p = z + (rz / rz_old) * p
        step = Q @ (s + np.dot(r, M))
        t = 1.0
        while t > 1e-12:
            trial = _softmax_terms(W + t * step[:, :d], b + t * step[:, d], X, Y, l2)
            # a trial must lower the loss: near a flat minimum, the Armijo decrease can
            # round away, and a trial of equal loss would pass the Armijo test alone
            if trial[0] < loss and trial[0] <= loss + 1e-4 * t * float((g * step).sum()):
                break
            t /= 2
        else:
            break
        W, b = W + t * step[:, :d], b + t * step[:, d]
        loss, gW, gb, P = trial
        steps += 1
    return W, b, loss, float(np.abs(g).max()), steps


def _label_classes(labels) -> tuple[list, np.ndarray, np.ndarray]:
    """labels' sorted distinct values as given, each label's index among them, their counts."""
    present, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return present.tolist(), inverse, counts


def _fit_classes(latents, labels, names: tuple, cfg: TrainingConfig, l2: float):
    """Checks, split and Newton fit shared by both classifiers.

    labels come from _label_classes. Returns W, b, the test fold's latents and
    class indices, and the fit record, whose test_accuracy the caller fills
    in with its decision rule.
    """
    folds = _folds(latents, cfg)
    present, inverse, counts = labels
    if len(inverse) != len(folds):
        raise ValueError(f"{len(folds)} latents but {len(inverse)} labels")
    index = {c: i for i, c in enumerate(names)}
    unknown = [c for c in present if c not in index]
    if unknown:
        raise UnlearnableAttributeError(f"labels outside the class set: {unknown}")
    count = dict(zip(present, counts.tolist()))
    missing = [c for c in names if count.get(c, 0) < 2]
    if missing:
        raise UnlearnableAttributeError(f"classes with fewer than 2 samples: {missing}")
    y = np.array([index[c] for c in present], dtype=np.intp)[inverse]
    W, b, loss, grad_norm, steps = _newton(folds.train, np.eye(len(names))[y[folds.tr]], l2,
                                           cfg.epochs, folds.gram)
    meta = TrainingMeta(epochs_run=steps, final_loss=loss, grad_norm=grad_norm)
    return W, b, folds.test, y[folds.te], meta


def fit_binary(latents, labels: Sequence[str], cfg: TrainingConfig = TrainingConfig(),
               positive_class: str | None = None) -> LatentModel:
    """Fit a binary logistic classifier over (n, dim) latents (or their Folds) and n labels of
    two classes (a list or an array).

    positive_class maps to the positive score side (default: the larger of
    the two labels). This is the two-class softmax fit with twice the L2
    penalty: its rows come out as -w/2 and +w/2, whose penalty equals the
    logistic one on w = their difference. Held-out accuracy and convergence
    are recorded in training_meta.
    """
    labels = _label_classes(labels)
    present = labels[0]
    if len(present) != 2:
        raise UnlearnableAttributeError(f"binary fit needs exactly 2 classes, got {present}")
    if positive_class is not None and positive_class not in present:
        raise UnlearnableAttributeError(
            f"positive class {positive_class!r} absent from labels {present}")
    positive = present[1] if positive_class is None else positive_class
    negative = present[0] if present[1] == positive else present[1]
    l2 = 2.0 * cfg.l2_penalty
    if l2 == np.inf:
        raise DivergenceError(0, f"twice the l2_penalty {cfg.l2_penalty} is past the float range")
    W, b, Xte, yte, meta = _fit_classes(latents, labels, (negative, positive), cfg, l2)
    w, c = W[1] - W[0], float(b[1] - b[0])
    accuracy = float(np.mean(decide(BINARY, (Xte @ w + c)[:, None]) == yte))
    return LatentModel(BINARY, w[None, :], [c], (negative, positive),
                       replace(meta, test_accuracy=accuracy))


def fit_multiclass(latents, labels: Sequence[str], cfg: TrainingConfig = TrainingConfig(),
                   class_names: Sequence[str] | None = None) -> LatentModel:
    """Fit one softmax classifier over k classes by damped Newton-CG steps.

    latents are (n, dim), or their Folds; labels a list or an array. class_names fixes
    the class order (default: sorted unique labels); every named class must appear at
    least twice in the labels.
    """
    labels = _label_classes(labels)
    names = tuple(class_names) if class_names is not None else tuple(labels[0])
    if len(names) < 2:
        raise UnlearnableAttributeError(f"need at least 2 classes, got {list(names)}")
    W, b, Xte, yte, meta = _fit_classes(latents, labels, names, cfg, cfg.l2_penalty)
    accuracy = float(np.mean(decide(MULTICLASS, Xte @ W.T + b) == yte))
    return LatentModel(MULTICLASS, W, b, names, replace(meta, test_accuracy=accuracy))


def fit_regressor(latents, targets, cfg: TrainingConfig = TrainingConfig()) -> LatentModel:
    """Fit a regression line over (n, dim) latents (or their Folds) by ridge-regularized normal
    equations.

    The ridge term is a fixed 1e-6 on the Gram matrix, just enough to keep it
    solvable; held-out RMSE is recorded on the split's test fold.
    """
    folds = _folds(latents, cfg)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (len(folds),):
        raise ValueError(f"{len(folds)} latents but targets have shape {y.shape}")
    if len(folds) < 2:
        raise UnlearnableAttributeError("regression needs at least 2 samples")

    Xtr, tr, te = folds.train, folds.tr, folds.te
    gram = folds.gram + 1e-6 * np.eye(len(folds.gram))
    beta = np.linalg.solve(gram, np.append(np.dot(Xtr.T, y[tr]), y[tr].sum()))
    slope, intercept = beta[:-1], float(beta[-1])

    resid = folds.test @ slope + intercept - y[te]
    rmse = float(np.sqrt(np.mean(resid**2)))
    return LatentModel(CONTINUOUS, slope[None, :], [intercept], (), TrainingMeta(test_rmse=rmse))


# --------------------------------------------------------------------------
# bundling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleProvenance:
    """How a bundle was produced: seeds, sample count, config, held-out metrics.

    `metrics` is a read-only copy of the mapping given.
    """

    world_seed: int
    n_samples: int
    train_config: TrainingConfig
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "metrics", MappingProxyType(dict(self.metrics)))


@dataclass(frozen=True)
class ModelBundle:
    """One fitted latent model per schema attribute, all sharing one latent dim.

    `models` is a read-only copy of the mapping given, so a bundle that
    several callers share cannot be changed by one of them. The bundle also
    holds its models' rows stacked once, in schema order, into one read-only
    affine map z -> weights @ z + intercepts, which steering reads: a binary
    or continuous attribute owns one row, a multiclass attribute one row per
    class. `blocks` lists each attribute's (name, kind, row slice, class
    names): (negative, positive) for a binary row, the classifier's class
    order for a multiclass block, () for a regressor.
    """

    schema: tuple[AttributeSchema, ...]
    models: Mapping[str, LatentModel]
    provenance: BundleProvenance | None = None
    weights: np.ndarray = field(init=False, repr=False, compare=False)     # (R, dim)
    intercepts: np.ndarray = field(init=False, repr=False, compare=False)  # (R,)
    norms: np.ndarray = field(init=False, repr=False, compare=False)       # (R,) row norms
    units: np.ndarray = field(init=False, repr=False, compare=False)  # (R, dim) unit rows or zeros
    blocks: tuple[tuple[str, str, slice, tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "models", MappingProxyType(dict(self.models)))
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise BundleIncompleteError(f"schema repeats an attribute: {names}")
        missing = [name for name in names if name not in self.models]
        if missing:
            raise BundleIncompleteError(f"no model for attribute {missing[0]!r}")
        extra = sorted(set(self.models) - set(names))
        if extra:
            raise BundleIncompleteError(f"models for attributes the schema does not name: {extra}")
        blocks, start = [], 0
        for attr in self.schema:
            model = self.models[attr.name]
            if model.kind != attr.kind:
                raise BundleIncompleteError(
                    f"attribute {attr.name!r} is {attr.kind}, but its model is {model.kind}")
            if set(model.classes) != set(attr.classes):
                raise BundleIncompleteError(
                    f"attribute {attr.name!r}: classifier classes do not match the schema")
            blocks.append((attr.name, attr.kind, slice(start, start + len(model.weights)),
                           model.classes))
            start += len(model.weights)
        dims = sorted({model.dim for model in self.models.values()})
        if len(dims) > 1:
            raise BundleIncompleteError(f"models disagree on latent dim: {dims}")
        w = np.concatenate([self.models[name].weights for name in names] or [np.zeros((0, 0))])
        units, norms = _unit_norm(w)
        b = np.concatenate([self.models[name].intercepts for name in names] or [np.zeros(0)])
        for name, a in (("weights", w), ("intercepts", b), ("norms", norms), ("units", units)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def latent_dim(self) -> int:
        if not self.models:
            raise BundleIncompleteError("empty bundle has no latent dimension")
        return self.weights.shape[1]

    def model_for(self, name: str) -> LatentModel:
        try:
            return self.models[name]
        except KeyError:
            raise BundleIncompleteError(f"no model for attribute {name!r}") from None
