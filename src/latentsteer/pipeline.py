"""End-to-end training and evaluation over the synthetic world.

run_training labels samples through the world's batched image pathway and
fits one latent model per attribute. The eval functions steer freshly sampled
latents toward random targets and score the outcome two ways: by the latent
models themselves and by the world's own image pathway. sweep_entanglement
repeats the whole exercise across a range of configured direction cosines.

Eval randomness is keyed by (seed, block): the trials of block b, ROW_BLOCK
of them, draw their latents and targets as arrays from one
default_rng((seed, b)). A trial's draw depends on (seed, trial index) alone,
not on how many trials run or in what order. Trials are steered a block at a
time through the steering core of `condition_batch`, and each block is
judged by array operations: the latent models' decisions on its final
scores, or the world's noiseless reading of its block means.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import io
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .director import DirectorConfig, _condition_rows, _readout, latent_labels
from .errors import UnlearnableAttributeError, WorldConfigError
from .geometry import pairwise_cosines, sample_latents
from .models import (
    BINARY,
    CONTINUOUS,
    MULTICLASS,
    AttributeSchema,
    BundleProvenance,
    Folds,
    LatentModel,
    ModelBundle,
    TrainingConfig,
    fit_binary,
    fit_multiclass,
    fit_regressor,
    split_folds,
)
from .world import (AttributeLabels, SyntheticWorld, WorldConfig, _label_latents, _noise_draws,
                    build_world, generate_image, oracle_label)

__all__ = [
    "EvalConfig",
    "EvalReport",
    "CosineReport",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "ground_truth_bundle",
    "run_training",
    "eval_latent_modification",
    "eval_end_to_end",
    "cosine_report",
    "sweep_entanglement",
]

# trials per eval block: the unit of the keyed draw, and a bound on its working set
ROW_BLOCK = 256


def _csv_text(header: Sequence, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def ground_truth_bundle(world: SyntheticWorld) -> ModelBundle:
    """Bundle of exact models built from the world's own directions.

    Binary and multiclass models reproduce the world's decisions exactly.
    The regressor equals the world's continuous readout only for the linear
    profile away from the range clamp.
    """
    models = {}
    for attr in world.config.attributes:
        # an attribute's slots are its model's rows: one, or one per class in class order
        rows = [i for i, (name, _) in enumerate(world.slots) if name == attr.name]
        models[attr.name] = LatentModel(attr.kind, world.directions[rows], world.intercepts[rows],
                                        attr.classes)
    return ModelBundle(tuple(world.config.attributes), models)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _openblas_thread_count() -> Callable[[], int] | None:
    """OpenBLAS's thread-count getter in the library numpy loaded, or None if none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                           if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return getter
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Threads the BLAS runs each call on, read now; None if it cannot be read."""
    getter = _openblas_thread_count()
    return getter() if getter is not None else None


def _fit_attribute(attr: AttributeSchema, y: np.ndarray, folds: Folds,
                   cfg: TrainingConfig) -> LatentModel:
    """attr's model fitted to its labels y (class indices or values); an unlearnable one is named."""
    try:
        if attr.kind == BINARY:
            return fit_binary(folds, np.take(attr.classes, y), cfg,
                              positive_class=attr.classes[1])
        if attr.kind == MULTICLASS:
            return fit_multiclass(folds, np.take(attr.classes, y), cfg,
                                  class_names=attr.classes)
        return fit_regressor(folds, y, cfg)
    except UnlearnableAttributeError as exc:
        raise UnlearnableAttributeError(f"attribute {attr.name!r}: {exc}") from exc


def _settled(fn, *args) -> Future:
    """fn(*args) run on the calling thread, as a finished future."""
    done = Future()
    try:
        done.set_result(fn(*args))
    except Exception as exc:
        done.set_exception(exc)
    return done


def run_training(world: SyntheticWorld, n_samples: int,
                 cfg: TrainingConfig = TrainingConfig()) -> ModelBundle:
    """Sample latents, label them through the image pathway, fit every attribute.

    Classifiers take damped Newton steps (at most cfg.epochs), the regression
    line is solved in closed form. The fits share one train/test split per
    cfg.split_fraction and record their held-out metrics in the bundle
    provenance. When the BLAS leaves cores free they run concurrently: the
    calling thread fits the costliest attribute and a pool of
    (usable CPUs // BLAS threads - 1) threads the others; when it does not,
    or its thread count cannot be read, they run one after another. The pool
    also draws the label noise while the calling thread draws the latents,
    and splits them while it labels them. Each fit makes the same numpy calls
    on the same arrays whatever the thread, so the bundle does not depend on
    the number of workers. If fits fail, the first
    failing attribute in schema order raises once every fit has finished.
    Deterministic given the world, cfg.seed and the BLAS thread count.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    attrs = world.config.attributes
    # costliest first: a k-class fit makes k(k - 1)/2 Hessian passes per Newton step, the
    # regressor (k = 0) none
    first, *rest = sorted(range(len(attrs)), key=lambda i: -len(attrs[i].classes))
    # a pool only where every fit's BLAS threads keep cores of their own; serial if unknown
    blas = _blas_threads()
    workers = min(_usable_cpus() // blas - 1, len(rest)) if blas else 0
    # leaving the pool waits for everything submitted to it
    with ThreadPoolExecutor(workers) if workers > 0 else contextlib.nullcontext() as pool:
        submit = pool.submit if pool else _settled
        # the label noise needs only its seeds, so it is drawn while the latents are
        noise_seeds = np.random.default_rng((cfg.seed, 1)).integers(2**62, size=n_samples)
        draws = submit(_noise_draws, world, noise_seeds, world.config.label_noise)
        Z = sample_latents(n_samples, world.latent_dim, cfg.seed)
        folds = submit(split_folds, Z, cfg)
        labels = _label_latents(world, Z, noise_seeds, draws=draws.result())
        del Z  # the folds hold every row the fits read
        jobs = [(attr, labels[attr.name], folds.result(), cfg) for attr in attrs]
        fits = {i: submit(_fit_attribute, *jobs[i]) for i in rest}
        fits[first] = _settled(_fit_attribute, *jobs[first])

    models: dict[str, LatentModel] = {}
    metrics: dict[str, float] = {}
    for i, attr in enumerate(attrs):
        models[attr.name] = fits[i].result()  # the first failure in schema order raises
        meta = models[attr.name].training_meta
        metrics[attr.name] = meta.test_accuracy if attr.is_discrete else meta.test_rmse

    provenance = BundleProvenance(
        world_seed=world.config.seed,
        n_samples=n_samples,
        train_config=cfg,
        metrics=metrics,
    )
    return ModelBundle(tuple(attrs), models, provenance)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings: base seed, conditioning config, repair rounds.

    rounds=1 is the headline single-step mode; rounds>1 steers a trial again
    until its targets are satisfied or the budget runs out.
    """

    seed: int = 0
    director: DirectorConfig = DirectorConfig()
    rounds: int = 1

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")


@dataclass(frozen=True, slots=True)  # callers keep many: no per-instance __dict__
class EvalReport:
    """Per-attribute success rates over a trial loop."""

    mode: str
    trials: int
    seed: int
    accuracy: Mapping[str, float] = field(default_factory=dict)
    rmse: Mapping[str, float] = field(default_factory=dict)
    joint_discrete_accuracy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "accuracy", dict(self.accuracy))
        object.__setattr__(self, "rmse", dict(self.rmse))
        for name, a in self.accuracy.items():
            if not (0.0 <= a <= 1.0):
                raise ValueError(f"accuracy for {name!r} outside [0, 1]: {a}")

    def render(self) -> str:
        lines = [
            f"evaluation: {self.mode}   trials={self.trials}   seed={self.seed}",
            f"{'attribute':<20} {'metric':<10} {'value':>10}",
        ]
        for name, a in self.accuracy.items():
            lines.append(f"{name:<20} {'accuracy':<10} {a:>10.4f}")
        for name, r in self.rmse.items():
            lines.append(f"{name:<20} {'rmse':<10} {r:>10.4f}")
        if self.joint_discrete_accuracy is not None:
            lines.append(f"{'(all discrete)':<20} {'accuracy':<10} {self.joint_discrete_accuracy:>10.4f}")
        return "\n".join(lines)

    def csv_text(self) -> str:
        values = [(name, "accuracy", a) for name, a in self.accuracy.items()]
        values += [(name, "rmse", r) for name, r in self.rmse.items()]
        if self.joint_discrete_accuracy is not None:
            values.append(("(all discrete)", "accuracy", self.joint_discrete_accuracy))
        return _csv_text(["attribute", "metric", "value", "trials", "seed", "mode"],
                         [(name, metric, repr(v), self.trials, self.seed, self.mode)
                          for name, metric, v in values])


def _draw_trials(schema: Sequence[AttributeSchema], dim: int, seed: int, block: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Latents (n, dim) and targets (n, attributes) of the first n trials of eval block `block`.

    Block b holds trials b * ROW_BLOCK, ..., (b + 1) * ROW_BLOCK - 1 and draws
    from default_rng((seed, b)): a full block of latents, then per attribute
    in schema order a full block of uniform class indices, or of values
    uniform over the middle 80% of the range. A short last block keeps its
    first n rows, so a trial's draw depends on (seed, trial index) alone, not
    on how many trials run. A negative seed raises as SeedSequence does.
    """
    rng = np.random.default_rng((seed, block))
    Z = rng.standard_normal((ROW_BLOCK, dim))
    T = np.empty((ROW_BLOCK, len(schema)))
    for j, a in enumerate(schema):
        T[:, j] = (rng.integers(len(a.classes), size=ROW_BLOCK) if a.is_discrete
                   else rng.uniform(a.lo + 0.1 * (a.hi - a.lo), a.hi - 0.1 * (a.hi - a.lo), ROW_BLOCK))
    return Z[:n], T[:n]


def _steer(Z: np.ndarray, targets: tuple[np.ndarray, ...], bundle: ModelBundle,
           cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Steer the rows of Z in place, and their stacked scores at the end.

    Each round after the first takes only the unsatisfied rows.
    """
    todo = np.arange(len(Z))
    S = np.empty((len(Z), len(bundle.weights)))
    for _ in range(cfg.rounds):
        step = _condition_rows(bundle, Z[todo], tuple(t[todo] for t in targets), cfg.director)
        Z[todo], S[todo] = step.z_prime, step.scores_after
        todo = todo[~step.satisfied]
        if not todo.size:
            break
    return Z, S


def _block_readout(bundle: ModelBundle, labels: AttributeLabels) -> dict:
    """One row's labels as a judge reads them."""
    return {name: (classes.index(labels.discrete[name]) if labels.discrete[name] in classes else -1)
            if kind != CONTINUOUS else labels.continuous[name]
            for name, kind, _, classes in bundle.blocks}


def _check_eval(bundle: ModelBundle, world: SyntheticWorld, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if bundle.latent_dim != world.latent_dim:
        raise WorldConfigError(
            f"bundle latent dim {bundle.latent_dim} does not match world dim {world.latent_dim}"
        )


def _run_trials(bundle: ModelBundle, trials: int, cfg: EvalConfig,
                judge: Callable[[np.ndarray, np.ndarray], Mapping[str, np.ndarray]],
                judge_one: Callable[[np.ndarray], AttributeLabels], mode: str) -> EvalReport:
    """Draw, steer and judge the trials a block at a time.

    judge reads a block of steered latents and their stacked scores into,
    per attribute, the class index in its block's class order (-1:
    a class the block does not name) or the value. judge_one is the public
    judge of one latent.
    """
    # per block: the block's class index of each schema class, or None for a continuous one
    to_block = [np.array([classes.index(c) for c in a.classes], dtype=np.intp) if a.is_discrete
                else None for a, (_, _, _, classes) in zip(bundle.schema, bundle.blocks)]
    hits = {a.name: 0 for a in bundle.schema if a.is_discrete}
    sq_err = {a.name: 0.0 for a in bundle.schema if not a.is_discrete}
    joint_hits = 0

    for start in range(0, trials, ROW_BLOCK):
        Z, T = _draw_trials(bundle.schema, bundle.latent_dim, cfg.seed, start // ROW_BLOCK,
                            min(ROW_BLOCK, trials - start))
        targets = tuple(T[:, j] if perm is None else perm[T[:, j].astype(np.intp)]
                        for j, perm in enumerate(to_block))
        Z, S = _steer(Z, targets, bundle, cfg)
        readout = judge(Z, S)
        if start == 0:
            # the single-row judge must read the first trial as the block does (NaN equal to
            # NaN); this keeps its traced calls until the benchmark traces the batched judges
            # (ROADMAP item 1), which removes this check
            one = _block_readout(bundle, judge_one(Z[0]))
            if any(not (v == readout[name][0] or np.isnan(v) and np.isnan(readout[name][0]))
                   for name, v in one.items()):
                raise RuntimeError(f"{mode} judge: batched row 0 differs from the single-row judge")
        joint = np.ones(len(Z), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN errors, as Python floats
            for (name, kind, _, _), target in zip(bundle.blocks, targets):
                if kind == CONTINUOUS:
                    d = readout[name] - target
                    # summed in trial order, as a running float total would be
                    sq_err[name] = np.cumsum(np.concatenate(([sq_err[name]], d * d)))[-1]
                else:
                    ok = readout[name] == target
                    hits[name] += int(ok.sum())
                    joint &= ok
        joint_hits += int(joint.sum())

    accuracy = {name: h / trials for name, h in hits.items()}
    rmse = {name: float(np.sqrt(s / trials)) for name, s in sq_err.items()}
    joint = joint_hits / trials if hits else None
    return EvalReport(mode, trials, cfg.seed, accuracy, rmse, joint)


def eval_latent_modification(bundle: ModelBundle, world: SyntheticWorld, trials: int,
                             cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Steer random latents to random targets; judge success with the latent models."""
    _check_eval(bundle, world, trials)

    def judge(Z: np.ndarray, S: np.ndarray) -> dict[str, np.ndarray]:
        return {block[0]: v for block, v in zip(bundle.blocks, _readout(bundle, S))}

    return _run_trials(bundle, trials, cfg, judge, lambda z: latent_labels(bundle, z), "latent")


def eval_end_to_end(bundle: ModelBundle, world: SyntheticWorld, trials: int,
                    cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Steer random latents to random targets; judge by the noiseless image pathway."""
    _check_eval(bundle, world, trials)
    shown = {a.name: a for a in world.config.attributes}
    to_block = {}  # per discrete attribute: the block's class index of each world class
    for name, kind, _, classes in bundle.blocks:
        attr = shown.get(name)
        if attr is None or attr.is_discrete != (kind != CONTINUOUS):
            raise WorldConfigError(f"the world does not show attribute {name!r} as {kind}")
        if attr.is_discrete:
            to_block[name] = np.array([classes.index(c) if c in classes else -1
                                       for c in attr.classes], dtype=np.intp)

    def judge(Z: np.ndarray, S: np.ndarray) -> dict[str, np.ndarray]:
        labels = _label_latents(world, Z, np.zeros(len(Z), np.intp), label_noise=0.0)
        return {name: to_block[name][labels[name]] if name in to_block else labels[name]
                for name, _, _, _ in bundle.blocks}

    def judge_one(z: np.ndarray) -> AttributeLabels:
        return oracle_label(world, generate_image(world, z), 0, label_noise=0.0)

    return _run_trials(bundle, trials, cfg, judge, judge_one, "end2end")


@dataclass(frozen=True)
class CosineReport:
    """Pairwise cosine similarities among model directions."""

    names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64, copy=True)
        names = tuple(self.names)
        if m.shape != (len(names), len(names)):
            raise ValueError("matrix shape does not match the name list")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "names", names)

    def value(self, a: str, b: str) -> float:
        return float(self.matrix[self.names.index(a), self.names.index(b)])

    def render(self) -> str:
        width = max(12, max((len(n) for n in self.names), default=0) + 2)
        header = " " * width + "".join(f"{n:>{width}}" for n in self.names)
        lines = [header]
        for i, name in enumerate(self.names):
            cells = "".join(f"{self.matrix[i, j]:>{width}.3f}" for j in range(len(self.names)))
            lines.append(f"{name:<{width}}" + cells)
        return "\n".join(lines)

    def csv_text(self) -> str:
        return _csv_text(["name", *self.names],
                         ([name, *[repr(float(v)) for v in row]]
                          for name, row in zip(self.names, self.matrix)))


def cosine_report(bundle: ModelBundle) -> CosineReport:
    """Cosines among all model directions, one one-vs-rest row per multiclass class."""
    if not bundle.schema:
        raise ValueError("cosine report needs a non-empty bundle")
    names: list[str] = []
    vectors: list[np.ndarray] = []
    for attr in bundle.schema:
        model = bundle.model_for(attr.name)
        if attr.kind == MULTICLASS:
            for cls in attr.classes:
                names.append(f"{attr.name}:{cls}")
                vectors.append(model.one_vs_rest_direction(cls))
        else:
            names.append(attr.name)
            vectors.append(model.weights[0])
    return CosineReport(tuple(names), pairwise_cosines(np.stack(vectors)))


@dataclass(frozen=True)
class SweepConfig:
    """Settings for the entanglement sweep's two-attribute worlds."""

    dim: int = 32
    seed: int = 0
    train: TrainingConfig = TrainingConfig()
    director: DirectorConfig = DirectorConfig()
    rounds: int = 1


@dataclass(frozen=True)
class SweepRow:
    cosine: float
    accuracy: Mapping[str, float]
    joint_accuracy: float

    def __post_init__(self):
        object.__setattr__(self, "accuracy", dict(self.accuracy))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: tuple[tuple[float, str], ...]
    attribute_names: tuple[str, str] = ("alpha", "beta")

    def csv_text(self) -> str:
        a, b = self.attribute_names
        return _csv_text(["cosine", f"{a}_accuracy", f"{b}_accuracy", "joint_accuracy"],
                         ([repr(row.cosine), repr(row.accuracy[a]), repr(row.accuracy[b]),
                           repr(row.joint_accuracy)] for row in self.rows))


def sweep_entanglement(cos_values: Sequence[float], trials: int, n_samples: int,
                       cfg: SweepConfig = SweepConfig()) -> SweepResult:
    """Joint conditioning accuracy of two binary attributes vs their direction cosine.

    Builds a fresh two-attribute world per cosine value, trains on it, and
    measures latent-modification accuracy. Invalid cosine values are
    collected as (value, message) errors instead of aborting the sweep.
    """
    names = ("alpha", "beta")
    rows: list[SweepRow] = []
    errors: list[tuple[float, str]] = []
    for i, c in enumerate(cos_values):
        c = float(c)
        if not (-1.0 < c < 1.0):
            errors.append((c, f"cosine {c} outside the open interval (-1, 1)"))
            continue
        try:
            world_cfg = WorldConfig(
                dim=cfg.dim,
                attributes=(
                    AttributeSchema.binary(names[0], "off", "on"),
                    AttributeSchema.binary(names[1], "off", "on"),
                ),
                entanglement=np.array([[1.0, c], [c, 1.0]]),
                seed=cfg.seed + 7919 * i,
            )
            world = build_world(world_cfg)
            bundle = run_training(world, n_samples, replace(cfg.train, seed=cfg.train.seed + i))
            report = eval_latent_modification(
                bundle, world, trials,
                EvalConfig(seed=cfg.seed + i, director=cfg.director, rounds=cfg.rounds),
            )
            rows.append(SweepRow(c, report.accuracy, report.joint_discrete_accuracy))
        except (WorldConfigError, UnlearnableAttributeError, ValueError) as exc:
            errors.append((c, str(exc)))
    return SweepResult(tuple(rows), tuple(errors), names)

