"""End-to-end training and evaluation over the synthetic world.

run_training drives the generator/oracle loop and fits one latent model per
attribute. The eval functions steer freshly sampled latents toward random
targets and score the outcome two ways: by the latent models themselves and
by the world's own image pathway. sweep_entanglement repeats the whole
exercise across a range of configured direction cosines.

Per-trial randomness is derived from (seed, trial index), so results do not
depend on execution order; trials are steered in blocks through
`condition_batch` and judged one by one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .director import ConditioningSpec, DirectorConfig, condition_batch, latent_labels
from .errors import UnlearnableAttributeError, WorldConfigError
from .geometry import Hyperplane, pairwise_cosines, sample_latents
from .models import (
    BINARY,
    MULTICLASS,
    AttributeSchema,
    BinaryLatentClassifier,
    BundleProvenance,
    LatentRegressor,
    ModelBundle,
    MultiClassLatentClassifier,
    TrainingConfig,
    fit_binary,
    fit_multiclass,
    fit_regressor,
)
from .world import AttributeLabels, SyntheticWorld, WorldConfig, build_world, generate_image, oracle_label

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

# trials steered per condition_batch call: bounds the eval's working set
# while amortising the per-call cost
STEER_BLOCK = 256


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
        if attr.kind == BINARY:
            h = Hyperplane(world.direction_for(attr.name), world.intercept_for(attr.name))
            models[attr.name] = BinaryLatentClassifier(h, attr.classes[1], attr.classes[0])
        elif attr.kind == MULTICLASS:
            weights = np.stack([world.direction_for(attr.name, c) for c in attr.classes])
            intercepts = np.array([world.intercept_for(attr.name, c) for c in attr.classes])
            models[attr.name] = MultiClassLatentClassifier(weights, intercepts, attr.classes)
        else:
            h = Hyperplane(world.direction_for(attr.name), world.intercept_for(attr.name))
            models[attr.name] = LatentRegressor(h)
    return ModelBundle(tuple(world.config.attributes), models)


def run_training(world: SyntheticWorld, n_samples: int,
                 cfg: TrainingConfig = TrainingConfig()) -> ModelBundle:
    """Sample latents, label them through the image pathway, fit every attribute.

    Classifiers take damped Newton steps (at most cfg.epochs), the regression
    line is solved in closed form. Each fit holds out a test fold per
    cfg.split_fraction and records its held-out metric in the bundle
    provenance. Deterministic given the world and cfg.seed.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    dim = world.latent_dim
    Z = sample_latents(n_samples, dim, cfg.seed)
    if world.config.label_noise > 0.0:
        noise_seeds = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 1))
        ).integers(2**62, size=n_samples)
    else:
        noise_seeds = np.zeros(n_samples, dtype=np.int64)

    labels = [
        oracle_label(world, generate_image(world, Z[i]), int(noise_seeds[i]))
        for i in range(n_samples)
    ]

    models = {}
    metrics: dict[str, float] = {}
    for attr in world.config.attributes:
        try:
            if attr.is_discrete:
                y = [lab.discrete[attr.name] for lab in labels]
                model = (fit_binary(Z, y, cfg, positive_class=attr.classes[1])
                         if attr.kind == BINARY else fit_multiclass(Z, y, cfg, class_names=attr.classes))
            else:
                model = fit_regressor(Z, [lab.continuous[attr.name] for lab in labels], cfg)
        except UnlearnableAttributeError as exc:
            raise UnlearnableAttributeError(f"attribute {attr.name!r}: {exc}") from exc
        models[attr.name] = model
        meta = model.training_meta
        metrics[attr.name] = meta.test_accuracy if attr.is_discrete else meta.test_rmse

    provenance = BundleProvenance(
        world_seed=world.config.seed,
        n_samples=n_samples,
        train_config=cfg,
        metrics=metrics,
    )
    return ModelBundle(tuple(world.config.attributes), models, provenance)


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


@dataclass(frozen=True)
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


def _random_spec(schema: Sequence[AttributeSchema], rng: np.random.Generator) -> ConditioningSpec:
    """One target per attribute: uniform class, or uniform over the middle 80% of the range."""
    discrete: dict[str, str] = {}
    continuous: dict[str, float] = {}
    for attr in schema:
        if attr.is_discrete:
            discrete[attr.name] = attr.classes[int(rng.integers(len(attr.classes)))]
        else:
            pad = 0.1 * (attr.hi - attr.lo)
            continuous[attr.name] = float(rng.uniform(attr.lo + pad, attr.hi - pad))
    return ConditioningSpec(discrete, continuous)


def _steer(Z: np.ndarray, specs: list[ConditioningSpec], bundle: ModelBundle,
           cfg: EvalConfig) -> np.ndarray:
    """Steer the rows of Z in place; each round after the first takes only unsatisfied rows."""
    todo = np.arange(len(Z))
    for _ in range(cfg.rounds):
        step = condition_batch(Z[todo], [specs[i] for i in todo], bundle, cfg.director)
        Z[todo] = step.z_prime
        todo = todo[~step.satisfied]
        if not todo.size:
            break
    return Z


def _run_trials(bundle: ModelBundle, world: SyntheticWorld, trials: int, cfg: EvalConfig,
                judge: Callable[[np.ndarray], AttributeLabels], mode: str) -> EvalReport:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    schema = bundle.schema
    dim = bundle.latent_dim
    if dim != world.latent_dim:
        raise WorldConfigError(
            f"bundle latent dim {dim} does not match world dim {world.latent_dim}"
        )
    hits = {a.name: 0 for a in schema if a.is_discrete}
    sq_err = {a.name: 0.0 for a in schema if not a.is_discrete}
    joint_hits = 0

    for start in range(0, trials, STEER_BLOCK):
        Z = np.empty((min(STEER_BLOCK, trials - start), dim))
        specs = []
        for i in range(len(Z)):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, start + i)))
            Z[i] = rng.standard_normal(dim)
            specs.append(_random_spec(schema, rng))
        for z_prime, spec in zip(_steer(Z, specs, bundle, cfg), specs):
            outcome = judge(z_prime)
            all_discrete_ok = True
            for name, target in spec.discrete.items():
                ok = outcome.discrete[name] == target
                hits[name] += ok
                all_discrete_ok &= ok
            for name, target in spec.continuous.items():
                sq_err[name] += (outcome.continuous[name] - target) ** 2
            joint_hits += all_discrete_ok

    accuracy = {name: h / trials for name, h in hits.items()}
    rmse = {name: float(np.sqrt(s / trials)) for name, s in sq_err.items()}
    joint = joint_hits / trials if hits else None
    return EvalReport(mode, trials, cfg.seed, accuracy, rmse, joint)


def eval_latent_modification(bundle: ModelBundle, world: SyntheticWorld, trials: int,
                             cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Steer random latents to random targets; judge success with the latent models."""
    def judge(z_prime: np.ndarray) -> AttributeLabels:
        return latent_labels(bundle, z_prime)
    return _run_trials(bundle, world, trials, cfg, judge, mode="latent")


def eval_end_to_end(bundle: ModelBundle, world: SyntheticWorld, trials: int,
                    cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Steer random latents to random targets; judge by the noiseless image pathway."""
    def judge(z_prime: np.ndarray) -> AttributeLabels:
        return oracle_label(world, generate_image(world, z_prime), 0, label_noise=0.0)
    return _run_trials(bundle, world, trials, cfg, judge, mode="end2end")


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
        if attr.kind == BINARY:
            names.append(attr.name)
            vectors.append(model.hyperplane.direction)
        elif attr.kind == MULTICLASS:
            for cls in attr.classes:
                names.append(f"{attr.name}:{cls}")
                vectors.append(model.one_vs_rest_direction(cls))
        else:
            names.append(attr.name)
            vectors.append(model.line.direction)
    return CosineReport(tuple(names), pairwise_cosines(np.stack(vectors)))


@dataclass(frozen=True)
class SweepConfig:
    """Settings for the entanglement sweep's two-attribute worlds."""

    dim: int = 32
    seed: int = 0
    label_noise: float = 0.0
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
                label_noise=cfg.label_noise,
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

