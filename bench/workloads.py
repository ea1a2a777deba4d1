"""The benchmark's three workloads over one shared synthetic world.

Every workload has a set-up, timed as setup_s and repeated in batches
spread over the run, and an operation, repeated in between until the run's
time is spent:

  train     run_training on 10,000 samples (the acceptance-suite fit size),
            then save_bundle; the operation times run_training alone
  steer     a chunk of eval_latent_modification trials followed by the same
            number of eval_end_to_end trials, against a bundle fitted in set-up
  generate  one in-process `latentsteer generate --dump-image` request,
            against the world and bundle files set-up wrote

The world, the training seed and so every fitted bundle are the same in
every run, so the quality metrics repeat exactly where they do not depend on
the trials; the seed draws everything else.

Every fitted bundle passes `check_bundle`: it round-trips byte-exactly,
steers to the acceptance bars, and serves one CLI request. An operation
(a set-up, a timed operation or the closing quality checks) fails when it
raises or any of its checks fails, so a fast but wrong run is not a result.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import latentsteer
from latentsteer import cli, persist, pipeline, world as world_mod
from latentsteer.models import AttributeSchema, TrainingConfig
from latentsteer.pipeline import EvalConfig
from latentsteer.world import BLOCK_SIZE, SyntheticImage, WorldConfig

ATTRIBUTES = (
    AttributeSchema.binary("style", "tee", "dress"),
    AttributeSchema.binary("pose", "back", "front"),
    AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
    AttributeSchema.continuous("smile", 0.0, 1.0),
)
STYLE_POSE_COSINE = 0.57  # the entanglement of acceptance criterion 08
WORLD_SEED = 57           # the world of acceptance criterion 08
FIT_SEED = 3              # the training seed of acceptance criterion 08
LABEL_NOISE = 0.02        # non-zero, so oracle_label draws its per-sample noise
BINARY_BAR = 0.80         # criterion 08: binary accuracy at cosine 0.57
MULTICLASS_BAR = 0.95     # criterion 09: multiclass target reached within the redirect budget


@dataclass(frozen=True)
class Sizes:
    train_n: int = 10_000        # samples per run_training in train
    # samples fitted in the steer and generate set-ups: steering costs the
    # same whatever the fit size, and a smaller fit leaves the run's time
    # budget to the measured operations
    setup_fit_n: int = 2_000
    epochs: int = 1000
    chunk_trials: int = 500      # steer trials per eval call
    # trials per eval in check_bundle: the binary bars sit about 0.05 below
    # the measured accuracy, which is 4.5 standard errors at 1000 trials
    check_trials: int = 1000
    # set-up batches, spread evenly over the run so that setup_s samples the
    # same host conditions as the operations; a batch repeats the set-up
    # until setup_batch_s has passed, so a set-up of milliseconds gives many
    setup_batches: int = 8
    setup_batch_s: float = 0.2


TINY = Sizes(train_n=2000, setup_fit_n=2000, epochs=200, chunk_trials=100, setup_batches=2,
             setup_batch_s=0.0)


class Checks:
    """Operations attempted and failed; an operation fails if any of its checks fails."""

    def __init__(self):
        self.ops: list[str] = []
        self.failed_ops: set[str] = set()
        self.failures: list[str] = []

    def begin(self, op: str) -> None:
        """Start an operation; the checks that follow count against it."""
        self.ops.append(op)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            op = self.ops[-1]
            self.failed_ops.add(op)
            self.failures.append(f"{op} {name}: {detail}" if detail else f"{op} {name}")
        return ok

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


@dataclass
class Context:
    """One run's inputs, all drawn from the workload seed, and its working files."""

    seed: int
    sizes: Sizes
    workdir: Path
    checks: Checks = field(default_factory=Checks)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.check_seed, self.eval_seed = (int(v) for v in self.rng.integers(2**31, size=2))
        self.train_cfg = TrainingConfig(learning_rate=1.0, epochs=self.sizes.epochs,
                                        seed=FIT_SEED)
        self.world_path = self.workdir / "world.json"
        self.bundle_path = self.workdir / "bundle.json"
        self.world = None
        self.bundle = None


def world_config(seed: int = WORLD_SEED) -> WorldConfig:
    slots = len(world_mod.direction_slots(ATTRIBUTES))
    ent = np.eye(slots)
    ent[0, 1] = ent[1, 0] = STYLE_POSE_COSINE
    return WorldConfig(dim=64, attributes=ATTRIBUTES, entanglement=ent, label_noise=LABEL_NOISE,
                       continuous_profile="sigmoid", seed=seed)


def read_pgm(path: Path) -> np.ndarray:
    """Pixels of an ASCII PGM as values in [0, 1]; raises ValueError on a malformed file."""
    tokens = path.read_text(encoding="ascii").split()
    if tokens[:1] != ["P2"] or tokens[3] != "255":
        raise ValueError(f"{path.name}: not an 8-bit ASCII PGM")
    w, h = int(tokens[1]), int(tokens[2])
    pixels = np.array([int(t) for t in tokens[4:]], dtype=np.float64)
    if pixels.size != w * h:
        raise ValueError(f"{path.name}: {pixels.size} pixels for a {w}x{h} header")
    return pixels.reshape(h, w) / 255.0


def random_condition(rng: np.random.Generator) -> tuple[str, dict]:
    """A non-empty random subset of attributes with random targets, as CLI text and a dict."""
    targets: dict[str, object] = {}
    while not targets:
        for attr in ATTRIBUTES:
            if rng.random() < 0.75:
                if attr.is_discrete:
                    targets[attr.name] = attr.classes[int(rng.integers(len(attr.classes)))]
                else:
                    pad = 0.1 * (attr.hi - attr.lo)
                    targets[attr.name] = round(float(rng.uniform(attr.lo + pad, attr.hi - pad)), 4)
    return ",".join(f"{k}={v}" for k, v in targets.items()), targets


def cli_generate(ctx: Context, seed: int, cond: str, out_dir: Path) -> tuple[int, float]:
    """One `latentsteer generate` request, in process; returns (exit code, seconds)."""
    argv = ["generate", "--bundle", str(ctx.bundle_path), "--world", str(ctx.world_path),
            "--cond", cond, "--seed", str(seed), "--dump-image", str(out_dir)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    return code, elapsed


def check_images(ctx: Context, out_dir: Path, code: int, what: str):
    """Gate one request: exit 0 and both PGMs of the world's size; returns the after-image."""
    checks = ctx.checks
    if not checks.check(f"{what} exit code", code == 0, f"exit {code}"):
        return None
    shape = (BLOCK_SIZE, BLOCK_SIZE * (len(ATTRIBUTES) + 1))
    images = {}
    for name in ("before.pgm", "after.pgm"):
        try:
            images[name] = read_pgm(out_dir / name)
        except (OSError, ValueError, IndexError) as exc:
            checks.check(f"{what} {name}", False, repr(exc))
            return None
        if not checks.check(f"{what} {name} size", images[name].shape == shape,
                            f"{images[name].shape} != {shape}"):
            return None
    return images["after.pgm"]


def steering_bars(checks: Checks, accuracy: dict, what: str, multiclass: bool) -> None:
    """Criterion 08 bar on every binary attribute and, if asked, criterion 09 on multiclass."""
    for attr in ATTRIBUTES:
        if attr.kind == "binary" or (multiclass and attr.kind == "multiclass"):
            bar = BINARY_BAR if attr.kind == "binary" else MULTICLASS_BAR
            acc = accuracy[attr.name]
            checks.check(f"{what} {attr.name} accuracy >= {bar}", acc >= bar, f"{acc:.4f}")


def check_bundle(ctx: Context, bundle) -> bytes:
    """Gate a freshly fitted bundle; returns its saved bytes.

    save -> load -> save must be byte-exact; steering must meet the criterion
    08/09 bars judged by the latent models (08 also through the image
    pathway); one CLI request against the saved files must succeed.
    """
    checks = ctx.checks
    persist.save_bundle(bundle, ctx.bundle_path)
    saved = ctx.bundle_path.read_bytes()
    ctx.bundle = persist.load_bundle(ctx.bundle_path)
    again = ctx.workdir / "bundle-again.json"
    persist.save_bundle(ctx.bundle, again)
    checks.check("bundle save-load-save byte-exact", again.read_bytes() == saved)

    cfg = EvalConfig(seed=ctx.check_seed)
    latent = pipeline.eval_latent_modification(ctx.bundle, ctx.world, ctx.sizes.check_trials, cfg)
    steering_bars(checks, latent.accuracy, "check latent", multiclass=True)
    e2e = pipeline.eval_end_to_end(ctx.bundle, ctx.world, ctx.sizes.check_trials, cfg)
    steering_bars(checks, e2e.accuracy, "check end2end", multiclass=False)

    out_dir = ctx.workdir / "check-images"
    code, _ = cli_generate(ctx, ctx.check_seed, "style=dress,pose=front,hair=blond,smile=0.7",
                           out_dir)
    check_images(ctx, out_dir, code, "check request")
    return saved


def direction_cosine_min(bundle, world) -> float:
    """Lowest cosine between a learned direction and the true one, as criterion 06 computes it."""
    cos = []
    for attr in bundle.schema:
        model = bundle.model_for(attr.name)
        if attr.kind == "multiclass":
            truth = {c: world.direction_for(attr.name, c) for c in attr.classes}
            for c in attr.classes:
                true_ovr = truth[c] - np.mean([truth[o] for o in truth if o != c], axis=0)
                cos.append(latentsteer.cosine_similarity(model.one_vs_rest_direction(c), true_ovr))
        else:
            learned = model.hyperplane.direction if attr.kind == "binary" else model.line.direction
            cos.append(latentsteer.cosine_similarity(learned, world.direction_for(attr.name)))
    return float(min(cos))


# --------------------------------------------------------------------------
# workloads: setup(), op(k) -> (seconds timed, items done), after_op(), quality()
# --------------------------------------------------------------------------

class Workload:
    name = ""
    item = ""
    fits_in_setup = False  # steer and generate fit a bundle in set-up; train fits in its operation

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.setup_bytes: bytes | None = None

    def setup(self) -> None:
        """Build and save the world; fit, save and check a bundle when the workload needs one."""
        ctx = self.ctx
        ctx.world = world_mod.build_world(world_config())
        persist.save_world(ctx.world, ctx.world_path)
        loaded = persist.load_world(ctx.world_path)
        again = ctx.workdir / "world-again.json"
        persist.save_world(loaded, again)
        ctx.checks.check("world save-load-save byte-exact",
                         again.read_bytes() == ctx.world_path.read_bytes())
        if self.fits_in_setup:
            bundle = pipeline.run_training(ctx.world, ctx.sizes.setup_fit_n, ctx.train_cfg)
            saved = check_bundle(ctx, bundle)
            if self.setup_bytes is not None:
                ctx.checks.check("set-up bundle bytes identical across repeats",
                                 saved == self.setup_bytes)
            self.setup_bytes = saved

    def after_op(self) -> None:
        """Checks on the last operation that stay out of its trace."""


class Train(Workload):
    name = "train"
    item = "training samples"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.first_bytes = None
        self.heldout = None

    def op(self, k):
        ctx = self.ctx
        t0 = perf_counter()
        bundle = pipeline.run_training(ctx.world, ctx.sizes.train_n, ctx.train_cfg)
        elapsed = perf_counter() - t0
        saved = check_bundle(ctx, bundle)
        if self.first_bytes is None:
            self.first_bytes = saved
            self.heldout = bundle.provenance.metrics
        ctx.checks.check("bundle bytes identical across repeats", saved == self.first_bytes)
        return elapsed, ctx.sizes.train_n

    def quality(self):
        discrete = [self.heldout[a.name] for a in ATTRIBUTES if a.is_discrete]
        return {"accuracy": min(discrete), "smile_rmse": self.heldout["smile"],
                "dir_cos_min": direction_cosine_min(self.ctx.bundle, self.ctx.world)}


class Steer(Workload):
    name = "steer"
    item = "eval trials"
    fits_in_setup = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.latent, self.e2e = [], []

    def op(self, k):
        ctx = self.ctx
        cfg = EvalConfig(seed=ctx.eval_seed + k)
        n = ctx.sizes.chunk_trials
        t0 = perf_counter()
        latent = pipeline.eval_latent_modification(ctx.bundle, ctx.world, n, cfg)
        e2e = pipeline.eval_end_to_end(ctx.bundle, ctx.world, n, cfg)
        elapsed = perf_counter() - t0
        self.latent.append(latent)
        self.e2e.append(e2e)
        return elapsed, 2 * n

    def quality(self):
        # every chunk has the same trial count, so plain means pool them exactly
        pooled = {a.name: statistics.fmean(r.accuracy[a.name] for r in self.latent)
                  for a in ATTRIBUTES if a.is_discrete}
        steering_bars(self.ctx.checks, pooled, "steer latent", multiclass=True)
        joint_latent = statistics.fmean(r.joint_discrete_accuracy for r in self.latent)
        joint_e2e = statistics.fmean(r.joint_discrete_accuracy for r in self.e2e)
        rmse = float(np.sqrt(statistics.fmean(r.rmse["smile"] ** 2 for r in self.e2e)))
        return {"accuracy": min(joint_latent, joint_e2e), "smile_rmse": rmse,
                "dir_cos_min": direction_cosine_min(self.ctx.bundle, self.ctx.world),
                "joint_latent": joint_latent, "joint_e2e": joint_e2e}


class Generate(Workload):
    name = "generate"
    item = "requests"
    fits_in_setup = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.out_dir = ctx.workdir / "images"
        self.hits = 0
        self.requests = 0
        self.sq_err: list[float] = []
        self.last_request = None  # (exit code, condition targets) of the last request

    def op(self, k):
        ctx = self.ctx
        cond, targets = random_condition(ctx.rng)
        seed = int(ctx.rng.integers(2**31))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, elapsed = cli_generate(ctx, seed, cond, self.out_dir)
        self.last_request = (code, targets)
        return elapsed, 1

    def after_op(self):
        """Gate the last request and read its after-image the way eval_end_to_end judges."""
        ctx = self.ctx
        code, targets = self.last_request
        after = check_images(ctx, self.out_dir, code, "request")
        if after is None:
            return
        labels = world_mod.oracle_label(ctx.world, SyntheticImage(after), 0, label_noise=0.0)
        self.requests += 1
        self.hits += all(labels.discrete[k] == v for k, v in targets.items()
                         if k in labels.discrete)
        if "smile" in targets:
            self.sq_err.append((labels.continuous["smile"] - targets["smile"]) ** 2)

    def quality(self):
        return {"accuracy": self.hits / max(self.requests, 1),
                "smile_rmse": float(np.sqrt(statistics.fmean(self.sq_err))),
                "dir_cos_min": direction_cosine_min(self.ctx.bundle, self.ctx.world)}


WORKLOADS = {w.name: w for w in (Train, Steer, Generate)}
