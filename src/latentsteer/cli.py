"""Command-line interface: world-init, train, generate, eval, sweep.

Exit codes: 0 success, 2 usage or configuration error, 3 training or
runtime failure. All randomness is controlled by explicit --seed flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .director import ConditioningSpec, DirectorConfig, condition
from .errors import (
    ConditioningError,
    DegenerateModelError,
    DivergenceError,
    LatentSteerError,
    UnlearnableAttributeError,
)
from .geometry import sample_latents
from .models import TrainingConfig
from .persist import (
    load_bundle,
    load_world,
    parse_world_config,
    save_bundle,
    save_world,
    write_pgm,
    _read_json,
)
from .pipeline import (
    CosineReport,
    EvalConfig,
    SweepConfig,
    cosine_report,
    eval_end_to_end,
    eval_latent_modification,
    run_training,
    sweep_entanglement,
)
from .world import build_world, generate_image

USAGE_ERROR = 2
RUNTIME_ERROR = 3


def _director_config(args) -> DirectorConfig:
    return DirectorConfig(
        delta_margin=args.delta,
        sign_convention=args.sign_mode,
        continuous_calibration=args.calibration,
        multiclass_max_redirects=args.max_redirects,
    )


def _add_director_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.5, help="overshoot past a crossed hyperplane")
    p.add_argument("--sign-mode", choices=["corrected", "paper_literal"], default="corrected")
    p.add_argument("--calibration", choices=["calibrated", "paper_literal"], default="calibrated")
    p.add_argument("--max-redirects", type=int, default=3)


def parse_conditioning(cond: str, schema) -> ConditioningSpec:
    """Parse 'name=value,name=value' against a schema."""
    by_name = {a.name: a for a in schema}
    discrete: dict[str, str] = {}
    continuous: dict[str, float] = {}
    for token in cond.split(","):
        token = token.strip()
        if not token:
            raise ConditioningError(f"empty assignment in conditioning string {cond!r}")
        name, sep, value = token.partition("=")
        name, value = name.strip(), value.strip()
        if not sep or not name or not value:
            raise ConditioningError(f"malformed assignment {token!r}; expected name=value")
        attr = by_name.get(name)
        if attr is None:
            raise ConditioningError(
                f"unknown attribute {name!r}; legal attributes: {sorted(by_name)}"
            )
        if attr.is_discrete:
            if value not in attr.classes:
                raise ConditioningError(
                    f"unknown class {value!r} for attribute {name!r}; "
                    f"legal classes: {list(attr.classes)}"
                )
            discrete[name] = value
        else:
            try:
                continuous[name] = float(value)
            except ValueError:
                raise ConditioningError(
                    f"attribute {name!r} needs a numeric target in "
                    f"[{attr.lo}, {attr.hi}], got {value!r}"
                ) from None
    return ConditioningSpec(discrete, continuous)


def cmd_world_init(args) -> int:
    payload = _read_json(args.config)
    cfg = parse_world_config(payload, where=str(args.config))
    world = build_world(cfg)
    save_world(world, args.out)
    names = [name if cls is None else f"{name}:{cls}" for name, cls in world.slots]
    print(f"world written to {args.out}")
    print("realized entanglement (pairwise direction cosines):")
    print(CosineReport(tuple(names), world.realized_entanglement()).render())
    return 0


def cmd_train(args) -> int:
    world = load_world(args.world)
    cfg = TrainingConfig(epochs=args.epochs, l2_penalty=args.l2_penalty,
                         split_fraction=args.split_fraction, seed=args.seed)
    bundle = run_training(world, args.n, cfg)
    save_bundle(bundle, args.out)
    print(f"bundle written to {args.out}")
    print(f"{'attribute':<20} {'kind':<12} {'iterations':>10} {'max |grad|':>10} "
          f"{'held-out metric':>16}")
    for attr in bundle.schema:
        metric = bundle.provenance.metrics[attr.name]
        label = "accuracy" if attr.is_discrete else "rmse"
        meta = bundle.models[attr.name].training_meta
        iters, grad = (meta.epochs_run, f"{meta.grad_norm:.1e}") if attr.is_discrete else ("-", "-")
        print(f"{attr.name:<20} {attr.kind:<12} {iters:>10} {grad:>10} {label + f' {metric:.4f}':>16}")
    return 0


def cmd_generate(args) -> int:
    bundle = load_bundle(args.bundle)
    world = load_world(args.world)
    spec = parse_conditioning(args.cond, bundle.schema)
    z = sample_latents(1, bundle.latent_dim, args.seed)[0]
    report = condition(z, spec, bundle, _director_config(args))

    print(f"seed={args.seed}  delta={args.delta}  sign={args.sign_mode}  "
          f"calibration={args.calibration}")
    print(f"choose bits: {report.choose.as_dict()}")
    print(f"{'attribute':<16} {'before':>12} {'after':>12} {'target':>12}")
    for name, value in report.labels_before.discrete.items():
        target = spec.discrete.get(name, "-")
        print(f"{name:<16} {value:>12} {report.labels_after.discrete[name]:>12} {target:>12}")
    for name, value in report.labels_before.continuous.items():
        target = spec.continuous.get(name)
        target_s = "-" if target is None else f"{target:.4f}"
        print(f"{name:<16} {value:>12.4f} {report.labels_after.continuous[name]:>12.4f} "
              f"{target_s:>12}")
    if report.distances_before:
        print(f"{'attribute':<16} {'dist before':>12} {'dist after':>12}")
        for name, s in report.distances_before.items():
            print(f"{name:<16} {s:>12.4f} {report.distances_after[name]:>12.4f}")
    moved = "yes" if report.moved else "no (already satisfied)"
    print(f"latent moved: {moved}")

    if args.dump_image:
        out_dir = Path(args.dump_image)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_pgm(generate_image(world, report.z), out_dir / "before.pgm")
        write_pgm(generate_image(world, report.z_prime), out_dir / "after.pgm")
        print(f"images written to {out_dir / 'before.pgm'} and {out_dir / 'after.pgm'}")
    return 0


def cmd_eval(args) -> int:
    bundle = load_bundle(args.bundle)
    world = load_world(args.world)
    if args.mode == "cosine":
        report = cosine_report(bundle)
    else:
        if args.trials < 1:
            raise ConditioningError(f"--trials must be at least 1, got {args.trials}")
        cfg = EvalConfig(seed=args.seed, director=_director_config(args), rounds=args.rounds)
        runner = eval_latent_modification if args.mode == "latent" else eval_end_to_end
        report = runner(bundle, world, args.trials, cfg)
    print(report.render())
    if args.out_csv:
        Path(args.out_csv).write_text(report.csv_text(), encoding="utf-8")
        print(f"csv written to {args.out_csv}")
    return 0


def cmd_sweep(args) -> int:
    try:
        cos_values = [float(tok) for tok in args.cos.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConditioningError(f"--cos must be a comma-separated list of reals, got {args.cos!r}") from None
    cfg = SweepConfig(
        dim=args.dim,
        seed=args.seed,
        train=TrainingConfig(seed=args.seed),
        director=DirectorConfig(delta_margin=args.delta),
        rounds=args.rounds,
    )
    result = sweep_entanglement(cos_values, args.trials, args.n, cfg)
    Path(args.out).write_text(result.csv_text(), encoding="utf-8")
    print(f"csv written to {args.out}")
    for row in result.rows:
        accs = "  ".join(f"{k}={v:.4f}" for k, v in row.accuracy.items())
        print(f"cosine {row.cosine:+.3f}: {accs}  joint={row.joint_accuracy:.4f}")
    for value, message in result.errors:
        print(f"skipped cosine {value}: {message}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentsteer",
        description="Steer generator latents along learned linear attribute directions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("world-init", help="build a synthetic world from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_world_init)

    p = sub.add_parser("train", help="train latent models against a world")
    p.add_argument("--world", required=True)
    p.add_argument("--n", type=int, required=True, help="number of training samples")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=500, help="cap on Newton iterations per fit")
    p.add_argument("--l2-penalty", type=float, default=1e-4)
    p.add_argument("--split-fraction", type=float, default=0.8)
    # accepted and ignored: the Newton fit takes no step size or momentum
    p.add_argument("--learning-rate", "--momentum", type=float, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample a latent and steer it to a conditioning string")
    p.add_argument("--bundle", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--cond", required=True, help='e.g. "style=dress,pose=front,smile=0.8"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-image", default=None, help="directory for before.pgm/after.pgm")
    _add_director_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="evaluate a bundle against its world")
    p.add_argument("--bundle", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--mode", choices=["latent", "end2end", "cosine"], required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    _add_director_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs configured direction cosine, as CSV")
    p.add_argument("--cos", required=True, help='comma-separated cosines, e.g. "0.0,0.57,0.9"')
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UnlearnableAttributeError, DivergenceError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except (LatentSteerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
