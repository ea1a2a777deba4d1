#!/usr/bin/env python3
"""Steering latents: the single-step conditioning update, mode by mode.

For each mismatched discrete attribute the latent moves along the model's
unit normal far enough to cross the boundary plus a margin; each
continuous attribute moves along the regression slope far enough to land
the prediction exactly on the target. Everything is summed into one step.

The paper_literal modes keep the uncorrected formulas: the negated
crossing step moves away from the boundary instead of across it, and the
uncalibrated continuous step misses the target whenever the slope norm
is not 1. Both are kept so the difference stays measurable.
"""

import numpy as np

from latentsteer import (
    AttributeSchema,
    ConditioningSpec,
    DirectorConfig,
    TrainingConfig,
    WorldConfig,
    build_world,
    condition,
    run_training,
    sample_latents,
    signed_distance,
)

attrs = (
    AttributeSchema.binary("style", "tee", "dress"),
    AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
    AttributeSchema.continuous("smile", 0.0, 1.0),
)
world = build_world(WorldConfig(dim=32, attributes=attrs, continuous_profile="sigmoid", seed=2))
bundle = run_training(world, 5000, TrainingConfig(epochs=800, seed=1))

z = sample_latents(1, 32, seed=11)[0]
spec = ConditioningSpec({"style": "dress", "hair": "blond"}, {"smile": 0.8})

report = condition(z, spec, bundle, DirectorConfig(delta_margin=0.5))
print("targets:            ", {**spec.discrete, **spec.continuous})
print("labels before:      ", report.labels_before.discrete,
      {k: round(v, 4) for k, v in report.labels_before.continuous.items()})
print("choose vector:      ", report.choose.as_dict())
print("labels after:       ", report.labels_after.discrete,
      {k: round(v, 4) for k, v in report.labels_after.continuous.items()})
print("multiclass redirects:", report.multiclass_moves)
print("move size |z' - z|: ", round(float(np.linalg.norm(report.z_prime - report.z)), 4))

# crossing detail on a single attribute: the landing distance equals delta
style = bundle.models["style"]
flip_to = "dress" if report.labels_before.discrete["style"] == "tee" else "tee"
single = condition(z, ConditioningSpec({"style": flip_to}), bundle, DirectorConfig(delta_margin=0.5))
print(f"\nsingle-attribute flip: distance before {signed_distance(z, style.hyperplane):+.4f}, "
      f"after {signed_distance(single.z_prime, style.hyperplane):+.4f} (|after| = delta)")

# the literal sign convention cannot perform that flip
literal = condition(z, ConditioningSpec({"style": flip_to}), bundle,
                    DirectorConfig(delta_margin=0.5, sign_convention="paper_literal"))
print(f"literal mode lands at {literal.labels_after.discrete['style']!r} "
      f"(wanted {flip_to!r}): the uncorrected step moves away from the boundary")

# calibration: with a slope of norm 2, the raw continuous step overshoots 2x
from latentsteer import Hyperplane, LatentRegressor, ModelBundle

slope = np.zeros(4)
slope[0] = 2.0
toy = ModelBundle(
    (AttributeSchema.continuous("v", -100.0, 100.0),),
    {"v": LatentRegressor(Hyperplane(slope, 0.0))},
)
z4 = np.array([1.0, 1.0, 0.0, 0.0])
for calibration in ("calibrated", "paper_literal"):
    out = condition(z4, ConditioningSpec(continuous={"v": 3.0}), toy,
                    DirectorConfig(continuous_calibration=calibration))
    print(f"{calibration:>14}: prediction 2.0 -> {out.labels_after.continuous['v']:.1f} (target 3.0)")
