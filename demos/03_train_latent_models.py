#!/usr/bin/env python3
"""The training loop: sample latents, label through the image pathway, fit.

One linear model per attribute, each a `LatentModel` of affine rows: a
logistic hyperplane (one row) per binary attribute, one softmax model (one
row per class) per multi-valued attribute, a ridge regression line (one
row) per continuous attribute. Because the world's true directions are
known, we can check how well the fits recover them.
"""

import numpy as np

from latentsteer import (
    AttributeSchema,
    TrainingConfig,
    WorldConfig,
    build_world,
    cosine_similarity,
    run_training,
)

attrs = (
    AttributeSchema.binary("style", "tee", "dress"),
    AttributeSchema.multiclass("hair", ("black", "brown", "blond")),
    AttributeSchema.continuous("level", -6.0, 6.0),
)
world = build_world(WorldConfig(dim=64, attributes=attrs, continuous_profile="linear", seed=41))

cfg = TrainingConfig(epochs=1500, l2_penalty=1e-6, seed=11)
bundle = run_training(world, 10000, cfg)

print("held-out metrics (accuracy for discrete, RMSE for continuous):")
for attr in bundle.schema:
    print(f"  {attr.name:<8} {bundle.provenance.metrics[attr.name]:.4f}")

d = bundle.models["style"].hyperplane.direction
g = world.direction_for("style")
print(f"\nstyle: cosine(learned direction, ground truth) = {cosine_similarity(d, g):.4f}")

mc = bundle.models["hair"]
for cls in ("black", "brown", "blond"):
    truths = {c: world.direction_for("hair", c) for c in ("black", "brown", "blond")}
    true_ovr = truths[cls] - np.mean([truths[c] for c in truths if c != cls], axis=0)
    cos = cosine_similarity(mc.one_vs_rest_direction(cls), true_ovr)
    print(f"hair:{cls}: one-vs-rest cosine vs ground truth = {cos:.4f}")

reg = bundle.models["level"]
print(f"level: slope cosine = {cosine_similarity(reg.hyperplane.direction, world.direction_for('level')):.6f}, "
      f"slope norm = {np.linalg.norm(reg.hyperplane.direction):.6f} (true readout has unit slope)")
