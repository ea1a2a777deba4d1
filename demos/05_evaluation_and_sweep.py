#!/usr/bin/env python3
"""The evaluation harness: two judges and an entanglement sweep.

Latent-modification accuracy asks the steering models themselves whether
each trial landed in the desired subspace; end-to-end accuracy asks the
world's image pathway instead. The sweep then shows how single-step joint
accuracy decays as two attribute directions are forced toward parallel.
"""

import numpy as np

from latentsteer import (
    AttributeSchema,
    EvalConfig,
    SweepConfig,
    TrainingConfig,
    WorldConfig,
    build_world,
    cosine_report,
    eval_end_to_end,
    eval_latent_modification,
    run_training,
    sweep_entanglement,
)

ent = np.array([[1.0, 0.57], [0.57, 1.0]])
attrs = (
    AttributeSchema.binary("pose", "back", "front"),
    AttributeSchema.binary("style", "tee", "dress"),
)
world = build_world(WorldConfig(dim=64, attributes=attrs, entanglement=ent, seed=57))
bundle = run_training(world, 10000, TrainingConfig(learning_rate=1.0, epochs=1000, seed=3))

print("cosine matrix of the learned directions:")
print(cosine_report(bundle).render())

latent = eval_latent_modification(bundle, world, 5000, EvalConfig(seed=99))
e2e = eval_end_to_end(bundle, world, 5000, EvalConfig(seed=99))
print("\n" + latent.render())
print("\n" + e2e.render())

print("\nsweep: joint accuracy vs configured direction cosine")
cfg = SweepConfig(dim=32, seed=0, train=TrainingConfig(learning_rate=1.0, epochs=600, seed=1))
result = sweep_entanglement([0.0, 0.3, 0.57, 0.8, 0.95], trials=2000, n_samples=4000, cfg=cfg)
for row in result.rows:
    bar = "#" * int(40 * row.joint_accuracy)
    print(f"  cos {row.cosine:+.2f}  joint {row.joint_accuracy:.3f}  {bar}")
print("\nCSV:")
print(result.csv_text())
