"""Steer generator latent vectors along learned linear attribute directions.

Train linear classifiers/regressors over a latent space, read their
hyperplanes as attribute directions, and move any latent vector into the
subspace of desired attribute values in a single closed-form step. A
synthetic world with known ground-truth directions stands in for the
generator so every piece can be validated exactly.
"""

from .director import (
    BatchUpdate,
    ChooseVector,
    ConditioningSpec,
    DirectorConfig,
    UpdateReport,
    condition,
    condition_batch,
    latent_labels,
)
from .errors import (
    BundleIncompleteError,
    ConditioningError,
    DegenerateModelError,
    DimensionMismatchError,
    DivergenceError,
    FormatError,
    LatentSteerError,
    LayoutError,
    UnlearnableAttributeError,
    WorldConfigError,
)
from .geometry import (
    Hyperplane,
    as_latent,
    cosine_similarity,
    pairwise_cosines,
    project_to_hyperplane,
    sample_latents,
    signed_distance,
    unit_direction,
)
from .models import (
    AttributeSchema,
    BundleProvenance,
    Folds,
    LatentModel,
    ModelBundle,
    TrainingConfig,
    TrainingMeta,
    fit_binary,
    fit_multiclass,
    fit_regressor,
    split_folds,
)
from .pipeline import (
    CosineReport,
    EvalConfig,
    EvalReport,
    SweepConfig,
    SweepResult,
    cosine_report,
    eval_end_to_end,
    eval_latent_modification,
    ground_truth_bundle,
    run_training,
    sweep_entanglement,
)
from .persist import load_bundle, load_world, save_bundle, save_world, write_pgm
from .world import (
    AttributeLabels,
    SyntheticImage,
    SyntheticWorld,
    WorldConfig,
    build_world,
    generate_image,
    oracle_label,
    read_batch,
    render_batch,
)

__version__ = "0.1.0"
