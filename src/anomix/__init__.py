"""Semi-supervised anomaly scoring for tabular data.

Trains a small dense scorer end to end on a handful of labeled anomalies
plus a large (possibly contaminated) unlabeled pool. Supervision comes
from convex mixes of training rows carrying graded targets, a consistency
penalty on mixed-sample scores, a triplet margin on the intermediate
representation, and a softmax balance between the two losses.
"""

from .artifact import ModelArtifact, load_model, save_model
from .data import (
    Dataset,
    NormState,
    Role,
    generate_case,
    generate_toy,
    load_csv,
    load_features,
    minmax_normalize,
    normalize_features,
    prepare_training,
    split_dataset,
    write_csv,
)
from .metrics import MetricsReport, evaluate_scores
from .scorer import ScorerParams, score, score_batch
from .training import TrainConfig, train

__version__ = "0.1.0"

# What running the CLI's workflow from Python needs: synth, load, split and
# prepare, train, save and load, score, evaluate. Everything else stays
# importable from its submodule.
__all__ = [
    "Dataset", "MetricsReport", "ModelArtifact", "NormState", "Role", "ScorerParams",
    "TrainConfig", "evaluate_scores", "generate_case", "generate_toy", "load_csv",
    "load_features", "load_model", "minmax_normalize", "normalize_features",
    "prepare_training", "save_model", "score", "score_batch", "split_dataset", "train",
    "write_csv",
]
