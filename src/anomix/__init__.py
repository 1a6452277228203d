"""Semi-supervised anomaly scoring for tabular data.

Trains a small dense scorer end to end on a handful of labeled anomalies
plus a large (possibly contaminated) unlabeled pool. Supervision comes
from convex mixes of training rows carrying graded targets, a consistency
penalty on mixed-sample scores, a triplet margin on the intermediate
representation, and a softmax balance between the two losses.
"""

from .artifact import ModelArtifact, load_model, save_model
from .data import (
    ContaminationSpec,
    Dataset,
    NormState,
    Role,
    adjust_contamination,
    generate_case,
    generate_toy,
    inject_anomaly,
    load_csv,
    minmax_normalize,
    prepare_case_pair,
    prepare_dataset,
    prepare_training,
    select_labeled_anomalies,
    split_dataset,
    write_csv,
)
from .interpolation import AugmentedBatch, augment_batch, sample_weights
from .losses import LossState, dynamic_weight, update_epoch_averages
from .metrics import MetricsReport, auc_pr, auc_roc, evaluate_scores
from .scorer import ScorerParams, build_scorer, represent, score, score_batch
from .training import TrainConfig, TrainHistory, predict, sample_batches, train

__version__ = "0.1.0"

__all__ = [
    "AugmentedBatch", "ContaminationSpec", "Dataset", "LossState", "MetricsReport",
    "ModelArtifact", "NormState", "Role", "ScorerParams", "TrainConfig", "TrainHistory",
    "adjust_contamination", "augment_batch", "auc_pr", "auc_roc", "build_scorer",
    "dynamic_weight", "evaluate_scores", "generate_case", "generate_toy",
    "inject_anomaly", "load_csv", "load_model", "minmax_normalize", "predict",
    "prepare_case_pair", "prepare_dataset", "prepare_training", "represent",
    "sample_batches", "sample_weights", "save_model", "score", "score_batch",
    "select_labeled_anomalies", "split_dataset", "train", "update_epoch_averages",
    "write_csv",
]
