"""Adversarial negative sampling for large-label-set linear classifiers."""

__version__ = "0.1.0"

from .data_io import (  # noqa: F401
    PcaProjection,
    SparseDataset,
    apply_pca_matrix,
    fit_pca,
    load_svmlight,
    reduce_multilabel,
    split,
)
from .aux_tree import AuxiliaryTree, fit_tree  # noqa: F401
from .linear_model import LinearClassifier  # noqa: F401
from .noise import AdversarialNoise, FrequencyNoise, UniformNoise, make_noise  # noqa: F401
from .training import TrainConfig, train  # noqa: F401
from .inference import PredictionConfig, evaluate  # noqa: F401
from .diagnostics import NonparametricProblem, SnrReport, snr  # noqa: F401
