"""Classical ML baselines (Fried et al. 2013): SVM, decision tree, AdaBoost,
plus metrics and feature preprocessing — all from scratch on numpy."""

from repro.mlbase.metrics import accuracy
from repro.mlbase.preprocess import StandardScaler
from repro.mlbase.svm import LinearSVM, KernelSVM
from repro.mlbase.tree import DecisionTree
from repro.mlbase.adaboost import AdaBoost
from repro.mlbase.crossval import CrossValResult, cross_validate, kfold_indices

__all__ = [
    "accuracy",
    "StandardScaler",
    "LinearSVM", "KernelSVM",
    "DecisionTree",
    "AdaBoost",
    "CrossValResult", "cross_validate", "kfold_indices",
]
