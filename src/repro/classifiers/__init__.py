"""ER classifiers over the basic-metric feature matrix."""

from .base import BaseClassifier, accuracy_score, classifier_from_state
from .ensemble import BootstrapEnsemble
from .forest import LabelingRule, RandomForestClassifier, extract_labeling_rules
from .logistic import LogisticRegressionClassifier
from .mlp import MLPClassifier
from .subset import ColumnSubsetClassifier
from .tree import DecisionTreeClassifier, TreeNode, find_best_split, gini_impurity

__all__ = [
    "BaseClassifier",
    "BootstrapEnsemble",
    "ColumnSubsetClassifier",
    "DecisionTreeClassifier",
    "LabelingRule",
    "LogisticRegressionClassifier",
    "MLPClassifier",
    "RandomForestClassifier",
    "TreeNode",
    "accuracy_score",
    "classifier_from_state",
    "extract_labeling_rules",
    "find_best_split",
    "gini_impurity",
]
