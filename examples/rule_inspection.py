"""Inspecting LearnRisk's interpretable machinery on the paper's running example.

This example mirrors the illustrative figures of the paper rather than its
evaluation: it builds a handful of bibliographic records like Figure 1,
generates one-sided risk rules (Figure 6), prints the classifier-output
influence function (Figure 8) and shows how Value-at-Risk turns a pair's
equivalence-probability distribution into a risk score (Figure 7).

Run with::

    python examples/rule_inspection.py
"""

from __future__ import annotations

import numpy as np

from repro.data import load_dataset, split_workload
from repro.risk import (
    LearnRiskModel,
    OneSidedTreeConfig,
    RiskFeatureGenerator,
    TrainingConfig,
)
from repro.risk.distributions import truncated_normal_quantile
from repro.classifiers import MLPClassifier


def main() -> None:
    workload = load_dataset("DS", scale=0.3)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)

    print("=== Risk feature generation (Section 5) ===")
    generator = RiskFeatureGenerator(tree_config=OneSidedTreeConfig(max_depth=3))
    features = generator.generate(split.train)
    matching = [rule for rule in features.rules if rule.is_matching_rule()]
    unmatching = [rule for rule in features.rules if not rule.is_matching_rule()]
    print(f"generated {len(features.rules)} one-sided rules "
          f"({len(matching)} matching, {len(unmatching)} unmatching) "
          f"in {features.generation_seconds:.2f}s")
    print("\nexample unmatching rules (the paper's Eq. 1 style knowledge):")
    for rule in unmatching[:5]:
        print(f"  {rule.describe()}   [support={rule.support}, expectation={rule.expectation:.2f}]")
    print("\nexample matching rules:")
    for rule in matching[:5]:
        print(f"  {rule.describe()}   [support={rule.support}, expectation={rule.expectation:.2f}]")

    print("\n=== Classifier output as a risk feature (Figure 8) ===")
    vectorizer = features.vectorizer
    classifier = MLPClassifier(hidden_sizes=(32, 16), epochs=40, seed=0)
    classifier.fit(vectorizer.transform(split.train.pairs), split.train.labels())
    model = LearnRiskModel(features, config=TrainingConfig(epochs=150))
    validation_features = vectorizer.transform(split.validation.pairs)
    validation_probabilities = classifier.predict_proba(validation_features)
    model.fit(validation_features, validation_probabilities,
              (validation_probabilities >= 0.5).astype(int), split.validation.labels())
    print(f"learned influence function: alpha={model.influence_alpha:.3f}, "
          f"beta={model.influence_beta:.3f}")
    for probability in (0.5, 0.7, 0.9, 0.99):
        weight = float(model.influence_weight(np.array([probability]))[0])
        print(f"  classifier output {probability:.2f} -> feature weight {weight:.3f}")

    print("\n=== Value at Risk (Figure 7) ===")
    mean, std, theta = 0.55, 0.16, 0.9
    var = truncated_normal_quantile(np.array([mean]), np.array([std]), theta)[0]
    print(f"a pair labeled unmatching with equivalence probability ~ N({mean}, {std}^2):")
    print(f"  VaR at confidence {theta:.0%} = {var:.3f}")
    print("  (the maximum mislabeling probability after excluding the 10% worst cases)")

    print("\n=== Explaining one risky pair ===")
    test_features = vectorizer.transform(split.test.pairs)
    test_probabilities = classifier.predict_proba(test_features)
    test_machine = (test_probabilities >= 0.5).astype(int)
    scores = model.score(test_features, test_probabilities, test_machine)
    riskiest = int(np.argmax(scores))
    pair = split.test.pairs[riskiest]
    print(f"riskiest pair (risk={scores[riskiest]:.3f}, "
          f"machine says {'match' if test_machine[riskiest] else 'non-match'} "
          f"with p={test_probabilities[riskiest]:.3f}):")
    print(f"  left : {dict(pair.left.values)}")
    print(f"  right: {dict(pair.right.values)}")
    (explanation,) = model.explain_pairs(
        test_features[[riskiest]], test_probabilities[[riskiest]], test_machine[[riskiest]], top_rules=4
    )
    for rule in explanation.fired_rules:
        print(f"  [{rule.weight_share:.0%}] {rule.description}")


if __name__ == "__main__":
    main()
