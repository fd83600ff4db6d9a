"""Quickstart: train a matcher, rank its labels by mislabeling risk, inspect the reasons.

This is the end-to-end LearnRisk workflow of the paper on the DBLP-Scholar
analogue workload:

1. build the workload and split it 3:2:5 into classifier-training /
   validation / test data (the validation data doubles as risk-training data);
2. build the default pipeline from its spec and fit it (classifier + risk
   features + learnable risk model);
3. analyse the test part: every pair gets a machine label and a risk score;
4. print the riskiest pairs together with the interpretable rules responsible.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import PipelineSpec, build_pipeline, load_dataset, split_workload
from repro.evaluation import recall_at_budget
from repro.evaluation.roc import mislabel_indicator


def main() -> None:
    print("Generating the DBLP-Scholar analogue workload ...")
    workload = load_dataset("DS", scale=0.5)
    print(f"  {len(workload)} candidate pairs, {workload.num_matches} matches, "
          f"{workload.num_attributes} attributes")

    split = split_workload(workload, ratio=(3, 2, 5), seed=0)
    print(f"  split into {len(split.train)} train / {len(split.validation)} validation / "
          f"{len(split.test)} test pairs")

    print("\nTraining the matcher and the risk model ...")
    pipeline = build_pipeline(PipelineSpec(seed=0))
    pipeline.fit(split.train, split.validation)
    print(f"  generated {len(pipeline.risk_features.rules)} interpretable risk rules")

    print("\nAnalysing the test workload ...")
    report = pipeline.analyse(split.test, explain_top=5)
    mislabeled = mislabel_indicator(report.machine_labels, split.test.labels())
    print(f"  classifier mislabeled {int(mislabeled.sum())} of {len(split.test)} pairs")
    if report.auroc is not None:
        print(f"  risk-ranking AUROC: {report.auroc:.3f}")
    budget = max(1, len(split.test) // 10)
    recall = recall_at_budget(mislabeled, report.risk_scores, budget)
    print(f"  inspecting the top {budget} riskiest pairs finds "
          f"{recall:.0%} of all classifier mistakes")

    print("\nTop 5 riskiest pairs and why:")
    for rank, (pair, score) in enumerate(report.top_risky(5), start=1):
        index = int(report.ranking[rank - 1])
        label = "matching" if report.machine_labels[index] == 1 else "unmatching"
        print(f"\n  #{rank}  risk={score:.3f}  machine label={label} "
              f"(p={report.machine_probabilities[index]:.3f})")
        print(f"      left : {dict(pair.left.values)}")
        print(f"      right: {dict(pair.right.values)}")
        for explanation in report.explanations.get(index, [])[:3]:
            print(f"      because [{explanation.weight_share:.0%} weight] {explanation.description}"
                  f" (expected equivalence {explanation.expectation:.2f})")


if __name__ == "__main__":
    main()
