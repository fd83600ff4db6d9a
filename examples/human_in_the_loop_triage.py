"""Human-in-the-loop triage: spend a fixed review budget where it matters.

The operational use of risk analysis (the paper's r-HUMO lineage): after the
matcher labels a workload, a human reviewer can only re-check a limited number
of pairs.  Reviewing pairs in LearnRisk order repairs far more mistakes than
reviewing in classifier-confidence order or at random.  The example prints the
repaired-F1 curve as the review budget grows.

Run with::

    python examples/human_in_the_loop_triage.py
"""

from __future__ import annotations

import numpy as np

from repro import PipelineSpec, build_pipeline, load_dataset, split_workload
from repro.evaluation import f1_score
from repro.evaluation.reporting import format_table


def repaired_f1(machine_labels: np.ndarray, ground_truth: np.ndarray,
                review_order: np.ndarray, budget: int) -> float:
    """F1 after a reviewer fixes the labels of the first ``budget`` pairs in order."""
    repaired = machine_labels.copy()
    reviewed = review_order[:budget]
    repaired[reviewed] = ground_truth[reviewed]
    return f1_score(ground_truth, repaired)


def main() -> None:
    workload = load_dataset("AG", scale=0.5)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)
    print(f"Amazon-Google analogue: {len(workload)} pairs, "
          f"test part {len(split.test)} pairs")

    pipeline = build_pipeline(PipelineSpec(seed=0))
    pipeline.fit(split.train, split.validation)
    report = pipeline.analyse(split.test)

    ground_truth = split.test.labels()
    machine_labels = report.machine_labels
    base_f1 = f1_score(ground_truth, machine_labels)
    print(f"matcher F1 before any review: {base_f1:.3f}")

    rng = np.random.default_rng(0)
    orders = {
        "random order": rng.permutation(len(split.test)),
        "classifier confidence": np.argsort(
            -(1.0 - np.abs(2.0 * report.machine_probabilities - 1.0)), kind="stable"
        ),
        "LearnRisk order": report.ranking,
    }

    budgets = [int(fraction * len(split.test)) for fraction in (0.02, 0.05, 0.10, 0.20)]
    rows = []
    for budget in budgets:
        row: list[object] = [f"{budget} pairs"]
        for order in orders.values():
            row.append(round(repaired_f1(machine_labels, ground_truth, order, budget), 3))
        rows.append(row)
    print("\nF1 after human review of the top-ranked pairs:")
    print(format_table(["review budget", *orders.keys()], rows))
    print("\nReviewing in LearnRisk order reaches a near-perfect labeling with a fraction "
          "of the effort random or confidence-ordered review needs.")


if __name__ == "__main__":
    main()
