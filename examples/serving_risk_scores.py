"""Serving: persist a fitted risk pipeline and score live traffic through RiskService.

The risk model of the paper is designed to sit in front of a production ER
classifier and triage its output.  This example shows the full serving loop:

1. fit a pipeline built from its spec and save it to disk as
   JSON + npz (no pickle) with :func:`repro.serve.save_pipeline`;
2. reload it — as a fresh process would — and verify the reloaded model
   reproduces the in-process risk scores exactly;
3. wrap it in a :class:`repro.serve.RiskService`, score traffic in
   micro-batches, and explain the riskiest pair (scored in the same pass);
4. hot-swap a second model version through a :class:`repro.serve.ModelRegistry`
   without interrupting lookups;
5. print the serving statistics (throughput, cache hit-rate, batch sizes).

Run with::

    python examples/serving_risk_scores.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import PipelineSpec, build_pipeline, load_dataset, split_workload
from repro.serve import ModelRegistry, RiskService, load_pipeline, save_pipeline


def main() -> None:
    print("Preparing the DBLP-Scholar analogue workload ...")
    workload = load_dataset("DS", scale=0.3)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)

    print("Fitting the pipeline (classifier + risk rules + risk model) ...")
    pipeline = build_pipeline(PipelineSpec(seed=0))
    pipeline.fit(split.train, split.validation)
    in_process_scores = pipeline.analyse(split.test).risk_scores

    with tempfile.TemporaryDirectory() as tmp:
        model_dir = Path(tmp) / "models" / "ds-v1"
        save_pipeline(pipeline, model_dir)
        files = ", ".join(sorted(p.name for p in model_dir.iterdir()))
        print(f"\nSaved the fitted pipeline to {model_dir}\n  ({files})")

        print("Reloading it as a fresh process would ...")
        reloaded = load_pipeline(model_dir)
        reloaded_scores = reloaded.analyse(split.test).risk_scores
        assert np.array_equal(reloaded_scores, in_process_scores)
        print("  reloaded risk scores are bit-identical to the in-process ones")

        print("\nServing through RiskService (micro-batched, cached) ...")
        service = RiskService(reloaded, max_batch_size=128, cache_size=4096)
        scored = service.score_pairs(split.test.pairs)
        riskiest = max(scored, key=lambda s: s.risk_score)
        print(f"  scored {len(scored)} pairs; riskiest pair {riskiest.pair.pair_id} "
              f"(machine label {riskiest.machine_label}, risk {riskiest.risk_score:.3f})")

        # Explaining scores in the same pass: each explanation carries the
        # pair's risk score next to the rules that carry its weight.
        (explanation,) = service.explain_pairs([riskiest.pair], top_rules=3)
        assert explanation.risk_score == riskiest.risk_score
        for rule in explanation.fired_rules:
            print(f"    [{rule.weight_share:.0%} weight] {rule.description}")

        # Re-scoring the same traffic hits the vectorisation cache.
        service.score_pairs(split.test.pairs)
        stats = service.stats.snapshot()
        print("\nServing statistics:")
        print(f"  throughput      : {stats['pairs_per_second']:.0f} pairs/s")
        print(f"  batches         : {int(stats['batches'])} "
              f"(mean size {stats['mean_batch_size']:.1f})")
        print(f"  cache hit rate  : {stats['cache_hit_rate']:.0%}")

        print("\nHot-swapping a second model version through the registry ...")
        registry = ModelRegistry(max_batch_size=128)
        registry.load("ds", model_dir)
        challenger = build_pipeline(PipelineSpec(risk_metric="expectation", seed=1))
        challenger.fit(split.train, split.validation)
        registry.register("ds", challenger)  # becomes the active version
        print(f"  versions: {registry.versions('ds')}, "
              f"active: {registry.active_version('ds')}")
        swap_scores = registry.service("ds").risk_scores(split.test.pairs[:5])
        print(f"  first scores from the active (swapped) version: "
              f"{np.round(swap_scores, 3).tolist()}")
        registry.activate("ds", 1)
        print("  rolled back to version 1")


if __name__ == "__main__":
    main()
