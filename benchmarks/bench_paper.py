"""The paper's tables and figures, with each shape claim as a named gate.

Every case reruns one table or figure of the paper's evaluation (Section 7)
on the synthetic analogues at scale 0.5.  The absolute numbers differ from
the authors' testbed; the shape of each result (which method wins, by
roughly what margin, how curves trend) is what the gates check:

* Table 2, workload statistics: SG is the largest workload, and the
  attribute counts are 4/3/4/7.
* Figure 9, the five risk approaches on DS/AB/AG/SG at 1:2:7, 2:2:6 and
  3:2:5: LearnRisk is within 0.03 of the best, above 0.8 and at least
  Uncertainty.
* Figure 10, out of distribution (DA2DS, AB2AG): LearnRisk is within 0.02
  of the best and above 0.85.
* Figure 11, LearnRisk against HoloClean's two-sided rules on sampled test
  sub-workloads: LearnRisk is within 0.01 of HoloClean.
* Figure 12, LearnRisk against the amount of risk-training data, picked at
  random or actively: every AUROC is above 0.75, spread below 0.15.
* Figure 13, rule-generation and risk-training runtimes against data size:
  rule generation trends up, and no faster than 3x linear.
* Figure 14, matcher F1 in active learning: no strategy ends more than 0.05
  below its start, and risk-based selection ends within 0.12 of the best.
* The ablation of the risk model on DS 3:2:5: trained VaR is within 0.02 of
  its untrained prior and of the expectation alone, and every variant is
  above 0.7.

The same run records, as figures and not gates, the grid the repository's
central claim rests on: every method's AUROC on DS/AB/AG/SG x seeds 1-5 at
3:2:5, in two classifier views.  The paper view is the similarity-only
matcher that stands in for DeepMatcher; the full view is the MLP over every
metric that ``serve fit`` trains.  Each panel records LearnRisk's margin over
the best other method, and each view its leads out of 20 and median margin.

Run from the repository root (about 2.5 minutes on 2 cores)::

    PYTHONPATH=src python benchmarks/bench_paper.py   # -> BENCH_paper.json

The exit code is 1 when any gate fails.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import environment_stamp

from repro.active import (
    EntropyStrategy,
    LeastConfidenceStrategy,
    RiskStrategy,
    run_active_learning_comparison,
)
from repro.baselines import default_scorers
from repro.data.datasets import PRIMARY_DATASETS, load_dataset
from repro.evaluation.experiment import (
    ExperimentResult,
    evaluate_scorers,
    prepare_experiment,
    run_holoclean_comparison,
    run_ood_experiment,
    run_scalability_experiment,
    run_sensitivity_experiment,
)
from repro.evaluation.roc import auroc_score
from repro.risk.model import LearnRiskModel
from repro.risk.training import TrainingConfig

SCALE = 0.5
RATIOS = ((1, 2, 7), (2, 2, 6), (3, 2, 5))
#: The split seed of each case.
SEEDS = {"figure09": 1, "figure10": 2, "figure11": 3, "figure12": 4, "figure13": 5,
         "figure14": 6, "ablation": 1}
GRID_SEEDS = (1, 2, 3, 4, 5)
#: The classifier spec of each grid view.
VIEWS = {"paper": {"kind": "similarity_view"}, "full": {"kind": "mlp"}}
OOD_SETTINGS = {
    "DA2DS": {"source": "DA", "target": "DS", "rename_source": None},
    "AB2AG": {"source": "AB", "target": "AG", "rename_source": {"name": "title"}},
}
RANDOM_FRACTIONS = (0.01, 0.05, 0.10, 0.15, 0.20)
ACTIVE_COUNTS = (100, 200, 300, 400)

#: How a gate compares its value with its bar.
COMPARISONS = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq,
    "is a number": lambda value, _bar: not math.isnan(value),
}


def gate(gates: dict, name: str, value, op: str, bar=None) -> None:
    """Record the named gate ``value op bar`` and whether it holds."""
    passed = bool(COMPARISONS[op](value, bar))
    gates[name] = {"value": value, "op": op, "bar": bar, "passed": passed}
    print(f"  {'ok  ' if passed else 'FAIL'} {name}: {value} {op} {'' if bar is None else bar}")


def record(result: ExperimentResult) -> dict:
    """Every method's AUROC and LearnRisk's margin over the best other method."""
    auroc = result.auroc_table()
    best_other = max(value for name, value in auroc.items() if name != "LearnRisk")
    return {"classifier_f1": result.classifier_f1, "mislabel_rate": result.test_mislabel_rate,
            "rules": result.n_rules, "auroc": auroc, "margin": auroc["LearnRisk"] - best_other}


def panel(workload, ratio: tuple[int, int, int], seed: int, classifier: dict) -> dict:
    """One Figure 9 panel: the five approaches fitted and scored on one split."""
    prepared = prepare_experiment(workload, ratio=ratio, classifier=classifier, seed=seed)
    return record(evaluate_scorers(prepared, scorers=default_scorers(), compute_curves=False))


def figure09_gates(gates: dict, name: str, panel_record: dict) -> None:
    auroc = panel_record["auroc"]
    learn_risk = auroc["LearnRisk"]
    gate(gates, f"figure09 {name} LearnRisk within 0.03 of the best",
         learn_risk, ">=", max(auroc.values()) - 0.03)
    gate(gates, f"figure09 {name} LearnRisk above 0.8", learn_risk, ">", 0.8)
    gate(gates, f"figure09 {name} LearnRisk at least Uncertainty",
         learn_risk, ">=", auroc["Uncertainty"])


# -------------------------------------------------------------------- cases
def table2(gates: dict, workloads: dict) -> dict:
    rows = {}
    for name, workload in workloads.items():
        stats = workload.statistics()
        rows[name] = {
            "size": stats["size"], "matches": stats["matches"], "attributes": stats["attributes"],
            "neg_pos": round((stats["size"] - stats["matches"]) / max(1, stats["matches"]), 1),
        }
    sizes = {name: row["size"] for name, row in rows.items()}
    gate(gates, "table2 SG is the largest workload", sizes["SG"], "==", max(sizes.values()))
    gate(gates, "table2 attribute counts", {name: row["attributes"] for name, row in rows.items()},
         "==", {"DS": 4, "AB": 3, "AG": 4, "SG": 7})
    return rows


def figure09(gates: dict, panel_of) -> dict:
    panels = {}
    for ratio in RATIOS:
        for dataset in PRIMARY_DATASETS:
            name = f"{dataset}({ratio[0]}:{ratio[1]}:{ratio[2]})"
            panels[name] = panel_of(dataset, ratio, SEEDS["figure09"], "paper")
            figure09_gates(gates, name, panels[name])
    return panels


def figure10(gates: dict) -> dict:
    results = {}
    for name, setting in sorted(OOD_SETTINGS.items()):
        result = record(run_ood_experiment(
            setting["source"], setting["target"], scale=SCALE,
            rename_source=setting["rename_source"], scorers=default_scorers(),
            seed=SEEDS["figure10"],
        ))
        auroc = result["auroc"]
        gate(gates, f"figure10 {name} LearnRisk within 0.02 of the best",
             auroc["LearnRisk"], ">=", max(auroc.values()) - 0.02)
        gate(gates, f"figure10 {name} LearnRisk above 0.85", auroc["LearnRisk"], ">", 0.85)
        results[name] = result
    return results


def figure11(gates: dict, workloads: dict) -> dict:
    """Mean AUROC over 5 sampled test sub-workloads of 1000 pairs (2000 for SG)."""
    results = {}
    for dataset in PRIMARY_DATASETS:
        subset_size = 2000 if dataset == "SG" else 1000
        auroc = run_holoclean_comparison(workloads[dataset], subset_size=subset_size,
                                         n_subsets=5, seed=SEEDS["figure11"])
        gate(gates, f"figure11 {dataset} LearnRisk AUROC", auroc["LearnRisk"], "is a number")
        gate(gates, f"figure11 {dataset} LearnRisk within 0.01 of HoloClean",
             auroc["LearnRisk"], ">=", auroc["HoloClean"] - 0.01)
        results[dataset] = {"subset_size": subset_size, "subsets": 5, "auroc": auroc}
    return results


def figure12(gates: dict, workloads: dict) -> dict:
    """LearnRisk's AUROC per risk-training size: a workload fraction or a pair count."""
    results = {}
    for dataset in ("AB", "DS"):
        for selection, sizes in (("active", ACTIVE_COUNTS), ("random", RANDOM_FRACTIONS)):
            series = run_sensitivity_experiment(workloads[dataset], risk_training_sizes=list(sizes),
                                                selection=selection, seed=SEEDS["figure12"])
            low, high = min(series.values()), max(series.values())
            name = f"{dataset} {selection}"
            gate(gates, f"figure12 {name} lowest AUROC above 0.75", low, ">", 0.75)
            gate(gates, f"figure12 {name} AUROC spread below 0.15", high - low, "<", 0.15)
            results[name] = {str(size): value for size, value in series.items()}
    return results


def figure13(gates: dict, workload) -> dict:
    """Seconds of rule generation and of risk training per data size, on DS."""
    n_train, n_validation = int(len(workload) * 0.3), int(len(workload) * 0.2)
    fractions = (0.25, 0.5, 0.75, 1.0)
    results = run_scalability_experiment(
        workload,
        training_sizes=[max(50, int(n_train * fraction)) for fraction in fractions],
        risk_training_sizes=[max(40, int(n_validation * fraction)) for fraction in fractions],
        seed=SEEDS["figure13"],
    )
    sizes = list(results["rule_generation"])
    times = list(results["rule_generation"].values())
    gate(gates, "figure13 rule generation takes time", min(times), ">", 0)
    gate(gates, "figure13 rule generation never halves from one size to the next",
         min(later / earlier for earlier, later in zip(times, times[1:])), ">=", 0.5)
    gate(gates, "figure13 rule generation at most 3x linear",
         times[-1], "<=", times[0] * (sizes[-1] / sizes[0]) * 3.0)
    return {stage: {str(size): seconds for size, seconds in series.items()}
            for stage, series in results.items()}


def figure14(gates: dict, workload) -> dict:
    """Matcher F1 per labeled-set size, from 128 pairs in 6 rounds of 64, on DS."""
    strategies = [LeastConfidenceStrategy(), EntropyStrategy(),
                  RiskStrategy(training_config=TrainingConfig(epochs=80))]
    curves = run_active_learning_comparison(workload, strategies, initial_labeled=128,
                                            batch_size=64, rounds=6, seed=SEEDS["figure14"])
    for name, curve in curves.items():
        gate(gates, f"figure14 {name} ends no more than 0.05 below its start",
             curve.final_f1(), ">=", curve.f1_scores[0] - 0.05)
    final = {name: curve.final_f1() for name, curve in curves.items()}
    gate(gates, "figure14 LearnRisk ends within 0.12 of the best",
         final["LearnRisk"], ">=", max(final.values()) - 0.12)
    return {name: {str(size): f1 for size, f1 in curve.as_series().items()}
            for name, curve in curves.items()}


def ablation(gates: dict, workload) -> dict:
    """Test AUROC of risk-model variants on DS 3:2:5, each trained for 150 epochs."""
    prepared = prepare_experiment(workload, ratio=(3, 2, 5), seed=SEEDS["ablation"])
    validation, test = prepared.validation, prepared.test
    results = {}
    for name, metric, trained in (
        ("LearnRisk (VaR, trained)", "var", True),
        ("VaR, untrained prior", "var", False),
        ("CVaR, trained", "cvar", True),
        ("Expectation only, trained", "expectation", True),
    ):
        model = LearnRiskModel(prepared.risk_features, config=TrainingConfig(epochs=150),
                               risk_metric=metric)
        if trained:
            model.fit(validation.features, validation.probabilities,
                      validation.machine_labels, validation.ground_truth)
        scores = model.score(test.features, test.probabilities, test.machine_labels)
        results[name] = auroc_score(test.risk_labels, scores)
    trained_var = results["LearnRisk (VaR, trained)"]
    gate(gates, "ablation trained VaR within 0.02 of its untrained prior",
         trained_var, ">=", results["VaR, untrained prior"] - 0.02)
    gate(gates, "ablation trained VaR within 0.02 of the expectation alone",
         trained_var, ">=", results["Expectation only, trained"] - 0.02)
    gate(gates, "ablation every variant above 0.7", min(results.values()), ">", 0.7)
    return results


def grid(panel_of) -> dict:
    """Figure 9's 3:2:5 panels over the grid seeds, in both classifier views."""
    views = {}
    for view, classifier in VIEWS.items():
        panels = {f"{dataset} seed {seed}": panel_of(dataset, (3, 2, 5), seed, view)
                  for dataset in PRIMARY_DATASETS for seed in GRID_SEEDS}
        margins = [one["margin"] for one in panels.values()]
        views[view] = {"classifier": classifier, "panels": panels,
                       "leads": sum(margin > 0 for margin in margins),
                       "median_margin": statistics.median(margins)}
        print(f"  {view} view: LearnRisk leads on {views[view]['leads']} of {len(panels)} panels, "
              f"median margin {views[view]['median_margin']:+.4f}")
    return {"ratio": "3:2:5", "seeds": list(GRID_SEEDS), **views}


def main() -> int:
    report = environment_stamp("paper", SEEDS["figure09"],
                               {"scale": SCALE, "seeds": SEEDS, "grid_seeds": list(GRID_SEEDS)})
    workloads = {name: load_dataset(name, scale=SCALE) for name in PRIMARY_DATASETS}

    @functools.cache
    def panel_of(dataset: str, ratio: tuple[int, int, int], seed: int, view: str) -> dict:
        return panel(workloads[dataset], ratio, seed, VIEWS[view])

    gates: dict = {}
    report["table2"] = table2(gates, workloads)
    report["figure09"] = figure09(gates, panel_of)
    report["figure10"] = figure10(gates)
    report["figure11"] = figure11(gates, workloads)
    report["figure12"] = figure12(gates, workloads)
    report["figure13"] = figure13(gates, workloads["DS"])
    report["figure14"] = figure14(gates, workloads["DS"])
    report["ablation"] = ablation(gates, workloads["DS"])
    report["grid"] = grid(panel_of)
    report["gates"] = gates

    output = ROOT / "BENCH_paper.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    failed = [name for name, one in gates.items() if not one["passed"]]
    print(f"FAILED: {', '.join(failed)}" if failed else f"all {len(gates)} gates ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
