"""The correctness gates catch a one-ulp difference and fail the whole run."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

import run
import wl_batch
from gates import compare_scores

END_TO_END = [m["name"] for m in json.loads(run.SPEC.read_text())["end_to_end"]]


def scored(probability=0.25, label=0, risk=0.125, pair=None):
    return SimpleNamespace(probability=probability, machine_label=label, risk_score=risk,
                           pair=pair)


def test_identical_scores_pass():
    assert compare_scores("gate", [scored(), scored(0.5)], [scored(), scored(0.5)]) == []


@pytest.mark.parametrize("changed", [
    scored(probability=math.nextafter(0.25, 1.0)),
    scored(label=1),
    scored(risk=math.nextafter(0.125, 0.0)),
])
def test_a_one_ulp_or_label_change_is_a_mismatch(changed):
    problems = compare_scores("gate", [scored(), changed], [scored(), scored()])
    assert len(problems) == 1 and "item 1" in problems[0]


def test_a_length_change_is_a_mismatch():
    assert compare_scores("gate", [scored()], [scored(), scored()])


#: What the fake batch passes score: eight pairs, each with its own risk.
BATCH = [scored(risk=0.125 + i / 1024, pair=SimpleNamespace(index=i, ground_truth=i % 2))
         for i in range(8)]


class OneAtATimeService:
    """Scores a pair alone as the batch did, or ``ulps`` ulps higher in risk."""

    def __init__(self, ulps: int) -> None:
        self.ulps = ulps

    def score_pairs(self, pairs):
        (pair,) = pairs
        risk = BATCH[pair.index].risk_score
        for _ in range(self.ulps):
            risk = math.nextafter(risk, 1.0)
        return [scored(risk=risk, pair=pair)]


@pytest.mark.parametrize("ulps", [0, 1])
def test_the_one_at_a_time_gate_sets_the_exit_code(monkeypatch, tmp_path, capsys, ulps):
    # The real batch_score run and its real gate, over fake passes and a
    # fake single-pair service: one ulp in one field fails every sampled pair.
    def fake_pass(model_dir, waves, latencies, pulls):
        latencies.next_unit()
        latencies.add(0.01)
        pulls.next_unit()
        pulls.add(0.001)
        service = SimpleNamespace(stats=SimpleNamespace(snapshot=dict))
        return list(BATCH), 0.6, 1, service

    corpus = [SimpleNamespace(n_records=4)]
    monkeypatch.setattr(wl_batch, "setup",
                        lambda directory, seed: wl_batch.State(None, [corpus], seed))
    monkeypatch.setattr(wl_batch, "warm_up", lambda state: None)
    monkeypatch.setattr(wl_batch, "_one_pass", fake_pass)
    monkeypatch.setattr(wl_batch, "new_service", lambda *a, **k: OneAtATimeService(ulps))
    monkeypatch.setattr(wl_batch, "mislabel_auroc", lambda *args: 0.5)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")

    code = run.main(["--workload", "batch_score", "--seed", "0", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # Two identical passes (two batches), then the gate checks all 8 pairs.
    assert last["attempted"] == 2 + len(BATCH)
    assert last["failed"] == (len(BATCH) if ulps else 0)
    assert last["correct"] is (ulps == 0)
    assert code == (1 if ulps else 0)
    assert set(last["metrics"]) == set(END_TO_END)
