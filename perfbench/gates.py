"""Correctness gates: bit-for-bit comparisons of the program's outputs.

A gate returns one line per mismatch; the benchmark counts them as failed
operations and exits non-zero when any gate reports one.
"""

from __future__ import annotations

from typing import Any, Sequence


def score_bits(scored: Any) -> tuple[str, int, str]:
    """(probability, machine label, risk score), floats as exact hex strings."""
    return (float(scored.probability).hex(), int(scored.machine_label),
            float(scored.risk_score).hex())


def compare_scores(label: str, got: Sequence[Any], expected: Sequence[Any]) -> list[str]:
    """Mismatches between two aligned sequences of scored pairs or events."""
    problems = []
    if len(got) != len(expected):
        problems.append(f"{label}: {len(got)} results for {len(expected)} expected")
    for index, (one, other) in enumerate(zip(got, expected)):
        if score_bits(one) != score_bits(other):
            problems.append(f"{label}: item {index}: {score_bits(one)} != {score_bits(other)}")
    return problems
