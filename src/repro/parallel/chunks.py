"""The unit of work of the sharded scoring engine: one scored chunk.

:class:`ChunkScores` is what a worker sends back for one chunk of candidate
pairs: the classifier outputs, the risk scores, the in-chunk risk ranking and
any requested rule-level explanations.  It deliberately does *not* carry the
pairs themselves — the dispatching side already holds every chunk it submitted
(it needs them to emit results in source order), so shipping the pairs back
would double the inter-process traffic for nothing.

Everything in here is plain numpy plus frozen dataclasses, so a chunk result
pickles cheaply across process boundaries and compares exactly in parity
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..risk.model import RuleContribution


@dataclass(frozen=True)
class ChunkScores:
    """Scoring outputs for one chunk of pairs, aligned with the chunk order.

    Attributes
    ----------
    probabilities:
        The classifier's equivalence probabilities, one per pair.
    machine_labels:
        Thresholded hard labels, one per pair.
    risk_scores:
        Mislabeling-risk scores, one per pair.
    ranking:
        In-chunk pair indices ordered from highest to lowest risk
        (``np.argsort(-risk_scores, kind="stable")``, exactly as the serial
        report computes it).
    explanations:
        Rule-level explanations of the ``explain_top`` riskiest pairs of the
        chunk, keyed by in-chunk pair index.
    worker, worker_seconds, rebuild_seconds:
        Telemetry stamped by pool workers (:mod:`repro.parallel.engine`):
        which worker process scored the chunk (``pid-<n>``), its scoring
        wall-clock, and — on the first chunk a worker returns — the one-time
        cost of rebuilding its pipeline from state.  Pure observability:
        excluded from :meth:`__eq__`, so the parity contract is untouched.
    """

    probabilities: np.ndarray
    machine_labels: np.ndarray
    risk_scores: np.ndarray
    ranking: np.ndarray
    explanations: dict[int, list[RuleContribution]] = field(default_factory=dict)
    worker: str | None = None
    worker_seconds: float = 0.0
    rebuild_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.risk_scores)

    def __eq__(self, other: object) -> bool:
        """Exact (bitwise on arrays) equality — what the parity suite asserts."""
        if not isinstance(other, ChunkScores):
            return NotImplemented
        return (
            np.array_equal(self.probabilities, other.probabilities)
            and np.array_equal(self.machine_labels, other.machine_labels)
            and np.array_equal(self.risk_scores, other.risk_scores)
            and np.array_equal(self.ranking, other.ranking)
            and self.explanations == other.explanations
        )
