"""Blocking recall: how much of the ground truth a candidate set keeps.

Comparing every record of one table against every record of the other is
quadratic and infeasible for real ER workloads, so all the benchmark datasets
used in the paper are *blocked* first: only pairs that share some cheap signal
(a common rare token, a nearby sort position) become candidate pairs.  The
resulting candidate sets are heavily imbalanced — most candidates are still
non-matches — which is exactly the regime risk analysis operates in.

The blockers themselves live in :mod:`repro.blocking`
(:class:`~repro.blocking.blockers.InvertedIndexBlocker`,
:class:`~repro.blocking.blockers.SortedWindowBlocker`, MinHash-LSH), and
:class:`~repro.blocking.source.BlockingPairSource` unions several of them and
can guarantee the recall of a supplied match set.  This module keeps the one
measurement every blocking experiment reports.
"""

from __future__ import annotations

from typing import Iterable


def blocking_recall(
    candidates: Iterable[tuple[str, str]], matches: Iterable[tuple[str, str]]
) -> float:
    """Fraction of ground-truth matches retained by blocking."""
    match_set = set(matches)
    if not match_set:
        return 1.0
    candidate_set = set(candidates)
    return len(match_set & candidate_set) / len(match_set)
