"""Seeded property tests for the streaming blocking layer.

Two properties anchor the refactor:

* **LSH recall is monotone in the band count.**  Band ``k`` hashes identically
  no matter how many bands an index uses (prefix-stable per-band seeding), so
  adding bands only ever adds buckets — the candidate set grows as a superset
  and recall can only rise.
* **Streaming is the eager block.**  The inverted-index blocker's streamed
  candidates, collected and sorted, are bit-identical to its ``block`` output
  at every chunk size (which itself is parity-locked to the historical token
  blocker, across domains, seeds and parameters, in
  ``tests/data/test_blocking.py``).
"""

from __future__ import annotations

import pytest

from repro.blocking import (
    BlockingPairSource,
    InvertedIndexBlocker,
    MinHashLSHBlocker,
    TableCorpus,
)
from repro.data.blocking import blocking_recall
from repro.data.generators import GenerationConfig, generate_workload, make_generator
from repro.data.records import MATCH


def _workload(domain: str, seed: int, n: int = 60):
    return generate_workload(
        make_generator(domain), GenerationConfig(n_base_entities=n, seed=seed), "prop"
    )


_TEXT_ATTRIBUTE = {
    "bibliographic": "title",
    "product": "name",
    "software": "title",
    "song": "title",
}


class TestLshRecallMonotoneInBands:
    @pytest.mark.parametrize("domain", ["bibliographic", "product", "song"])
    @pytest.mark.parametrize("seed", [0, 13])
    def test_candidate_sets_nest_and_recall_rises(self, domain, seed):
        workload = _workload(domain, seed)
        attribute = _TEXT_ATTRIBUTE[domain]
        matches = [p.pair_id for p in workload.pairs if p.ground_truth == MATCH]

        previous_candidates: set = set()
        previous_recall = 0.0
        for bands in (2, 4, 8, 16):
            blocker = MinHashLSHBlocker([attribute], bands=bands, rows=4, seed=seed)
            candidates = set(blocker.block(workload.left_table, workload.right_table))
            recall = blocking_recall(candidates, matches)
            # prefix-stable band hashing: more bands => a strict superset
            assert previous_candidates <= candidates
            assert recall >= previous_recall
            previous_candidates, previous_recall = candidates, recall

    def test_more_rows_cannot_add_candidates(self):
        workload = _workload("bibliographic", 3)
        loose = MinHashLSHBlocker(["title"], bands=8, rows=1, seed=1)
        strict = MinHashLSHBlocker(["title"], bands=8, rows=4, seed=1)
        loose_set = set(loose.block(workload.left_table, workload.right_table))
        strict_set = set(strict.block(workload.left_table, workload.right_table))
        # rows=1 collides whenever any single hash agrees; rows=4 requires all
        # four, a strictly stronger condition per band.
        assert strict_set <= loose_set


class TestStreamedMatchesBlock:
    def test_streamed_chunks_recompose_to_block(self):
        workload = _workload("bibliographic", 11)
        matches = [p.pair_id for p in workload.pairs if p.ground_truth == MATCH]
        blocker = InvertedIndexBlocker(["title", "authors"], max_token_frequency=0.2)
        corpus = TableCorpus(workload.left_table, workload.right_table, matches)
        source = BlockingPairSource(corpus, [blocker], ensure_matches=False)
        for chunk_size in (1, 7, 64, 10_000):
            streamed = [
                pair.pair_id for chunk in source.iter_chunks(chunk_size) for pair in chunk
            ]
            assert sorted(streamed) == blocker.block(
                workload.left_table, workload.right_table
            )
