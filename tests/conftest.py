"""Shared fixtures for the test suite.

Expensive artefacts (generated workloads, a prepared experiment with a trained
classifier and generated risk features) are session-scoped so the many tests
that need a realistic ER setting share one copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.records import MATCH, UNMATCH, Record, RecordPair, Table
from repro.data.schema import Attribute, AttributeType, Schema
from repro.data.workload import Workload
from repro.evaluation.experiment import PreparedExperiment, prepare_experiment
from repro.risk.onesided_tree import OneSidedTreeConfig


@pytest.fixture(scope="session")
def paper_schema() -> Schema:
    """The bibliographic schema used by the running example of the paper."""
    return Schema((
        Attribute("title", AttributeType.TEXT),
        Attribute("authors", AttributeType.ENTITY_SET),
        Attribute("venue", AttributeType.ENTITY_NAME),
        Attribute("year", AttributeType.NUMERIC),
    ))


def make_paper_record(record_id: str, title: str, authors: str, venue: str, year: int | None,
                      source: str = "left") -> Record:
    """Convenience constructor used by many unit tests."""
    return Record(
        record_id=record_id,
        values={"title": title, "authors": authors, "venue": venue, "year": year},
        source=source,
    )


@pytest.fixture(scope="session")
def paper_pair(paper_schema) -> RecordPair:
    """An equivalent pair resembling the paper's running example."""
    left = make_paper_record(
        "l1", "Efficient spatial indexing for multidimensional databases",
        "T Brinkhoff, H Kriegel, R Schneider, B Seeger",
        "International Conference on Management of Data", 1994,
    )
    right = make_paper_record(
        "r1", "Efficient spatial indexing for multidimensional databases",
        "T Brinkhoff, H Kriegel, B Seeger", "SIGMOD", 1994, source="right",
    )
    return RecordPair(left, right, ground_truth=MATCH)


@pytest.fixture(scope="session")
def paper_non_pair(paper_schema) -> RecordPair:
    """An inequivalent pair: same work description but a different year (Eq. 1)."""
    left = make_paper_record(
        "l2", "Adaptive query optimization for streaming engines",
        "J Widom, M Stonebraker", "The VLDB Journal", 2001,
    )
    right = make_paper_record(
        "r2", "Adaptive query optimization for streaming engines",
        "J Widom, M Stonebraker", "The VLDB Journal", 2004, source="right",
    )
    return RecordPair(left, right, ground_truth=UNMATCH)


@pytest.fixture(scope="session")
def tiny_workload(paper_schema) -> Workload:
    """A hand-built workload of a dozen pairs with known ground truth."""
    rng = np.random.default_rng(3)
    left_table = Table("tiny-left", paper_schema)
    right_table = Table("tiny-right", paper_schema)
    pairs = []
    for index in range(12):
        title = f"paper about topic {index} and databases"
        authors = "A Smith, B Jones" if index % 2 else "C Brown"
        year = 1990 + index
        left = make_paper_record(f"L{index}", title, authors, "VLDB", year)
        left_table.add(left)
        if index % 3 == 0:
            # A non-match: same title, different year.
            right = make_paper_record(f"R{index}", title, authors, "VLDB", year + 2, "right")
            truth = UNMATCH
        else:
            right = make_paper_record(f"R{index}", title.upper(), authors, "VLDB", year, "right")
            truth = MATCH
        right_table.add(right)
        pairs.append(RecordPair(left, right, ground_truth=truth))
        del rng  # unused, kept for potential extension
        rng = np.random.default_rng(3)
    return Workload("tiny", pairs, left_table, right_table)


@pytest.fixture(scope="session")
def ds_workload() -> Workload:
    """A small DBLP-Scholar-analogue workload shared across the suite."""
    return load_dataset("DS", scale=0.2)


@pytest.fixture(scope="session")
def ab_workload() -> Workload:
    """A small Abt-Buy-analogue workload shared across the suite."""
    return load_dataset("AB", scale=0.2)


@pytest.fixture(scope="session")
def fast_tree_config() -> OneSidedTreeConfig:
    """A rule-generation configuration sized for tests."""
    return OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24)


@pytest.fixture(scope="session")
def prepared_ds(ds_workload, fast_tree_config) -> PreparedExperiment:
    """A fully prepared experiment (classifier + risk features) on the small DS workload."""
    classifier = {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 25, "l2": 1e-4}}
    return prepare_experiment(
        ds_workload,
        ratio=(3, 2, 5),
        classifier={"kind": "similarity_view", "params": {"base": classifier}},
        tree_config=fast_tree_config,
        seed=0,
    )
