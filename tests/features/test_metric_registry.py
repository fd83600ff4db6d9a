"""Unit tests for the basic-metric registry (Figure 5 hierarchy)."""

from __future__ import annotations

import pytest

from repro.data.records import Record, RecordPair, Table
from repro.data.schema import Attribute, AttributeType
from repro.exceptions import ConfigurationError
from repro.features.metric_registry import (
    DIFFERENCE,
    SIMILARITY,
    MetricSpec,
    count_metrics,
    metrics_for_attribute,
    metrics_for_schema,
)
from repro.features.vectorizer import PairVectorizer
from repro.text.batch import BATCH_KERNELS


def paper_record(record_id: str, title: str, year: int, source: str = "left") -> Record:
    values = {"title": title, "authors": "A Smith", "venue": "VLDB", "year": year}
    return Record(record_id=record_id, values=values, source=source)


class TestMetricsForAttribute:
    def test_entity_name_gets_difference_metrics(self):
        specs = metrics_for_attribute(Attribute("venue", AttributeType.ENTITY_NAME))
        names = {spec.metric for spec in specs}
        assert {"non_substring", "non_prefix", "abbr_non_substring", "abbr_non_prefix"} <= names
        assert any(spec.kind == SIMILARITY for spec in specs)

    def test_entity_set_gets_set_metrics(self):
        specs = metrics_for_attribute(Attribute("authors", AttributeType.ENTITY_SET))
        names = {spec.metric for spec in specs}
        assert {"entity_jaccard", "diff_cardinality", "distinct_entity"} <= names

    def test_text_gets_key_token_metric(self):
        specs = metrics_for_attribute(Attribute("title", AttributeType.TEXT))
        names = {spec.metric for spec in specs}
        assert {"cosine_tfidf", "diff_key_token"} <= names

    def test_numeric_inequality_is_difference_kind(self):
        specs = metrics_for_attribute(Attribute("year", AttributeType.NUMERIC))
        by_name = {spec.metric: spec for spec in specs}
        assert by_name["numeric_inequality"].kind == DIFFERENCE
        assert by_name["numeric_similarity"].kind == SIMILARITY

    def test_categorical_gets_exact_match(self):
        specs = metrics_for_attribute(Attribute("genre", AttributeType.CATEGORICAL))
        assert {spec.metric for spec in specs} == {"exact", "edit"}

    def test_qualified_names(self):
        specs = metrics_for_attribute(Attribute("year", AttributeType.NUMERIC))
        assert all(spec.name.startswith("year.") for spec in specs)

    def test_kernels_are_exactly_the_emitted_metrics(self):
        # A kernel no attribute type emits is unreachable code; a missing
        # one would already fail metrics_for_attribute with a KeyError.
        emitted = {
            spec.metric
            for attr_type in AttributeType
            for spec in metrics_for_attribute(Attribute("value", attr_type))
        }
        assert set(BATCH_KERNELS) == emitted


class TestMetricSpec:
    def test_spec_without_any_callable_is_rejected(self):
        with pytest.raises(ConfigurationError, match="title.nothing"):
            MetricSpec(attribute="title", metric="nothing", kind="similarity")

    def test_kernel_takes_part_in_equality(self):
        def spec(kernel):
            return MetricSpec("title", "edit", SIMILARITY, batch_function=kernel)

        assert spec(BATCH_KERNELS["edit"]) == spec(BATCH_KERNELS["edit"])
        assert spec(BATCH_KERNELS["edit"]) != spec(BATCH_KERNELS["lcs"])
        assert len({spec(BATCH_KERNELS["edit"]), spec(BATCH_KERNELS["lcs"])}) == 2


class TestMetricsForSchema:
    def test_counts(self, paper_schema):
        specs = metrics_for_schema(paper_schema)
        counts = count_metrics(specs)
        assert counts["total"] == len(specs)
        assert counts[SIMILARITY] + counts[DIFFERENCE] == counts["total"]
        assert counts[DIFFERENCE] >= 5  # year, venue, authors, title difference metrics

    def test_spec_scores_through_vectorizer(self, paper_schema):
        vectorizer = PairVectorizer(paper_schema).fit(None, None)
        pairs = [
            RecordPair(paper_record("l", "t", 1994), paper_record("r", "t", year, "right"))
            for year in (1996, 1994)
        ]
        column = vectorizer.transform(pairs)[:, vectorizer.metric_index("year.numeric_inequality")]
        assert column.tolist() == [1.0, 0.0]

    def test_idf_context_forwarded(self, paper_schema):
        corpus = Table("corpus", paper_schema)
        for index, title in enumerate(["indexing for databases", "for graphs", "for trees"]):
            corpus.add(paper_record(f"c{index}", title, 2000))
        pair = RecordPair(paper_record("l", "indexing for databases", 2000),
                          paper_record("r", "indexing for graphs", 2000, "right"))
        # The fitted IDF table reaches the cosine kernel through the context.
        informed = PairVectorizer(paper_schema).fit(corpus, None)
        uninformed = PairVectorizer(paper_schema).fit(None, None)
        column = informed.metric_index("title.cosine_tfidf")
        with_context = informed.transform_pair(pair)[column]
        without_context = uninformed.transform_pair(pair)[column]
        assert 0.0 <= with_context <= 1.0
        assert with_context != without_context
