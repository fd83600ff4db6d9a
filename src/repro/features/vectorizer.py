"""Pair vectorisation: candidate pairs → metric matrices.

The :class:`PairVectorizer` turns a workload's candidate pairs into a dense
``(n_pairs, n_metrics)`` numpy matrix, one column per
:class:`~repro.features.metric_registry.MetricSpec`.  This matrix is the shared
substrate of the whole system:

* the ER classifiers (our DeepMatcher substitute) train on it;
* the one-sided decision trees that generate risk features split on it;
* the TrustScore baseline measures distances in it.

The vectoriser is *fitted* on the two source tables so that corpus-level
statistics (currently the per-attribute IDF tables used by TF-IDF cosine and
diff-key-token) come from the data rather than from the pairs being scored.

**Batched dispatch.**  :meth:`PairVectorizer.transform` scores column by
column: metrics whose spec carries a ``batch_function`` (every registry
metric) run as one numpy kernel over the whole batch of interned pairs,
reading cached tokenisations from a :class:`~repro.text.batch.CorpusIndex`
that normalises and tokenises each distinct value exactly once across the
vectoriser's lifetime; hand-built specs without one (custom metrics) run their
``function`` in a per-pair loop.  The kernels are the metrics' only shipped
definition; ``tests/metric_oracle.py`` holds the scalar reference they match
bit for bit.  The two sub-paths are timed under ``vectorize.batch`` /
``vectorize.scalar`` child spans and counted per column, so a metrics
snapshot shows exactly how much of vectorisation ran batched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..data.records import RecordPair, Table
from ..data.schema import AttributeType, Schema
from ..data.workload import Workload
from ..exceptions import NotFittedError, PersistenceError
from ..obs import get_recorder
from ..serialization import component_state, require_state, state_field
from ..text.batch.interner import CorpusIndex
from ..text.tokenize import idf_weights
from .metric_registry import MetricSpec, metrics_for_schema


class PairVectorizer:
    """Compute the basic-metric feature matrix of candidate pairs.

    Parameters
    ----------
    schema:
        The shared schema of the two tables.
    metrics:
        Explicit metric specs; by default all metrics applicable to the schema.
    corpus_cache_entries:
        Soft cap on distinct interned values held by the corpus index; the
        index resets (between transforms, never mid-batch) once exceeded, so
        unbounded streams run in bounded memory.
    """

    def __init__(
        self,
        schema: Schema,
        metrics: Sequence[MetricSpec] | None = None,
        *,
        corpus_cache_entries: int = 1_000_000,
    ) -> None:
        self.schema = schema
        self.metrics: list[MetricSpec] = list(metrics) if metrics is not None else metrics_for_schema(schema)
        self.corpus_cache_entries = corpus_cache_entries
        #: The lazily created interning cache behind the batched kernels.
        #: Deliberately *not* part of the persisted/pickled state: workers and
        #: reloaded vectorisers rebuild their own (it is a pure cache, so
        #: scores cannot depend on it).
        self.corpus_index: CorpusIndex | None = None
        self._separators: dict[str, str] = {
            attribute.name: attribute.separator for attribute in schema
        }
        self._idf_by_attribute: dict[str, dict[str, float]] | None = None

    @property
    def feature_names(self) -> list[str]:
        """Qualified metric names, one per output column."""
        return [spec.name for spec in self.metrics]

    @property
    def n_features(self) -> int:
        """Number of output columns."""
        return len(self.metrics)

    def fit(self, left_table: Table | None, right_table: Table | None) -> "PairVectorizer":
        """Fit corpus statistics (IDF tables) from the source tables.

        Passing ``None`` tables is allowed; IDF-aware metrics then fall back to
        their uninformed defaults.
        """
        idf_by_attribute: dict[str, dict[str, float]] = {}
        for attribute in self.schema:
            if attribute.attr_type is not AttributeType.TEXT:
                continue
            documents: list[str | None] = []
            for table in (left_table, right_table):
                if table is None:
                    continue
                documents.extend(table.column(attribute.name))
            idf_by_attribute[attribute.name] = idf_weights(documents)
        self._idf_by_attribute = idf_by_attribute
        return self

    def fit_workload(self, workload: Workload) -> "PairVectorizer":
        """Convenience wrapper fitting from a workload's source tables."""
        return self.fit(workload.left_table, workload.right_table)

    def _context_for(self, spec: MetricSpec) -> dict:
        idf_tables = self._idf_by_attribute or {}
        return {"idf": idf_tables.get(spec.attribute)}

    def _ensure_corpus_index(self) -> CorpusIndex:
        """The live corpus index, created lazily."""
        if self.corpus_index is None:
            self.corpus_index = CorpusIndex(max_entries=self.corpus_cache_entries)
        return self.corpus_index

    def transform_pair(self, pair: RecordPair) -> np.ndarray:
        """Return the metric vector of a single pair.

        Routed through :meth:`transform` on a single-pair batch, so the
        serving cache-miss path shares the batched/cached dispatch and the
        ``vectorize`` span instead of duplicating the per-metric loop.
        """
        return self.transform([pair])[0]

    def transform(self, pairs: Iterable[RecordPair]) -> np.ndarray:
        """Return the ``(n_pairs, n_metrics)`` matrix for ``pairs``.

        The matrix is filled one metric column at a time.  Contexts and
        attribute-value extraction are hoisted per attribute (shared by all of
        the attribute's metrics), and each column dispatches to the spec's
        batched kernel when it has one — reading interned representations
        from the corpus index — or to the spec's per-pair ``function``
        otherwise.
        """
        if self._idf_by_attribute is None:
            raise NotFittedError("PairVectorizer.transform called before fit")
        # The "vectorize" span lives here, at the lowest shared level, so the
        # pipeline stages, the streaming loop and the serving cache-miss path
        # all contribute to one vectorisation total in the metrics snapshot.
        recorder = get_recorder()
        with recorder.span("vectorize"):
            pairs = list(pairs)
            matrix = np.empty((len(pairs), len(self.metrics)), dtype=float)
            if not pairs:
                return matrix
            index = self._ensure_corpus_index()
            # Enforce the memory cap strictly *between* transforms: entry ids
            # handed out below stay valid for the whole batch.
            index.maybe_reset()
            contexts: dict[str, dict] = {}
            interned: dict[str, tuple] = {}
            values_by_attribute: dict[str, list[tuple[object, object]]] = {}
            for column, spec in enumerate(self.metrics):
                attribute = spec.attribute
                context = contexts.get(attribute)
                if context is None:
                    context = contexts[attribute] = self._context_for(spec)
                pair_values = values_by_attribute.get(attribute)
                if pair_values is None:
                    pair_values = [pair.values(attribute) for pair in pairs]
                    values_by_attribute[attribute] = pair_values
                if spec.batch_function is not None:
                    entry = interned.get(attribute)
                    if entry is None:
                        view = index.view(attribute, self._separators.get(attribute, ","))
                        left_ids = view.entry_ids([values[0] for values in pair_values])
                        right_ids = view.entry_ids([values[1] for values in pair_values])
                        # Deduplicate the batch to its distinct value pairs
                        # once per attribute; every metric column shares the
                        # bundle and its dense pair ids.
                        dedup = view.pair_dedup(left_ids, right_ids)
                        entry = interned[attribute] = (view, dedup)
                    view, dedup = entry
                    with recorder.span("batch"):
                        # The view memoises distinct-pair scores, so the
                        # kernel only sees never-scored pairs.
                        matrix[:, column] = view.memoized_scores(
                            spec.metric, spec.batch_function, dedup, context
                        )
                    recorder.count("vectorize.batch_columns")
                else:
                    function = spec.function
                    with recorder.span("scalar"):
                        matrix[:, column] = [
                            function(left_value, right_value, context)
                            for left_value, right_value in pair_values
                        ]
                    recorder.count("vectorize.scalar_columns")
            return matrix

    def fit_transform(self, workload: Workload) -> np.ndarray:
        """Fit on the workload's tables and transform its pairs in one call."""
        return self.fit_workload(workload).transform(workload.pairs)

    def metric_index(self, name: str) -> int:
        """Return the column index of the metric with qualified name ``name``."""
        try:
            return self.feature_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown metric {name!r}") from exc

    # ------------------------------------------------------------ persistence
    STATE_KIND = "pair_vectorizer"
    STATE_VERSION = 1

    def __getstate__(self) -> dict:
        """Pickle through the persistence state, not the live ``__dict__``.

        A raw ``__dict__`` pickle would ship the corpus index — a pure cache
        that grows with every distinct value seen — to every worker that
        receives a vectoriser, or anything holding one, like
        :class:`~repro.risk.feature_generation.GeneratedRiskFeatures`.
        Round-tripping through :meth:`to_state` instead rebuilds the specs
        from the metric registry on unpickle, with the same restriction as
        disk persistence: only registry metrics survive.
        """
        return self.to_state()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(PairVectorizer.from_state(state).__dict__)

    def to_state(self) -> dict:
        """Export the fitted vectoriser as a JSON-safe state dict.

        Metric functions are not serialised; they are rebuilt from the schema
        through :func:`~repro.features.metric_registry.metrics_for_schema` and
        matched by qualified name, so only registry metrics round-trip.
        """
        return component_state(self.STATE_KIND, self.STATE_VERSION, {
            "schema": self.schema.to_dict(),
            "metric_names": self.feature_names,
            "idf_by_attribute": self._idf_by_attribute,
        })

    @classmethod
    def from_state(cls, state: dict) -> "PairVectorizer":
        """Rebuild a vectoriser written by :meth:`to_state`."""
        state = require_state(state, cls.STATE_KIND, cls.STATE_VERSION)
        schema = Schema.from_dict(state_field(state, "schema", cls.STATE_KIND))
        metric_names = state_field(state, "metric_names", cls.STATE_KIND)
        available = {spec.name: spec for spec in metrics_for_schema(schema)}
        metrics = []
        for name in metric_names:
            spec = available.get(name)
            if spec is None:
                raise PersistenceError(
                    f"saved vectoriser references metric {name!r}, which the metric "
                    f"registry does not define for this schema (custom metrics cannot "
                    f"be persisted)"
                )
            metrics.append(spec)
        vectorizer = cls(schema, metrics=metrics)
        idf_tables = state_field(state, "idf_by_attribute", cls.STATE_KIND)
        if idf_tables is not None:
            vectorizer._idf_by_attribute = {
                str(attribute): {str(token): float(weight) for token, weight in table.items()}
                for attribute, table in idf_tables.items()
            }
        return vectorizer
