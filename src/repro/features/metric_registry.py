"""Basic metric design (Section 5.1, Figure 5).

The rule-generation algorithm and the ER classifiers both consume a *metric
vector* per candidate pair: one value per (attribute, metric) combination.
Which metrics apply to an attribute depends on its
:class:`~repro.data.schema.AttributeType`, following the paper's hierarchy:

* entity names, entity sets and text descriptions share the core similarity
  metrics: token Jaccard, edit, Jaro-Winkler and token overlap;
* entity names add LCS, the non-substring / non-prefix difference metrics and
  their abbreviation variants;
* entity sets add entity-level Jaccard and Monge-Elkan, plus diff-cardinality
  and distinct-entity;
* text descriptions add TF-IDF cosine and LCS, plus diff-key-token;
* categorical attributes get exact match and edit similarity;
* numeric attributes get relative similarity, plus the inequality and
  relative-difference metrics.

Each metric is a :class:`MetricSpec` carrying a ``kind`` tag
(``"similarity"`` or ``"difference"``) so that downstream consumers (e.g. the
experiment setup that reports "19 basic metrics of which 8 are diff metrics")
can count and filter them.  A registry spec is scored by its batched kernel
from :data:`~repro.text.batch.BATCH_KERNELS`, which is the metric's one
definition; a hand-built spec may instead carry a per-pair ``function``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..data.schema import Attribute, AttributeType, Schema
from ..exceptions import ConfigurationError
from ..text.batch.kernels import BATCH_KERNELS, BatchKernel

#: A per-pair metric takes the two attribute values and a context dict
#: (currently only ``idf``) and returns a float.
MetricFunction = Callable[[object, object, dict], float]

SIMILARITY = "similarity"
DIFFERENCE = "difference"


@dataclass(frozen=True)
class MetricSpec:
    """A single basic metric bound to an attribute.

    Parameters
    ----------
    attribute:
        The attribute name the metric compares.
    metric:
        The metric's short name (``"jaccard"``, ``"non_substring"``, ...).
    kind:
        Either ``"similarity"`` or ``"difference"``.
    function:
        A per-pair :data:`MetricFunction`, for hand-built (custom) metrics;
        the vectoriser calls it once per pair.
    batch_function:
        The batched kernel (see :data:`~repro.text.batch.kernels.BatchKernel`).
        Registry specs carry the kernel of their metric from
        :data:`repro.text.batch.BATCH_KERNELS`; when present the vectoriser
        scores the column through it.

    A spec needs at least one of the two callables.  Both take part in
    equality and hashing, so specs that carry different kernels compare
    unequal.
    """

    attribute: str
    metric: str
    kind: str
    function: MetricFunction | None = None
    batch_function: BatchKernel | None = None

    def __post_init__(self) -> None:
        if self.function is None and self.batch_function is None:
            raise ConfigurationError(
                f"metric {self.attribute}.{self.metric} has neither a function nor a batch_function"
            )

    @property
    def name(self) -> str:
        """Qualified metric name, e.g. ``"title.jaccard"``."""
        return f"{self.attribute}.{self.metric}"


_CORE_STRING_METRICS: tuple[tuple[str, str], ...] = (
    ("jaccard", SIMILARITY),
    ("edit", SIMILARITY),
    ("jaro_winkler", SIMILARITY),
    ("overlap", SIMILARITY),
)

#: ``(metric, kind)`` per attribute type, in column order.
_METRICS_BY_TYPE: dict[AttributeType, tuple[tuple[str, str], ...]] = {
    # Exact numeric (in)equality is treated as *difference* knowledge: a
    # text-embedding matcher sees "1998" and "1999" as near-identical
    # tokens, so exact-equality signals belong to the rule side only.
    AttributeType.NUMERIC: (
        ("numeric_similarity", SIMILARITY),
        ("numeric_inequality", DIFFERENCE),
        ("numeric_difference", DIFFERENCE),
    ),
    AttributeType.CATEGORICAL: (("exact", SIMILARITY), ("edit", SIMILARITY)),
    AttributeType.ENTITY_NAME: _CORE_STRING_METRICS + (
        ("lcs", SIMILARITY),
        ("non_substring", DIFFERENCE),
        ("non_prefix", DIFFERENCE),
        ("abbr_non_substring", DIFFERENCE),
        ("abbr_non_prefix", DIFFERENCE),
    ),
    AttributeType.ENTITY_SET: _CORE_STRING_METRICS + (
        ("entity_jaccard", SIMILARITY),
        ("monge_elkan", SIMILARITY),
        ("diff_cardinality", DIFFERENCE),
        ("distinct_entity", DIFFERENCE),
    ),
    AttributeType.TEXT: _CORE_STRING_METRICS + (
        ("cosine_tfidf", SIMILARITY),
        ("lcs", SIMILARITY),
        ("diff_key_token", DIFFERENCE),
    ),
}


def metrics_for_attribute(attribute: Attribute) -> list[MetricSpec]:
    """Return the basic metrics applicable to ``attribute``.

    Every spec carries its metric's kernel as ``batch_function``, so the
    default vectoriser scores every column batched.
    """
    return [
        MetricSpec(attribute.name, metric, kind, batch_function=BATCH_KERNELS[metric])
        for metric, kind in _METRICS_BY_TYPE[attribute.attr_type]
    ]


def metrics_for_schema(schema: Schema) -> list[MetricSpec]:
    """Return the full list of basic metrics for every attribute of ``schema``."""
    specs: list[MetricSpec] = []
    for attribute in schema:
        specs.extend(metrics_for_attribute(attribute))
    return specs


def count_metrics(specs: list[MetricSpec]) -> dict[str, int]:
    """Count the metrics by kind (reported in the paper's experimental setup)."""
    return {
        "total": len(specs),
        SIMILARITY: sum(1 for spec in specs if spec.kind == SIMILARITY),
        DIFFERENCE: sum(1 for spec in specs if spec.kind == DIFFERENCE),
    }
