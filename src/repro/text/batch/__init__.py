"""Corpus-interned, numpy-batched basic-metric kernels.

This package holds the one shipped definition of every basic metric the
registry emits: the :class:`CorpusIndex` interns every distinct attribute
value once (normalised form, token ids, entity ids, char codes, TF-IDF rows —
built lazily per attribute), and the kernels in
:mod:`repro.text.batch.kernels` score whole columns of interned pairs with
vectorised numpy arithmetic, **bit-identical** to the per-pair reference
definitions in ``tests/metric_oracle.py``.

:data:`BATCH_KERNELS` maps metric short names to kernels; the metric registry
attaches them to its :class:`~repro.features.metric_registry.MetricSpec`
objects and :class:`~repro.features.vectorizer.PairVectorizer` dispatches
column by column, calling a hand-built spec's per-pair function for metrics
without a kernel (custom metrics).
"""

from .chars import batched_jaro_winkler
from .interner import AttributeView, CorpusIndex, TokenInterner
from .kernels import BATCH_KERNELS, BatchKernel

__all__ = [
    "AttributeView",
    "BATCH_KERNELS",
    "BatchKernel",
    "CorpusIndex",
    "TokenInterner",
    "batched_jaro_winkler",
]
