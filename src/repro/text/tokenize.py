"""Tokenisation and normalisation helpers shared by all metrics.

These derive every representation the corpus index caches per distinct value
(normalised string, tokens, entity names, abbreviation, parsed number), and
the IDF tables the vectoriser fits.  Normalisation and tokenisation are
memoised process-wide (bounded LRU caches): blocking, IDF fitting and the
corpus index re-derive representations from the same handful of distinct
values, so the caches turn repeated regex work into dictionary lookups.  The
cached layers return immutable tuples; the public helpers copy them into fresh
lists, preserving the original "caller may mutate the result" contract.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from typing import Iterable

import numpy as np

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")
_WHITESPACE = re.compile(r"\s+")

#: Bound on each memo (distinct strings, not bytes); big enough that realistic
#: corpora fit entirely, small enough that adversarial streams stay bounded.
_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_CACHE_SIZE)
def _normalize_str(value: str) -> str:
    return _WHITESPACE.sub(" ", value.strip().lower())


@lru_cache(maxsize=_CACHE_SIZE)
def _token_tuple(normalized: str) -> tuple[str, ...]:
    return tuple(_TOKEN_PATTERN.findall(normalized))


def normalize(value: str | None) -> str:
    """Lower-case ``value`` and collapse runs of whitespace.

    ``None`` and non-string inputs normalise to the empty string so that
    callers never have to special-case missing values.
    """
    if value is None:
        return ""
    if not isinstance(value, str):
        value = str(value)
    return _normalize_str(value)


def tokenize(value: str | None) -> list[str]:
    """Split ``value`` into lower-case alphanumeric tokens."""
    return list(_token_tuple(normalize(value)))


def token_set(value: str | None) -> set[str]:
    """Return the set of tokens of ``value``."""
    return set(tokenize(value))


def token_counts(value: str | None) -> Counter:
    """Return the multiset (Counter) of tokens of ``value``."""
    return Counter(tokenize(value))


def split_entity_set(value: str | None, separator: str = ",") -> list[str]:
    """Split an entity-set value (e.g. an author list) into normalised names.

    Empty components are dropped; each name keeps its internal token order.
    """
    if value is None:
        return []
    names = []
    for part in str(value).split(separator):
        name = normalize(part)
        if name:
            names.append(name)
    return names


def abbreviation(value: str | None) -> str:
    """Return the first-letter abbreviation of a multi-token value.

    ``"Very Large Data Bases"`` abbreviates to ``"vldb"``.  Single-token values
    return themselves so that comparing an already-abbreviated value with its
    expansion works in either direction.
    """
    tokens = tokenize(value)
    if not tokens:
        return ""
    if len(tokens) == 1:
        return tokens[0]
    return "".join(token[0] for token in tokens)


def idf_weights(documents: Iterable[str | None]) -> dict[str, float]:
    """Compute inverse-document-frequency weights over a corpus of values.

    Used by the ``diff-key-token`` difference metric and by TF-IDF cosine
    similarity to decide which tokens are *discriminating*.  The table is
    keyed in sorted token order, not in set order, which follows the
    per-process string hash seed: a saved vectoriser then has the same bytes
    in every process.
    """
    import math

    document_frequency: Counter = Counter()
    n_documents = 0
    for document in documents:
        tokens = token_set(document)
        if not tokens:
            continue
        n_documents += 1
        document_frequency.update(tokens)
    if n_documents == 0:
        return {}
    return {
        token: math.log((1 + n_documents) / (1 + frequency)) + 1.0
        for token, frequency in sorted(document_frequency.items())
    }


def _to_float(value: float | str | None) -> float | None:
    """Best-effort conversion of a raw attribute value to a *finite* ``float``.

    This is what numeric metrics call missing: ``None``, blanks, text that does
    not parse, and strings like ``"nan"`` / ``"inf"``, which parse as floats
    but would poison every downstream ratio with non-finite values.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        result = float(value)
        return result if np.isfinite(result) else None
    text = str(value).strip()
    if not text:
        return None
    try:
        result = float(text)
    except ValueError:
        return None
    return result if np.isfinite(result) else None
