"""String tokenisation and normalisation; the basic metrics live in :mod:`repro.text.batch`."""

from .tokenize import (
    abbreviation,
    idf_weights,
    normalize,
    split_entity_set,
    token_counts,
    token_set,
    tokenize,
)

__all__ = [
    "abbreviation",
    "idf_weights",
    "normalize",
    "split_entity_set",
    "token_counts",
    "token_set",
    "tokenize",
]
