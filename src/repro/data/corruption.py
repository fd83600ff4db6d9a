"""Dirty-value injection for synthetic ER benchmarks.

The real benchmark datasets used in the paper (DBLP-Scholar, Abt-Buy,
Amazon-Google, Songs) are hard for classifiers precisely because the two sides
describe the same entity *differently*: abbreviated venues, dropped authors,
typos, truncated titles, missing prices, re-formatted names.  To reproduce the
shape of those workloads without the original downloads, the generators in
:mod:`repro.data.generators` write a clean "entity" once and then pass each
side's record through a :class:`Corruptor` configured with a corruption
profile.  The heavier the profile, the more the classifier mislabels — which is
what risk analysis needs to detect.

All corruption operations are pure functions of an explicit
``numpy.random.Generator`` so dataset generation is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_KEYBOARD_NEIGHBOURS = {
    "a": "qs", "b": "vn", "c": "xv", "d": "sf", "e": "wr", "f": "dg", "g": "fh",
    "h": "gj", "i": "uo", "j": "hk", "k": "jl", "l": "k", "m": "n", "n": "bm",
    "o": "ip", "p": "o", "q": "wa", "r": "et", "s": "ad", "t": "ry", "u": "yi",
    "v": "cb", "w": "qe", "x": "zc", "y": "tu", "z": "x",
}


def introduce_typo(value: str, rng: np.random.Generator) -> str:
    """Apply a single random character-level typo (swap, drop, replace or insert)."""
    if len(value) < 2:
        return value
    position = int(rng.integers(0, len(value) - 1))
    operation = rng.choice(["swap", "drop", "replace", "insert"])
    characters = list(value)
    if operation == "swap":
        characters[position], characters[position + 1] = characters[position + 1], characters[position]
    elif operation == "drop":
        del characters[position]
    elif operation == "replace":
        original = characters[position].lower()
        neighbours = _KEYBOARD_NEIGHBOURS.get(original, "aeiou")
        characters[position] = str(rng.choice(list(neighbours)))
    else:
        original = characters[position].lower()
        neighbours = _KEYBOARD_NEIGHBOURS.get(original, "aeiou")
        characters.insert(position, str(rng.choice(list(neighbours))))
    return "".join(characters)


def abbreviate_tokens(value: str, rng: np.random.Generator, probability: float = 0.5) -> str:
    """Abbreviate some tokens to their first letter (``"Hans Kriegel"`` → ``"H Kriegel"``)."""
    tokens = value.split()
    abbreviated = []
    for token in tokens:
        if len(token) > 2 and rng.random() < probability:
            abbreviated.append(token[0].upper())
        else:
            abbreviated.append(token)
    return " ".join(abbreviated)


def drop_tokens(value: str, rng: np.random.Generator, probability: float = 0.2) -> str:
    """Drop each token independently with ``probability`` (keeping at least one)."""
    tokens = value.split()
    if len(tokens) <= 1:
        return value
    kept = [token for token in tokens if rng.random() >= probability]
    if not kept:
        kept = [tokens[int(rng.integers(0, len(tokens)))]]
    return " ".join(kept)


def truncate_value(value: str, rng: np.random.Generator, min_fraction: float = 0.5) -> str:
    """Truncate a long value to a random prefix of at least ``min_fraction`` of its tokens."""
    tokens = value.split()
    if len(tokens) <= 2:
        return value
    minimum = max(1, int(len(tokens) * min_fraction))
    cut = int(rng.integers(minimum, len(tokens)))
    return " ".join(tokens[:cut])


def shuffle_tokens(value: str, rng: np.random.Generator) -> str:
    """Randomly permute the tokens of a value (author-list reordering)."""
    tokens = value.split()
    if len(tokens) <= 1:
        return value
    permutation = rng.permutation(len(tokens))
    return " ".join(tokens[i] for i in permutation)


def reorder_entity_set(value: str, rng: np.random.Generator, separator: str = ",") -> str:
    """Randomly permute the entities of an entity-set value (e.g. an author list)."""
    entities = [part.strip() for part in value.split(separator) if part.strip()]
    if len(entities) <= 1:
        return value
    permutation = rng.permutation(len(entities))
    return f"{separator} ".join(entities[i] for i in permutation)


def drop_entities(value: str, rng: np.random.Generator, probability: float = 0.25,
                  separator: str = ",") -> str:
    """Drop each entity of an entity-set value independently (keeping at least one)."""
    entities = [part.strip() for part in value.split(separator) if part.strip()]
    if len(entities) <= 1:
        return value
    kept = [entity for entity in entities if rng.random() >= probability]
    if not kept:
        kept = [entities[int(rng.integers(0, len(entities)))]]
    return f"{separator} ".join(kept)


def abbreviate_entities(value: str, rng: np.random.Generator, probability: float = 0.5,
                        separator: str = ",") -> str:
    """Abbreviate the first names of entities in an entity-set value."""
    entities = [part.strip() for part in value.split(separator) if part.strip()]
    abbreviated = [abbreviate_tokens(entity, rng, probability) for entity in entities]
    return f"{separator} ".join(abbreviated)


@dataclass
class CorruptionProfile:
    """Per-attribute corruption intensities, all probabilities in ``[0, 1]``.

    Parameters
    ----------
    typo:
        Probability of introducing a character-level typo.
    abbreviate:
        Probability of abbreviating tokens / entity first names.
    drop_token:
        Probability of dropping tokens (or entities for entity sets).
    truncate:
        Probability of truncating a long text value.
    missing:
        Probability of blanking the value entirely.
    reorder:
        Probability of permuting tokens or entities.
    numeric_jitter:
        Standard deviation (relative) of multiplicative noise added to numeric
        values; 0 disables it.
    numeric_missing:
        Probability of blanking a numeric value.
    """

    typo: float = 0.0
    abbreviate: float = 0.0
    drop_token: float = 0.0
    truncate: float = 0.0
    missing: float = 0.0
    reorder: float = 0.0
    numeric_jitter: float = 0.0
    numeric_missing: float = 0.0

    def scaled(self, factor: float) -> "CorruptionProfile":
        """Return a copy with every probability multiplied by ``factor`` (capped at 0.95)."""
        def cap(p: float) -> float:
            return min(0.95, p * factor)

        return CorruptionProfile(
            typo=cap(self.typo),
            abbreviate=cap(self.abbreviate),
            drop_token=cap(self.drop_token),
            truncate=cap(self.truncate),
            missing=cap(self.missing),
            reorder=cap(self.reorder),
            numeric_jitter=self.numeric_jitter * factor,
            numeric_missing=cap(self.numeric_missing),
        )


@dataclass
class Corruptor:
    """Applies a :class:`CorruptionProfile` to attribute values.

    The corruptor distinguishes plain strings, entity-set strings and numeric
    values; the caller chooses the appropriate method per attribute type.
    """

    profile: CorruptionProfile
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def corrupt_string(self, value: str | None) -> str | None:
        """Corrupt a plain string (entity name or text description)."""
        if value is None:
            return None
        if self.rng.random() < self.profile.missing:
            return None
        corrupted = value
        if self.rng.random() < self.profile.truncate:
            corrupted = truncate_value(corrupted, self.rng)
        if self.rng.random() < self.profile.drop_token:
            corrupted = drop_tokens(corrupted, self.rng)
        if self.rng.random() < self.profile.abbreviate:
            corrupted = abbreviate_tokens(corrupted, self.rng)
        if self.rng.random() < self.profile.reorder:
            corrupted = shuffle_tokens(corrupted, self.rng)
        if self.rng.random() < self.profile.typo:
            corrupted = introduce_typo(corrupted, self.rng)
        return corrupted

    def corrupt_entity_set(self, value: str | None, separator: str = ",") -> str | None:
        """Corrupt an entity-set string (author list, artist list, ...)."""
        if value is None:
            return None
        if self.rng.random() < self.profile.missing:
            return None
        corrupted = value
        if self.rng.random() < self.profile.drop_token:
            corrupted = drop_entities(corrupted, self.rng, separator=separator)
        if self.rng.random() < self.profile.abbreviate:
            corrupted = abbreviate_entities(corrupted, self.rng, separator=separator)
        if self.rng.random() < self.profile.reorder:
            corrupted = reorder_entity_set(corrupted, self.rng, separator=separator)
        if self.rng.random() < self.profile.typo:
            corrupted = introduce_typo(corrupted, self.rng)
        return corrupted

    def corrupt_numeric(self, value: float | None) -> float | None:
        """Corrupt a numeric value by jitter and/or blanking."""
        if value is None:
            return None
        if self.rng.random() < self.profile.numeric_missing:
            return None
        if self.profile.numeric_jitter > 0 and self.rng.random() < 0.5:
            value = float(value) * float(1.0 + self.rng.normal(0.0, self.profile.numeric_jitter))
        return value
