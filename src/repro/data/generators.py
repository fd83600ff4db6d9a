"""Synthetic ER dataset generators.

The paper evaluates on four public benchmarks (DBLP-Scholar, Abt-Buy,
Amazon-Google, Songs) plus DBLP-ACM for the out-of-distribution study.  Those
downloads are not available in this offline environment, so this module builds
*synthetic analogues*: deterministic generators that produce, per domain, a
universe of real-world entities, two tables describing overlapping subsets of
that universe with different corruption profiles, a ground-truth match set, and
a blocked candidate-pair set with the same heavy class imbalance as the
originals.

The generators are built around three ideas that make the resulting workloads
behave like the paper's:

* **Entity families** — base entities spawn *variants* (the same authors
  publishing a follow-up paper in a different year, a product in a different
  size/edition, a live version of a song).  Variant pairs share many tokens but
  are true non-matches, so they become the hard negatives a classifier
  mislabels and that interpretable difference rules (different year, distinct
  author, different edition token) can catch.
* **Asymmetric corruption** — the "left" table is comparatively clean (DBLP,
  Abt, the canonical song entry), the "right" table is dirty (Google Scholar,
  Buy.com, user-submitted song copies): abbreviations, dropped authors, typos,
  missing values, truncated descriptions.
* **Controlled imbalance** — the candidate set contains every true match
  present in both tables, all intra-family cross pairs, and enough random
  cross pairs to hit a configurable negative:positive ratio.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from . import vocabulary
from .corruption import CorruptionProfile, Corruptor
from .records import Record, Table, pairs_from_ids
from .schema import Attribute, AttributeType, Schema
from .workload import Workload


@dataclass
class Entity:
    """A canonical real-world entity in the synthetic universe.

    ``family`` groups an entity with its hard-negative variants; ``values``
    holds the clean canonical attribute values.
    """

    entity_id: str
    family: int
    values: dict[str, Any]


class DomainGenerator(abc.ABC):
    """Base class for per-domain entity generators.

    Subclasses define the schema, how to sample a fresh base entity, how to
    derive a *variant* entity (similar but distinct), and how the dirty side
    rewrites values (e.g. venue abbreviations).
    """

    #: Schema shared by the two generated tables.
    schema: Schema

    @abc.abstractmethod
    def sample_entity(self, rng: np.random.Generator, family: int, index: int) -> Entity:
        """Sample a fresh base entity for the given family."""

    @abc.abstractmethod
    def make_variant(self, base: Entity, rng: np.random.Generator, index: int) -> Entity:
        """Create a distinct entity similar to ``base`` (a hard negative)."""

    def rewrite_for_right(self, values: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
        """Domain-specific rewriting of values on the dirty side (identity by default)."""
        return dict(values)


class BibliographicGenerator(DomainGenerator):
    """Papers with title, authors, venue and year (DBLP-Scholar / DBLP-ACM analogue)."""

    def __init__(self, venue_abbreviation_rate: float = 0.6) -> None:
        self.venue_abbreviation_rate = venue_abbreviation_rate
        self.schema = Schema((
            Attribute("title", AttributeType.TEXT),
            Attribute("authors", AttributeType.ENTITY_SET),
            Attribute("venue", AttributeType.ENTITY_NAME),
            Attribute("year", AttributeType.NUMERIC),
        ))

    def _sample_title(self, rng: np.random.Generator) -> str:
        topics = rng.choice(vocabulary.RESEARCH_TOPICS, size=3, replace=False)
        obj = rng.choice(vocabulary.RESEARCH_OBJECTS)
        patterns = [
            f"{topics[0].capitalize()} {topics[1]} for {topics[2]} {obj}",
            f"Towards {topics[0]} {topics[1]} in {topics[2]} {obj}",
            f"Efficient {topics[0]} {topics[1]} over {topics[2]} {obj}",
            f"A survey of {topics[0]} {topics[1]} techniques for {obj}",
            f"On the {topics[0]} {topics[1]} of {topics[2]} {obj}",
        ]
        return str(patterns[int(rng.integers(0, len(patterns)))])

    def _sample_authors(self, rng: np.random.Generator, count: int | None = None) -> str:
        if count is None:
            count = int(rng.integers(1, 5))
        surnames = rng.choice(vocabulary.SURNAMES, size=count, replace=False)
        initials = rng.choice(vocabulary.FIRST_INITIALS, size=count, replace=True)
        return ", ".join(f"{initial} {surname}" for initial, surname in zip(initials, surnames))

    def sample_entity(self, rng: np.random.Generator, family: int, index: int) -> Entity:
        values = {
            "title": self._sample_title(rng),
            "authors": self._sample_authors(rng),
            "venue": str(rng.choice(vocabulary.VENUES)),
            "year": int(rng.integers(1985, 2020)),
        }
        return Entity(entity_id=f"paper-{family}-{index}", family=family, values=values)

    def make_variant(self, base: Entity, rng: np.random.Generator, index: int) -> Entity:
        """A follow-up paper: same authors (possibly extended), similar title, new year/venue.

        Half of the variants are *minimal*: the title, authors and venue stay
        identical and only the publication year changes (a journal extension or
        re-publication).  These pairs look like perfect matches to a
        similarity-only classifier and can only be separated by the difference
        knowledge ``different year ⇒ different paper`` (the paper's Eq. 1).
        """
        values = dict(base.values)
        if rng.random() < 0.35:
            values["year"] = int(values["year"]) + int(rng.integers(1, 4))
            return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)
        title_tokens = values["title"].split()
        replacement = str(rng.choice(vocabulary.RESEARCH_TOPICS))
        position = int(rng.integers(0, len(title_tokens)))
        title_tokens[position] = replacement
        if rng.random() < 0.5:
            title_tokens.append(str(rng.choice(("revisited", "extended", "II"))))
        values["title"] = " ".join(title_tokens)
        if rng.random() < 0.4:
            extra = self._sample_authors(rng, count=1)
            values["authors"] = f"{values['authors']}, {extra}"
        values["year"] = int(values["year"]) + int(rng.integers(1, 4))
        if rng.random() < 0.5:
            values["venue"] = str(rng.choice(vocabulary.VENUES))
        return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)

    def rewrite_for_right(self, values: dict[str, Any], rng: np.random.Generator) -> dict[str, Any]:
        rewritten = dict(values)
        venue = rewritten.get("venue")
        if venue and rng.random() < self.venue_abbreviation_rate:
            rewritten["venue"] = vocabulary.VENUE_ABBREVIATIONS.get(venue, venue)
        return rewritten


class ProductGenerator(DomainGenerator):
    """Consumer products with name, description and price (Abt-Buy analogue)."""

    def __init__(self) -> None:
        self.schema = Schema((
            Attribute("name", AttributeType.TEXT),
            Attribute("description", AttributeType.TEXT),
            Attribute("price", AttributeType.NUMERIC),
        ))

    def _sample_model_code(self, rng: np.random.Generator) -> str:
        letters = "".join(rng.choice(list("ABCDEFGHKLMNPRSTVWX"), size=2))
        digits = int(rng.integers(100, 9999))
        return f"{letters}{digits}"

    def sample_entity(self, rng: np.random.Generator, family: int, index: int) -> Entity:
        brand = str(rng.choice(vocabulary.PRODUCT_BRANDS))
        category = str(rng.choice(vocabulary.PRODUCT_CATEGORIES))
        qualifier = str(rng.choice(vocabulary.PRODUCT_QUALIFIERS))
        model = self._sample_model_code(rng)
        name = f"{brand} {qualifier} {category} {model}"
        description = (
            f"{brand} {model} {qualifier.lower()} {category.lower()} with "
            f"{rng.choice(vocabulary.PRODUCT_QUALIFIERS).lower()} design and "
            f"{rng.choice(vocabulary.PRODUCT_QUALIFIERS).lower()} finish"
        )
        price = float(np.round(rng.uniform(20, 1500), 2))
        values = {"name": name, "description": description, "price": price}
        return Entity(entity_id=f"product-{family}-{index}", family=family, values=values)

    def make_variant(self, base: Entity, rng: np.random.Generator, index: int) -> Entity:
        """A sibling model: same brand and category, different model code / qualifier.

        Half of the variants change *only* the model code (and price), which
        keeps the overall name/description similarity very high; only the
        distinct model token (a diff-key-token) separates the two products.
        """
        values = dict(base.values)
        tokens = values["name"].split()
        tokens[-1] = self._sample_model_code(rng)
        if rng.random() < 0.35:
            values["name"] = " ".join(tokens)
            values["price"] = float(np.round(float(values["price"]) * rng.uniform(0.8, 1.2), 2))
            return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)
        if rng.random() < 0.5 and len(tokens) >= 3:
            tokens[1] = str(rng.choice(vocabulary.PRODUCT_QUALIFIERS))
        values["name"] = " ".join(tokens)
        values["description"] = values["description"].rsplit(" ", 2)[0] + (
            f" {rng.choice(vocabulary.PRODUCT_QUALIFIERS).lower()} finish"
        )
        values["price"] = float(np.round(float(values["price"]) * rng.uniform(0.7, 1.3), 2))
        return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)


class SoftwareGenerator(DomainGenerator):
    """Software products with title, manufacturer, description and price (Amazon-Google analogue)."""

    def __init__(self) -> None:
        self.schema = Schema((
            Attribute("title", AttributeType.TEXT),
            Attribute("manufacturer", AttributeType.ENTITY_NAME),
            Attribute("description", AttributeType.TEXT),
            Attribute("price", AttributeType.NUMERIC),
        ))

    def sample_entity(self, rng: np.random.Generator, family: int, index: int) -> Entity:
        vendor = str(rng.choice(vocabulary.SOFTWARE_VENDORS))
        product = str(rng.choice(vocabulary.SOFTWARE_PRODUCTS))
        edition = str(rng.choice(vocabulary.SOFTWARE_EDITIONS))
        version = int(rng.integers(1, 13))
        title = f"{vendor} {product} {version}.0 {edition}"
        description = (
            f"{product} {version}.0 {edition.lower()} edition by {vendor} for "
            f"{rng.choice(('windows', 'mac', 'windows and mac'))} "
            f"{rng.choice(('single user', 'three users', 'family pack'))}"
        )
        price = float(np.round(rng.uniform(10, 800), 2))
        values = {
            "title": title,
            "manufacturer": vendor,
            "description": description,
            "price": price,
        }
        return Entity(entity_id=f"software-{family}-{index}", family=family, values=values)

    def make_variant(self, base: Entity, rng: np.random.Generator, index: int) -> Entity:
        """A different edition or version of the same product line.

        Half of the variants change *only* the version number, leaving the rest
        of the title and the description untouched: a similarity-only matcher
        sees a near-perfect match, while the numeric/difference metrics on the
        version token separate the two editions.
        """
        values = dict(base.values)
        tokens = values["title"].split()
        if rng.random() < 0.35:
            tokens[-2] = f"{int(rng.integers(1, 13))}.0"
            values["title"] = " ".join(tokens)
            values["price"] = float(np.round(float(values["price"]) * rng.uniform(0.8, 1.3), 2))
            return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)
        if rng.random() < 0.5:
            tokens[-1] = str(rng.choice(vocabulary.SOFTWARE_EDITIONS)).split()[0]
        else:
            tokens[-2] = f"{int(rng.integers(1, 13))}.0"
        values["title"] = " ".join(tokens)
        values["description"] = values["description"].replace(
            "single user", "site license"
        ) if rng.random() < 0.5 else values["description"]
        values["price"] = float(np.round(float(values["price"]) * rng.uniform(0.6, 1.5), 2))
        return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)


class SongGenerator(DomainGenerator):
    """Songs with seven attributes (Songs benchmark analogue)."""

    def __init__(self) -> None:
        self.schema = Schema((
            Attribute("title", AttributeType.TEXT),
            Attribute("artist", AttributeType.ENTITY_NAME),
            Attribute("album", AttributeType.TEXT),
            Attribute("composers", AttributeType.ENTITY_SET),
            Attribute("genre", AttributeType.CATEGORICAL),
            Attribute("year", AttributeType.NUMERIC),
            Attribute("duration", AttributeType.NUMERIC),
        ))

    def _sample_artist(self, rng: np.random.Generator) -> str:
        if rng.random() < 0.5:
            return f"The {rng.choice(vocabulary.ARTIST_WORDS)} {rng.choice(vocabulary.ARTIST_NOUNS)}"
        return f"{rng.choice(vocabulary.FIRST_NAMES)} {rng.choice(vocabulary.SURNAMES)}"

    def sample_entity(self, rng: np.random.Generator, family: int, index: int) -> Entity:
        words = rng.choice(vocabulary.SONG_WORDS, size=3, replace=False)
        title = f"{words[0].capitalize()} in the {words[1]} {words[2]}"
        composer_count = int(rng.integers(1, 4))
        composers = ", ".join(
            f"{rng.choice(vocabulary.FIRST_NAMES)} {rng.choice(vocabulary.SURNAMES)}"
            for _ in range(composer_count)
        )
        values = {
            "title": title,
            "artist": self._sample_artist(rng),
            "album": f"{rng.choice(vocabulary.ALBUM_WORDS)} of the {rng.choice(vocabulary.SONG_WORDS)}",
            "composers": composers,
            "genre": str(rng.choice(vocabulary.GENRES)),
            "year": int(rng.integers(1960, 2020)),
            "duration": int(rng.integers(120, 480)),
        }
        return Entity(entity_id=f"song-{family}-{index}", family=family, values=values)

    def make_variant(self, base: Entity, rng: np.random.Generator, index: int) -> Entity:
        """A cover, remix or live version: same title core, different artist/album/year.

        Half of the variants are re-recordings that keep the title, artist and
        composers identical and differ only in year and duration — separable
        only through the numeric difference metrics.
        """
        values = dict(base.values)
        if rng.random() < 0.35:
            values["year"] = int(values["year"]) + int(rng.integers(2, 20))
            values["duration"] = int(values["duration"]) + int(rng.integers(20, 90))
            values["album"] = (
                f"{rng.choice(vocabulary.ALBUM_WORDS)} of the {rng.choice(vocabulary.SONG_WORDS)}"
            )
            return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)
        suffix = str(rng.choice(("live", "remix", "acoustic", "radio edit", "cover")))
        if rng.random() < 0.6:
            values["title"] = f"{values['title']} ({suffix})"
        else:
            values["artist"] = self._sample_artist(rng)
        values["album"] = (
            f"{rng.choice(vocabulary.ALBUM_WORDS)} of the {rng.choice(vocabulary.SONG_WORDS)}"
        )
        values["year"] = int(values["year"]) + int(rng.integers(1, 15))
        values["duration"] = int(values["duration"]) + int(rng.integers(-40, 60))
        return Entity(entity_id=f"{base.entity_id}-v{index}", family=base.family, values=values)


@dataclass
class GenerationConfig:
    """Parameters controlling the size and difficulty of a generated workload.

    Parameters
    ----------
    n_base_entities:
        Number of base entities in the universe.
    variant_rate:
        Probability that a base entity spawns a family of variants.
    max_variants:
        Maximum number of variants per family.
    overlap_rate:
        Probability that an entity present in the left table also appears in
        the right table (these overlaps are the ground-truth matches).
    negative_ratio:
        Target ratio of non-match candidate pairs to match candidate pairs.
    left_profile, right_profile:
        Corruption profiles for the two sides.
    seed:
        Seed for all randomness.
    """

    n_base_entities: int = 400
    variant_rate: float = 0.5
    max_variants: int = 2
    overlap_rate: float = 0.75
    negative_ratio: float = 8.0
    left_profile: CorruptionProfile = None  # type: ignore[assignment]
    right_profile: CorruptionProfile = None  # type: ignore[assignment]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.left_profile is None:
            self.left_profile = CorruptionProfile(typo=0.02, missing=0.01)
        if self.right_profile is None:
            self.right_profile = CorruptionProfile(
                typo=0.15, abbreviate=0.3, drop_token=0.2, truncate=0.15,
                missing=0.08, reorder=0.2, numeric_jitter=0.02, numeric_missing=0.1,
            )
        if self.n_base_entities < 10:
            raise ConfigurationError("n_base_entities must be at least 10")
        if self.negative_ratio < 1.0:
            raise ConfigurationError("negative_ratio must be >= 1")


def _emit_record(
    generator: DomainGenerator,
    entity: Entity,
    corruptor: Corruptor,
    record_id: str,
    source: str,
    rewrite: bool,
    rng: np.random.Generator,
) -> Record:
    """Corrupt an entity's canonical values into a concrete table record."""
    values = generator.rewrite_for_right(entity.values, rng) if rewrite else dict(entity.values)
    emitted: dict[str, Any] = {}
    for attribute in generator.schema:
        value = values.get(attribute.name)
        if attribute.attr_type is AttributeType.NUMERIC:
            emitted[attribute.name] = corruptor.corrupt_numeric(
                None if value is None else float(value)
            )
        elif attribute.attr_type is AttributeType.ENTITY_SET:
            emitted[attribute.name] = corruptor.corrupt_entity_set(value, attribute.separator)
        else:
            emitted[attribute.name] = corruptor.corrupt_string(value)
    return Record(record_id=record_id, values=emitted, source=source)


def _build_corpus(
    generator: DomainGenerator,
    config: GenerationConfig,
    name: str,
) -> tuple[
    np.random.Generator,
    Table,
    Table,
    list[tuple[str, str]],
    dict[int, list[str]],
    dict[int, list[str]],
]:
    """Build the raw corpus (tables + matches) of a generated workload.

    This is the candidate-free prefix of :func:`generate_workload`, factored
    out so :func:`generate_corpus` can produce tables without sampling any
    pair list.  The returned ``rng`` has consumed exactly the draws the
    historical inline code consumed, so :func:`generate_workload` continues
    the sequence bit-identically.
    """
    rng = np.random.default_rng(config.seed)
    entities: list[Entity] = []
    for family in range(config.n_base_entities):
        base = generator.sample_entity(rng, family, 0)
        entities.append(base)
        if rng.random() < config.variant_rate:
            n_variants = int(rng.integers(1, config.max_variants + 1))
            for variant_index in range(1, n_variants + 1):
                entities.append(generator.make_variant(base, rng, variant_index))

    left_corruptor = Corruptor(config.left_profile, np.random.default_rng(config.seed + 1))
    right_corruptor = Corruptor(config.right_profile, np.random.default_rng(config.seed + 2))

    left_table = Table(f"{name}-left", generator.schema)
    right_table = Table(f"{name}-right", generator.schema)
    matches: list[tuple[str, str]] = []
    left_ids_by_family: dict[int, list[str]] = {}
    right_ids_by_family: dict[int, list[str]] = {}

    for entity in entities:
        left_id = f"L-{entity.entity_id}"
        left_table.add(
            _emit_record(generator, entity, left_corruptor, left_id, f"{name}-left", False, rng)
        )
        left_ids_by_family.setdefault(entity.family, []).append(left_id)
        if rng.random() < config.overlap_rate:
            right_id = f"R-{entity.entity_id}"
            right_table.add(
                _emit_record(generator, entity, right_corruptor, right_id, f"{name}-right", True, rng)
            )
            right_ids_by_family.setdefault(entity.family, []).append(right_id)
            matches.append((left_id, right_id))

    return rng, left_table, right_table, matches, left_ids_by_family, right_ids_by_family


def generate_corpus(
    generator: DomainGenerator,
    config: GenerationConfig,
    name: str,
) -> tuple[Table, Table, list[tuple[str, str]]]:
    """Generate only the raw tables and ground-truth matches of a workload.

    The streaming-blocking entry point: unlike :func:`generate_workload`, no
    candidate pairs are sampled or materialised — candidate generation is the
    blocker's job — so memory stays O(records) even for very large corpora.
    The tables and matches are identical to the ones inside the workload that
    :func:`generate_workload` would return for the same config and name.
    """
    _, left_table, right_table, matches, _, _ = _build_corpus(generator, config, name)
    return left_table, right_table, matches


def generate_workload(
    generator: DomainGenerator,
    config: GenerationConfig,
    name: str,
) -> Workload:
    """Generate a complete blocked ER workload for one domain.

    Returns a :class:`~repro.data.workload.Workload` whose candidate pairs
    comprise every cross-table match, every intra-family hard negative, and
    random negatives up to ``config.negative_ratio``.
    """
    rng, left_table, right_table, matches, left_ids_by_family, right_ids_by_family = (
        _build_corpus(generator, config, name)
    )

    candidates: set[tuple[str, str]] = set(matches)
    # Hard negatives: every cross-table pair within a family that is not a match.
    for family, left_ids in left_ids_by_family.items():
        for left_id in left_ids:
            for right_id in right_ids_by_family.get(family, []):
                candidates.add((left_id, right_id))

    # Random negatives to reach the requested imbalance.
    target_size = int(len(matches) * (1.0 + config.negative_ratio))
    left_ids = list(left_table.record_ids)
    right_ids = list(right_table.record_ids)
    match_set = set(matches)
    attempts = 0
    max_attempts = 50 * target_size
    while len(candidates) < target_size and attempts < max_attempts:
        attempts += 1
        left_id = left_ids[int(rng.integers(0, len(left_ids)))]
        right_id = right_ids[int(rng.integers(0, len(right_ids)))]
        if (left_id, right_id) in match_set:
            continue
        candidates.add((left_id, right_id))

    pairs = pairs_from_ids(left_table, right_table, sorted(candidates), matches)
    return Workload(name, pairs, left_table, right_table)


def available_domains() -> dict[str, type[DomainGenerator]]:
    """Return the registry of domain generators keyed by domain name."""
    return {
        "bibliographic": BibliographicGenerator,
        "product": ProductGenerator,
        "software": SoftwareGenerator,
        "song": SongGenerator,
    }


def make_generator(domain: str) -> DomainGenerator:
    """Instantiate the generator for ``domain`` (see :func:`available_domains`)."""
    registry = available_domains()
    if domain not in registry:
        raise ConfigurationError(
            f"unknown domain {domain!r}; available: {sorted(registry)}"
        )
    return registry[domain]()


def workload_summary(workload: Workload) -> dict[str, Any]:
    """Return a Table-2 style summary row for a generated workload."""
    stats = workload.statistics()
    stats["imbalance"] = (
        round((stats["size"] - stats["matches"]) / max(1, stats["matches"]), 2)
    )
    stats["name"] = workload.name
    return stats


def scale_config(config: GenerationConfig, scale: float) -> GenerationConfig:
    """Return a copy of ``config`` with the universe size scaled by ``scale``."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    return GenerationConfig(
        n_base_entities=max(10, int(config.n_base_entities * scale)),
        variant_rate=config.variant_rate,
        max_variants=config.max_variants,
        overlap_rate=config.overlap_rate,
        negative_ratio=config.negative_ratio,
        left_profile=config.left_profile,
        right_profile=config.right_profile,
        seed=config.seed,
    )
