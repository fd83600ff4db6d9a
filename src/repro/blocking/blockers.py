"""Streaming blockers: bounded-memory candidate producers over corpus waves.

A :class:`Blocker` turns a :class:`~repro.blocking.corpus.CorpusStream` into a
deterministic stream of candidate ``(left_id, right_id)`` pairs.  The
contract, shared by every implementation:

* **bounded memory** — a wave's index and per-record token sets (both
  O(records)) are held; the candidate set (O(records²)) never is.  Candidates
  exist only as the emitted chunks.
* **deterministic order** — left records are probed in table order and each
  probe's results are sorted, so the stream never depends on
  ``PYTHONHASHSEED`` or insertion order.
* **no duplicates** — each left record is probed exactly once per wave and a
  probe returns each right id at most once, so the stream is duplicate-free
  by construction (no seen-set needed).

:class:`IndexBlocker` implementations (:class:`InvertedIndexBlocker`,
:class:`MinHashLSHBlocker`) expose :meth:`IndexBlocker.prepare`, a per-wave
prober, which is what lets :class:`~repro.blocking.source.BlockingPairSource`
union several blockers *per left record* — still bounded, still deduplicated.
:class:`SortedWindowBlocker` (sorted-neighbourhood) is window- rather than
index-based and streams its merged sort order directly.

The eager API is :meth:`Blocker.block` — a thin materialising wrapper
returning the full sorted pair list.  For :class:`InvertedIndexBlocker` and
:class:`SortedWindowBlocker` it is parity-tested bit for bit against the
historical token and sorted-neighbourhood blockers they replaced.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..data.records import Record, Table
from ..exceptions import ConfigurationError
from ..obs import get_recorder
from ..registry import ComponentRegistry
from .corpus import CorpusStream, CorpusWave
from .index import BlockingIndex, InvertedIndex, MinHashIndex, record_token_set

#: Default number of id pairs per emitted candidate chunk.
DEFAULT_CHUNK_SIZE = 1024

#: A per-wave prober: maps a left record to sorted candidate right ids.
Prober = Callable[[Record], list[str]]


def chunk_id_pairs(
    pairs: Iterable[tuple[str, str]], chunk_size: int
) -> Iterator[list[tuple[str, str]]]:
    """Repack an id-pair stream into lists of at most ``chunk_size`` pairs."""
    import itertools

    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = iter(pairs)
    while True:
        chunk = list(itertools.islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def frequency_stop_tokens(
    token_sets: Sequence[frozenset[str]], max_token_frequency: float, n_records: int
) -> set[str]:
    """Tokens whose document frequency exceeds ``max_token_frequency``.

    The limit is ``max(1, int(max_token_frequency * n_records))`` — the exact
    rule of the historical ``TokenBlocker._stop_tokens``, applied to
    pre-computed per-record token sets so no record is tokenised twice.
    """
    counts: dict[str, int] = defaultdict(int)
    for tokens in token_sets:
        for token in tokens:
            counts[token] += 1
    limit = max(1, int(max_token_frequency * n_records))
    return {token for token, count in counts.items() if count > limit}


class Blocker(abc.ABC):
    """A deterministic, bounded-memory candidate producer over corpus waves."""

    #: Registry-style name, used in CLI output and source naming.
    name: str = "blocker"

    @abc.abstractmethod
    def iter_wave_candidates(self, wave: CorpusWave) -> Iterator[tuple[str, str]]:
        """Stream the wave's candidate id pairs, deterministically ordered.

        Implementations must emit each pair at most once and must not hold
        the emitted set.
        """

    def iter_candidate_chunks(
        self, corpus: CorpusStream, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[list[tuple[str, str]]]:
        """Stream candidate id pairs over every wave, packed into chunks.

        Chunks never span waves, so each wave's index can be freed before the
        next is built; only the final chunk of a wave may be partial.
        """
        recorder = get_recorder()
        for wave in corpus.waves():
            recorder.count("blocking.waves")
            for chunk in chunk_id_pairs(self.iter_wave_candidates(wave), chunk_size):
                recorder.count("blocking.candidates_emitted", len(chunk))
                yield chunk

    def block(
        self, left_table: Table, right_table: Table
    ) -> list[tuple[str, str]]:
        """Materialise the full sorted candidate list for two tables.

        The legacy eager API: everything the streaming path emits, collected
        and sorted.  Safe only for bounded corpora — this is the one place
        the blocking layer holds a full pair list, and the classic
        :mod:`repro.data.blocking` blockers are thin wrappers over it.
        """
        wave = CorpusWave(left_table, right_table)
        return sorted(self.iter_wave_candidates(wave))


class IndexBlocker(Blocker):
    """A blocker that builds a per-wave :class:`BlockingIndex` over the right
    table and probes it once per left record.

    Subclasses implement :meth:`prepare`; the streaming emission derives from
    it.  Probers are per-record, which is what allows several index blockers
    to be unioned record-by-record without a global seen-set.
    """

    @abc.abstractmethod
    def prepare(self, wave: CorpusWave) -> Prober:
        """Build the wave's index and return its per-left-record prober."""

    def iter_wave_candidates(self, wave: CorpusWave) -> Iterator[tuple[str, str]]:
        prober = self.prepare(wave)
        for record in wave.left:
            left_id = record.record_id
            for right_id in prober(record):
                yield (left_id, right_id)


class InvertedIndexBlocker(IndexBlocker):
    """Token-postings blocking: pairs share ``min_shared`` non-stop tokens.

    The streaming re-implementation of the classic token blocker: per wave it
    tokenises every record exactly once, derives frequency stop tokens from
    both sides (unless an explicit ``stop_tokens`` set or a pure
    ``max_postings`` cap is supplied), indexes the right side, then probes
    left records in order.  Output is bit-identical to the historical
    ``TokenBlocker.block`` when collected and sorted.

    Parameters
    ----------
    attributes:
        Attributes whose tokens form the blocking key.
    min_shared:
        Minimum shared (non-stop) tokens for a candidate.
    max_token_frequency:
        Tokens in more than this fraction of either side's records are stop
        words (computed per wave, per side, exactly like the historical
        token blocker).
    stop_tokens:
        Explicit stop set; when given, the per-wave frequency pass is skipped
        (the open-ended-stream regime, where corpus frequencies are unknown).
    max_postings:
        Optional incremental cap handed to the :class:`InvertedIndex` —
        tokens whose posting lists outgrow it are dropped on the fly.
    """

    name = "inverted"

    def __init__(
        self,
        attributes: Sequence[str],
        min_shared: int = 1,
        max_token_frequency: float = 0.1,
        stop_tokens: Iterable[str] | None = None,
        max_postings: int | None = None,
    ) -> None:
        if not attributes:
            raise ConfigurationError("InvertedIndexBlocker requires at least one attribute")
        if min_shared < 1:
            raise ConfigurationError("min_shared must be >= 1")
        if not 0.0 < max_token_frequency <= 1.0:
            raise ConfigurationError("max_token_frequency must be in (0, 1]")
        self.attributes = tuple(attributes)
        self.min_shared = min_shared
        self.max_token_frequency = max_token_frequency
        self.stop_tokens = None if stop_tokens is None else frozenset(stop_tokens)
        self.max_postings = max_postings

    def prepare(self, wave: CorpusWave) -> Prober:
        recorder = get_recorder()
        with recorder.span("blocking_index_build"):
            # One tokenisation pass per record per wave: these sets feed stop
            # counting, index building AND probing.
            left_tokens = {
                record.record_id: record_token_set(record, self.attributes)
                for record in wave.left
            }
            right_tokens = [
                (record.record_id, record_token_set(record, self.attributes))
                for record in wave.right
            ]
            if self.stop_tokens is not None:
                stop = set(self.stop_tokens)
            else:
                stop = frequency_stop_tokens(
                    list(left_tokens.values()), self.max_token_frequency, len(wave.left)
                ) | frequency_stop_tokens(
                    [tokens for _, tokens in right_tokens],
                    self.max_token_frequency,
                    len(wave.right),
                )
            index = InvertedIndex(
                min_shared=self.min_shared, stop_tokens=stop, max_postings=self.max_postings
            )
            for record_id, tokens in right_tokens:
                index.add(record_id, tokens)
            recorder.count("blocking.records_indexed", index.size)
            recorder.count("blocking.stop_tokens_pruned", len(stop) + len(index.pruned_tokens))

        def probe(record: Record) -> list[str]:
            tokens = left_tokens.get(record.record_id)
            if tokens is None:  # record outside the prepared wave: tokenize now
                tokens = record_token_set(record, self.attributes)
            # Incremental pruning can retire tokens after earlier probes; the
            # index re-checks membership per probe, so this stays correct.
            return index.candidates(tokens)

        return probe


class MinHashLSHBlocker(IndexBlocker):
    """MinHash-LSH blocking: banded signature buckets over the blocking tokens.

    Recall is tunable through ``bands`` × ``rows``: with per-band seeding the
    candidate set grows monotonically in ``bands`` (more buckets, strictly
    more collisions) and shrinks in ``rows`` (stricter per-band agreement).

    Parameters
    ----------
    attributes:
        Attributes whose tokens form the MinHash universe.
    bands, rows, seed:
        LSH geometry and the permutation-hash seed (see
        :class:`~repro.blocking.index.MinHashIndex`).
    """

    name = "minhash"

    def __init__(
        self,
        attributes: Sequence[str],
        bands: int = 8,
        rows: int = 4,
        seed: int = 0,
    ) -> None:
        if not attributes:
            raise ConfigurationError("MinHashLSHBlocker requires at least one attribute")
        self.attributes = tuple(attributes)
        self.bands = bands
        self.rows = rows
        self.seed = seed

    def prepare(self, wave: CorpusWave) -> Prober:
        recorder = get_recorder()
        with recorder.span("blocking_index_build"):
            index = MinHashIndex(bands=self.bands, rows=self.rows, seed=self.seed)
            for record in wave.right:
                index.add(record.record_id, record_token_set(record, self.attributes))
            recorder.count("blocking.records_indexed", index.size)

        def probe(record: Record) -> list[str]:
            return index.candidates(record_token_set(record, self.attributes))

        return probe


class SortedWindowBlocker(Blocker):
    """Sorted-neighbourhood blocking: a sliding window over the merged sort order.

    Records of both sides are sorted by a key and each record is paired with
    the other-side records among its next ``window`` neighbours.  Emission
    walks the sorted order once, so the stream is duplicate-free (a pair is
    only ever produced at its earlier member's position) and needs no pair
    set.

    Missing keys (``None`` or empty) sort *after* every real key via an
    explicit ``(is_missing, key)`` sort tuple — not the historical ``"~"``
    string sentinel, which interleaved wrongly with keys sorting above
    ``"~"`` (regression-tested).

    Parameters
    ----------
    key:
        Function mapping a record to its sort key, or the name of an
        attribute whose string value is the key.
    window:
        Number of following records (of the other side) paired with each
        record in the merged order.
    """

    name = "sorted_window"

    def __init__(self, key: Callable[[Record], str | None] | str, window: int = 5) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if isinstance(key, str):
            attribute = key
            self.key: Callable[[Record], str | None] = (
                lambda record: None if record[attribute] is None else str(record[attribute])
            )
            self.key_attribute: str | None = attribute
        else:
            self.key = key
            self.key_attribute = None
        self.window = window

    def _sort_entry(self, record: Record, side: int) -> tuple[bool, str, int, str]:
        key = self.key(record)
        # Falsy keys (None or "") sort last as a class of their own; real keys
        # sort lexicographically.  The tuple keeps the sort total and stable.
        return (not key, key or "", side, record.record_id)

    def iter_wave_candidates(self, wave: CorpusWave) -> Iterator[tuple[str, str]]:
        recorder = get_recorder()
        with recorder.span("blocking_index_build"):
            entries: list[tuple[bool, str, int, str]] = []
            for record in wave.left:
                entries.append(self._sort_entry(record, 0))
            for record in wave.right:
                entries.append(self._sort_entry(record, 1))
            # Stable sort on (missing, key) only: equal keys keep insertion
            # order (left before right), matching the historical blocker.
            entries.sort(key=lambda entry: entry[:2])
            recorder.count("blocking.records_indexed", len(entries))
        for i, (_, _, side_i, id_i) in enumerate(entries):
            for j in range(i + 1, min(i + 1 + self.window, len(entries))):
                _, _, side_j, id_j = entries[j]
                if side_i == side_j:
                    continue
                if side_i == 0:
                    yield (id_i, id_j)
                else:
                    yield (id_j, id_i)

    def block(self, left_table: Table, right_table: Table) -> list[tuple[str, str]]:
        wave = CorpusWave(left_table, right_table)
        return sorted(self.iter_wave_candidates(wave))


# ------------------------------------------------------------------ registry
#: Registry of blocker factories (``factory(**params) -> Blocker``).
BLOCKERS = ComponentRegistry("blocker")


def register_blocker(key: str, factory=None, *, overwrite: bool = False):
    """Register a blocker factory under ``key`` (usable as a decorator)."""
    return BLOCKERS.register(key, factory, overwrite=overwrite)


def registered_blockers() -> list[str]:
    """Registered blocker keys, sorted."""
    return BLOCKERS.keys()


def create_blocker(spec: Mapping[str, Any] | Blocker, seed: int = 0) -> Blocker:
    """Build a blocker from ``{"kind": ..., "params": {...}}`` configuration.

    Already-built :class:`Blocker` instances pass through; the spec-level
    ``seed`` is injected when the factory accepts one and params don't pin it.
    """
    if isinstance(spec, Blocker):
        return spec
    from ..compose.spec import ComponentSpec
    from ..compose.registries import _accepts_parameter

    component = ComponentSpec.coerce(spec, "blocker")
    params = dict(component.params)
    factory = BLOCKERS.get(component.kind)
    if "seed" not in params and _accepts_parameter(factory, "seed"):
        params["seed"] = seed
    blocker = BLOCKERS.create(component.kind, **params)
    if not isinstance(blocker, Blocker):
        raise ConfigurationError(
            f"blocker factory {component.kind!r} returned {type(blocker).__name__}, "
            f"expected a Blocker"
        )
    return blocker


register_blocker("inverted", InvertedIndexBlocker)
register_blocker("minhash", MinHashLSHBlocker)


@register_blocker("sorted_window")
def build_sorted_window_blocker(
    key_attribute: str | None = None, window: int = 5
) -> SortedWindowBlocker:
    """Spec-friendly sorted-neighbourhood blocker keyed on one attribute."""
    if not key_attribute:
        raise ConfigurationError("sorted_window blocker requires a 'key_attribute'")
    return SortedWindowBlocker(key_attribute, window=window)
