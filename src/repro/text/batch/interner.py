"""Corpus interning: tokenize and normalise every record value exactly once.

A per-pair metric (like the reference definitions in
``tests/metric_oracle.py``) re-derives everything from the raw attribute
values on every call: a record compared against 50 candidate records is
normalised, tokenised and split 50 times *per metric*.  The
:class:`CorpusIndex` removes that repetition by interning each distinct
attribute value into an integer **entry id** the first time it is seen and
caching every derived representation against that id:

* the normalised string and its interned norm id (exact-match in O(1));
* the token list, interned token-id arrays (sequence order) and sorted unique
  token-id arrays (set metrics as sorted-id intersections);
* UTF-32 character-code arrays (the batched edit / LCS / Jaro DP kernels);
* entity-set id arrays and entity-list cardinalities (entity metrics);
* abbreviations and compact (space-free) forms;
* parsed numeric values with a present mask (numeric metrics);
* IDF-dependent rows (TF-IDF weights, key-token ids), cached per IDF table.

Representations are built **lazily per attribute**: an attribute whose metrics
never touch character codes never pays for them, and each representation
tracks a high-water mark so entries interned by later batches only extend the
caches.

The index is plain picklable data (the lock is dropped and recreated), so the
parallel engine's workers can rebuild or ship it freely; it is also bounded —
:meth:`CorpusIndex.maybe_reset` drops everything once ``max_entries`` distinct
values accumulate, which keeps long-running services at a fixed memory
footprint (the caches are value-keyed and deterministic, so a reset can never
change a score).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Callable, Sequence

import numpy as np

from ..tokenize import _to_float, abbreviation, normalize, split_entity_set, tokenize

#: Entry ids are indices into per-attribute lists; token/norm/entity ids
#: are indices into the corpus-wide :class:`TokenInterner`.
_ID_DTYPE = np.int32


class TokenInterner:
    """Bidirectional string ↔ integer-id mapping shared by a corpus index."""

    __slots__ = ("_ids", "strings")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []

    def __len__(self) -> int:
        return len(self.strings)

    def intern(self, string: str) -> int:
        """Return the id of ``string``, assigning the next free id if new."""
        token_id = self._ids.get(string)
        if token_id is None:
            token_id = len(self.strings)
            self._ids[string] = token_id
            self.strings.append(string)
        return token_id

    def intern_sequence(self, strings: Sequence[str]) -> np.ndarray:
        """Intern ``strings`` preserving order (duplicates keep their ids)."""
        return np.fromiter(
            (self.intern(s) for s in strings), dtype=_ID_DTYPE, count=len(strings)
        )

    def intern_sorted_set(self, strings: Sequence[str]) -> np.ndarray:
        """Intern the distinct ``strings`` and return their ids sorted ascending."""
        ids = {self.intern(s) for s in strings}
        return np.fromiter(sorted(ids), dtype=_ID_DTYPE, count=len(ids))


def _hashable_key(value: Any) -> Any:
    """The interning key of a raw attribute value.

    Unhashable values collapse onto their ``str()`` form, which is safe: every
    cached representation (``normalize``, ``tokenize``, ``_to_float``) already
    goes through ``str()`` for non-string, non-numeric inputs.
    """
    try:
        hash(value)
    except TypeError:
        return str(value)
    return value


def _array_size(array: np.ndarray) -> int:
    """Mirror transform: an id array's element count."""
    return array.size


def _encode_utf32(string: str) -> np.ndarray:
    """Mirror transform: a string's UTF-32 code-point array."""
    return np.frombuffer(string.encode("utf-32-le"), dtype=_ID_DTYPE)


class _ColumnMirror:
    """Growable numpy mirror of an append-only Python list column.

    Batch kernels gather per-entry data with numpy fancy indexing — one
    vectorised operation instead of a Python loop of list lookups (which, at
    one traced allocation per element, dominates the cost of small kernels
    under ``tracemalloc``).  The mirror trails its
    source list with a fill watermark and doubles capacity on growth, so a
    warm sync is a bounds check.  ``transform`` (a module-level function, to
    keep the mirror picklable) derives the mirrored value from the source
    element — e.g. :func:`_array_size` for set-cardinality columns.
    """

    __slots__ = ("array", "filled", "transform")

    def __init__(self, dtype: object, transform: Any = None) -> None:
        self.array = np.empty(0, dtype=dtype)
        self.filled = 0
        self.transform = transform

    def sync(self, source: list) -> np.ndarray:
        """Extend the mirror to cover ``source`` and return the aligned view."""
        count = len(source)
        if count > self.array.size:
            grown = np.empty(max(count, 2 * self.array.size, 64), dtype=self.array.dtype)
            grown[: self.filled] = self.array[: self.filled]
            self.array = grown
        if self.filled < count:
            transform = self.transform
            if transform is None and self.array.dtype != object:
                self.array[self.filled : count] = source[self.filled : count]
            else:
                # Element-wise for object columns: slice assignment would let
                # numpy coerce equal-length ndarray elements into a 2-D block.
                array = self.array
                if transform is None:
                    for entry in range(self.filled, count):
                        array[entry] = source[entry]
                else:
                    for entry in range(self.filled, count):
                        array[entry] = transform(source[entry])
            self.filled = count
        return self.array[:count]


class PairDedup:
    """The distinct ``(left entry, right entry)`` pairs of one batch.

    Built once per attribute per transform and shared by every metric column
    of the attribute — the dedup (a sort), the dense pair-id interning and the
    inverse scatter map are all per-*attribute* costs, not per-column ones.
    """

    __slots__ = ("unique_left", "unique_right", "pair_ids", "inverse")

    def __init__(
        self,
        unique_left: np.ndarray,
        unique_right: np.ndarray,
        pair_ids: np.ndarray,
        inverse: np.ndarray,
    ) -> None:
        self.unique_left = unique_left
        self.unique_right = unique_right
        self.pair_ids = pair_ids
        self.inverse = inverse


class _PairScoreStore:
    """One metric's scores, densely indexed by the view's pair ids.

    A flat float array plus a known-mask instead of a dict: batch lookups and
    fills are single fancy-indexing operations, with no per-key Python work.
    """

    __slots__ = ("scores", "known")

    def __init__(self) -> None:
        self.scores = np.empty(0, dtype=float)
        self.known = np.zeros(0, dtype=bool)

    def ensure(self, capacity: int) -> None:
        if capacity > self.scores.size:
            size = max(capacity, 2 * self.scores.size, 256)
            scores = np.empty(size, dtype=float)
            scores[: self.scores.size] = self.scores
            known = np.zeros(size, dtype=bool)
            known[: self.known.size] = self.known
            self.scores = scores
            self.known = known


class AttributeView:
    """The per-attribute slice of a :class:`CorpusIndex`.

    Holds one entry per distinct raw value of the attribute plus the lazily
    built representation columns, all indexed by entry id.  Batch kernels only
    ever read these columns; writes happen under the owning index's lock in
    :meth:`entry_ids` / the ``ensure_*`` builders.
    """

    def __init__(self, index: "CorpusIndex", name: str, separator: str = ",") -> None:
        self._index = index
        self.name = name
        self.separator = separator
        self._entries: dict[Any, int] = {}
        #: Raw values by entry id (entity splitting, abbreviations, numeric parsing).
        self.raw_values: list[Any] = []
        #: Normalised strings and their interned ids, by entry id.
        self.norms: list[str] = []
        self.norm_ids: list[int] = []
        #: ``True`` when the normalised value is empty (the missing-value rule).
        self.missing: list[bool] = []
        # Lazily built columns; each tracks its own high-water mark so entries
        # interned by later batches extend rather than rebuild the caches.
        self._token_lists: list[list[str]] = []
        self._token_id_arrays: list[np.ndarray] = []
        self._token_set_arrays: list[np.ndarray] = []
        self._token_counts: list[Counter] = []
        self._char_code_arrays: list[np.ndarray] = []
        self._entity_set_arrays: list[np.ndarray] = []
        self._entity_list_sizes: list[int] = []
        self._abbreviations: list[str] = []
        self._compact_norms: list[str] = []
        self._numeric_values: list[float] = []
        self._numeric_present: list[bool] = []
        # IDF-dependent rows: cached against the identity of the IDF table the
        # vectoriser passes in its metric context.  A refit swaps the table
        # object, which invalidates these caches (and only these).
        self._idf_ref: Any = _UNSET
        self._tfidf_id_arrays: list[np.ndarray] = []
        self._tfidf_weight_arrays: list[np.ndarray] = []
        self._key_token_set_arrays: list[np.ndarray] = []
        #: Packed ``(left entry << 32) | right entry`` -> dense pair id, as a
        #: sorted key array with a parallel id array.  Pair ids index the
        #: per-metric :class:`_PairScoreStore` arrays; lookup is one
        #: ``searchsorted`` and interning a batch of new pairs is one sorted
        #: merge — no per-key Python at all.
        self._pair_keys_sorted = np.empty(0, dtype=np.int64)
        self._pair_ids_sorted = np.empty(0, dtype=np.int64)
        self._pair_count = 0
        #: Metric short name -> pair-id-indexed score store.
        self._metric_stores: dict[str, _PairScoreStore] = {}
        # The pending subset handed to the currently running kernel; lets
        # :meth:`stash_scores` recognise a kernel stashing companions for
        # exactly those pairs (by array identity) and skip re-interning them.
        # Kept as ONE tuple so the (left ids, pair ids) pair swaps atomically:
        # concurrent transforms then at worst miss the fast path (and fall
        # back to interning), never pair one batch's ids with another's.
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        # Numpy mirrors of the columns batch kernels gather from (see
        # :class:`_ColumnMirror`); the idf-dependent ones live in
        # ``_idf_mirrors`` so :meth:`_sync_idf` can reset them wholesale.
        self._missing_mirror = _ColumnMirror(bool)
        self._norm_id_mirror = _ColumnMirror(_ID_DTYPE)
        self._norm_mirror = _ColumnMirror(object)
        self._token_id_mirror = _ColumnMirror(object)
        self._token_set_mirror = _ColumnMirror(object)
        self._token_set_size_mirror = _ColumnMirror(np.int64, _array_size)
        self._token_length_mirror = _ColumnMirror(np.int64, _array_size)
        self._char_code_mirror = _ColumnMirror(object)
        self._char_length_mirror = _ColumnMirror(np.int64, _array_size)
        self._entity_set_mirror = _ColumnMirror(object)
        self._entity_set_size_mirror = _ColumnMirror(np.int64, _array_size)
        self._entity_list_size_mirror = _ColumnMirror(np.int64)
        self._abbreviation_mirror = _ColumnMirror(object)
        self._compact_norm_mirror = _ColumnMirror(object)
        self._numeric_value_mirror = _ColumnMirror(float)
        self._numeric_present_mirror = _ColumnMirror(bool)
        self._key_token_set_mirror = _ColumnMirror(object)
        self._key_token_set_size_mirror = _ColumnMirror(np.int64, _array_size)
        self._tfidf_id_mirror = _ColumnMirror(object)
        self._tfidf_weight_mirror = _ColumnMirror(object)

    # -------------------------------------------------------------- interning
    def __len__(self) -> int:
        return len(self.norms)

    def entry_ids(self, values: Sequence[Any]) -> np.ndarray:
        """Intern ``values`` and return their entry ids (one per value)."""
        with self._index.lock:
            entries = self._entries
            out = np.empty(len(values), dtype=_ID_DTYPE)
            for position, value in enumerate(values):
                key = _hashable_key(value)
                entry = entries.get(key)
                if entry is None:
                    entry = len(self.norms)
                    entries[key] = entry
                    norm = normalize(value)
                    self.raw_values.append(value)
                    self.norms.append(norm)
                    self.norm_ids.append(self._index.strings.intern(norm))
                    self.missing.append(not norm)
                    self._index._entry_count += 1
                out[position] = entry
            return out

    # ------------------------------------------------------- representations
    def ensure_tokens(self) -> None:
        """Build token lists / id arrays / sorted unique id arrays up to date."""
        with self._index.lock:
            intern = self._index.strings
            for entry in range(len(self._token_lists), len(self.norms)):
                tokens = tokenize(self.norms[entry])
                self._token_lists.append(tokens)
                self._token_id_arrays.append(intern.intern_sequence(tokens))
                self._token_set_arrays.append(intern.intern_sorted_set(tokens))

    def ensure_token_counts(self) -> None:
        self.ensure_tokens()
        with self._index.lock:
            for entry in range(len(self._token_counts), len(self.norms)):
                self._token_counts.append(Counter(self._token_lists[entry]))

    def ensure_char_codes(self) -> None:
        """UTF-32 code-point arrays of the normalised values (DP kernels)."""
        with self._index.lock:
            for entry in range(len(self._char_code_arrays), len(self.norms)):
                norm = self.norms[entry]
                self._char_code_arrays.append(
                    np.frombuffer(norm.encode("utf-32-le"), dtype=_ID_DTYPE)
                )

    def token_code_column(self) -> np.ndarray:
        """Corpus-wide token-id -> UTF-32 code array column (object dtype).

        Token vocabularies are shared across attributes, so each token is
        encoded once ever; kernels gather the code arrays of whole token-id
        arrays with one fancy index instead of a per-id Python loop.
        """
        return self._index.token_code_column()

    def token_pair_jw(
        self, keys: np.ndarray, left_tokens: np.ndarray, right_tokens: np.ndarray
    ) -> np.ndarray:
        """Corpus-memoised inner Jaro-Winkler; see :meth:`CorpusIndex.token_pair_jw`."""
        return self._index.token_pair_jw(keys, left_tokens, right_tokens)

    def ensure_entities(self) -> None:
        """Entity lists split with this attribute's separator, interned + sorted."""
        with self._index.lock:
            intern = self._index.strings
            for entry in range(len(self._entity_set_arrays), len(self.norms)):
                entities = split_entity_set(self.raw_values[entry], self.separator)
                self._entity_list_sizes.append(len(entities))
                self._entity_set_arrays.append(intern.intern_sorted_set(entities))

    def ensure_abbreviations(self) -> None:
        with self._index.lock:
            for entry in range(len(self._abbreviations), len(self.norms)):
                self._abbreviations.append(abbreviation(self.raw_values[entry]))
                self._compact_norms.append(self.norms[entry].replace(" ", ""))

    def ensure_numeric(self) -> None:
        with self._index.lock:
            for entry in range(len(self._numeric_values), len(self.norms)):
                parsed = _to_float(self.raw_values[entry])
                self._numeric_present.append(parsed is not None)
                self._numeric_values.append(0.0 if parsed is None else parsed)

    def _sync_idf(self, idf: dict[str, float] | None) -> None:
        """Reset the IDF-dependent caches when the IDF table object changes.

        Clears the derived rows, their mirrors, and **all** pair-score stores:
        memoised scores of idf-aware metrics were computed under the old
        table.  (Non-idf metrics lose their scores too — a refit is rare and
        correctness beats keeping a warm cache.  The dense pair ids survive:
        they identify value pairs, which the IDF table does not change.)
        """
        if idf is not self._idf_ref:
            self._idf_ref = idf
            self._tfidf_id_arrays.clear()
            self._tfidf_weight_arrays.clear()
            self._key_token_set_arrays.clear()
            self._key_token_set_mirror = _ColumnMirror(object)
            self._key_token_set_size_mirror = _ColumnMirror(np.int64, _array_size)
            self._tfidf_id_mirror = _ColumnMirror(object)
            self._tfidf_weight_mirror = _ColumnMirror(object)
            self._metric_stores.clear()

    def ensure_tfidf_rows(self, idf: dict[str, float] | None) -> None:
        """Token-id arrays + TF-IDF weights, aligned, per entry.

        Token ids are in token *string* order (the reference cosine's sorted
        vocabulary) and weights are ``count * idf.get(token, 1.0)`` — exactly
        the products the reference builds per call.
        """
        self.ensure_token_counts()
        with self._index.lock:
            self._sync_idf(idf)
            intern = self._index.strings
            for entry in range(len(self._tfidf_id_arrays), len(self.norms)):
                counts = self._token_counts[entry]
                tokens = sorted(counts)
                self._tfidf_id_arrays.append(intern.intern_sequence(tokens))
                if idf:
                    weights = [counts[token] * idf.get(token, 1.0) for token in tokens]
                else:
                    weights = [counts[token] * 1.0 for token in tokens]
                self._tfidf_weight_arrays.append(np.array(weights, dtype=float))

    def ensure_key_tokens(self, idf: dict[str, float] | None, threshold: float) -> None:
        """Sorted ids of the *discriminating* tokens of each entry.

        Mirrors the ``_is_key`` predicate of the diff-key-token reference: with
        an IDF table, tokens whose weight meets ``threshold``; without one,
        tokens longer than three characters that are not digits.
        """
        self.ensure_tokens()
        with self._index.lock:
            self._sync_idf(idf)
            intern = self._index.strings
            default = threshold + 1.0
            for entry in range(len(self._key_token_set_arrays), len(self.norms)):
                if idf is not None:
                    key_tokens = [
                        token for token in set(self._token_lists[entry])
                        if idf.get(token, default) >= threshold
                    ]
                else:
                    key_tokens = [
                        token for token in set(self._token_lists[entry])
                        if len(token) > 3 and not token.isdigit()
                    ]
                self._key_token_set_arrays.append(intern.intern_sorted_set(key_tokens))

    # ------------------------------------------------------- numpy columns
    # Mirror-backed numpy views of the representation columns.  Kernels gather
    # per-entry data from these with fancy indexing — one vectorised operation
    # per column instead of a Python loop of list lookups.  The laziness
    # contract is unchanged: callers must run the matching ``ensure_*`` first.
    def missing_column(self) -> np.ndarray:
        with self._index.lock:
            return self._missing_mirror.sync(self.missing)

    def norm_id_column(self) -> np.ndarray:
        with self._index.lock:
            return self._norm_id_mirror.sync(self.norm_ids)

    def norm_column(self) -> np.ndarray:
        with self._index.lock:
            return self._norm_mirror.sync(self.norms)

    def token_id_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ordered token-id arrays, token counts)``, aligned by entry id."""
        with self._index.lock:
            return (
                self._token_id_mirror.sync(self._token_id_arrays),
                self._token_length_mirror.sync(self._token_id_arrays),
            )

    def token_set_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted-unique-id arrays, set sizes)``, aligned by entry id."""
        with self._index.lock:
            return (
                self._token_set_mirror.sync(self._token_set_arrays),
                self._token_set_size_mirror.sync(self._token_set_arrays),
            )

    def char_code_columns(self) -> tuple[np.ndarray, np.ndarray]:
        with self._index.lock:
            return (
                self._char_code_mirror.sync(self._char_code_arrays),
                self._char_length_mirror.sync(self._char_code_arrays),
            )

    def entity_set_columns(self) -> tuple[np.ndarray, np.ndarray]:
        with self._index.lock:
            return (
                self._entity_set_mirror.sync(self._entity_set_arrays),
                self._entity_set_size_mirror.sync(self._entity_set_arrays),
            )

    def entity_list_size_column(self) -> np.ndarray:
        with self._index.lock:
            return self._entity_list_size_mirror.sync(self._entity_list_sizes)

    def abbreviation_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(abbreviations, compact norms)`` as object columns."""
        with self._index.lock:
            return (
                self._abbreviation_mirror.sync(self._abbreviations),
                self._compact_norm_mirror.sync(self._compact_norms),
            )

    def numeric_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(present mask, parsed values)``, aligned by entry id."""
        with self._index.lock:
            return (
                self._numeric_present_mirror.sync(self._numeric_present),
                self._numeric_value_mirror.sync(self._numeric_values),
            )

    def key_token_set_columns(self) -> tuple[np.ndarray, np.ndarray]:
        with self._index.lock:
            return (
                self._key_token_set_mirror.sync(self._key_token_set_arrays),
                self._key_token_set_size_mirror.sync(self._key_token_set_arrays),
            )

    def tfidf_id_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(interned token-id arrays, aligned weight arrays)`` columns.

        Each entry's ids are in token-string order; they let the cosine
        kernel rank union members through :meth:`lex_rank_column` instead of
        re-sorting token strings.
        """
        with self._index.lock:
            return (
                self._tfidf_id_mirror.sync(self._tfidf_id_arrays),
                self._tfidf_weight_mirror.sync(self._tfidf_weight_arrays),
            )

    def lex_rank_column(self) -> np.ndarray:
        """Corpus-wide interned-string id -> lexicographic rank column."""
        return self._index.lex_rank_column()

    # ------------------------------------------------------------ score memo
    def _intern_pairs(self, left_ids: np.ndarray, right_ids: np.ndarray) -> np.ndarray:
        """Dense pair ids of packed ``(left, right)`` entry-id pairs.

        Caller must hold the index lock.
        """
        keys = (left_ids.astype(np.int64) << 32) | right_ids.astype(np.int64)
        known_keys = self._pair_keys_sorted
        if known_keys.size:
            positions = np.minimum(
                np.searchsorted(known_keys, keys), known_keys.size - 1
            )
            ids = self._pair_ids_sorted[positions]
            misses = np.nonzero(known_keys[positions] != keys)[0]
        else:
            ids = np.empty(keys.size, dtype=np.int64)
            misses = np.arange(keys.size)
        if misses.size:
            # stash_scores may intern arbitrary (possibly repeated) pairs, so
            # dedupe the misses before assigning fresh dense ids.
            new_keys, inverse = np.unique(keys[misses], return_inverse=True)
            new_ids = self._pair_count + np.arange(new_keys.size)
            self._pair_count += new_keys.size
            ids[misses] = new_ids[inverse]
            merged_keys = np.concatenate([known_keys, new_keys])
            merged_ids = np.concatenate([self._pair_ids_sorted, new_ids])
            order = np.argsort(merged_keys, kind="stable")
            self._pair_keys_sorted = merged_keys[order]
            self._pair_ids_sorted = merged_ids[order]
        return ids

    def _metric_store(self, metric: str) -> _PairScoreStore:
        """The (created-on-demand, capacity-ensured) score store of ``metric``.

        Caller must hold the index lock.
        """
        store = self._metric_stores.get(metric)
        if store is None:
            store = self._metric_stores[metric] = _PairScoreStore()
        store.ensure(self._pair_count)
        return store

    def pair_dedup(self, left_ids: np.ndarray, right_ids: np.ndarray) -> PairDedup:
        """Deduplicate a batch to its distinct value pairs, interning pair ids.

        The result is shared by every metric column of the attribute in a
        transform — see :class:`PairDedup`.
        """
        keys = (left_ids.astype(np.int64) << 32) | right_ids.astype(np.int64)
        unique_keys, first_rows, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        unique_left = left_ids[first_rows]
        unique_right = right_ids[first_rows]
        with self._index.lock:
            ids = self._intern_pairs(unique_left, unique_right)
        return PairDedup(unique_left, unique_right, ids, inverse)

    def memoized_scores(
        self,
        metric: str,
        kernel: "Callable[[AttributeView, np.ndarray, np.ndarray, dict], np.ndarray]",
        dedup: PairDedup,
        context: dict,
    ) -> np.ndarray:
        """Run ``kernel`` through the per-metric value-pair score store.

        A metric score is a pure function of the two attribute values (plus,
        for idf-aware metrics, the IDF table — handled by syncing the table
        first, which wipes stale stores).  Every kernel scores rows
        independently, so only the batch's never-scored distinct pairs reach
        the kernel and the store fills the rest — bit-identical by
        construction, cheaper whenever values repeat across a corpus (venue
        strings, years), across batches, or across metrics via
        :meth:`stash_scores`.
        """
        with self._index.lock:
            self._sync_idf(context.get("idf"))
            store = self._metric_store(metric)
        ids = dedup.pair_ids
        known = store.known[ids]
        if not known.all():
            pending = np.nonzero(~known)[0]
            pending_left = dedup.unique_left[pending]
            pending_ids = ids[pending]
            token = (pending_left, pending_ids)
            self._pending = token
            try:
                fresh = kernel(
                    self, pending_left, dedup.unique_right[pending], context
                )
            finally:
                # Only clear our own token: a concurrent transform may have
                # installed its pending subset in the meantime.
                if self._pending is token:
                    self._pending = None
            # A kernel stashing companion metrics may grow the stores; re-read
            # the arrays in case this metric's store was reallocated.
            with self._index.lock:
                store = self._metric_store(metric)
            store.scores[pending_ids] = fresh
            store.known[pending_ids] = True
        return store.scores[ids][dedup.inverse]

    def stash_scores(
        self,
        metric: str,
        left_ids: np.ndarray,
        right_ids: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Record ``metric`` scores computed as a by-product of another kernel.

        Kernels that derive several registry metrics from one shared
        computation (the char-DP trio, the token-set trio, the entity pair)
        call this for the companion metrics; those columns then resolve
        entirely from the score store without running a kernel at all.

        When ``left_ids`` is (by identity) the pending subset
        :meth:`memoized_scores` handed the running kernel, the already-known
        pair ids are reused; any other id arrays are interned normally.
        """
        with self._index.lock:
            pending = self._pending
            if pending is not None and left_ids is pending[0]:
                ids: np.ndarray = pending[1]
            else:
                ids = self._intern_pairs(left_ids, right_ids)
            store = self._metric_store(metric)
            store.scores[ids] = values
            store.known[ids] = True


class _Unset:
    """Sentinel distinguishing "no IDF table yet" from "IDF table is None"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<unset>"


_UNSET = _Unset()


class CorpusIndex:
    """Corpus-level cache of interned attribute values and their representations.

    Parameters
    ----------
    max_entries:
        Soft cap on the number of distinct interned values across all
        attributes.  :meth:`maybe_reset` (called by the vectoriser between
        batches) drops every cache once the cap is exceeded, bounding memory
        on unbounded streams.  Scores are unaffected: the caches are
        value-keyed and deterministic, so rebuilding them is purely a cost.
    """

    def __init__(self, max_entries: int = 1_000_000) -> None:
        self.max_entries = max_entries
        self.strings = TokenInterner()
        #: Interned-string id -> UTF-32 code array (see token_code_column).
        self._token_code_mirror = _ColumnMirror(object, _encode_utf32)
        # Sorted packed (left token << 32) | right token keys and their inner
        # Jaro-Winkler scores, memoised corpus-wide for Monge-Elkan: token
        # vocabularies saturate quickly on real data, so after a few batches
        # almost every token pair is a searchsorted hit instead of a DP run.
        self._token_pair_jw_keys = np.empty(0, dtype=np.int64)
        self._token_pair_jw_scores = np.empty(0, dtype=float)
        # Lexicographic rank of every interned string, maintained
        # incrementally: new strings merge into the sorted order with
        # searchsorted position arithmetic (the interner guarantees
        # distinctness, so there are never ties to break).
        self._lex_sorted_strings = np.empty(0, dtype="U1")
        self._lex_sorted_ids = np.empty(0, dtype=np.int64)
        self._lex_rank = np.empty(0, dtype=np.int64)
        self._lex_count = 0
        self._views: dict[str, AttributeView] = {}
        self._entry_count = 0
        self.lock = threading.RLock()

    # --------------------------------------------------------------- lookups
    def view(self, attribute: str, separator: str = ",") -> AttributeView:
        """The (created-on-demand) view of ``attribute``."""
        with self.lock:
            view = self._views.get(attribute)
            if view is None:
                view = self._views[attribute] = AttributeView(self, attribute, separator)
            return view

    @property
    def entry_count(self) -> int:
        """Number of distinct values interned across every attribute."""
        return self._entry_count

    @property
    def attributes(self) -> list[str]:
        """Names of the attributes with a live view."""
        return list(self._views)

    def token_code_column(self) -> np.ndarray:
        """Interned-string id -> UTF-32 code array, as an object column."""
        with self.lock:
            return self._token_code_mirror.sync(self.strings.strings)

    def lex_rank_column(self) -> np.ndarray:
        """Interned-string id -> rank of the string in lexicographic order.

        Ranks follow Python/numpy code-point string comparison, so sorting a
        set of ids by rank is *exactly* the scalar path's ``sorted(...)`` of
        the underlying strings — which lets kernels order token unions with
        int64 arithmetic.  New strings are merged into the maintained sorted
        order incrementally; existing ranks shift but stay order-consistent,
        and callers re-read the column per batch.
        """
        with self.lock:
            strings = self.strings.strings
            count = len(strings)
            if count != self._lex_count:
                fresh = np.array(strings[self._lex_count :], dtype=np.str_)
                fresh_order = np.argsort(fresh, kind="stable")
                fresh_sorted = fresh[fresh_order]
                fresh_ids = np.arange(self._lex_count, count, dtype=np.int64)[fresh_order]
                old_sorted = self._lex_sorted_strings
                old_ids = self._lex_sorted_ids
                # Merge positions: how many elements of the other (sorted,
                # disjoint) array precede each element.
                fresh_pos = np.searchsorted(old_sorted, fresh_sorted) + np.arange(
                    fresh_sorted.size
                )
                old_pos = np.searchsorted(fresh_sorted, old_sorted) + np.arange(
                    old_sorted.size
                )
                width = max(
                    old_sorted.dtype.itemsize, fresh_sorted.dtype.itemsize, 4
                ) // 4
                merged = np.empty(count, dtype=f"U{width}")
                merged[old_pos] = old_sorted
                merged[fresh_pos] = fresh_sorted
                merged_ids = np.empty(count, dtype=np.int64)
                merged_ids[old_pos] = old_ids
                merged_ids[fresh_pos] = fresh_ids
                rank = np.empty(count, dtype=np.int64)
                rank[merged_ids] = np.arange(count)
                self._lex_sorted_strings = merged
                self._lex_sorted_ids = merged_ids
                self._lex_rank = rank
                self._lex_count = count
            return self._lex_rank

    def token_pair_jw(
        self, keys: np.ndarray, left_tokens: np.ndarray, right_tokens: np.ndarray
    ) -> np.ndarray:
        """Inner Jaro-Winkler scores of distinct token-id pairs, memoised.

        ``keys`` are sorted packed ``(left token << 32) | right token`` ids
        (token ids are corpus-global, so the cache is shared by every
        attribute).  Hits are one ``searchsorted`` gather; only never-seen
        pairs run the batched DP, and their scores merge into the sorted
        cache for the next batch.  Cached scores came out of the very same
        kernel on the very same code arrays, so a hit is bit-identical to a
        recompute by construction.
        """
        from .chars import batched_jaro_winkler

        # Snapshot both halves of the cache under the lock: the keys and the
        # scores must come from the same merge generation, or a concurrent
        # writer swapping them between our two reads would misalign the gather.
        with self.lock:
            known_keys = self._token_pair_jw_keys
            known_scores = self._token_pair_jw_scores
        scores = np.empty(keys.size, dtype=float)
        if known_keys.size:
            positions = np.minimum(
                np.searchsorted(known_keys, keys), known_keys.size - 1
            )
            hit = known_keys[positions] == keys
            scores[hit] = known_scores[positions[hit]]
            miss = np.nonzero(~hit)[0]
        else:
            miss = np.arange(keys.size)
        if miss.size:
            column = self.token_code_column()
            fresh = batched_jaro_winkler(
                column[left_tokens[miss]], column[right_tokens[miss]]
            )
            scores[miss] = fresh
            # Merge against the *current* cache, not the snapshot: another
            # thread may have grown it since.  A concurrent miss on the same
            # key leaves a duplicate entry, which is harmless — the kernel is
            # deterministic, so both copies hold the same bits and searchsorted
            # hits whichever comes first.
            with self.lock:
                merged_keys = np.concatenate([self._token_pair_jw_keys, keys[miss]])
                merged_scores = np.concatenate([self._token_pair_jw_scores, fresh])
                order = np.argsort(merged_keys, kind="stable")
                self._token_pair_jw_keys = merged_keys[order]
                self._token_pair_jw_scores = merged_scores[order]
        return scores

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Drop every view and every interned string (memory release)."""
        with self.lock:
            self.strings = TokenInterner()
            self._token_code_mirror = _ColumnMirror(object, _encode_utf32)
            self._token_pair_jw_keys = np.empty(0, dtype=np.int64)
            self._token_pair_jw_scores = np.empty(0, dtype=float)
            self._lex_sorted_strings = np.empty(0, dtype="U1")
            self._lex_sorted_ids = np.empty(0, dtype=np.int64)
            self._lex_rank = np.empty(0, dtype=np.int64)
            self._lex_count = 0
            self._views = {}
            self._entry_count = 0

    def maybe_reset(self) -> bool:
        """Reset if the entry cap is exceeded; returns ``True`` when it did.

        Called between batches (never mid-batch), so entry ids handed out for
        one batch are always consistent with the caches the kernels read.
        """
        with self.lock:
            if self._entry_count > self.max_entries:
                self.reset()
                return True
            return False

    # ---------------------------------------------------------------- pickle
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = threading.RLock()
