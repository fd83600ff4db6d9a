"""Incremental blocking indexes: the data structures behind candidate generation.

A :class:`BlockingIndex` holds one side of a corpus (by convention the *right*
table of a wave) in a probe-friendly form: records are :meth:`add`-ed one at a
time, and :meth:`candidates` returns, for a probe record from the other side,
the indexed record ids that share the index's cheap signal.  The index is the
O(records) artefact of blocking — the O(records²) candidate set is never built
here; it exists only as the stream of per-probe results.

Two indexes are provided:

* :class:`InvertedIndex` — token → record-id postings over the blocking
  attributes, with optional frequency-based stop-token pruning.  Probing
  counts shared tokens through the postings, so ``candidates`` can enforce a
  ``min_shared`` threshold (see
  :class:`~repro.blocking.blockers.InvertedIndexBlocker`).
* :class:`MinHashIndex` — banded MinHash signatures (``bands`` × ``rows``
  hashes per record) bucketed per band; two records collide when any band of
  their signatures agrees exactly.  The standard LSH trade-off applies: more
  bands or fewer rows per band → more candidates and higher recall.

Both indexes are deterministic across processes: token hashing goes through
:func:`zlib.crc32` (never Python's seeded ``hash``), permutation parameters
derive from ``numpy`` seed sequences, and all candidate outputs are returned
in sorted order.
"""

from __future__ import annotations

import abc
import zlib
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..data.records import Record
from ..text.tokenize import tokenize

#: Modulus of the universal hash family used for MinHash permutations.
#: A Mersenne prime below 2**31, so ``a * h + b`` fits comfortably in int64.
_MERSENNE_PRIME = (1 << 31) - 1


def record_token_set(record: Record, attributes: Sequence[str]) -> frozenset[str]:
    """The blocking-token set of a record over ``attributes``, in one pass.

    This is the single tokenisation point of the blocking layer: every
    consumer (stop-token counting, index building, probing) derives from the
    same per-record set, so a record is never tokenised twice for one pass.
    """
    tokens: set[str] = set()
    for attribute in attributes:
        value = record[attribute]
        if isinstance(value, str):
            tokens.update(tokenize(value))
    return frozenset(tokens)


class BlockingIndex(abc.ABC):
    """One side of a corpus wave, held in a probe-friendly structure.

    The index grows record by record through :meth:`add`; :meth:`candidates`
    probes it with a token set from the other side and returns matching
    record ids, **sorted** so downstream candidate order never depends on
    insertion or hash order.
    """

    #: Number of records added so far.
    size: int = 0

    @abc.abstractmethod
    def add(self, record_id: str, tokens: frozenset[str]) -> None:
        """Index one record's blocking-token set under ``record_id``."""

    @abc.abstractmethod
    def candidates(self, tokens: frozenset[str]) -> list[str]:
        """Sorted ids of indexed records matching a probe token set."""

    def add_record(self, record: Record, attributes: Sequence[str]) -> None:
        """Convenience: tokenize ``record`` over ``attributes`` and index it."""
        self.add(record.record_id, record_token_set(record, attributes))


class InvertedIndex(BlockingIndex):
    """Token → record-id postings with frequency-based stop-token pruning.

    Parameters
    ----------
    min_shared:
        Minimum number of shared (non-stop) tokens for a probe to report an
        indexed record.
    stop_tokens:
        Tokens excluded from indexing and probing (typically pre-computed
        corpus-frequency stop words; see
        :func:`~repro.blocking.blockers.stop_tokens_for_tables`).
    max_postings:
        Incremental pruning cap for open-ended streams where corpus
        frequencies cannot be pre-computed: when a token's posting list grows
        beyond this many record ids, the token is dropped from the index (its
        postings are freed and it is ignored from then on).  ``None`` disables
        the cap.
    """

    def __init__(
        self,
        min_shared: int = 1,
        stop_tokens: Iterable[str] = (),
        max_postings: int | None = None,
    ) -> None:
        if min_shared < 1:
            raise ConfigurationError("min_shared must be >= 1")
        if max_postings is not None and max_postings < 1:
            raise ConfigurationError("max_postings must be >= 1 or None")
        self.min_shared = min_shared
        self.stop_tokens = set(stop_tokens)
        self.max_postings = max_postings
        self.size = 0
        self._postings: dict[str, list[str]] = defaultdict(list)
        #: Tokens dropped by the ``max_postings`` cap (kept so they stay dropped).
        self.pruned_tokens: set[str] = set()

    def add(self, record_id: str, tokens: frozenset[str]) -> None:
        self.size += 1
        for token in tokens:
            if token in self.stop_tokens or token in self.pruned_tokens:
                continue
            postings = self._postings[token]
            postings.append(record_id)
            if self.max_postings is not None and len(postings) > self.max_postings:
                del self._postings[token]
                self.pruned_tokens.add(token)

    def candidates(self, tokens: frozenset[str]) -> list[str]:
        """Sorted indexed ids sharing at least ``min_shared`` live tokens."""
        if self.min_shared == 1:
            matched: set[str] = set()
            for token in tokens:
                if token in self.stop_tokens or token in self.pruned_tokens:
                    continue
                matched.update(self._postings.get(token, ()))
            return sorted(matched)
        shared: dict[str, int] = defaultdict(int)
        for token in tokens:
            if token in self.stop_tokens or token in self.pruned_tokens:
                continue
            for record_id in self._postings.get(token, ()):
                shared[record_id] += 1
        return sorted(
            record_id for record_id, count in shared.items() if count >= self.min_shared
        )

    @property
    def n_tokens(self) -> int:
        """Number of live (non-pruned, non-stop) tokens in the index."""
        return len(self._postings)

    @property
    def n_postings(self) -> int:
        """Total posting-list length across live tokens (the index's O(n) mass)."""
        return sum(len(postings) for postings in self._postings.values())


def _band_hash_params(seed: int, band: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Universal-hash parameters for one band, derived only from (seed, band).

    Parameters are *prefix-stable*: band ``k`` hashes the same way regardless
    of how many bands the index uses, so an index with more bands strictly
    adds buckets.  This is what makes LSH recall provably monotone in the band
    count (asserted by the property suite).
    """
    rng = np.random.default_rng((seed, band))
    a = rng.integers(1, _MERSENNE_PRIME, size=rows, dtype=np.int64)
    b = rng.integers(0, _MERSENNE_PRIME, size=rows, dtype=np.int64)
    return a, b


def token_base_hashes(tokens: frozenset[str]) -> np.ndarray:
    """Deterministic int64 base hashes of a token set (sorted, CRC32-based)."""
    if not tokens:
        return np.empty(0, dtype=np.int64)
    return np.fromiter(
        (zlib.crc32(token.encode("utf-8")) % _MERSENNE_PRIME for token in sorted(tokens)),
        dtype=np.int64,
        count=len(tokens),
    )


class MinHashIndex(BlockingIndex):
    """Banded MinHash-LSH buckets over record token sets.

    Parameters
    ----------
    bands, rows:
        The signature is ``bands * rows`` MinHash values; two records are
        candidates when at least one band of ``rows`` consecutive values
        matches exactly.  For Jaccard similarity ``s`` the collision
        probability is ``1 - (1 - s**rows)**bands``.
    seed:
        Seed of the permutation-hash family.  Bands are seeded independently
        (prefix-stable), so growing ``bands`` only ever *adds* candidates.
    """

    def __init__(self, bands: int = 8, rows: int = 4, seed: int = 0) -> None:
        if bands < 1:
            raise ConfigurationError("bands must be >= 1")
        if rows < 1:
            raise ConfigurationError("rows must be >= 1")
        self.bands = bands
        self.rows = rows
        self.seed = seed
        self.size = 0
        self._params = [_band_hash_params(seed, band, rows) for band in range(bands)]
        self._buckets: dict[tuple[int, bytes], list[str]] = defaultdict(list)
        self._empty: list[str] = []  # ids of records with no tokens at all

    def signature_bands(self, tokens: frozenset[str]) -> list[bytes] | None:
        """Per-band signature byte strings, or ``None`` for an empty token set."""
        hashes = token_base_hashes(tokens)
        if hashes.size == 0:
            return None
        bands = []
        for a, b in self._params:
            # (rows, n_tokens) permuted hashes; min over tokens = the signature row.
            permuted = (a[:, None] * hashes[None, :] + b[:, None]) % _MERSENNE_PRIME
            bands.append(permuted.min(axis=1).astype(np.int64).tobytes())
        return bands

    def add(self, record_id: str, tokens: frozenset[str]) -> None:
        self.size += 1
        bands = self.signature_bands(tokens)
        if bands is None:
            self._empty.append(record_id)
            return
        for band_index, band_key in enumerate(bands):
            self._buckets[(band_index, band_key)].append(record_id)

    def candidates(self, tokens: frozenset[str]) -> list[str]:
        """Sorted indexed ids colliding with the probe in at least one band."""
        bands = self.signature_bands(tokens)
        if bands is None:
            return []
        matched: set[str] = set()
        for band_index, band_key in enumerate(bands):
            matched.update(self._buckets.get((band_index, band_key), ()))
        return sorted(matched)
