"""ER workloads and train/validation/test splits.

A :class:`Workload` is the set of candidate record pairs an ER solution must
label, together with their ground truth.  The paper evaluates risk analysis
under several split ratios of (classifier-training : validation : test); the
validation part doubles as the risk-model training data (Section 4.3).  The
:class:`WorkloadSplit` captures that three-way split, and
:func:`split_workload` produces it deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError, DataError
from .records import MATCH, RecordPair, Table


class Workload:
    """A named collection of candidate pairs with ground truth.

    Parameters
    ----------
    name:
        Human-readable workload name (e.g. ``"DS"``).
    pairs:
        The candidate pairs.  Ground truth may be ``None`` for unlabeled pairs,
        but most operations (splitting, evaluation) require it.
    left_table, right_table:
        The source tables, kept for provenance and statistics.

    A workload built with :meth:`from_source` is a *lazy view* over a
    :class:`~repro.data.sources.PairSource`: nothing is materialised until the
    :attr:`pairs` list is first accessed, and :meth:`iter_chunks` streams
    straight from the source, so chunked consumers never trigger
    materialisation at all.
    """

    def __init__(
        self,
        name: str,
        pairs: Iterable[RecordPair],
        left_table: Table | None = None,
        right_table: Table | None = None,
    ) -> None:
        self.name = name
        self._source = None
        self.pairs = pairs  # the setter materialises and resets the count cache
        self.left_table = left_table
        self.right_table = right_table

    @classmethod
    def from_source(cls, source, name: str | None = None) -> "Workload":
        """A lazy workload view over a :class:`~repro.data.sources.PairSource`.

        The source is not consumed here; accessing :attr:`pairs` (or any
        operation needing random access) materialises it once, while
        :meth:`iter_chunks` and ``len()`` (for sources with known length)
        work without ever materialising.
        """
        workload = cls.__new__(cls)
        workload.name = name or source.name
        workload._pairs = None
        workload._counts = None
        workload._source = source
        workload.left_table = source.left_table
        workload.right_table = source.right_table
        return workload

    @classmethod
    def blocked(
        cls,
        left_table: Table,
        right_table: Table,
        blockers,
        matches: Iterable[tuple[str, str]] | None = (),
        ensure_matches: bool = True,
        name: str | None = None,
    ) -> "Workload":
        """A lazy workload whose candidates are blocked on the fly.

        Convenience over :meth:`from_source` + :mod:`repro.blocking`: the two
        tables become a single-wave corpus, ``blockers`` (one or more
        :class:`~repro.blocking.blockers.Blocker` instances) generate the
        candidates, and nothing materialises until :attr:`pairs` is touched —
        chunked consumers stream the blocked pairs in bounded memory.
        ``matches=None`` marks the corpus unlabeled (pairs get no ground
        truth); otherwise missed matches are appended per
        ``ensure_matches``.
        """
        from ..blocking import Blocker, BlockingPairSource, TableCorpus

        if isinstance(blockers, Blocker):
            blockers = [blockers]
        corpus = TableCorpus(left_table, right_table, matches, name=name)
        source = BlockingPairSource(
            corpus, blockers, ensure_matches=ensure_matches, name=name or corpus.name
        )
        return cls.from_source(source, name=name)

    @property
    def source(self):
        """The backing :class:`~repro.data.sources.PairSource` of a lazy view, or ``None``."""
        return self._source

    @property
    def pairs(self) -> list[RecordPair]:
        """The candidate pairs, materialising a source-backed view on first use.

        Materialisation goes through the source's :meth:`materialize` hook so
        its guards apply — an unbounded ``GeneratorSource`` raises instead of
        looping forever.
        """
        if self._pairs is None:
            self._pairs = self._source.materialize(self.name).pairs
        return self._pairs

    @pairs.setter
    def pairs(self, value: Iterable[RecordPair]) -> None:
        self._pairs = list(value)
        self._counts: tuple[int, int] | None = None

    @property
    def is_materialized(self) -> bool:
        """``False`` while a source-backed view has not been materialised yet."""
        return self._pairs is not None

    def iter_chunks(self, chunk_size: int = 1024) -> Iterator[list[RecordPair]]:
        """Stream the pairs in lists of at most ``chunk_size``.

        A source-backed view streams straight from its source without
        materialising; an eager workload slices its pair list.  Chunks are
        never empty; only the last one may be partial.
        """
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if self._pairs is None:
            yield from self._source.iter_chunks(chunk_size)
            return
        for start in range(0, len(self._pairs), chunk_size):
            yield self._pairs[start:start + chunk_size]

    def __len__(self) -> int:
        if self._pairs is None:
            length = self._source.length
            if length is not None:
                return length
        return len(self.pairs)

    def __iter__(self) -> Iterator[RecordPair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> RecordPair:
        return self.pairs[index]

    def _count_labels(self) -> tuple[int, int]:
        """The cached ``(matches, unmatches)`` counts, computed in one scan."""
        if self._counts is None:
            matches = unmatches = 0
            for pair in self.pairs:
                if pair.ground_truth == MATCH:
                    matches += 1
                elif pair.ground_truth is not None:
                    unmatches += 1
            self._counts = (matches, unmatches)
        return self._counts

    @property
    def num_matches(self) -> int:
        """Number of ground-truth equivalent pairs in the workload (cached)."""
        return self._count_labels()[0]

    @property
    def num_unmatches(self) -> int:
        """Number of ground-truth inequivalent pairs in the workload (cached)."""
        return self._count_labels()[1]

    @property
    def num_attributes(self) -> int:
        """Number of attributes in the (shared) schema, 0 when unknown."""
        if self.left_table is not None:
            return len(self.left_table.schema)
        return 0

    def match_rate(self) -> float:
        """The fraction of candidate pairs that are ground-truth matches."""
        if not self.pairs:
            return 0.0
        return self.num_matches / len(self.pairs)

    def labels(self) -> np.ndarray:
        """Return the ground-truth labels as an ``int`` array.

        Raises
        ------
        DataError
            If any pair has no ground truth.
        """
        labels = []
        for pair in self.pairs:
            if pair.ground_truth is None:
                raise DataError(f"pair {pair.pair_id} has no ground truth")
            labels.append(pair.ground_truth)
        return np.asarray(labels, dtype=int)

    def subset(self, indices: Sequence[int], name: str | None = None) -> "Workload":
        """Return a new workload containing only the pairs at ``indices``."""
        selected = [self.pairs[i] for i in indices]
        return Workload(name or self.name, selected, self.left_table, self.right_table)

    def filter(self, predicate: Callable[[RecordPair], bool], name: str | None = None) -> "Workload":
        """Return a new workload with only the pairs satisfying ``predicate``."""
        return Workload(
            name or self.name,
            [pair for pair in self.pairs if predicate(pair)],
            self.left_table,
            self.right_table,
        )

    def sample(self, size: int, seed: int = 0, name: str | None = None) -> "Workload":
        """Return a uniformly random subset of ``size`` pairs (without replacement)."""
        if size > len(self.pairs):
            raise ConfigurationError(
                f"cannot sample {size} pairs from a workload of {len(self.pairs)}"
            )
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(self.pairs), size=size, replace=False)
        return self.subset(sorted(int(i) for i in indices), name=name)

    def statistics(self) -> dict[str, int]:
        """Return the Table-2 style statistics of the workload."""
        return {
            "size": len(self.pairs),
            "matches": self.num_matches,
            "attributes": self.num_attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Workload(name={self.name!r}, size={len(self)}, "
            f"matches={self.num_matches}, attributes={self.num_attributes})"
        )


@dataclass(frozen=True)
class WorkloadSplit:
    """A (classifier-training, validation, test) split of a workload.

    ``validation`` is also the risk-model training data, mirroring the paper's
    experimental setup.
    """

    train: Workload
    validation: Workload
    test: Workload

    @property
    def ratio(self) -> tuple[float, float, float]:
        """The realised split proportions."""
        total = len(self.train) + len(self.validation) + len(self.test)
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (len(self.train) / total, len(self.validation) / total, len(self.test) / total)


def split_workload(
    workload: Workload,
    ratio: tuple[float, float, float] = (3, 2, 5),
    seed: int = 0,
    stratified: bool = True,
) -> WorkloadSplit:
    """Split ``workload`` into train/validation/test parts.

    Parameters
    ----------
    workload:
        The workload to split.  Every pair must have ground truth when
        ``stratified`` is requested.
    ratio:
        Relative sizes of the three parts, e.g. ``(3, 2, 5)`` for the paper's
        3:2:5 setting.  The values need not sum to one.
    seed:
        Seed for the deterministic shuffle.
    stratified:
        When ``True`` the match/unmatch class proportions are preserved in each
        part, which matters because ER workloads are heavily imbalanced.
    """
    if len(ratio) != 3 or any(part < 0 for part in ratio) or sum(ratio) <= 0:
        raise ConfigurationError(f"invalid split ratio {ratio!r}")
    rng = np.random.default_rng(seed)
    total = float(sum(ratio))
    fractions = (ratio[0] / total, ratio[1] / total)

    def _split_indices(indices: np.ndarray) -> tuple[list[int], list[int], list[int]]:
        shuffled = indices.copy()
        rng.shuffle(shuffled)
        n = len(shuffled)
        n_train = int(round(n * fractions[0]))
        n_validation = int(round(n * fractions[1]))
        train_part = shuffled[:n_train]
        validation_part = shuffled[n_train:n_train + n_validation]
        test_part = shuffled[n_train + n_validation:]
        return (list(map(int, train_part)), list(map(int, validation_part)), list(map(int, test_part)))

    all_indices = np.arange(len(workload))
    if stratified:
        labels = workload.labels()
        train_idx: list[int] = []
        validation_idx: list[int] = []
        test_idx: list[int] = []
        for label in (0, 1):
            class_indices = all_indices[labels == label]
            part_train, part_validation, part_test = _split_indices(class_indices)
            train_idx.extend(part_train)
            validation_idx.extend(part_validation)
            test_idx.extend(part_test)
    else:
        train_idx, validation_idx, test_idx = _split_indices(all_indices)

    return WorkloadSplit(
        train=workload.subset(sorted(train_idx), name=f"{workload.name}-train"),
        validation=workload.subset(sorted(validation_idx), name=f"{workload.name}-validation"),
        test=workload.subset(sorted(test_idx), name=f"{workload.name}-test"),
    )
