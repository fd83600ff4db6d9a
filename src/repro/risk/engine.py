"""Vectorised rule-coverage engine: the scoring hot path of LearnRisk.

Every consumer of the risk model — :meth:`LearnRiskModel.score`, the trainer's
:func:`differentiable_var_scores`, the serving layer, the static-risk baseline
— needs the binary membership matrix ``membership[i, j] = 1`` iff pair ``i``
satisfies rule ``j``.  The legacy implementation walks the rule list in Python
and evaluates each condition as a separate numpy comparison per rule, which
makes membership the dominant cost of batch scoring (Section 7.6 of the paper
argues risk scoring must stay cheap for the approach to scale).

:class:`RuleKernel` compiles a rule set once into flat condition arrays and
computes the full ``(n_pairs, n_rules)`` matrix with a handful of broadcasted
numpy operations — no per-rule Python loop.

Packed-condition layout
-----------------------
At construction the kernel deduplicates the conditions of all rules (one-sided
trees share split prefixes, so forests repeat conditions heavily) and stores:

``_unique_columns`` (``int64``, shape ``(n_unique,)``)
    Metric-matrix column of each distinct condition.
``_unique_thresholds`` (``float64``, shape ``(n_unique,)``)
    Threshold of each distinct condition.
``_unique_is_leq`` (``bool``, shape ``(n_unique,)``)
    Sign of each distinct condition: ``True`` for ``value <= threshold``,
    ``False`` for ``value > threshold``.
``_condition_slots`` (``int64``, shape ``(total_conditions,)``)
    The rules' conjunctions flattened end to end; each entry indexes a unique
    condition.  Rule ``j`` owns the slice
    ``_condition_slots[_offsets[j]:_offsets[j + 1]]``.
``_offsets`` (``int64``, shape ``(n_rules + 1,)``)
    Segment boundaries of the flattened layout above.

The conjunctions are additionally re-sliced by *level* (first condition of
every rule, second condition of every rule that has one, ...), giving
``_level_rules[L]`` / ``_level_slots[L]`` index pairs; the number of levels is
the deepest rule's condition count, independent of the rule count.

Evaluation works in a transposed, condition-major layout so every gather and
in-place AND touches contiguous rows (column-wise fancy indexing on C-order
matrices is 1–2 orders of magnitude slower).  Per row chunk of ``M``:

1. the chunk is transposed once to ``(n_metrics, chunk)`` so each condition
   reads a contiguous value row; every unique condition then fills its row of
   the boolean ``passesT`` matrix with a single ``np.less_equal`` /
   ``np.greater`` call writing straight into the preallocated buffer.  The
   direct comparisons keep the exact NaN semantics of the legacy scalar loop
   (NaN satisfies neither ``<=`` nor ``>``);
2. ``membT = passesT[_level_slots[0]]`` — one contiguous row gather seeds the
   membership with every rule's first condition;
3. ``membT[_level_rules[L]] &= passesT[_level_slots[L]]`` for each deeper
   level — the whole forest's conjunctions as ``max_depth - 1`` fused ANDs;
4. the result is transposed back into the caller's ``(n_pairs, n_rules)``
   layout while materialising the requested dtype, one pass.

The result is bit-identical to the legacy per-rule loop (including NaN
handling), and faster: ``tests/risk/test_engine.py`` keeps that loop as the
parity oracle and gates the kernel's speed against it, and
``benchmarks/bench_layers.py`` records the kernel's time grid over 10k-200k
pairs x 50-200 rules in ``BENCH_layers.json``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .rules import RiskRule

#: Soft cap on the size of the per-chunk boolean temporaries, in elements.
#: Large enough to amortise the per-condition Python dispatch, small enough
#: that a chunk's pass matrix (one byte per element) stays cache-friendly —
#: measured best across 10k-200k pairs x 50-200 rules on the dev box.
_TARGET_CHUNK_ELEMENTS = 1 << 21


class RuleKernel:
    """Compiled evaluator of a fixed rule set (see module docstring).

    Parameters
    ----------
    rules:
        The one-sided rules to compile.  The kernel snapshots their conditions
        at construction; rebuild the kernel if the rule set changes.
    chunk_rows:
        Rows evaluated per chunk.  ``None`` picks a size that keeps the
        per-chunk temporaries around ``_TARGET_CHUNK_ELEMENTS`` elements.
    """

    def __init__(self, rules: Sequence[RiskRule], chunk_rows: int | None = None) -> None:
        if chunk_rows is not None and chunk_rows < 1:
            raise ConfigurationError("chunk_rows must be >= 1")
        self.n_rules = len(rules)

        unique_index: dict[tuple[int, float, bool], int] = {}
        columns: list[int] = []
        thresholds: list[float] = []
        is_leq: list[bool] = []
        slots: list[int] = []
        offsets = [0]
        for rule in rules:
            for condition in rule.conditions:
                key = (condition.metric_index, condition.threshold, condition.is_leq)
                slot = unique_index.get(key)
                if slot is None:
                    slot = len(columns)
                    unique_index[key] = slot
                    columns.append(condition.metric_index)
                    thresholds.append(condition.threshold)
                    is_leq.append(condition.is_leq)
                slots.append(slot)
            offsets.append(len(slots))

        self.n_conditions = len(slots)
        self.n_unique_conditions = len(columns)
        self._unique_columns = np.asarray(columns, dtype=np.int64)
        self._unique_thresholds = np.asarray(thresholds, dtype=np.float64)
        self._unique_is_leq = np.asarray(is_leq, dtype=bool)

        # Re-slice the flattened conjunctions by level: level L pairs every
        # rule having > L conditions with its (L+1)-th condition's slot.
        level_rules: list[np.ndarray] = []
        level_slots: list[np.ndarray] = []
        depth = 0
        while True:
            members = [
                (j, slots[offsets[j] + depth])
                for j in range(self.n_rules)
                if offsets[j] + depth < offsets[j + 1]
            ]
            if not members:
                break
            level_rules.append(np.asarray([j for j, _ in members], dtype=np.int64))
            level_slots.append(np.asarray([s for _, s in members], dtype=np.int64))
            depth += 1
        self._level_rules = level_rules
        self._level_slots = level_slots
        self.max_conditions = depth

        if chunk_rows is None:
            per_row = max(1, self.n_unique_conditions, self.n_rules)
            chunk_rows = max(4096, _TARGET_CHUNK_ELEMENTS // per_row)
        self.chunk_rows = int(chunk_rows)

    # ------------------------------------------------------------- evaluation
    def _membership_transposed(self, chunk: np.ndarray) -> np.ndarray:
        """Boolean (n_rules, chunk) membership of one row chunk (the hot loop)."""
        n_chunk = len(chunk)
        # One transpose buys every condition a contiguous value row.
        values_by_metric = np.ascontiguousarray(chunk.T)
        passes = np.empty((self.n_unique_conditions, n_chunk), dtype=bool)
        columns = self._unique_columns
        thresholds = self._unique_thresholds
        is_leq = self._unique_is_leq
        for slot in range(self.n_unique_conditions):
            # Direct comparisons, not a negation trick: NaN satisfies neither
            # `<= t` nor `> t`, exactly like the legacy scalar loop.
            compare = np.less_equal if is_leq[slot] else np.greater
            compare(values_by_metric[columns[slot]], thresholds[slot], out=passes[slot])
        if not self._level_rules:
            # Only trivial (condition-free) rules: everything is covered.
            return np.ones((self.n_rules, n_chunk), dtype=bool)
        if len(self._level_rules[0]) == self.n_rules:
            membership = passes[self._level_slots[0]]
        else:
            membership = np.ones((self.n_rules, n_chunk), dtype=bool)
            membership[self._level_rules[0]] = passes[self._level_slots[0]]
        for rules_at_level, slots_at_level in zip(self._level_rules[1:], self._level_slots[1:]):
            membership[rules_at_level] &= passes[slots_at_level]
        return membership

    def _apply(self, metric_matrix: np.ndarray, write_chunk) -> None:
        """Run the chunked evaluation, handing each transposed chunk to ``write_chunk``."""
        n_pairs = len(metric_matrix)
        for start in range(0, n_pairs, self.chunk_rows):
            stop = min(start + self.chunk_rows, n_pairs)
            write_chunk(start, stop, self._membership_transposed(metric_matrix[start:stop]))

    def _checked_matrix(self, metric_matrix: np.ndarray) -> np.ndarray:
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        if metric_matrix.ndim != 2:
            raise ConfigurationError(
                f"metric matrix must be 2-dimensional, got shape {metric_matrix.shape}"
            )
        return metric_matrix

    def membership(self, metric_matrix: np.ndarray, dtype: np.dtype | type = float) -> np.ndarray:
        """``(n_pairs, n_rules)`` membership matrix cast to ``dtype``.

        The default ``float`` output is what the portfolio aggregation and
        the baselines consume; pass ``dtype=bool`` for the smallest dense form.
        The array is Fortran-ordered — the rule-major layout the kernel
        computes in — so materialising it is a contiguous cast instead of a
        cache-hostile strided transpose (4-5x faster at serving batch sizes).
        Consumers are layout-agnostic value-wise; reductions that must be
        *bit*-reproducible across batch sizes normalise the layout themselves
        (see :mod:`repro.numerics` and ``aggregate_portfolio``).
        """
        metric_matrix = self._checked_matrix(metric_matrix)
        out = np.empty((len(metric_matrix), self.n_rules), dtype=dtype, order="F")
        # The back-transpose materialises the requested dtype in the same
        # pass, so no intermediate (n_pairs, n_rules) bool copy exists.
        self._apply(metric_matrix, lambda start, stop, memb: np.copyto(out[start:stop], memb.T))
        return out

    def membership_bool(self, metric_matrix: np.ndarray) -> np.ndarray:
        """Boolean ``(n_pairs, n_rules)`` membership matrix."""
        return self.membership(metric_matrix, dtype=bool)
