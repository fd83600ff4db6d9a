"""Batch-invariant numeric kernels for the streaming scoring paths.

BLAS gemm/gemv reassociate their reductions depending on the operand shapes
(kernel selection, threading, register blocking), so ``A @ w`` over a chunk of
rows can differ from the same rows inside a larger matrix by 1 ulp.  That is
invisible in eager scoring but breaks the contract of the streaming stack:
``analyse_batches`` over a :class:`~repro.data.sources.PairSource` must be
*bit-identical* to the eager in-memory path at any chunk size.

``np.einsum`` (without ``optimize``) reduces strictly along the contraction
axis per output element, so its result depends only on the reduced extent —
never on the batch dimension — **for a fixed memory layout**.  Einsum's inner
loop follows the operand's strides, so the same rows in a Fortran-ordered
matrix (column stride 1) and in a C-ordered matrix (row stride 1) can reduce
in different associations; worse, a single-row slice of an F-ordered matrix
*is* C-contiguous, which made ``A[i:i+1] @ w`` differ from ``(A @ w)[i]`` by
1 ulp exactly when a streamed chunk had one row (the trailing chunk of an
odd-sized workload).  The helpers therefore normalise every matrix argument
to C order first: a no-op for the already-C classifier matrices, one
transpose copy for the rule kernel's F-ordered membership output, and after
it the reduction order per output element is fixed at any batch size — chunk
size 1 included.

Every per-row matrix product on the scoring hot path (classifier forward
pass, portfolio aggregation) goes through these helpers; training keeps plain
BLAS matmuls, where raw throughput matters and batch invariance does not.

The module also holds the one rank AUROC (:func:`auroc_score`): the
evaluation harness, pipeline reports and the risk model's best-epoch
selection all rank through it.

This module deliberately depends only on numpy and :mod:`repro.exceptions`, so
any layer can use it without import cycles.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DataError


def batch_invariant_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` with a batch-size-independent summation order.

    The matrix is normalised to C order first; see the module docstring for
    why layout is part of the invariance contract.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(matrix), vector)


def batch_invariant_matmul(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``matrix @ weights`` with a batch-size-independent summation order.

    Both operands keep a fixed effective layout: the row operand is
    normalised to C order (the column operand's layout does not vary between
    the chunked and eager paths).
    """
    return np.einsum("ij,jk->ik", np.ascontiguousarray(matrix), weights)


def auroc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUROC by the rank (Mann–Whitney U) formulation, ties averaged.

    Tied scores share the mean of their ordinal ranks, so a tie between a
    positive and a negative counts 0.5.  Tie groups are the contiguous runs
    of the sorted scores; their ordinal ranks are consecutive integers (exact
    in float64), so one segmented ``reduceat`` sum per group gives each
    group's mean rank.  All NaN scores form one tie group, sorted above every
    number.

    Raises
    ------
    DataError
        When the shapes differ, or the labels hold only one class.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape:
        raise DataError("labels and scores must have the same shape")
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise DataError("AUROC requires at least one positive and one negative example")
    n_scores = len(scores)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # A new group starts where the sorted value changes; adjacent NaNs
    # (NaN != NaN) do not open one.
    changed = sorted_scores[1:] != sorted_scores[:-1]
    changed &= ~(np.isnan(sorted_scores[1:]) & np.isnan(sorted_scores[:-1]))
    group_starts = np.flatnonzero(np.r_[True, changed])
    group_sums = np.add.reduceat(np.arange(1, n_scores + 1, dtype=float), group_starts)
    group_counts = np.diff(np.append(group_starts, n_scores))
    ranks = np.empty(n_scores, dtype=float)
    ranks[order] = np.repeat(group_sums / group_counts, group_counts)
    u_statistic = float(ranks[labels == 1].sum()) - positives * (positives + 1) / 2.0
    return u_statistic / (positives * negatives)
