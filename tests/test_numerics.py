"""Regressions for the batch-invariant kernels and the rank AUROC (repro.numerics).

The contract: ``batch_invariant_matvec(A[s:t], v)`` equals
``batch_invariant_matvec(A, v)[s:t]`` bit for bit, for every slice — that is
what makes chunked/streamed/parallel scoring reproduce eager scoring exactly.
The subtle part this file pins down is **memory layout**: einsum's reduction
association follows the operand's strides, and a single-row slice of a
Fortran-ordered matrix is C-contiguous, so without layout normalisation the
trailing one-row chunk of an odd-sized workload differed from the eager path
by 1 ulp.  (Found by the parallel-scoring parity suite at chunk size 1.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.roc import roc_curve
from repro.exceptions import DataError
from repro.numerics import auroc_score, batch_invariant_matmul, batch_invariant_matvec


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(42)
    matrix = rng.random((97, 23))  # odd row count: every chunking leaves a tail
    vector = rng.random(23) * 3.0
    weights = rng.random((23, 5)) - 0.5
    return matrix, vector, weights


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("chunk", [1, 2, 7, 96, 200])
def test_matvec_batch_invariant_in_any_layout(operands, order, chunk):
    matrix, vector, _ = operands
    laid_out = np.asarray(matrix, order=order)
    full = batch_invariant_matvec(laid_out, vector)
    for start in range(0, len(matrix), chunk):
        part = batch_invariant_matvec(laid_out[start:start + chunk], vector)
        assert np.array_equal(part, full[start:start + chunk])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_matmul_batch_invariant_in_any_layout(operands, order, chunk):
    matrix, _, weights = operands
    laid_out = np.asarray(matrix, order=order)
    full = batch_invariant_matmul(laid_out, weights)
    for start in range(0, len(matrix), chunk):
        part = batch_invariant_matmul(laid_out[start:start + chunk], weights)
        assert np.array_equal(part, full[start:start + chunk])


def test_layouts_agree_with_each_other(operands):
    # C- and F-ordered copies of the same values must reduce identically —
    # the layout is normalised away, not just held fixed per call.
    matrix, vector, weights = operands
    c_ordered = np.ascontiguousarray(matrix)
    f_ordered = np.asfortranarray(matrix)
    assert np.array_equal(
        batch_invariant_matvec(c_ordered, vector), batch_invariant_matvec(f_ordered, vector)
    )
    assert np.array_equal(
        batch_invariant_matmul(c_ordered, weights), batch_invariant_matmul(f_ordered, weights)
    )


def test_values_match_plain_matmul_closely(operands):
    # Invariance must not come at the price of accuracy: the einsum results
    # sit within normal floating-point distance of the BLAS products.
    matrix, vector, weights = operands
    assert np.allclose(batch_invariant_matvec(matrix, vector), matrix @ vector)
    assert np.allclose(batch_invariant_matmul(matrix, weights), matrix @ weights)


# ------------------------------------------------------------------ rank AUROC
def loop_auroc(labels: np.ndarray, scores: np.ndarray) -> float:
    """The Python tie loop that :func:`auroc_score` replaced, kept as its oracle.

    It walks the sorted scores and gives each run of equal values its mean
    rank.  It agrees with the vectorised form bit for bit on NaN-free input;
    with NaN scores it gives each NaN its own rank (NaN != NaN).
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    total_positives = int(labels.sum())
    total_negatives = len(labels) - total_positives
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    ranks[order] = np.arange(1, len(scores) + 1, dtype=float)
    position = 0
    while position < len(sorted_scores):
        end = position
        while end + 1 < len(sorted_scores) and sorted_scores[end + 1] == sorted_scores[position]:
            end += 1
        if end > position:
            ranks[order[position:end + 1]] = float(position + end + 2) / 2.0
        position = end + 1
    positive_rank_sum = float(ranks[labels == 1].sum())
    u_statistic = positive_rank_sum - total_positives * (total_positives + 1) / 2.0
    return u_statistic / (total_positives * total_negatives)


@st.composite
def tied_cases(draw):
    """Labels holding both classes and NaN-free scores drawn from few values."""
    size = draw(st.integers(2, 150))
    values = draw(st.lists(
        st.floats(allow_nan=False), min_size=1, max_size=8,
    ))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=size, max_size=size))
    labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    labels[0], labels[-1] = 0, 1
    return np.array(labels), np.array([values[pick] for pick in picks])


class TestAurocScore:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tied_cases())
    def test_matches_the_tie_loop_bit_for_bit(self, case):
        labels, scores = case
        assert auroc_score(labels, scores).hex() == loop_auroc(labels, scores).hex()

    def test_heavy_ties(self):
        rng = np.random.default_rng(0)
        scores = rng.choice([0.1, 0.25, 0.25, 0.5, 0.9], size=500)
        labels = rng.integers(0, 2, size=500)
        assert auroc_score(labels, scores) == loop_auroc(labels, scores)

    def test_without_ties(self):
        # Every group has one member: the ranks are the ordinal ranks.
        rng = np.random.default_rng(1)
        scores = rng.permutation(np.linspace(0.0, 1.0, 200))
        labels = (rng.random(200) < 0.3).astype(int)
        assert auroc_score(labels, scores) == loop_auroc(labels, scores)

    @pytest.mark.parametrize("n_values", [3, 40, None])
    def test_agrees_with_the_roc_curve_area(self, n_values):
        # The trapezoid under the ROC curve is the same quantity summed in
        # another order, so the two agree up to rounding, ties included.
        rng = np.random.default_rng(4)
        size = 300
        scores = rng.random(size) if n_values is None else rng.choice(rng.random(n_values), size)
        labels = (rng.random(size) < 0.4).astype(int)
        assert auroc_score(labels, scores) == pytest.approx(
            roc_curve(labels, scores).auroc, rel=1e-12
        )

    def test_flipping_the_labels_complements_it(self):
        rng = np.random.default_rng(5)
        scores = rng.choice([0.1, 0.3, 0.3, 0.7], size=120)
        labels = rng.integers(0, 2, size=120)
        flipped = auroc_score(1 - labels, scores)
        assert flipped == pytest.approx(1.0 - auroc_score(labels, scores), abs=1e-12)

    def test_every_layer_ranks_through_this_definition(self):
        import repro
        from repro import evaluation
        from repro.evaluation import roc
        from repro.risk import training

        for module in (repro, evaluation, roc, training):
            assert module.auroc_score is auroc_score, module.__name__

    def test_all_scores_tied(self):
        assert auroc_score(np.array([0, 1, 0, 1, 1]), np.full(5, 0.5)) == 0.5

    def test_perfect_ranking(self):
        labels = np.array([0, 0, 0, 1, 1])
        assert auroc_score(labels, np.array([0.1, 0.2, 0.3, 0.8, 0.9])) == 1.0

    def test_one_class_raises(self):
        with pytest.raises(DataError):
            auroc_score(np.ones(4, dtype=int), np.arange(4.0))
        with pytest.raises(DataError):
            auroc_score(np.zeros(4, dtype=int), np.arange(4.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            auroc_score(np.array([0, 1]), np.array([0.5]))

    def test_nan_scores_form_one_tie_group(self):
        # NaNs sort above every number and share one mean rank: here ranks
        # 4 and 5 average to 4.5, so the positives sum 2 + 3 + 4.5 and U is
        # 3.5 of 6.  The tie loop ranks the two NaNs 4 and 5 apart (0.5).
        labels = np.array([0, 1, 1, 0, 1])
        scores = np.array([0.2, np.nan, 0.7, np.nan, 0.5])
        assert auroc_score(labels, scores) == 3.5 / 6
        assert loop_auroc(labels, scores) == 0.5
        assert auroc_score(np.array([0, 1, 1, 0]), np.full(4, np.nan)) == 0.5
