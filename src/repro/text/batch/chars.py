"""Batched character-level DP kernels: edit distance, LCS, Jaro-Winkler.

Each kernel scores a whole batch of string pairs at once by running the
dynamic program over ``(batch, position)`` integer matrices instead of one
pair at a time in Python.  The strings arrive as UTF-32 code-point arrays
(from :meth:`~repro.text.batch.interner.AttributeView.ensure_char_codes`)
padded into rectangular matrices; pad sentinels are *negative* and differ
between the left (-1) and right (-2) side, so a pad can never equal a real
code point or the opposite side's pad and the recurrences need no masking
beyond the active-row bookkeeping.

All three kernels are **bit-identical** to their per-pair reference
definitions in ``tests/metric_oracle.py``:

* edit distance and LCS length are integer DPs, so vectorising them is exact
  by construction.  The per-cell ``cur[j-1]`` dependency that blocks naive
  vectorisation is eliminated with classic prefix-scan identities —
  ``cur[j] = j + min_{k<=j}(m[k] - k)`` for Levenshtein (a running minimum
  over the cur-independent candidates) and ``cur[j] = max_{k<=j} b[k]`` for
  LCS (valid because LCS rows are 1-Lipschitz, which makes the scalar
  if/else recurrence equal to the max-of-three form);
* Jaro-Winkler is reproduced stage by stage — greedy windowed matching,
  transposition counting over the matched subsequences, the 4-char prefix
  boost — and the final score evaluates the *same* float expression in the
  same operation order as the scalar code, so every intermediate rounds
  identically.

Three pure re-batching tricks keep the vector units busy (each pair's DP is
independent, so none can change a value):

* rows are processed in **descending left-length order**, so the rows still
  active at DP step ``i`` are a contiguous prefix — each iteration slices
  instead of masking, and the working set shrinks as short strings finish;
* batches whose padded work area would exceed a cell budget are split into
  row slices;
* the per-iteration intermediates write into preallocated scratch matrices
  (``out=``), so an iteration allocates no fresh arrays — which also keeps
  the kernels nearly free under allocation tracers like ``tracemalloc``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Pad sentinels; real UTF-32 code points are >= 0 so pads never match
#: anything, including the other side's pad.
LEFT_PAD = -1
RIGHT_PAD = -2

#: Soft bound on the padded cells (batch x max-length) a single DP slice may
#: allocate; bigger batches are split into row slices.  2^22 int32 cells is
#: ~16 MB per DP matrix — small enough to stay cache-friendly, large enough
#: that realistic chunks (256 pairs x few-hundred-char values) run unsplit.
CELL_BUDGET = 1 << 22


def _lengths_of(code_arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.fromiter(
        (array.size for array in code_arrays), dtype=np.int64, count=len(code_arrays)
    )


def pack_codes(
    code_arrays: Sequence[np.ndarray],
    pad: int,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pack variable-length code arrays into a padded matrix plus lengths.

    The fill is one vectorised scatter over the concatenated codes rather
    than a per-row copy loop.
    """
    if lengths is None:
        lengths = _lengths_of(code_arrays)
    count = len(code_arrays)
    width = int(lengths.max()) if lengths.size else 0
    matrix = np.full((count, width), pad, dtype=np.int32)
    total = int(lengths.sum())
    if total:
        flat = np.concatenate(list(code_arrays))
        row_index = np.repeat(np.arange(count), lengths)
        starts = np.cumsum(lengths) - lengths
        column_index = np.arange(total) - np.repeat(starts, lengths)
        matrix[row_index, column_index] = flat
    return matrix, lengths


def _ordered_slices(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None,
    right_lengths: np.ndarray | None,
) -> list[tuple[np.ndarray, Sequence[np.ndarray], Sequence[np.ndarray], np.ndarray, np.ndarray]]:
    """Longest-left-first row order, split into budget-sized slices.

    Returns ``(original_indices, left_slice, right_slice, left_lengths,
    right_lengths)`` tuples; callers scatter each slice's results back
    through ``original_indices``.
    """
    if left_lengths is None:
        left_lengths = _lengths_of(left_codes)
    if right_lengths is None:
        right_lengths = _lengths_of(right_codes)
    count = len(left_codes)
    order = np.argsort(-left_lengths, kind="stable")
    max_right = int(right_lengths.max()) if count else 0
    per_slice = max(1, CELL_BUDGET // max(1, max_right + 1))
    gatherable = isinstance(left_codes, np.ndarray)
    slices = []
    for start in range(0, count, per_slice):
        rows = order[start : start + per_slice]
        if gatherable:
            left_slice: Sequence[np.ndarray] = left_codes[rows]
            right_slice: Sequence[np.ndarray] = right_codes[rows]
        else:
            left_slice = [left_codes[i] for i in rows]
            right_slice = [right_codes[i] for i in rows]
        slices.append(
            (rows, left_slice, right_slice, left_lengths[rows], right_lengths[rows])
        )
    return slices


def _active_schedule(left_len: np.ndarray, width1: int) -> list[int]:
    """Per-iteration active-prefix sizes, computed with one ``searchsorted``.

    ``left_len`` is sorted descending; iteration ``i`` touches the prefix of
    rows whose left string is longer than ``i``.  Precomputing the whole
    schedule lets the DP loops re-slice their scratch matrices only when the
    active prefix actually shrinks — every other iteration runs entirely in
    preallocated buffers.
    """
    if not width1:
        return []
    return np.searchsorted(-left_len, -np.arange(width1), side="left").tolist()


def _lev_lcs_slice(
    left: np.ndarray,
    left_len: np.ndarray,
    right: np.ndarray,
    right_len: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Levenshtein distances *and* LCS lengths of one packed slice.

    The two integer DPs iterate over the same left positions and share the
    per-iteration character-equality mask, so running them fused halves the
    loop overhead versus two separate passes.  Both recurrences eliminate the
    in-row ``cur[j-1]`` dependency with prefix-scan identities:

    * Levenshtein is kept in **offset form** ``P[j] = dist[j] - j``.  With
      ``m[j] = min(prev[j] + 1, prev[j-1] + cost_j)`` (and ``m[0] = i + 1``)
      the true row is ``cur[j] = j + min_{k<=j}(m[k] - k)``; in offset form
      ``m[j] - j = min(P[j] + 1, P[j-1] - eq_j)`` and the new ``P`` is its
      running minimum — the ``±j`` shifts drop out of the loop entirely.
    * LCS uses the max form: because LCS rows satisfy
      ``prev[j] <= prev[j-1] + 1`` and ``cur[j-1] <= prev[j-1] + 1``, the
      scalar ``prev[j-1]+1 if eq else max(prev[j], cur[j-1])`` equals
      ``max(prev[j], prev[j-1]+eq, cur[j-1])``, whose ``cur[j-1]`` term is a
      running maximum over ``b[j] = max(prev[j], prev[j-1]+eq)``.

    Both are integer DPs, so vectorising them is exact by construction.
    """
    batch, width = right.shape
    # DP cell magnitudes are bounded by the padded widths plus the +1 bump
    # transient (the offset row of a finished pair keeps incrementing until
    # the slice's longest left string is done, but never beyond width1), so
    # the narrowest integer dtype that holds ``widest + 1`` is exact — and
    # the running-minimum accumulate is memory-bound, so int8 slices scan
    # almost 3x faster than int16 ones.
    widest = max(width, left.shape[1])
    if widest < 126:
        cell_dtype = np.int8
    elif widest < 32000:
        cell_dtype = np.int16
    else:
        cell_dtype = np.int32
    # The two DPs run as ONE stacked min-DP over a (2, batch, width+1)
    # state: plane 0 holds the Levenshtein offsets P[j] = dist[j] - j, and
    # plane 1 holds the LCS row *negated*, which (max(a, b) == -min(-a, -b))
    # turns its recurrence into exactly the Levenshtein op sequence —
    #   lev:  m'[j] = min(P[j] + 1,  P[j-1] - eq),  m'[0] = i + 1
    #   lcs': m'[j] = min(L'[j] + 0, L'[j-1] - eq), m'[0] = 0
    # so one broadcast `bump` column (+1 / +0), one subtract, one minimum
    # and one running-minimum accumulate advance both programs at once.
    # Even the boundaries ride in the bump-add: after iteration i-1 the
    # offset row has P[0] = i, so m'[0] = i + 1 is P[0] + 1 — and plane 1's
    # m'[0] = 0 is L'[0] + 0 — exactly the bump applied to column 0, so the
    # add writes the *full* row and no separate boundary fill is needed.
    # The state ping-pongs between two buffers (read one parity, write the
    # other, swap bindings) — no per-iteration copy, no view churn.  Every
    # iteration runs the full batch; a pair whose left string is exhausted
    # sees only pad columns (which equal nothing), so its state keeps
    # evolving harmlessly — its *result* was harvested the moment it froze.
    states = []
    for _ in range(2):
        state = np.zeros((2, batch, width + 1), dtype=cell_dtype)
        states.append((state, state[:, :, 1:], state[:, :, :-1]))
    read, work = states
    # Snapshot buffer: the moment a row's left string ends its state is
    # final, so one contiguous slice-copy parks it here (left lengths sort
    # descending — finished rows form a suffix) and the per-row tail gather
    # happens exactly once, vectorised, after the loop.
    final = np.zeros((2, batch, width + 1), dtype=cell_dtype)
    bump = np.array([[[1]], [[0]]], dtype=cell_dtype)
    substituted = np.empty((2, batch, width), dtype=cell_dtype)
    equal = np.empty((batch, width), dtype=bool)
    # Columns of the transposed copy are basic-slice views, so the loop
    # reads left position i with zero gather calls.
    left_by_position = np.ascontiguousarray(left.T)[:, :, None]
    prev_active = batch
    for i, active in enumerate(_active_schedule(left_len, left.shape[1])):
        if active < prev_active:
            final[:, active:prev_active] = read[0][:, active:prev_active]
            prev_active = active
        np.equal(right, left_by_position[i], out=equal)
        np.add(read[0], bump, out=work[0])
        np.subtract(read[2], equal, out=substituted)
        np.minimum(work[1], substituted, out=work[1])
        np.minimum.accumulate(work[0], axis=2, out=work[0])
        read, work = work, read
    # Rows still active after the last iteration (the longest left strings).
    final[:, :prev_active] = read[0][:, :prev_active]
    rows = np.arange(batch)
    distances = final[0, rows, right_len] + right_len
    lcs_lengths = -final[1, rows, right_len].astype(np.int64)
    return distances, lcs_lengths


def batched_levenshtein(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Levenshtein distances of ``zip(left_codes, right_codes)``, exactly."""
    distances = np.empty(len(left_codes), dtype=np.int64)
    for rows, left_slice, right_slice, l_lens, r_lens in _ordered_slices(
        left_codes, right_codes, left_lengths, right_lengths
    ):
        left, left_len = pack_codes(left_slice, LEFT_PAD, l_lens)
        right, right_len = pack_codes(right_slice, RIGHT_PAD, r_lens)
        distances[rows] = _lev_lcs_slice(left, left_len, right, right_len)[0]
    return distances


def batched_lcs_length(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Longest-common-subsequence lengths, exactly."""
    lengths = np.empty(len(left_codes), dtype=np.int64)
    for rows, left_slice, right_slice, l_lens, r_lens in _ordered_slices(
        left_codes, right_codes, left_lengths, right_lengths
    ):
        left, left_len = pack_codes(left_slice, LEFT_PAD, l_lens)
        right, right_len = pack_codes(right_slice, RIGHT_PAD, r_lens)
        lengths[rows] = _lev_lcs_slice(left, left_len, right, right_len)[1]
    return lengths


def batched_char_trio(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
    prefix_weight: float = 0.1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Levenshtein distances, LCS lengths, Jaro-Winkler scores)`` at once.

    The three char metrics read the same packed matrices, so computing them
    in one pass shares the sort, the gather and the packing — and lets the
    caller (the char-trio kernel) fill three metric columns per batch.
    """
    count = len(left_codes)
    distances = np.empty(count, dtype=np.int64)
    lcs_lengths = np.empty(count, dtype=np.int64)
    jw_scores = np.empty(count, dtype=float)
    for rows, left_slice, right_slice, l_lens, r_lens in _ordered_slices(
        left_codes, right_codes, left_lengths, right_lengths
    ):
        left, left_len = pack_codes(left_slice, LEFT_PAD, l_lens)
        right, right_len = pack_codes(right_slice, RIGHT_PAD, r_lens)
        slice_distances, slice_lcs = _lev_lcs_slice(left, left_len, right, right_len)
        distances[rows] = slice_distances
        lcs_lengths[rows] = slice_lcs
        jw_scores[rows] = _jaro_winkler_slice(
            left, left_len, right, right_len, prefix_weight
        )
    return distances, lcs_lengths, jw_scores


def _jaro_winkler_slice(
    left: np.ndarray,
    left_len: np.ndarray,
    right: np.ndarray,
    right_len: np.ndarray,
    prefix_weight: float,
) -> np.ndarray:
    """Jaro-Winkler over one packed slice (left lengths sorted descending)."""
    batch, width1 = left.shape
    width2 = right.shape[1]

    # --- greedy windowed matching, vectorised over the batch ---------------
    # The scalar window at left position i is max(0, i-w) <= j < min(i+w+1,
    # len2), i.e. j is a candidate iff |j - i| <= w and j < len2 and the
    # characters are equal.  Everything in that predicate except "still
    # unmatched" is static, so when the 3-D (i, row, j) tensor fits the cell
    # budget the whole candidate mask is precomputed in a handful of bulk
    # ops and each loop iteration is down to one elementwise op plus the
    # argmax/scatter bookkeeping.  Otherwise (pathologically long strings)
    # the same predicate is evaluated per iteration from its precomputed
    # one-sided bounds.  Both branches select identical matches.
    window = np.maximum(np.maximum(left_len, right_len) // 2 - 1, 0)
    positions2 = np.arange(width2)
    # One trash column at index width2: a row with no candidate this round
    # selects it (see below), and nothing in the real range ever reads it.
    matched2 = np.zeros((batch, width2 + 1), dtype=bool)
    matched2_real = matched2[:, :width2]
    if width1 * batch * width2 <= CELL_BUDGET:
        # Static candidate tensor: candidate (i, row, j) iff |j - i| <= w
        # and the characters are equal.  Pads never equal real code points
        # or each other across sides, so the scalar loop's j < len2 bound is
        # already implied by the equality — no separate mask pass — and a
        # row whose left string is exhausted has an all-False plane and
        # simply stops matching, with no active-prefix bookkeeping at all.
        # The |j - i| band is row-independent, so it lives in a small
        # (width1, width2) matrix; the one 3-D compare against the per-row
        # window materialises the tensor and the character equality folds
        # in with one in-place and.  The tensor carries an always-True
        # trash plane at column width2, so every loop buffer below stays
        # C-contiguous — strided (batch, width2) views of the (batch,
        # width2 + 1) buffers turned out to dominate the loop's cost.
        positions1 = np.arange(width1)
        # Both build passes write the full (width1, batch, width2 + 1)
        # buffer — the extended offsets column keeps the band check True at
        # the trash index and the extended right column is a pad (never
        # equal), so one strided plane-fill at the end restores the trash
        # invariant and every bulk op stays C-contiguous.
        offsets = np.zeros((width1, width2 + 1), dtype=np.int64)
        np.abs(positions2[None, :] - positions1[:, None], out=offsets[:, :width2])
        right_extended = np.full((batch, width2 + 1), RIGHT_PAD, dtype=right.dtype)
        right_extended[:, :width2] = right
        static = offsets[:, None, :] <= window[None, :, None]
        static &= right_extended[None, :, :] == left.T[:, :, None]
        static[:, :, width2] = True
        # The trash column makes argmax the whole selection: it returns the
        # first unmatched candidate when one exists (matched2's trash entry
        # is always False, so the trash candidate is always True) and the
        # trash index when none does; the full-batch scatter parks no-match
        # rows there and the trash entries are wiped before the next read.
        # Four fixed-buffer ops per left position, no allocation at all.
        candidates = np.empty((batch, width2 + 1), dtype=bool)
        selected = np.empty((width1, batch), dtype=np.intp)
        flat = matched2.reshape(-1)
        flat_index = np.empty(batch, dtype=np.intp)
        row_base = np.arange(batch) * (width2 + 1)
        trash = matched2[:, width2]
        for i in range(width1):
            # "and not matched" as elementwise > : True only where the
            # static candidate is True and the right position is unmatched.
            np.greater(static[i], matched2, out=candidates)
            np.argmax(candidates, axis=1, out=selected[i])  # first True
            np.add(row_base, selected[i], out=flat_index)
            flat[flat_index] = True
            trash[...] = False
        matched1 = selected.T != width2
    else:
        match_of_left = np.full((batch, width1), -1, dtype=np.int64)
        candidates = np.empty((batch, width2), dtype=bool)
        left_column = np.empty((batch, 1), dtype=np.int32)
        has_match = np.empty(batch, dtype=bool)
        first = np.empty(batch, dtype=np.intp)
        left_flat = left_column[:, 0]
        in_reach = positions2[None, :] + window[:, None]
        from_left = positions2[None, :] - window[:, None]
        from_left[positions2[None, :] >= right_len[:, None]] = width1 + 1
        bounded = np.empty((batch, width2), dtype=bool)
        prev_active = -1
        for i, active in enumerate(_active_schedule(left_len, width1)):
            if active != prev_active:
                prev_active = active
                right_a = right[:active]
                left_col_a = left_column[:active]
                candidates_a = candidates[:active]
                matched2_a = matched2_real[:active]
                has_match_a = has_match[:active]
                first_a = first[:active]
                in_reach_a = in_reach[:active]
                from_left_a = from_left[:active]
                bounded_a = bounded[:active]
            np.take(left, i, axis=1, out=left_flat)
            np.greater_equal(in_reach_a, i, out=bounded_a)
            np.less_equal(from_left_a, i, out=candidates_a)
            np.logical_and(bounded_a, candidates_a, out=bounded_a)
            np.equal(right_a, left_col_a, out=candidates_a)
            np.logical_and(bounded_a, candidates_a, out=candidates_a)
            np.greater(candidates_a, matched2_a, out=candidates_a)
            np.any(candidates_a, axis=1, out=has_match_a)
            np.argmax(candidates_a, axis=1, out=first_a)  # first True
            rows = np.nonzero(has_match_a)[0]
            chosen = first[rows]
            matched2_real[rows, chosen] = True
            match_of_left[rows, i] = chosen
        matched1 = match_of_left >= 0

    matches = matched1.sum(axis=1)

    # --- transpositions: compare the matched subsequences in order ---------
    # Scatter each side's matched characters into rank order (rank = how many
    # matched positions precede it), pad the tails with side-specific
    # sentinels, and count positions where the two sequences disagree.
    compact = min(width1, width2)
    left_seq = np.full((batch, compact), -3, dtype=np.int32)
    rows1, cols1 = np.nonzero(matched1)
    ranks1 = (np.cumsum(matched1, axis=1) - 1)[rows1, cols1]
    left_seq[rows1, ranks1] = left[rows1, cols1]
    right_seq = np.full((batch, compact), -4, dtype=np.int32)
    rows2, cols2 = np.nonzero(matched2_real)
    ranks2 = (np.cumsum(matched2_real, axis=1) - 1)[rows2, cols2]
    right_seq[rows2, ranks2] = right[rows2, cols2]
    transpositions = (
        (left_seq != right_seq) & (left_seq != -3) & (right_seq != -4)
    ).sum(axis=1) // 2

    # --- the Jaro score, in the scalar expression's operation order --------
    # matches / len1 + matches / len2 + (matches - t) / matches, then / 3.0;
    # all divisions are int64/int64 -> float64, exact for these magnitudes
    # and identical to Python's int / int.
    # All denominators are guarded by the matches == 0 mask below: an empty
    # side forces matches == 0, so clamping the empty lengths to 1 only
    # silences the 0/0 warning without touching any surviving score.
    safe_matches = np.maximum(matches, 1)
    jaro = (
        matches / np.maximum(left_len, 1)
        + matches / np.maximum(right_len, 1)
        + (matches - transpositions) / safe_matches
    ) / 3.0
    jaro = np.where(matches == 0, 0.0, jaro)

    # Equal strings score exactly 1.0 here just like the scalar short-circuit
    # (the greedy matcher matches them perfectly, and (1+1+1)/3 is exact);
    # the mask below suppresses the prefix boost at the boundaries, matching
    # the scalar "return base when base is 0 or 1".
    boundary = (jaro == 0.0) | (jaro == 1.0)

    # --- the Winkler prefix boost ------------------------------------------
    prefix = np.zeros(batch, dtype=np.int64)
    running = np.ones(batch, dtype=bool)
    for k in range(min(4, width1, width2)):
        # Pads never equal anything, so positions past either length break
        # the run exactly like the scalar zip(s1[:4], s2[:4]) loop.
        running = running & (left[:, k] == right[:, k])
        prefix += running

    boosted = jaro + prefix * prefix_weight * (1.0 - jaro)
    return np.where(boundary, jaro, boosted)


def batched_jaro_winkler(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    prefix_weight: float = 0.1,
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Jaro-Winkler similarities, bit-identical to the scalar function."""
    scores = np.empty(len(left_codes), dtype=float)
    for rows, left_slice, right_slice, l_lens, r_lens in _ordered_slices(
        left_codes, right_codes, left_lengths, right_lengths
    ):
        left, left_len = pack_codes(left_slice, LEFT_PAD, l_lens)
        right, right_len = pack_codes(right_slice, RIGHT_PAD, r_lens)
        scores[rows] = _jaro_winkler_slice(left, left_len, right, right_len, prefix_weight)
    return scores
