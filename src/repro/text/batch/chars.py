"""Batched character-level kernels: edit distance, LCS, Jaro-Winkler.

Each kernel scores a whole batch of string pairs at once with numpy
operations over the batch instead of one pair at a time in Python.  The
strings arrive as UTF-32 code-point arrays (from
:meth:`~repro.text.batch.interner.AttributeView.ensure_char_codes`) padded
into rectangular matrices; pad sentinels are *negative* and differ between
the left (-1) and right (-2) side, so a pad can never equal a real code point
or the opposite side's pad and no recurrence needs a length mask.

:func:`batched_char_trio` computes all three metrics in one pass and picks,
per call, between two programs that walk the left string one position at a
time:

* the **word kernel** packs each row's right string into one ``uint64`` word
  (bit ``j`` of the row's match word at left position ``i`` is set iff
  ``right[j] == left[i]``) and advances every row by a few whole-word
  operations per left position: Myers' bit-vector Levenshtein in Hyyrö's
  formulation, Hyyrö's bit-vector LCS and the Jaro greedy match.  It serves
  rows whose right string fits one word (at most :data:`WORD_BITS` code
  points) when the call holds at least :data:`WORD_MIN_ROWS` of them;
* the **DP kernel** runs the dynamic programs over ``(batch, position)``
  integer matrices and serves every other row: single pairs and small calls,
  where its fewer numpy calls per position win, and right strings too long
  for one word.

Both are **bit-identical** to the per-pair reference definitions in
``tests/metric_oracle.py``:

* edit distance and LCS length are integer recurrences, so every vectorised
  form is exact by construction.  The DP removes the per-cell ``cur[j-1]``
  dependency with prefix-scan identities — ``cur[j] = j + min_{k<=j}(m[k] -
  k)`` for Levenshtein and ``cur[j] = max_{k<=j} b[k]`` for LCS (valid
  because LCS rows are 1-Lipschitz).  The word kernel keeps a column's
  vertical deltas as bit vectors instead: after ``n`` left characters the
  distance is ``n + popcount(Pv) - popcount(Mv)`` and the LCS length is
  ``popcount(~V)``, each over the row's ``len(right)`` low bits.  Carries
  and shifts only move bits upwards, so the unused high bits of a short
  row's word never reach the bits that are counted;
* Jaro-Winkler's greedy match takes, per left position, the smallest
  unmatched right position in the window with an equal character.  The DP
  kernel finds it with an ``argmax`` over a candidate mask; the word kernel
  with the lowest set bit (``c & -c``) of ``match & band & ~matched``.  Both
  yield the same matched positions, and from there the two kernels share
  the transposition count, the Jaro float expression (the scalar code's
  operation order, so every intermediate rounds identically) and the
  4-char Winkler prefix boost.

Rows are processed in **descending left-length order**: the rows still
reading real characters at step ``i`` form a prefix, so each kernel parks a
row's Levenshtein state the step its left string ends, while LCS and Jaro
state do not move on pad columns (a pad matches nothing).  Batches whose
padded work area would exceed a cell budget are split into row slices, and
the per-step intermediates write into preallocated buffers (``out=``), so a
step allocates no fresh arrays — which also keeps the kernels nearly free
under allocation tracers like ``tracemalloc``.  The word kernel's
wraparound arithmetic (the carry out of bit 63, ``-c``) runs on arrays only:
numpy scalars warn on ``uint64`` overflow.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

#: Pad sentinels; real UTF-32 code points are >= 0 so pads never match
#: anything, including the other side's pad.
LEFT_PAD = -1
RIGHT_PAD = -2

#: Soft bound on the padded cells (batch x max-length) a single slice may
#: allocate; bigger batches are split into row slices, and the word kernel
#: builds its match words in blocks of left positions within it.  2^22 int32
#: cells is ~16 MB per DP matrix — small enough to stay cache-friendly, large
#: enough that realistic chunks (256 pairs x few-hundred-char values) run
#: unsplit.
CELL_BUDGET = 1 << 22

#: Right strings of at most this many code points fit one word-kernel word.
WORD_BITS = 64

#: Fewest one-word rows a call needs before they run on the word kernel.  A
#: word step costs 20 numpy calls against the DP's 9, so the word kernel
#: wins only once the batch gives each call real work.  Median per-call time
#: on DS values (30 random draws, right strings <= 64 code points; 2-core
#: Intel Xeon, numpy 2.4), DP against word kernel: titles 0.62 / 0.92 ms at 1 row, 1.02 / 0.99 at 8,
#: 1.09 / 1.00 at 10, 10.4 / 3.7 at 256; authors 0.37 / 0.53 at 1 row,
#: 1.08 / 1.19 at 8, 0.77 / 0.74 at 10, 5.6 / 2.3 at 256.  Both attributes
#: cross over between 6 and 10 rows.
WORD_MIN_ROWS = 10

#: ``_LOW_BITS[k]`` has the ``k`` lowest bits set, ``k`` in ``0..WORD_BITS``.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(WORD_BITS + 1)], dtype=np.uint64)
_ONE = np.ones(1, dtype=np.uint64)


def _lengths_of(code_arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.fromiter(
        (array.size for array in code_arrays), dtype=np.int64, count=len(code_arrays)
    )


def pack_codes(
    code_arrays: Sequence[np.ndarray],
    pad: int,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pack variable-length code arrays into a padded matrix plus lengths.

    The fill is one vectorised scatter over the concatenated codes rather
    than a per-row copy loop.
    """
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


def _packed_slices(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray,
    right_lengths: np.ndarray,
    subset: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The ``subset`` rows, longest left first, packed in budget-sized slices.

    Yields ``(original_indices, left, left_len, right, right_len)``: padded
    code matrices and lengths of one slice, whose results callers scatter
    back through ``original_indices``.
    """
    order = subset[np.argsort(-left_lengths[subset], kind="stable")]
    max_right = int(right_lengths[subset].max()) if subset.size else 0
    per_slice = max(1, CELL_BUDGET // max(1, max_right + 1))
    gatherable = isinstance(left_codes, np.ndarray)
    for start in range(0, order.size, per_slice):
        rows = order[start : start + per_slice]
        if gatherable:
            left_slice: Sequence[np.ndarray] = left_codes[rows]
            right_slice: Sequence[np.ndarray] = right_codes[rows]
        else:
            left_slice = [left_codes[i] for i in rows]
            right_slice = [right_codes[i] for i in rows]
        left, left_len = pack_codes(left_slice, LEFT_PAD, left_lengths[rows])
        right, right_len = pack_codes(right_slice, RIGHT_PAD, right_lengths[rows])
        yield rows, left, left_len, right, right_len


def _active_schedule(left_len: np.ndarray, width1: int) -> list[int]:
    """Per-iteration active-prefix sizes, computed with one ``searchsorted``.

    ``left_len`` is sorted descending; iteration ``i`` touches the prefix of
    rows whose left string is longer than ``i``.  Precomputing the whole
    schedule lets the loops act only when the active prefix actually shrinks
    — every other iteration runs entirely in preallocated buffers.
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


def _match_words(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(width1, batch)`` words: bit ``j`` of ``[i, r]`` iff ``right[r, j] == left[r, i]``.

    ``right`` is at most :data:`WORD_BITS` wide.  The equality tensor is
    built and bit-packed a block of left positions at a time, each block
    within the cell budget.
    """
    batch, width1 = left.shape
    width2 = right.shape[1]
    words = np.zeros((width1, batch, 8), dtype=np.uint8)
    packed_bytes = -(-width2 // 8)
    block = max(1, CELL_BUDGET // max(1, batch * width2))
    left_by_position = left.T[:, :, None]
    for start in range(0, width1, block):
        equal = right == left_by_position[start : start + block]
        words[start : start + block, :, :packed_bytes] = np.packbits(
            equal, axis=2, bitorder="little"
        )
    return words.view("<u8")[:, :, 0]


def _word_trio_slice(
    left: np.ndarray,
    left_len: np.ndarray,
    right: np.ndarray,
    right_len: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levenshtein, LCS and Jaro matches of one slice, right strings in one word.

    Returns ``(distances, lcs_lengths, matched1, matched2)``; the two bool
    matrices mark the Jaro-matched left and right positions.  Per left
    position ``i`` with match word ``Eq``:

    * Levenshtein (Myers, JACM 1999, in Hyyrö's formulation) carries the
      current DP column as vertical +1 / -1 delta vectors ``Pv`` / ``Mv``;
      the horizontal deltas it derives are shifted up one row with a +1
      shifted in, because row 0 of the DP is ``D[0][i] = i``;
    * LCS (Hyyrö 2004) carries ``V``, whose zero bits count the LCS:
      ``V = (V + (V & Eq)) | (V & ~Eq)``, the second term written
      ``V ^ (V & Eq)``;
    * the Jaro greedy match picks the lowest set bit of
      ``Eq & band(i) & ~matched``, where ``band(i)`` holds the right
      positions within the row's match window of ``i``.
    """
    batch, width1 = left.shape
    width2 = right.shape[1]
    matches = _match_words(left, right)
    # band(i) = bits j with |i - j| <= window: the bits below i + window + 1
    # minus the bits below i - window.  The scalar loop's j < len2 bound
    # needs no mask — a pad column's match bit is never set.
    window = np.maximum(np.maximum(left_len, right_len) // 2 - 1, 0)
    positions = np.arange(width1)[:, None]
    candidates = _LOW_BITS[np.minimum(positions + window + 1, WORD_BITS)]
    candidates ^= _LOW_BITS[np.clip(positions - window, 0, WORD_BITS)]
    candidates &= matches

    all_ones = _LOW_BITS[WORD_BITS]
    # Levenshtein's Pv and LCS's V both open a step with X + (X & Eq), so
    # they share one (2, batch) state and two stacked operations.  Column 0
    # of the DP is D[j][0] = j: every vertical delta starts at +1.
    stacked = np.full((2, batch), all_ones, dtype=np.uint64)
    plus_v, lcs_v = stacked
    masked = np.empty((2, batch), dtype=np.uint64)
    summed = np.empty((2, batch), dtype=np.uint64)
    minus_v = np.zeros(batch, dtype=np.uint64)
    unmatched = np.full(batch, all_ones, dtype=np.uint64)
    picks = np.empty((width1, batch), dtype=np.uint64)
    diagonal, minus_h, shifted, both, lowest = (
        np.empty(batch, dtype=np.uint64) for _ in range(5)
    )
    final_plus = np.empty(batch, dtype=np.uint64)
    final_minus = np.empty(batch, dtype=np.uint64)
    prev_active = batch
    steps = zip(_active_schedule(left_len, width1), matches, candidates, picks)
    for active, eq, candidate, pick in steps:
        if active < prev_active:
            final_plus[active:prev_active] = plus_v[active:prev_active]
            final_minus[active:prev_active] = minus_v[active:prev_active]
            prev_active = active
        np.bitwise_and(stacked, eq, out=masked)
        np.add(stacked, masked, out=summed)
        # Levenshtein: D0 = ((Pv + (Pv & Eq)) ^ Pv) | Eq | Mv, Mh = Pv & D0
        # and Ph = ~((D0 | Pv) ^ Mv).  The +1 shifted into row 0 turns
        # (Ph << 1) | 1 into ~shifted, with shifted = ((D0 | Pv) ^ Mv) << 1,
        # so Mv = D0 & ~shifted and Pv = (Mh << 1) | (shifted & ~D0).
        np.bitwise_xor(summed[0], plus_v, out=diagonal)
        np.bitwise_or(diagonal, eq, out=diagonal)
        np.bitwise_or(diagonal, minus_v, out=diagonal)
        np.bitwise_and(plus_v, diagonal, out=minus_h)
        np.bitwise_or(diagonal, plus_v, out=shifted)
        np.bitwise_xor(shifted, minus_v, out=shifted)
        np.left_shift(shifted, _ONE, out=shifted)
        np.bitwise_and(diagonal, shifted, out=both)
        np.bitwise_xor(diagonal, both, out=minus_v)
        np.bitwise_xor(shifted, both, out=shifted)
        np.left_shift(minus_h, _ONE, out=minus_h)
        np.bitwise_or(minus_h, shifted, out=plus_v)
        # LCS: V = (V + (V & Eq)) | (V ^ (V & Eq))
        np.bitwise_xor(lcs_v, masked[1], out=lcs_v)
        np.bitwise_or(lcs_v, summed[1], out=lcs_v)
        # Jaro greedy match: the lowest unmatched candidate bit
        np.bitwise_and(candidate, unmatched, out=both)
        np.negative(both, out=lowest)
        np.bitwise_and(both, lowest, out=pick)
        np.bitwise_xor(unmatched, pick, out=unmatched)
    final_plus[:prev_active] = plus_v[:prev_active]
    final_minus[:prev_active] = minus_v[:prev_active]

    counted = _LOW_BITS[right_len]
    distances = (
        left_len
        + np.bitwise_count(final_plus & counted)
        - np.bitwise_count(final_minus & counted)
    )
    lcs_lengths = np.bitwise_count(~lcs_v & counted).astype(np.int64)
    matched1 = (picks != 0).T
    matched_bytes = (~unmatched).astype("<u8", copy=False).view(np.uint8)
    matched2 = np.unpackbits(
        matched_bytes.reshape(batch, 8), axis=1, count=width2, bitorder="little"
    ).view(bool)
    return distances, lcs_lengths, matched1, matched2


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
    caller (the char-trio kernel) fill three metric columns per batch.  Rows
    whose right string fits one word run on the word kernel when the call
    holds at least :data:`WORD_MIN_ROWS` of them; all others run on the DP.
    """
    if left_lengths is None:
        left_lengths = _lengths_of(left_codes)
    if right_lengths is None:
        right_lengths = _lengths_of(right_codes)
    count = len(left_codes)
    distances = np.empty(count, dtype=np.int64)
    lcs_lengths = np.empty(count, dtype=np.int64)
    jw_scores = np.empty(count, dtype=float)
    on_words = right_lengths <= WORD_BITS
    if np.count_nonzero(on_words) < WORD_MIN_ROWS:
        paths = ((False, np.arange(count)),)
    else:
        paths = ((True, np.flatnonzero(on_words)), (False, np.flatnonzero(~on_words)))
    for word_path, subset in paths:
        for rows, left, left_len, right, right_len in _packed_slices(
            left_codes, right_codes, left_lengths, right_lengths, subset
        ):
            if word_path:
                slice_distances, slice_lcs, matched1, matched2 = _word_trio_slice(
                    left, left_len, right, right_len
                )
            else:
                slice_distances, slice_lcs = _lev_lcs_slice(left, left_len, right, right_len)
                matched1, matched2 = _greedy_matches(left, left_len, right, right_len)
            distances[rows] = slice_distances
            lcs_lengths[rows] = slice_lcs
            jw_scores[rows] = _jaro_winkler_scores(
                left, left_len, right, right_len, matched1, matched2, prefix_weight
            )
    return distances, lcs_lengths, jw_scores


def _greedy_matches(
    left: np.ndarray,
    left_len: np.ndarray,
    right: np.ndarray,
    right_len: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Jaro's greedy windowed match over one packed slice, as two bool masks.

    Returns ``(matched1, matched2)``: the matched left positions
    ``(batch, width1)`` and right positions ``(batch, width2)``.
    """
    batch, width1 = left.shape
    width2 = right.shape[1]

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
    return matched1, matched2_real


def _jaro_winkler_scores(
    left: np.ndarray,
    left_len: np.ndarray,
    right: np.ndarray,
    right_len: np.ndarray,
    matched1: np.ndarray,
    matched2: np.ndarray,
    prefix_weight: float,
) -> np.ndarray:
    """Jaro-Winkler of one packed slice from its greedy-matched positions."""
    batch, width1 = left.shape
    width2 = right.shape[1]
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
    rows2, cols2 = np.nonzero(matched2)
    ranks2 = (np.cumsum(matched2, axis=1) - 1)[rows2, cols2]
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
    if left_lengths is None:
        left_lengths = _lengths_of(left_codes)
    if right_lengths is None:
        right_lengths = _lengths_of(right_codes)
    count = len(left_codes)
    scores = np.empty(count, dtype=float)
    for rows, left, left_len, right, right_len in _packed_slices(
        left_codes, right_codes, left_lengths, right_lengths, np.arange(count)
    ):
        matched1, matched2 = _greedy_matches(left, left_len, right, right_len)
        scores[rows] = _jaro_winkler_scores(
            left, left_len, right, right_len, matched1, matched2, prefix_weight
        )
    return scores
