"""Column-level batch kernels for every registry metric.

Each kernel computes one metric over a whole column of interned pairs at once:
it receives the attribute's :class:`~repro.text.batch.interner.AttributeView`,
the left/right entry-id arrays of the batch, and the metric context dict, and
returns the ``(batch,)`` float column.  :data:`BATCH_KERNELS` maps metric
short names (``"jaccard"``, ``"edit"``, ...) to kernels;
:func:`repro.features.metric_registry.metrics_for_attribute` attaches them to
the :class:`~repro.features.metric_registry.MetricSpec` objects so the
vectoriser can dispatch per column.

Kernels never walk Python lists per row: the missing-value preludes, size
gathers and id gathers all fancy-index the view's numpy mirror columns, and
set rows are packed into padded blocks with one vectorised scatter.  This
matters beyond raw speed — per-element Python work costs one traced
allocation per element under ``tracemalloc``, which is how
``benchmarks/bench_layers.py`` takes the scoring pipeline's peak memory.

**Bit-exactness is the contract.**  Every kernel reproduces its scalar
counterpart's arithmetic exactly, not approximately:

* count ratios (Jaccard, overlap, Dice, distinct-entity, diff-key-token, the
  DP-based edit/LCS similarities) are ``int64 / int64`` numpy divisions —
  IEEE-754 correctly-rounded, identical to Python's ``int / int`` for these
  magnitudes;
* TF-IDF cosine rebuilds, per pair, the *same* sorted union vocabulary and
  the same dense vectors as the scalar code and calls the same
  ``np.dot`` / ``np.linalg.norm`` reductions on them, so the BLAS summation
  order (which depends on vector length and contents) cannot diverge —
  including the final 1-ulp ``min(1.0, ...)`` clamp;
* compound float expressions (Jaro-Winkler, numeric similarity) are written
  in the scalar code's operation order so every intermediate rounds
  identically;
* the missing-value preludes (both-missing ``1.0`` / one-missing ``0.0`` for
  similarity metrics, either-missing ``0.0`` for difference metrics) and each
  metric's second-level empty-token / empty-set rules are replicated
  case by case.

Metrics that are cheap C string operations per pair (substring / prefix
containment, abbreviation containment) keep a per-pair loop but read the
interned normalised strings and cached abbreviations, so the batch win there
is the removed re-normalisation, not vectorised arithmetic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chars import batched_char_trio
from .interner import AttributeView

#: A batch kernel: (view, left entry ids, right entry ids, context) -> column.
BatchKernel = Callable[[AttributeView, np.ndarray, np.ndarray, dict], np.ndarray]

# --------------------------------------------------------------- preludes
def _prelude(
    view: AttributeView,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    both_missing: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Missing-value prelude shared by every string kernel.

    Returns the output column (pre-filled with the missing-value scores) and
    the active mask (rows where both sides are present).  ``both_missing`` is
    1.0 for similarity metrics and 0.0 for difference metrics; one-sided
    missing is 0.0 for both families.
    """
    # Every kernel of an attribute sees the same dedup'd id arrays, so the
    # masks are cached on the view by array identity — one gather pass per
    # attribute per batch instead of one per metric column.  Callers treat
    # the returned mask as read-only.
    cache = getattr(view, "_missing_mask_cache", None)
    if cache is not None and cache[0] is left_ids and cache[1] is right_ids:
        _, _, both, active = cache
    else:
        missing = view.missing_column()
        left_missing = missing[left_ids]
        right_missing = missing[right_ids]
        both = left_missing & right_missing
        active = ~(left_missing | right_missing)
        view._missing_mask_cache = (left_ids, right_ids, both, active)
    out = np.zeros(left_ids.size, dtype=float)
    if both_missing:
        out[both] = both_missing
    return out, active


# ----------------------------------------------------- set intersections
def _intersection_sizes(
    left_sets: np.ndarray,
    right_sets: np.ndarray,
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
) -> np.ndarray:
    """``|L_i ∩ R_i|`` for aligned columns of *sorted unique* id arrays.

    Counts through the union identity ``|L ∩ R| = |L| + |R| - |L ∪ R|``:
    every id is tagged with its pair index (``pair << 32 | id`` — interned
    ids fit 32 bits by construction), one sort brings duplicates together,
    and the distinct-key count per pair is the union size.  The whole batch
    costs one sort of the total token volume — no padded cross products,
    no per-row fallback — and the counts are exact integers.
    """
    sizes = np.zeros(len(left_sets), dtype=np.int64)
    live = np.nonzero((left_sizes > 0) & (right_sizes > 0))[0]
    if not live.size:
        return sizes
    left_live = left_sizes[live]
    right_live = right_sizes[live]
    ids = np.concatenate(list(left_sets[live]) + list(right_sets[live]))
    pair_of = np.concatenate([
        np.repeat(np.arange(live.size), left_live),
        np.repeat(np.arange(live.size), right_live),
    ])
    keys = (pair_of << 32) | ids
    keys.sort()
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    union = np.bincount(keys[distinct] >> 32, minlength=live.size)
    sizes[live] = left_live + right_live - union
    return sizes


def _set_column(
    columns: tuple[np.ndarray, np.ndarray],
    active: np.ndarray,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-active-row set sizes and intersection counts for one cached column."""
    objects, sizes = columns
    rows = np.nonzero(active)[0]
    left_entries = left_ids[rows]
    right_entries = right_ids[rows]
    left_sizes = sizes[left_entries]
    right_sizes = sizes[right_entries]
    inter = _intersection_sizes(
        objects[left_entries], objects[right_entries], left_sizes, right_sizes
    )
    return rows, left_sizes, right_sizes, inter


def _ratio_into(
    out: np.ndarray,
    rows: np.ndarray,
    numerator: np.ndarray,
    denominator: np.ndarray,
    both_empty: np.ndarray,
    one_empty: np.ndarray,
    both_empty_score: float,
) -> np.ndarray:
    """Scatter ``numerator/denominator`` into ``out`` with empty-set scores."""
    values = np.zeros(rows.size, dtype=float)
    values[both_empty] = both_empty_score
    ok = ~(both_empty | one_empty)
    values[ok] = numerator[ok] / denominator[ok]
    out[rows] = values
    return out


# ------------------------------------------------------- token-set kernels
# Jaccard, overlap and Dice are three ratios of the same (|L∩R|, |L|, |R|)
# triple, so whichever of the three columns runs first computes all of them
# over the (expensive) shared intersection pass and stashes the other two in
# the view's score store — those columns then never run a kernel at all.
_TOKEN_SET_METRICS = ("jaccard", "overlap", "dice")


def _token_set_trio(view, left_ids, right_ids, context, want):
    view.ensure_tokens()
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    rows, ls, rs, inter = _set_column(view.token_set_columns(), active, left_ids, right_ids)
    both_empty = (ls == 0) & (rs == 0)
    one_empty = ((ls == 0) | (rs == 0)) & ~both_empty
    columns = {
        metric: out if metric == want else out.copy() for metric in _TOKEN_SET_METRICS
    }
    _ratio_into(columns["jaccard"], rows, inter, ls + rs - inter, both_empty, one_empty, 1.0)
    _ratio_into(columns["overlap"], rows, inter, np.minimum(ls, rs), both_empty, one_empty, 1.0)
    # Scalar Dice: 2.0 * |L∩R| / (|L| + |R|) — float * int then / int, replicated.
    _ratio_into(columns["dice"], rows, 2.0 * inter, ls + rs, both_empty, one_empty, 1.0)
    for metric, column in columns.items():
        if metric != want:
            view.stash_scores(metric, left_ids, right_ids, column)
    return columns[want]


def _jaccard_kernel(view, left_ids, right_ids, context):
    return _token_set_trio(view, left_ids, right_ids, context, "jaccard")


def _overlap_kernel(view, left_ids, right_ids, context):
    return _token_set_trio(view, left_ids, right_ids, context, "overlap")


def _dice_kernel(view, left_ids, right_ids, context):
    return _token_set_trio(view, left_ids, right_ids, context, "dice")


def _ngram_jaccard_kernel(view, left_ids, right_ids, context):
    view.ensure_ngrams()
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    rows, ls, rs, inter = _set_column(view.ngram_set_columns(), active, left_ids, right_ids)
    # Scalar n-gram Jaccard scores 0.0 whenever either gram set is empty —
    # including both-empty (no both-empty -> 1.0 rule here).
    any_empty = (ls == 0) | (rs == 0)
    return _ratio_into(
        out, rows, inter, ls + rs - inter, np.zeros_like(any_empty), any_empty, 0.0
    )


# Entity Jaccard and distinct-entity share one entity-set intersection pass;
# see the token-set trio above for the stash-the-companion pattern.  Their
# missing-value preludes differ (similarity vs difference family), so the
# companion column is built from scratch rather than copied.
def _entity_pair(view, left_ids, right_ids, context, want):
    view.ensure_entities()
    out_jaccard, active = _prelude(view, left_ids, right_ids, 1.0)
    rows, ls, rs, inter = _set_column(view.entity_set_columns(), active, left_ids, right_ids)
    both_empty = (ls == 0) & (rs == 0)
    one_empty = ((ls == 0) | (rs == 0)) & ~both_empty
    _ratio_into(out_jaccard, rows, inter, ls + rs - inter, both_empty, one_empty, 1.0)
    # Difference-family prelude: every missing combination scores 0.0.
    out_distinct = np.zeros(left_ids.size, dtype=float)
    union_empty = (ls + rs - inter) == 0
    _ratio_into(
        out_distinct, rows, ls + rs - 2 * inter, ls + rs - inter,
        np.zeros_like(union_empty), union_empty, 0.0,
    )
    columns = {"entity_jaccard": out_jaccard, "distinct_entity": out_distinct}
    for metric, column in columns.items():
        if metric != want:
            view.stash_scores(metric, left_ids, right_ids, column)
    return columns[want]


def _entity_jaccard_kernel(view, left_ids, right_ids, context):
    return _entity_pair(view, left_ids, right_ids, context, "entity_jaccard")


def _distinct_entity_kernel(view, left_ids, right_ids, context):
    return _entity_pair(view, left_ids, right_ids, context, "distinct_entity")


def _diff_cardinality_kernel(view, left_ids, right_ids, context):
    view.ensure_entities()
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    rows = np.nonzero(active)[0]
    sizes = view.entity_list_size_column()
    out[rows] = (sizes[left_ids[rows]] != sizes[right_ids[rows]]).astype(float)
    return out


def _diff_key_token_kernel(view, left_ids, right_ids, context):
    view.ensure_key_tokens(context.get("idf"), 2.0)
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    rows, ls, rs, inter = _set_column(
        view.key_token_set_columns(), active, left_ids, right_ids
    )
    union_empty = (ls + rs - inter) == 0
    return _ratio_into(
        out, rows, ls + rs - 2 * inter, ls + rs - inter,
        np.zeros_like(union_empty), union_empty, 0.0,
    )


# ----------------------------------------------------- whole-string kernels
def _exact_kernel(view, left_ids, right_ids, context):
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    rows = np.nonzero(active)[0]
    norm_ids = view.norm_id_column()
    out[rows] = (norm_ids[left_ids[rows]] == norm_ids[right_ids[rows]]).astype(float)
    return out


def _dp_rows(view, active, left_ids, right_ids):
    """Split the active rows into norm-equal rows (score 1.0 without running
    the DP — both the scalar shortcut and the DP yield exactly 1.0) and the
    rows that need the batched DP, with their gathered code arrays/lengths."""
    view.ensure_char_codes()
    codes, lengths = view.char_code_columns()
    norm_ids = view.norm_id_column()
    rows = np.nonzero(active)[0]
    left_entries = left_ids[rows]
    right_entries = right_ids[rows]
    equal = norm_ids[left_entries] == norm_ids[right_entries]
    needs_dp = ~equal
    dp_left_entries = left_entries[needs_dp]
    dp_right_entries = right_entries[needs_dp]
    return (
        rows[equal], rows[needs_dp],
        codes[dp_left_entries], codes[dp_right_entries],
        lengths[dp_left_entries], lengths[dp_right_entries],
    )


# Edit, LCS and Jaro-Winkler read the same packed character matrices, so one
# shared pass computes all three (the Levenshtein and LCS recurrences even
# share their per-row character-equality masks) and stashes the two companion
# columns — the stash-the-companion pattern of the token-set trio.
_CHAR_METRICS = ("edit", "lcs", "jaro_winkler")


def _char_trio(view, left_ids, right_ids, context, want):
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    equal_rows, dp_rows, dp_left, dp_right, left_len, right_len = _dp_rows(
        view, active, left_ids, right_ids
    )
    out[equal_rows] = 1.0
    columns = {metric: out if metric == want else out.copy() for metric in _CHAR_METRICS}
    if dp_rows.size:
        distances, lcs_lengths, jw_scores = batched_char_trio(
            dp_left, dp_right, left_len, right_len
        )
        longest = np.maximum(left_len, right_len)
        columns["edit"][dp_rows] = 1.0 - distances / longest
        columns["lcs"][dp_rows] = lcs_lengths / longest
        columns["jaro_winkler"][dp_rows] = jw_scores
    for metric, column in columns.items():
        if metric != want:
            view.stash_scores(metric, left_ids, right_ids, column)
    return columns[want]


def _edit_kernel(view, left_ids, right_ids, context):
    return _char_trio(view, left_ids, right_ids, context, "edit")


def _lcs_kernel(view, left_ids, right_ids, context):
    return _char_trio(view, left_ids, right_ids, context, "lcs")


def _jaro_winkler_kernel(view, left_ids, right_ids, context):
    return _char_trio(view, left_ids, right_ids, context, "jaro_winkler")


def _monge_elkan_kernel(view, left_ids, right_ids, context):
    """Monge-Elkan with the default Jaro-Winkler inner, fully vectorised.

    The scalar loop walks, for every left token, every right token.  Here the
    full (left token, right token) combination table of the batch is built
    with index arithmetic, deduplicated corpus-wide, and scored with ONE
    batched inner Jaro-Winkler call; identical token pairs score exactly 1.0
    without entering the DP (the scalar short-circuit).  Per-left-token maxima
    come from ``np.maximum.reduceat`` — exact, because max is order-free —
    and the per-pair means replicate the scalar fold-left sum over left
    tokens in sequence order, then the single ``total / count`` division.
    """
    view.ensure_tokens()
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    token_columns, token_counts = view.token_id_columns()
    rows = np.nonzero(active)[0]
    left_entries = left_ids[rows]
    right_entries = right_ids[rows]
    left_sizes = token_counts[left_entries]
    right_sizes = token_counts[right_entries]
    both_empty = (left_sizes == 0) & (right_sizes == 0)
    out[rows[both_empty]] = 1.0  # one-sided empty keeps the 0.0 prelude fill
    scored = (left_sizes > 0) & (right_sizes > 0)
    if not scored.any():
        return out
    scored_rows = rows[scored]
    left_counts = left_sizes[scored]
    right_counts = right_sizes[scored]
    left_tokens = np.concatenate(list(token_columns[left_entries[scored]]))
    right_tokens = np.concatenate(list(token_columns[right_entries[scored]]))
    # One combination row per (left token occurrence, right token occurrence),
    # grouped by pair, left tokens in sequence order, right tokens cycling.
    per_left_token = np.repeat(right_counts, left_counts)
    combo_counts = left_counts * right_counts
    total = int(combo_counts.sum())
    combo_left = np.repeat(left_tokens, per_left_token)
    combo_starts = np.cumsum(combo_counts) - combo_counts
    within_pair = np.arange(total) - np.repeat(combo_starts, combo_counts)
    right_offsets = within_pair % np.repeat(right_counts, combo_counts)
    right_starts = np.cumsum(right_counts) - right_counts
    combo_right = right_tokens[np.repeat(right_starts, combo_counts) + right_offsets]
    # Score each distinct token pair once across the whole batch.
    keys = (combo_left.astype(np.int64) << 32) | combo_right
    unique_keys, first_combos, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    unique_left = combo_left[first_combos]
    unique_right = combo_right[first_combos]
    unique_scores = np.ones(unique_keys.size, dtype=float)
    differs = unique_left != unique_right
    if differs.any():
        pending = np.nonzero(differs)[0]
        # Token pairs recur massively across batches (vocabularies saturate),
        # so the corpus index memoises their inner scores: only never-seen
        # pairs reach the batched DP.
        unique_scores[pending] = view.token_pair_jw(
            unique_keys[pending], unique_left[pending], unique_right[pending]
        )
    combo_scores = unique_scores[inverse]
    run_starts = np.cumsum(per_left_token) - per_left_token
    best = np.maximum.reduceat(combo_scores, run_starts)
    # Per-pair means: scatter each pair's per-left-token bests into a padded
    # row and fold with a row-wise cumsum — np.cumsum accumulates strictly
    # left to right, so the sum at column (count - 1) performs the *same*
    # addition sequence as the scalar ``total += best`` loop (the zero pad
    # never enters it), and the final division is the scalar's total / count.
    pairs = left_counts.size
    best_starts = np.cumsum(left_counts) - left_counts
    padded = np.zeros((pairs, int(left_counts.max())), dtype=float)
    row_index = np.repeat(np.arange(pairs), left_counts)
    column_index = np.arange(best.size) - np.repeat(best_starts, left_counts)
    padded[row_index, column_index] = best
    totals = np.cumsum(padded, axis=1)[np.arange(pairs), left_counts - 1]
    out[scored_rows] = totals / left_counts
    return out


def _cosine_tfidf_kernel(view, left_ids, right_ids, context):
    view.ensure_tfidf_rows(context.get("idf"))
    out, active = _prelude(view, left_ids, right_ids, 1.0)
    tokens, weights = view.tfidf_id_columns()
    rows = np.nonzero(active)[0]
    if not rows.size:
        return out
    left_rows = tokens[left_ids[rows]]
    right_rows = tokens[right_ids[rows]]
    left_sizes = np.fromiter(
        (row.size for row in left_rows), dtype=np.int64, count=left_rows.size
    )
    right_sizes = np.fromiter(
        (row.size for row in right_rows), dtype=np.int64, count=right_rows.size
    )
    out[rows[(left_sizes == 0) & (right_sizes == 0)]] = 1.0
    scored = (left_sizes > 0) & (right_sizes > 0)
    if not scored.any():
        return out
    srows = rows[scored]
    left_sizes = left_sizes[scored]
    right_sizes = right_sizes[scored]
    pairs = srows.size
    # Build every pair's sorted union vocabulary in one pass: the corpus
    # ranks every interned string lexicographically (exactly the scalar
    # sorted(set | set) order), so ranking a batch is one int gather — key
    # each occurrence by (pair, rank) and unique the keys, pair-major, so
    # each pair's union is a contiguous run in ascending string order.
    rank_of = view.lex_rank_column()
    all_tokens = np.concatenate(
        [row for row in left_rows[scored]] + [row for row in right_rows[scored]]
    )
    ranks = rank_of[all_tokens]
    pair_index = np.concatenate(
        [np.repeat(np.arange(pairs), left_sizes), np.repeat(np.arange(pairs), right_sizes)]
    )
    keys = (pair_index.astype(np.int64) << 32) | ranks
    union_keys, inverse = np.unique(keys, return_inverse=True)
    union_counts = np.bincount(union_keys >> 32, minlength=pairs)
    starts = np.cumsum(union_counts) - union_counts
    # Scatter the cached weighted rows into one flat buffer per side; each
    # pair's slice is then exactly the scalar code's union-length dense
    # vector, element for element.
    flat_left = np.zeros(union_keys.size)
    flat_right = np.zeros(union_keys.size)
    left_total = int(left_sizes.sum())
    flat_left[inverse[:left_total]] = np.concatenate(list(weights[left_ids[srows]]))
    flat_right[inverse[left_total:]] = np.concatenate(list(weights[right_ids[srows]]))
    # Per pair only the three dot products remain Python — the same BLAS
    # ddot reduction the scalar code runs, which slicing does not perturb
    # (ddot's summation tree depends on the vector length, which is why the
    # dots cannot be batched into one fused reduction without changing
    # bits).  Everything around them vectorises exactly: np.sqrt is the
    # same correctly-rounded IEEE sqrt as math.sqrt, and the elementwise
    # divide / minimum match the scalar `min(1.0, dot / denominator)`
    # operation for operation.
    bounds = starts.tolist()
    bounds.append(union_keys.size)
    left_dots = np.empty(pairs)
    right_dots = np.empty(pairs)
    cross_dots = np.empty(pairs)
    dot = np.dot
    start = bounds[0]
    for position in range(pairs):
        end = bounds[position + 1]
        left_vector = flat_left[start:end]
        right_vector = flat_right[start:end]
        left_dots[position] = dot(left_vector, left_vector)
        right_dots[position] = dot(right_vector, right_vector)
        cross_dots[position] = dot(left_vector, right_vector)
        start = end
    denominators = np.sqrt(left_dots) * np.sqrt(right_dots)
    live = denominators != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.minimum(1.0, cross_dots / denominators)
    out[srows[live]] = scores[live]
    return out


# -------------------------------------------------- containment kernels
def _norm_pairs(view, active, left_ids, right_ids):
    """Active row positions plus their normalised strings, gathered once."""
    norms = view.norm_column()
    rows = np.nonzero(active)[0]
    return zip(
        rows.tolist(),
        norms[left_ids[rows]].tolist(),
        norms[right_ids[rows]].tolist(),
    )


def _non_substring_kernel(view, left_ids, right_ids, context):
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    for position, left_norm, right_norm in _norm_pairs(view, active, left_ids, right_ids):
        out[position] = 0.0 if (left_norm in right_norm or right_norm in left_norm) else 1.0
    return out


def _non_prefix_kernel(view, left_ids, right_ids, context):
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    for position, left_norm, right_norm in _norm_pairs(view, active, left_ids, right_ids):
        out[position] = (
            0.0
            if (left_norm.startswith(right_norm) or right_norm.startswith(left_norm))
            else 1.0
        )
    return out


def _non_suffix_kernel(view, left_ids, right_ids, context):
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    for position, left_norm, right_norm in _norm_pairs(view, active, left_ids, right_ids):
        out[position] = (
            0.0
            if (left_norm.endswith(right_norm) or right_norm.endswith(left_norm))
            else 1.0
        )
    return out


def _abbr_non_substring_kernel(view, left_ids, right_ids, context):
    view.ensure_abbreviations()
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    abbreviations, compacts = view.abbreviation_columns()
    rows = np.nonzero(active)[0]
    left_entries = left_ids[rows]
    right_entries = right_ids[rows]
    gathered = zip(
        rows.tolist(),
        abbreviations[left_entries].tolist(), abbreviations[right_entries].tolist(),
        compacts[left_entries].tolist(), compacts[right_entries].tolist(),
    )
    for position, left_abbr, right_abbr, left_compact, right_compact in gathered:
        contained = (
            left_abbr in right_compact
            or right_abbr in left_compact
            or left_abbr in right_abbr
            or right_abbr in left_abbr
        )
        out[position] = 0.0 if contained else 1.0
    return out


def _abbr_non_prefix_kernel(view, left_ids, right_ids, context):
    view.ensure_abbreviations()
    out, active = _prelude(view, left_ids, right_ids, 0.0)
    abbreviations, _ = view.abbreviation_columns()
    rows = np.nonzero(active)[0]
    gathered = zip(
        rows.tolist(),
        abbreviations[left_ids[rows]].tolist(),
        abbreviations[right_ids[rows]].tolist(),
    )
    for position, left_abbr, right_abbr in gathered:
        contained = left_abbr.startswith(right_abbr) or right_abbr.startswith(left_abbr)
        out[position] = 0.0 if contained else 1.0
    return out


# ---------------------------------------------------------- numeric kernels
def _numeric_column(view, left_ids, right_ids):
    """Present masks and parsed values for a numeric column.

    Numeric metrics define "missing" by :func:`~repro.text.similarity._to_float`
    (non-parseable or non-finite), not by the normalised-string emptiness the
    string preludes use — ``"n/a"`` is missing here but present there.
    """
    view.ensure_numeric()
    present, values = view.numeric_columns()
    return present[left_ids], present[right_ids], values[left_ids], values[right_ids]


def _numeric_similarity_kernel(view, left_ids, right_ids, context):
    lp, rp, lv, rv = _numeric_column(view, left_ids, right_ids)
    out = np.zeros(len(left_ids), dtype=float)
    out[~lp & ~rp] = 1.0
    active = lp & rp
    left, right = lv[active], rv[active]
    values = np.ones(left.size, dtype=float)  # equal (and denom-0) rows score 1.0
    unequal = left != right
    denominator = np.maximum(np.abs(left[unequal]), np.abs(right[unequal]))
    # denominator == 0 with unequal values is impossible (both would be 0.0),
    # so the guard only avoids a divide warning, never changes a score.
    safe = np.where(denominator == 0.0, 1.0, denominator)
    ratio = np.clip(1.0 - np.abs(left[unequal] - right[unequal]) / safe, 0.0, 1.0)
    values[unequal] = np.where(denominator == 0.0, 1.0, ratio)
    out[active] = values
    return out


def _numeric_inequality_kernel(view, left_ids, right_ids, context):
    lp, rp, lv, rv = _numeric_column(view, left_ids, right_ids)
    out = np.zeros(len(left_ids), dtype=float)
    active = lp & rp
    out[active] = (lv[active] != rv[active]).astype(float)
    return out


def _numeric_difference_kernel(view, left_ids, right_ids, context):
    lp, rp, lv, rv = _numeric_column(view, left_ids, right_ids)
    out = np.zeros(len(left_ids), dtype=float)
    active = lp & rp
    left, right = lv[active], rv[active]
    denominator = np.maximum(np.abs(left), np.abs(right))
    safe = np.where(denominator == 0.0, 1.0, denominator)
    ratio = np.minimum(1.0, np.abs(left - right) / safe)
    out[active] = np.where(denominator == 0.0, 0.0, ratio)
    return out


#: Metric short name -> batch kernel.  Every metric the registry emits is
#: covered, so a fitted default vectoriser runs fully batched; unknown names
#: (custom metrics) simply keep ``batch_function=None`` and take the scalar
#: fallback column-by-column.
BATCH_KERNELS: dict[str, BatchKernel] = {
    "exact": _exact_kernel,
    "jaccard": _jaccard_kernel,
    "overlap": _overlap_kernel,
    "dice": _dice_kernel,
    "ngram_jaccard": _ngram_jaccard_kernel,
    "edit": _edit_kernel,
    "lcs": _lcs_kernel,
    "jaro_winkler": _jaro_winkler_kernel,
    "monge_elkan": _monge_elkan_kernel,
    "cosine_tfidf": _cosine_tfidf_kernel,
    "entity_jaccard": _entity_jaccard_kernel,
    "diff_cardinality": _diff_cardinality_kernel,
    "distinct_entity": _distinct_entity_kernel,
    "diff_key_token": _diff_key_token_kernel,
    "non_substring": _non_substring_kernel,
    "non_prefix": _non_prefix_kernel,
    "non_suffix": _non_suffix_kernel,
    "abbr_non_substring": _abbr_non_substring_kernel,
    "abbr_non_prefix": _abbr_non_prefix_kernel,
    "numeric_similarity": _numeric_similarity_kernel,
    "numeric_inequality": _numeric_inequality_kernel,
    "numeric_difference": _numeric_difference_kernel,
}
