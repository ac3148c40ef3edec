"""Vectorized predictor and estimator kernels over columnar traces.

The scalar measurement loop replays one python-level iteration per
dynamic branch.  This module re-expresses the same computation as numpy
array scans over a :class:`~repro.engine.columnar.ColumnarTrace`:

* **Predictor passes** (:func:`predict_columns`): the serial chain of
  saturating-counter updates is broken per table entry by a stable
  sort-by-index segmentation (a radix sort for keys below 2**16), then
  each segment's update chain is played as a segmented inclusive scan
  of *clamp-shift maps* ``x -> clip(x + s, lo, hi)``.  Such maps are
  closed and **exact** under composition, so every branch recovers the
  precise counter value it consulted, and the table's final state falls
  out of the last map per segment.  The doubling stops early once every
  unfinished prefix map is constant.  History registers (global or
  per-site) are serial but cheap: their columns are built with
  ``O(history_bits)`` shifted-OR passes, not per-branch python.
* **Estimator kernels**: each estimator family that the scalar bank
  supports has a matching array kernel (JRS tables in closed form: a
  resetting counter reads ``min(max, branches since its entry's last
  misprediction)``; saturating-counters, pattern and static families
  are pure masked ops; distance and boosting are prefix-maximum
  recurrences).  A small registry maps estimator *types* to kernels;
  anything unknown raises :class:`UnsupportedVectorization` so callers
  can fall back to the scalar loop -- either wholesale or per estimator
  via :func:`fallback_flags`, which drives the ordinary ``estimate`` /
  ``resolve`` protocol from the precomputed prediction columns.

Every kernel consumes predictor/estimator state exactly like the scalar
engine: post-pass tables, history registers and counters are installed
on the passed objects, so interleaving vector and scalar passes over
the same instances stays bit-identical.

Pristine passes are memoised: a predictor pass over uniform power-on
state is keyed by configuration and cached on the trace, and estimator
flag columns are cached per predictor pass.  Sweeps that re-measure the
same workload under many fresh estimator configurations then pay for
one predictor scan total.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..predictors.gshare import GsharePredictor
from ..predictors.mcfarling import McFarlingPredictor
from ..predictors.sag import SAgPredictor
from .columnar import ColumnarTrace

class UnsupportedVectorization(Exception):
    """No vector kernel exists for this predictor/estimator combination."""


# ----------------------------------------------------------------------
# per-entry counter chains
# ----------------------------------------------------------------------


def _segments(keys):
    """Stable sort ``keys`` and describe the equal-key segments.

    ``keys`` are non-negative table indices.  Keys below 2**16 sort as
    ``uint16``, for which numpy's stable argsort is a radix sort; a
    stable sort's permutation is unique, so the order is the one the
    int64 sort gives.
    """
    if int(keys.max()) < 1 << 16:
        order = np.argsort(keys.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = keys.shape[0]
    pos = np.arange(n, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    seg_start = np.maximum.accumulate(np.where(change, pos, 0))
    is_last = np.empty(n, dtype=bool)
    is_last[:-1] = change[1:]
    is_last[-1] = True
    return order, sorted_keys, pos, seg_start, is_last


def _saturating_scan(indices, deltas, values, max_value):
    """Play per-entry saturating-counter chains as a segmented scan.

    ``values`` (an int64 table) is updated in place to its final state;
    the returned int64 array holds, in trace order, the counter value
    each branch *observed* (before its own update).  It serves the
    predictors' up/down counters (``d = +-1``) and McFarling's meta
    counter (``d`` in ``{-1, 0, +1}``); JRS tables take the closed form
    of :func:`_jrs_counters` instead.

    Every update is the monotone map ``x -> clip(x + d, 0, M)``.
    Writing a single update as the clamp-shift triple ``(s, lo, hi) =
    (d, clip(d, 0, M), clip(d + M, 0, M))``, composition stays in the
    family: ``b after a`` is ``(s_a + s_b, clip(lo_a + s_b, lo_b, hi_b),
    clip(hi_a + s_b, lo_b, hi_b))`` -- exactly, for any inputs in
    ``[0, M]``.  A Hillis-Steele doubling pass over each same-index
    segment composes ``x[offset:]`` after ``x[:-offset]`` and so yields
    every prefix map; applying prefix ``i-1``'s map to the segment's
    initial value gives branch ``i``'s observed counter.  ``lo`` and
    ``hi`` are the images of 0 and ``M``, so a map with ``lo == hi`` is
    constant and absorbs whatever is composed before it: the doubling
    stops as soon as every prefix map still missing a part is constant.
    """
    n = indices.shape[0]
    before = np.empty(n, dtype=np.int64)
    if n == 0:
        return before
    order, sorted_keys, pos, seg_start, is_last = _segments(indices)
    depth = pos - seg_start
    shift = deltas[order].astype(np.int64)
    lo = np.clip(shift, 0, max_value)
    hi = np.clip(shift + max_value, 0, max_value)
    longest = int(depth.max()) + 1
    offset = 1
    while offset < longest:
        valid = depth[offset:] >= offset
        later_shift = shift[offset:]
        later_lo = lo[offset:]
        later_hi = hi[offset:]
        new_shift = shift[:-offset] + later_shift
        new_lo = np.minimum(later_hi, np.maximum(later_lo, lo[:-offset] + later_shift))
        new_hi = np.minimum(later_hi, np.maximum(later_lo, hi[:-offset] + later_shift))
        np.copyto(later_shift, new_shift, where=valid)
        np.copyto(later_lo, new_lo, where=valid)
        np.copyto(later_hi, new_hi, where=valid)
        offset <<= 1
        # positions with depth >= offset still miss their segment's head
        if not np.any((lo != hi) & (depth >= offset)):
            break
    initial = values[sorted_keys]
    after = np.minimum(hi, np.maximum(lo, initial + shift))
    observed = np.empty(n, dtype=np.int64)
    observed[1:] = after[:-1]
    first = depth == 0
    observed[first] = initial[first]
    before[order] = observed
    values[sorted_keys[is_last]] = after[is_last]
    return before


def _jrs_counters(indices, correct, values, max_value):
    """Play resetting miss-distance-counter chains in closed form.

    A JRS counter counts correct predictions up to ``M`` and resets to
    0 on a misprediction, so branch ``i`` observes ``min(M, branches
    since its entry's last misprediction)`` -- or, before the entry's
    first misprediction, ``min(M, initial + rank)`` with ``rank`` the
    number of the entry's earlier branches.  One stable sort by entry
    and one prefix maximum (:func:`branches_since_flagged` over the
    entry segments) give every value.  ``values`` is updated in place:
    an entry ends at ``min(last + 1, M)`` when its last branch was
    predicted correctly, else at 0.  Returns the observed values in
    trace order, like :func:`_saturating_scan`.
    """
    n = indices.shape[0]
    before = np.empty(n, dtype=np.int64)
    if n == 0:
        return before
    order, sorted_keys, __, seg_start, is_last = _segments(indices)
    sorted_correct = correct[order]
    since = branches_since_flagged(~sorted_correct, values[sorted_keys], seg_start)
    observed = np.minimum(since, max_value)
    before[order] = observed
    values[sorted_keys[is_last]] = np.where(
        sorted_correct[is_last], np.minimum(observed[is_last] + 1, max_value), 0
    )
    return before


# ----------------------------------------------------------------------
# history columns
# ----------------------------------------------------------------------


def _history_column(taken, bits, initial, mask):
    """Global-history value observed by each branch.

    ``hist[i]`` packs the previous outcomes with the newest in the low
    bit, seeded from ``initial``: ``h[i+1] = ((h[i] << 1) | t[i]) &
    mask``.  (The committed stream is the same whether the register is
    updated speculatively with repair or non-speculatively.)
    """
    n = taken.shape[0]
    hist = np.zeros(n, dtype=np.int64)
    if n == 0:
        return hist
    outcomes = taken.astype(np.int64)
    for bit in range(min(bits, n - 1)):
        # branch i-1-bit's outcome lands at bit `bit` of hist[i]
        hist[bit + 1 :] |= outcomes[: n - 1 - bit] << bit
    if initial:
        for position in range(min(bits, n)):
            hist[position] |= (initial << position) & mask
    return hist


def _final_history(taken, bits, initial, mask):
    """History register value after the whole trace resolved."""
    value = initial & mask
    tail = taken[max(0, taken.shape[0] - bits) :].tolist()
    for outcome in tail:
        value = ((value << 1) | (1 if outcome else 0)) & mask
    return value


def _uniform_value(values) -> Optional[int]:
    """The single value a table holds everywhere, or None if mixed."""
    if not values:
        return None
    first = values[0]
    return first if values.count(first) == len(values) else None


# ----------------------------------------------------------------------
# predictor passes
# ----------------------------------------------------------------------


class PredictColumns:
    """One predictor's full pass over a columnar trace.

    Column-oriented equivalent of the per-branch
    :class:`~repro.predictors.base.Prediction` stream: parallel arrays
    for predicted direction, consulted history/index/counters, plus the
    estimator flag memo shared by every consumer of this pass.
    """

    __slots__ = (
        "pcs",
        "taken",
        "pred",
        "correct",
        "history",
        "index",
        "counters",
        "snapshot_is_history",
        "_flag_memo",
    )

    def __init__(
        self, pcs, taken, pred, correct, history, index, counters, snapshot_is_history
    ):
        self.pcs = pcs
        self.taken = taken
        self.pred = pred
        self.correct = correct
        self.history = history
        self.index = index
        self.counters = counters
        self.snapshot_is_history = snapshot_is_history
        self._flag_memo = {}

    @property
    def branches(self) -> int:
        return int(self.pcs.shape[0])

    @property
    def mispredictions(self) -> int:
        return int(np.count_nonzero(~self.correct))


def _gshare_key(predictor):
    uniform = _uniform_value(predictor.table.values)
    if uniform is None:
        return None
    return (
        "gshare",
        predictor.table.size,
        predictor.table.bits,
        predictor.history.bits,
        uniform,
        predictor.history.value,
    )


def _scan_gshare(trace, predictor):
    table = predictor.table
    history = predictor.history
    taken = trace.taken
    hist = _history_column(taken, history.bits, history.value, history.mask)
    index = (trace.pcs ^ hist) & table.index_mask
    deltas = np.where(taken, 1, -1)
    values = np.asarray(table.values, dtype=np.int64)
    before = _saturating_scan(index, deltas, values, table.max_value)
    pred = before >= table.midpoint
    columns = PredictColumns(
        pcs=trace.pcs,
        taken=taken,
        pred=pred,
        correct=pred == taken,
        history=hist,
        index=index,
        counters=(before,),
        snapshot_is_history=True,
    )
    finals = (
        tuple(values.tolist()),
        _final_history(taken, history.bits, history.value, history.mask),
    )
    return columns, finals


def _apply_gshare(predictor, finals):
    table_values, history_value = finals
    predictor.table.values[:] = list(table_values)
    predictor.history.value = history_value


def _mcfarling_key(predictor):
    uniforms = tuple(
        _uniform_value(table.values)
        for table in (
            predictor.gshare_table,
            predictor.bimodal_table,
            predictor.meta_table,
        )
    )
    if any(value is None for value in uniforms):
        return None
    return (
        "mcfarling",
        predictor.gshare_table.size,
        predictor.gshare_table.bits,
        predictor.history.bits,
        uniforms,
        predictor.history.value,
    )


def _scan_mcfarling(trace, predictor):
    gshare_table = predictor.gshare_table
    bimodal_table = predictor.bimodal_table
    meta_table = predictor.meta_table
    history = predictor.history
    taken = trace.taken
    hist = _history_column(taken, history.bits, history.value, history.mask)
    gshare_index = (trace.pcs ^ hist) & gshare_table.index_mask
    pc_index = trace.pcs & bimodal_table.index_mask
    deltas = np.where(taken, 1, -1)
    gshare_values = np.asarray(gshare_table.values, dtype=np.int64)
    bimodal_values = np.asarray(bimodal_table.values, dtype=np.int64)
    meta_values = np.asarray(meta_table.values, dtype=np.int64)
    gshare_before = _saturating_scan(
        gshare_index, deltas, gshare_values, gshare_table.max_value
    )
    bimodal_before = _saturating_scan(
        pc_index, deltas, bimodal_values, bimodal_table.max_value
    )
    gshare_pred = gshare_before >= gshare_table.midpoint
    bimodal_pred = bimodal_before >= bimodal_table.midpoint
    gshare_right = gshare_pred == taken
    bimodal_right = bimodal_pred == taken
    # meta trains only when the components disagree (delta 0 = identity)
    meta_deltas = np.where(
        gshare_right != bimodal_right, np.where(gshare_right, 1, -1), 0
    )
    meta_before = _saturating_scan(
        pc_index, meta_deltas, meta_values, meta_table.max_value
    )
    pred = np.where(meta_before >= meta_table.midpoint, gshare_pred, bimodal_pred)
    columns = PredictColumns(
        pcs=trace.pcs,
        taken=taken,
        pred=pred,
        correct=pred == taken,
        history=hist,
        index=gshare_index,
        counters=(gshare_before, bimodal_before, meta_before),
        snapshot_is_history=True,
    )
    finals = (
        tuple(gshare_values.tolist()),
        tuple(bimodal_values.tolist()),
        tuple(meta_values.tolist()),
        _final_history(taken, history.bits, history.value, history.mask),
    )
    return columns, finals


def _apply_mcfarling(predictor, finals):
    gshare_values, bimodal_values, meta_values, history_value = finals
    predictor.gshare_table.values[:] = list(gshare_values)
    predictor.bimodal_table.values[:] = list(bimodal_values)
    predictor.meta_table.values[:] = list(meta_values)
    predictor.history.value = history_value


def _sag_key(predictor):
    bht_uniform = _uniform_value(predictor.bht.values)
    pht_uniform = _uniform_value(predictor.pht.values)
    if bht_uniform is None or pht_uniform is None:
        return None
    return (
        "sag",
        predictor.bht.entries,
        predictor.bht.bits,
        predictor.pht.size,
        predictor.pht.bits,
        bht_uniform,
        pht_uniform,
    )


def _scan_sag(trace, predictor):
    bht = predictor.bht
    pht = predictor.pht
    taken = trace.taken
    n = taken.shape[0]
    entry = trace.pcs & bht.index_mask
    hist = np.zeros(n, dtype=np.int64)
    bht_values = np.asarray(bht.values, dtype=np.int64)
    if n:
        order, sorted_entries, pos, seg_start, is_last = _segments(entry)
        outcomes = taken[order].astype(np.int64)
        hist_sorted = np.zeros(n, dtype=np.int64)
        for bit in range(bht.bits):
            source = pos - 1 - bit
            valid = source >= seg_start
            hist_sorted |= np.where(
                valid, outcomes[np.maximum(source, 0)] << bit, 0
            )
        # surviving bits of the entry's pre-trace history register
        initial = bht_values[sorted_entries]
        depth = pos - seg_start
        seeded = depth < bht.bits
        hist_sorted |= np.where(
            seeded, (initial << np.minimum(depth, bht.bits)) & bht.history_mask, 0
        )
        hist[order] = hist_sorted
        final_hist = ((hist_sorted << 1) | outcomes) & bht.history_mask
        bht_values[sorted_entries[is_last]] = final_hist[is_last]
    index = hist & pht.index_mask
    deltas = np.where(taken, 1, -1)
    pht_values = np.asarray(pht.values, dtype=np.int64)
    before = _saturating_scan(index, deltas, pht_values, pht.max_value)
    pred = before >= pht.midpoint
    columns = PredictColumns(
        pcs=trace.pcs,
        taken=taken,
        pred=pred,
        correct=pred == taken,
        history=hist,
        index=index,
        counters=(before,),
        snapshot_is_history=False,
    )
    finals = (tuple(bht_values.tolist()), tuple(pht_values.tolist()))
    return columns, finals


def _apply_sag(predictor, finals):
    bht_values, pht_values = finals
    predictor.bht.values[:] = list(bht_values)
    predictor.pht.values[:] = list(pht_values)


_PREDICTOR_SCANS = {
    GsharePredictor: (_gshare_key, _scan_gshare, _apply_gshare),
    McFarlingPredictor: (_mcfarling_key, _scan_mcfarling, _apply_mcfarling),
    SAgPredictor: (_sag_key, _scan_sag, _apply_sag),
}


def supports_predictor(predictor) -> bool:
    """True when a whole-trace scan exists for this predictor type."""
    return type(predictor) in _PREDICTOR_SCANS


def predict_columns(trace: ColumnarTrace, predictor) -> PredictColumns:
    """Run ``predictor`` over the whole trace as array scans.

    Consumes predictor state exactly like the scalar loop: post-pass
    table/history contents are installed on ``predictor``.  Passes over
    pristine (uniform power-on) state are memoised on the trace, so
    every fresh instance of the same configuration shares one scan per
    workload.
    """
    entry = _PREDICTOR_SCANS.get(type(predictor))
    if entry is None:
        raise UnsupportedVectorization(type(predictor).__name__)
    key_fn, scan_fn, apply_fn = entry
    key = key_fn(predictor)
    memo = trace._predict_memo
    if key is not None and key in memo:
        columns, finals = memo[key]
    else:
        columns, finals = scan_fn(trace, predictor)
        if key is not None:
            memo[key] = (columns, finals)
    apply_fn(predictor, finals)
    return columns


# ----------------------------------------------------------------------
# estimator kernels
# ----------------------------------------------------------------------


def _jrs_flags(columns, estimator):
    hist = columns.history
    if estimator.enhanced:
        hist = (hist << 1) | columns.pred.astype(np.int64)
    index = (columns.pcs ^ hist) & estimator.table.index_mask
    values = np.asarray(estimator.table.values, dtype=np.int64)
    before = _jrs_counters(index, columns.correct, values, estimator.table.max_value)
    return before >= estimator.threshold, tuple(values.tolist())


def _jrs_apply(estimator, final):
    estimator.table.values[:] = list(final)


def _satcnt_flags(columns, estimator):
    bits = estimator.counter_bits
    top = (1 << bits) - 1
    counters = columns.counters

    def strong(counter):
        return (counter == 0) | (counter == top)

    if len(counters) == 1:
        return strong(counters[0]), None
    from ..confidence.saturating import McFarlingVariant

    gshare_strong = strong(counters[0])
    bimodal_strong = strong(counters[1])
    if estimator.variant is McFarlingVariant.BOTH_STRONG:
        flags = gshare_strong & bimodal_strong
    elif estimator.variant is McFarlingVariant.EITHER_STRONG:
        flags = gshare_strong | bimodal_strong
    else:  # SELECTED: strength of the chosen component only
        flags = np.where(
            counters[2] >= (1 << (bits - 1)), gshare_strong, bimodal_strong
        )
    return flags, None


def _pattern_flags(columns, estimator):
    patterns = np.asarray(sorted(estimator.patterns), dtype=np.int64)
    return np.isin(columns.history & estimator.history_mask, patterns), None


def _static_flags(columns, estimator):
    sites = np.asarray(sorted(estimator.confident_sites), dtype=np.int64)
    return np.isin(columns.pcs, sites), None


def _stateless_apply(estimator, final):
    return None


def branches_since_flagged(flagged, start=0, segment_start=0):
    """Branches since the last flagged one, before each position.

    ``distance[i]`` is the number of positions strictly between ``i``
    and the latest ``j < i`` with ``flagged[j]``.  With no such ``j``
    it is ``start + i``: ``start`` branches had already passed since
    the last flag when position 0 arrived.  This is the prefix-maximum
    form of the scalar recurrence ``d = 0 if flagged else d + 1``,
    read before each update.

    ``segment_start`` (an array giving each position's segment head)
    splits the positions into independent chains: only a ``j`` in
    ``i``'s own segment counts, and with none the distance is
    ``start + i - segment_start[i]``, where ``start`` may also be given
    per position.
    """
    n = flagged.shape[0]
    pos = np.arange(n, dtype=np.int64)
    if n == 0:
        return pos
    run_max = np.maximum.accumulate(np.where(flagged, pos, -1))
    previous = np.empty(n, dtype=np.int64)
    previous[0] = -1
    previous[1:] = run_max[:-1]
    return np.where(
        previous < segment_start, start + pos - segment_start, pos - previous - 1
    )


def _distance_flags(columns, estimator):
    n = columns.branches
    start = estimator.branches_since_misprediction
    if n == 0:
        return np.empty(0, dtype=bool), start
    mispredicted = ~columns.correct
    distance = branches_since_flagged(mispredicted, start)
    flags = distance > estimator.distance_threshold
    final = 0 if bool(mispredicted[-1]) else int(distance[-1]) + 1
    return flags, final


def _distance_apply(estimator, final):
    estimator.branches_since_misprediction = final


def _boost_flags(columns, estimator):
    inner, base_final, _ = _flags_and_final(columns, estimator.base)
    n = inner.shape[0]
    run_start = estimator._lc_run
    if n == 0:
        return np.empty(0, dtype=bool), (run_start, base_final)
    pos = np.arange(n, dtype=np.int64)
    last_high = np.maximum.accumulate(np.where(inner, pos, -run_start - 1))
    run = pos - last_high
    flags = run < estimator.k
    return flags, (int(run[-1]), base_final)


def _boost_apply(estimator, final):
    run, base_final = final
    estimator._lc_run = run
    plan = _estimator_plan(estimator.base)
    plan[2](estimator.base, base_final)


def _estimator_plan(estimator):
    """The (memo key, compute, apply) kernel triple for ``estimator``.

    ``memo key`` is None when the estimator's current state has no
    hashable expression (the flags are then recomputed per call);
    returns None entirely when no kernel exists for the type, which is
    what routes e.g. :class:`CombiningJRSEstimator` and wrapper
    estimators with opaque state to the scalar fallback.
    """
    from ..confidence.boosting import BoostedEstimator
    from ..confidence.distance import MispredictionDistanceEstimator
    from ..confidence.jrs import JRSEstimator
    from ..confidence.pattern import PatternHistoryEstimator
    from ..confidence.saturating import SaturatingCountersEstimator
    from ..confidence.static import StaticEstimator

    kind = type(estimator)
    if kind is JRSEstimator:
        uniform = _uniform_value(estimator.table.values)
        key = (
            None
            if uniform is None
            else (
                "jrs",
                estimator.table.size,
                estimator.table.bits,
                estimator.threshold,
                estimator.enhanced,
                uniform,
            )
        )
        return key, _jrs_flags, _jrs_apply
    if kind is SaturatingCountersEstimator:
        key = ("satcnt", estimator.counter_bits, estimator.variant.value)
        return key, _satcnt_flags, _stateless_apply
    if kind is PatternHistoryEstimator:
        key = ("pattern", estimator.history_mask, estimator.patterns)
        return key, _pattern_flags, _stateless_apply
    if kind is StaticEstimator:
        return ("static", estimator.confident_sites), _static_flags, _stateless_apply
    if kind is MispredictionDistanceEstimator:
        key = (
            "distance",
            estimator.distance_threshold,
            estimator.branches_since_misprediction,
        )
        return key, _distance_flags, _distance_apply
    if kind is BoostedEstimator:
        base_plan = _estimator_plan(estimator.base)
        if base_plan is None:
            return None
        base_key = base_plan[0]
        key = (
            None
            if base_key is None
            else ("boost", estimator.k, estimator._lc_run, base_key)
        )
        return key, _boost_flags, _boost_apply
    return None


def supports_estimator(estimator) -> bool:
    """True when an array kernel exists for this estimator."""
    return _estimator_plan(estimator) is not None


def _flags_and_final(columns, estimator):
    plan = _estimator_plan(estimator)
    if plan is None:
        raise UnsupportedVectorization(type(estimator).__name__)
    key, compute, apply_fn = plan
    if key is not None and key in columns._flag_memo:
        flags, final = columns._flag_memo[key]
    else:
        flags, final = compute(columns, estimator)
        if key is not None:
            columns._flag_memo[key] = (flags, final)
    return flags, final, apply_fn


def estimator_flags(columns: PredictColumns, estimator):
    """High-confidence flag column for ``estimator`` over ``columns``.

    Consumes estimator state like the scalar loop (post-pass tables and
    registers are installed).  Raises :class:`UnsupportedVectorization`
    when no kernel exists.
    """
    flags, final, apply_fn = _flags_and_final(columns, estimator)
    apply_fn(estimator, final)
    return flags


def fallback_flags(columns: PredictColumns, estimator):
    """Drive a non-kernelizable estimator scalar-wise over the columns.

    Synthesizes the per-branch :class:`Prediction` records the scalar
    loop would have produced and runs the ordinary ``estimate`` /
    ``resolve`` protocol, so any estimator works -- just not at vector
    speed.
    """
    from ..predictors.base import Prediction

    n = columns.branches
    flags = np.empty(n, dtype=bool)
    pcs = columns.pcs.tolist()
    pred = columns.pred.tolist()
    taken = columns.taken.tolist()
    hist = columns.history.tolist()
    index = columns.index.tolist()
    counter_columns = [counter.tolist() for counter in columns.counters]
    snapshot_is_history = columns.snapshot_is_history
    for i in range(n):
        prediction = Prediction(
            taken=pred[i],
            index=index[i],
            history=hist[i],
            counters=tuple(column[i] for column in counter_columns),
            snapshot=hist[i] if snapshot_is_history else None,
        )
        assessment = estimator.estimate(pcs[i], prediction)
        flags[i] = assessment.high_confidence
        estimator.resolve(pcs[i], prediction, taken[i], assessment)
    return flags


# ----------------------------------------------------------------------
# whole-pass helpers for the analysis layer
# ----------------------------------------------------------------------


def measured_flags(trace, predictor, estimator):
    """Vectorized single-estimator measurement.

    Returns ``(high_confidence, correct)`` bool arrays, or None when
    the vector path cannot serve this combination (checked *before* any
    state is consumed, so callers can fall back to the scalar loop with
    untouched predictor/estimator instances).
    """
    if not isinstance(trace, ColumnarTrace) or not supports_predictor(predictor):
        return None
    if _estimator_plan(estimator) is None:
        return None
    columns = predict_columns(trace, predictor)
    flags = estimator_flags(columns, estimator)
    return flags, columns.correct


def confident_sites_vector(trace, predictor, accuracy_threshold):
    """Vectorized static profiling: per-site accuracy thresholding.

    Returns the frozenset of confident sites, or None when the vector
    path does not apply.  Consumes the predictor like the scalar
    profiling loop.
    """
    if not isinstance(trace, ColumnarTrace) or not supports_predictor(predictor):
        return None
    columns = predict_columns(trace, predictor)
    site_count = trace.sites.shape[0]
    totals = np.bincount(trace.site_index, minlength=site_count)
    corrects = np.bincount(trace.site_index[columns.correct], minlength=site_count)
    confident = []
    for position, pc in enumerate(trace.sites.tolist()):
        total = int(totals[position])
        if total and int(corrects[position]) / total >= accuracy_threshold:
            confident.append(pc)
    return frozenset(confident)


def jrs_value_counts(trace, predictor, table_size, counter_bits, enhanced):
    """Counter values a fresh JRS table would expose per branch.

    Returns ``(correct_counts, incorrect_counts)`` python-int lists of
    length ``2**counter_bits`` (value histogram), or None when the
    vector path does not apply.  Consumes the predictor.
    """
    if not isinstance(trace, ColumnarTrace) or not supports_predictor(predictor):
        return None
    columns = predict_columns(trace, predictor)
    hist = columns.history
    if enhanced:
        hist = (hist << 1) | columns.pred.astype(np.int64)
    index = (columns.pcs ^ hist) & (table_size - 1)
    max_value = (1 << counter_bits) - 1
    correct = columns.correct
    values = np.zeros(table_size, dtype=np.int64)
    before = _jrs_counters(index, correct, values, max_value)
    length = max_value + 1
    correct_counts = np.bincount(before[correct], minlength=length)[:length]
    incorrect_counts = np.bincount(before[~correct], minlength=length)[:length]
    return correct_counts.tolist(), incorrect_counts.tolist()


def distance_value_counts(trace, predictor, max_distance):
    """Misprediction-distance histogram counts, or None if unsupported.

    Returns ``(correct_counts, incorrect_counts)`` python-int lists of
    length ``max_distance + 1``.  Consumes the predictor.
    """
    if not isinstance(trace, ColumnarTrace) or not supports_predictor(predictor):
        return None
    columns = predict_columns(trace, predictor)
    length = max_distance + 1
    mispredicted = ~columns.correct
    bucket = np.minimum(branches_since_flagged(mispredicted), max_distance)
    correct_counts = np.bincount(bucket[columns.correct], minlength=length)[:length]
    incorrect_counts = np.bincount(bucket[mispredicted], minlength=length)[:length]
    return correct_counts.tolist(), incorrect_counts.tolist()


def misestimation_pairs(trace, predictor, estimator):
    """Per-branch distance-since-misestimation and misestimated columns.

    Vector equivalent of :class:`MisestimationDistanceObserver`'s pair
    stream, as two arrays ``(distance, misestimated)`` (int64, bool) in
    trace order; None if unsupported.  Consumes predictor and estimator
    state.
    """
    result = measured_flags(trace, predictor, estimator)
    if result is None:
        return None
    flags, correct = result
    misestimated = flags != correct
    return branches_since_flagged(misestimated), misestimated


def boosting_counts(trace, predictor, estimator, ks):
    """Boosting-event counts: vector form of :class:`BoostingAccumulator`.

    Returns ``(rows, lc_branches, lc_mispredictions, branches)`` where
    ``rows`` is ``[(k, events, events_with_misprediction), ...]`` for
    each distinct k ascending -- or None when the vector path does not
    apply.  Consumes predictor and estimator state.
    """
    result = measured_flags(trace, predictor, estimator)
    if result is None:
        return None
    flags, correct = result
    n = flags.shape[0]
    low = ~flags
    mispredicted = ~correct
    lc_branches = int(np.count_nonzero(low))
    lc_mispredictions = int(np.count_nonzero(low & mispredicted))
    ordered_ks = sorted(set(ks))
    if n == 0:
        return [(k, 0, 0) for k in ordered_ks], 0, 0, 0
    pos = np.arange(n, dtype=np.int64)
    # length of the LC run ending at each branch (0 on HC branches)
    run = pos - np.maximum.accumulate(np.where(flags, pos, -1))
    last_lc_miss = np.maximum.accumulate(np.where(low & mispredicted, pos, -1))
    rows = []
    for k in ordered_ks:
        event_mask = low & (run >= k)
        events = int(np.count_nonzero(event_mask))
        hits = int(np.count_nonzero(event_mask & (last_lc_miss >= pos - k + 1)))
        rows.append((k, events, hits))
    return rows, lc_branches, lc_mispredictions, n
