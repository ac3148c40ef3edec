"""The saturating-counter kernels against the scalar loops.

The vector engine plays every counter chain per table entry: the
predictors' up/down counters (and McFarling's meta counter) as a
doubling scan of clamp-shift maps that stops once the unfinished maps
are constant, and JRS miss-distance counters in closed form, as
``min(max, branches since the entry's last misprediction)``.  Both sort
the branches by entry, as ``uint16`` when every key fits.  These tests
drive the kernels through the :mod:`repro.engine` facade and compare
every observed counter, flag and final table with the scalar
predict/estimate/resolve loop, which stays the only oracle: random
traces over tiny tables, warm (trained, non-uniform) starting state,
and the edges of the doubling scan and of the sort.
"""

import random

import pytest

pytest.importorskip("numpy")
pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import jrs_value_histogram
from repro.confidence import BoostedEstimator, JRSEstimator
from repro.engine import estimator_flags, lower_trace, predict_columns
from repro.predictors.gshare import GsharePredictor
from repro.predictors.mcfarling import McFarlingPredictor
from repro.predictors.sag import SAgPredictor
from repro.workloads.trace import BranchTrace

#: Tiny tables so short random traces still hit aliasing and wrap.
PREDICTOR_MAKERS = {
    "gshare": lambda: GsharePredictor(table_size=16),
    "mcfarling": lambda: McFarlingPredictor(table_size=16),
    "sag": lambda: SAgPredictor(history_entries=8, history_bits=3, pht_size=16),
}

#: (pc, taken) streams over a small pc pool (dense aliasing).
traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=0,
    max_size=120,
)

table_sizes = st.sampled_from([1, 2, 4, 8, 16, 32, 64])

PROPERTY_SETTINGS = settings(
    deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)


def _state(obj):
    """An object's attributes as plain nested data, for equality."""
    if hasattr(obj, "__dict__"):
        return {name: _state(value) for name, value in vars(obj).items()}
    if isinstance(obj, list):
        return list(obj)
    return obj


def _trace(records):
    return BranchTrace.from_records(records, name="kernel")


def _scalar_predictions(records, predictor):
    """(direction, consulted counters) per branch, from the scalar loop."""
    rows = []
    for pc, taken in records:
        prediction = predictor.predict(pc)
        rows.append((prediction.taken, prediction.counters))
        predictor.resolve(pc, taken, prediction)
    return rows


def _vector_predictions(records, predictor):
    columns = predict_columns(lower_trace(_trace(records)), predictor)
    counters = [column.tolist() for column in columns.counters]
    return [
        (taken, tuple(column[i] for column in counters))
        for i, taken in enumerate(columns.pred.tolist())
    ]


def _scalar_flags(records, predictor, estimator):
    """High-confidence flag per branch, from the estimate/resolve loop."""
    flags = []
    for pc, taken in records:
        prediction = predictor.predict(pc)
        assessment = estimator.estimate(pc, prediction)
        flags.append(assessment.high_confidence)
        predictor.resolve(pc, taken, prediction)
        estimator.resolve(pc, prediction, taken, assessment)
    return flags


def _vector_flags(records, predictor, estimator):
    columns = predict_columns(lower_trace(_trace(records)), predictor)
    return estimator_flags(columns, estimator).tolist()


def _assert_predictor_pass(make_predictor, records):
    scalar, vector = make_predictor(), make_predictor()
    assert _vector_predictions(records, vector) == _scalar_predictions(records, scalar)
    assert _state(vector) == _state(scalar)


@pytest.mark.parametrize("predictor_name", sorted(PREDICTOR_MAKERS))
@given(
    records=traces,
    table_size=table_sizes,
    counter_bits=st.integers(min_value=1, max_value=4),
    enhanced=st.booleans(),
)
@PROPERTY_SETTINGS
def test_jrs_histogram_matches_scalar_loop(
    predictor_name, records, table_size, counter_bits, enhanced
):
    make = PREDICTOR_MAKERS[predictor_name]
    scalar_predictor, vector_predictor = make(), make()
    trace = _trace(records)
    scalar = jrs_value_histogram(trace, scalar_predictor, table_size, counter_bits, enhanced)
    vector = jrs_value_histogram(
        lower_trace(trace), vector_predictor, table_size, counter_bits, enhanced
    )
    assert (vector.correct, vector.incorrect) == (scalar.correct, scalar.incorrect)
    assert _state(vector_predictor) == _state(scalar_predictor)


@pytest.mark.parametrize("boosted", [False, True], ids=["jrs", "boosted-jrs"])
@given(
    first=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
        min_size=20,
        max_size=120,
    ),
    second=traces,
    table_size=st.sampled_from([2, 4, 8, 16, 32, 64]),
    counter_bits=st.integers(min_value=1, max_value=4),
    enhanced=st.booleans(),
    data=st.data(),
)
@PROPERTY_SETTINGS
def test_warm_jrs_state_matches_scalar_loop(
    boosted, first, second, table_size, counter_bits, enhanced, data
):
    """The second columnar pass starts from the trained table the
    first one installed, not from power-on zeros."""
    threshold = data.draw(st.integers(min_value=0, max_value=1 << counter_bits))

    def make():
        estimator = JRSEstimator(table_size, counter_bits, threshold, enhanced)
        return BoostedEstimator(estimator, k=2) if boosted else estimator

    scalar_predictor = GsharePredictor(table_size=16)
    vector_predictor = GsharePredictor(table_size=16)
    scalar, vector = make(), make()
    assert _vector_flags(first, vector_predictor, vector) == _scalar_flags(
        first, scalar_predictor, scalar
    )
    table = (scalar.base if boosted else scalar).table.values
    assume(len(set(table)) > 1)
    assert _state(vector) == _state(scalar)
    assert _vector_flags(second, vector_predictor, vector) == _scalar_flags(
        second, scalar_predictor, scalar
    )
    assert _state(vector) == _state(scalar)
    assert _state(vector_predictor) == _state(scalar_predictor)


@pytest.mark.parametrize("boosted", [False, True], ids=["jrs", "boosted-jrs"])
def test_warm_jrs_state_on_a_workload_trace(compress_trace, boosted):
    """The paper's configuration over two halves of a real trace:
    per-entry chains run far past saturation, across the seam."""
    records = list(compress_trace)
    half = len(records) // 2

    def make():
        estimator = JRSEstimator(table_size=4096, counter_bits=4, threshold=15)
        return BoostedEstimator(estimator, k=2) if boosted else estimator

    scalar_predictor, vector_predictor = GsharePredictor(), GsharePredictor()
    scalar, vector = make(), make()
    for part in (records[:half], records[half:]):
        assert _vector_flags(part, vector_predictor, vector) == _scalar_flags(
            part, scalar_predictor, scalar
        )
        assert _state(vector) == _state(scalar)
    assert len(set((scalar.base if boosted else scalar).table.values)) > 1


def test_one_entry_table_saturates_then_alternates():
    """A 2,000-long chain on one counter: saturated maps end the
    doubling early, alternating ones never turn constant."""
    records = [(4, True)] * 2000
    records += [(4, i % 2 == 0) for i in range(2000)]
    records += [(8, False)] * 2000
    _assert_predictor_pass(lambda: GsharePredictor(table_size=1), records)


def test_mcfarling_meta_with_components_that_always_agree():
    """One-entry components train identically, so every meta delta is 0
    and the meta chain is all identity maps."""
    rng = random.Random(7)
    records = [(rng.randrange(64), rng.random() < 0.7) for _ in range(2000)]
    predictor = McFarlingPredictor(table_size=1)
    columns = predict_columns(lower_trace(_trace(records)), predictor)
    gshare, bimodal, meta = (column.tolist() for column in columns.counters)
    assert gshare == bimodal
    assert set(meta) == {McFarlingPredictor(table_size=1).meta_table.values[0]}
    _assert_predictor_pass(lambda: McFarlingPredictor(table_size=1), records)


def test_index_keys_wider_than_sixteen_bits():
    """A 2**17-entry table sorts its keys as int64, not uint16."""
    rng = random.Random(11)
    records = [(rng.randrange(1 << 17), rng.random() < 0.6) for _ in range(3000)]
    records += records[:1000]
    columns = predict_columns(lower_trace(_trace(records)), GsharePredictor(table_size=1 << 17))
    assert int(columns.index.max()) >= 1 << 16
    _assert_predictor_pass(lambda: GsharePredictor(table_size=1 << 17), records)

    def make():
        return JRSEstimator(table_size=1 << 17, counter_bits=4, threshold=1)

    scalar, vector = make(), make()
    assert _vector_flags(records, GsharePredictor(), vector) == _scalar_flags(
        records, GsharePredictor(), scalar
    )
    assert _state(vector) == _state(scalar)


@pytest.mark.parametrize("records", [[], [(5, True)], [(5, False)]], ids=["n0", "n1", "n1-miss"])
@pytest.mark.parametrize("predictor_name", sorted(PREDICTOR_MAKERS))
def test_empty_and_single_branch_traces(predictor_name, records):
    make = PREDICTOR_MAKERS[predictor_name]
    _assert_predictor_pass(make, records)
    scalar = JRSEstimator(table_size=4, threshold=1)
    vector = JRSEstimator(table_size=4, threshold=1)
    assert _vector_flags(records, make(), vector) == _scalar_flags(records, make(), scalar)
    assert _state(vector) == _state(scalar)
    trace = _trace(records)
    scalar_histogram = jrs_value_histogram(trace, make(), table_size=4)
    vector_histogram = jrs_value_histogram(lower_trace(trace), make(), table_size=4)
    assert vector_histogram.correct == scalar_histogram.correct
    assert vector_histogram.incorrect == scalar_histogram.incorrect
