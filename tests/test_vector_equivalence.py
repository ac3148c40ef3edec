"""Property-based scalar/vector equivalence for the estimator bank.

The vector engine's contract (docs/performance.md) is *bit-identity*:
for any trace and any supported (predictor, estimator-family) pair,
:func:`measure_bank_vectorized` must produce exactly the quadrant
counts, misprediction counts and per-branch observer callbacks of the
scalar bank -- and leave the predictor and estimators in exactly the
same state.  Hypothesis drives that over random short traces with
deliberately tiny tables, so index aliasing, history wrap-around and
counter saturation all get exercised.

Families without a kernel (``CombiningJRSEstimator``) must take the
scalar fallback inside the vectorized pass and still match; predictors
without a scan must make ``measure_bank`` fall back wholesale.
"""

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.confidence import (
    BoostedEstimator,
    CombiningJRSEstimator,
    JRSEstimator,
    McFarlingVariant,
    MispredictionDistanceEstimator,
    PatternHistoryEstimator,
    SaturatingCountersEstimator,
    StaticEstimator,
)
from repro import settings as repro_settings
from repro.engine import (
    UnsupportedVectorization,
    lower_trace,
    measure_bank,
    measure_bank_vectorized,
)
from repro.engine.measure import measure
from repro.predictors import make_predictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.mcfarling import McFarlingPredictor
from repro.predictors.sag import SAgPredictor
from repro.workloads.trace import BranchTrace

pytestmark = pytest.mark.skipif(
    not repro_settings.current().vector, reason="vector engine disabled (REPRO_VECTOR=0)"
)

#: Tiny tables so short random traces still hit aliasing and wrap.
PREDICTOR_MAKERS = {
    "gshare": lambda: GsharePredictor(table_size=16),
    "mcfarling": lambda: McFarlingPredictor(table_size=16),
    "sag": lambda: SAgPredictor(
        history_entries=8, history_bits=3, pht_size=16
    ),
}

#: Every kernelized estimator family, built fresh per measurement.
FAMILY_MAKERS = {
    "jrs": lambda predictor, records: JRSEstimator(
        table_size=16, counter_bits=4, threshold=15, enhanced=True
    ),
    "satcnt": lambda predictor, records: (
        SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.BOTH_STRONG
        )
    ),
    "satcnt-either": lambda predictor, records: (
        SaturatingCountersEstimator.for_predictor(
            predictor, variant=McFarlingVariant.EITHER_STRONG
        )
    ),
    "pattern": lambda predictor, records: (
        PatternHistoryEstimator.for_predictor(predictor)
    ),
    "static": lambda predictor, records: StaticEstimator(
        frozenset(pc for pc, __ in records if pc % 3 == 0), 0.90
    ),
    "distance": lambda predictor, records: MispredictionDistanceEstimator(4),
    "boosted-distance": lambda predictor, records: BoostedEstimator(
        MispredictionDistanceEstimator(4), k=2
    ),
}

#: (pc, taken) streams over a small pc pool (dense aliasing).
traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
    min_size=0,
    max_size=80,
)


class RecordingObserver:
    """Capture every callback verbatim for stream comparison."""

    def __init__(self):
        self.events = []

    def __call__(self, pc, predicted, actual, flags):
        self.events.append((pc, predicted, actual, dict(flags)))


def _columnar(records):
    return lower_trace(BranchTrace.from_records(records, name="prop"))


def _bank(predictor, records, families=FAMILY_MAKERS):
    return {
        name: maker(predictor, records) for name, maker in families.items()
    }


def _measure_scalar(predictor_name, records, families=FAMILY_MAKERS):
    predictor = PREDICTOR_MAKERS[predictor_name]()
    estimators = _bank(predictor, records, families)
    observer = RecordingObserver()
    result = measure(
        BranchTrace.from_records(records, name="prop"),
        predictor,
        estimators,
        observers=[observer],
    )
    return result, observer.events, predictor, estimators


def _measure_vector(predictor_name, records, families=FAMILY_MAKERS):
    predictor = PREDICTOR_MAKERS[predictor_name]()
    estimators = _bank(predictor, records, families)
    observer = RecordingObserver()
    result = measure_bank_vectorized(
        _columnar(records), predictor, estimators, observers=[observer]
    )
    return result, observer.events, predictor, estimators


def _assert_equivalent(scalar, vector):
    s_result, s_events, s_predictor, s_estimators = scalar
    v_result, v_events, v_predictor, v_estimators = vector
    assert v_result.branches == s_result.branches
    assert v_result.mispredictions == s_result.mispredictions
    for name in s_estimators:
        assert v_result.quadrants[name] == s_result.quadrants[name], name
    assert v_events == s_events
    # final state must match too: replay the same stream scalar-ly
    # through both survivors and compare outcomes branch for branch
    probe = s_events and [(pc, actual) for pc, __, actual, __ in s_events]
    if probe:
        s_probe = measure(probe, s_predictor, s_estimators)
        v_probe = measure(probe, v_predictor, v_estimators)
        assert v_probe.mispredictions == s_probe.mispredictions
        for name in s_estimators:
            assert v_probe.quadrants[name] == s_probe.quadrants[name], name


@pytest.mark.parametrize("predictor_name", sorted(PREDICTOR_MAKERS))
@given(records=traces)
@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vector_bank_matches_scalar_bank(predictor_name, records):
    _assert_equivalent(
        _measure_scalar(predictor_name, records),
        _measure_vector(predictor_name, records),
    )


@given(records=traces)
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_unkernelized_estimator_falls_back_inside_the_bank(records):
    """CombiningJRS has no kernel: the vectorized pass must drive it
    per branch (fallback_flags) and still match the scalar bank."""
    families = {
        "cjrs": lambda predictor, records: CombiningJRSEstimator(
            table_size=16, counter_bits=4, threshold=15
        ),
        "distance": FAMILY_MAKERS["distance"],
    }
    _assert_equivalent(
        _measure_scalar("mcfarling", records, families),
        _measure_vector("mcfarling", records, families),
    )


def test_unsupported_predictor_rejected_before_consuming_state():
    records = [(3, True), (5, False), (3, True)]

    class Wrapper:
        name = "wrapper"

        def __init__(self):
            self.inner = make_predictor("gshare")

        def predict(self, pc):
            return self.inner.predict(pc)

        def resolve(self, pc, taken, prediction):
            return self.inner.resolve(pc, taken, prediction)

    with pytest.raises(UnsupportedVectorization):
        measure_bank_vectorized(_columnar(records), Wrapper(), {})

    # the public entry point degrades to the scalar loop instead
    result = measure_bank(_columnar(records), Wrapper(), {})
    baseline = measure(records, make_predictor("gshare"), {})
    assert result.branches == baseline.branches
    assert result.mispredictions == baseline.mispredictions
