"""Timeline roll-ups: busy vs wall, buckets, coarse aggregation."""

import pytest

from repro.simtime import Phase, Timeline
from repro.simtime.timeline import (
    BUCKET_COMPUTE,
    BUCKET_HOST_COMM,
    BUCKET_SPARK,
    Span,
)


def test_span_duration():
    s = Span(Phase.COMPUTE, 1.0, 3.5)
    assert s.duration == 2.5


def test_span_rejects_negative_interval():
    with pytest.raises(ValueError):
        Span(Phase.COMPUTE, 2.0, 1.0)


def test_busy_sums_durations():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 2.0)
    tl.record(Phase.COMPUTE, 1.0, 3.0)  # overlapping
    assert tl.busy(Phase.COMPUTE) == pytest.approx(4.0)


def test_wall_merges_overlaps():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 2.0)
    tl.record(Phase.COMPUTE, 1.0, 3.0)
    assert tl.wall(Phase.COMPUTE) == pytest.approx(3.0)


def test_wall_keeps_gaps_separate():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.COMPUTE, 5.0, 6.0)
    assert tl.wall(Phase.COMPUTE) == pytest.approx(2.0)


def test_wall_all_phases():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.SCHEDULING, 0.5, 2.0)
    assert tl.wall() == pytest.approx(2.0)


def test_span_of_empty_timeline_is_zero():
    assert Timeline().span() == 0.0


def test_span_is_makespan():
    tl = Timeline()
    tl.record(Phase.HOST_UPLOAD, 1.0, 2.0)
    tl.record(Phase.COMPUTE, 4.0, 9.0)
    assert tl.span() == pytest.approx(8.0)


def test_every_phase_has_a_bucket():
    for phase in Phase:
        assert phase.bucket in (BUCKET_HOST_COMM, BUCKET_SPARK, BUCKET_COMPUTE)


def test_host_phases_bucket():
    assert Phase.HOST_UPLOAD.bucket == BUCKET_HOST_COMM
    assert Phase.HOST_COMPRESS.bucket == BUCKET_HOST_COMM
    assert Phase.SCHEDULING.bucket == BUCKET_SPARK
    assert Phase.COMPUTE.bucket == BUCKET_COMPUTE


def test_filter_keeps_selected_phases():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0)
    tl.record(Phase.JNI_CALL, 1.0, 2.0)
    tl.record(Phase.BROADCAST, 2.0, 3.0)
    filtered = tl.filter([Phase.COMPUTE, Phase.JNI_CALL])
    assert len(filtered) == 2
    assert filtered.span() == pytest.approx(2.0)


def test_extend_merges_timelines():
    a, b = Timeline(), Timeline()
    a.record(Phase.COMPUTE, 0.0, 1.0)
    b.record(Phase.COMPUTE, 1.0, 2.0)
    a.extend(b)
    assert len(a) == 2


def test_by_resource_accumulates():
    tl = Timeline()
    tl.record(Phase.COMPUTE, 0.0, 1.0, resource="w0")
    tl.record(Phase.COMPUTE, 0.0, 2.0, resource="w1")
    tl.record(Phase.JNI_CALL, 2.0, 3.0, resource="w0")
    by = tl.by_resource()
    assert by["w0"] == pytest.approx(2.0)
    assert by["w1"] == pytest.approx(2.0)


# ------------------------------------------------------------- coarse mode
from repro.simtime import coarse_timelines  # noqa: E402


def _fine_and_coarse():
    """The same spans recorded into a fine and a coarse timeline."""
    spans = [
        (Phase.COMPUTE, 0.0, 2.0, "w0"),
        (Phase.COMPUTE, 1.0, 4.0, "w0"),
        (Phase.COMPUTE, 5.0, 6.0, "w1"),
        (Phase.SCHEDULING, 0.0, 0.5, "driver"),
    ]
    fine, coarse = Timeline(coarse=False), Timeline(coarse=True)
    for phase, a, b, res in spans:
        fine.record(phase, a, b, resource=res)
        coarse.record(phase, a, b, resource=res)
    return fine, coarse


def test_coarse_record_returns_none():
    tl = Timeline(coarse=True)
    assert tl.record(Phase.COMPUTE, 0.0, 1.0, resource="w0") is None
    assert tl.record(Phase.COMPUTE, 1.0, 2.0, resource="w0") is None
    assert len(tl) == 1  # one (phase, resource) aggregate


def test_coarse_busy_span_by_resource_are_exact():
    fine, coarse = _fine_and_coarse()
    assert coarse.busy() == fine.busy()
    assert coarse.busy(Phase.COMPUTE) == fine.busy(Phase.COMPUTE)
    assert coarse.span() == fine.span()
    assert coarse.by_resource() == fine.by_resource()


def test_coarse_spans_materialize_merged_segments():
    _, coarse = _fine_and_coarse()
    seg = [s for s in coarse.spans
           if s.phase is Phase.COMPUTE and s.resource == "w0"]
    assert len(seg) == 1
    assert (seg[0].start, seg[0].end, seg[0].label) == (0.0, 4.0, "coarse:2")


def test_coarse_filter_keeps_aggregates():
    fine, coarse = _fine_and_coarse()
    kept = coarse.filter([Phase.COMPUTE])
    assert kept.busy() == fine.filter([Phase.COMPUTE]).busy()
    assert kept.busy(Phase.SCHEDULING) == 0.0


def test_coarse_rejects_negative_interval():
    tl = Timeline(coarse=True)
    with pytest.raises(ValueError):
        tl.record(Phase.COMPUTE, 2.0, 1.0)


def test_coarse_timelines_context_sets_the_default():
    assert not Timeline().coarse
    with coarse_timelines():
        assert Timeline().coarse
        assert not Timeline(coarse=False).coarse  # explicit wins
    assert not Timeline().coarse  # restored


def test_extend_coarse_into_coarse_merges_aggregates():
    fine, coarse = _fine_and_coarse()
    other = Timeline(coarse=True)
    other.record(Phase.COMPUTE, 6.0, 8.0, resource="w0")
    coarse.extend(other)
    assert coarse.busy(Phase.COMPUTE) == fine.busy(Phase.COMPUTE) + 2.0
    seg = [s for s in coarse.spans
           if s.phase is Phase.COMPUTE and s.resource == "w0"]
    assert seg[0].label == "coarse:3"


def test_extend_fine_into_coarse_counts_each_span():
    fine, _ = _fine_and_coarse()
    tl = Timeline(coarse=True)
    tl.extend(fine)
    assert tl.busy() == fine.busy()
    assert tl.span() == fine.span()


def test_mixed_chain_through_fine_accumulator_is_lossless():
    """coarse job -> long-lived fine accumulator -> coarse report must keep
    exact (count, envelope, busy) — the SparkContext.timeline chain."""
    _, job = _fine_and_coarse()
    accumulator = Timeline(coarse=False)
    accumulator.record(Phase.CLUSTER_INIT, 0.0, 1.0, resource="cluster")
    accumulator.extend(job)
    report = Timeline(coarse=True)
    report.extend(accumulator)
    assert report._agg[(Phase.COMPUTE, "w0")] == [2, 0.0, 4.0, 5.0]
    assert report._agg[(Phase.COMPUTE, "w1")] == [1, 5.0, 6.0, 1.0]
    assert report._agg[(Phase.SCHEDULING, "driver")] == [1, 0.0, 0.5, 0.5]
    assert report._agg[(Phase.CLUSTER_INIT, "cluster")] == [1, 0.0, 1.0, 1.0]


def test_fine_accumulator_queries_fold_carried_aggregates():
    fine, job = _fine_and_coarse()
    acc = Timeline(coarse=False)
    acc.extend(job)  # all carried, no real spans
    assert acc.busy() == fine.busy()
    assert acc.span() == fine.span()
    assert acc.by_resource() == fine.by_resource()
    assert len(acc) == 3
    labels = sorted(s.label for s in acc.spans)
    assert labels == ["coarse:1", "coarse:1", "coarse:2"]
    kept = acc.filter([Phase.SCHEDULING])
    assert kept.busy() == 0.5
