"""Timeline roll-ups: busy vs wall, buckets, last end."""

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


def test_last_end_is_the_last_recorded_activity():
    tl = Timeline()
    assert tl.last_end == 0.0
    tl.record(Phase.COMPUTE, 0.0, 9.0)
    tl.record(Phase.HOST_DOWNLOAD, 2.0, 3.0)  # recorded last, ends earlier
    assert tl.last_end == 3.0 == tl.spans[-1].end
