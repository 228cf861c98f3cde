"""A report's timeline holds exactly the spans of its own offload.

Nothing device-lifetime accumulates spans: a job records into the timeline of
the offload that submitted it, so repeated offloads on one device return
reports of the same shape, and a failed attempt's spans stay with the
fallback report instead of leaking into the next offload's.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.buffers import ExecutionMode
from repro.obs.profile import profile_report
from repro.omp import CloudDevice, OffloadRuntime, demo_config, offload
from repro.simtime.timeline import Phase
from repro.spark.faults import FaultPlan
from repro.workloads import WORKLOADS


def _runtime(**kw):
    rt = OffloadRuntime()
    dev = CloudDevice(demo_config(n_workers=4), **kw)
    rt.register(dev)
    return rt, dev


def _gemm(rt):
    spec = WORKLOADS["gemm"]
    return offload(spec.build_region("CLOUD"), scalars=spec.scalars(512),
                   runtime=rt, mode=ExecutionMode.MODELED)


def _ssh_connects(report) -> int:
    return sum(1 for s in report.timeline.spans if s.label == "ssh-connect")


def test_repeated_offloads_return_reports_of_one_shape():
    rt, dev = _runtime()
    reports = [_gemm(rt) for _ in range(10)]
    assert len({len(r.timeline) for r in reports}) == 1
    walls = [profile_report(r).wall_s for r in reports]
    assert walls == pytest.approx([walls[0]] * len(walls))
    for before, after in zip(reports, reports[1:]):
        # Each report's spans lie after every span of the one before it.
        assert (min(s.start for s in after.timeline.spans)
                >= max(s.end for s in before.timeline.spans))
    assert all(_ssh_connects(r) == 1 for r in reports)
    assert not hasattr(dev.sc, "timeline")


def test_failed_attempt_spans_stay_with_the_fallback_report():
    attempts = 1 + demo_config(n_workers=4).max_resubmissions
    rt, _dev = _runtime(fault_plan=FaultPlan(spark_submit_failures=attempts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fallback = _gemm(rt)
    assert fallback.fell_back_to_host
    assert _ssh_connects(fallback) == attempts == 3
    assert any(s.phase is Phase.FALLBACK for s in fallback.timeline.spans)

    following = _gemm(rt)
    assert not following.fell_back_to_host
    assert _ssh_connects(following) == 1
