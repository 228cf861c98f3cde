"""The report and the event stream are one account of an offload.

Each scenario below runs offloads with a recording bus attached, folds every
offload's events by correlation id, and requires the fold to equal the
``OffloadReport`` the runtime returned on every counter both carry — healthy
and faulty runs, the Spark driver's own storage retries (one of them in a
discarded submission), host runs, host fallbacks after a failed attempt, an
unreachable device, and a chained 3MM inside ``target data`` (synchronous
and ``nowait``-fused).  No offload's ``retry`` event predates its
``target_begin``, and no report's wall time exceeds the clock time between
its ``target_begin`` and ``target_end`` on the device's clock.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.obs.events import EventBus, use_bus
from repro.omp import depend
from repro.simtime.timeline import Phase
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import ScheduleConfig
from repro.workloads import WORKLOADS
from repro.workloads.polybench import mm3_chain_regions, mm3_inputs

from tests.conftest import make_cloud_runtime

WORKER_PHASES = {Phase.WORKER_DECOMPRESS, Phase.JNI_CALL, Phase.COMPUTE,
                 Phase.WORKER_COMPRESS}


# ------------------------------------------------------------------ scenarios
def _matmul(rt, device="CLOUD"):
    spec = WORKLOADS["matmul"]
    return offload(spec.build_region(device), scalars=spec.scalars(800),
                   runtime=rt, mode=ExecutionMode.MODELED)


def _gemm(rt, device="CLOUD"):
    spec = WORKLOADS["gemm"]
    return offload(spec.build_region(device),
                   arrays=spec.inputs(spec.test_size, density=1.0, seed=21),
                   scalars=spec.scalars(spec.test_size), runtime=rt)


def modeled_healthy(cfg):
    return [_matmul(make_cloud_runtime(cfg, physical_cores=32))]


def modeled_on_host(cfg):
    return [_matmul(make_cloud_runtime(cfg), device="HOST")]


def modeled_preemption_with_speculation(cfg):
    dry = _matmul(make_cloud_runtime(cfg, physical_cores=32,
                                     fault_plan=NO_FAULTS))
    victim = max((s for s in dry.timeline.spans if s.phase is Phase.COMPUTE),
                 key=lambda s: (s.start, s.resource))
    plan = FaultPlan(preempt_at={
        victim.resource: victim.start + 0.9 * victim.duration})
    rep = _matmul(make_cloud_runtime(cfg, physical_cores=32, fault_plan=plan,
                                     schedule=ScheduleConfig(speculation=True)))
    assert rep.preemptions >= 1 and rep.speculation_wins >= 1
    return [rep]


def modeled_straggler(cfg):
    rep = _matmul(make_cloud_runtime(cfg, physical_cores=32,
                                     worker_speeds=[1.0, 0.05],
                                     schedule=ScheduleConfig(speculation=True)))
    assert rep.tasks_speculated >= 1
    return [rep]


def modeled_failed_submit(cfg):
    rt = make_cloud_runtime(cfg, fault_plan=FaultPlan(spark_submit_failures=1))
    rep = _matmul(rt)
    assert rep.resubmissions == 1 and not rep.fell_back_to_host
    return [rep]


def functional_chaos(cfg):
    plan = FaultPlan(ssh_connect_failures=1, preempt_at={"worker-1": 0.2},
                     fail_task_number={"worker-0": 1})
    rt = make_cloud_runtime(cfg, physical_cores=64, fault_plan=plan)
    rt.device("CLOUD").storage.inject_failures(puts=2)
    rep = _gemm(rt)
    assert rep.retries >= 3 and rep.preemptions == 1
    return [rep]


def functional_corrupt_input(cfg):
    """The driver's input GET reads a corrupt object once and retries."""
    rt = make_cloud_runtime(cfg, fault_plan=FaultPlan(corrupt_keys={"/in/": 1}))
    rep = _gemm(rt)
    assert rep.corruption_detected == 1
    return [rep]


def functional_driver_get_budget_exhausted(cfg):
    """Every attempt of the driver's first input GET fails: the submission
    fails (its retries still count), the resubmission succeeds, and the
    exhausted driver budget never reaches the breaker."""
    rt = make_cloud_runtime(cfg)
    device = rt.device("CLOUD")
    device.storage.inject_failures(gets=device.retry_policy.max_attempts)
    rep = _gemm(rt)
    assert rep.device_name == "CLOUD" and rep.resubmissions == 1
    assert device.breaker.consecutive_failures == 0
    return [rep]


def functional_warm_cache(cfg):
    rt = make_cloud_runtime(replace(cfg, cache=True))
    reps = [_gemm(rt) for _ in range(3)]
    assert reps[-1].cache_hits > 0
    return reps


def _death_mid_wave(cfg):
    rt = make_cloud_runtime(replace(cfg, recovery="resume"))
    _gemm(rt)
    ends = sorted(r.payload["end"]
                  for r in rt.device("CLOUD").journal.records("tile_done"))
    return ends[len(ends) // 2]


def functional_resume_after_driver_death(cfg):
    death = _death_mid_wave(cfg)
    rt = make_cloud_runtime(replace(cfg, recovery="resume"),
                            fault_plan=FaultPlan(driver_dies_at=death))
    rep = _gemm(rt)
    assert rep.tiles_skipped > 0 and not rep.fell_back_to_host
    return [rep]


def functional_no_recovery_after_driver_death(cfg):
    rt = make_cloud_runtime(replace(cfg, recovery="none"),
                            fault_plan=FaultPlan(driver_dies_at=0.1))
    rep = _gemm(rt)
    assert rep.fell_back_to_host
    return [rep]


def functional_submit_failure_fallback(cfg):
    rt = make_cloud_runtime(cfg, fault_plan=FaultPlan(spark_submit_failures=9))
    rep = _gemm(rt)
    assert rep.fell_back_to_host
    return [rep]


def functional_submit_failure_fallback_managed(cfg):
    return functional_submit_failure_fallback(
        replace(cfg, manage_instances=True))


def unreachable_device(cfg):
    rt = OffloadRuntime()
    rt.register(CloudDevice(cfg, reachable=False))
    rep = _gemm(rt)
    assert rep.fell_back_to_host
    return [rep]


def _chained_3mm(cfg, nowait):
    n = 32
    host = mm3_inputs(n)
    host["E"] = host["G"].copy()
    host["F"] = host["G"].copy()
    depends = (depend(in_=("A", "B"), out="E"),
               depend(in_=("C", "D"), out="F"),
               depend(in_=("E", "F"), out="G"))
    rt = make_cloud_runtime(replace(cfg, recovery="resume"), physical_cores=32)
    reports = []
    with rt.target_data(device="CLOUD",
                        map_to={v: host[v] for v in "ABCD"},
                        map_alloc={"E": host["E"], "F": host["F"]}):
        for region, dep in zip(mm3_chain_regions("CLOUD"), depends):
            if nowait:
                offload(region, arrays=host, scalars={"N": n}, runtime=rt,
                        nowait=True, depend=dep)
            else:
                reports.append(offload(region, arrays=host, scalars={"N": n},
                                       runtime=rt))
        if nowait:
            reports = list({id(r): r for r in rt.taskwait()}.values())
            assert [r.fused_regions for r in reports] == [3]
    return reports


def chained_3mm_sync(cfg):
    return _chained_3mm(cfg, nowait=False)


def chained_3mm_fused(cfg):
    return _chained_3mm(cfg, nowait=True)


#: (scenario, fault-free cloud run) — only a fault-free cloud run books each
#: task's slot exactly once, so only there do the TaskEnd durations add up
#: to the report timeline's worker phases.
SCENARIOS = [
    (modeled_healthy, True),
    (modeled_on_host, False),
    (modeled_preemption_with_speculation, False),
    (modeled_straggler, False),
    (modeled_failed_submit, False),
    (functional_chaos, False),
    (functional_corrupt_input, False),
    (functional_driver_get_budget_exhausted, False),
    (functional_warm_cache, True),
    (functional_resume_after_driver_death, False),
    (functional_no_recovery_after_driver_death, False),
    (functional_submit_failure_fallback, False),
    (functional_submit_failure_fallback_managed, False),
    (unreachable_device, False),
    (chained_3mm_sync, True),
    (chained_3mm_fused, True),
]


# ----------------------------------------------------------------------- fold
def _fold(events) -> dict:
    """One offload's counters, computed from its events alone."""

    def of(kind):
        return [e for e in events if e.kind == kind]

    end = of("target_end")[-1]
    # The report counts the submission that produced the outputs: the task
    # events after the last resubmission or host fallback.
    last = max((i for i, e in enumerate(events)
                if e.kind in ("resubmit", "fallback")), default=-1)
    return {
        "bytes_up_raw": sum(e.bytes_raw for e in of("map_upload")),
        "bytes_up_wire": sum(e.bytes_wire for e in of("map_upload")),
        "bytes_down_raw": sum(e.bytes_raw for e in of("map_download")),
        "bytes_down_wire": sum(e.bytes_wire for e in of("map_download")),
        "cache_hits": len(of("cache_hit")),
        "cache_bytes_saved": sum(e.bytes_saved for e in of("cache_hit")),
        "resident_hits": len(of("resident_hit")),
        "bytes_not_retransferred": sum(e.bytes_saved
                                       for e in of("resident_hit")),
        "retries": len(of("retry")),
        "backoff_s": sum(e.delay_s for e in events
                         if e.kind in ("retry", "resubmit")),
        "resubmissions": len(of("resubmit")),
        "preemptions": len(of("preemption")),
        "tasks_speculated": len(of("task_speculated")),
        "speculation_wins": len(of("speculation_won")),
        "tiles_skipped": sum(e.tiles_skipped
                             for e in of("resume_from_checkpoint")),
        "fell_back_to_host": end.fell_back,
        "full_s": end.full_s,
        "tasks_run": sum(e.kind == "task_end" for e in events[last + 1:]),
        "fallback_marked": bool(of("fallback")),
    }


def _reported(report, keys) -> dict:
    """The report's value of every counter the fold computed."""
    out = {k: getattr(report, k) for k in keys if k != "fallback_marked"}
    out["fallback_marked"] = any(s.phase is Phase.FALLBACK
                                 for s in report.timeline.spans)
    return out


def _run(scenario, cfg):
    bus = EventBus(keep_history=True)
    with use_bus(bus), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reports = scenario(cfg)
    # Every offload closes its scope with one successful target_end; a
    # scenario's dry runs come first, so the returned reports are the last
    # len(reports) offloads.
    ends = [e for e in bus.events if e.kind == "target_end" and e.ok]
    ends = ends[len(ends) - len(reports):]
    assert [e.region for e in ends] == [r.region_name for r in reports]
    return [(r, [e for e in bus.events if e.correlation_id == end.correlation_id])
            for r, end in zip(reports, ends)]


@pytest.mark.parametrize("manage_instances", [False, True])
def test_host_fallback_keeps_the_failed_attempts_traffic_and_bill(
        cloud_config, manage_instances):
    """The failed cloud attempt staged gemm's inputs (and, when it manages
    instances, ran up a bill) before the host rerun: both stay on the
    report."""
    cfg = replace(cloud_config, manage_instances=manage_instances)
    rt = make_cloud_runtime(cfg, fault_plan=FaultPlan(spark_submit_failures=9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = _gemm(rt)
    assert report.fell_back_to_host
    assert (report.bytes_up_raw, report.bytes_up_wire) == (27_648, 25_619)
    ledger = rt.device("CLOUD").billing_ledger
    if manage_instances:
        assert report.billed_usd == ledger.total_usd() == pytest.approx(8.40)
    else:
        assert ledger is None and report.billed_usd == 0.0


@pytest.mark.parametrize("scenario,fault_free", SCENARIOS,
                         ids=[s.__name__ for s, _ in SCENARIOS])
def test_report_equals_the_fold_of_its_events(cloud_config, scenario,
                                              fault_free):
    for report, events in _run(scenario, cloud_config):
        folded = _fold(events)
        assert _reported(report, folded) == folded
        begin = next(e.time for e in events if e.kind == "target_begin")
        assert all(e.time >= begin for e in events if e.kind == "retry")
        if report.device_name != "HOST":  # the host keeps no device clock
            # Each second of the wall time is counted once: no more of it
            # than the clock saw pass between the offload's begin and end.
            end = next(e.time for e in events if e.kind == "target_end")
            assert report.full_s <= end - begin + 1e-9
        if fault_free:
            slots = sum(e.duration_s for e in events if e.kind == "task_end")
            worker_time = sum(s.duration for s in report.timeline.spans
                              if s.phase in WORKER_PHASES)
            assert slots == pytest.approx(worker_time)
