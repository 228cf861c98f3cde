"""End-to-end resilience: chaos runs, spot preemption, circuit breaker,
durable checkpoint/recovery.

Acceptance tests for the resilience layer: a GEMM offload survives
simultaneous storage transients, SSH flakiness, a spot preemption and a
worker task failure with bit-identical results; persistent hard failures
trip the circuit breaker and degrade every later offload to the host
without raising; a driver death under the "resume" policy replays the
offload journal and re-executes strictly less work than a full restart;
injected corruption never produces a wrong result."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.spark.faults import FaultPlan
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


def _run_gemm(rt, arrays):
    spec = WORKLOADS["gemm"]
    scalars = spec.scalars(spec.test_size)
    return offload(spec.build_region("CLOUD"), arrays=arrays,
                   scalars=scalars, runtime=rt)


def _gemm_inputs():
    spec = WORKLOADS["gemm"]
    return spec.inputs(spec.test_size, density=1.0, seed=21)


def test_chaos_run_is_bit_identical_to_healthy_run(cloud_config):
    """Storage transients + an SSH connect failure + a spot preemption + a
    worker task failure, all in one offload: the job completes, recovery is
    visible in the report, and every output bit matches the healthy run."""
    healthy_arrays = _gemm_inputs()
    _run_gemm(make_cloud_runtime(cloud_config, physical_cores=64),
              healthy_arrays)

    chaos_arrays = _gemm_inputs()
    plan = FaultPlan(
        ssh_connect_failures=1,
        preempt_at={"worker-1": 0.2},
        fail_task_number={"worker-0": 1},
    )
    # 64 physical cores -> four 32-vCPU executors, worker-0..worker-3.
    rt = make_cloud_runtime(cloud_config, physical_cores=64, fault_plan=plan)
    dev = rt.device("CLOUD")
    dev.storage.inject_failures(puts=2)
    t0 = dev.clock.now
    report = _run_gemm(rt, chaos_arrays)

    for key in healthy_arrays:
        assert np.array_equal(healthy_arrays[key], chaos_arrays[key]), key

    assert not report.fell_back_to_host
    assert report.retries >= 3  # 2 storage PUTs + 1 SSH connect
    assert report.resubmissions + report.preemptions >= 1
    assert report.preemptions == 1
    assert report.tasks_recomputed >= 1  # lineage recomputation proceeded
    assert report.backoff_s > 0.0
    # Backoff and recovery are simulated time, charged to the device clock.
    assert dev.clock.now - t0 >= report.backoff_s
    phases = {s.phase.value for s in report.timeline.spans}
    assert "retry_backoff" in phases
    assert "preemption" in phases and "recovery" in phases


def test_preempted_worker_is_replaced_with_new_identity(cloud_config):
    plan = FaultPlan(preempt_at={"worker-0": 0.2})
    rt = make_cloud_runtime(cloud_config, physical_cores=64, fault_plan=plan)
    dev = rt.device("CLOUD")
    arrays = _gemm_inputs()
    report = _run_gemm(rt, arrays)
    assert report.preemptions == 1
    ids = [ex.worker_id for ex in dev.cluster.executors]
    assert "worker-0" not in ids
    assert "worker-0+1" in ids  # replacement spot instance, fresh identity
    assert all(not ex.is_dead for ex in dev.cluster.executors)


def test_preemption_bills_the_reclaimed_instance_when_managed(cloud_config):
    cfg = replace(cloud_config, manage_instances=True, n_workers=2)
    healthy = _run_gemm(make_cloud_runtime(cfg, physical_cores=32),
                        _gemm_inputs())

    plan = FaultPlan(preempt_at={"worker-1": 0.2})
    rt = make_cloud_runtime(cfg, physical_cores=32, fault_plan=plan)
    dev = rt.device("CLOUD")
    report = _run_gemm(rt, _gemm_inputs())
    assert report.preemptions == 1
    # The replacement was really provisioned and billed on top of the fleet.
    assert dev._provisioned is not None
    tags = [w.tags for w in dev._provisioned.workers]
    assert any(t.get("spot") == "replacement" for t in tags)
    assert report.billed_usd > healthy.billed_usd


def test_breaker_trips_and_degrades_to_host(cloud_config):
    """K consecutive hard failures trip the breaker: later offloads skip the
    cloud entirely (no warning, no DeviceError) until the cooldown."""
    cfg = replace(cloud_config, breaker_threshold=3, breaker_reset_s=600.0)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    spec = WORKLOADS["matmul"]

    def run():
        return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                       runtime=rt, mode=ExecutionMode.MODELED)

    # Three PUT attempts per offload (retry policy) x three offloads: arm
    # exactly enough that storage heals before the post-cooldown probe.
    dev.storage.inject_failures(puts=3 * dev.retry_policy.max_attempts)
    for _ in range(3):
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            report = run()
        assert report.fell_back_to_host
        assert report.device_name == "HOST"
    assert dev.breaker.state(dev.clock.now) == "open"
    assert dev.breaker.total_trips == 1
    assert not dev.is_available()

    # Breaker open: the cloud is not even attempted — no storage traffic,
    # no warning, still a correct host run.
    puts_before = dev.storage.put_count
    report = run()
    assert report.fell_back_to_host
    assert report.device_name == "HOST"
    assert dev.storage.put_count == puts_before
    assert rt.fallbacks == 4

    # After the simulated cooldown the breaker half-opens and lets a probe
    # offload reach the (now healthy) cloud again.
    dev.clock.advance(600.0)
    assert dev.breaker.state(dev.clock.now) == "half-open"
    report = run()
    assert not report.fell_back_to_host
    assert report.device_name == "CLOUD"
    assert dev.breaker.state(dev.clock.now) == "closed"


def test_breaker_threshold_is_configurable(cloud_config):
    cfg = replace(cloud_config, breaker_threshold=1)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    dev.endpoint.reachable = False
    spec = WORKLOADS["matmul"]
    with pytest.warns(RuntimeWarning):
        offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                runtime=rt, mode=ExecutionMode.MODELED)
    assert dev.breaker.state(dev.clock.now) == "open"


def test_metadata_failures_are_retried(cloud_config):
    """size_of/exists transients (satellite: previously unprotected) are
    retried under the same policy."""
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    arrays = _gemm_inputs()
    # Arm one metadata failure; the first size_of (driver-side HEAD of a
    # staged input) hits it and retries.
    dev.storage.inject_failures(metas=1)
    report = _run_gemm(rt, arrays)
    assert not report.fell_back_to_host
    assert report.tasks_run > 0


def test_full_storage_outage_mid_download_degrades(cloud_config):
    """Outputs exist but every GET fails: data_end exhausts its retries and
    the region reruns on the host, bit-exact."""
    spec = WORKLOADS["matmul"]
    scalars = spec.scalars(spec.test_size)
    base = spec.inputs(spec.test_size, density=1.0, seed=3)
    expected = spec.reference({k: v.copy() for k, v in base.items()}, scalars)

    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    arrays = {k: v.copy() for k, v in base.items()}

    # Let staging + the job succeed, then kill the result download.  The
    # driver-side GETs happen inside the job; arm enough failures that the
    # plugin's own download retries are exhausted afterwards.
    orig_execute = dev.execute

    def execute_then_break(*args, **kwargs):
        out = orig_execute(*args, **kwargs)
        dev.storage.inject_failures(gets=10_000)
        return out

    dev.execute = execute_then_break
    with pytest.warns(RuntimeWarning, match="falling back to host"):
        report = offload(spec.build_region("CLOUD"), arrays=arrays,
                         scalars=scalars, runtime=rt)
    assert report.fell_back_to_host
    for key, want in expected.items():
        assert np.allclose(arrays[key], want, rtol=3e-5, atol=1e-4), key


# ------------------------------------------------- durable recovery (PR 6)

def _calibrated_death(cfg, fraction=0.5):
    """A driver-death instant landing ``fraction`` into gemm's tile wave,
    measured on a fault-free dry run under the "resume" policy (which
    journals every tile commit)."""
    rt = make_cloud_runtime(replace(cfg, recovery="resume"))
    _run_gemm(rt, _gemm_inputs())
    ends = sorted(r.payload["end"] for r in
                  rt.device("CLOUD").journal.records("tile_done"))
    assert ends[0] < ends[-1]
    return ends[min(len(ends) - 1, int(fraction * len(ends)))]


def test_driver_death_resume_reexecutes_strictly_less_than_restart(cloud_config):
    """The acceptance scenario: a driver death at ~50 % tile completion
    under ``recovery = resume`` replays the journal and schedules only the
    unfinished tiles — strictly fewer re-executed tasks and wire bytes than
    ``recovery = restart``'s full resubmission, same bits either way."""
    healthy = _gemm_inputs()
    _run_gemm(make_cloud_runtime(cloud_config), healthy)
    death = _calibrated_death(cloud_config)

    reports = {}
    arrays = {}
    for policy in ("restart", "resume"):
        arrays[policy] = _gemm_inputs()
        rt = make_cloud_runtime(replace(cloud_config, recovery=policy),
                                fault_plan=FaultPlan(driver_dies_at=death))
        reports[policy] = _run_gemm(rt, arrays[policy])

    for policy, report in reports.items():
        assert not report.fell_back_to_host, policy
        assert report.resumes == 1, policy
        assert report.resubmissions == 1, policy
        for key in healthy:
            assert np.array_equal(healthy[key], arrays[policy][key]), (policy, key)

    restart, resume = reports["restart"], reports["resume"]
    assert restart.tiles_skipped == 0
    assert resume.tiles_skipped > 0
    assert resume.tiles_checkpointed > 0
    assert resume.tasks_run < restart.tasks_run
    assert resume.cluster_bytes_wire < restart.cluster_bytes_wire


def test_driver_death_without_recovery_still_falls_back(cloud_config):
    """``recovery = none`` keeps the PR-1 contract: the death exhausts
    resubmissions and the host rerun produces the right answer."""
    arrays = _gemm_inputs()
    healthy = _gemm_inputs()
    _run_gemm(make_cloud_runtime(cloud_config), healthy)
    rt = make_cloud_runtime(cloud_config,
                            fault_plan=FaultPlan(driver_dies_at=0.1))
    with pytest.warns(RuntimeWarning, match="falling back to host"):
        report = _run_gemm(rt, arrays)
    assert report.fell_back_to_host
    assert report.resumes == 0
    for key in healthy:
        assert np.array_equal(healthy[key], arrays[key]), key


def test_corrupt_staged_input_is_detected_billed_and_repaired(cloud_config):
    """A corrupt GET of a staged input is caught by its checksum, surfaced
    in the report, re-fetched under the bounded retry policy — and the
    result is still bit-identical to the healthy run."""
    healthy = _gemm_inputs()
    _run_gemm(make_cloud_runtime(cloud_config), healthy)

    arrays = _gemm_inputs()
    rt = make_cloud_runtime(cloud_config,
                            fault_plan=FaultPlan(corrupt_keys={"in/A": 1}))
    report = _run_gemm(rt, arrays)
    assert not report.fell_back_to_host
    assert report.corruption_detected == 1
    assert rt.device("CLOUD").storage.corruption_count == 1
    for key in healthy:
        assert np.array_equal(healthy[key], arrays[key]), key


def test_unbounded_corruption_escalates_without_a_wrong_result(cloud_config):
    """Corruption past the retry budget degrades to the host — detected and
    counted, never silently trusted."""
    spec = WORKLOADS["gemm"]
    scalars = spec.scalars(spec.test_size)
    arrays = _gemm_inputs()
    expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)
    rt = make_cloud_runtime(cloud_config,
                            fault_plan=FaultPlan(corrupt_keys={"in/A": 10**6}))
    with pytest.warns(RuntimeWarning, match="falling back to host"):
        report = _run_gemm(rt, arrays)
    assert report.fell_back_to_host
    assert report.corruption_detected > 0
    for key, want in expected.items():
        assert np.allclose(arrays[key], want, rtol=3e-5, atol=1e-4), key


def test_death_inside_target_data_syncs_dirty_entries_exactly_once(cloud_config):
    """Recovery × persistent data environments: when the environment is
    invalidated, each dirty device copy is synced home exactly once — one
    storage GET — and its handle dropped, so nothing can sync it again.
    Reference counts survive throughout."""
    from tests.core.test_data_env import _chain_regions

    n = 128
    a = np.arange(n, dtype=np.float32)
    b = np.zeros(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    stage1, stage2 = _chain_regions()
    cfg = replace(cloud_config, recovery="restart")
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")

    with rt.target_data(device="CLOUD", map_to={"A": a}, map_alloc={"B": b},
                        map_from={"C": c}):
        offload(stage1, arrays={"A": a, "B": b, "C": c}, scalars={"N": n},
                runtime=rt)
        entry = dev.env.lookup("B")
        assert entry.dirty and entry.device_handle is not None

        # Every further submit fails: stage2 falls back, invalidating the
        # environment — which syncs the dirty B home: the one GET the failed
        # attempt makes (it never reached a driver).
        dev._submit_faults_left = 10**6
        gets_before = dev.storage.get_count
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            offload(stage2, arrays={"A": a, "B": b, "C": c},
                    scalars={"N": n}, runtime=rt)
        assert dev.storage.get_count == gets_before + 1
        assert np.allclose(b, a)
        assert entry.device_handle is None and not entry.dirty
        assert dev.env.ref_count("A") == 1 and dev.env.ref_count("B") == 1

        # A re-entered invalidation finds no handle left to sync.
        dev.invalidate_data_env()
        assert dev.storage.get_count == gets_before + 1
    assert np.allclose(c, a)
