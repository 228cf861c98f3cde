"""``CloudDevice(schedule=...)``: the device wiring of the adaptive layer."""

import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.spark.faults import FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.workloads import WORKLOADS


def test_device_takes_schedule_argument(cloud_config):
    assert CloudDevice(cloud_config, physical_cores=16).schedule is STATIC_SCHEDULE
    schedule = ScheduleConfig(mode="weighted", speculation=True)
    dev = CloudDevice(cloud_config, physical_cores=16, schedule=schedule)
    assert dev.schedule is schedule


def test_default_schedule_leaves_model_unchanged(cloud_config):
    """The adaptive layer is strictly opt-in: an explicit static schedule on
    a uniform-speed cluster reproduces the default timings bit-for-bit."""
    spec = WORKLOADS["gemm"]

    def run(**kwargs):
        rt = OffloadRuntime()
        rt.register(CloudDevice(cloud_config, physical_cores=32, **kwargs))
        return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                       runtime=rt, mode=ExecutionMode.MODELED)

    base = run()
    explicit = run(schedule=ScheduleConfig(), worker_speeds=[1.0, 1.0])
    assert explicit.full_s == base.full_s
    assert explicit.spark_job_s == base.spark_job_s
    assert explicit.to_dict() == base.to_dict()


def test_weighted_schedule_beats_static_on_hetero_cluster(cloud_config):
    spec = WORKLOADS["matmul"]

    def run(schedule):
        rt = OffloadRuntime()
        rt.register(CloudDevice(cloud_config, physical_cores=32,
                                schedule=schedule,
                                worker_speeds=[1.0, 0.5]))
        return offload(spec.build_region("CLOUD"),
                       scalars=spec.scalars(800), runtime=rt,
                       mode=ExecutionMode.MODELED)

    static = run(ScheduleConfig())
    weighted = run(ScheduleConfig(mode="weighted"))
    assert weighted.full_s < static.full_s


def test_report_carries_speculation_fields(cloud_config):
    spec = WORKLOADS["matmul"]
    rt = OffloadRuntime()
    rt.register(CloudDevice(cloud_config, physical_cores=32,
                            schedule=ScheduleConfig(speculation=True),
                            worker_speeds=[1.0, 0.05]))
    rep = offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                  runtime=rt, mode=ExecutionMode.MODELED)
    assert rep.tasks_speculated >= 1
    assert rep.speculation_wins >= 1
    assert rep.speculation_saved_s > 0.0
    d = rep.to_dict()
    assert d["tasks_speculated"] == rep.tasks_speculated
    assert "speculation" in rep.summary()


def test_weighted_schedule_with_no_live_slot_falls_back_like_static(cloud_config):
    """Once the only executor is dead a resubmission has no slot capacity to
    weigh; it must fail the job (and fall back to the host) as static does."""
    spec = WORKLOADS["gemm"]

    def run(schedule):
        rt = OffloadRuntime()
        rt.register(CloudDevice(cloud_config, physical_cores=16,
                                schedule=schedule,
                                fault_plan=FaultPlan(die_at={"worker-0": 0.0})))
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                           runtime=rt, mode=ExecutionMode.MODELED)

    assert run(ScheduleConfig()).fell_back_to_host
    assert run(ScheduleConfig(mode="weighted")).fell_back_to_host
