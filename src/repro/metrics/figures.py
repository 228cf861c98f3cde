"""Experiment drivers for Figures 4 and 5 and the Section-IV numbers.

Every point is one modeled offload of a paper-scale workload on a 16-worker
c3.8xlarge cluster capped to the requested number of physical cores (8..256),
with dense and sparse inputs.  Speedups are over modeled single-core native
execution, exactly as the paper normalizes; Figure 4's caption says *average*
speedup, so its series average the dense and sparse runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from repro.cloud.credentials import Credentials
from repro.core.api import TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.config import CloudConfig
from repro.core.plugin_cloud import CloudDevice
from repro.core.report import OffloadReport
from repro.core.runtime import OffloadRuntime
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compute import ComputeModel
from repro.workloads.specs import WORKLOADS

#: The paper's x-axis: 8 to 256 dedicated CPU cores on a 16-worker cluster.
CORE_SWEEP = (8, 16, 32, 64, 128, 256)
#: OmpThread reference thread counts ("the largest ... c3 has 16 cores").
THREAD_SWEEP = (8, 16)

DENSE = 1.0
SPARSE = 0.05


def demo_config(n_workers: int = 16) -> CloudConfig:
    """A valid offline configuration for the simulated EC2 + S3 stack."""
    creds = Credentials(
        provider="ec2",
        username="ubuntu",
        access_key_id="AKIA" + "REPRODUCTION" + "0000",
        secret_key="offline-simulated-secret-key",
    )
    return CloudConfig(credentials=creds, n_workers=n_workers)


@dataclass(frozen=True)
class ExperimentPoint:
    """One (workload, cores, density) modeled offload."""

    workload: str
    cores: int
    density: float
    report: OffloadReport
    sequential_s: float

    @property
    def speedup_full(self) -> float:
        return self.sequential_s / self.report.full_s

    @property
    def speedup_spark(self) -> float:
        return self.sequential_s / self.report.spark_job_s

    @property
    def speedup_computation(self) -> float:
        return self.sequential_s / self.report.computation_s

    @property
    def spark_overhead_share(self) -> float:
        """1 - S_spark/S_comp: the gap the paper quotes for SYRK/collinear."""
        return 1.0 - self.speedup_spark / self.speedup_computation


def _total_flops(region: TargetRegion, scalars: Mapping[str, float]) -> float:
    return sum(
        loop.tile_flops(0, loop.trip_count_value(scalars), scalars)
        for loop in region.loops
    )


def run_point(
    workload: str,
    cores: int,
    density: float = DENSE,
    size: int | None = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    n_workers: int = 16,
) -> ExperimentPoint:
    """Run one modeled offload and wrap it with its speedup baselines."""
    spec = WORKLOADS[workload]
    region = spec.build_region("CLOUD")
    scalars = spec.scalars(size)
    runtime = OffloadRuntime()
    device = CloudDevice(
        demo_config(n_workers=n_workers),
        physical_cores=cores,
        calibration=calibration,
    )
    runtime.register(device)
    mapped = {i.name for c in region.maps for i in c.items}
    densities = {name: density for name in mapped}
    report = offload(
        region,
        scalars=scalars,
        runtime=runtime,
        densities=densities,
        mode=ExecutionMode.MODELED,
    )
    seq = ComputeModel(calibration).sequential_time(_total_flops(region, scalars))
    return ExperimentPoint(
        workload=workload, cores=cores, density=density, report=report, sequential_s=seq
    )


@lru_cache(maxsize=4096)
def _cached_point(workload: str, cores: int, density: float, size: int | None) -> ExperimentPoint:
    return run_point(workload, cores, density, size=size)


# ------------------------------------------------------------------ Figure 4
@dataclass(frozen=True)
class Figure4Row:
    """One x-position of one Figure-4 panel."""

    workload: str
    cores: int
    omp_thread: float | None  # only defined for 8 and 16 cores
    cloud_full: float
    cloud_spark: float
    cloud_computation: float


def figure4_series(workload: str, cores: tuple[int, ...] = CORE_SWEEP,
                   size: int | None = None) -> list[Figure4Row]:
    """The four series of one Figure-4 panel (dense/sparse averaged)."""
    spec = WORKLOADS[workload]
    region = spec.build_region()
    cm = ComputeModel()
    rows = []
    for c in cores:
        pts = [_cached_point(workload, c, d, size) for d in (DENSE, SPARSE)]
        thread = (
            cm.omp_thread_speedup(c, region.memory_intensity) if c in THREAD_SWEEP else None
        )
        rows.append(
            Figure4Row(
                workload=workload,
                cores=c,
                omp_thread=thread,
                cloud_full=sum(p.speedup_full for p in pts) / len(pts),
                cloud_spark=sum(p.speedup_spark for p in pts) / len(pts),
                cloud_computation=sum(p.speedup_computation for p in pts) / len(pts),
            )
        )
    return rows


# ------------------------------------------------------------------ Figure 5
@dataclass(frozen=True)
class Figure5Row:
    """One stacked bar of one Figure-5 panel."""

    workload: str
    cores: int
    density_label: str
    host_comm_s: float
    spark_overhead_s: float
    computation_s: float

    @property
    def total_s(self) -> float:
        return self.host_comm_s + self.spark_overhead_s + self.computation_s


def figure5_series(workload: str, cores: tuple[int, ...] = CORE_SWEEP,
                   size: int | None = None) -> list[Figure5Row]:
    """All stacked bars of one Figure-5 panel (dense and sparse)."""
    rows = []
    for density, label in ((SPARSE, "sparse"), (DENSE, "dense")):
        for c in cores:
            p = _cached_point(workload, c, density, size)
            rows.append(
                Figure5Row(
                    workload=workload,
                    cores=c,
                    density_label=label,
                    host_comm_s=p.report.host_comm_s,
                    spark_overhead_s=p.report.spark_overhead_s,
                    computation_s=p.report.computation_s,
                )
            )
    return rows


# ------------------------------------------------------- Section IV numbers
def headline_numbers(size: int | None = None) -> dict[str, float]:
    """The quotable numbers of Section IV, from the same experiment grid.

    Keys:
      overhead_computation_16 / overhead_spark_16 / overhead_full_16 —
        average relative overhead of OmpCloud vs 16-thread OpenMP on one
        worker (paper: 1.8 % / 8.8 % / 13.6 %);
      syrk_overhead_8 / syrk_overhead_256 — SYRK spark-vs-computation gap
        (paper: 17 % -> 69 %);
      collinear_overhead_8 / collinear_overhead_256 — (paper: 0.1 % -> 15 %);
      s3mm_{computation,spark,full}_256 — 3MM speedups (paper: 143/97/86);
      runtime_8_min / runtime_8_max — 8-core full-run band in minutes
        (paper: ~10 min to ~1 h 30).
    """
    cm = ComputeModel()
    comp_ovh, spark_ovh, full_ovh = [], [], []
    for name, spec in WORKLOADS.items():
        region = spec.build_region()
        pt = _cached_point(name, 16, DENSE, size)
        flops = _total_flops(region, spec.scalars(size))
        t_thread = cm.omp_thread_time(flops, 16, region.memory_intensity)
        comp_ovh.append(1.0 - t_thread / pt.report.computation_s)
        spark_ovh.append(1.0 - t_thread / pt.report.spark_job_s)
        full_ovh.append(1.0 - t_thread / pt.report.full_s)

    syrk8 = _cached_point("syrk", 8, DENSE, size)
    syrk256 = _cached_point("syrk", 256, DENSE, size)
    col8 = _cached_point("collinear", 8, DENSE, size)
    col256 = _cached_point("collinear", 256, DENSE, size)
    mm3_256 = [_cached_point("3mm", 256, d, size) for d in (DENSE, SPARSE)]
    mm2_256 = [_cached_point("2mm", 256, d, size) for d in (DENSE, SPARSE)]

    full8 = [_cached_point(n, 8, DENSE, size).report.full_s for n in WORKLOADS]
    return {
        "overhead_computation_16": sum(comp_ovh) / len(comp_ovh),
        "overhead_spark_16": sum(spark_ovh) / len(spark_ovh),
        "overhead_full_16": sum(full_ovh) / len(full_ovh),
        "syrk_overhead_8": syrk8.spark_overhead_share,
        "syrk_overhead_256": syrk256.spark_overhead_share,
        "collinear_overhead_8": col8.spark_overhead_share,
        "collinear_overhead_256": col256.spark_overhead_share,
        "s3mm_computation_256": sum(p.speedup_computation for p in mm3_256) / 2,
        "s3mm_spark_256": sum(p.speedup_spark for p in mm3_256) / 2,
        "s3mm_full_256": sum(p.speedup_full for p in mm3_256) / 2,
        "s2mm_full_256": sum(p.speedup_full for p in mm2_256) / 2,
        "runtime_8_min": min(full8) / 60.0,
        "runtime_8_max": max(full8) / 60.0,
    }
