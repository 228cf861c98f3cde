"""Benchmark harness: instrumented paper runs with a regression check.

``repro bench <name>`` runs one paper workload as a modeled offload under a
history-keeping :class:`~repro.obs.events.EventBus` with a
:class:`~repro.obs.subscribers.MetricsSubscriber` attached, and writes
``BENCH_<name>.json``::

    {
      "schema": "repro-bench/1",
      "benchmark": "mm",
      "params": {"cores": 32, "workers": 16, "density": 1.0, "size": 4000},
      "milestones": {"full_s": ..., "spark_job_s": ..., "computation_s": ...},
      "events": {"target_begin": 1, "map_upload": 3, ...},
      "metrics": { ... MetricsRegistry.snapshot() ... }
    }

Modeled offloads are bit-deterministic (simulated clock, no wall-clock
entropy), so a baseline file can be committed and CI can fail hard on any
milestone that grows more than ``threshold`` (default 10 %) — see
:func:`compare`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber

SCHEMA = "repro-bench/1"

#: Milestones checked by :func:`compare` — all "lower is better" times.
REGRESSION_MILESTONES = (
    "full_s",
    "spark_job_s",
    "computation_s",
    "host_comm_s",
    "spark_overhead_s",
)

#: Absolute slack (simulated seconds) below which a milestone never counts as
#: regressed — keeps near-zero components from tripping on rounding.
ABS_SLACK_S = 1e-6


def run_benchmark(
    name: str,
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """One instrumented modeled offload of ``name``; returns the payload.

    ``quick`` shrinks the problem to the workload's test size — same code
    paths, seconds of runtime, still fully deterministic — which is what the
    CI bench job runs on every push.

    Names in :data:`EXTRA_BENCHMARKS` (multi-offload scenarios that don't fit
    the one-region ``WORKLOADS`` registry) dispatch to their own runner;
    anything else must be a paper workload.
    """
    from repro.metrics.figures import run_point
    from repro.workloads.specs import WORKLOADS

    extra = EXTRA_BENCHMARKS.get(name)
    if extra is not None:
        return extra(cores=cores, n_workers=n_workers, density=density,
                     size=size, quick=quick)
    spec = WORKLOADS[name]
    actual_size = size if size is not None else (
        spec.test_size if quick else spec.paper_size)

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        point = run_point(name, cores, density=density, size=actual_size,
                          n_workers=n_workers)
    rep = point.report
    milestones = {
        "full_s": rep.full_s,
        "spark_job_s": rep.spark_job_s,
        "computation_s": rep.computation_s,
        "host_comm_s": rep.host_comm_s,
        "spark_overhead_s": rep.spark_overhead_s,
        "backoff_s": rep.backoff_s,
        "sequential_s": point.sequential_s,
        "speedup_full": point.speedup_full,
        "speedup_spark": point.speedup_spark,
        "speedup_computation": point.speedup_computation,
        "bytes_up_wire": rep.bytes_up_wire,
        "bytes_down_wire": rep.bytes_down_wire,
    }
    return {
        "schema": SCHEMA,
        "benchmark": name,
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": actual_size,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_chained_3mm(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """The `target data` headline: 3MM as three chained offloads.

    The instrumented run keeps A..D and the intermediates E, F inside one
    persistent data environment, so the third product re-reads E and F in
    place instead of re-uploading them.  An identical *unmanaged* chain (no
    environment) runs un-instrumented for reference; its upload traffic
    lands in the ``bytes_up_wire_unmanaged`` milestone, making the saving
    visible — and regressable — in one file.
    """
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.workloads.polybench import mm3_chain_regions
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["3mm"]
    n = size if size is not None else (spec.test_size if quick else spec.paper_size)
    names = ("A", "B", "C", "D", "E", "F", "G")
    lengths = {v: n * n for v in names}
    densities = {v: density for v in names}

    def chain(managed: bool):
        rt = OffloadRuntime()
        rt.register(CloudDevice(demo_config(n_workers), physical_cores=cores))
        regions = mm3_chain_regions("CLOUD")
        reports = []

        def run_all():
            for region in regions:
                reports.append(offload(
                    region, scalars={"N": n}, runtime=rt,
                    mode=ExecutionMode.MODELED,
                    lengths=lengths, densities=densities))

        if not managed:
            run_all()
            return reports, None
        with rt.target_data(
                device="CLOUD",
                map_to={v: n * n for v in ("A", "B", "C", "D")},
                map_alloc={"E": n * n, "F": n * n},
                densities=densities,
                mode=ExecutionMode.MODELED) as env:
            run_all()
        return reports, env.report

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        reports, env_report = chain(managed=True)
    bare_reports, _ = chain(managed=False)

    milestones = {
        "full_s": sum(r.full_s for r in reports)
        + env_report.enter_s + env_report.exit_s + env_report.update_s,
        "spark_job_s": sum(r.spark_job_s for r in reports),
        "computation_s": sum(r.computation_s for r in reports),
        "host_comm_s": sum(r.host_comm_s for r in reports)
        + env_report.enter_s + env_report.exit_s,
        "spark_overhead_s": sum(r.spark_overhead_s for r in reports),
        "backoff_s": sum(r.backoff_s for r in reports) + env_report.backoff_s,
        "env_enter_s": env_report.enter_s,
        "env_exit_s": env_report.exit_s,
        "resident_hits": sum(r.resident_hits for r in reports),
        "bytes_not_retransferred": sum(r.bytes_not_retransferred
                                       for r in reports),
        "bytes_up_wire": sum(r.bytes_up_wire for r in reports)
        + env_report.bytes_up_wire,
        "bytes_down_wire": sum(r.bytes_down_wire for r in reports)
        + env_report.bytes_down_wire,
        "bytes_up_wire_unmanaged": sum(r.bytes_up_wire for r in bare_reports),
    }
    return {
        "schema": SCHEMA,
        "benchmark": "chained_3mm",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": n,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_ablation_speculation(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Adaptive-execution ablation: speculation and weighted tiling A/B.

    Four modeled matmul offloads (docs/SCHEDULING.md):

    * **nospec** — a spot preemption mid-task, speculation off: the job
      pays the full failure-detection timeout plus a rerun.
    * **spec** — the same preemption with ``speculation = true``: the
      straggler copy rescues the tail.  This run is the instrumented one
      and provides the gated milestones, so CI fails if the rescue stops
      working.
    * **static_het / weighted_het** — a half-speed worker under Algorithm 1
      tiles vs capacity-weighted tiles, speculation off, fault-free.

    The preemption instant is calibrated from a fault-free dry run (90 %
    through the latest compute span), so the plan always lands inside a
    reservation regardless of size or core count.  Everything is modeled
    and bit-deterministic, so ``full_s_nospec > full_s`` and
    ``full_s_static_het > full_s_weighted_het`` are stable invariants the
    ablation tests assert.
    """
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.simtime.timeline import Phase
    from repro.spark.faults import NO_FAULTS, FaultPlan
    from repro.spark.schedule import ScheduleConfig
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["matmul"]
    n = size if size is not None else (800 if quick else 2000)

    def run(schedule: ScheduleConfig, fault_plan: FaultPlan | None = None,
            worker_speeds: tuple[float, ...] = ()):
        rt = OffloadRuntime()
        rt.register(CloudDevice(
            demo_config(n_workers), physical_cores=cores,
            schedule=schedule,
            fault_plan=fault_plan if fault_plan is not None else NO_FAULTS,
            worker_speeds=worker_speeds or None))
        return offload(spec.build_region("CLOUD"), scalars=spec.scalars(n),
                       runtime=rt, mode=ExecutionMode.MODELED)

    static = ScheduleConfig()
    speculative = ScheduleConfig(speculation=True)

    # Calibrate the preemption from a fault-free dry run: kill the worker
    # running the latest-starting compute span, 90% of the way through it.
    dry = run(static)
    victim = max((s for s in dry.timeline.spans if s.phase is Phase.COMPUTE),
                 key=lambda s: (s.start, s.resource))
    preempt_t = victim.start + 0.9 * max(victim.duration, 0.0)
    plan = FaultPlan(preempt_at={victim.resource: preempt_t})

    nospec = run(static, fault_plan=plan)

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        rescued = run(speculative, fault_plan=plan)

    # Heterogeneous cluster: the second executor runs at half speed.
    speeds = (1.0, 0.5)
    static_het = run(static, worker_speeds=speeds)
    weighted_het = run(ScheduleConfig(mode="weighted"), worker_speeds=speeds)

    milestones = {
        # Gated: the speculative run under preemption is the product here.
        "full_s": rescued.full_s,
        "spark_job_s": rescued.spark_job_s,
        "computation_s": rescued.computation_s,
        "host_comm_s": rescued.host_comm_s,
        "spark_overhead_s": rescued.spark_overhead_s,
        "backoff_s": rescued.backoff_s,
        # Informational A/B milestones for the ablation assertions.
        "full_s_nospec": nospec.full_s,
        "speculation_saved_s": rescued.speculation_saved_s,
        "tasks_speculated": rescued.tasks_speculated,
        "speculation_wins": rescued.speculation_wins,
        "full_s_static_het": static_het.full_s,
        "full_s_weighted_het": weighted_het.full_s,
        "preempt_at_s": preempt_t,
    }
    return {
        "schema": SCHEMA,
        "benchmark": "ablation_speculation",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": n,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_chaos_recovery(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Durable recovery A/B: restart vs resume under a mid-wave driver death.

    Three chained-3MM runs (docs/RESILIENCE.md), all inside one persistent
    data environment:

    * **healthy** — fault-free, ``recovery = none``: the reference chain.
    * **restart** — a driver death calibrated to land at ~50 % tile
      completion, ``recovery = restart``: the standby driver replays the
      journal but re-executes every tile (PR-1-shaped recovery, minus the
      host fallback).
    * **resume** — the same death under ``recovery = resume``: committed
      tile checkpoints are skipped and only the remainder re-executes.
      This run is the instrumented one and provides the gated milestones,
      so CI fails if tile-granular resume stops paying off.

    The death instant comes from a fault-free dry run under the resume
    policy (which journals every tile commit): the median ``tile_done`` end
    time, so roughly half the chain's tiles are durable when the driver
    disappears.  Everything is modeled and bit-deterministic, so
    ``tasks_run_resume < tasks_run_restart`` and
    ``cluster_bytes_wire_resume < cluster_bytes_wire_restart`` are stable
    invariants the recovery tests assert.
    """
    import dataclasses as _dc

    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.spark.faults import NO_FAULTS, FaultPlan
    from repro.workloads.polybench import mm3_chain_regions
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["3mm"]
    n = size if size is not None else (spec.test_size if quick else spec.paper_size)
    names = ("A", "B", "C", "D", "E", "F", "G")
    lengths = {v: n * n for v in names}
    densities = {v: density for v in names}

    def chain(recovery: str, fault_plan: FaultPlan):
        rt = OffloadRuntime()
        rt.register(CloudDevice(
            _dc.replace(demo_config(n_workers), recovery=recovery),
            physical_cores=cores, fault_plan=fault_plan))
        reports = []
        with rt.target_data(
                device="CLOUD",
                map_to={v: n * n for v in ("A", "B", "C", "D")},
                map_alloc={"E": n * n, "F": n * n},
                densities=densities,
                mode=ExecutionMode.MODELED) as env:
            for region in mm3_chain_regions("CLOUD"):
                reports.append(offload(
                    region, scalars={"N": n}, runtime=rt,
                    mode=ExecutionMode.MODELED,
                    lengths=lengths, densities=densities))
        return rt.device("CLOUD"), reports, env.report

    # Calibrate: a fault-free dry run journals every tile commit; kill the
    # driver at the median, i.e. at ~50 % tile completion across the chain.
    dry_dev, _, _ = chain("resume", NO_FAULTS)
    ends = sorted(r.payload["end"] for r in dry_dev.journal.records("tile_done"))
    death_at = ends[len(ends) // 2]
    plan = FaultPlan(driver_dies_at=death_at)

    _, healthy, healthy_env = chain("none", NO_FAULTS)
    _, restarted, restart_env = chain("restart", plan)

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        _, resumed, resume_env = chain("resume", plan)

    def total(reports, env_report, attr):
        return sum(getattr(r, attr) for r in reports) + getattr(
            env_report, attr, 0)

    def full(reports, env_report):
        return (sum(r.full_s for r in reports) + env_report.enter_s
                + env_report.exit_s + env_report.update_s)

    milestones = {
        # Gated: the resumed chain under a driver death is the product here.
        "full_s": full(resumed, resume_env),
        "spark_job_s": sum(r.spark_job_s for r in resumed),
        "computation_s": sum(r.computation_s for r in resumed),
        "host_comm_s": sum(r.host_comm_s for r in resumed)
        + resume_env.enter_s + resume_env.exit_s,
        "spark_overhead_s": sum(r.spark_overhead_s for r in resumed),
        "backoff_s": sum(r.backoff_s for r in resumed) + resume_env.backoff_s,
        # Informational A/B milestones for the recovery assertions.
        "death_at_s": death_at,
        "full_s_healthy": full(healthy, healthy_env),
        "full_s_restart": full(restarted, restart_env),
        "tiles_checkpointed": sum(r.tiles_checkpointed for r in resumed),
        "tiles_skipped": sum(r.tiles_skipped for r in resumed),
        "tasks_run_restart": sum(r.tasks_run for r in restarted),
        "tasks_run_resume": sum(r.tasks_run for r in resumed),
        "cluster_bytes_wire_restart": total(restarted, restart_env,
                                            "cluster_bytes_wire"),
        "cluster_bytes_wire_resume": total(resumed, resume_env,
                                           "cluster_bytes_wire"),
        "bytes_up_wire": sum(r.bytes_up_wire for r in resumed)
        + resume_env.bytes_up_wire,
        "bytes_down_wire": sum(r.bytes_down_wire for r in resumed)
        + resume_env.bytes_down_wire,
    }
    return {
        "schema": SCHEMA,
        "benchmark": "chaos_recovery",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": n,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_inference_wire_bytes(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Clause inference A/B: inferred maps vs the naive implicit default.

    For each of three Polybench workloads the naive region (every mapped
    array ``tofrom``, no partitions — what OpenMP's implicit default would
    ship) and its :func:`~repro.analysis.infer.infer_region` counterpart run
    as modeled offloads; ``wire_naive_<w>`` / ``wire_inferred_<w>``
    milestones record the total wire traffic of each, so CI can assert the
    synthesized clauses move strictly fewer bytes (docs/ANALYSIS.md).

    The instrumented run — providing the gated time milestones — is the
    inferred GEMM offload driven through the production path
    (``offload(..., infer_maps=True)`` on the naive region), so the
    ``map_inferred`` event and the ``repro_inferred_*`` counters land in the
    payload too.
    """
    from repro.analysis.infer import infer_region, naive_tofrom_region
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.workloads.specs import WORKLOADS

    names = ("gemm", "covar", "3mm")

    def run(region, scalars, infer_maps: bool = False):
        rt = OffloadRuntime()
        rt.register(CloudDevice(demo_config(n_workers), physical_cores=cores))
        mapped = {i.name for c in region.maps for i in c.items}
        return offload(region, scalars=scalars, runtime=rt,
                       densities={v: density for v in mapped},
                       mode=ExecutionMode.MODELED, infer_maps=infer_maps)

    milestones: dict[str, object] = {}
    gemm_naive = None
    gemm_scalars: dict[str, float] = {}
    for w in names:
        spec = WORKLOADS[w]
        n = size if size is not None else (
            spec.test_size if quick else spec.paper_size)
        scalars = spec.scalars(n)
        naive = naive_tofrom_region(spec.build_region("CLOUD"))
        rep = infer_region(naive, scalars)
        if rep.degraded:
            raise RuntimeError(
                f"{w}: inference degraded ({'; '.join(rep.reasons)})")
        naive_report = run(naive, scalars)
        inferred_report = run(rep.region, scalars)
        milestones[f"wire_naive_{w}"] = (
            naive_report.bytes_up_wire + naive_report.bytes_down_wire)
        milestones[f"wire_inferred_{w}"] = (
            inferred_report.bytes_up_wire + inferred_report.bytes_down_wire)
        if w == "gemm":
            gemm_naive, gemm_scalars = naive, scalars

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        gated = run(gemm_naive, gemm_scalars, infer_maps=True)

    milestones.update({
        "full_s": gated.full_s,
        "spark_job_s": gated.spark_job_s,
        "computation_s": gated.computation_s,
        "host_comm_s": gated.host_comm_s,
        "spark_overhead_s": gated.spark_overhead_s,
        "backoff_s": gated.backoff_s,
        "bytes_up_wire": gated.bytes_up_wire,
        "bytes_down_wire": gated.bytes_down_wire,
    })
    return {
        "schema": SCHEMA,
        "benchmark": "inference_wire_bytes",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": size,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_profile_attribution(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Critical-path profiler self-check: attribution must stay exact.

    Two scenarios run instrumented and get profiled
    (:func:`~repro.obs.profile.profile_report`):

    * **gemm** with ``manage_instances = true``, so the provider's billing
      ledger has real line items to attribute — this run provides the gated
      time milestones;
    * the **chained 3MM** environment (three offloads in one ``target
      data``), profiled per offload via the event stream's correlation ids.

    The runner raises on any violated profiler invariant rather than
    recording it, so the bench job fails loudly if attribution drifts:

    * every profile's critical path fits inside its wall clock;
    * phase self times (wait included) sum to the wall clock within 1 %;
    * the gemm critical path orders host upload before cluster init before
      host download (with compute in between when it makes the path);
    * at least 95 % of billed dollars and of the report's wire bytes land
      on named phases.
    """
    import dataclasses as _dc

    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.obs.profile import profile_offloads
    from repro.workloads.polybench import mm3_chain_regions
    from repro.workloads.specs import WORKLOADS

    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise RuntimeError(f"profile_attribution: {msg}")

    def check_exact(profile) -> None:
        eps = profile.graph.eps
        check(profile.critical_s <= profile.wall_s + eps,
              f"{profile.region}: critical path {profile.critical_s} "
              f"exceeds wall {profile.wall_s}")
        total = sum(profile.phase_self_s.values())
        check(abs(total - profile.wall_s) <= 0.01 * max(profile.wall_s, 1e-9),
              f"{profile.region}: phase self times sum to {total}, "
              f"wall is {profile.wall_s}")

    # ------------------------------------------------ gemm with real billing
    spec = WORKLOADS["gemm"]
    n = size if size is not None else (
        spec.test_size if quick else spec.paper_size)
    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    rt = OffloadRuntime()
    dev = CloudDevice(_dc.replace(demo_config(n_workers),
                                  manage_instances=True),
                      physical_cores=cores)
    rt.register(dev)
    with use_bus(bus):
        gemm = offload(spec.build_region("CLOUD"), scalars=spec.scalars(n),
                       runtime=rt, mode=ExecutionMode.MODELED,
                       densities={v: density for v in ("A", "B", "C")})
    prof = profile_offloads(bus, [gemm], ledger=dev.billing_ledger)[0]

    check_exact(prof)
    first: dict[str, int] = {}
    for pos, i in enumerate(prof.critical_indices):
        first.setdefault(prof.spans[i].phase.value, pos)
    for a, b in (("host_upload", "cluster_init"),
                 ("cluster_init", "host_download")):
        check(a in first and b in first and first[a] < first[b],
              f"gemm critical path out of order: {a} not before {b} "
              f"(chain phases {sorted(first, key=first.get)})")
    if "computation" in first:
        check(first["cluster_init"] < first["computation"]
              < first["host_download"],
              "gemm critical path: computation outside its window")
    check(prof.billed_usd > 0.0, "managed gemm run billed nothing")
    check(sum(prof.phase_usd.values()) >= 0.95 * prof.billed_usd,
          f"only {sum(prof.phase_usd.values())} of {prof.billed_usd} USD "
          "attributed to named phases")
    wire = gemm.bytes_up_wire + gemm.bytes_down_wire + gemm.cluster_bytes_wire
    attributed = sum(prof.phase_bytes_wire.values())
    check(attributed >= 0.95 * wire,
          f"only {attributed} of {wire} wire bytes attributed")

    # ------------------------------------------------------- chained 3MM env
    spec3 = WORKLOADS["3mm"]
    n3 = size if size is not None else (
        spec3.test_size if quick else spec3.paper_size)
    names = ("A", "B", "C", "D", "E", "F", "G")
    bus3 = EventBus(keep_history=True)
    rt3 = OffloadRuntime()
    rt3.register(CloudDevice(demo_config(n_workers), physical_cores=cores))
    reports: list = []
    with use_bus(bus3):
        with rt3.target_data(
                device="CLOUD",
                map_to={v: n3 * n3 for v in ("A", "B", "C", "D")},
                map_alloc={"E": n3 * n3, "F": n3 * n3},
                densities={v: density for v in names},
                mode=ExecutionMode.MODELED):
            for region in mm3_chain_regions("CLOUD"):
                reports.append(offload(
                    region, scalars={"N": n3}, runtime=rt3,
                    mode=ExecutionMode.MODELED,
                    lengths={v: n3 * n3 for v in names},
                    densities={v: density for v in names}))
    chain_profiles = profile_offloads(bus3, reports)
    check(len(chain_profiles) == 3, "expected three chained profiles")
    for cp in chain_profiles:
        check_exact(cp)
        check(bool(cp.correlation_id),
              f"{cp.region}: no correlation id paired")

    milestones = {
        # Gated: the instrumented managed gemm offload.
        "full_s": gemm.full_s,
        "spark_job_s": gemm.spark_job_s,
        "computation_s": gemm.computation_s,
        "host_comm_s": gemm.host_comm_s,
        "spark_overhead_s": gemm.spark_overhead_s,
        "backoff_s": gemm.backoff_s,
        # Informational: the profiler's own outputs, visible in the diff
        # whenever attribution shifts.
        "critical_path_s": prof.critical_s,
        "critical_share": prof.critical_share,
        "wait_s": prof.wait_s,
        "billed_usd": prof.billed_usd,
        "usd_attributed": sum(prof.phase_usd.values()),
        "bytes_wire_attributed": attributed,
        "chain_critical_s": sum(p.critical_s for p in chain_profiles),
        "chain_wait_s": sum(p.wait_s for p in chain_profiles),
        **{f"what_if_{w.name}_saved_s": w.saved_s
           for w in prof.what_if_scenarios()},
    }
    return {
        "schema": SCHEMA,
        "benchmark": "profile_attribution",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": n,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def run_fusion_wire_bytes(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Task-graph fusion A/B/C: fused vs managed vs unmanaged chained 3MM.

    The same three-region 3MM chain runs three ways (docs/TASKGRAPH.md):

    * **unmanaged** — the plain serial chain, no data environment: every
      intermediate crosses the WAN twice.
    * **managed** — the PR-4 headline: one persistent ``target data``
      environment keeps A..D and the alloc'd intermediates E, F resident,
      so nothing is re-uploaded — but each region is still its own Spark
      job, and E and F still round-trip through cloud storage between jobs.
    * **fused** — the same environment with ``nowait=True`` offloads
      flushed by one ``taskwait``: the planner fuses all three regions into
      a single Spark job whose intermediates live in driver memory and
      never touch storage.  This run is the instrumented one and provides
      the gated milestones.

    The runner *raises* on any violated superiority invariant rather than
    recording it, so the bench job fails loudly if fusion stops paying off:

    * the fused chain moves strictly fewer cluster-side wire bytes
      (task shipping + driver<->storage traffic) than the managed chain;
    * the fused chain's end-to-end simulated time is strictly below the
      managed chain's;
    * all three regions actually fused into one job with both
      intermediates elided.
    """
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.workloads.polybench import mm3_chain_regions
    from repro.workloads.specs import WORKLOADS

    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise RuntimeError(f"fusion_wire_bytes: {msg}")

    spec = WORKLOADS["3mm"]
    n = size if size is not None else (spec.test_size if quick else spec.paper_size)
    names = ("A", "B", "C", "D", "E", "F", "G")
    lengths = {v: n * n for v in names}
    densities = {v: density for v in names}

    def chain(managed: bool, fused: bool):
        rt = OffloadRuntime()
        rt.register(CloudDevice(demo_config(n_workers), physical_cores=cores))
        regions = mm3_chain_regions("CLOUD")
        reports: list = []

        def run_all():
            for region in regions:
                reports.append(offload(
                    region, scalars={"N": n}, runtime=rt,
                    mode=ExecutionMode.MODELED, nowait=fused,
                    lengths=lengths, densities=densities))
            if fused:
                # The handles are placeholders; the taskwait flush executes
                # the fused job and fills every member's (shared) report.
                reports[:] = rt.taskwait()

        if not managed:
            run_all()
            return reports, None
        with rt.target_data(
                device="CLOUD",
                map_to={v: n * n for v in ("A", "B", "C", "D")},
                map_alloc={"E": n * n, "F": n * n},
                densities=densities,
                mode=ExecutionMode.MODELED) as env:
            run_all()
        return reports, env.report

    unmanaged_reports, _ = chain(managed=False, fused=False)
    managed_reports, managed_env = chain(managed=True, fused=False)

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        fused_reports, fused_env = chain(managed=True, fused=True)

    def unique(reports):
        # Members of one fused job share a single report object.
        return list({id(r): r for r in reports}.values())

    def full(reports, env_report):
        out = sum(r.full_s for r in unique(reports))
        if env_report is not None:
            out += env_report.enter_s + env_report.exit_s + env_report.update_s
        return out

    def cluster_wire(reports):
        return sum(r.cluster_bytes_wire + r.storage_bytes_wire
                   for r in unique(reports))

    fused_unique = unique(fused_reports)
    check(len(fused_unique) == 1, f"expected one fused job report, got "
                                  f"{len(fused_unique)}")
    fused_rep = fused_unique[0]
    check(fused_rep.fused_regions == 3,
          f"expected all 3 regions fused, got {fused_rep.fused_regions} "
          f"(rejected: {fused_rep.fusion_rejected})")
    wire_fused = cluster_wire(fused_reports)
    wire_managed = cluster_wire(managed_reports)
    wire_unmanaged = cluster_wire(unmanaged_reports)
    check(wire_fused < wire_managed,
          f"fused chain moved {wire_fused} cluster wire bytes, managed "
          f"moved {wire_managed}")
    full_fused = full(fused_reports, fused_env)
    full_managed = full(managed_reports, managed_env)
    check(full_fused < full_managed,
          f"fused chain took {full_fused}s, managed took {full_managed}s")

    milestones = {
        # Gated: the fused chain is the product here.
        "full_s": full_fused,
        "spark_job_s": fused_rep.spark_job_s,
        "computation_s": fused_rep.computation_s,
        "host_comm_s": fused_rep.host_comm_s
        + fused_env.enter_s + fused_env.exit_s,
        "spark_overhead_s": fused_rep.spark_overhead_s,
        "backoff_s": fused_rep.backoff_s + fused_env.backoff_s,
        # Informational A/B/C milestones for the fusion assertions.
        "full_s_managed": full_managed,
        "full_s_unmanaged": full(unmanaged_reports, None),
        "cluster_storage_wire_fused": wire_fused,
        "cluster_storage_wire_managed": wire_managed,
        "cluster_storage_wire_unmanaged": wire_unmanaged,
        "fused_regions": fused_rep.fused_regions,
        "fusion_wire_bytes_saved": fused_rep.fusion_wire_bytes_saved,
        "bytes_up_wire": sum(r.bytes_up_wire for r in fused_unique)
        + fused_env.bytes_up_wire,
        "bytes_down_wire": sum(r.bytes_down_wire for r in fused_unique)
        + fused_env.bytes_down_wire,
    }
    return {
        "schema": SCHEMA,
        "benchmark": "fusion_wire_bytes",
        "params": {
            "cores": cores,
            "workers": n_workers,
            "density": density,
            "size": n,
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


#: Scaling-grid points: (workers, tasks, wall_budget_s).  The budget is a
#: *wall-clock* ceiling on one modeled offload of ``tasks`` one-iteration
#: tiles across ``workers`` nodes — the simulation-core scalability contract
#: documented in docs/PERFORMANCE.md.  Quick mode (CI) runs the small points;
#: full mode adds the tentpole 10k-worker / 1M-task point, which must
#: complete within 30 s of wall time.
SCALING_GRID_QUICK = (
    (100, 10_000, 30.0),
    (1_000, 100_000, 60.0),
)
SCALING_GRID_FULL = SCALING_GRID_QUICK + (
    (10_000, 1_000_000, 30.0),
)


def run_scaling(
    cores: int = 32,
    n_workers: int = 16,
    density: float = 1.0,
    size: int | None = None,
    quick: bool = False,
) -> dict[str, object]:
    """Simulation-core scaling: a workers × tasks grid of modeled offloads.

    Each grid point offloads one synthetic region of ``tasks`` single-
    iteration tiles (``schedule(static, 1)``, the worst case for scheduler
    overhead: every task pays selection, window evaluation, and span
    recording) to a ``workers``-node cluster, under
    :func:`~repro.simtime.timeline.coarse_timelines` and a zero-sigma
    straggler model — the configuration docs/PERFORMANCE.md prescribes for
    large sweeps.

    Two kinds of gate:

    * **simulated seconds** — the usual deterministic milestones, gated by
      :func:`compare` against the committed baseline like every other bench;
    * **wall clock** — each point must finish within its grid budget or the
      runner *raises*; scheduler-complexity regressions (anything
      super-linear creeping back into the per-task path) fail the bench job
      loudly instead of silently slowing CI.  ``REPRO_SCALING_WALL_SCALE``
      loosens the budgets on known-slow machines (e.g. ``=2.0`` doubles
      them); wall times are deliberately *not* written to the payload so
      bench JSON stays bit-deterministic.

    ``size`` overrides the grid with a single (``n_workers``, ``size``)
    point, handy for probing one configuration from the CLI.
    """
    import dataclasses
    from time import perf_counter

    from repro.core.api import ParallelLoop, TargetRegion, offload
    from repro.core.buffers import ExecutionMode
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config
    from repro.perfmodel.calibration import DEFAULT_CALIBRATION
    from repro.simtime import coarse_timelines

    if size is not None:
        grid = ((n_workers, int(size), float("inf")),)
    else:
        grid = SCALING_GRID_QUICK if quick else SCALING_GRID_FULL
    wall_scale = float(os.environ.get("REPRO_SCALING_WALL_SCALE", "1.0"))

    def region_for() -> TargetRegion:
        return TargetRegion(
            name="scale",
            pragmas=["omp target device(CLOUD)",
                     "omp map(to: A[:N*R]) map(from: C[:N*R])"],
            loops=[ParallelLoop(
                pragma="omp parallel for schedule(static, 1)",
                loop_var="i", trip_count="N",
                reads=("A",), writes=("C",),
                partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                                 "map(from: C[i*R:(i+1)*R])",
                flops_per_iter=1.0e6,
                body=None,
            )],
        )

    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=0.0)
    bus = EventBus(keep_history=False)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)

    points = []
    for workers, tasks, budget in grid:
        rt = OffloadRuntime()
        rt.register(CloudDevice(demo_config(workers),
                                physical_cores=workers * 8,
                                calibration=cal))
        # Every point runs with the bus attached, inside its wall budget:
        # the metrics of all points accumulate in the payload's registry
        # snapshot.  (The payload's "events" stay empty — this bus keeps no
        # history, so there is nothing for ``bus.counts()`` to count.)
        t0 = perf_counter()
        with use_bus(bus), coarse_timelines():
            rep = offload(region_for(), scalars={"N": tasks, "R": 4},
                          runtime=rt, mode=ExecutionMode.MODELED,
                          densities={"A": density, "C": density})
        wall = perf_counter() - t0
        if rep.tasks_run != tasks:
            raise RuntimeError(
                f"scaling: {workers}x{tasks}: expected {tasks} tasks, "
                f"scheduler ran {rep.tasks_run}")
        if wall > budget * wall_scale:
            raise RuntimeError(
                f"scaling: {workers} workers x {tasks} tasks took "
                f"{wall:.1f} s of wall time, budget {budget * wall_scale:.1f} s "
                f"— the simulation core has a complexity regression")
        points.append((workers, tasks, rep))

    # The largest grid point provides the gated simulated milestones.
    workers, tasks, rep = points[-1]
    milestones: dict[str, object] = {
        "full_s": rep.full_s,
        "spark_job_s": rep.spark_job_s,
        "computation_s": rep.computation_s,
        "host_comm_s": rep.host_comm_s,
        "spark_overhead_s": rep.spark_overhead_s,
        "backoff_s": rep.backoff_s,
        "bytes_up_wire": rep.bytes_up_wire,
        "bytes_down_wire": rep.bytes_down_wire,
    }
    for w, t, r in points:
        milestones[f"full_s_{w}w_{t}t"] = r.full_s
        milestones[f"overhead_per_task_us_{w}w_{t}t"] = (
            r.spark_overhead_s / t * 1e6)
    return {
        "schema": SCHEMA,
        "benchmark": "scaling",
        "params": {
            "cores": workers * 8,
            "workers": workers,
            "density": density,
            "size": tasks,
            "grid": [[w, t] for w, t, _ in grid],
            "mode": "modeled",
            "quick": quick,
        },
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


#: Multi-offload bench scenarios outside the single-region WORKLOADS registry.
EXTRA_BENCHMARKS = {
    "chained_3mm": run_chained_3mm,
    "ablation_speculation": run_ablation_speculation,
    "chaos_recovery": run_chaos_recovery,
    "inference_wire_bytes": run_inference_wire_bytes,
    "profile_attribution": run_profile_attribution,
    "fusion_wire_bytes": run_fusion_wire_bytes,
    "scaling": run_scaling,
}


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def write_bench(payload: dict[str, object], out_dir: str = ".") -> str:
    """Write ``BENCH_<benchmark>.json`` under ``out_dir``; returns the path."""
    path = os.path.join(out_dir, bench_filename(str(payload["benchmark"])))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench(path: str) -> dict[str, object]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r}, expected {SCHEMA!r}")
    return payload


@dataclass(frozen=True)
class Regression:
    """One milestone that grew past the threshold vs the baseline."""

    benchmark: str
    milestone: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        return (f"{self.benchmark}: {self.milestone} regressed "
                f"{self.baseline:.6g} -> {self.current:.6g} "
                f"({(self.ratio - 1.0) * 100.0:+.1f}%)")


def compare(
    baseline: dict[str, object],
    current: dict[str, object],
    threshold: float = 0.10,
) -> list[Regression]:
    """Milestones in ``current`` more than ``threshold`` above ``baseline``.

    Only the time milestones in :data:`REGRESSION_MILESTONES` gate —
    speedups and byte counts are informational.  An empty list means no
    regression.  Comparing different benchmarks is a usage error.
    """
    b_name = baseline.get("benchmark")
    c_name = current.get("benchmark")
    if b_name != c_name:
        raise ValueError(f"benchmark mismatch: baseline {b_name!r} vs "
                         f"current {c_name!r}")
    base_ms = baseline.get("milestones", {})
    cur_ms = current.get("milestones", {})
    assert isinstance(base_ms, dict) and isinstance(cur_ms, dict)
    out: list[Regression] = []
    for key in REGRESSION_MILESTONES:
        if key not in base_ms or key not in cur_ms:
            continue
        b = float(base_ms[key])
        c = float(cur_ms[key])
        if c > b * (1.0 + threshold) and c - b > ABS_SLACK_S:
            out.append(Regression(benchmark=str(c_name), milestone=key,
                                  baseline=b, current=c))
    return out
