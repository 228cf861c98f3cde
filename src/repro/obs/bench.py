"""Benchmark harness: instrumented paper runs gated by exact equality.

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
key that differs from it — see :func:`compare`.

Each scenario runner keeps only what is its own: its A/B arms, calibration
dry run, invariants and informational milestones.  The instrumented bus
(:func:`_instrumented`), the payload envelope (:func:`_payload`), the
milestone fold (:func:`_gated` / :func:`_wire`) and the chained-3MM
``target data`` program (:func:`run_mm3_chain`) are shared.  Imports of
``repro.core`` / ``repro.metrics`` stay inside the functions: ``repro.obs``
imports this module eagerly, and the runtime imports ``repro.obs``.
"""

from __future__ import annotations

import contextlib
import json
import os

from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber

SCHEMA = "repro-bench/1"

#: The keyed sections of a payload, each compared key by key.
_SECTIONS = ("params", "milestones", "events", "metrics")

#: The time milestones every runner reports for its instrumented run.
_GATED = ("full_s", "spark_job_s", "computation_s", "host_comm_s",
          "spark_overhead_s", "backoff_s")


@contextlib.contextmanager
def _instrumented(keep_history: bool = True):
    """Install a fresh bus feeding a fresh registry for the block; yields
    ``(bus, registry)``."""
    bus = EventBus(keep_history=keep_history)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        yield bus, registry


def _payload(name: str, milestones: dict[str, object], bus: EventBus,
             registry: MetricsRegistry, **params) -> dict[str, object]:
    """The ``repro-bench/1`` envelope around one runner's results."""
    return {
        "schema": SCHEMA,
        "benchmark": name,
        "params": {**params, "mode": "modeled"},
        "milestones": milestones,
        "events": bus.counts(),
        "metrics": registry.snapshot(),
    }


def _distinct(reports) -> list:
    """Members of one fused job share a single report object: keep it once."""
    return list({id(r): r for r in reports}.values())


def _sum(reports, attr: str):
    """``attr`` summed over the distinct reports."""
    return sum(getattr(r, attr) for r in _distinct(reports))


def _gated(reports, env=None) -> dict[str, object]:
    """The time milestones of one run: its reports' sums, plus the enter /
    exit / update time and backoff of its ``DataEnvReport`` if it has one."""
    ms = {k: _sum(reports, k) for k in _GATED}
    if env is not None:
        ms["full_s"] = ms["full_s"] + env.enter_s + env.exit_s + env.update_s
        ms["host_comm_s"] = ms["host_comm_s"] + env.enter_s + env.exit_s
        ms["backoff_s"] = ms["backoff_s"] + env.backoff_s
    return ms


def _wire(reports, env=None) -> dict[str, object]:
    """Host<->storage wire bytes of one run, its environment's included."""
    return {k: _sum(reports, k) + (getattr(env, k) if env is not None else 0)
            for k in ("bytes_up_wire", "bytes_down_wire")}


def _size(workload: str, size: int | None, quick: bool) -> int:
    """An explicit ``size`` wins; else the workload's test or paper size."""
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS[workload]
    if size is not None:
        return size
    return spec.test_size if quick else spec.paper_size


def _config(n_workers: int, **fields):
    """The offline demo configuration with ``fields`` replaced."""
    import dataclasses

    from repro.metrics.figures import demo_config

    return dataclasses.replace(demo_config(n_workers), **fields)


def _runtime(config, **device_kw):
    """A fresh runtime holding one ``CloudDevice(config, **device_kw)``."""
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime

    rt = OffloadRuntime()
    rt.register(CloudDevice(config, **device_kw))
    return rt


def _offload(region, scalars, config, density: float | None = None, *,
             infer_maps: bool = False, **device_kw):
    """One modeled offload of ``region`` on a fresh :func:`_runtime`;
    ``density`` (when given) applies to every mapped array.  Returns
    ``(device, report)``."""
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode

    rt = _runtime(config, **device_kw)
    densities = None if density is None else {
        i.name: density for c in region.maps for i in c.items}
    report = offload(region, scalars=scalars, runtime=rt,
                     mode=ExecutionMode.MODELED, densities=densities,
                     infer_maps=infer_maps)
    return rt.device("CLOUD"), report


def run_mm3_chain(n: int, density: float, *, managed: bool = True,
                  nowait: bool = False, config=None, **device_kw):
    """3MM as three chained modeled offloads on a fresh cloud device.

    ``managed`` wraps the chain in one persistent ``target data``
    environment that maps A..D ``to`` and the intermediates E, F ``alloc``,
    so later products re-read them in place; ``nowait`` defers the three
    regions and flushes them with one ``taskwait``, where the planner fuses
    them (members of a fused job share one report).  ``config`` defaults to
    the offline demo configuration; ``device_kw`` goes to ``CloudDevice``.

    Returns ``(device, reports, env_report)`` — ``env_report`` is the
    environment's ``DataEnvReport``, or None when unmanaged.
    """
    from repro.core.api import offload
    from repro.core.buffers import ExecutionMode
    from repro.workloads.polybench import mm3_chain_regions

    rt = _runtime(config if config is not None else _config(16), **device_kw)
    names = ("A", "B", "C", "D", "E", "F", "G")
    lengths = {v: n * n for v in names}
    densities = {v: density for v in names}
    env = rt.target_data(
        device="CLOUD",
        map_to={v: n * n for v in ("A", "B", "C", "D")},
        map_alloc={"E": n * n, "F": n * n},
        densities=densities,
        mode=ExecutionMode.MODELED) if managed else contextlib.nullcontext()
    with env as scope:
        reports = [offload(region, scalars={"N": n}, runtime=rt,
                           mode=ExecutionMode.MODELED, nowait=nowait,
                           lengths=lengths, densities=densities)
                   for region in mm3_chain_regions("CLOUD")]
        if nowait:
            # The handles are placeholders; the taskwait flush executes the
            # fused job and fills every member's (shared) report.
            reports = rt.taskwait()
    return rt.device("CLOUD"), reports, scope.report if managed else None


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

    extra = EXTRA_BENCHMARKS.get(name)
    if extra is not None:
        return extra(cores=cores, n_workers=n_workers, density=density,
                     size=size, quick=quick)
    n = _size(name, size, quick)
    with _instrumented() as (bus, registry):
        point = run_point(name, cores, density=density, size=n,
                          n_workers=n_workers)
    milestones = {
        **_gated([point.report]),
        "sequential_s": point.sequential_s,
        "speedup_full": point.speedup_full,
        "speedup_spark": point.speedup_spark,
        "speedup_computation": point.speedup_computation,
        **_wire([point.report]),
    }
    return _payload(name, milestones, bus, registry, cores=cores,
                    workers=n_workers, density=density, size=n, quick=quick)


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
    n = _size("3mm", size, quick)
    with _instrumented() as (bus, registry):
        _, reports, env = run_mm3_chain(n, density, config=_config(n_workers),
                                        physical_cores=cores)
    _, bare, _ = run_mm3_chain(n, density, managed=False,
                               config=_config(n_workers), physical_cores=cores)
    milestones = {
        **_gated(reports, env),
        "env_enter_s": env.enter_s,
        "env_exit_s": env.exit_s,
        "resident_hits": _sum(reports, "resident_hits"),
        "bytes_not_retransferred": _sum(reports, "bytes_not_retransferred"),
        **_wire(reports, env),
        "bytes_up_wire_unmanaged": _sum(bare, "bytes_up_wire"),
    }
    return _payload("chained_3mm", milestones, bus, registry, cores=cores,
                    workers=n_workers, density=density, size=n, quick=quick)


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
    from repro.simtime.timeline import Phase
    from repro.spark.faults import FaultPlan
    from repro.spark.schedule import ScheduleConfig
    from repro.workloads.specs import WORKLOADS

    spec = WORKLOADS["matmul"]
    n = size if size is not None else (800 if quick else 2000)

    def run(schedule: ScheduleConfig, **device_kw):
        return _offload(spec.build_region("CLOUD"), spec.scalars(n),
                        _config(n_workers), physical_cores=cores,
                        schedule=schedule, **device_kw)[1]

    static = ScheduleConfig()

    # Calibrate the preemption from a fault-free dry run: kill the worker
    # running the latest-starting compute span, 90% of the way through it.
    dry = run(static)
    victim = max((s for s in dry.timeline.spans if s.phase is Phase.COMPUTE),
                 key=lambda s: (s.start, s.resource))
    preempt_t = victim.start + 0.9 * max(victim.duration, 0.0)
    plan = FaultPlan(preempt_at={victim.resource: preempt_t})

    nospec = run(static, fault_plan=plan)
    with _instrumented() as (bus, registry):
        rescued = run(ScheduleConfig(speculation=True), fault_plan=plan)

    # Heterogeneous cluster: the second executor runs at half speed.
    speeds = (1.0, 0.5)
    static_het = run(static, worker_speeds=speeds)
    weighted_het = run(ScheduleConfig(mode="weighted"), worker_speeds=speeds)

    milestones = {
        # Gated: the speculative run under preemption is the product here.
        **_gated([rescued]),
        # Informational A/B milestones for the ablation assertions.
        "full_s_nospec": nospec.full_s,
        "speculation_saved_s": rescued.speculation_saved_s,
        "tasks_speculated": rescued.tasks_speculated,
        "speculation_wins": rescued.speculation_wins,
        "full_s_static_het": static_het.full_s,
        "full_s_weighted_het": weighted_het.full_s,
        "preempt_at_s": preempt_t,
    }
    return _payload("ablation_speculation", milestones, bus, registry,
                    cores=cores, workers=n_workers, density=density, size=n,
                    quick=quick)


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
      completion, ``recovery = restart``: the standby driver re-executes
      every tile (PR-1-shaped recovery, minus the host fallback).
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
    from repro.spark.faults import NO_FAULTS, FaultPlan

    n = _size("3mm", size, quick)

    def chain(recovery: str, fault_plan: FaultPlan = NO_FAULTS):
        return run_mm3_chain(n, density,
                             config=_config(n_workers, recovery=recovery),
                             physical_cores=cores, fault_plan=fault_plan)

    # Calibrate: a fault-free dry run journals every tile commit; kill the
    # driver at the median, i.e. at ~50 % tile completion across the chain.
    dry_dev, _, _ = chain("resume")
    ends = sorted(r.payload["end"] for r in dry_dev.journal.records("tile_done"))
    death_at = ends[len(ends) // 2]
    plan = FaultPlan(driver_dies_at=death_at)

    _, healthy, healthy_env = chain("none")
    _, restarted, restart_env = chain("restart", plan)
    with _instrumented() as (bus, registry):
        _, resumed, resume_env = chain("resume", plan)

    milestones = {
        # Gated: the resumed chain under a driver death is the product here.
        **_gated(resumed, resume_env),
        # Informational A/B milestones for the recovery assertions.
        "death_at_s": death_at,
        "full_s_healthy": _gated(healthy, healthy_env)["full_s"],
        "full_s_restart": _gated(restarted, restart_env)["full_s"],
        "tiles_checkpointed": _sum(resumed, "tiles_checkpointed"),
        "tiles_skipped": _sum(resumed, "tiles_skipped"),
        "tasks_run_restart": _sum(restarted, "tasks_run"),
        "tasks_run_resume": _sum(resumed, "tasks_run"),
        "cluster_bytes_wire_restart": _sum(restarted, "cluster_bytes_wire"),
        "cluster_bytes_wire_resume": _sum(resumed, "cluster_bytes_wire"),
        **_wire(resumed, resume_env),
    }
    return _payload("chaos_recovery", milestones, bus, registry, cores=cores,
                    workers=n_workers, density=density, size=n, quick=quick)


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
    from repro.workloads.specs import WORKLOADS

    def run(region, scalars, infer_maps: bool = False):
        return _offload(region, scalars, _config(n_workers), density,
                        infer_maps=infer_maps, physical_cores=cores)[1]

    milestones: dict[str, object] = {}
    for w in ("gemm", "covar", "3mm"):
        spec = WORKLOADS[w]
        scalars = spec.scalars(_size(w, size, quick))
        naive = naive_tofrom_region(spec.build_region("CLOUD"))
        rep = infer_region(naive, scalars)
        if rep.degraded:
            raise RuntimeError(
                f"{w}: inference degraded ({'; '.join(rep.reasons)})")
        for arm, region in (("naive", naive), ("inferred", rep.region)):
            report = run(region, scalars)
            milestones[f"wire_{arm}_{w}"] = (
                report.bytes_up_wire + report.bytes_down_wire)
        if w == "gemm":
            gemm_naive, gemm_scalars = naive, scalars

    with _instrumented() as (bus, registry):
        gated = run(gemm_naive, gemm_scalars, infer_maps=True)
    milestones.update(_gated([gated]), **_wire([gated]))
    return _payload("inference_wire_bytes", milestones, bus, registry,
                    cores=cores, workers=n_workers, density=density,
                    size=size, quick=quick)


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
    from repro.obs.profile import profile_offloads
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
    n = _size("gemm", size, quick)
    with _instrumented() as (bus, registry):
        dev, gemm = _offload(spec.build_region("CLOUD"), spec.scalars(n),
                             _config(n_workers, manage_instances=True),
                             density, physical_cores=cores)
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
    with _instrumented() as (bus3, _):
        _, reports, _ = run_mm3_chain(_size("3mm", size, quick), density,
                                      config=_config(n_workers),
                                      physical_cores=cores)
    chain_profiles = profile_offloads(bus3, reports)
    check(len(chain_profiles) == 3, "expected three chained profiles")
    for cp in chain_profiles:
        check_exact(cp)
        check(bool(cp.correlation_id),
              f"{cp.region}: no correlation id paired")

    milestones = {
        # Gated: the instrumented managed gemm offload.
        **_gated([gemm]),
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
    return _payload("profile_attribution", milestones, bus, registry,
                    cores=cores, workers=n_workers, density=density, size=n,
                    quick=quick)


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
    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise RuntimeError(f"fusion_wire_bytes: {msg}")

    n = _size("3mm", size, quick)

    def chain(**kw):
        _, reports, env = run_mm3_chain(n, density, config=_config(n_workers),
                                        physical_cores=cores, **kw)
        return reports, env

    def cluster_wire(reports):
        return (_sum(reports, "cluster_bytes_wire")
                + _sum(reports, "storage_bytes_wire"))

    unmanaged, _ = chain(managed=False)
    managed, managed_env = chain()
    with _instrumented() as (bus, registry):
        fused, fused_env = chain(nowait=True)

    fused_unique = _distinct(fused)
    check(len(fused_unique) == 1,
          f"expected one fused job report, got {len(fused_unique)}")
    fused_rep = fused_unique[0]
    check(fused_rep.fused_regions == 3,
          f"expected all 3 regions fused, got {fused_rep.fused_regions} "
          f"(rejected: {fused_rep.fusion_rejected})")
    wire_fused = cluster_wire(fused)
    wire_managed = cluster_wire(managed)
    check(wire_fused < wire_managed,
          f"fused chain moved {wire_fused} cluster wire bytes, managed "
          f"moved {wire_managed}")
    gated = _gated(fused, fused_env)
    full_managed = _gated(managed, managed_env)["full_s"]
    check(gated["full_s"] < full_managed,
          f"fused chain took {gated['full_s']}s, managed took "
          f"{full_managed}s")

    milestones = {
        # Gated: the fused chain is the product here.
        **gated,
        # Informational A/B/C milestones for the fusion assertions.
        "full_s_managed": full_managed,
        "full_s_unmanaged": _gated(unmanaged)["full_s"],
        "cluster_storage_wire_fused": wire_fused,
        "cluster_storage_wire_managed": wire_managed,
        "cluster_storage_wire_unmanaged": cluster_wire(unmanaged),
        "fused_regions": fused_rep.fused_regions,
        "fusion_wire_bytes_saved": fused_rep.fusion_wire_bytes_saved,
        **_wire(fused, fused_env),
    }
    return _payload("fusion_wire_bytes", milestones, bus, registry,
                    cores=cores, workers=n_workers, density=density, size=n,
                    quick=quick)


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
    recording) to a ``workers``-node cluster under a zero-sigma straggler
    model.  Each point's report must hold exactly ``tasks`` COMPUTE spans,
    counted from the timeline's columns without building a span.

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
    from repro.perfmodel.calibration import DEFAULT_CALIBRATION
    from repro.simtime.timeline import Phase

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
    points = []
    # Every point runs with the bus attached, inside its wall budget: the
    # metrics of all points accumulate in the payload's registry snapshot.
    # (The payload's "events" stay empty — this bus keeps no history, so
    # there is nothing for ``bus.counts()`` to count.)
    with _instrumented(keep_history=False) as (bus, registry):
        for workers, tasks, budget in grid:
            rt = _runtime(_config(workers), physical_cores=workers * 8,
                          calibration=cal)
            t0 = perf_counter()
            rep = offload(region_for(), scalars={"N": tasks, "R": 4},
                          runtime=rt, mode=ExecutionMode.MODELED,
                          densities={"A": density, "C": density})
            wall = perf_counter() - t0
            if rep.tasks_run != tasks:
                raise RuntimeError(
                    f"scaling: {workers}x{tasks}: expected {tasks} tasks, "
                    f"scheduler ran {rep.tasks_run}")
            computes = len(rep.timeline.filter([Phase.COMPUTE]))
            if computes != tasks:
                raise RuntimeError(
                    f"scaling: {workers}x{tasks}: expected {tasks} COMPUTE "
                    f"spans, the timeline holds {computes}")
            if wall > budget * wall_scale:
                raise RuntimeError(
                    f"scaling: {workers} workers x {tasks} tasks took "
                    f"{wall:.1f} s of wall time, budget "
                    f"{budget * wall_scale:.1f} s — the simulation core has "
                    f"a complexity regression")
            points.append((workers, tasks, rep))

    # The largest grid point provides the gated simulated milestones.
    workers, tasks, rep = points[-1]
    milestones = {**_gated([rep]), **_wire([rep])}
    for w, t, r in points:
        milestones[f"full_s_{w}w_{t}t"] = r.full_s
        milestones[f"overhead_per_task_us_{w}w_{t}t"] = (
            r.spark_overhead_s / t * 1e6)
    return _payload("scaling", milestones, bus, registry, cores=workers * 8,
                    workers=workers, density=density, size=tasks,
                    grid=[[w, t] for w, t, _ in grid], quick=quick)


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
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"{path}: schema {schema!r}, expected {SCHEMA!r}")
    bad = [s for s in _SECTIONS if not isinstance(payload.get(s, {}), dict)]
    if bad:
        raise ValueError(f"{path}: {', '.join(bad)} must be JSON objects")
    return payload


def compare(baseline: dict[str, object],
            current: dict[str, object]) -> list[str]:
    """Every key on which ``current`` differs from ``baseline``.

    Modeled runs are bit-deterministic, so nothing is tolerated: each
    ``params`` / ``milestones`` / ``events`` key whose value differs (or is
    present on one side only) yields one line naming it, and so does each
    metric family whose snapshot differs.  Values compare by their JSON
    serialization, i.e. exactly what ``cmp`` on two written files sees.  An
    empty list means identical.  Comparing different benchmarks is a usage
    error.
    """
    name = current.get("benchmark")
    if baseline.get("benchmark") != name:
        raise ValueError(f"benchmark mismatch: baseline "
                         f"{baseline.get('benchmark')!r} vs current {name!r}")

    def canon(value) -> str:
        return json.dumps(value, sort_keys=True)

    out: list[str] = []
    for section in _SECTIONS:
        old, new = baseline.get(section, {}), current.get(section, {})
        for key in sorted(old.keys() | new.keys()):
            was = canon(old[key]) if key in old else "absent"
            now = canon(new[key]) if key in new else "absent"
            if was != now:
                out.append(f"{name}: {section}.{key} " + (
                    "differs" if section == "metrics" else f"{was} -> {now}"))
    return out
