"""The target-agnostic offloading wrapper (libomptarget's role).

Responsible for "the detection of the available devices, the creation of
devices' data environments, the execution of the right offloading function
according to the device type", exposing the user-level routines
(``omp_get_num_devices``) and the compiler-level entry point (``__tgt_target``
here spelled :meth:`OffloadRuntime.target`).

The cloud is special in one way the paper stresses: it "cannot be detected
automatically since [it is] not physically hosted at the local computer", so
cloud devices are *registered from configuration*, and offloading falls back
to the host when the device reports itself unavailable.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from repro.core.api import RegionError, TargetRegion
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.data_env import DataEnvError, DataEnvReport
from repro.core.device import Device, DeviceError
from repro.core.exprs import ExprError
from repro.core.omp_ast import MapType
from repro.core.report import OffloadReport
from repro.core.taskgraph import (
    Depend,
    FusionGroup,
    GraphNode,
    PendingRegion,
    TaskGraphPlan,
    TaskHandle,
    build_plan,
    merge_group,
)
from repro.obs.events import (
    DataEnvEnter,
    DataEnvExit,
    Fallback,
    MapInferred,
    RegionFused,
    TargetBegin,
    TargetEnd,
    TaskwaitBegin,
    TaskwaitEnd,
    get_bus,
)

#: Reserved device id for the initial (host) device, as in OpenMP.
DEVICE_HOST = 0

#: What a map clause of :meth:`OffloadRuntime.target_data` accepts per name:
#: a host ndarray, a length (virtual buffer, modeled mode), or a Buffer.
MapValue = Union[np.ndarray, int, Buffer]


class TargetDataScope:
    """One live ``target data`` environment.

    Returned by :meth:`OffloadRuntime.target_data_begin` (and yielded by the
    :meth:`OffloadRuntime.target_data` context manager).  Holds the device
    the environment lives on, the mapped buffers, and the running
    :class:`~repro.core.data_env.DataEnvReport` that accounts every byte the
    environment itself moved.
    """

    def __init__(self, runtime: "OffloadRuntime", device: Device,
                 buffers: dict[str, Buffer], map_types: dict[str, MapType],
                 mode: ExecutionMode, report: DataEnvReport) -> None:
        self.runtime = runtime
        self.device = device
        self.buffers = buffers
        self.map_types = map_types
        self.mode = mode
        self.report = report
        self.active = True

    @property
    def device_name(self) -> str:
        return self.device.name

    def is_present(self, name: str) -> bool:
        """``omp_target_is_present``: does the device hold a map entry?"""
        return self.device.env.is_mapped(name)

    def update(self, *, to: "str | Iterable[str] | None" = None,
               from_: "str | Iterable[str] | None" = None) -> DataEnvReport:
        """``target update`` against this environment."""
        return self.runtime.target_update(self, to=to, from_=from_)

    def close(self) -> DataEnvReport:
        """``target data`` end (idempotent)."""
        return self.runtime.target_data_end(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "active" if self.active else "closed"
        return (f"TargetDataScope({self.device_name}, "
                f"{sorted(self.buffers)}, {state})")


class OffloadRuntime:
    """Device table + offload dispatch."""

    _default: "OffloadRuntime | None" = None

    def __init__(self) -> None:
        from repro.core.plugin_host import HostDevice

        self._devices: list[Device] = []
        self.offloads = 0
        self.fallbacks = 0
        self._default_device = DEVICE_HOST
        #: Deferred (``nowait``) offloads awaiting the next ``taskwait``.
        self._pending: list[PendingRegion] = []
        self.register(HostDevice())

    # ---------------------------------------------------------- device table
    def register(self, device: Device) -> int:
        """Add a device; returns its device id."""
        device.device_id = len(self._devices)
        self._devices.append(device)
        return device.device_id

    def num_devices(self) -> int:
        """omp_get_num_devices(): devices *besides* the host."""
        return len(self._devices) - 1

    def device(self, ident: Union[int, str]) -> Device:
        """Look a device up by id or by name (e.g. ``"CLOUD"``)."""
        if isinstance(ident, int):
            if not 0 <= ident < len(self._devices):
                raise DeviceError(f"no device with id {ident}")
            return self._devices[ident]
        for d in self._devices:
            if d.name == ident:
                return d
        raise DeviceError(f"no device named {ident!r}")

    @property
    def host(self) -> Device:
        return self._devices[DEVICE_HOST]

    # ----------------------------------------------- default-device routines
    def set_default_device(self, ident: Union[int, str]) -> None:
        """omp_set_default_device(): regions without a device clause go here."""
        self._default_device = self.device(ident).device_id

    def get_default_device(self) -> int:
        """omp_get_default_device()."""
        return self._default_device

    # -------------------------------------------------------------- offload
    def target(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode = ExecutionMode.FUNCTIONAL,
        device: Union[int, str, None] = None,
        infer_maps: bool = False,
    ):
        """``__tgt_target``: run ``region`` on its requested device.

        Device selection: the ``device`` argument when given (id or name),
        else the region's ``device(...)`` clause by name, else the
        default device (``omp_set_default_device``; initially the host).
        An unavailable device (cloud unreachable, bad
        credentials...) silently falls back to host execution, matching the
        dynamic-offloading behaviour of Figure 1, step 1.  A device that
        *fails mid-offload* — retries and resubmissions exhausted, raising
        :class:`DeviceError` — degrades the same way, with a warning: the
        region reruns on the host and the merged report records the failed
        attempt's recovery counters.

        When the selected device's configuration enables strict analysis
        (``[Analysis] strict = true``), the static verifier runs here —
        after device selection, before any data movement — and a region
        with blocking findings raises
        :class:`~repro.analysis.AnalysisError` without uploading a byte.
        Verification failure is deliberately *not* a :class:`DeviceError`:
        a broken region is broken on the host too, so no fallback.

        Observability: every offload runs inside an
        :meth:`~repro.obs.events.EventBus.offload_scope`, so each event any
        layer emits below this frame carries the offload's correlation id.
        The runtime itself emits ``TargetBegin``/``TargetEnd`` (the OMPT
        target callbacks) and ``Fallback`` at both degradation sites.
        """
        bus = get_bus()
        with bus.offload_scope(region.name):
            try:
                report = self._target(region, buffers, scalars, mode, bus,
                                      device, infer_maps)
            except BaseException:
                bus.emit(TargetEnd(region=region.name, ok=False))
                raise
            bus.emit(TargetEnd(
                time=report.timeline.spans[-1].end if len(report.timeline) else 0.0,
                resource=report.device_name,
                region=region.name,
                device=report.device_name,
                ok=True,
                fell_back=report.fell_back_to_host,
                full_s=report.full_s,
            ))
            return report

    # ----------------------------------------------------- deferred offloads
    def target_nowait(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode = ExecutionMode.FUNCTIONAL,
        device: Union[int, str, None] = None,
        infer_maps: bool = False,
        depend: "Depend | None" = None,
        strict: bool = False,
    ) -> TaskHandle:
        """``__tgt_target_nowait``: defer ``region`` as a target task.

        Nothing executes here — the region joins the runtime's deferred
        queue and runs at the next synchronization point
        (:meth:`taskwait`, an explicit ``TaskHandle.wait()``, or the end of
        the enclosing ``target data`` environment).  The planner in
        :mod:`repro.core.taskgraph` orders the queue by ``depend`` clauses
        and inferred buffer dataflow, and fuses compatible chains into
        single Spark jobs.
        """
        handle = TaskHandle(region.name, self)
        self._pending.append(PendingRegion(
            region=region, buffers=dict(buffers), scalars=dict(scalars),
            mode=mode, device=device, infer_maps=infer_maps, strict=strict,
            depend=depend, handle=handle))
        return handle

    def taskwait(
        self, *, _update_names: frozenset[str] = frozenset(),
    ) -> list[OffloadReport]:
        """``#pragma omp taskwait``: flush every deferred (``nowait``) region.

        Builds the region DAG, fuses what the legality rules allow, and
        executes the resulting groups wave by wave (a wave holds mutually
        independent groups).  Returns the reports in original queue order;
        members of a fused group share their fused job's report.  A no-op
        (no events, no work) when nothing is pending, so synchronous
        programs are byte-for-byte unaffected.
        """
        pending = self._pending
        if not pending:
            return []
        self._pending = []
        bus = get_bus()
        devices = [self._select_device(p.region, p.device) for p in pending]
        for dev in devices:
            dev.initialize()
        nodes = [
            GraphNode(
                index=i, region=p.region, device=dev.name,
                host=dev is self.host or not dev.is_available(),
                mode=p.mode.value, strict=p.strict, depend=p.depend,
                scalars=dict(p.scalars),
                nbytes={name: buf.nbytes for name, buf in p.buffers.items()},
            )
            for i, (p, dev) in enumerate(zip(pending, devices))
        ]

        def resident(device_name: str, name: str) -> "str | None":
            try:
                dev = self.device(device_name)
            except DeviceError:
                return None
            env = getattr(dev, "env", None)
            if env is None:
                return None
            entry = env.entry_or_none(name)
            return entry.map_type.value if entry is not None else None

        plan = build_plan(nodes, resident=resident,
                          update_names=_update_names)
        now = max((self._device_now(d) for d in devices), default=0.0)
        bus.emit(TaskwaitBegin(time=now, resource="host",
                               pending=len(pending)))
        fused_jobs = 0
        try:
            for wave in plan.waves:
                for gi in wave:
                    group = plan.groups[gi]
                    if group.fused:
                        if self._run_fused(pending, plan, group, bus):
                            fused_jobs += 1
                    else:
                        p = pending[group.members[0]]
                        report = self.target(
                            p.region, p.buffers, p.scalars, mode=p.mode,
                            device=p.device, infer_maps=p.infer_maps)
                        report.fusion_rejected += self._rejections_for(
                            p.region.name, plan)
                        p.handle.report = report
        finally:
            now = max((self._device_now(d) for d in devices), default=0.0)
            bus.emit(TaskwaitEnd(time=now, resource="host",
                                 regions=len(pending), fused_jobs=fused_jobs,
                                 waves=len(plan.waves)))
        return [p.handle.report for p in pending
                if p.handle.report is not None]

    @staticmethod
    def _rejections_for(name: str, plan: TaskGraphPlan) -> tuple:
        return tuple(("+".join(group), reason)
                     for group, reason in plan.rejected if name in group)

    def _run_fused(self, pending: "list[PendingRegion]", plan: TaskGraphPlan,
                   group: FusionGroup, bus) -> bool:
        """Execute one fused group as a single offload; on a late legality
        failure (merge error, strict verification, conflicting buffers) the
        members degrade to unfused serialized execution with the rejection
        reason surfaced on each report.  Returns True when the group ran
        fused."""
        members = [plan.nodes[i] for i in group.members]
        pmembers = [pending[i] for i in group.members]
        scalars: dict[str, Union[int, float]] = {}
        for p in pmembers:
            scalars.update(p.scalars)
        reason: "str | None" = None
        merged = None
        seen: dict[str, Buffer] = {}
        for p in pmembers:
            for name, buf in p.buffers.items():
                prev = seen.setdefault(name, buf)
                if prev is buf:
                    continue
                same = (prev.is_virtual == buf.is_virtual
                        and prev.nbytes == buf.nbytes
                        and (prev.is_virtual or prev.data is buf.data))
                if not same:
                    reason = "buffer-conflict"
        if reason is None:
            try:
                merged = merge_group(members, group.elided, scalars)
            except (RegionError, ExprError) as exc:
                reason = f"analysis-failure: {exc}"
        if merged is not None and any(p.strict for p in pmembers):
            from repro.analysis import AnalysisError, enforce_strict

            try:
                enforce_strict(merged, scalars)
            except AnalysisError:
                reason = "strict-analysis-failure"
        if reason is not None or merged is None:
            label = "+".join(m.region.name for m in members)
            for p in pmembers:
                report = self.target(
                    p.region, p.buffers, p.scalars, mode=p.mode,
                    device=p.device, infer_maps=p.infer_maps)
                report.fusion_rejected += (
                    (label, reason or "analysis-failure"),)
                p.handle.report = report
            return False
        mapped = {i.name for c in merged.maps for i in c.items}
        buffers: dict[str, Buffer] = {}
        for p in pmembers:
            for name, buf in p.buffers.items():
                if name in mapped and name not in buffers:
                    buffers[name] = buf
        first = pmembers[0]
        dev = self._select_device(merged, first.device)
        bus.emit(RegionFused(
            time=self._device_now(dev), resource=dev.name,
            region=merged.name, members=merged.fused_members,
            device=members[0].device, wave=group.wave,
            elided=group.elided, bytes_saved=group.bytes_saved))
        report = self.target(merged, buffers, scalars, mode=first.mode,
                             device=first.device, infer_maps=False)
        report.fused_regions = len(members)
        report.fusion_wire_bytes_saved = group.bytes_saved
        for p in pmembers:
            p.handle.report = report
            p.handle.fused_into = merged.name
        return True

    # ------------------------------------------- persistent data environments
    def target_data_begin(
        self,
        device: Union[int, str, None] = None,
        *,
        map_to: Mapping[str, MapValue] | None = None,
        map_from: Mapping[str, MapValue] | None = None,
        map_tofrom: Mapping[str, MapValue] | None = None,
        map_alloc: Mapping[str, MapValue] | None = None,
        densities: Mapping[str, float] | None = None,
        mode: ExecutionMode | None = None,
    ) -> TargetDataScope:
        """``__tgt_target_data_begin``: open a persistent data environment.

        Each map clause takes ``{name: value}`` where ``value`` is a host
        ndarray (functional mode), a length in elements (virtual buffer,
        modeled mode), or a prebuilt :class:`Buffer`.  ``mode`` is inferred
        from the buffers when not given.  Targets run between begin and end
        find these buffers *present* and skip their transfers; ``from`` /
        ``tofrom`` outputs stay on the device until the matching end or an
        explicit :meth:`target_update`.

        An unavailable or failing device degrades to the host (with a
        ``Fallback`` event), mirroring :meth:`target`: the environment then
        lives on the host, where presence costs nothing.
        """
        buffers, map_types = self._data_buffers(
            map_to, map_from, map_tofrom, map_alloc, densities)
        if mode is None:
            mode = (ExecutionMode.MODELED
                    if any(b.is_virtual for b in buffers.values())
                    else ExecutionMode.FUNCTIONAL)
        bus = get_bus()
        dev = self._resolve_device(device)
        dev.initialize()
        if dev is not self.host and not dev.is_available():
            self.fallbacks += 1
            bus.emit(Fallback(time=self._device_now(dev), resource="host",
                              region="target_data", device=dev.name,
                              reason="device unavailable"))
            dev = self.host
            dev.initialize()
        report = DataEnvReport(device_name=dev.name, mode=mode.value)
        if dev is self.host:
            dev.enter_data(buffers, map_types, mode, report)
        else:
            try:
                dev.enter_data(buffers, map_types, mode, report)
            except DeviceError as exc:
                warnings.warn(
                    f"target data on {dev.name} failed ({exc}); "
                    f"falling back to a host data environment",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.fallbacks += 1
                bus.emit(Fallback(time=self._device_now(dev), resource="host",
                                  region="target_data", device=dev.name,
                                  reason=str(exc)))
                dev = self.host
                dev.initialize()
                report = DataEnvReport(device_name=dev.name, mode=mode.value)
                dev.enter_data(buffers, map_types, mode, report)
        bus.emit(DataEnvEnter(time=self._device_now(dev), resource=dev.name,
                              device=dev.name, buffers=len(buffers),
                              bytes_to=report.bytes_up_raw,
                              resident=report.resident_hits))
        return TargetDataScope(self, dev, buffers, map_types, mode, report)

    def target_data_end(self, scope: TargetDataScope) -> DataEnvReport:
        """``__tgt_target_data_end``: close the environment (idempotent),
        downloading dirty ``from``/``tofrom`` outputs into the host arrays.

        Deferred (``nowait``) offloads still pending are flushed first — the
        end of a data environment is a synchronization point, exactly like
        the implicit barrier libomptarget honours before tearing down the
        device mappings."""
        if not scope.active:
            return scope.report
        if self._pending:
            self.taskwait()
        scope.active = False
        dev = scope.device
        down_before = scope.report.bytes_down_raw
        dev.exit_data(list(scope.buffers), scope.mode, scope.report)
        get_bus().emit(DataEnvExit(
            time=self._device_now(dev), resource=dev.name, device=dev.name,
            buffers=len(scope.buffers),
            bytes_from=scope.report.bytes_down_raw - down_before))
        return scope.report

    @contextlib.contextmanager
    def target_data(
        self,
        device: Union[int, str, None] = None,
        *,
        map_to: Mapping[str, MapValue] | None = None,
        map_from: Mapping[str, MapValue] | None = None,
        map_tofrom: Mapping[str, MapValue] | None = None,
        map_alloc: Mapping[str, MapValue] | None = None,
        densities: Mapping[str, float] | None = None,
        mode: ExecutionMode | None = None,
    ):
        """``#pragma omp target data``, as a context manager::

            with rt.target_data(device="CLOUD", map_to={"A": a, "B": b},
                                map_alloc={"E": n * n}) as env:
                offload(region1, ...)   # A, B resident: no re-upload
                offload(region2, ...)   # E reused in place on the device
                env.update(from_="E")   # explicit mid-environment sync

        The environment closes (outputs download, entries release) when the
        block exits, even on error.
        """
        scope = self.target_data_begin(
            device, map_to=map_to, map_from=map_from, map_tofrom=map_tofrom,
            map_alloc=map_alloc, densities=densities, mode=mode)
        try:
            yield scope
        finally:
            self.target_data_end(scope)

    def target_update(
        self,
        scope: TargetDataScope,
        *,
        to: "str | Iterable[str] | None" = None,
        from_: "str | Iterable[str] | None" = None,
    ) -> DataEnvReport:
        """``#pragma omp target update``: refresh device copies from the host
        (``to``) or host copies from the device (``from_``).  Names absent
        from the environment are ignored (OpenMP 5.x motion semantics)."""
        if not scope.active:
            raise DataEnvError("target update on a closed data environment")
        to_names = self._update_names(to)
        from_names = self._update_names(from_)
        if self._pending:
            # `target update` is synchronous: it must observe the deferred
            # regions' effects, so they flush here.  The touched names reach
            # the planner — a fusion that would elide one of them is demoted
            # (the update needs a materialized copy) and the members run
            # serialized with a `dirty-target-update` rejection on record.
            self.taskwait(_update_names=frozenset(to_names)
                          | frozenset(from_names))
        scope.device.update_data(to_names, from_names, scope.mode,
                                 scope.report)
        return scope.report

    @staticmethod
    def _update_names(names: "str | Iterable[str] | None") -> Sequence[str]:
        if names is None:
            return ()
        if isinstance(names, str):
            return (names,)
        return tuple(names)

    @staticmethod
    def _data_buffers(
        map_to: Mapping[str, MapValue] | None,
        map_from: Mapping[str, MapValue] | None,
        map_tofrom: Mapping[str, MapValue] | None,
        map_alloc: Mapping[str, MapValue] | None,
        densities: Mapping[str, float] | None,
    ) -> tuple[dict[str, Buffer], dict[str, MapType]]:
        densities = dict(densities or {})
        buffers: dict[str, Buffer] = {}
        map_types: dict[str, MapType] = {}
        for mapping, mt in ((map_to, MapType.TO), (map_from, MapType.FROM),
                            (map_tofrom, MapType.TOFROM),
                            (map_alloc, MapType.ALLOC)):
            if not mapping:
                continue
            for name, value in mapping.items():
                if name in buffers:
                    raise DataEnvError(
                        f"{name!r} appears in more than one map clause")
                if isinstance(value, Buffer):
                    buf = value
                elif isinstance(value, (int, np.integer)):
                    buf = Buffer(name, length=int(value),
                                 density=densities.get(name, 1.0))
                else:
                    buf = Buffer(name, data=value,
                                 density=densities.get(name, 1.0))
                buffers[name] = buf
                map_types[name] = mt
        if not buffers:
            raise DataEnvError("target data requires at least one map clause")
        return buffers, map_types

    @staticmethod
    def _device_now(dev: Device) -> float:
        clock = getattr(dev, "clock", None)
        return clock.now if clock is not None else 0.0

    def _target(self, region, buffers, scalars, mode, bus, device=None,
                infer_maps=False):
        self.offloads += 1
        dev = self._select_device(region, device)
        dev.initialize()
        region = self._maybe_infer(dev, region, scalars, infer_maps, bus)
        degraded = False
        if not dev.is_available():
            self.fallbacks += 1
            degraded = dev is not self.host
            unavailable = dev
            dev = self.host
            dev.initialize()
            if degraded:
                # The unreachable device's persistent copies cannot be used
                # by the host rerun: sync what can be synced, drop handles.
                unavailable.invalidate_data_env()
                bus.emit(Fallback(time=self._device_now(dev), resource="host",
                                  region=region.name, device=unavailable.name,
                                  reason="device unavailable"))
        self._enforce_strict(dev, region, scalars)
        bus.emit(TargetBegin(time=self._device_now(dev), resource=dev.name,
                             region=region.name, device=dev.name,
                             mode=mode.value))
        if dev is self.host:
            report = dev.offload(region, buffers, scalars, mode)
            if degraded:
                report.fell_back_to_host = True
            return report
        try:
            return dev.offload(region, buffers, scalars, mode)
        except DeviceError as exc:
            failed = exc.report
            # Device copies held by enclosing `target data` environments are
            # no longer trustworthy; sync dirty outputs home (so the host
            # rerun computes on current data) and force a later re-stage.
            dev.invalidate_data_env()
            warnings.warn(
                f"offload of {region.name!r} to {dev.name} failed ({exc}); "
                f"falling back to host execution",
                RuntimeWarning,
                stacklevel=2,
            )
            self.fallbacks += 1
            bus.emit(Fallback(time=self._device_now(dev), resource="host",
                              region=region.name, device=dev.name,
                              reason=str(exc)))
            host = self.host
            host.initialize()
            report = host.offload(region, buffers, scalars, mode)
            report.fell_back_to_host = True
            if failed is not None:
                # Preserve what the failed attempt cost and recorded.
                report.retries += failed.retries
                report.backoff_s += failed.backoff_s
                report.resubmissions += failed.resubmissions
                report.preemptions += failed.preemptions
                report.resumes += failed.resumes
                report.tiles_checkpointed += failed.tiles_checkpointed
                report.corruption_detected += failed.corruption_detected
                report.restaged_inputs += failed.restaged_inputs
                report.timeline.extend(failed.timeline)
            return report

    def _maybe_infer(self, dev: Device, region: TargetRegion, scalars,
                     infer_maps: bool, bus) -> TargetRegion:
        """Opt-in clause inference, applied before staging so the device
        only ever sees (and transfers) the synthesized minimal clauses.

        Enabled per call (``offload(infer_maps=True)``) or per device
        (``[Analysis] infer = true``).  Inference degrades to the original
        region whenever its evidence is incomplete, so this is always safe
        to apply; the ``MapInferred`` event records what happened either
        way so savings (or the degradation reason) are visible in traces.
        """
        config = getattr(dev, "config", None)
        enabled = infer_maps or getattr(config, "analysis_infer", False)
        if not enabled:
            return region
        from repro.analysis.infer import infer_region

        rep = infer_region(region, scalars)
        bus.emit(MapInferred(
            time=self._device_now(dev), resource=dev.name,
            region=region.name, device=dev.name,
            changed=rep.changed, degraded=rep.degraded,
            narrowed=rep.narrowed, partitions_added=rep.partitions_added,
            dropped=len(rep.dropped),
            reason="; ".join(rep.reasons) if rep.degraded else "",
        ))
        return rep.region

    @staticmethod
    def _enforce_strict(dev: Device, region: TargetRegion, scalars) -> None:
        config = getattr(dev, "config", None)
        if config is None or not getattr(config, "analysis_strict", False):
            return
        from repro.analysis import enforce_strict

        enforce_strict(region, scalars,
                       fail_on=getattr(config, "analysis_fail_on", "error"))

    def _select_device(self, region: TargetRegion,
                       override: Union[int, str, None] = None) -> Device:
        ident = override if override is not None else region.device
        return self._resolve_device(ident)

    def _resolve_device(self, ident: Union[int, str, None]) -> Device:
        if ident is None:
            return self._devices[self._default_device]
        if isinstance(ident, int):
            return self.device(ident)
        if ident.isdigit():
            return self.device(int(ident))
        try:
            return self.device(ident)
        except DeviceError:
            # Unknown device names degrade to the host, like libomptarget
            # when a plugin is missing.
            return self.host

    # ------------------------------------------------------------- singleton
    @classmethod
    def default(cls) -> "OffloadRuntime":
        """The process-wide runtime (lazily created, host-only)."""
        if cls._default is None:
            cls._default = cls()
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        cls._default = None
