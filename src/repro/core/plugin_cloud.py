"""The cloud-device plugin.

"The cloud-specific plugin is used to initialize the cluster, to compress and
transmit the offloaded data through the cloud file storage (HDFS or S3), and
to submit the Spark jobs through SSH connection."  This module is that
plugin against the simulated substrates:

* device setup from the configuration file (provider, storage, credentials);
* optional on-the-fly EC2 instance management (start on offload, stop after,
  billed per hour);
* one upload pipeline per mapped buffer (gzip above the minimal compression
  size, parallel WAN streams) and the mirror-image result download, whichever
  construct asks: :class:`~repro.core.transfer.TransferEngine`;
* job submission over SSH to the Spark driver, which runs the generated job
  (:class:`~repro.core.codegen.SparkJobGenerator`).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence, Union

import numpy as np

from repro.cloud.azure import AzureProvider
from repro.cloud.billing import BillingLedger
from repro.cloud.azure_storage import AzureBlobStore
from repro.cloud.ec2 import EC2Provider
from repro.cloud.hdfs import HDFSStore
from repro.cloud.network import NetworkModel
from repro.cloud.private import PrivateCloudProvider
from repro.cloud.provider import CloudProvider, ProviderError
from repro.cloud.credentials import Credentials
from repro.cloud.provision import ClusterSpec, ProvisionedCluster, provision_cluster
from repro.cloud.s3 import S3Store
from repro.cloud.ssh import (CommandHandler, CommandResult, SSHClient,
                             SSHEndpoint, SSHError)
from repro.cloud.storage import (
    ObjectStore,
    StorageError,
    TransientStorageError,
)
from repro.core.api import TargetRegion
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.codegen import SparkJobGenerator, SparkJobReport
from repro.core.config import CloudConfig
from repro.core.data_env import DataEnvReport, MapEntry
from repro.core.device import Device, DeviceError
from repro.core.omp_ast import MapType
from repro.core.report import OffloadReport
from repro.obs.events import (
    CacheHit,
    CorruptionDetected,
    Preemption,
    Recovery,
    ResidentHit,
    Resubmit,
    ResumeFromCheckpoint,
    SparkSubmit,
    get_bus,
)
from repro.core.staging_cache import CacheKey, StagingCache
from repro.core.transfer import StagingCodec, TransferEngine
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
# Not used here since compression moved to repro.core.transfer; kept bound
# because perf/tests/test_trace.py (frozen with the benchmark) checks that
# the tracer re-binds by-name imports of it in this module.
from repro.perfmodel.compression import gzip_compress  # noqa: F401
from repro.resilience import CircuitBreaker, OffloadJournal, RetryPolicy
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase
from repro.spark.cluster import SparkCluster, WorkerShape
from repro.spark.context import SparkContext
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.spark.scheduler import JobFailedError, SchedulerCosts


class CloudDevice(Device):
    """The cloud as an OpenMP target device."""

    def __init__(
        self,
        config: CloudConfig,
        *,
        physical_cores: int | None = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        reachable: bool = True,
        tiling: bool = True,
        fault_plan: FaultPlan = NO_FAULTS,
        colocated: bool = False,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        worker_speeds: Sequence[float] | None = None,
    ) -> None:
        """``colocated=True`` models running the application directly from the
        Spark driver node (Section III-D): staged data moves over the cluster
        fabric instead of the WAN, "removing the overhead of host-target
        communication"."""
        super().__init__(name="CLOUD")
        self.config = config
        self.cal = calibration
        self.clock = SimClock()
        self.network = NetworkModel(calibration.wan_link(), calibration.lan_link())
        self.physical_cores = (
            physical_cores
            if physical_cores is not None
            else config.n_workers * calibration.worker_vcpus // 2
        )
        #: Adaptive execution policy (static, no speculation by default).
        self.schedule = schedule
        self.cluster = SparkCluster.for_physical_cores(
            self.physical_cores,
            n_workers=config.n_workers,
            shape=WorkerShape(vcpus=calibration.worker_vcpus),
            network=self.network,
            clock=self.clock,
            worker_speeds=worker_speeds,
        )
        self.sc = SparkContext(
            cluster=self.cluster,
            scheduler_costs=SchedulerCosts(task_launch_s=calibration.task_launch_s),
        )
        if config.verbose:
            self.sc.log.sinks.append(print)
        self.storage = self._storage_from_config()
        # Storage events carry this device's simulated time.
        self.storage.clock = self.clock
        self.tiling = tiling
        self.fault_plan = fault_plan
        self._reachable = reachable
        self._offload_seq = itertools.count(1)
        self._provisioned: ProvisionedCluster | None = None
        #: Built from the config on first initialization when
        #: ``manage_instances`` is set.
        self._provider: CloudProvider | None = None
        self.endpoint = SSHEndpoint(
            hostname=config.spark_driver,
            authorized_users={config.spark_user},
        )
        #: Host-target data cache (paper future work; enabled via config).
        self.stage_cache = StagingCache(enabled=config.cache)
        #: Trips open after K consecutive offload failures; while open,
        #: :meth:`is_available` is False and the runtime degrades to the host.
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_after_s=config.breaker_reset_s,
        )
        # Offload-level fault injection armed from the (immutable) plan.
        self._ssh_faults_left = fault_plan.ssh_connect_failures
        self._submit_faults_left = fault_plan.spark_submit_failures
        # --- Durable recovery (docs/RESILIENCE.md) ---
        #: Driver-loss recovery policy: "none" (host fallback), "restart"
        #: (a standby driver replaces the lost one, full resubmission) or
        #: "resume" (+ per-tile checkpoints, only unfinished tiles rerun).
        self.recovery = config.recovery
        #: Write-ahead log of committed tile checkpoints; a standby driver
        #: replays it under "resume" to skip the tiles that survived.
        self.journal = OffloadJournal()
        #: A standby driver took over after a loss; the dead driver's fault
        #: no longer applies to later submissions.
        self._driver_replaced = False
        #: Final values of intermediates elided by fused jobs
        #: (docs/TASKGRAPH.md): alloc-resident arrays whose materialization
        #: never reached storage.  A later offload that maps one as input
        #: stages these values instead of the (pristine) host array.
        self._fusion_spill: dict[str, np.ndarray] = {}
        #: The one host<->storage transfer path (docs/DATA_ENV.md).
        self.transfer = TransferEngine(
            storage=self.storage, credentials=config.credentials,
            codec=StagingCodec(config.compression, config.min_compress_size),
            network=self.network,
            clock=self.clock, device_name=self.name, colocated=colocated,
            retry_policy=config.retry_policy(), breaker=self.breaker,
            log=self.sc.log, spill=self._fusion_spill,
        )
        #: Corrupt reads already attributed to a finished offload's report
        #: (the storage's detector counts globally; reports take deltas).
        self._corruptions_attributed = 0
        for substring, count in fault_plan.corrupt_keys.items():
            self.storage.arm_corruption(substring, count)

    @property
    def retry_policy(self) -> RetryPolicy:
        """One uniform policy for every retryable operation (storage PUT/GET/
        HEAD, SSH connects, provisioning); backoff is simulated time."""
        return self.transfer.retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        self.transfer.retry_policy = policy

    # --------------------------------------------------------------- set-up
    def _storage_from_config(self) -> ObjectStore:
        cfg = self.config
        if cfg.storage_kind == "s3":
            return S3Store(cfg.storage_name, credentials=cfg.credentials)
        if cfg.storage_kind == "hdfs":
            return HDFSStore(f"hdfs://{cfg.spark_driver}:9000", credentials=cfg.credentials)
        return AzureBlobStore("ompcloudacct", cfg.storage_name, credentials=cfg.credentials)

    def _provider_from_config(self) -> CloudProvider:
        cfg = self.config
        if cfg.provider == "ec2":
            return EC2Provider(credentials=cfg.credentials)
        if cfg.provider == "azure":
            return AzureProvider(credentials=cfg.credentials)
        return PrivateCloudProvider(credentials=cfg.credentials,
                                    machine_count=cfg.n_workers + 1)

    def _do_initialize(self) -> None:
        # Validate credentials against the storage service and provision the
        # cluster up front; a failure of either leaves the device unavailable
        # (host fallback) rather than raising.
        try:
            self.storage.check_access(self.config.credentials)
        except StorageError:
            return
        if self.config.manage_instances and self._provisioned is None:
            if self._provider is None:
                self._provider = self._provider_from_config()
            spec = ClusterSpec(
                instance_type=self.config.instance_type,
                n_workers=self.config.n_workers,
                authorized_users=(self.config.spark_user,),
            )
            # No report exists yet: the backoff is charged to the clock only.
            try:
                self._provisioned = self.transfer.retry(
                    None, "provision", provision_cluster,
                    self._provider, spec, self.clock,
                    driver_hostname=self.config.spark_driver,
                    retry_on=(ProviderError,),
                    failed="cluster provisioning failed")
            except ProviderError as exc:
                self.sc.log.warn(self.clock.now, "CloudPlugin",
                                 f"cluster provisioning failed ({exc}); "
                                 f"the device stays unavailable")
                return
            self.endpoint = self._provisioned.ssh_endpoint

    @property
    def billing_ledger(self) -> BillingLedger | None:
        """The provider's pay-as-you-go ledger, when this device manages
        instances (``manage_instances = true``); None otherwise.  The
        critical-path profiler joins its line items against offload phases
        for dollar attribution."""
        return self._provider.ledger if self._provider is not None else None

    def is_available(self) -> bool:
        if not self._reachable:
            return False
        if self.config.manage_instances and self._provisioned is None:
            return False  # provisioning failed: no cluster to offload to
        if self.breaker.is_open(self.clock.now):
            return False
        try:
            self.storage.check_access(self.config.credentials)
        except StorageError:
            return False
        return True

    # --------------------------------------------------------------- offload
    def offload(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode,
    ) -> OffloadReport:
        """Stage the inputs (:meth:`data_begin`), submit the job
        (:meth:`execute`), download the outputs (:meth:`data_end`); the
        phases hand their state on as arguments and return values."""
        report = OffloadReport(region_name=region.name, device_name=self.name,
                               mode=mode.value)
        # The references this target took; data_end consumes the list, so a
        # failure after it cannot release the same references twice.
        begun: list[str] = []
        try:
            input_keys, key_prefix = self.data_begin(buffers, region, mode,
                                                     report, begun)
            out_keys: Mapping[str, str] = {}
            try:
                out_keys = self.execute(region, buffers, scalars, mode, report,
                                        input_keys, key_prefix)
            finally:
                self.data_end(buffers, region, mode, report, out_keys, begun)
        except DeviceError as exc:
            # Tear the failed attempt down.  Entries held by an enclosing
            # `target data` environment survive (the runtime follows up with
            # invalidate_data_env, which clears their device handles).
            for name in begun:
                if self.env.is_mapped(name):
                    self.env.end(name)
            self.transfer.charge_backoff(report)
            self._flush_corruptions(report)
            if self.config.manage_instances and self._provisioned is not None:
                self._provisioned.stop_all(self.clock.now)
            now = self.clock.now
            report.timeline.record(Phase.FALLBACK, now, now, resource="host",
                                   label=f"fallback-{region.name}")
            exc.report = report
            raise
        return report

    # ------------------------------------------------------------ data moves
    def data_begin(self, buffers: Mapping[str, Buffer], region: TargetRegion,
                   mode: ExecutionMode, report: OffloadReport,
                   begun: list[str]) -> tuple[dict[str, str], str]:
        """Create the region's data environment and ship its inputs; returns
        the storage key of every input and the offload's key prefix."""
        seq = next(self._offload_seq)
        mgmt_start = self.clock.now
        if self.config.manage_instances:
            self._start_instances()
            if self.clock.now > mgmt_start:
                # Boot time is wall time the user waits through.
                report.timeline.record(Phase.CLUSTER_INIT, mgmt_start, self.clock.now,
                                       resource="host", label="instance-boot")
        report.instance_mgmt_s += self.clock.now - mgmt_start

        key_prefix = f"{region.name}/{seq}"
        input_keys: dict[str, str] = {}
        to_stage: list[tuple[Buffer, str]] = []
        cache_keys: list[tuple[CacheKey, str]] = []
        for name in region.input_names:
            buf = buffers[name]
            entry = self.env.entry_or_none(name)
            if entry is not None and entry.device_handle is not None:
                # Resident in an enclosing `target data` environment: the
                # staged object (or a previous target's output, left in
                # storage) is reused in place — no upload, no cache probe.
                self.env.begin(buf, region.map_type_of(name) or MapType.TO)
                begun.append(name)
                input_keys[name] = entry.device_handle
                report.resident_hits += 1
                report.bytes_not_retransferred += buf.nbytes
                get_bus().emit(ResidentHit(time=self.clock.now,
                                           resource=self.name,
                                           device=self.name, buffer=name,
                                           bytes_saved=buf.nbytes))
                continue
            self.env.begin(buf, region.map_type_of(name) or MapType.TO)
            begun.append(name)
            ckey = None
            # A spilled intermediate's content is not the host array's, so
            # a host-bytes cache key would alias stale content: skip cache.
            if (self.stage_cache.enabled and name not in self._fusion_spill
                    and (mode == ExecutionMode.FUNCTIONAL
                         or buf.is_virtual)):
                ckey = CacheKey.for_buffer(buf)
                cached = self.stage_cache.lookup(ckey)
                cache_hit, probe_retries = (
                    self.transfer.exists(cached) if cached is not None
                    else (False, 0))
                if cache_hit:
                    # Already staged with identical content: reuse in place.
                    # Retried EXISTS probes billed real storage round-trips,
                    # so their wire cost is netted out of the saved bytes.
                    assert cached is not None
                    probe_cost = probe_retries * len(cached.encode("utf-8"))
                    saved = max(0, buf.nbytes - probe_cost)
                    input_keys[name] = cached
                    report.cache_hits += 1
                    report.cache_bytes_saved += saved
                    get_bus().emit(CacheHit(time=self.clock.now,
                                            resource=self.storage.name,
                                            buffer=name,
                                            bytes_saved=saved))
                    continue
            key = self.transfer.codec.key(f"{key_prefix}/in/{name}", buf.nbytes)
            input_keys[name] = key
            to_stage.append((buf, key))
            if ckey is not None:
                cache_keys.append((ckey, key))
        up = self.transfer.upload(to_stage, mode, report, what="staging inputs",
                                  phase=Phase.HOST_UPLOAD,
                                  codec_phase=Phase.HOST_COMPRESS)
        report.host_comm_up_s += up.seconds
        for ckey, key in cache_keys:
            self.stage_cache.record(ckey, key)
        # Persistent entries that had no device copy yet (alloc-mapped, or
        # invalidated by a fallback) were staged above; remember the key so
        # the *next* target inside the environment reuses it in place.
        for name, key in input_keys.items():
            entry = self.env.entry_or_none(name)
            if (entry is not None and entry.ref_count > 1
                    and entry.device_handle is None):
                entry.device_handle = key
                entry.dirty = False
        for name in region.output_names:
            if name not in input_keys:
                self.env.begin(buffers[name], region.map_type_of(name) or MapType.FROM)
                begun.append(name)
        return input_keys, key_prefix

    def _flush_corruptions(self, report: OffloadReport) -> None:
        """Attribute corrupt reads the storage detected since the last flush
        to ``report``.  The storage layer counts every failed verification
        (host GETs and worker-side reads alike); the plugin takes deltas so
        each detection lands in exactly one report."""
        detected = self.storage.corruption_count - self._corruptions_attributed
        if detected <= 0:
            return
        self._corruptions_attributed = self.storage.corruption_count
        report.corruption_detected += detected

    def data_end(self, buffers: Mapping[str, Buffer], region: TargetRegion,
                 mode: ExecutionMode, report: OffloadReport,
                 out_keys: Mapping[str, str], begun: list[str]) -> None:
        """Copy the committed outputs back to the host and release the
        references this target took (``begun``, emptied here)."""
        downloads: list[tuple[Buffer, str]] = []
        for name in region.output_names:
            key = out_keys.get(name)
            if key is None:
                continue  # the job never committed its outputs
            entry = self.env.entry_or_none(name)
            if entry is not None and entry.ref_count > 1:
                # Enclosing `target data` environment: the output stays on
                # the device (in storage) until `exit data` or an explicit
                # `target update from`; no download here.
                entry.device_handle = key
                entry.dirty = True
                continue
            downloads.append((buffers[name], key))

        def landed(buf: Buffer, key: str) -> None:
            # Backoff is charged per output, so the next one's storage events
            # carry the time its predecessor's retries cost.
            self.transfer.charge_backoff(report)
            if self.stage_cache.enabled:
                # The result now lives both on the host and in storage;
                # re-offloading it later is a cache hit (no re-upload).
                self.stage_cache.record(
                    CacheKey.for_bytes(buf.payload_view()), key)

        down = self.transfer.download(
            downloads, mode, report, what="downloading results",
            phase=Phase.HOST_DOWNLOAD, codec_phase=Phase.HOST_DECOMPRESS,
            landed=landed)
        report.host_comm_down_s += down.seconds

        for name in begun:
            if self.env.is_mapped(name):
                self.env.end(name)
        begun.clear()

        mgmt_start = self.clock.now
        if self.config.manage_instances and self._provisioned is not None:
            billed_before = self._provider.ledger.total_usd()
            self._provisioned.stop_all(self.clock.now)
            # Accumulate: a mid-run spot replacement may already have
            # billed its reclaimed predecessor.
            report.billed_usd += self._provider.ledger.total_usd() - billed_before
        report.instance_mgmt_s += self.clock.now - mgmt_start
        self._flush_corruptions(report)

    def _start_instances(self) -> None:
        if self._provisioned is None:
            return
        up = self._provisioned.start_all(self.clock.now)
        self.clock.advance_to(max(up, self.clock.now))

    # ------------------------------------------- persistent data environments
    def enter_data(self, buffers: Mapping[str, Buffer],
                   map_types: Mapping[str, MapType], mode: ExecutionMode,
                   report: DataEnvReport) -> None:
        """``__tgt_target_data_begin``: stage ``to``/``tofrom`` buffers into
        cloud storage once and pin them there (persistent map entries).
        ``alloc``/``from`` buffers get an entry without a device copy; the
        first target that produces them leaves its output key behind."""
        seq = next(self._offload_seq)
        key_prefix = f"env/{seq}"
        bus = get_bus()
        staged: list[tuple[MapEntry, str]] = []
        begun: list[str] = []
        for name, buf in buffers.items():
            existing = self.env.entry_or_none(name)
            if existing is not None:
                # Nested environment over an already-present variable: bump
                # the reference count, reuse the device copy in place.
                self.env.begin(buf, map_types[name])
                begun.append(name)
                report.resident_hits += 1
                if existing.device_handle is not None:
                    bus.emit(ResidentHit(time=self.clock.now,
                                         resource=self.name, device=self.name,
                                         buffer=name, bytes_saved=buf.nbytes))
                continue
            entry = self.env.begin(buf, map_types[name], persistent=True)
            begun.append(name)
            if not map_types[name].is_input:
                continue  # alloc / from: device space only, no motion
            staged.append(
                (entry, self.transfer.codec.key(f"{key_prefix}/{name}", buf.nbytes)))
        try:
            up = self.transfer.upload(
                [(entry.buffer, key) for entry, key in staged], mode, report,
                what="staging `target data` inputs", phase=Phase.ENV_ENTER)
        except DeviceError:
            for name in begun:  # unwind: keep refcounts balanced
                if self.env.is_mapped(name):
                    self.env.end(name)
            raise
        report.enter_s += up.seconds
        for entry, key in staged:
            entry.device_handle = key
            entry.dirty = False

    def exit_data(self, names: Sequence[str], mode: ExecutionMode,
                  report: DataEnvReport) -> None:
        """``__tgt_target_data_end``: drop one reference per name; entries
        reaching zero download their dirty outputs back into the host arrays
        and release the storage objects (logically — the simulated store has
        no delete cost worth modeling)."""
        # References settle first (so a failed download cannot unbalance the
        # mapping table), transfers follow.
        released: list[MapEntry] = []
        for name in names:
            if not self.env.is_mapped(name):
                continue
            entry = self.env.end(name)
            if entry is None:
                continue  # still referenced by an enclosing environment
            # OpenMP copies `from`/`tofrom` items out unconditionally at the
            # environment's end; here that needs a device copy to exist
            # (alloc-mapped entries nothing ever wrote have none).
            if entry.device_handle is None or not entry.map_type.is_output:
                continue
            released.append(entry)
        down = self.transfer.download(
            [(entry.buffer, entry.device_handle) for entry in released], mode,
            report, what="downloading `target data` outputs",
            phase=Phase.ENV_EXIT)
        report.exit_s += down.seconds

    def update_data(self, to_names: Sequence[str], from_names: Sequence[str],
                    mode: ExecutionMode, report: DataEnvReport) -> None:
        """``__tgt_target_data_update``: re-stage host content over the
        device copy (``to``) or download the device copy into the host array
        (``from``).  Absent names are ignored (OpenMP 5.x motion-clause
        semantics)."""
        seq = next(self._offload_seq)
        # --- host -> device -------------------------------------------------
        # Always a fresh key: the old handle may be a content-addressed
        # cache object whose hash would no longer match its content.
        staged = [
            (entry, self.transfer.codec.key(f"env/{seq}/update/{name}",
                                            entry.buffer.nbytes))
            for name in to_names
            if (entry := self.env.entry_or_none(name)) is not None]
        up = self.transfer.upload(
            [(entry.buffer, key) for entry, key in staged], mode, report,
            what="`target update to` staging", phase=Phase.TARGET_UPDATE,
            label="update-to")
        report.update_s += up.seconds
        report.updates_to += len(staged)
        for entry, key in staged:
            entry.device_handle = key
            entry.dirty = False
        # --- device -> host -------------------------------------------------
        synced = [entry for name in from_names
                  if (entry := self.env.entry_or_none(name)) is not None
                  and entry.device_handle is not None]
        down = self.transfer.download(
            [(entry.buffer, entry.device_handle) for entry in synced], mode,
            report, what="`target update from` download",
            phase=Phase.TARGET_UPDATE, label="update-from")
        report.update_s += down.seconds
        report.updates_from += len(synced)
        for entry in synced:
            entry.dirty = False  # host and device agree again

    def invalidate_data_env(self) -> None:
        """After a failed offload the staged objects can no longer be
        trusted.  Dirty copies are synced home best-effort (so the host
        rerun — and any later `exit data` — sees current data), then every
        handle is dropped: the next target inside the environment re-stages
        from the host.  Reference counts are untouched.

        The sync keys on ``dirty`` alone, not the map type: once a kernel
        wrote an entry on the device, the device copy is the authoritative
        one even for ``alloc``-mapped intermediates — the host rerun would
        otherwise compute on stale zeros.  The sync drops the handle with
        it, so each dirty entry is synced at most once."""
        for entry in self.env.live_entries():
            if (entry.dirty and entry.device_handle is not None
                    and not entry.buffer.is_virtual):
                self.transfer.sync_home(entry.buffer, entry.device_handle)
            entry.device_handle = None
            entry.dirty = False

    def _verify_staged_inputs(self, input_keys: Mapping[str, str],
                              buffers: Mapping[str, Buffer],
                              mode: ExecutionMode,
                              report: OffloadReport) -> None:
        """Validate the "implicit checkpoint" before a resubmission reuses it.

        A resubmitted job re-reads the staged inputs from storage, so before
        trusting them each one is verified against the checksum recorded at
        staging time — a metadata round (CHECKSUM), not a download.  A
        mismatch or a missing object is surfaced as a corruption event and
        the input is re-staged from the host (and billed like any upload)."""
        bus = get_bus()
        restage: list[tuple[Buffer, str]] = []
        for name, key in input_keys.items():
            expected = self.transfer.staged_checksum(key)
            if not expected:
                continue  # resident/cached object this offload did not stage
            actual = self.transfer.checksum_of(key)
            if actual is None or actual == expected:
                continue  # storage flaking is not evidence of corruption
            bus.emit(CorruptionDetected(
                time=self.clock.now, resource=self.storage.name,
                store=self.storage.name, op="VERIFY", key=key,
                expected=expected, actual=actual))
            if name in buffers:
                restage.append((buffers[name], key))
        up = self.transfer.upload(restage, mode, report, what="re-staging inputs",
                                  phase=Phase.HOST_UPLOAD,
                                  codec_phase=Phase.HOST_COMPRESS,
                                  label="restage")
        report.host_comm_up_s += up.seconds
        report.restaged_inputs += len(restage)

    # ------------------------------------------------------------- execution
    def execute(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode,
        report: OffloadReport,
        input_keys: Mapping[str, str],
        key_prefix: str,
    ) -> dict[str, str]:
        """Submit the region's Spark job over SSH, resubmitting under the
        recovery policy; returns the storage key of every output."""
        timeline = report.timeline

        ssh_creds = Credentials(
            provider=self.config.provider,
            username=self.config.spark_user,
            ssh_key_path=self.config.credentials.ssh_key_path,
        )
        # The staged inputs are an implicit checkpoint: a resubmitted job
        # re-reads them from storage, so nothing is re-uploaded over the WAN
        # (their integrity is verified before each reuse, below).
        max_submissions = 1 + self.config.max_resubmissions
        job_report: SparkJobReport | None = None
        spill: dict[str, np.ndarray] = {}
        last_error = ""
        bus = get_bus()
        # A fused submission is ONE job: a resume replays tile_done records
        # against this correlation, never against the member regions (which
        # were never submitted on their own).
        corr = bus.current_correlation()
        fused_members: tuple[str, ...] = getattr(region, "fused_members", ())
        fused_t0 = self.clock.now
        resume_tiles: Mapping[int, Mapping[int, object]] | None = None
        for submission in range(1, max_submissions + 1):
            if submission > 1:
                report.resubmissions += 1
                delay = self.retry_policy.delay_for(
                    submission - 1, key=f"resubmit-{region.name}")
                t0 = self.clock.now
                bus.emit(Resubmit(time=t0, resource="host",
                                  region=region.name, submission=submission,
                                  delay_s=delay))
                self.clock.advance(delay)
                report.backoff_s += delay
                timeline.record(Phase.RESUBMIT, t0, self.clock.now,
                                resource="host", label=f"resubmit-{submission - 1}")
                self.sc.log.warn(self.clock.now, "CloudPlugin",
                                 f"spark-submit failed ({last_error}); resubmitting "
                                 f"({submission - 1}/{self.config.max_resubmissions})")
                self._verify_staged_inputs(input_keys, buffers, mode, report)
                if (self.recovery != "none" and not self._driver_replaced
                        and self.fault_plan.driver_lost(self.clock.now)):
                    # Driver replacement: a standby driver takes over; under
                    # "resume" it replays the journal and schedules only the
                    # tiles without committed checkpoints.
                    self._driver_replaced = True
                    report.resumes += 1
                    if self.recovery == "resume":
                        resume_tiles = self.journal.replay().completed_tiles(corr)
                    n_ckpt = sum(len(t) for t in (resume_tiles or {}).values())
                    self.sc.log.warn(
                        self.clock.now, "CloudPlugin",
                        f"driver {self.config.spark_driver} lost; standby "
                        f"driver taking over (policy={self.recovery}, "
                        f"{n_ckpt} tile(s) checkpointed)")
            # Replace any spot instance reclaimed while the previous
            # submission was running, so the retried job has a full cluster.
            self._recover_preempted(report)
            # What this submission's job produced, filled in by its handler.
            finished: list[tuple[SparkJobReport, dict[str, np.ndarray]]] = []
            self.endpoint.register_handler("spark-submit", self._job_handler(
                region, buffers, scalars, mode, report, input_keys,
                key_prefix, resume_tiles, finished))
            try:
                result = self._submit_once(region, ssh_creds, report)
            except SSHError as e:
                last_error = str(e)
                bus.emit(SparkSubmit(time=self.clock.now, resource="host",
                                     region=region.name, submission=submission,
                                     ok=False, error=last_error))
                continue
            finally:
                self.endpoint.unregister_handler("spark-submit")
            bus.emit(SparkSubmit(
                time=self.clock.now, resource="host", region=region.name,
                submission=submission, ok=result.ok,
                error="" if result.ok else (result.stderr
                                            or f"exit status {result.exit_status}"),
            ))
            if result.ok:
                job_report, spill = finished[0]
                break
            last_error = result.stderr or f"exit status {result.exit_status}"

        if job_report is None:
            self.transfer.record_failure()
            raise DeviceError(
                f"spark-submit failed on {self.config.spark_driver} after "
                f"{max_submissions} submission(s): {last_error}"
            )
        # A preemption during the final (successful) run still costs a
        # replacement before the cluster is whole again.
        self._recover_preempted(report)
        self.breaker.record_success()

        # The job's driver retries are resilience time, like the SSH
        # connect's: counted once, in backoff_s.
        report.spark_job_s = job_report.job_s - job_report.backoff_s
        report.computation_s = job_report.computation_s
        report.tasks_run = job_report.tasks_run
        report.tasks_recomputed = job_report.tasks_recomputed
        report.tasks_speculated = job_report.tasks_speculated
        report.speculation_wins = job_report.speculation_wins
        report.speculation_saved_s = job_report.speculation_saved_s
        report.tiles_checkpointed = job_report.tiles_checkpointed
        report.tiles_skipped = job_report.tiles_skipped
        report.cluster_bytes_wire = job_report.task_bytes_wire
        report.storage_bytes_wire = job_report.storage_bytes_wire
        if fused_members:
            # One full-width span on a dedicated row: the gantt shows at a
            # glance which stretch of the run was a fused multi-region job.
            timeline.record(Phase.FUSED, fused_t0, self.clock.now,
                            resource="fusion", label=region.name)
            self._fusion_spill.update(spill)
        # Anything this job durably wrote supersedes a previous spill.
        for name in job_report.output_keys:
            self._fusion_spill.pop(name, None)
        if report.tiles_skipped:
            bus.emit(ResumeFromCheckpoint(
                time=self.clock.now, resource=self.name, region=region.name,
                submission=submission, tiles_skipped=report.tiles_skipped,
                tiles_rerun=job_report.tasks_run,
                bytes_restored=job_report.bytes_restored))
        self._flush_corruptions(report)
        return job_report.output_keys

    def _job_handler(self, region, buffers, scalars, mode, report, input_keys,
                     key_prefix, resume_tiles, finished) -> CommandHandler:
        """The driver-side ``spark-submit`` handler of one submission.  Each
        call builds a *fresh* job (generator state is per-submission); the
        handler reports infrastructure failures as non-zero exits while
        deterministic user errors (codegen, OOM) propagate unchanged.  A job
        that ran to completion appends its report and the final values of
        its elided intermediates to ``finished``.

        Once a standby driver has taken over (``_driver_replaced``) the
        original driver's death no longer fails submissions, and the
        generator is told there is no pending death (``death_at=None``) so
        every completed tile of the rerun commits its checkpoint."""

        def handler(command: str) -> CommandResult:
            if (not self._driver_replaced
                    and self.fault_plan.driver_lost(self.clock.now)):
                return CommandResult(command=command, exit_status=255,
                                     stderr=f"Connection to "
                                            f"{self.config.spark_driver} lost")
            if self._submit_faults_left > 0:
                self._submit_faults_left -= 1
                return CommandResult(command=command, exit_status=1,
                                     stderr="spark-submit: transient submission "
                                            "failure (injected)")
            gen = SparkJobGenerator(
                region, scalars, self.sc, report,
                calibration=self.cal, mode=mode, tiling=self.tiling,
                fault_plan=self.fault_plan,
                transfer=self.transfer,
                schedule=self.schedule,
                journal=self.journal,
                checkpoint=(self.recovery == "resume"),
                resume=resume_tiles,
                death_at=(None if self._driver_replaced
                          else self.fault_plan.driver_dies_at),
            )
            try:
                job_report = gen.run(buffers, input_keys, key_prefix)
            except (JobFailedError, TransientStorageError) as e:
                return CommandResult(command=command, exit_status=1,
                                     stderr=f"{type(e).__name__}: {e}")
            if (not self._driver_replaced
                    and self.fault_plan.driver_lost(self.clock.now)):
                # The job ran, but the driver died before reporting back:
                # its results are lost with it (committed tile checkpoints
                # and journal records survive — they live in storage).
                return CommandResult(command=command, exit_status=255,
                                     stderr=f"Connection to "
                                            f"{self.config.spark_driver} lost")
            spill: dict[str, np.ndarray] = {}
            elided = getattr(region, "fused_elided", ())
            if elided and mode == ExecutionMode.FUNCTIONAL:
                # Elided intermediates exist only in the fused driver's
                # memory; capture their final values so a later offload can
                # stage them (the host arrays stay pristine — alloc maps
                # never copy back).
                spill = {name: arr.copy() for name in elided
                         if (arr := gen.driver_array(name)) is not None}
            finished.append((job_report, spill))
            return CommandResult(command=command, exit_status=0,
                                 stdout=f"job finished in {job_report.job_s:.1f}s")

        return handler

    def _submit_once(self, region: TargetRegion, ssh_creds: Credentials,
                     report: OffloadReport) -> CommandResult:
        """One submission over a fresh SSH session; the connect itself is
        retried under the policy (flaky channels are the common case)."""
        ssh = SSHClient(self.endpoint, ssh_creds)

        def connect() -> float:
            if (not self._driver_replaced
                    and self.fault_plan.driver_lost(self.clock.now)):
                raise SSHError(
                    f"ssh: connect to host {self.config.spark_driver}: "
                    f"no route to host"
                )
            if self._ssh_faults_left > 0:
                self._ssh_faults_left -= 1
                raise SSHError(
                    f"ssh: connect to host {self.config.spark_driver}: "
                    f"connection reset by peer"
                )
            return ssh.connect()

        handshake = self.transfer.retry(
            report, f"ssh-{self.config.spark_driver}", connect,
            retry_on=(SSHError,), failed="SSH connect failed", label="ssh-backoff")
        # The handshake is wall time the user waits through; give it a span
        # so the timeline covers the makespan gap-free (the critical-path
        # profiler partitions the makespan across recorded spans).
        report.timeline.record(Phase.CLUSTER_INIT, self.clock.now,
                               self.clock.advance(handshake),
                               resource="host", label="ssh-connect")
        try:
            return ssh.exec_command(
                f"spark-submit --class org.ompcloud.Job ompcloud-{region.name}.jar "
                f"--cores {self.cluster.total_physical_cores}"
            )
        finally:
            ssh.close()

    def _recover_preempted(self, report: OffloadReport) -> None:
        """Detect spot instances EC2 reclaimed, bill them, and provision
        replacement workers (new identity) so later jobs see a full cluster."""
        if not self.fault_plan.preempt_at:
            return
        timeline = report.timeline
        for ex in list(self.cluster.executors):
            t = self.fault_plan.preempt_at.get(ex.worker_id)
            if t is None or self.clock.now < t:
                continue
            timeline.record(Phase.PREEMPTION, t, self.clock.now,
                            resource=ex.worker_id, label="spot-reclaimed")
            get_bus().emit(Preemption(time=t, resource=ex.worker_id,
                                      worker=ex.worker_id))
            self.sc.log.warn(self.clock.now, "CloudPlugin",
                             f"spot instance backing {ex.worker_id} was "
                             f"reclaimed; provisioning a replacement")
            t0 = self.clock.now
            if self._provisioned is not None and self._provider is not None:
                idx = self.cluster.executors.index(ex)
                inst = (self._provisioned.workers[idx]
                        if idx < len(self._provisioned.workers) else None)
                billed_before = self._provider.ledger.total_usd()
                if inst is not None and inst.state.value == "running":
                    # A spot instance cannot be reclaimed before it is up.
                    when = max(t, inst.running_since or t)
                    self._provider.terminate(inst.instance_id, when)
                repl = self._provider.launch(self.config.instance_type, t0,
                                             count=1, tags={"role": "worker",
                                                            "spot": "replacement"})
                up = self._provider.wait_running(repl, t0)
                self.clock.advance_to(max(up, self.clock.now))
                if inst is not None:
                    self._provisioned.workers[idx] = repl[0]
                report.billed_usd += self._provider.ledger.total_usd() - billed_before
            else:
                # Unmanaged cluster: the replacement still takes one boot.
                boot = (self._provider.boot_delay_s if self._provider is not None
                        else EC2Provider.boot_delay_s)
                self.clock.advance(boot)
            timeline.record(Phase.RECOVERY, t0, self.clock.now,
                            resource=ex.worker_id, label="spot-replace")
            get_bus().emit(Recovery(time=self.clock.now, resource=ex.worker_id,
                                    worker=ex.worker_id,
                                    duration_s=self.clock.now - t0))
            self.cluster.replace_executor(ex.worker_id, now=self.clock.now)
            report.preemptions += 1
