"""How bytes move between the host and cloud storage.

"The cloud-specific plugin ... automatically creates a new thread for
transmitting each offloaded data (possibly after gzip compression if the data
size is larger than a predefined minimal compression size)."  Every construct
of the cloud plugin that moves mapped data goes through the one
:meth:`TransferEngine.upload` or the one :meth:`TransferEngine.download`
below; docs/DATA_ENV.md ("How bytes move") describes the path and what each
construct keeps to itself.  The Spark driver, on the other side of storage,
encodes and decodes with the same :class:`StagingCodec` and inflates each
stored input once (:meth:`TransferEngine.driver_input`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from repro.cloud.credentials import Credentials
from repro.cloud.storage import (
    NoSuchObjectError,
    ObjectStore,
    StorageError,
    TransientStorageError,
)
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.data_env import DataEnvReport
from repro.core.device import DeviceError
from repro.core.report import OffloadReport
from repro.obs.events import (BreakerOpen, MapDownload, MapUpload,
                              TargetUpdate, get_bus)
from repro.perfmodel.comm import HostCommModel, TransferPlan
from repro.perfmodel.compression import (
    CompressionModel,
    gzip_compress,
    gzip_decompress,
    model_for_density,
)
from repro.resilience import CircuitBreaker, RetryPolicy, retry_call
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase
from repro.spark.logging import SparkLog

Report = Union[OffloadReport, DataEnvReport]
Items = Sequence[tuple[Buffer, str]]


@dataclass(frozen=True)
class StagingCodec:
    """Which staged buffers are gzip'd, and what their objects are called —
    the one rule both ends of the storage hop apply (the host plugin here,
    the Spark driver in :class:`~repro.core.codegen.SparkJobGenerator`)."""

    enabled: bool
    min_size: int

    def compresses(self, nbytes: int) -> bool:
        return self.enabled and nbytes >= self.min_size

    def key(self, stem: str, nbytes: int) -> str:
        return f"{stem}.bin" + (".gz" if self.compresses(nbytes) else "")

    def wire_size(self, model: CompressionModel, nbytes: int) -> int:
        """Modeled object size of an ``nbytes`` buffer."""
        return model.compressed_size(nbytes) if self.compresses(nbytes) else nbytes

    def encode(self, view: memoryview, nbytes: int) -> "bytes | memoryview":
        """The object to store for an ``nbytes`` buffer's raw bytes: gzip'd
        above the threshold, else the view itself (storage copies on PUT)."""
        return gzip_compress(view) if self.compresses(nbytes) else view

    def decode(self, payload: bytes, nbytes: int) -> bytes:
        """The raw bytes of an ``nbytes`` buffer's stored object."""
        return gzip_decompress(payload) if self.compresses(nbytes) else payload


class Charged(NamedTuple):
    """Simulated interval one transfer's codec + wire time was charged over
    (``start`` is after any retry backoff; both 0.0 when nothing moved)."""

    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class TransferEngine:
    """The one storage client of a cloud device: the host side of the
    host<->storage hop, plus the Spark driver's memo of the inputs it
    inflated for the device's most recent job (:meth:`driver_input`)."""

    storage: ObjectStore
    credentials: Credentials
    codec: StagingCodec
    comm: HostCommModel
    clock: SimClock
    device_name: str
    #: A colocated host moves data over the cluster fabric, not the WAN.
    colocated: bool
    #: The device's one policy for every retryable operation.
    retry_policy: RetryPolicy
    #: The device's circuit breaker; an exhausted retry budget counts
    #: against it (:meth:`record_failure`).
    breaker: CircuitBreaker
    #: Where retry warnings go (the device's Spark log).
    log: SparkLog
    #: Values that supersede a host array (intermediates a fused job never
    #: materialized), by buffer name.
    spill: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        network = self.comm.network
        self.link = network.lan if self.colocated else network.wan
        # Backoff accumulated by concurrent staging threads, flushed to the
        # simulated clock once staging completes.
        self._pending_backoff_s = 0.0
        self._pending_retries = 0
        self._backoff_lock = threading.Lock()
        #: Checksums of host-staged objects by storage key: the evidence that
        #: the "implicit checkpoint" a resubmission reuses is still intact.
        self._staged_checksums: dict[str, str] = {}
        self._checksum_lock = threading.Lock()
        #: The driver's inflated inputs of the most recent job: (storage key,
        #: dtype, length) -> (the verified stored payload they came from,
        #: read-only array).  Staged keys are unique per offload and the
        #: store never deletes, so the table is cut to one job's inputs at
        #: each job's read.
        self._driver_inputs: dict[tuple, tuple[bytes, np.ndarray]] = {}

    # ------------------------------------------------------ retries + backoff
    def _with_retries(self, op_name: str, fn, *args, **kwargs):
        """Run a storage operation under the retry policy (thread-safe; the
        backoff is charged to the simulated clock once the transfer
        completes, via :meth:`charge_backoff`)."""

        def on_retry(failure: int, delay: float, exc: BaseException) -> None:
            with self._backoff_lock:
                self._pending_backoff_s += delay
                self._pending_retries += 1
            self.log.warn(self.clock.now, "CloudPlugin",
                          f"{op_name} failed transiently ({exc}); "
                          f"retrying in {delay:.1f}s")

        return retry_call(self.retry_policy, fn, *args,
                          retry_on=(TransientStorageError,),
                          op_name=op_name, on_retry=on_retry,
                          now=lambda: self.clock.now, **kwargs)

    def charge_backoff(self, report: Report) -> None:
        """Flush accumulated backoff to the simulated clock and into the
        report's observability counters + timeline."""
        with self._backoff_lock:
            delay, self._pending_backoff_s = self._pending_backoff_s, 0.0
            n_retries, self._pending_retries = self._pending_retries, 0
        if delay > 0.0:
            t0 = self.clock.now
            self.clock.advance(delay)
            report.timeline.record(Phase.RETRY_BACKOFF, t0, self.clock.now,
                                   resource="host", label="storage-backoff")
        report.retries += n_retries
        report.backoff_s += delay

    def _failure(self, report: Report, what: str,
                 exc: TransientStorageError) -> DeviceError:
        """Account an exhausted retry budget; the error to raise for it."""
        self.charge_backoff(report)
        self.record_failure()
        return DeviceError(
            f"{what} {self.storage.name} failed after "
            f"{self.retry_policy.max_attempts} attempt(s): {exc}")

    def record_failure(self) -> None:
        """Count one offload-level failure against the device's breaker;
        announce a fresh trip."""
        was_open = self.breaker.is_open(self.clock.now)
        self.breaker.record_failure(self.clock.now)
        if not was_open and self.breaker.is_open(self.clock.now):
            get_bus().emit(BreakerOpen(
                time=self.clock.now, resource=self.device_name,
                device=self.device_name,
                consecutive_failures=self.breaker.consecutive_failures))

    # ------------------------------------------------------- metadata rounds
    def exists(self, key: str) -> tuple[bool, int]:
        """Whether ``key`` is staged, and how many retried probes the answer
        cost.  An exhausted budget reads as absent: the caller degrades to a
        re-stage, not a failure."""
        with self._backoff_lock:
            before = self._pending_retries
        try:
            found = self._with_retries("EXISTS", self.storage.exists, key)
        except TransientStorageError:
            found = False
        with self._backoff_lock:
            return found, self._pending_retries - before

    def checksum_of(self, key: str) -> str | None:
        """The stored object's checksum: "" when the object is gone, None
        when storage kept failing (which says nothing about the object)."""
        try:
            return self._with_retries("CHECKSUM", self.storage.checksum_of, key)
        except NoSuchObjectError:
            return ""
        except TransientStorageError:
            return None

    def staged_checksum(self, key: str) -> str:
        """The checksum recorded when this engine staged ``key``, or ""."""
        return self._staged_checksums.get(key, "")

    # --------------------------------------------------------- host -> storage
    def upload(self, items: Items, mode: ExecutionMode, report: Report, *,
               what: str, phase: Phase, codec_phase: Phase | None = None,
               label: str = "") -> Charged:
        """Stage each ``(buffer, key)``: gzip above the threshold, one thread
        per buffer in functional mode, PUT under the retry policy, record the
        checksum; then charge backoff, compression and wire time to the clock
        and ``report``.  With ``codec_phase`` the compression gets its own
        span; without, one ``phase`` span covers both."""
        try:
            if mode == ExecutionMode.FUNCTIONAL and len(items) > 1:
                with ThreadPoolExecutor(max_workers=len(items)) as pool:
                    wire = list(pool.map(
                        lambda item: self._put(item[0], item[1], mode), items))
            else:
                wire = [self._put(buf, key, mode) for buf, key in items]
        except TransientStorageError as e:
            raise self._failure(report, f"{what} to", e) from e
        return self._charge(report, items, wire, phase, codec_phase, label,
                            up=True)

    def _put(self, buf: Buffer, key: str, mode: ExecutionMode) -> int:
        if mode == ExecutionMode.FUNCTIONAL:
            spilled = self.spill.get(buf.name)
            if spilled is not None:
                src = (spilled if spilled.flags["C_CONTIGUOUS"]
                       else np.ascontiguousarray(spilled))
                view = memoryview(src).cast("B").toreadonly()
            else:
                view = buf.payload_view()
            # Compress straight off the zero-copy view.  Storage materialises
            # its own bytes on PUT, so the stored object never aliases the
            # live host array.
            payload = self.codec.encode(view, buf.nbytes)
            wire, body = len(payload), {"data": payload}
        else:
            wire = self.codec.wire_size(model_for_density(buf.density),
                                        buf.nbytes)
            body = {"size": wire}
        obj = self._with_retries("PUT", self.storage.put, key,
                                 credentials=self.credentials, **body)
        with self._checksum_lock:
            self._staged_checksums[key] = obj.checksum
        return wire

    # --------------------------------------------------------- storage -> host
    def download(self, items: Items, mode: ExecutionMode, report: Report, *,
                 what: str, phase: Phase, codec_phase: Phase | None = None,
                 label: str = "",
                 landed: Callable[[Buffer, str], None] | None = None) -> Charged:
        """The mirror image: HEAD each key for its wire size and, in
        functional mode, GET + gunzip it into the host array (``landed`` is
        told after each one); then charge backoff, wire and decompression
        time."""
        wire: list[int] = []
        try:
            for buf, key in items:
                wire.append(self._with_retries("HEAD", self.storage.size_of, key))
                if mode == ExecutionMode.FUNCTIONAL and not buf.is_virtual:
                    self._fetch(buf, key, retry=True)
                    if landed is not None:
                        landed(buf, key)
        except TransientStorageError as e:
            raise self._failure(report, f"{what} from", e) from e
        return self._charge(report, items, wire, phase, codec_phase, label,
                            up=False)

    def sync_home(self, buf: Buffer, key: str) -> bool:
        """Best-effort copy of ``key`` into the host array: one attempt, no
        time charged; on any failure the host copy stays as-is."""
        try:
            self._fetch(buf, key, retry=False)
        except (StorageError, ValueError):
            return False
        return True

    def _fetch(self, buf: Buffer, key: str, *, retry: bool) -> None:
        get = self.storage.get_bytes
        payload = (self._with_retries("GET", get, key,
                                      credentials=self.credentials)
                   if retry else get(key, credentials=self.credentials))
        raw = self.codec.decode(payload, buf.nbytes)
        buf.require_data()[:] = np.frombuffer(raw, dtype=buf.dtype)

    # ------------------------------------------------------ storage -> driver
    def keep_driver_inputs(self, items: Items) -> None:
        """Start a job's input read: forget every inflated input that is not
        one of this job's ``(buffer, key)`` inputs, so the memo never
        outgrows a job."""
        wanted = {(key, buf.dtype, buf.length) for buf, key in items}
        self._driver_inputs = {ident: entry
                               for ident, entry in self._driver_inputs.items()
                               if ident in wanted}

    def driver_input(self, key: str, payload: bytes,
                     buf: Buffer) -> np.ndarray:
        """The driver's read-only array for ``payload``, the checksum-verified
        object a GET of ``key`` just returned.  It is inflated once per stored
        object and dtype: a later job whose GET returns the very same object
        (a cache hit, a resident mapping, a resubmission) reuses the array.
        The identity test, not the CRC32, stands for content; the dtype and
        length are part of the key because the staging cache hashes bytes
        only, so one object may back buffers of different types."""
        ident = (key, buf.dtype, buf.length)
        entry = self._driver_inputs.get(ident)
        if entry is not None and entry[0] is payload:
            return entry[1]
        raw = self.codec.decode(payload, buf.nbytes)
        arr = np.frombuffer(raw, dtype=buf.dtype).copy()
        arr.flags.writeable = False
        self._driver_inputs[ident] = (payload, arr)
        return arr

    # ------------------------------------------------------ simulated seconds
    def _charge(self, report: Report, items: Items, wire: list[int],
                phase: Phase, codec_phase: Phase | None, label: str, *,
                up: bool) -> Charged:
        """Charge one completed transfer: retry backoff, then codec and wire
        time (codec first going up, last coming down) spanned on the report's
        timeline; add the bytes to the report and announce each buffer."""
        self.charge_backoff(report)
        if not items:
            return Charged()
        plans = [TransferPlan(buf.name, buf.nbytes, model_for_density(buf.density))
                 for buf, _ in items]
        codec_s = (self.comm.upload(plans).compress_s if up
                   else self.comm.download(plans).decompress_s)
        # Wire sizes are the *actual* staged sizes (real gzip output in
        # functional mode), not the model's estimate.
        wire_s = self.link.parallel_transfer_time(wire)
        if codec_phase is None:  # one `phase` span covers both
            codec_s, wire_s = 0.0, codec_s + wire_s
        clock = self.clock

        def span(step: Phase, seconds: float) -> None:
            report.timeline.record(step, clock.now, clock.advance(seconds),
                                   resource="host", label=label)

        start = clock.now
        if up and codec_s > 0:
            span(codec_phase, codec_s)
        wire_start = clock.now
        span(phase, wire_s)
        if not up and codec_s > 0:
            span(codec_phase, codec_s)
        end = clock.now
        raw = sum(p.nbytes for p in plans)
        if up:
            report.bytes_up_raw += raw
            report.bytes_up_wire += sum(wire)
        else:
            report.bytes_down_raw += raw
            report.bytes_down_wire += sum(wire)
        bus = get_bus()
        for plan, sent in zip(plans, wire):
            if phase is Phase.TARGET_UPDATE:
                bus.emit(TargetUpdate(
                    time=end, resource=self.device_name,
                    device=self.device_name, buffer=plan.name,
                    direction="to" if up else "from",
                    bytes_raw=plan.nbytes, bytes_wire=sent))
            else:
                bus.emit((MapUpload if up else MapDownload)(
                    time=end, resource="host", buffer=plan.name,
                    bytes_raw=plan.nbytes, bytes_wire=sent,
                    start=wire_start, end=end))
        return Charged(start, end)
