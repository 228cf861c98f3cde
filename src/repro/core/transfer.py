"""How bytes move through cloud storage, on both sides of it.

"The cloud-specific plugin ... automatically creates a new thread for
transmitting each offloaded data (possibly after gzip compression if the data
size is larger than a predefined minimal compression size)."  Every construct
of the cloud plugin that moves mapped data goes through the one
:meth:`TransferEngine.upload` or the one :meth:`TransferEngine.download`
below; docs/DATA_ENV.md ("How bytes move") describes the path and what each
construct keeps to itself.  The Spark driver, on the other side of storage,
reads and writes through the same engine: its input read, output write,
checkpoint commit and restore share the host's encode-and-PUT and
GET-and-decode rules, and their retries are charged by the one
:meth:`TransferEngine.retry` hook the SSH connect uses too.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from repro.cloud.credentials import Credentials
from repro.cloud.storage import (
    NoSuchObjectError,
    ObjectStore,
    StorageError,
    StoredObject,
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
    """The one storage client of a cloud device, for both hops: the host's
    side of host<->storage and the Spark driver's side of driver<->storage,
    with the driver's memo of the inputs it inflated for the device's most
    recent job (:meth:`driver_input`)."""

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
    def retry(self, report: Report | None, op_name: str, fn, *args,
              retry_on: tuple = (TransientStorageError,), failed: str = "",
              source: str = "CloudPlugin", resource: str = "host",
              label: str = "", defer: bool = False, **kwargs):
        """Run ``fn`` under the retry policy, each backoff logged by
        ``source``.  With ``defer`` (a host staging thread) the backoff waits
        for :meth:`charge_backoff`; otherwise it is charged to the clock where
        it happens and, given a ``report``, counted there and spanned on
        ``resource``'s row (the ``Retry`` event names the same resource)."""

        def on_retry(failure: int, delay: float, exc: BaseException) -> None:
            self.log.warn(self.clock.now, source,
                          f"{failed or op_name + ' failed transiently'} "
                          f"({exc}); retrying in {delay:.1f}s")
            if defer:
                with self._backoff_lock:
                    self._pending_backoff_s += delay
                    self._pending_retries += 1
                return
            t0, t1 = self.clock.now, self.clock.advance(delay)
            if report is not None:
                report.retries += 1
                report.backoff_s += delay
                report.timeline.record(Phase.RETRY_BACKOFF, t0, t1,
                                       resource=resource, label=label)

        return retry_call(self.retry_policy, fn, *args, retry_on=retry_on,
                          op_name=op_name, on_retry=on_retry, resource=resource,
                          now=lambda: self.clock.now, **kwargs)

    def _with_retries(self, op_name: str, fn, key: str, **kwargs):
        """A host storage operation, safe on a staging thread."""
        return self.retry(None, op_name, fn, key, defer=True, **kwargs)

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
        data = None
        if mode == ExecutionMode.FUNCTIONAL:
            spilled = self.spill.get(buf.name)
            data = buf.require_data() if spilled is None else spilled
        obj = self._store(partial(self._with_retries, "PUT", self.storage.put,
                                  credentials=self.credentials),
                          key, buf, data)
        with self._checksum_lock:
            self._staged_checksums[key] = obj.checksum
        return obj.size

    def _store(self, put, key: str, buf: Buffer,
               data: np.ndarray | None) -> StoredObject:
        """The encode-and-PUT rule of both hops, PUT through ``put``:
        ``buf``'s values ``data`` gzip'd straight off a zero-copy view
        (storage copies on PUT), or, for None (modeled), a virtual object of
        the modeled size."""
        if data is not None:
            view = memoryview(np.ascontiguousarray(data)).cast("B").toreadonly()
            body = {"data": self.codec.encode(view, buf.nbytes)}
        else:
            body = {"size": self.codec.wire_size(model_for_density(buf.density),
                                                 buf.nbytes)}
        return put(key, **body)

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
                    buf.require_data()[:] = self._decode(self._with_retries(
                        "GET", self.storage.get_bytes, key,
                        credentials=self.credentials), buf)
                    if landed is not None:
                        landed(buf, key)
        except TransientStorageError as e:
            raise self._failure(report, f"{what} from", e) from e
        return self._charge(report, items, wire, phase, codec_phase, label,
                            up=False)

    def sync_home(self, buf: Buffer, key: str) -> None:
        """Best-effort copy of ``key`` into the host array: one attempt, no
        time charged; on any failure the host copy stays as-is."""
        try:
            payload = self.storage.get_bytes(key, credentials=self.credentials)
            buf.require_data()[:] = self._decode(payload, buf)
        except (StorageError, ValueError):
            pass

    def _decode(self, payload: bytes, buf: Buffer) -> np.ndarray:
        """The GET-and-decode rule of both hops: ``buf``'s values in its
        stored object, which the store checksum-verified on GET (a read-only
        view)."""
        return np.frombuffer(self.codec.decode(payload, buf.nbytes),
                             dtype=buf.dtype)

    # ----------------------------------------------------- driver <-> storage
    def _driver(self, report: OffloadReport, op_name: str, fn, key: str, **kwargs):
        """A Spark-driver storage operation, with the store's own credentials.
        An exhausted budget fails only the submission, never the breaker."""
        return self.retry(report, op_name, fn, key, source="HadoopRDD",
                          resource="driver", label="storage-backoff", **kwargs)

    def driver_size(self, report: OffloadReport, key: str) -> int:
        """HEAD ``key`` from the driver: its stored size."""
        return self._driver(report, "HEAD", self.storage.size_of, key)

    def driver_get(self, report: OffloadReport, key: str) -> bytes:
        """GET ``key`` from the driver: its checksum-verified payload."""
        return self._driver(report, "GET", self.storage.get_bytes, key)

    def driver_put(self, report: OffloadReport, key: str, **body) -> StoredObject:
        """PUT ``body`` (``data=`` or ``size=``) under ``key`` from the driver."""
        return self._driver(report, "PUT", self.storage.put, key, **body)

    def driver_output(self, report: OffloadReport, key: str, buf: Buffer,
                      arr: np.ndarray | None) -> StoredObject:
        """Write output ``buf`` (driver array ``arr``) by the host's rule; only
        host-staged checksums are recorded (resubmissions re-verify those)."""
        return self._store(partial(self.driver_put, report), key, buf, arr)

    def keep_driver_inputs(self, items: Items) -> None:
        """Start a job's input read: forget every inflated input that is not
        one of this job's ``(buffer, key)`` inputs, so the memo never
        outgrows a job."""
        wanted = {(key, buf.dtype, buf.length) for buf, key in items}
        self._driver_inputs = {ident: entry
                               for ident, entry in self._driver_inputs.items()
                               if ident in wanted}

    def driver_input(self, report: OffloadReport, key: str,
                     buf: Buffer) -> np.ndarray:
        """GET input ``key`` from the driver; its read-only array.  The
        checksum-verified payload is inflated once per stored object and
        dtype: a later job whose GET returns the very same object (a cache
        hit, a resident mapping, a resubmission) reuses the array.  The
        identity test, not the CRC32, stands for content; the dtype and
        length are part of the key because the staging cache hashes bytes
        only, so one object may back buffers of different types."""
        payload = self.driver_get(report, key)
        ident = (key, buf.dtype, buf.length)
        entry = self._driver_inputs.get(ident)
        if entry is not None and entry[0] is payload:
            return entry[1]
        arr = self._decode(payload, buf).copy()
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
