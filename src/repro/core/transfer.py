"""How bytes move through cloud storage, on both sides of it.

"The cloud-specific plugin ... automatically creates a new thread for
transmitting each offloaded data (possibly after gzip compression if the data
size is larger than a predefined minimal compression size)."  Every construct
of the cloud plugin that moves mapped data goes through the one
:meth:`TransferEngine.upload` or the one :meth:`TransferEngine.download`
below; docs/DATA_ENV.md ("How bytes move") describes the path and what each
construct keeps to itself.  The Spark driver, on the other side of storage,
reads and writes through the same engine (:meth:`TransferEngine.driver_read`,
``driver_write``, ``driver_commit``, ``driver_restore``), by the host's
encode-and-PUT and GET-and-decode rules and the one :class:`StagingCodec`
threshold (the device's ``min_compress_size``) for which objects are gzip'd
and pay codec time; the engine charges their seconds too, so the Spark job
generator does no storage arithmetic.  Their retries are charged by the one
:meth:`TransferEngine.retry` hook the SSH connect uses too.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from repro.cloud.credentials import Credentials
from repro.cloud.network import NetworkModel
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
from repro.perfmodel.compression import (gzip_compress, gzip_decompress,
                                         model_for_density)
from repro.resilience import CircuitBreaker, RetryPolicy, retry_call
from repro.simtime.clock import SimClock
from repro.simtime.timeline import Phase
from repro.spark.logging import SparkLog

Report = Union[OffloadReport, DataEnvReport]
Items = Sequence[tuple[Buffer, str]]


@dataclass(frozen=True)
class StagingCodec:
    """Which staged buffers are gzip'd, what their objects are called and
    what the codec costs: the one rule both ends of the storage hop apply
    (the host's upload and download, the Spark driver's ``driver_*``)."""

    enabled: bool
    min_size: int

    def compresses(self, nbytes: int) -> bool:
        return self.enabled and nbytes >= self.min_size

    def key(self, stem: str, nbytes: int) -> str:
        return f"{stem}.bin" + (".gz" if self.compresses(nbytes) else "")

    def wire_size(self, buf: Buffer) -> int:
        """Modeled object size of ``buf``."""
        if not self.compresses(buf.nbytes):
            return buf.nbytes
        return model_for_density(buf.density).compressed_size(buf.nbytes)

    def encode(self, view: memoryview, nbytes: int) -> "bytes | memoryview":
        """The object to store for an ``nbytes`` buffer's raw bytes: gzip'd
        above the threshold, else the view itself (storage copies on PUT)."""
        return gzip_compress(view) if self.compresses(nbytes) else view

    def seconds(self, buf: Buffer, *, up: bool) -> float:
        """Modeled deflate (``up``) or inflate time of ``buf``: none below
        the threshold, on either hop."""
        if not self.compresses(buf.nbytes):
            return 0.0
        model = model_for_density(buf.density)
        return model.compress_time(buf.nbytes) if up else model.decompress_time(buf.nbytes)

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
    recent job (:meth:`driver_read`)."""

    storage: ObjectStore
    credentials: Credentials
    codec: StagingCodec
    network: NetworkModel
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
        self.link = self.network.lan if self.colocated else self.network.wan
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
            body = {"size": self.codec.wire_size(buf)}
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

    def _driver_span(self, report: OffloadReport, phase: Phase, seconds: float,
                     label: str) -> None:
        report.timeline.record(phase, self.clock.now, self.clock.advance(seconds),
                               resource="driver", label=label)

    def driver_read(self, report: OffloadReport, mode: ExecutionMode,
                    items: Items) -> tuple[list[np.ndarray | None], int]:
        """Read a job's ``(buffer, key)`` inputs onto the driver: HEAD each,
        charge the cluster read plus the inflate, then (functional) GET it.
        Returns the read-only arrays (None when modeled) and the wire bytes.
        The memo is first cut to this job's inputs, so it never outgrows one."""
        functional = mode == ExecutionMode.FUNCTIONAL
        if functional:
            wanted = {(key, buf.dtype, buf.length) for buf, key in items}
            self._driver_inputs = {ident: entry
                                   for ident, entry in self._driver_inputs.items()
                                   if ident in wanted}
        arrays: list[np.ndarray | None] = []
        total = 0
        for buf, key in items:
            wire = self._driver(report, "HEAD", self.storage.size_of, key)
            self._driver_span(report, Phase.STORAGE_READ,
                              self.storage.cluster_read_time(wire)
                              + self.codec.seconds(buf, up=False), f"read-{buf.name}")
            arrays.append(self._inflate(report, key, buf) if functional else None)
            total += wire
        return arrays, total

    def _inflate(self, report: OffloadReport, key: str, buf: Buffer) -> np.ndarray:
        """GET input ``key``; its read-only array, inflated once per stored
        object: a later GET that returns the very same object (a cache hit, a
        resident mapping, a resubmission) reuses it.  Identity, not the CRC32,
        stands for content; dtype and length are in the key because one
        object may back buffers of different types."""
        payload = self._driver(report, "GET", self.storage.get_bytes, key)
        ident = (key, buf.dtype, buf.length)
        entry = self._driver_inputs.get(ident)
        if entry is not None and entry[0] is payload:
            return entry[1]
        arr = self._decode(payload, buf).copy()
        arr.flags.writeable = False
        self._driver_inputs[ident] = (payload, arr)
        return arr

    def driver_write(self, report: OffloadReport, mode: ExecutionMode, stem: str,
                     buf: Buffer, arr: np.ndarray | None) -> tuple[str, int]:
        """PUT output ``buf`` (driver array ``arr``) under ``stem`` by the
        host's encode rule, then charge the deflate plus the cluster write;
        the key and the wire bytes.  Its checksum is not recorded: only
        host-staged objects are what a resubmission re-verifies."""
        key = self.codec.key(stem, buf.nbytes)
        obj = self._store(partial(self._driver, report, "PUT", self.storage.put),
                          key, buf, arr if mode == ExecutionMode.FUNCTIONAL else None)
        self._driver_span(report, Phase.STORAGE_WRITE,
                          self.codec.seconds(buf, up=True)
                          + self.storage.cluster_write_time(obj.size),
                          f"write-{buf.name}")
        return key, obj.size

    def driver_commit(self, report: OffloadReport, mode: ExecutionMode, key: str,
                      partition: list, nbytes: int) -> tuple[StoredObject, float]:
        """PUT one tile's output ``partition`` under ``key``, pickled (or, when
        modeled, ``nbytes`` long); the stored object and its cluster-write
        seconds, which the caller charges per stage."""
        body = ({"data": pickle.dumps(partition)} if mode == ExecutionMode.FUNCTIONAL
                else {"size": nbytes})
        obj = self._driver(report, "PUT", self.storage.put, key, **body)
        return obj, self.storage.cluster_write_time(obj.size)

    def driver_restore(self, report: OffloadReport, mode: ExecutionMode, key: str,
                       label: str) -> tuple[list, int]:
        """GET and unpickle one committed tile (when modeled, HEAD its size),
        then charge the cluster read; the partition ([] when modeled) and the
        wire bytes."""
        if mode == ExecutionMode.FUNCTIONAL:
            payload = self._driver(report, "GET", self.storage.get_bytes, key)
            partition, wire = pickle.loads(payload), len(payload)
        else:
            partition, wire = [], self._driver(report, "HEAD", self.storage.size_of, key)
        self._driver_span(report, Phase.STORAGE_READ,
                          self.storage.cluster_read_time(wire), label)
        return partition, wire

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
        # One host thread per buffer: the codec phase lasts as long as the
        # slowest buffer.
        codec_s = max(self.codec.seconds(buf, up=up) for buf, _ in items)
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
        raw = sum(buf.nbytes for buf, _ in items)
        if up:
            report.bytes_up_raw += raw
            report.bytes_up_wire += sum(wire)
        else:
            report.bytes_down_raw += raw
            report.bytes_down_wire += sum(wire)
        bus = get_bus()
        for (buf, _), sent in zip(items, wire):
            if phase is Phase.TARGET_UPDATE:
                bus.emit(TargetUpdate(
                    time=end, resource=self.device_name,
                    device=self.device_name, buffer=buf.name,
                    direction="to" if up else "from",
                    bytes_raw=buf.nbytes, bytes_wire=sent))
            else:
                bus.emit((MapUpload if up else MapDownload)(
                    time=end, resource="host", buffer=buf.name,
                    bytes_raw=buf.nbytes, bytes_wire=sent,
                    start=wire_start, end=end))
        return Charged(start, end)
