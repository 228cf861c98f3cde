"""Lowering target regions to Spark jobs (Eq. 4-10 + Algorithm 1).

In the paper this is the Scala program LLVM emits next to the fat binary:
"When submitting the job to the cluster, the driver node runs the Scala
program and distributes the loop iteration among the worker nodes", the
workers running the loop body natively through JNI.  Here the generator
builds the same job directly against the Spark substrate:

1. read the staged input files from cloud storage onto the driver;
2. per parallel loop: tile the iteration space to the core count
   (Algorithm 1), split partitioned inputs into per-tile windows (Eq. 3),
   broadcast unpartitioned inputs, ``map`` the tile body (Eq. 4-7), collect,
   and reconstruct outputs — indexed writes for partitioned variables,
   ``bitor`` reduction for unpartitioned ones, the OpenMP reduction operator
   for reduction variables (Eq. 8-10);
3. write region outputs back to cloud storage.

The generator runs in both execution modes: functional (real ndarrays, the
body really executes on the substrate) and modeled (virtual buffers, task
durations from the performance model).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence, Union

import numpy as np

from repro.core.api import ParallelLoop, TargetRegion
from repro.core.buffers import Buffer, ExecutionMode, OffsetArray
from repro.core.omp_ast import REDUCTION_OPS, MapType
from repro.core.partition import partition_windows
from repro.core.tiling import (Tile, drop_empty_tiles, tile_by_chunk,
                               tile_iterations, tile_weighted, untiled)
from repro.core.transfer import StagingCodec
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compression import CompressionModel, gzip_compress, gzip_decompress, model_for_density
from repro.perfmodel.compute import ComputeModel
from repro.obs.events import CheckpointCommit, get_bus
from repro.resilience import OffloadJournal, RetryPolicy, TileCheckpoint, retry_call
from repro.simtime.timeline import Phase
from repro.spark.context import SparkContext
from repro.spark.driver import TaskCostsArrays
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import STATIC_SCHEDULE, ScheduleConfig
from repro.cloud.storage import TransientStorageError
from repro.spark.serialization import check_jvm_array_limit


class CodegenError(Exception):
    """Region cannot be lowered to a Spark job."""


class ExecutorOOMError(CodegenError):
    """A loop's working set cannot fit in the executor heap.

    Mirrors the JVM OutOfMemoryError a real Spark executor throws when the
    broadcast blocks plus the concurrently-resident task payloads exceed
    ``spark.executor.memory`` (the paper runs 40 GB heaps on 60 GB nodes)."""


@dataclass
class LoopJobReport:
    """Per-loop accounting returned to the plugin."""

    loop_var: str
    n_tasks: int
    computation_s: float
    recomputed_tasks: int
    speculated_tasks: int = 0
    speculation_wins: int = 0
    speculation_saved_s: float = 0.0
    # Durable recovery: tiles committed / resumed-from this submission.
    tiles_checkpointed: int = 0
    tiles_skipped: int = 0
    bytes_restored: int = 0
    # Cluster-fabric bytes the scheduled tasks moved (inputs + outputs).
    task_bytes_wire: int = 0


@dataclass
class SparkJobReport:
    """What one spark-submit produced."""

    started_at: float
    finished_at: float
    loops: list[LoopJobReport] = field(default_factory=list)
    output_keys: dict[str, str] = field(default_factory=dict)
    output_checksums: dict[str, str] = field(default_factory=dict)
    # Cluster<->storage wire bytes the driver moved: input reads and
    # checkpoint restores on one side, output and checkpoint writes on the
    # other.  Fusion elides intermediate arrays from both sides.
    storage_bytes_read: int = 0
    storage_bytes_written: int = 0

    @property
    def job_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def storage_bytes_wire(self) -> int:
        return self.storage_bytes_read + self.storage_bytes_written

    @property
    def computation_s(self) -> float:
        return sum(lp.computation_s for lp in self.loops)

    @property
    def tasks_run(self) -> int:
        return sum(lp.n_tasks for lp in self.loops)

    @property
    def tasks_recomputed(self) -> int:
        return sum(lp.recomputed_tasks for lp in self.loops)

    @property
    def tasks_speculated(self) -> int:
        return sum(lp.speculated_tasks for lp in self.loops)

    @property
    def speculation_wins(self) -> int:
        return sum(lp.speculation_wins for lp in self.loops)

    @property
    def speculation_saved_s(self) -> float:
        return sum(lp.speculation_saved_s for lp in self.loops)

    @property
    def tiles_checkpointed(self) -> int:
        return sum(lp.tiles_checkpointed for lp in self.loops)

    @property
    def tiles_skipped(self) -> int:
        return sum(lp.tiles_skipped for lp in self.loops)

    @property
    def bytes_restored(self) -> int:
        return sum(lp.bytes_restored for lp in self.loops)

    @property
    def task_bytes_wire(self) -> int:
        return sum(lp.task_bytes_wire for lp in self.loops)


@dataclass
class _LoopTiling:
    """One loop's tiles as arrays, derived once per loop and shared by the
    memory check, the cost synthesis and the element building: the tile
    bounds, how each variable travels, and per partitioned variable the
    element window ``[wlo, whi)`` every tile touches (Eq. 3)."""

    lo: np.ndarray
    hi: np.ndarray
    partitioned_reads: list[str]
    broadcast_reads: list[str]
    #: Written through a per-tile window (partitioned, not a reduction);
    #: every other write ships a full partial buffer per task.
    partitioned_writes: list[str]
    windows: dict[str, tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.lo)

    def take(self, keep: np.ndarray) -> "_LoopTiling":
        """The tiling restricted to the tiles selected by mask ``keep``."""
        return replace(
            self, lo=self.lo[keep], hi=self.hi[keep],
            windows={nm: (wlo[keep], whi[keep])
                     for nm, (wlo, whi) in self.windows.items()})


class SparkJobGenerator:
    """Builds and runs the Spark job for one target region."""

    def __init__(
        self,
        region: TargetRegion,
        scalars: Mapping[str, Union[int, float]],
        context: SparkContext,
        calibration: Calibration = DEFAULT_CALIBRATION,
        mode: ExecutionMode = ExecutionMode.FUNCTIONAL,
        tiling: bool = True,
        intra_compression: bool = True,
        fault_plan: FaultPlan = NO_FAULTS,
        host_compression: bool = True,
        min_compress_size: int | None = None,
        retry_policy: RetryPolicy | None = None,
        schedule: ScheduleConfig = STATIC_SCHEDULE,
        journal: OffloadJournal | None = None,
        checkpoint: bool = False,
        resume: Mapping[int, Mapping[int, TileCheckpoint]] | None = None,
        death_at: float | None = None,
    ) -> None:
        self.region = region
        self.scalars = dict(scalars)
        self.sc = context
        self.cal = calibration
        self.mode = mode
        self.tiling = tiling
        self.intra_compression = intra_compression
        self.fault_plan = fault_plan
        #: How the plugin encoded what it staged, and how outputs must be
        #: encoded for it: the same rule decides both sides of the hop.
        self.staging = StagingCodec(
            host_compression,
            min_compress_size if min_compress_size is not None
            else calibration.min_compress_size)
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.schedule = schedule
        #: Recovery wiring: when ``checkpoint`` is on, completed tile outputs
        #: are committed to storage and journaled; ``resume`` carries the
        #: checkpoints a replacement driver verified, by the loop's ordinal
        #: in the region (loops of one region may share a loop variable —
        #: 2mm, 3mm), so those tiles are restored instead of rescheduled.
        #: ``death_at`` bounds which task completions were durable before
        #: the driver died (None = no death pending — every completion
        #: commits).
        self.journal = journal
        self.checkpoint = checkpoint
        self.resume = dict(resume) if resume else {}
        self.death_at = death_at
        self.compute_model = ComputeModel(calibration)
        self._driver_arrays: dict[str, np.ndarray | None] = {}
        self._buffer_info: dict[str, Buffer] = {}
        self._storage = None
        self._key_prefix = ""
        # Driver<->storage wire-byte accounting (one generator per
        # submission, so plain instance counters suffice).
        self._storage_bytes_read = 0
        self._storage_bytes_written = 0

    # ------------------------------------------------------------------ run
    def run(
        self,
        buffers: Mapping[str, Buffer],
        storage,
        input_keys: Mapping[str, str],
        key_prefix: str,
    ) -> SparkJobReport:
        """Execute the whole job; advances the cluster clock."""
        clock = self.sc.clock
        timeline = self.sc.timeline
        started = clock.now
        self._buffer_info = dict(buffers)
        self._storage = storage
        self._key_prefix = key_prefix

        # Stage setup: spark-submit, driver JVM, stage DAG.
        self.sc.log.info(clock.now, "SparkContext",
                         f"Running OmpCloud job for region {self.region.name!r} on "
                         f"{self.sc.cluster.total_task_slots} task slots")
        timeline.record(Phase.CLUSTER_INIT, clock.now, clock.advance(self.cal.job_setup_s),
                        resource="driver", label="job-setup")

        self._read_inputs(buffers, storage, input_keys)
        self._allocate_locals()

        report = SparkJobReport(started_at=started, finished_at=started)
        for ordinal, loop in enumerate(self.region.loops):
            report.loops.append(self._run_loop(loop, ordinal))

        report.output_keys, report.output_checksums = \
            self._write_outputs(storage, key_prefix)
        report.finished_at = clock.now
        report.storage_bytes_read = self._storage_bytes_read
        report.storage_bytes_written = self._storage_bytes_written
        return report

    # --------------------------------------------------------------- staging
    def _storage_retry(self, op_name: str, fn, *args, **kwargs):
        """Driver-side storage access with Hadoop-client-style retries;
        backoff is charged to the simulated clock."""

        def on_retry(failure: int, delay: float, exc: BaseException) -> None:
            self.sc.log.warn(self.sc.clock.now, "HadoopRDD",
                             f"{op_name} failed transiently ({exc}); "
                             f"retrying in {delay:.1f}s")
            self.sc.clock.advance(delay)

        return retry_call(self.retry_policy, fn, *args,
                          retry_on=(TransientStorageError,),
                          op_name=op_name, on_retry=on_retry, **kwargs)

    def _read_inputs(self, buffers, storage, input_keys) -> None:
        clock, timeline = self.sc.clock, self.sc.timeline
        for name in self.region.input_names:
            buf = buffers[name]
            key = input_keys[name]
            wire = self._storage_retry("HEAD", storage.size_of, key)
            self._storage_bytes_read += wire
            codec = self._codec_for(buf)
            dt = storage.cluster_read_time(wire)
            if self.staging.compresses(buf.nbytes):
                dt += codec.decompress_time(buf.nbytes)
            timeline.record(Phase.STORAGE_READ, clock.now, clock.advance(dt),
                            resource="driver", label=f"read-{name}")
            if self.mode == ExecutionMode.FUNCTIONAL:
                raw = self._storage_retry("GET", storage.get_bytes, key)
                if self.staging.compresses(buf.nbytes):
                    raw = gzip_decompress(raw)
                self._driver_arrays[name] = np.frombuffer(raw, dtype=buf.dtype).copy()
            else:
                self._driver_arrays[name] = None
        # Output-only variables exist on the driver but carry no uploaded
        # payload; allocate them for reconstruction.
        for name in self.region.output_names:
            if name in self._driver_arrays:
                continue
            buf = buffers[name]
            self._driver_arrays[name] = (
                np.zeros(buf.length, dtype=buf.dtype)
                if self.mode == ExecutionMode.FUNCTIONAL
                else None
            )

    def _allocate_locals(self) -> None:
        for name in self.region.locals_:
            length = self.region.declared_length(name, self.scalars)
            buf = Buffer(name, length=length, dtype=np.float32)
            self._buffer_info[name] = buf
            self._driver_arrays[name] = (
                np.zeros(length, dtype=np.float32)
                if self.mode == ExecutionMode.FUNCTIONAL
                else None
            )

    def _write_outputs(self, storage, key_prefix: str) -> tuple[dict[str, str], dict[str, str]]:
        clock, timeline = self.sc.clock, self.sc.timeline
        out_keys: dict[str, str] = {}
        out_checksums: dict[str, str] = {}
        for name in self.region.output_names:
            buf = self._buffer_info[name]
            codec = self._codec_for(buf)
            compressed = self.staging.compresses(buf.nbytes)
            key = self.staging.key(f"{key_prefix}/out/{name}", buf.nbytes)
            if self.mode == ExecutionMode.FUNCTIONAL:
                arr = self._driver_arrays[name]
                assert arr is not None
                # Zero-copy staging: compress (or PUT) straight from a view
                # of the driver array; storage materialises its own bytes.
                view = memoryview(arr).cast("B").toreadonly()
                payload = gzip_compress(view) if compressed else view
                obj = self._storage_retry("PUT", storage.put, key, data=payload)
                wire = len(payload)
            else:
                wire = self.staging.wire_size(codec, buf.nbytes)
                obj = self._storage_retry("PUT", storage.put, key, size=wire)
            self._storage_bytes_written += wire
            dt = codec.compress_time(buf.nbytes) if compressed else 0.0
            dt += storage.cluster_write_time(wire)
            timeline.record(Phase.STORAGE_WRITE, clock.now, clock.advance(dt),
                            resource="driver", label=f"write-{name}")
            out_keys[name] = key
            out_checksums[name] = obj.checksum
        return out_keys, out_checksums

    # ------------------------------------------------------------- loop jobs
    def _run_loop(self, loop: ParallelLoop, ordinal: int) -> LoopJobReport:
        clock, timeline = self.sc.clock, self.sc.timeline
        n = loop.trip_count_value(self.scalars)
        cores = self.sc.cluster.total_task_slots
        tiles = self._tiles_for(loop, n, cores)
        if not tiles:
            return LoopJobReport(loop_var=loop.loop_var, n_tasks=0,
                                 computation_s=0.0, recomputed_tasks=0)

        self._check_jvm_limits(loop)
        tiling = self._tiling_for(loop, tiles)
        partitioned_reads = tiling.partitioned_reads
        broadcast_reads = tiling.broadcast_reads
        self._check_executor_memory(loop, tiling)

        # Resume: drop tiles whose outputs were durably committed before the
        # crash.  A checkpoint only counts if the current tiling produced the
        # exact same tile (index and bounds) — anything else is stale.
        completed: dict[int, TileCheckpoint] = {}
        if self.resume:
            by_index = {t.index: t for t in tiles}
            completed = {
                i: c for i, c in self.resume.get(ordinal, {}).items()
                if i in by_index
                and by_index[i].lo == c.lo and by_index[i].hi == c.hi
            }
        live = [t for t in tiles if t.index not in completed]
        if completed:
            tiling = tiling.take(np.fromiter(
                (t.index not in completed for t in tiles),
                dtype=bool, count=len(tiles)))

        self.sc.log.info(clock.now, "OmpCloudJob",
                         f"loop over {loop.loop_var!r}: {n} iterations -> "
                         f"{len(tiles)} tiles; split={partitioned_reads} "
                         f"broadcast={broadcast_reads}"
                         + (f"; resuming past {len(completed)} committed tile(s)"
                            if completed else ""))

        # Driver splits partitioned inputs into per-tile windows (Eq. 3).
        split_bytes = sum(self._buffer_info[nm].nbytes for nm in partitioned_reads)
        if split_bytes and live:
            dt = split_bytes / self.cal.driver_byte_bps
            timeline.record(Phase.RECONSTRUCT, clock.now, clock.advance(dt),
                            resource="driver", label=f"split-{loop.loop_var}")

        # Broadcast unpartitioned inputs; serialization on the driver, then
        # the scheduler charges the BitTorrent distribution.
        handles = {}
        for nm in broadcast_reads if live else []:
            buf = self._buffer_info[nm]
            dt = buf.nbytes / self.cal.broadcast_serialize_bps
            timeline.record(Phase.BROADCAST, clock.now, clock.advance(dt),
                            resource="driver", label=f"serialize-{nm}")
            wire = self._wire_bytes(buf, buf.nbytes)
            value = self._driver_arrays[nm] if self.mode == ExecutionMode.FUNCTIONAL else None
            handles[nm] = self.sc.broadcast(value, nbytes=wire)

        costs = self._task_costs(loop, tiling)
        job = None
        computation = 0.0
        if live:
            elements = self._elements_for(live, tiling)
            rdd = self.sc.parallelize(elements, num_slices=len(live))
            map_fn = self._make_map_fn(loop, handles)
            mapped = rdd.map(map_fn)

            self.sc.cluster.reset_pools()
            self.sc.log.info(clock.now, "DAGScheduler",
                             f"Submitting map stage for loop {loop.loop_var!r} "
                             f"({len(live)} tasks)")
            job = self.sc.driver.run_job(
                mapped,
                costs=costs,
                broadcasts=tuple(handles.values()),
                fault_plan=self.fault_plan,
                functional=self.mode == ExecutionMode.FUNCTIONAL,
                schedule=self.schedule,
                stage=loop.loop_var,
            )
            self.sc.timeline.extend(job.timeline)
            self.sc.log.info(clock.now, "DAGScheduler",
                             f"Map stage for loop {loop.loop_var!r} finished in "
                             f"{job.stats.makespan_s:.3f} s "
                             f"({job.stats.recomputed_tasks} task(s) recomputed)")
            computation = job.timeline.filter([Phase.COMPUTE, Phase.JNI_CALL]).span()

        committed = self._commit_checkpoints(loop, ordinal, live, job, costs)
        restored, bytes_restored = self._restore_checkpoints(loop, completed)

        partitions = (list(job.partitions) if job is not None else []) + restored
        self._reconstruct(loop, partitions, tiles)
        task_bytes = int(np.sum(costs.input_bytes) + np.sum(costs.output_bytes))
        return LoopJobReport(
            loop_var=loop.loop_var,
            n_tasks=len(live),
            computation_s=computation,
            recomputed_tasks=job.stats.recomputed_tasks if job is not None else 0,
            speculated_tasks=job.stats.speculated_tasks if job is not None else 0,
            speculation_wins=job.stats.speculation_wins if job is not None else 0,
            speculation_saved_s=job.stats.speculation_saved_s if job is not None else 0.0,
            tiles_checkpointed=committed,
            tiles_skipped=len(completed),
            bytes_restored=bytes_restored,
            task_bytes_wire=task_bytes,
        )

    def _commit_checkpoints(self, loop: ParallelLoop, ordinal: int,
                            live: list[Tile], job,
                            costs: TaskCostsArrays) -> int:
        """Durably commit each completed tile's output (tile-granular
        checkpointing).  Only completions that landed *before* a pending
        driver death were flushed; later ones died with the driver.  Commits
        happen worker-side in parallel with the tail of the stage, so the
        charged wall time is the per-node share, not the serial sum."""
        if not self.checkpoint or job is None or self._storage is None:
            return 0
        clock, timeline = self.sc.clock, self.sc.timeline
        storage = self._storage
        committed = 0
        write_s = 0.0
        for tres in job.stats.results:
            split = tres.split
            tile = live[split]
            if self.death_at is not None and tres.end >= self.death_at:
                continue  # completed after the driver was already gone
            key = f"{self._key_prefix}/ckpt/{ordinal}/{tile.index}.bin"
            if self.mode == ExecutionMode.FUNCTIONAL:
                payload = pickle.dumps(job.partitions[split])
                obj = self._storage_retry("PUT", storage.put, key, data=payload)
            else:
                obj = self._storage_retry("PUT", storage.put, key,
                                          size=int(costs.output_bytes[split]))
            write_s += storage.cluster_write_time(obj.size)
            self._storage_bytes_written += obj.size
            if self.journal is not None:
                self.journal.record(
                    "tile_done", get_bus().current_correlation(), clock.now,
                    region=self.region.name, loop=ordinal,
                    loop_var=loop.loop_var,
                    tile=tile.index, lo=tile.lo, hi=tile.hi, key=key,
                    checksum=obj.checksum, nbytes=obj.size, end=tres.end,
                )
            get_bus().emit(CheckpointCommit(
                time=clock.now, resource="cluster", region=self.region.name,
                loop_var=loop.loop_var, tile=tile.index, key=key,
                nbytes=obj.size, checksum=obj.checksum,
            ))
            committed += 1
        if committed:
            dt = write_s / max(1, self.sc.cluster.active_worker_nodes)
            timeline.record(Phase.STORAGE_WRITE, clock.now, clock.advance(dt),
                            resource="cluster", label=f"ckpt-{loop.loop_var}")
        return committed

    def _restore_checkpoints(self, loop: ParallelLoop,
                             completed: dict[int, TileCheckpoint]
                             ) -> tuple[list[list[Any]], int]:
        """Read committed tile outputs back onto the replacement driver.

        Returns (partitions to merge into reconstruction, bytes restored).
        Every read is checksum-verified by the store itself."""
        if not completed or self._storage is None:
            return [], 0
        clock, timeline = self.sc.clock, self.sc.timeline
        restored: list[list[Any]] = []
        total = 0
        for i in sorted(completed):
            ckpt = completed[i]
            if self.mode == ExecutionMode.FUNCTIONAL:
                payload = self._storage_retry("GET", self._storage.get_bytes,
                                              ckpt.key)
                restored.append(pickle.loads(payload))
                nbytes = len(payload)
            else:
                nbytes = self._storage_retry("HEAD", self._storage.size_of,
                                             ckpt.key)
                restored.append([])
            total += nbytes
            self._storage_bytes_read += nbytes
            dt = self._storage.cluster_read_time(nbytes)
            timeline.record(Phase.STORAGE_READ, clock.now, clock.advance(dt),
                            resource="driver",
                            label=f"restore-{loop.loop_var}-{i}")
        return restored, total

    def _tiling_for(self, loop: ParallelLoop, tiles: list[Tile]) -> _LoopTiling:
        """Classify the loop's variables and evaluate (and range-check) every
        partition window over all ``tiles`` at once."""
        partitioned_reads = [
            nm for nm in loop.reads if nm in loop.partitions and loop.partitions[nm].is_partitioned
        ]
        reductions = loop.reduction_vars
        partitioned_writes = [
            nm for nm in loop.writes
            if nm not in reductions and nm in loop.partitions
            and loop.partitions[nm].is_partitioned
        ]
        n = len(tiles)
        lo = np.fromiter((t.lo for t in tiles), dtype=np.int64, count=n)
        hi = np.fromiter((t.hi for t in tiles), dtype=np.int64, count=n)
        windows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for nm in dict.fromkeys((*partitioned_reads, *partitioned_writes)):
            wlo, whi = partition_windows(loop.partitions[nm], lo, hi, self.scalars)
            self._check_windows(self._buffer_info[nm], wlo, whi)
            windows[nm] = (wlo, whi)
        return _LoopTiling(
            lo=lo, hi=hi, partitioned_reads=partitioned_reads,
            broadcast_reads=[nm for nm in loop.reads if nm not in partitioned_reads],
            partitioned_writes=partitioned_writes, windows=windows)

    def _tiles_for(self, loop: ParallelLoop, n: int, cores: int) -> list[Tile]:
        """Tiling policy: an explicit schedule chunk wins; otherwise
        Algorithm 1 — or its capacity-weighted variant under schedule mode
        ``weighted`` — or per-iteration tasks when tiling is disabled.
        Empty tiles are values, never tasks: they are dropped here."""
        if not self.tiling:
            return drop_empty_tiles(untiled(n))
        sched = loop.parallel_for.schedule
        if sched is not None and sched.chunk:
            return drop_empty_tiles(tile_by_chunk(n, sched.chunk))
        if sched is not None and sched.kind in ("dynamic", "guided"):
            # No chunk given: OpenMP's dynamic default is fine-grained; use
            # 4 waves per core as a Spark-friendly compromise.
            return drop_empty_tiles(tile_by_chunk(n, max(1, n // (cores * 4))))
        if self.schedule.weighted and n > 0:
            return drop_empty_tiles(
                tile_weighted(n, self.sc.cluster.slot_capacities()))
        return drop_empty_tiles(tile_iterations(n, cores))

    # ------------------------------------------------------------- elements
    def _elements_for(self, tiles: list[Tile], tiling: _LoopTiling) -> Sequence[Any]:
        """RDD elements for every live tile: ``(index, lo, hi, {name: (read
        offset, read window copied from the driver)}, {name: (write lo,
        write hi)})``, windows from ``tiling``.  Modeled jobs never read an
        element (no closure runs), so theirs collapse to ``range(n)``."""
        if self.mode != ExecutionMode.FUNCTIONAL:
            return range(len(tiles))
        reads = [
            (nm, self._driver_arrays[nm], *(w.tolist() for w in tiling.windows[nm]))
            for nm in tiling.partitioned_reads]
        writes = [(nm, *(w.tolist() for w in tiling.windows[nm]))
                  for nm in tiling.partitioned_writes]
        return [
            (t.index, t.lo, t.hi,
             {nm: (wlo[j], arr[wlo[j]:whi[j]].copy())
              for nm, arr, wlo, whi in reads},
             {nm: (wlo[j], whi[j]) for nm, wlo, whi in writes})
            for j, t in enumerate(tiles)
        ]

    def _make_map_fn(self, loop: ParallelLoop, handles):
        """The worker-side mapping function (Eq. 5): run the tile body over
        windows + broadcasts, return the partial outputs (Eq. 6)."""
        region = self.region
        scalars = self.scalars
        reductions = loop.reduction_vars
        buffer_info = self._buffer_info

        def map_fn(elem):
            idx, lo, hi, read_windows, write_windows = elem
            arrays: dict[str, Any] = {}
            outs: dict[str, tuple] = {}
            for nm in loop.reads:
                if nm in read_windows:
                    off, data = read_windows[nm]
                    arrays[nm] = OffsetArray(data, off)
                else:
                    arrays[nm] = handles[nm].value
            for nm in loop.writes:
                if nm in reductions:
                    identity, _ = REDUCTION_OPS[reductions[nm]]
                    buf = np.full(buffer_info[nm].length, identity,
                                  dtype=buffer_info[nm].dtype)
                    arrays[nm] = buf
                    outs[nm] = ("red", 0, buf)
                elif nm in write_windows:
                    p_lo, p_hi = write_windows[nm]
                    if nm in arrays:  # tofrom window doubles as the output
                        view = arrays[nm]
                        outs[nm] = ("part", p_lo, view.local)
                    else:
                        local = np.zeros(p_hi - p_lo, dtype=buffer_info[nm].dtype)
                        arrays[nm] = OffsetArray(local, p_lo)
                        outs[nm] = ("part", p_lo, local)
                else:
                    if (region.map_type_of(nm) or MapType.FROM) == MapType.TOFROM \
                            and nm not in region.locals_:
                        raise CodegenError(
                            f"{nm!r} is an unpartitioned tofrom output: the bitor "
                            f"reconstruction (Eq. 8) cannot preserve its input value. "
                            f"Partition it or declare a reduction."
                        )
                    full = np.zeros(buffer_info[nm].length, dtype=buffer_info[nm].dtype)
                    arrays[nm] = full
                    outs[nm] = ("full", 0, full)
            loop.body(lo, hi, arrays, scalars)
            return (idx, lo, hi, outs)

        return map_fn

    # ----------------------------------------------------------------- costs
    def _task_costs(self, loop: ParallelLoop, tiling: _LoopTiling) -> TaskCostsArrays:
        """Per-task costs for every tile of ``tiling``, in one numpy pass."""
        slots_per_node = self.sc.cluster.executors[0].task_slots
        n_nodes = self.sc.cluster.active_worker_nodes
        n = len(tiling)
        lo, hi, windows = tiling.lo, tiling.hi, tiling.windows
        k = min(slots_per_node, max(1, -(-n // n_nodes)))
        intensity = self.region.memory_intensity
        # Each node decompresses its copy of every broadcast once; the cost is
        # amortized over the tasks co-resident on the node.
        bcast_raw = sum(self._buffer_info[nm].nbytes for nm in tiling.broadcast_reads)
        bcast_share = bcast_raw / k if k else 0.0

        fpi = loop.flops_per_iter
        if fpi is None:
            flops = np.zeros(n, dtype=np.float64)
        elif callable(fpi):
            flops = np.fromiter(
                (loop.tile_flops(a, b, self.scalars)
                 for a, b in zip(lo.tolist(), hi.tolist())),
                dtype=np.float64, count=n)
        else:
            flops = float(fpi) * (hi - lo)
        compute_s, jni_s = self.compute_model.task_timing_vec(
            flops, tasks_on_node=k, slots_per_node=slots_per_node,
            intensity=intensity, task_indices=np.arange(n), jni_calls=1)

        in_raw = np.zeros(n, dtype=np.int64)
        in_wire = np.zeros(n, dtype=np.int64)
        for nm in tiling.partitioned_reads:
            buf = self._buffer_info[nm]
            wlo, whi = windows[nm]
            raw = (whi - wlo) * buf.itemsize
            in_raw += raw
            in_wire += self._wire_bytes_vec(buf, raw)
        out_raw = np.zeros(n, dtype=np.int64)
        out_wire = np.zeros(n, dtype=np.int64)
        for nm in loop.writes:
            buf = self._buffer_info[nm]
            if nm in tiling.partitioned_writes:
                wlo, whi = windows[nm]
                raw = (whi - wlo) * buf.itemsize
            else:
                # Full partial array per task (the paper's Eq. 6-8), or a
                # whole reduction buffer.
                raw = np.full(n, buf.nbytes, dtype=np.int64)
            out_raw += raw
            out_wire += self._wire_bytes_vec(buf, raw)

        return TaskCostsArrays(
            compute_s=compute_s,
            jni_s=jni_s,
            decompress_s=(in_raw + bcast_share) / self.cal.worker_byte_bps,
            compress_s=out_raw / self.cal.worker_byte_bps,
            input_bytes=in_wire,
            output_bytes=out_wire,
        )

    @staticmethod
    def _check_windows(buf: Buffer, lo: np.ndarray, hi: np.ndarray) -> None:
        """Vectorized ``Buffer._check_range`` over window arrays."""
        bad = (lo < 0) | (hi < lo) | (hi > buf.length)
        if np.any(bad):
            j = int(np.argmax(bad))
            buf._check_range(int(lo[j]), int(hi[j]))  # raises the scalar IndexError

    def _wire_bytes_vec(self, buf: Buffer, raw: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_wire_bytes`: same threshold-0 gzip rounding.

        ``int(round(x))`` and ``np.rint`` both round half to even, so each
        element matches ``CompressionModel.compressed_size(raw_j, 0)``.
        """
        if not self.intra_compression:
            return raw
        ratio = self._codec_for(buf).ratio
        return np.rint(raw * ratio).astype(np.int64)

    # ------------------------------------------------------------ reconstruct
    def _reconstruct(self, loop: ParallelLoop, partitions: list[list[Any]], tiles) -> None:
        clock, timeline = self.sc.clock, self.sc.timeline
        out_raw = 0
        for nm in loop.writes:
            buf = self._buffer_info[nm]
            spec = loop.partitions.get(nm)
            if spec is not None and spec.is_partitioned and nm not in loop.reduction_vars:
                out_raw += buf.nbytes
            else:
                out_raw += buf.nbytes * len(tiles)  # bitor/reduce over per-task fulls
        if self.mode == ExecutionMode.FUNCTIONAL:
            self._reconstruct_functional(loop, partitions)
        dt = out_raw / self.cal.driver_byte_bps
        timeline.record(Phase.RECONSTRUCT, clock.now, clock.advance(dt),
                        resource="driver", label=f"rebuild-{loop.loop_var}")

    def _reconstruct_functional(self, loop: ParallelLoop, partitions: list[list[Any]]) -> None:
        reductions = loop.reduction_vars
        originals = {
            nm: self._driver_arrays[nm].copy()  # type: ignore[union-attr]
            for nm in reductions
            if self._driver_arrays.get(nm) is not None
        }
        acc_red: dict[str, np.ndarray] = {}
        acc_full: dict[str, np.ndarray] = {}
        for part in partitions:
            for elem in part:
                _idx, _lo, _hi, outs = elem
                for nm, (kind, off, data) in outs.items():
                    target = self._driver_arrays[nm]
                    assert target is not None
                    if kind == "part":
                        target[off : off + len(data)] = data
                    elif kind == "red":
                        if nm not in acc_red:
                            acc_red[nm] = data.copy()
                        else:
                            _, combine = REDUCTION_OPS[reductions[nm]]
                            cur = acc_red[nm]
                            for j in range(cur.shape[0]):
                                cur[j] = combine(cur[j], data[j])
                    else:  # full: bitwise-or of disjointly-written partials (Eq. 8)
                        if nm not in acc_full:
                            acc_full[nm] = data.copy()
                        else:
                            a = acc_full[nm].view(np.uint8)
                            b = data.view(np.uint8)
                            np.bitwise_or(a, b, out=a)
        for nm, acc in acc_red.items():
            _, combine = REDUCTION_OPS[reductions[nm]]
            target = self._driver_arrays[nm]
            assert target is not None
            orig = originals.get(nm)
            for j in range(target.shape[0]):
                base = orig[j] if orig is not None else acc[j]
                target[j] = combine(base, acc[j]) if orig is not None else acc[j]
        for nm, acc in acc_full.items():
            target = self._driver_arrays[nm]
            assert target is not None
            target[:] = acc

    # -------------------------------------------------------------- utilities
    def _codec_for(self, buf: Buffer) -> CompressionModel:
        return model_for_density(buf.density)

    def _wire_bytes(self, buf: Buffer, raw: int) -> int:
        if not self.intra_compression:
            return raw
        return self._codec_for(buf).compressed_size(raw, 0)

    def _check_executor_memory(self, loop: ParallelLoop, tiling: _LoopTiling) -> None:
        """Worst-case resident bytes on one executor: every broadcast block
        plus one input window and one output buffer per concurrent task."""
        executor = self.sc.cluster.executors[0]
        slots = executor.task_slots
        heap = executor.heap_bytes
        bcast = sum(self._buffer_info[nm].nbytes for nm in tiling.broadcast_reads)
        n = len(tiling)
        task_bytes = np.zeros(n, dtype=np.int64)
        for nm in tiling.partitioned_reads:
            wlo, whi = tiling.windows[nm]
            task_bytes += (whi - wlo) * self._buffer_info[nm].itemsize
        for nm in loop.writes:
            buf = self._buffer_info[nm]
            if nm in tiling.partitioned_writes:
                wlo, whi = tiling.windows[nm]
                task_bytes += (whi - wlo) * buf.itemsize
            else:
                task_bytes += buf.nbytes  # full partial / reduction buffer
        worst_task = int(task_bytes.max()) if n else 0
        needed = bcast + slots * worst_task
        if needed > heap:
            raise ExecutorOOMError(
                f"loop over {loop.loop_var!r} needs ~{needed} bytes resident per "
                f"executor (broadcasts {bcast} + {slots} slots x {worst_task} "
                f"task bytes) but spark.executor.memory grants only {heap}; "
                f"partition more variables or raise the executor heap"
            )

    def _check_jvm_limits(self, loop: ParallelLoop) -> None:
        for nm in dict.fromkeys((*loop.reads, *loop.writes)):
            check_jvm_array_limit(self._buffer_info[nm].nbytes, what=f"buffer {nm!r}")

    def driver_array(self, name: str) -> np.ndarray | None:
        """Driver-side value of a mapped/local variable (tests, plugin)."""
        return self._driver_arrays.get(name)
