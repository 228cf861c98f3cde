"""Isolated probes of the per-task and per-event layers.

``perf/trace.py`` never wraps functions that run once per task or per event;
these probes price them instead, by driving each layer's public API directly
in a tight loop.  They are machine-level numbers (no workload involved), run
once per traced run, and ``probe.calib_s`` — a fixed pure-Python + NumPy loop
— lets a reader normalise them across machines.

Every probe returns ``(value, unit)``.  Each timing is the best of
``ROUNDS`` rounds: a probe asks "how fast can this layer go here", and the
minimum is the estimate least disturbed by the other tenant of a 2-core box.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cloud.s3 import S3Store
from repro.core.api import ParallelLoop
from repro.core.parser import parse_pragma
from repro.core.partition import partition_windows
from repro.core.staging_cache import CacheKey
from repro.metrics.figures import demo_config
from repro.obs.events import EventBus, TaskEnd
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.perfmodel.compression import gzip_compress, gzip_decompress
from repro.perfmodel.compute import ComputeModel
from repro.resilience.journal import OffloadJournal
from repro.simtime.engine import EventEngine
from repro.simtime.timeline import Phase, Timeline
from repro.spark.executor import Executor
from repro.spark.exindex import ExecutorIndex
from repro.workloads.datagen import matrix_for_density

ROUNDS = 3


def _best(fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def calib() -> tuple[float, str]:
    """Fixed interpreter + NumPy work; seconds."""
    a = np.arange(1 << 20, dtype=np.float64)

    def work() -> None:
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for _ in range(20):
            np.sqrt(a).sum()

    return _best(work), "s"


def exindex_pick(n_exec: int = 1000, n_picks: int = 50_000) -> tuple[float, str]:
    def work() -> None:
        execs = [Executor(f"w{i}", vcpus=16, task_cpus=2) for i in range(n_exec)]
        index = ExecutorIndex(execs)
        t = 0.0
        for _ in range(n_picks):
            ex = index.pick(t)
            ex.reserve(t, 1.0)
            t += 1e-4

    def baseline() -> None:
        [Executor(f"w{i}", vcpus=16, task_cpus=2) for i in range(n_exec)]

    # pick + the reservation that makes the next pick non-trivial.
    return (_best(work) - _best(baseline)) / n_picks * 1e6, "us"


def engine_event(n: int = 100_000) -> tuple[float, str]:
    def work() -> None:
        eng = EventEngine()
        hit = lambda: None  # noqa: E731
        for i in range(n):
            eng.schedule_at(i * 1e-3, hit)
        eng.run()

    return _best(work) / n * 1e6, "us"


def _timeline_record(coarse: bool, n: int = 100_000) -> tuple[float, str]:
    def work() -> None:
        tl = Timeline(coarse=coarse)
        record = tl.record
        for i in range(n):
            record(Phase.COMPUTE, float(i), i + 0.5, "worker-1")

    return _best(work) / n * 1e6, "us"


def timeline_record_fine() -> tuple[float, str]:
    return _timeline_record(False)


def timeline_record_coarse() -> tuple[float, str]:
    return _timeline_record(True)


def _bus_emit(with_metrics: bool, n: int = 30_000) -> tuple[float, str]:
    def work() -> None:
        bus = EventBus(keep_history=False)
        if with_metrics:
            MetricsSubscriber(MetricsRegistry()).attach(bus)
        else:
            bus.subscribe(lambda event: None)
        event = TaskEnd(time=1.0, resource="worker-1", worker="worker-1",
                        duration_s=0.5)
        emit = bus.emit
        for _ in range(n):
            emit(event)

    return _best(work) / n * 1e6, "us"


def bus_emit() -> tuple[float, str]:
    return _bus_emit(False)


def bus_emit_metrics() -> tuple[float, str]:
    return _bus_emit(True)


def metrics_inc(n: int = 100_000) -> tuple[float, str]:
    def work() -> None:
        counter = MetricsRegistry().counter("probe_total", "probe")
        inc = counter.inc
        for _ in range(n):
            inc(worker="worker-1")

    return _best(work) / n * 1e6, "us"


def parse_pragma_probe(n: int = 1_000) -> tuple[float, str]:
    text = "omp target data map(to: A[i*N:(i+1)*N], B[:N*N]) map(from: C[i*N:(i+1)*N])"

    def work() -> None:
        for _ in range(n):
            parse_pragma(text)

    return _best(work) / n * 1e6, "us"


def task_timing_vec(n: int = 1_000_000) -> tuple[float, str]:
    model = ComputeModel(dataclasses.replace(DEFAULT_CALIBRATION,
                                             straggler_sigma=0.0))
    flops = np.full(n, 1.0e6)
    idx = np.arange(n)
    t = _best(lambda: model.task_timing_vec(
        flops, tasks_on_node=8, slots_per_node=8, intensity=1.0,
        task_indices=idx))
    return t / n * 1e9, "ns"


def partition_windows_probe(n: int = 1_000_000) -> tuple[float, str]:
    loop = ParallelLoop(
        pragma="omp parallel for", loop_var="i", trip_count="N", reads=("A",),
        partition_pragma="omp target data map(to: A[i*R:(i+1)*R])")
    spec = loop.partitions["A"]
    lo = np.arange(n, dtype=np.int64)
    hi = lo + 1
    env = {"N": n, "R": 4}
    return _best(lambda: partition_windows(spec, lo, hi, env)) / n * 1e9, "ns"


def _payload(density: float, nbytes: int = 8 << 20) -> bytes:
    return matrix_for_density(nbytes // 4, density, seed=1).tobytes()


def sha1() -> tuple[float, str]:
    data = _payload(1.0)
    return len(data) / 1e6 / _best(lambda: CacheKey.for_bytes(data)), "MB/s"


def gzip_dense() -> tuple[float, str]:
    data = _payload(1.0)
    return len(data) / 1e6 / _best(lambda: gzip_compress(data)), "MB/s"


def gzip_sparse() -> tuple[float, str]:
    data = _payload(0.05)
    return len(data) / 1e6 / _best(lambda: gzip_compress(data)), "MB/s"


def gunzip() -> tuple[float, str]:
    data = _payload(1.0)
    packed = gzip_compress(data)
    return len(data) / 1e6 / _best(lambda: gzip_decompress(packed)), "MB/s"


def _store() -> S3Store:
    config = demo_config(4)
    return S3Store(config.storage_name, credentials=config.credentials)


def store_put() -> tuple[float, str]:
    data = memoryview(_payload(1.0))
    store = _store()
    return len(data) / 1e6 / _best(lambda: store.put("probe/key", data=data)), "MB/s"


def store_get() -> tuple[float, str]:
    data = _payload(1.0)
    store = _store()
    store.put("probe/key", data=data)
    return len(data) / 1e6 / _best(lambda: store.get_bytes("probe/key")), "MB/s"


def journal_record(n: int = 20_000) -> tuple[float, str]:
    def work() -> None:
        journal = OffloadJournal()
        for i in range(n):
            journal.record("tile_done", "probe#1", 1.0, tile=i, lo=i, hi=i + 1,
                           key="k", checksum="c", nbytes=4)

    return _best(work) / n * 1e6, "us"


#: Metric name -> probe, in the order the README documents them.
PROBES: dict[str, Callable[[], tuple[float, str]]] = {
    "probe.calib_s": calib,
    "probe.exindex_pick_us": exindex_pick,
    "probe.engine_event_us": engine_event,
    "probe.timeline_record_fine_us": timeline_record_fine,
    "probe.timeline_record_coarse_us": timeline_record_coarse,
    "probe.bus_emit_us": bus_emit,
    "probe.bus_emit_metrics_us": bus_emit_metrics,
    "probe.metrics_inc_us": metrics_inc,
    "probe.parse_pragma_us": parse_pragma_probe,
    "probe.task_timing_vec_ns": task_timing_vec,
    "probe.partition_windows_ns": partition_windows_probe,
    "probe.sha1_mb_s": sha1,
    "probe.gzip_dense_mb_s": gzip_dense,
    "probe.gzip_sparse_mb_s": gzip_sparse,
    "probe.gunzip_mb_s": gunzip,
    "probe.store_put_mb_s": store_put,
    "probe.store_get_mb_s": store_get,
    "probe.journal_record_us": journal_record,
}


def run_all() -> dict[str, dict[str, object]]:
    out = {}
    for name, probe in PROBES.items():
        value, unit = probe()
        out[name] = {"value": value, "unit": unit}
    return out
