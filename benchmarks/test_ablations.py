"""Ablations of the design choices Section III motivates (DESIGN.md §5).

Each ablation removes one mechanism and measures the paper-scale effect:

1. **Algorithm 1's loop tiling** — untiled loops pay one JNI call and one
   task launch per iteration;
2. **gzip with the minimal-size threshold** — compression pays off on sparse
   data and is nearly free insurance on dense;
3. **one WAN stream per mapped buffer** — parallel uploads vs a single
   stream;
4. **BitTorrent broadcast** — Spark's torrent protocol vs the driver sending
   a full copy per node;
5. **the partitioning extension** (Listing 2) — partitioned rows vs
   broadcasting every input and bitor-merging full-size partials.
"""

import pytest

from repro.cloud.network import NetworkModel
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.core.transfer import StagingCodec
from repro.metrics.figures import demo_config
from repro.metrics.tables import format_table
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.workloads import WORKLOADS

from benchmarks.conftest import emit

GB = 1 << 30


def _modeled_gemm(cores=64, **device_kwargs):
    spec = WORKLOADS["gemm"]
    runtime = OffloadRuntime()
    runtime.register(CloudDevice(demo_config(), physical_cores=cores, **device_kwargs))
    return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                   runtime=runtime, mode=ExecutionMode.MODELED)


# ------------------------------------------------------------------ 1: tiling
def test_ablation_tiling(benchmark, out_dir):
    tiled = _modeled_gemm(tiling=True)
    untiled = benchmark(_modeled_gemm, tiling=False)
    emit(out_dir, "ablation_tiling.txt", format_table(
        ["variant", "tasks", "spark job s"],
        [["tiled (Alg. 1)", tiled.tasks_run, tiled.spark_job_s],
         ["untiled", untiled.tasks_run, untiled.spark_job_s]],
        title="Ablation 1: loop tiling to the cluster size",
    ))
    assert tiled.tasks_run <= 65  # ~one task per core
    assert untiled.tasks_run == 16384  # one per iteration
    # Per-iteration JNI + launch overhead makes the untiled job far slower.
    assert untiled.spark_job_s > 1.5 * tiled.spark_job_s


# ------------------------------------------------------------- 2: compression
WAN = DEFAULT_CALIBRATION.wan_link()


def _buffers(k, density=1.0):
    """``k`` virtual 1 GiB float32 buffers."""
    return [Buffer(f"m{i}", length=GB // 4, density=density) for i in range(k)]


def _codec(enabled=True):
    return StagingCodec(enabled, demo_config().min_compress_size)


def _upload_s(codec, buffers):
    """Host upload seconds as the device charges them: the slowest buffer's
    deflate (one thread per buffer), then one WAN stream per buffer."""
    wire = [codec.wire_size(b) for b in buffers]
    return (max(codec.seconds(b, up=True) for b in buffers)
            + WAN.parallel_transfer_time(wire))


def test_ablation_compression(benchmark, out_dir):
    def run():
        rows = []
        for label, density in (("dense", 1.0), ("sparse", 0.05)):
            buffers = _buffers(2, density)
            on, off = _codec(True), _codec(False)
            rows.append([label, _upload_s(on, buffers), _upload_s(off, buffers),
                         sum(on.wire_size(b) for b in buffers)
                         / sum(b.nbytes for b in buffers)])
        return rows

    rows = benchmark(run)
    emit(out_dir, "ablation_compression.txt", format_table(
        ["data", "gzip on (s)", "gzip off (s)", "wire ratio"],
        rows,
        title="Ablation 2: gzip before upload (2 x 1 GiB buffers)",
    ))
    dense, sparse = rows
    # Sparse data: compression is a massive win.
    assert sparse[1] < 0.4 * sparse[2]
    # Dense float noise barely compresses: the win is marginal at best --
    # which is exactly why the paper stresses data-type dependence.
    assert dense[1] < 1.5 * dense[2]
    assert sparse[3] < 0.15 and dense[3] > 0.85


# -------------------------------------------------------- 3: parallel streams
def test_ablation_parallel_streams(benchmark, out_dir):
    codec = _codec()
    wire = [codec.wire_size(b) for b in _buffers(4)]

    def run():
        return WAN.parallel_transfer_time(wire), WAN.serial_transfer_time(wire)

    par, ser = benchmark(run)
    emit(out_dir, "ablation_parallel_streams.txt", format_table(
        ["variant", "transfer s"],
        [["one thread per buffer", par], ["single stream", ser]],
        title="Ablation 3: parallel upload streams (4 x 1 GiB)",
    ))
    # 4 streams saturate the path; one stream is capped per-TCP-connection.
    assert par < 0.5 * ser


# ------------------------------------------------------------- 4: BitTorrent
def test_ablation_bittorrent_broadcast(benchmark, out_dir):
    cal = DEFAULT_CALIBRATION

    def run():
        rows = []
        for nodes in (2, 4, 8, 16):
            net = NetworkModel(cal.wan_link(), cal.lan_link())
            bt = net.broadcast_time(GB, nodes, bittorrent=True)
            naive = net.broadcast_time(GB, nodes, bittorrent=False)
            rows.append([nodes, bt, naive, naive / bt])
        return rows

    rows = benchmark(run)
    emit(out_dir, "ablation_broadcast.txt", format_table(
        ["nodes", "bittorrent s", "naive s", "speedup"],
        rows,
        title="Ablation 4: broadcasting a 1 GiB variable",
    ))
    assert rows[-1][3] > 8  # ~linear vs ~constant at 16 nodes
    bt_times = [r[1] for r in rows]
    assert max(bt_times) < 1.3 * min(bt_times)  # torrent cost ~flat in nodes


# ------------------------------------------------------------ 5: partitioning
def test_ablation_partitioning(benchmark, out_dir):
    def make_region(partitioned: bool) -> TargetRegion:
        return TargetRegion(
            name="gemm-part" if partitioned else "gemm-bcast",
            pragmas=["omp target device(CLOUD)",
                     "omp map(to: A[:N*N], B[:N*N]) map(from: C[:N*N])"],
            loops=[ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=("A", "B"), writes=("C",),
                partition_pragma=(
                    "omp target data map(to: A[i*N:(i+1)*N]) "
                    "map(from: C[i*N:(i+1)*N])") if partitioned else None,
                flops_per_iter=lambda i, env: 2.0 * env["N"] ** 2,
            )],
        )

    def run(partitioned: bool):
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(demo_config(), physical_cores=256))
        return offload(make_region(partitioned), scalars={"N": 16384},
                       runtime=runtime, mode=ExecutionMode.MODELED)

    part = run(True)
    bcast = benchmark(run, False)
    emit(out_dir, "ablation_partitioning.txt", format_table(
        ["variant", "spark job s", "spark overhead s"],
        [["partitioned (Listing 2)", part.spark_job_s, part.spark_overhead_s],
         ["broadcast everything", bcast.spark_job_s, bcast.spark_overhead_s]],
        title="Ablation 5: the data-partitioning extension (GEMM, 1 GiB, 256 cores)",
    ))
    # Without partitioning every task returns a full-size partial C.
    assert bcast.spark_overhead_s > 5 * part.spark_overhead_s


# ----------------------------------------------- 6: data caching (future work)
def test_ablation_data_caching(benchmark, out_dir):
    """The paper's future work ("we plan to implement data caching to limit
    the cost of host-target communications"), implemented and measured: the
    second offload of the same inputs uploads nothing."""
    from dataclasses import replace

    def run():
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(replace(demo_config(), cache=True),
                                     physical_cores=256))
        spec = WORKLOADS["gemm"]
        region = spec.build_region("CLOUD")
        first = offload(region, scalars=spec.scalars(), runtime=runtime,
                        mode=ExecutionMode.MODELED)
        second = offload(region, scalars=spec.scalars(), runtime=runtime,
                         mode=ExecutionMode.MODELED)
        return first, second

    first, second = benchmark(run)
    emit(out_dir, "ablation_caching.txt", format_table(
        ["offload", "host-comm up s", "cache hits", "bytes saved (GB)"],
        [["first", first.host_comm_up_s, first.cache_hits, 0.0],
         ["second", second.host_comm_up_s, second.cache_hits,
          second.cache_bytes_saved / GB]],
        title="Ablation 6: host-target data caching (GEMM, 1 GiB inputs)",
    ))
    assert first.cache_hits == 0
    assert second.cache_hits == 3  # A, B and the tofrom C
    assert second.host_comm_up_s == 0.0
    assert first.host_comm_up_s > 30.0


# ------------------------------------------ 7: colocated host (driver node)
def test_ablation_colocated_host(benchmark, out_dir):
    """Section III-D: "one might run his application directly from the driver
    node of the Spark cluster, thus removing the overhead of host-target
    communication"."""

    def run(colocated):
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(demo_config(), physical_cores=256,
                                     colocated=colocated))
        spec = WORKLOADS["gemm"]
        return offload(spec.build_region("CLOUD"), scalars=spec.scalars(),
                       runtime=runtime, mode=ExecutionMode.MODELED)

    remote = run(False)
    local = benchmark(run, True)
    emit(out_dir, "ablation_colocated.txt", format_table(
        ["host placement", "host-comm s", "full s"],
        [["remote laptop (WAN)", remote.host_comm_s, remote.full_s],
         ["driver node (LAN)", local.host_comm_s, local.full_s]],
        title="Ablation 7: running the application from the driver node",
    ))
    assert local.host_comm_s < 0.4 * remote.host_comm_s
    assert local.full_s < remote.full_s


# ------------------------------------------------ 8: schedule-clause chunking
def test_ablation_schedule_chunk(benchmark, out_dir):
    """OpenMP schedule chunks override Algorithm 1: finer chunks buy load
    balancing the balanced Polybench kernels don't need, so the per-task
    launch + JNI overhead only grows — quantifying why the paper tiles to
    the cluster size by default."""
    from repro.core.api import ParallelLoop

    def run(pragma):
        spec = WORKLOADS["gemm"]
        region = spec.build_region("CLOUD")
        loop = region.loops[0]
        region.loops[0] = ParallelLoop(
            pragma=pragma, loop_var=loop.loop_var, trip_count=loop.trip_count,
            reads=loop.reads, writes=loop.writes,
            partition_pragma=loop.partition_pragma,
            flops_per_iter=loop.flops_per_iter,
        )
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(demo_config(), physical_cores=256))
        return offload(region, scalars=spec.scalars(), runtime=runtime,
                       mode=ExecutionMode.MODELED)

    default = run("omp parallel for")
    chunked = benchmark(run, "omp parallel for schedule(dynamic, 8)")
    emit(out_dir, "ablation_schedule.txt", format_table(
        ["schedule", "tasks", "spark job s"],
        [["Algorithm 1 (default)", default.tasks_run, default.spark_job_s],
         ["dynamic, chunk 8", chunked.tasks_run, chunked.spark_job_s]],
        title="Ablation 8: schedule-clause chunking (GEMM, 256 cores)",
    ))
    assert default.tasks_run <= 257
    assert chunked.tasks_run == 2048  # 16384 / 8
    assert chunked.spark_job_s > default.spark_job_s


# ------------------------------------ 9: speculation + weighted tiling (sched)
def test_ablation_speculation(benchmark, out_dir):
    """The adaptive-execution A/B (docs/SCHEDULING.md): a spot preemption
    with and without speculative copies, and a half-speed worker under
    Algorithm 1 tiles vs capacity-weighted tiles.  Same runner as the
    CI-gated ``ablation_speculation`` bench baseline."""
    from repro.obs.bench import run_ablation_speculation

    payload = benchmark(run_ablation_speculation, quick=True)
    m = payload["milestones"]
    emit(out_dir, "ablation_speculation.txt", format_table(
        ["variant", "full s"],
        [["preempted, speculation off", m["full_s_nospec"]],
         ["preempted, speculation on", m["full_s"]],
         ["half-speed worker, static tiles", m["full_s_static_het"]],
         ["half-speed worker, weighted tiles", m["full_s_weighted_het"]]],
        title="Ablation 9: speculative execution and weighted tiling",
    ))
    # Speculation removes the failure-detection timeout from the tail.
    assert m["speculation_wins"] >= 1
    assert m["full_s"] < m["full_s_nospec"]
    assert m["speculation_saved_s"] > 0.0
    # Weighted tiles shift work off the slow worker.
    assert m["full_s_weighted_het"] < m["full_s_static_het"]
