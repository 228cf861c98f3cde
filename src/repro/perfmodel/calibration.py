"""The performance model's calibrated constants, in one frozen record.

Four families live with their classes instead: the stores' cluster rates
and request latency (``ObjectStore``), the gzip fits (``DENSE_MODEL``,
``SPARSE_MODEL``), the gzip threshold (the device config's
``min_compress_size``) and the providers' boot/stop delays
(``CloudProvider``).

The values below were calibrated once, jointly, against the paper's reported
observations (see EXPERIMENTS.md for the paper-vs-measured table):

* 8-core cloud runtimes between ~10 min and ~1 h 30 per benchmark (Fig. 5);
* 3MM speedups of ≈143x / 97x / 86x (computation / spark / full) at 256
  cores (Fig. 4f) — which pins the per-node memory-contention ceiling;
* one-worker overheads vs. 16-thread OpenMP of ≈1.8 % / 8.8 % / 13.6 %;
* Spark-overhead share rising from 17 % to 69 % for SYRK and from 0.1 % to
  15 % for collinear-list as cores go 8 -> 256;
* dense-vs-sparse gaps driven entirely by gzip compressibility (Fig. 5).

Nothing is tuned per-figure: the same instance feeds every bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import would cycle: cloud -> obs -> profile -> here
    from repro.cloud.network import Link


@dataclass(frozen=True)
class Calibration:
    """Calibrated machine/runtime constants (SI units: bytes, seconds)."""

    # ---------------------------------------------------------- computation
    #: Effective single-core throughput of the naive C kernels on the
    #: Xeon E5-2680 v2, flop/s.  Polybench loops are not BLAS: no blocking,
    #: no vectorised FMA, so ~1.0 GF/s single precision is representative.
    core_flops: float = 1.0e9
    #: Relative cost of running the loop body through JNI instead of a plain
    #: native call (the paper measures computation overhead of "just 1.8%").
    jni_efficiency_loss: float = 0.018
    #: Fixed cost of one JNI invocation (crossing + argument pinning).
    jni_call_s: float = 5e-4
    #: Per-node memory-bandwidth contention: running k tasks on one node
    #: slows each by 1 + ceiling * intensity * (k-1)/(slots-1).  0.63 makes a
    #: fully loaded c3.8xlarge match both OmpThread-16 and the ~143x
    #: computation speedup of 3MM at 256 cores.
    contention_ceiling: float = 0.63
    #: Multiplicative straggler noise on task durations (lognormal sigma);
    #: EC2 multi-tenant jitter.
    straggler_sigma: float = 0.015
    #: Extra synchronisation overhead of OpenMP multi-threading (fork/join,
    #: barrier) as a fraction of compute.
    omp_sync_loss: float = 0.010

    # ---------------------------------------------------------------- spark
    #: Driver-side closure serialization + launch RPC, per task.
    task_launch_s: float = 0.004
    #: Driver-side ByteArray slicing / reassembly throughput: the JVM copies
    #: and garbage-collects every byte that passes through RDD_IN
    #: construction (Eq. 1-3) and output reconstruction (Eq. 8-10).
    driver_byte_bps: float = 100e6
    #: Worker-side per-task byte processing (deserialize + decompress inputs,
    #: serialize + compress outputs, JNI buffer pinning).  Low on purpose:
    #: this is JVM ByteArray churn, not raw zlib.
    worker_byte_bps: float = 12e6
    #: Broadcast-variable serialization throughput on the driver.
    broadcast_serialize_bps: float = 150e6
    #: Spark job submission / stage setup fixed cost.
    job_setup_s: float = 3.0

    # ------------------------------------------------------------ networking
    #: Host <-> cloud storage WAN: ~480 Mbit/s aggregate, 120 Mbit/s per TCP
    #: stream, 60 ms of latency (laptop "far away from the data-center").
    wan_capacity_bps: float = 60e6
    wan_stream_cap_bps: float = 15e6
    wan_latency_s: float = 0.060
    #: Intra-cluster 10 GbE.
    lan_capacity_bps: float = 1.25e9
    lan_latency_s: float = 0.0005

    # ---------------------------------------------------------- cluster shape
    #: vCPUs per worker node (c3.8xlarge).
    worker_vcpus: int = 32
    #: vCPUs reserved per Spark task (paper: spark.task.cpus=2).
    task_cpus: int = 2

    # ----------------------------------------------------------- conveniences
    def wan_link(self) -> Link:
        from repro.cloud.network import Link
        return Link(
            capacity_bps=self.wan_capacity_bps,
            latency_s=self.wan_latency_s,
            stream_cap_bps=self.wan_stream_cap_bps,
        )

    def lan_link(self) -> Link:
        from repro.cloud.network import Link
        return Link(capacity_bps=self.lan_capacity_bps, latency_s=self.lan_latency_s)

    @property
    def worker_task_slots(self) -> int:
        return self.worker_vcpus // self.task_cpus


#: The single calibrated instance used everywhere.
DEFAULT_CALIBRATION = Calibration()
