"""Shared helpers for the Spark substrate tests.

Every job goes through the one submission path, :meth:`Driver.run_job
<repro.spark.driver.Driver.run_job>`, priced explicitly as the generated
OmpCloud job prices its tiles.  Spark's actions (``collect``, ``count``,
``reduce``, ...) are driver-side folds over one job's partitions, so the
tests spell them out over :func:`run`.  The two oracles are closed forms the
tests check the substrate against.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from repro.spark.driver import JobResult, TaskCostsArrays
from repro.spark.rdd import RDD


def costs(n: int, *, compute_s=0.0, jni_s=0.0, decompress_s=0.0,
          compress_s=0.0, input_bytes=0, output_bytes=0) -> TaskCostsArrays:
    """``n`` task rows; each argument is one value for every row or a
    sequence of ``n`` per-row values."""

    def column(v, dtype) -> np.ndarray:
        return np.broadcast_to(np.asarray(v, dtype=dtype), (n,)).copy()

    return TaskCostsArrays(
        compute_s=column(compute_s, np.float64),
        jni_s=column(jni_s, np.float64),
        decompress_s=column(decompress_s, np.float64),
        compress_s=column(compress_s, np.float64),
        input_bytes=column(input_bytes, np.int64),
        output_bytes=column(output_bytes, np.int64),
    )


def run(rdd: RDD, job_costs: TaskCostsArrays | None = None,
        **kwargs: Any) -> JobResult:
    """Run ``rdd`` as one job on its context's driver (zero costs unless
    given) and add the job's timeline to the context's, as the generated
    job does."""
    if job_costs is None:
        job_costs = costs(rdd.num_partitions)
    result = rdd.context.driver.run_job(rdd, job_costs, **kwargs)
    rdd.context.timeline.extend(result.timeline)
    return result


def collect(rdd: RDD) -> list[Any]:
    """Every element of ``rdd``, partitions concatenated in split order."""
    return [x for part in run(rdd).partitions for x in part]


# ---------------------------------------------------------------- oracles
def sizeof_element(obj: Any) -> int:
    """Wire size of one RDD element under the rule the driver once measured
    payloads with: ndarray ``nbytes``, byte-string length, tuple members
    summed, 8 bytes per scalar, pickle length for anything else.  The
    pinned jobs are priced with it so their digests stay those of the
    measured runs."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, tuple):
        return sum(sizeof_element(x) for x in obj)
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def owner_of(index: int, n: int, parts: int) -> int:
    """Closed-form partition number of element ``index`` under
    :func:`~repro.spark.partitioner.range_partition`."""
    if not 0 <= index < n:
        raise IndexError(f"index {index} outside range({n})")
    base, extra = divmod(n, parts)
    boundary = extra * (base + 1)
    if index < boundary:
        return index // (base + 1)
    if base == 0:
        raise IndexError(f"index {index} beyond the populated partitions")
    return extra + (index - boundary) // base
