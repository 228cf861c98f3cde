"""Host-target data caching (the paper's future work, implemented here)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.staging_cache import CacheKey, StagingCache

from tests.conftest import make_cloud_runtime


# ----------------------------------------------------------------- unit level
def test_cache_key_depends_on_content():
    a = Buffer("A", data=np.arange(8, dtype=np.float32))
    b = Buffer("B", data=np.arange(8, dtype=np.float32))  # same bytes
    c = Buffer("C", data=np.arange(1, 9, dtype=np.float32))
    assert CacheKey.for_buffer(a) == CacheKey.for_buffer(b)
    assert CacheKey.for_buffer(a) != CacheKey.for_buffer(c)


def test_cache_key_virtual_uses_description():
    a = Buffer("A", length=100, density=0.5)
    same = Buffer("A", length=100, density=0.5)
    other = Buffer("A", length=100, density=1.0)
    assert CacheKey.for_buffer(a) == CacheKey.for_buffer(same)
    assert CacheKey.for_buffer(a) != CacheKey.for_buffer(other)


def test_cache_lookup_and_stats():
    cache = StagingCache()
    key = CacheKey.for_bytes(b"payload")
    assert cache.lookup(key) is None
    cache.record(key, "some/key")
    assert cache.lookup(key) == "some/key"


def test_disabled_cache_never_hits():
    cache = StagingCache(enabled=False)
    key = CacheKey.for_bytes(b"x")
    cache.record(key, "k")
    assert cache.lookup(key) is None
    assert len(cache) == 0


# ----------------------------------------------------------- plugin behaviour
def _region():
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = 3 * np.asarray(arrays["A"][lo:hi])

    return TargetRegion(
        name="triple",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )


def _offload(rt, a):
    c = np.zeros_like(a)
    report = offload(_region(), arrays={"A": a, "C": c},
                     scalars={"N": len(a)}, runtime=rt)
    assert np.array_equal(c, 3 * a)
    return report


def test_second_offload_of_same_data_skips_upload(cloud_config):
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    a = np.arange(256, dtype=np.float32)
    first = _offload(rt, a)
    second = _offload(rt, a)
    assert first.cache_hits == 0
    assert second.cache_hits == 1
    assert second.cache_bytes_saved == a.nbytes
    assert second.bytes_up_raw == 0  # nothing crossed the WAN
    assert second.host_comm_up_s == 0.0
    assert first.bytes_up_raw == a.nbytes


def test_changed_data_misses_the_cache(cloud_config):
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    a = np.arange(256, dtype=np.float32)
    _offload(rt, a)
    b = a.copy()
    b[0] += 1.0
    report = _offload(rt, b)
    assert report.cache_hits == 0
    assert report.bytes_up_raw == b.nbytes


def test_cache_disabled_by_default(cloud_config):
    rt = make_cloud_runtime(cloud_config)  # cache=False
    a = np.arange(256, dtype=np.float32)
    _offload(rt, a)
    report = _offload(rt, a)
    assert report.cache_hits == 0
    assert report.bytes_up_raw == a.nbytes


def test_downloaded_output_feeds_the_cache(cloud_config):
    """C from one offload re-offloaded as A costs no upload — the chained
    pipeline case the paper's future work targets."""
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    a = np.arange(256, dtype=np.float32)
    c_first = np.zeros_like(a)
    offload(_region(), arrays={"A": a, "C": c_first},
            scalars={"N": len(a)}, runtime=rt)
    report = _offload(rt, c_first)  # feed the previous output back in
    assert report.cache_hits == 1
    assert report.bytes_up_raw == 0


def test_modeled_mode_caches_by_description(cloud_config):
    rt = make_cloud_runtime(replace(cloud_config, cache=True), physical_cores=32)
    region = _region()
    region.loops[0].flops_per_iter = 1.0
    r1 = offload(region, scalars={"N": 1 << 20}, runtime=rt,
                 mode=ExecutionMode.MODELED)
    r2 = offload(region, scalars={"N": 1 << 20}, runtime=rt,
                 mode=ExecutionMode.MODELED)
    assert r1.cache_hits == 0
    assert r2.cache_hits == 1
    assert r2.host_comm_up_s == 0.0
