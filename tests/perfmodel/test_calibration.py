"""Calibration invariants: the constant set stays self-consistent."""

import dataclasses

import pytest

from repro.cloud.azure_storage import AzureBlobStore
from repro.cloud.ec2 import EC2Provider
from repro.cloud.hdfs import HDFSStore
from repro.cloud.s3 import S3Store
from repro.cloud.storage import ObjectStore
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compression import DENSE_MODEL, SPARSE_MODEL


def test_default_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CALIBRATION.core_flops = 1.0  # type: ignore[misc]


def test_paper_cluster_shape():
    cal = DEFAULT_CALIBRATION
    assert cal.worker_vcpus == 32  # c3.8xlarge
    assert cal.task_cpus == 2  # spark.task.cpus=2
    assert cal.worker_task_slots == 16  # one task per physical core


def test_links_build_and_are_ordered():
    cal = DEFAULT_CALIBRATION
    wan, lan = cal.wan_link(), cal.lan_link()
    assert lan.capacity_bps > 10 * wan.capacity_bps  # datacenter >> internet
    assert wan.latency_s > 10 * lan.latency_s
    assert wan.stream_cap_bps is not None
    assert wan.stream_cap_bps < wan.capacity_bps  # parallel streams help


def test_compression_regimes_ordered():
    assert SPARSE_MODEL.ratio < DENSE_MODEL.ratio
    assert SPARSE_MODEL.compress_bps > DENSE_MODEL.compress_bps
    assert SPARSE_MODEL.decompress_bps > DENSE_MODEL.decompress_bps


def test_jni_loss_matches_paper_scale():
    # "just 1.8%" — the constant is literal.
    assert DEFAULT_CALIBRATION.jni_efficiency_loss == pytest.approx(0.018)


def test_worker_path_is_slowest_byte_path():
    # JVM per-task byte churn < driver ByteArray handling < storage streams.
    cal = DEFAULT_CALIBRATION
    assert cal.worker_byte_bps < cal.driver_byte_bps
    for store in (ObjectStore, S3Store, HDFSStore, AzureBlobStore):
        assert cal.driver_byte_bps < store.cluster_read_bps * 2


def test_custom_calibration_overrides():
    cal = Calibration(core_flops=2e9, contention_ceiling=0.0)
    assert cal.core_flops == 2e9
    assert cal.contention_ceiling == 0.0
    # Links still build.
    cal.wan_link()
    cal.lan_link()


def test_overhead_constants_positive():
    cal = DEFAULT_CALIBRATION
    for field in ("task_launch_s", "job_setup_s", "jni_call_s"):
        assert getattr(cal, field) > 0
    assert EC2Provider.boot_delay_s > 0
    assert EC2Provider.stop_delay_s > 0
