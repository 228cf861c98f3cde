"""End-to-end scenarios across substrates: storage backends, providers,
config files, modeled paper-scale runs, repeated offloads."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cloud.credentials import Credentials
from repro.cloud.hdfs import HDFSStore
from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.config import CloudConfig, load_config, write_example_config
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


def _run_matmul(runtime, n=32):
    spec = WORKLOADS["matmul"]
    scalars = spec.scalars(n)
    arrays = spec.inputs(n, density=1.0, seed=9)
    expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)
    report = offload(spec.build_region("CLOUD"), arrays=arrays, scalars=scalars,
                     runtime=runtime)
    assert np.allclose(arrays["C"], expected["C"], rtol=3e-5, atol=1e-4)
    return report


def test_offload_through_hdfs(aws_credentials):
    cfg = CloudConfig(credentials=aws_credentials, n_workers=4,
                      storage_kind="hdfs", min_compress_size=256)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    assert isinstance(dev.storage, HDFSStore)
    report = _run_matmul(rt)
    assert report.device_name == "CLOUD"
    # The staged files really landed in HDFS.
    assert list(dev.storage.list_keys())


def test_offload_through_azure():
    creds = Credentials(provider="azure", username="acct", secret_key="key")
    cfg = CloudConfig(provider="azure", credentials=creds, n_workers=2,
                      storage_kind="azure", storage_name="staging",
                      instance_type="D4_v2", min_compress_size=256)
    rt = make_cloud_runtime(cfg)
    report = _run_matmul(rt)
    assert report.device_name == "CLOUD"


def test_offload_on_private_cloud_with_instances():
    creds = Credentials(provider="private", username="me")
    cfg = CloudConfig(provider="private", credentials=creds, n_workers=2,
                      storage_kind="hdfs", manage_instances=True,
                      instance_type="rack-node", min_compress_size=256)
    rt = make_cloud_runtime(cfg)
    report = _run_matmul(rt)
    assert report.billed_usd == 0.0  # the rack is already paid for


def test_device_built_from_config_file(tmp_path):
    path = write_example_config(tmp_path / "cloud_rtl.ini")
    cfg = load_config(path)
    rt = OffloadRuntime()
    rt.register(CloudDevice(replace(cfg, n_workers=2), physical_cores=8))
    report = _run_matmul(rt)
    assert report.device_name == "CLOUD"


def test_modeled_paper_scale_all_benchmarks(cloud_config):
    """Every paper workload runs at full 1 GB scale in modeled mode without
    allocating the data, and the timings are self-consistent."""
    for name, spec in WORKLOADS.items():
        rt = make_cloud_runtime(replace(cloud_config, n_workers=16),
                                physical_cores=256)
        region = spec.build_region("CLOUD")
        report = offload(region, scalars=spec.scalars(), runtime=rt,
                         mode=ExecutionMode.MODELED)
        assert report.computation_s > 0, name
        assert report.spark_job_s >= report.computation_s, name
        assert report.full_s >= report.spark_job_s, name
        assert report.tasks_run >= 256, name


def test_three_offloads_one_device(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    for n in (16, 24, 32):
        _run_matmul(rt, n=n)
    dev = rt.device("CLOUD")
    # Each offload staged its own keys under a fresh sequence prefix.
    prefixes = {k.split("/")[1] for k in dev.storage.list_keys()}
    assert prefixes == {"1", "2", "3"}


def test_mixed_host_and_cloud_offloads(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    spec = WORKLOADS["gemm"]
    scalars = spec.scalars(24)
    arrays_h = spec.inputs(24, seed=1)
    arrays_c = {k: v.copy() for k, v in arrays_h.items()}
    offload(spec.build_region("HOST"), arrays=arrays_h, scalars=scalars, runtime=rt)
    offload(spec.build_region("CLOUD"), arrays=arrays_c, scalars=scalars, runtime=rt)
    assert np.allclose(arrays_h["C"], arrays_c["C"], rtol=1e-5)


def test_sparse_inputs_transfer_fewer_wire_bytes(cloud_config):
    cfg = replace(cloud_config, min_compress_size=64)
    spec = WORKLOADS["matmul"]
    n = 64
    scalars = spec.scalars(n)

    rt_d = make_cloud_runtime(cfg)
    dense = spec.inputs(n, density=1.0, seed=3)
    rep_d = offload(spec.build_region("CLOUD"), arrays=dense, scalars=scalars,
                    runtime=rt_d)
    rt_s = make_cloud_runtime(cfg)
    sparse = spec.inputs(n, density=0.05, seed=3)
    rep_s = offload(spec.build_region("CLOUD"), arrays=sparse, scalars=scalars,
                    runtime=rt_s)
    assert rep_s.bytes_up_wire < rep_d.bytes_up_wire / 2
    assert rep_s.host_comm_up_s < rep_d.host_comm_up_s


def test_report_summary_renders(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    report = _run_matmul(rt)
    text = report.summary()
    assert "matmul" in text and "spark overhead" in text and "computation" in text
