"""Object stores: S3, HDFS, Azure — shared semantics and specifics."""

import threading

import pytest

from repro.cloud.azure_storage import AzureBlobStore
from repro.cloud.credentials import Credentials
from repro.cloud.hdfs import HDFSStore
from repro.cloud.s3 import S3Store
from repro.cloud.storage import (
    AccessDeniedError,
    NoSuchObjectError,
    StorageError,
)


@pytest.fixture
def creds():
    return Credentials(
        provider="ec2",
        username="ubuntu",
        access_key_id="AKIA" + "B" * 12,
        secret_key="sk",
    )


@pytest.fixture
def s3(creds):
    return S3Store("test-bucket", credentials=creds)


# ------------------------------------------------------------ shared behaviour
def test_put_get_roundtrip(s3):
    s3.put("a/b.bin", data=b"hello world")
    assert s3.get_bytes("a/b.bin") == b"hello world"


def test_get_missing_key_raises(s3):
    with pytest.raises(NoSuchObjectError):
        s3.get("nope")


def test_virtual_object_has_size_but_no_payload(s3):
    s3.put("big.bin", size=10**9)
    assert s3.size_of("big.bin") == 10**9
    with pytest.raises(StorageError):
        s3.get_bytes("big.bin")


def test_put_requires_exactly_one_of_data_or_size(s3):
    with pytest.raises(ValueError):
        s3.put("x", data=b"a", size=1)
    with pytest.raises(ValueError):
        s3.put("x")


def test_delete_removes_object(s3):
    s3.put("k", data=b"v")
    s3.delete("k")
    assert not s3.exists("k")
    with pytest.raises(NoSuchObjectError):
        s3.delete("k")


def test_list_keys_sorted_with_prefix(s3):
    for k in ("in/b", "in/a", "out/c"):
        s3.put(k, data=b"x")
    assert list(s3.list_keys("in/")) == ["in/a", "in/b"]


def test_overwrite_replaces_payload(s3):
    s3.put("k", data=b"one")
    s3.put("k", data=b"two")
    assert s3.get_bytes("k") == b"two"


def test_traffic_accounting(s3):
    s3.put("k", data=b"12345")
    s3.get("k")
    s3.get("k")
    assert s3.bytes_written == 5
    assert s3.bytes_read == 10
    assert s3.put_count == 1
    assert s3.get_count == 2


def test_total_bytes_stored(s3):
    s3.put("a", data=b"123")
    s3.put("b", size=7)
    assert s3.total_bytes_stored() == 10


def test_read_write_time_scale_with_bytes(s3):
    small = s3.cluster_read_time(1_000_000)
    big = s3.cluster_read_time(100_000_000)
    assert big > small
    with pytest.raises(ValueError):
        s3.cluster_read_time(-1)


def test_concurrent_puts_are_safe(s3):
    # The plugin uploads one buffer per thread.
    errors = []

    def put_many(tid):
        try:
            for i in range(50):
                s3.put(f"t{tid}/k{i}", data=bytes([tid]) * 10)
        except Exception as e:  # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=put_many, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(list(s3.list_keys())) == 400


# ------------------------------------------------------------------- S3 bits
def test_s3_requires_aws_credentials():
    store = S3Store("bucket-x")
    with pytest.raises(AccessDeniedError):
        store.put("k", data=b"v")


def test_s3_rejects_malformed_key_id():
    bad = Credentials(provider="ec2", username="u", access_key_id="WRONG", secret_key="s")
    store = S3Store("bucket-x", credentials=bad)
    with pytest.raises(Exception):
        store.put("k", data=b"v")


def test_s3_bucket_naming_rules():
    with pytest.raises(ValueError):
        S3Store("UPPER")
    with pytest.raises(ValueError):
        S3Store("ab")
    with pytest.raises(ValueError):
        S3Store("a..b")


# ------------------------------------------------------------------ HDFS bits
def test_hdfs_requires_username():
    store = HDFSStore("hdfs://namenode:9000")
    with pytest.raises(AccessDeniedError):
        store.put("f", data=b"x")


# ----------------------------------------------------------------- Azure bits
def test_azure_store_roundtrip():
    creds = Credentials(provider="azure", username="acct", secret_key="key")
    store = AzureBlobStore("myaccount", "container-1", credentials=creds)
    store.put("k", data=b"v")
    assert store.get_bytes("k") == b"v"


def test_azure_requires_credentials():
    store = AzureBlobStore("myaccount", "container-1")
    with pytest.raises(AccessDeniedError):
        store.put("k", data=b"v")


def test_azure_naming_rules():
    with pytest.raises(ValueError):
        AzureBlobStore("UPPER", "container")
    with pytest.raises(ValueError):
        AzureBlobStore("myaccount", "C!")
