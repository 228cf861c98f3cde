"""Cloud-device configuration file parsing."""

import dataclasses

import pytest

from repro.core.config import (
    CloudConfig,
    ConfigError,
    load_config,
    write_example_config,
)


def _write(tmp_path, text):
    p = tmp_path / "cloud_rtl.ini"
    p.write_text(text)
    return p


FULL = """
[Spark]
driver = ec2-54-1-2-3.compute-1.amazonaws.com
user = ubuntu
workers = 16
instance = c3.8xlarge

[Storage]
kind = s3
bucket = my-staging

[AWS]
access_key = AKIAEXAMPLEKEY00
secret_key = shhh
region = us-west-2

[Offload]
provider = ec2
compression = gzip
min_compress_size = 2048
manage_instances = true
verbose = false
"""


def test_full_config_parses(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    assert cfg.provider == "ec2"
    assert cfg.spark_driver.startswith("ec2-54")
    assert cfg.n_workers == 16
    assert cfg.instance_type == "c3.8xlarge"
    assert cfg.storage_kind == "s3"
    assert cfg.storage_name == "my-staging"
    assert cfg.credentials.access_key_id == "AKIAEXAMPLEKEY00"
    assert cfg.credentials.region == "us-west-2"
    assert cfg.compression is True
    assert cfg.min_compress_size == 2048
    assert cfg.manage_instances is True


def test_defaults_fill_missing_sections(tmp_path):
    cfg = load_config(_write(tmp_path, "[Spark]\nuser = me\n"))
    assert cfg.provider == "ec2"
    assert cfg.n_workers == 16
    assert cfg.spark_user == "me"
    assert cfg.compression is True


def test_compression_none_disables(tmp_path):
    cfg = load_config(_write(tmp_path, "[Offload]\ncompression = none\n"))
    assert cfg.compression is False


def test_azure_provider_credentials(tmp_path):
    text = """
[Offload]
provider = azure

[Azure]
account = myacct
key = akey
"""
    cfg = load_config(_write(tmp_path, text))
    assert cfg.provider == "azure"
    assert cfg.credentials.username == "myacct"
    assert cfg.credentials.secret_key == "akey"


def test_private_provider(tmp_path):
    cfg = load_config(_write(tmp_path, "[Offload]\nprovider = private\n"))
    assert cfg.provider == "private"
    assert cfg.credentials.provider == "private"


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("/nonexistent/cloud.ini")


def test_bad_integer_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[Spark]\nworkers = many\n"))


def test_bad_boolean_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[Offload]\nmanage_instances = perhaps\n"))


def test_unknown_provider_rejected():
    with pytest.raises(ConfigError):
        CloudConfig(provider="gcp")


def test_unknown_storage_rejected():
    with pytest.raises(ConfigError):
        CloudConfig(storage_kind="ftp")


def test_invalid_worker_count_rejected():
    with pytest.raises(ConfigError):
        CloudConfig(n_workers=0)


def test_example_config_roundtrips(tmp_path):
    p = write_example_config(tmp_path / "example.ini")
    cfg = load_config(p)
    assert cfg.provider == "ec2"
    assert cfg.n_workers == 16
    cfg.credentials.validated_for("ec2")


def test_empty_sections_load_to_the_dataclass_defaults(tmp_path):
    sections = "[Spark]\n[Storage]\n[AWS]\n[Offload]\n[Resilience]\n[Analysis]\n[Schedule]\n"
    loaded, default = load_config(_write(tmp_path, sections)), CloudConfig()
    for f in dataclasses.fields(CloudConfig):
        if f.name != "credentials":
            assert getattr(loaded, f.name) == getattr(default, f.name), f.name
    assert load_config(_write(tmp_path, "")) == loaded
