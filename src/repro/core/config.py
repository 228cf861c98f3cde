"""The cloud-device configuration file.

"Our cloud plugin reads at runtime a configuration file to properly set up
the cloud device and to avoid the need to recompile the binary ... Besides
the login information, the configuration file also contains the address of
the Spark driver as well as the address of the cloud file storage."

The format is INI, matching the ompcloud project's ``cloud_rtl.ini``:

    [Spark]
    driver   = ec2-54-23-9-12.compute-1.amazonaws.com
    user     = ubuntu
    workers  = 16
    instance = c3.8xlarge

    [Storage]
    kind   = s3
    bucket = ompcloud-staging

    [AWS]
    access_key = AKIA...
    secret_key = ...
    region     = us-east-1

    [Offload]
    provider          = ec2
    compression       = gzip
    min_compress_size = 1048576
    manage_instances  = false
    verbose           = false
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from repro.cloud.credentials import Credentials


class ConfigError(Exception):
    """Missing or inconsistent configuration."""


_VALID_PROVIDERS = ("ec2", "azure", "private")
_VALID_STORAGE = ("s3", "hdfs", "azure")


@dataclass(frozen=True)
class CloudConfig:
    """Parsed cloud-device configuration."""

    provider: str = "ec2"
    spark_driver: str = "spark-driver"
    spark_user: str = "ubuntu"
    n_workers: int = 16
    instance_type: str = "c3.8xlarge"
    storage_kind: str = "s3"
    storage_name: str = "ompcloud-staging"
    credentials: Credentials = field(
        default_factory=lambda: Credentials(provider="ec2", username="ubuntu")
    )
    compression: bool = True
    min_compress_size: int = 1 << 20
    manage_instances: bool = False
    verbose: bool = False
    #: Host-target data caching (the paper's future work, implemented here):
    #: inputs whose content is already staged are not re-uploaded.
    cache: bool = False
    # --- Resilience ([Resilience] section) ---
    #: Attempts per storage/SSH/provisioning operation (first try included).
    retry_attempts: int = 3
    #: First backoff delay; doubles each retry (exponential, capped).
    retry_base_delay_s: float = 0.5
    #: Cap on a single backoff delay.
    retry_max_delay_s: float = 30.0
    #: Deterministic jitter fraction in [0, 1): delay *= 1 +/- jitter.
    retry_jitter: float = 0.0
    #: Times a failed/lost Spark job is resubmitted over a fresh SSH session.
    max_resubmissions: int = 2
    #: Consecutive device failures before the circuit breaker trips open.
    breaker_threshold: int = 3
    #: Simulated seconds the breaker stays open before a half-open probe.
    breaker_reset_s: float = 300.0
    #: Driver-loss recovery policy (docs/RESILIENCE.md): "none" falls back
    #: to the host (PR-1 behavior), "restart" resubmits the whole job on
    #: a replacement driver, "resume" also commits per-tile checkpoints
    #: and reschedules only unfinished tiles.
    recovery: str = "none"

    def __post_init__(self) -> None:
        if self.provider not in _VALID_PROVIDERS:
            raise ConfigError(
                f"unknown provider {self.provider!r}; expected one of {_VALID_PROVIDERS}"
            )
        if self.storage_kind not in _VALID_STORAGE:
            raise ConfigError(
                f"unknown storage kind {self.storage_kind!r}; expected one of {_VALID_STORAGE}"
            )
        if self.n_workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.n_workers}")
        if self.min_compress_size < 0:
            raise ConfigError(f"min_compress_size must be >= 0, got {self.min_compress_size}")
        if self.retry_attempts < 1:
            raise ConfigError(f"retry_attempts must be >= 1, got {self.retry_attempts}")
        if self.max_resubmissions < 0:
            raise ConfigError(f"max_resubmissions must be >= 0, got {self.max_resubmissions}")
        if self.breaker_threshold < 1:
            raise ConfigError(f"breaker_threshold must be >= 1, got {self.breaker_threshold}")
        if self.recovery not in ("none", "restart", "resume"):
            raise ConfigError(
                f"recovery must be 'none', 'restart' or 'resume', got {self.recovery!r}"
            )

    def retry_policy(self) -> "RetryPolicy":
        """The uniform :class:`~repro.resilience.RetryPolicy` for this device."""
        from repro.resilience import RetryPolicy

        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_delay_s=self.retry_base_delay_s,
            max_delay_s=self.retry_max_delay_s,
            jitter=self.retry_jitter,
        )


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


#: (INI section, option, CloudConfig field, parser).  An option the file does
#: not set keeps the dataclass default; a later row wins over an earlier one
#: (``bucket`` over ``name``).
_INI_OPTIONS = (
    ("Spark", "driver", "spark_driver", str),
    ("Spark", "user", "spark_user", str),
    ("Spark", "workers", "n_workers", int),
    ("Spark", "instance", "instance_type", str),
    ("Storage", "kind", "storage_kind", str.lower),
    ("Storage", "name", "storage_name", str),
    ("Storage", "bucket", "storage_name", str),
    ("Offload", "provider", "provider", str.lower),
    ("Offload", "compression", "compression", lambda text: text.lower() != "none"),
    ("Offload", "min_compress_size", "min_compress_size", int),
    ("Offload", "manage_instances", "manage_instances", _parse_bool),
    ("Offload", "verbose", "verbose", _parse_bool),
    ("Offload", "cache", "cache", _parse_bool),
    ("Resilience", "retry_attempts", "retry_attempts", int),
    ("Resilience", "retry_base_delay_s", "retry_base_delay_s", float),
    ("Resilience", "retry_max_delay_s", "retry_max_delay_s", float),
    ("Resilience", "retry_jitter", "retry_jitter", float),
    ("Resilience", "max_resubmissions", "max_resubmissions", int),
    ("Resilience", "breaker_threshold", "breaker_threshold", int),
    ("Resilience", "breaker_reset_s", "breaker_reset_s", float),
    ("Resilience", "recovery", "recovery", str.lower),
)

#: Every (section, option) a file may set: the table above plus the
#: credential keys :func:`_credentials_from` reads.
_KNOWN_KEYS = frozenset(
    [(section, option) for section, option, _, _ in _INI_OPTIONS]
    + [("AWS", key) for key in ("access_key", "secret_key", "region")]
    + [("Azure", key) for key in ("account", "key", "region")]
)


def load_config(path: str | os.PathLike[str]) -> CloudConfig:
    """Parse an INI configuration file into a :class:`CloudConfig`.

    A section or option the loader does not read raises
    :class:`ConfigError` naming each one, so a misspelled key cannot
    silently fall back to its default."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"configuration file {p} does not exist")
    cp = configparser.ConfigParser()
    try:
        cp.read(p)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {p}: {e}") from e
    known_sections = {section for section, _ in _KNOWN_KEYS}
    unknown = []
    for section in cp.sections():
        if section not in known_sections:
            unknown.append(section)
            continue
        unknown += [f"{section}.{option}" for option in cp[section]
                    if (section, option) not in _KNOWN_KEYS]
    if unknown:
        raise ConfigError(f"unknown configuration keys in {p}: {', '.join(unknown)}")

    values = {f.name: f.default for f in fields(CloudConfig) if f.default is not MISSING}
    try:
        for section, option, name, parse in _INI_OPTIONS:
            if cp.has_option(section, option):
                values[name] = parse(cp.get(section, option))
    except ValueError as e:
        raise ConfigError(f"non-numeric value in {p}: {e}") from e
    creds = _credentials_from(cp, values["provider"], values["spark_user"])
    return CloudConfig(credentials=creds, **values)


def _credentials_from(cp: configparser.ConfigParser, provider: str, user: str) -> Credentials:
    if provider == "ec2":
        aws = cp["AWS"] if cp.has_section("AWS") else {}
        return Credentials(
            provider="ec2",
            username=user,
            access_key_id=aws.get("access_key", ""),
            secret_key=aws.get("secret_key", ""),
            region=aws.get("region", "us-east-1"),
        )
    if provider == "azure":
        az = cp["Azure"] if cp.has_section("Azure") else {}
        return Credentials(
            provider="azure",
            username=az.get("account", user),
            secret_key=az.get("key", ""),
            region=az.get("region", "eastus"),
        )
    return Credentials(provider="private", username=user)


def write_example_config(path: str | os.PathLike[str], provider: str = "ec2") -> Path:
    """Emit a filled-in example configuration (used by the quickstart)."""
    p = Path(path)
    sections = {
        "Spark": {
            "driver": "spark-driver.example.com",
            "user": "ubuntu",
            "workers": "16",
            "instance": "c3.8xlarge",
        },
        "Storage": {"kind": "s3", "bucket": "ompcloud-staging"},
        "AWS": {
            "access_key": "AKIA" + "EXAMPLEKEY00",
            "secret_key": "example-secret-key-material",
            "region": "us-east-1",
        },
        "Offload": {
            "provider": provider,
            "compression": "gzip",
            "min_compress_size": str(1 << 20),
            "manage_instances": "false",
            "verbose": "false",
            "cache": "false",
        },
        "Resilience": {
            "retry_attempts": "3",
            "retry_base_delay_s": "0.5",
            "retry_max_delay_s": "30.0",
            "retry_jitter": "0.0",
            "max_resubmissions": "2",
            "breaker_threshold": "3",
            "breaker_reset_s": "300.0",
            "recovery": "none",
        },
    }
    cp = configparser.ConfigParser()
    for name, body in sections.items():
        cp[name] = body
    with open(p, "w") as fh:
        cp.write(fh)
    return p
