"""Amazon S3 simulator.

Adds the S3-isms the OmpCloud plugin interacts with: buckets with naming
rules, addressed as ``s3://bucket``.  Authentication follows the AWS
credential shape checked by :class:`repro.cloud.credentials.Credentials`.
"""

from __future__ import annotations

import re

from repro.cloud.credentials import CredentialError, Credentials
from repro.cloud.storage import AccessDeniedError, ObjectStore

_BUCKET_RE = re.compile(r"^[a-z0-9][a-z0-9.-]{1,61}[a-z0-9]$")


class S3Store(ObjectStore):
    """One S3 bucket.

    S3's first-byte latency is higher than HDFS's but sustained throughput
    from EC2 is excellent; the defaults reflect that.
    """

    cluster_read_bps = 500e6
    cluster_write_bps = 350e6
    request_latency_s = 0.050

    def __init__(self, bucket: str, credentials: Credentials | None = None) -> None:
        if not _BUCKET_RE.match(bucket) or ".." in bucket:
            raise ValueError(f"invalid S3 bucket name {bucket!r}")
        super().__init__(name=f"s3://{bucket}", credentials=credentials)
        self.bucket = bucket

    def check_access(self, credentials: Credentials | None) -> None:
        if credentials is None:
            raise AccessDeniedError(f"{self.name}: S3 requires AWS credentials")
        try:
            credentials.validated_for("aws")
        except CredentialError as e:
            raise AccessDeniedError(f"{self.name}: {e}") from e
