"""HDFS simulator: a namenode with simple authentication.

The paper supports "any HDFS server" as the staging storage.  What matters to
OmpCloud's cost profile is HDFS's throughput and latency relative to the
object stores, which the class constants carry; objects are stored via the
common :class:`~repro.cloud.storage.ObjectStore` machinery.
"""

from __future__ import annotations

from repro.cloud.credentials import Credentials
from repro.cloud.storage import AccessDeniedError, ObjectStore


class HDFSStore(ObjectStore):
    """One HDFS namespace."""

    cluster_read_bps = 700e6  # local replica reads are fast
    cluster_write_bps = 250e6  # pipeline writes pay the replication factor
    request_latency_s = 0.005

    def check_access(self, credentials: Credentials | None) -> None:
        # HDFS inside a private cluster uses simple auth: any username works,
        # no username does not.
        if credentials is None or not credentials.username:
            raise AccessDeniedError(f"{self.name}: HDFS simple auth requires a username")
