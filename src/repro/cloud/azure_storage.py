"""Microsoft Azure Blob Storage simulator.

Mirrors the subset OmpCloud touches: a storage *account* holding *containers*
of block blobs, named ``wasb://container@account`` (the scheme HDInsight
clusters mount).  Semantics beyond naming and auth are shared with the
generic :class:`~repro.cloud.storage.ObjectStore`.
"""

from __future__ import annotations

import re

from repro.cloud.credentials import CredentialError, Credentials
from repro.cloud.storage import AccessDeniedError, ObjectStore

_ACCOUNT_RE = re.compile(r"^[a-z0-9]{3,24}$")
_CONTAINER_RE = re.compile(r"^[a-z0-9][a-z0-9-]{2,62}$")


class AzureBlobStore(ObjectStore):
    """One container in one Azure storage account."""

    cluster_read_bps = 350e6
    cluster_write_bps = 250e6
    request_latency_s = 0.060

    def __init__(
        self,
        account: str,
        container: str,
        credentials: Credentials | None = None,
    ) -> None:
        if not _ACCOUNT_RE.match(account):
            raise ValueError(f"invalid Azure storage account name {account!r}")
        if not _CONTAINER_RE.match(container):
            raise ValueError(f"invalid Azure container name {container!r}")
        super().__init__(name=f"wasb://{container}@{account}", credentials=credentials)
        self.account = account
        self.container = container

    def check_access(self, credentials: Credentials | None) -> None:
        if credentials is None:
            raise AccessDeniedError(f"{self.name}: Azure requires account credentials")
        try:
            credentials.validated_for("azure")
        except CredentialError as e:
            raise AccessDeniedError(f"{self.name}: {e}") from e
