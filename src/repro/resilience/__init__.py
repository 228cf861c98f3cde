"""Resilience subsystem: retry policy, circuit breaking, durable recovery.

Grown from the original single-module resilience layer (PR 1) into a
package:

* :mod:`repro.resilience.policies` — retry policies, ``retry_call``, the
  circuit breaker (the original module, unchanged semantics).
* :mod:`repro.resilience.integrity` — deterministic content checksums for
  end-to-end transfer verification.
* :mod:`repro.resilience.journal` — the write-ahead offload journal with
  crash-consistent (CRC-sealed, torn-tail-tolerant) JSONL records.
* :mod:`repro.resilience.recovery` — journal replay into the committed
  tiles a replacement driver resumes from.
* :mod:`repro.resilience.chaos` — the seeded fault-injection harness behind
  ``repro chaos`` (deterministic fault plans, oracle and invariant checks).

The original public names are re-exported here so ``from repro.resilience
import RetryPolicy`` keeps working everywhere.
"""

from repro.resilience.chaos import ChaosResult, chaos_faults, run_chaos
from repro.resilience.integrity import (
    checksum_matches,
    content_checksum,
    virtual_checksum,
)
from repro.resilience.journal import RECORD_KINDS, JournalRecord, OffloadJournal
from repro.resilience.policies import (
    CircuitBreaker,
    RetryHook,
    RetryPolicy,
    retry_call,
)
from repro.resilience.recovery import (
    RecoveryState,
    TileCheckpoint,
    replay_journal,
)

__all__ = [
    "RECORD_KINDS",
    "ChaosResult",
    "CircuitBreaker",
    "JournalRecord",
    "OffloadJournal",
    "RecoveryState",
    "RetryHook",
    "RetryPolicy",
    "TileCheckpoint",
    "chaos_faults",
    "checksum_matches",
    "content_checksum",
    "replay_journal",
    "retry_call",
    "run_chaos",
    "virtual_checksum",
]
