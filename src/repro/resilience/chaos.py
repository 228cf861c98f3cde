"""Deterministic chaos harness: multi-seed fault sweeps with oracles.

``repro chaos`` drives this module.  Each (benchmark, seed) pair derives a
fault plan from a stable hash — SSH flakes, failed submissions, a corrupted
staged object, a driver death calibrated to land mid-way through the tile
wave — runs the workload functionally, and asserts two things:

* **bit-closeness** — the outputs match the NumPy oracle within the same
  tolerance the validation suite uses, no matter what faults were injected;
* **report invariants** — the offload report is internally consistent and
  agrees with the event stream (corruption detections match the storage's
  own counter, the ``target_end`` event carries the report's wall time,
  the report's traffic equals the ``map_upload``/``map_download`` sums, its
  retries and backoff equal the ``retry``/``resubmit`` events', recovery
  counters respect the configured policy).

Everything is simulated time and stable hashing: the same seed always
produces the same faults, the same recovery, the same report.  Journals can
be dumped per run (``--journal-dir``) so CI failures ship the evidence.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
import zlib
from dataclasses import dataclass, field

TOLERANCE = {"rtol": 3e-5, "atol": 1e-4}


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos run."""

    benchmark: str
    seed: int
    recovery: str
    ok: bool = True
    device: str = ""
    max_abs_error: float = 0.0
    resumes: int = 0
    tiles_skipped: int = 0
    tiles_checkpointed: int = 0
    corruption_detected: int = 0
    restaged_inputs: int = 0
    resubmissions: int = 0
    fell_back_to_host: bool = False
    injected: dict[str, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def to_item(self) -> dict[str, object]:
        """One entry of the shared ``json_report`` item list."""
        return {
            "name": f"{self.benchmark}@seed{self.seed}",
            "ok": self.ok,
            "recovery": self.recovery,
            "device": self.device,
            "max_abs_error": self.max_abs_error,
            "resumes": self.resumes,
            "tiles_skipped": self.tiles_skipped,
            "tiles_checkpointed": self.tiles_checkpointed,
            "corruption_detected": self.corruption_detected,
            "restaged_inputs": self.restaged_inputs,
            "resubmissions": self.resubmissions,
            "fell_back_to_host": self.fell_back_to_host,
            "injected": dict(self.injected),
            "failures": list(self.failures),
        }


def chaos_faults(benchmark: str, seed: int
                 ) -> tuple[int, int, dict[str, int], bool, float]:
    """Derive the injected faults for one (benchmark, seed) pair.

    Stable hashing (zlib.crc32, like the rest of the simulator's jitter)
    keeps the sweep deterministic across processes and platforms.  Returns
    ``(ssh_failures, submit_failures, corrupt_keys, kill_driver,
    death_fraction)`` where ``death_fraction`` positions the driver death
    within the calibrated tile wave.
    """
    h = zlib.crc32(f"chaos:{benchmark}:{seed}".encode())
    ssh = h & 1
    submit = (h >> 1) & 1
    corrupt = {"in/": 1} if (h >> 2) & 1 else {}
    kill_driver = ((h >> 3) & 3) != 0  # 3 in 4 runs lose the driver mid-job
    death_fraction = 0.25 + ((h >> 5) % 51) / 100.0  # 0.25 .. 0.75
    return ssh, submit, corrupt, kill_driver, death_fraction


def _make_runtime(recovery: str, fault_plan, n_workers: int, cores: int):
    from repro.core.plugin_cloud import CloudDevice
    from repro.core.runtime import OffloadRuntime
    from repro.metrics.figures import demo_config

    config = dataclasses.replace(demo_config(n_workers=n_workers),
                                 min_compress_size=256, recovery=recovery)
    runtime = OffloadRuntime()
    runtime.register(CloudDevice(config, physical_cores=cores,
                                 fault_plan=fault_plan))
    return runtime


def _calibrate_death(spec, base_plan, seed: int, fraction: float,
                     n_workers: int, cores: int) -> float | None:
    """Dry-run the workload under the pre-death faults and place the death
    ``fraction`` of the way through the observed tile-commit wave.  The dry
    run uses the "resume" policy so every tile journals its completion."""
    from repro.core.api import offload

    runtime = _make_runtime("resume", base_plan, n_workers, cores)
    scalars = spec.scalars(spec.test_size)
    arrays = spec.inputs(spec.test_size, density=1.0, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        offload(spec.build_region("CLOUD"), arrays=arrays, scalars=scalars,
                runtime=runtime)
    journal = runtime.device("CLOUD").journal
    ends = sorted(r.payload["end"] for r in journal.records("tile_done"))
    if not ends:
        return None
    return ends[min(len(ends) - 1, int(fraction * len(ends)))]


def run_chaos(benchmark: str, seed: int, recovery: str = "resume",
              n_workers: int = 4, cores: int = 16,
              journal_dir: str | None = None) -> ChaosResult:
    """One seeded chaos run: inject, execute, verify, report."""
    import numpy as np

    from repro.core.api import offload
    from repro.obs.events import EventBus, use_bus
    from repro.spark.faults import FaultPlan
    from repro.workloads import WORKLOADS

    spec = WORKLOADS[benchmark]
    ssh, submit, corrupt, kill_driver, fraction = chaos_faults(benchmark, seed)
    base_plan = FaultPlan(ssh_connect_failures=ssh,
                          spark_submit_failures=submit,
                          corrupt_keys=corrupt)
    death_at = (_calibrate_death(spec, base_plan, seed, fraction,
                                 n_workers, cores)
                if kill_driver else None)
    plan = FaultPlan(ssh_connect_failures=ssh, spark_submit_failures=submit,
                     corrupt_keys=corrupt, driver_dies_at=death_at)

    result = ChaosResult(benchmark=benchmark, seed=seed, recovery=recovery,
                         injected={"ssh_failures": ssh,
                                   "submit_failures": submit,
                                   "corrupt_keys": dict(corrupt),
                                   "driver_dies_at": death_at})
    runtime = _make_runtime(recovery, plan, n_workers, cores)
    device = runtime.device("CLOUD")
    scalars = spec.scalars(spec.test_size)
    arrays = spec.inputs(spec.test_size, density=1.0, seed=seed)
    expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)

    bus = EventBus(keep_history=True)
    with use_bus(bus), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = offload(spec.build_region("CLOUD"), arrays=arrays,
                         scalars=scalars, runtime=runtime)

    result.device = report.device_name
    result.resumes = report.resumes
    result.tiles_skipped = report.tiles_skipped
    result.tiles_checkpointed = report.tiles_checkpointed
    result.corruption_detected = report.corruption_detected
    result.restaged_inputs = report.restaged_inputs
    result.resubmissions = report.resubmissions
    result.fell_back_to_host = report.fell_back_to_host

    # --- bit-closeness against the oracle, faults notwithstanding ----------
    result.max_abs_error = max(
        (float(np.max(np.abs(arrays[k] - v))) for k, v in expected.items()),
        default=0.0,
    )
    for name, want in expected.items():
        if not np.allclose(arrays[name], want, **TOLERANCE):
            result.failures.append(f"output {name!r} diverged from the oracle")

    # --- report invariants --------------------------------------------------
    max_resub = device.config.max_resubmissions
    if report.resubmissions > max_resub:
        result.failures.append(
            f"resubmissions {report.resubmissions} > limit {max_resub}")
    if recovery != "resume" and report.tiles_skipped:
        result.failures.append(
            f"tiles_skipped={report.tiles_skipped} under policy {recovery!r}")
    if report.fell_back_to_host != (report.device_name == "HOST"):
        result.failures.append("fell_back_to_host disagrees with device_name")
    if not report.fell_back_to_host and report.tasks_run <= 0:
        result.failures.append("cloud offload reported no tasks run")
    if report.full_s < 0.0:
        result.failures.append(f"negative wall time {report.full_s}")

    # --- event-stream consistency ------------------------------------------
    detections = bus.events_of("corruption_detected")
    get_detections = [e for e in detections if e.op == "GET"]
    if len(get_detections) != device.storage.corruption_count:
        result.failures.append(
            f"{len(get_detections)} corruption events vs storage counter "
            f"{device.storage.corruption_count}")
    target_ends = bus.events_of("target_end")
    if not target_ends:
        result.failures.append("no target_end event observed")
    elif abs(target_ends[-1].full_s - report.full_s) > 1e-6:
        result.failures.append(
            f"target_end full_s {target_ends[-1].full_s} != report "
            f"{report.full_s}")
    for kind, side in (("map_upload", "up"), ("map_download", "down")):
        moves = bus.events_of(kind)
        streamed = (sum(e.bytes_raw for e in moves),
                    sum(e.bytes_wire for e in moves))
        reported = (getattr(report, f"bytes_{side}_raw"),
                    getattr(report, f"bytes_{side}_wire"))
        if streamed != reported:
            result.failures.append(
                f"{kind} events carry {streamed} raw/wire bytes, report "
                f"{reported}")
    retries = bus.events_of("retry")
    if len(retries) != report.retries:
        result.failures.append(
            f"{len(retries)} retry events vs report retries {report.retries}")
    backoff = sum(e.delay_s for e in bus.events_of("retry", "resubmit"))
    if abs(backoff - report.backoff_s) > 1e-9:
        result.failures.append(
            f"retry/resubmit events carry {backoff} s of backoff, report "
            f"{report.backoff_s}")

    result.ok = not result.failures
    if journal_dir:
        os.makedirs(journal_dir, exist_ok=True)
        device.journal.dump(os.path.join(
            journal_dir, f"journal_{benchmark}_seed{seed}.jsonl"))
    return result
