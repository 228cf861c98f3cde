"""The seeded chaos harness and its CLI surface.

Determinism is the whole point: the same (benchmark, seed) must derive the
same fault plan and produce the same verdict, and the CLI must speak the
same JSON shape as ``repro lint --json`` / ``repro validate --json``.
"""

import json

from repro.cli import main
from repro.resilience import OffloadJournal, chaos_faults, run_chaos


def test_chaos_faults_is_deterministic_and_bounded():
    for benchmark in ("gemm", "matmul", "syrk"):
        for seed in range(12):
            first = chaos_faults(benchmark, seed)
            assert first == chaos_faults(benchmark, seed)
            ssh, submit, corrupt, kill_driver, fraction = first
            assert ssh in (0, 1) and submit in (0, 1)
            assert corrupt in ({}, {"in/": 1})
            assert isinstance(kill_driver, bool)
            assert 0.25 <= fraction <= 0.75


def test_chaos_faults_vary_across_seeds():
    plans = {repr(chaos_faults("gemm", seed)) for seed in range(16)}
    assert len(plans) > 4  # the sweep actually explores the fault space


def test_run_chaos_survives_driver_death_with_resume():
    # gemm@seed0 derives a driver death (see chaos_faults); the run must
    # still match the oracle and resume from committed checkpoints.
    result = run_chaos("gemm", 0, recovery="resume")
    assert result.ok, result.failures
    assert result.injected["driver_dies_at"] is not None
    assert result.resumes == 1
    assert result.tiles_skipped > 0
    assert result.device == "CLOUD"


def test_run_chaos_restart_policy_never_skips_tiles(tmp_path):
    result = run_chaos("gemm", 0, recovery="restart",
                       journal_dir=str(tmp_path))
    assert result.ok, result.failures
    assert result.tiles_skipped == 0
    # Only "resume" commits tile checkpoints, so the journal is empty.
    dumped = tmp_path / "journal_gemm_seed0.jsonl"
    assert dumped.exists() and dumped.read_text() == ""


def test_chaos_journals_hold_only_tile_commits(tmp_path):
    """The journal is the checkpoint log a resume replays: under "resume" it
    holds tile_done records alone, under "none" and "restart" nothing."""
    for policy in ("resume", "none", "restart"):
        run_chaos("gemm", 0, recovery=policy, journal_dir=str(tmp_path / policy))
        lines = (tmp_path / policy / "journal_gemm_seed0.jsonl").read_text(
            ).splitlines()
        journal = OffloadJournal.from_lines(lines)
        assert len(journal) == len(lines)
        assert {r.kind for r in journal} == (
            {"tile_done"} if policy == "resume" else set())


def test_run_chaos_without_recovery_falls_back_to_host():
    result = run_chaos("gemm", 0, recovery="none")
    assert result.ok, result.failures
    assert result.fell_back_to_host and result.device == "HOST"


def test_run_chaos_is_reproducible():
    a = run_chaos("matmul", 3)
    b = run_chaos("matmul", 3)
    assert a.to_item() == b.to_item()


# ------------------------------------------------------------------ the CLI

def test_cli_chaos_plain_output(capsys):
    assert main(["chaos", "gemm", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2
    assert "seed   0" in out and "seed   1" in out


def test_cli_chaos_json_matches_shared_report_shape(capsys, tmp_path):
    assert main(["chaos", "gemm", "matmul", "--seeds", "1",
                 "--journal-dir", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "chaos"
    assert payload["ok"] is True
    assert sorted(set(payload) ) == ["items", "ok", "tool"]
    names = [item["name"] for item in payload["items"]]
    assert names == ["gemm@seed0", "matmul@seed0"]
    for item in payload["items"]:
        assert item["ok"] is True
        assert "injected" in item and "failures" in item
    assert list(tmp_path.glob("journal_*.jsonl"))


def test_cli_chaos_seed_base_shifts_the_sweep(capsys):
    assert main(["chaos", "matmul", "--seeds", "1", "--seed-base", "7",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["items"][0]["name"] == "matmul@seed7"


def test_cli_chaos_rejects_unknown_benchmark(capsys):
    assert main(["chaos", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
