"""Benchmark harness: BENCH_*.json schema, exact compare, CLI."""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.bench import (
    SCHEMA,
    bench_filename,
    compare,
    load_bench,
    run_benchmark,
    run_mm3_chain,
    write_bench,
)

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.fixture(scope="module")
def quick_payload():
    return run_benchmark("matmul", quick=True)


def test_payload_schema(quick_payload):
    p = quick_payload
    assert p["schema"] == SCHEMA
    assert p["benchmark"] == "matmul"
    assert p["params"]["mode"] == "modeled" and p["params"]["quick"] is True
    ms = p["milestones"]
    for key in ("full_s", "spark_job_s", "computation_s", "host_comm_s",
                "spark_overhead_s"):
        assert key in ms and ms[key] > 0.0
    assert ms["speedup_full"] > 0.0
    assert ms["bytes_up_wire"] > 0
    # Event counts and a metrics snapshot ride along with the milestones.
    assert p["events"]["target_end"] == 1
    assert p["events"]["task_end"] == p["events"]["task_start"] > 0
    assert "repro_offloads_total" in p["metrics"]


def test_modeled_runs_are_deterministic(quick_payload):
    again = run_benchmark("matmul", quick=True)
    assert again["milestones"] == quick_payload["milestones"]
    assert again["events"] == quick_payload["events"]


def test_write_load_round_trip(tmp_path, quick_payload):
    path = write_bench(quick_payload, str(tmp_path))
    assert path.endswith(bench_filename("matmul"))
    assert load_bench(path) == quick_payload
    # Stable serialization: sorted keys, trailing newline.
    text = open(path).read()
    assert text.endswith("\n")
    assert json.loads(text) == quick_payload


def test_load_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "BENCH_x.json"
    bad.write_text(json.dumps({"schema": "nope/9"}))
    with pytest.raises(ValueError, match="schema"):
        load_bench(str(bad))


def test_compare_passes_on_identical(quick_payload):
    assert compare(quick_payload, quick_payload) == []


def _edit(payload, section, key, fn):
    edited = copy.deepcopy(payload)
    edited[section][key] = fn(edited[section][key])
    return edited


@pytest.mark.parametrize("section,key,fn", [
    ("milestones", "spark_job_s", lambda v: v * 1.05),
    ("milestones", "full_s", lambda v: v * 0.5),   # "improvements" too
    ("milestones", "bytes_up_wire", lambda v: v + 1),
    ("events", "task_end", lambda v: v + 1),
    ("params", "size", lambda v: v * 2),
], ids=["spark_job_s+5%", "full_s*0.5", "bytes_up_wire", "events",
        "params.size"])
def test_compare_flags_every_changed_key_by_name(quick_payload, section,
                                                  key, fn):
    """Modeled runs are bit-deterministic: any differing value is flagged,
    whichever direction it moved and whatever section it lives in."""
    found = compare(quick_payload, _edit(quick_payload, section, key, fn))
    assert len(found) == 1
    assert f"{section}.{key}" in found[0]


def test_compare_flags_metric_families(quick_payload):
    edited = copy.deepcopy(quick_payload)
    edited["metrics"].pop("repro_offloads_total")
    found = compare(quick_payload, edited)
    assert found == ["matmul: metrics.repro_offloads_total differs"]


def test_compare_rejects_benchmark_mismatch(quick_payload):
    other = copy.deepcopy(quick_payload)
    other["benchmark"] = "gemm"
    with pytest.raises(ValueError, match="mismatch"):
        compare(quick_payload, other)


def test_unknown_benchmark_name():
    with pytest.raises(KeyError):
        run_benchmark("not-a-workload", quick=True)


def test_inference_bench_moves_strictly_fewer_bytes():
    """The headline invariant of the clause-inference bench: on every
    measured workload the synthesized clauses move strictly less wire
    traffic than the naive implicit-tofrom default, and the committed
    baseline agrees with a fresh deterministic run."""
    payload = run_benchmark("inference_wire_bytes", quick=True)
    ms = payload["milestones"]
    for w in ("gemm", "covar", "3mm"):
        assert ms[f"wire_inferred_{w}"] < ms[f"wire_naive_{w}"], w
    assert payload["events"].get("map_inferred") == 1
    baseline = load_bench(
        "benchmarks/baselines/BENCH_inference_wire_bytes.json")
    assert compare(baseline, payload) == []
    assert baseline["milestones"] == ms


# ----------------------------------------------------------------------- CLI
def test_cli_bench_writes_files(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["bench", "matmul", "--quick", "--out", str(out)]) == 0
    path = out / "BENCH_matmul.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["schema"] == SCHEMA
    assert "matmul" in capsys.readouterr().out


def test_cli_bench_json_flag(tmp_path, capsys):
    assert main(["bench", "matmul", "--quick", "--json",
                 "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout[stdout.index("{"):])
    assert payload["benchmark"] == "matmul"


def test_cli_bench_unknown_name_exits_2(tmp_path, capsys):
    assert main(["bench", "nope", "--quick", "--out", str(tmp_path)]) == 2


def test_cli_bench_json_alone_writes_nothing(tmp_path, monkeypatch, capsys):
    """``--json`` without ``--out`` prints the payload and leaves no file."""
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "matmul", "--quick", "--json"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert '"benchmark": "matmul"' in capsys.readouterr().out


@pytest.mark.parametrize("contents", [
    None,
    '{"schema": "nope/9"}',
    "[]",
    '{"schema": "repro-bench/1", "benchmark": "matmul", "milestones": []}',
], ids=["missing", "wrong-schema", "not-an-object", "bad-section"])
def test_cli_bench_unreadable_baseline_exits_2(tmp_path, capsys, contents):
    """An unusable baseline is a usage error (exit 2), not a drift (1)."""
    baseline = tmp_path / "BENCH_matmul.json"
    if contents is not None:
        baseline.write_text(contents)
    code = main(["bench", "matmul", "--quick", "--out", str(tmp_path / "cur"),
                 "--compare", str(baseline)])
    assert code == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_cli_bench_compare_detects_regression(tmp_path, capsys):
    """An edited baseline trips the gate with exit 1, naming the key."""
    base_dir = tmp_path / "base"
    assert main(["bench", "matmul", "--quick", "--out", str(base_dir)]) == 0
    baseline = base_dir / "BENCH_matmul.json"
    payload = json.loads(baseline.read_text())
    payload["milestones"]["full_s"] *= 0.5  # pretend the past was 2x faster
    baseline.write_text(json.dumps(payload))

    code = main(["bench", "--quick", "--out", str(tmp_path / "cur"),
                 "--compare", str(base_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "CHANGED: matmul: milestones.full_s" in err


def test_cli_bench_compare_passes_against_fresh_baseline(tmp_path, capsys):
    base_dir = tmp_path / "base"
    assert main(["bench", "matmul", "--quick", "--out", str(base_dir)]) == 0
    code = main(["bench", "matmul", "--quick", "--out", str(tmp_path / "cur"),
                 "--compare", str(base_dir)])
    assert code == 0
    assert "CHANGED" not in capsys.readouterr().err


def test_cli_bench_compare_defaults_targets_to_baseline_set(tmp_path, capsys):
    """With --compare and no explicit targets, the baseline names choose
    what runs (that is how CI stays in sync with the committed set)."""
    base_dir = tmp_path / "base"
    assert main(["bench", "matmul", "gemm", "--quick",
                 "--out", str(base_dir)]) == 0
    capsys.readouterr()
    code = main(["bench", "--quick", "--out", str(tmp_path / "cur"),
                 "--compare", str(base_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "gemm" in out and "syrk" not in out


def test_chaos_recovery_bench_resume_beats_restart():
    """The chaos_recovery A/B invariants: with the driver dying at ~50 %
    tile completion, tile-granular resume re-executes strictly fewer tasks
    and moves strictly fewer cluster wire bytes than a full restart."""
    from repro.obs.bench import run_chaos_recovery

    ms = run_chaos_recovery(quick=True)["milestones"]
    assert ms["tiles_skipped"] > 0
    assert ms["tiles_checkpointed"] > 0
    assert ms["tasks_run_resume"] < ms["tasks_run_restart"]
    assert ms["cluster_bytes_wire_resume"] < ms["cluster_bytes_wire_restart"]
    assert ms["death_at_s"] > 0.0
    # Both recovery policies cost wall time over the fault-free chain.
    assert ms["full_s_restart"] > ms["full_s_healthy"]
    assert ms["full_s"] > ms["full_s_healthy"]


def test_committed_baselines_match_current_model(tmp_path):
    """The checked-in CI baselines must regenerate byte for byte on this
    tree: milestones, event counts, metrics snapshots, byte totals."""
    root = os.path.join(REPO, "benchmarks", "baselines")
    names = sorted(os.listdir(root))
    assert len(names) == 15
    for fname in names:
        baseline = load_bench(os.path.join(root, fname))
        current = run_benchmark(baseline["benchmark"], quick=True)
        assert compare(baseline, current) == []
        with open(write_bench(current, str(tmp_path)), "rb") as new, \
                open(os.path.join(root, fname), "rb") as old:
            assert new.read() == old.read(), fname


def test_mm3_chain_nowait_fuses_into_one_shared_report():
    _, reports, env = run_mm3_chain(64, 1.0, nowait=True)
    assert len(reports) == 3
    assert reports[0] is reports[1] is reports[2]
    assert reports[0].fused_regions == 3
    assert env is not None


@pytest.mark.parametrize("seed", ["1", "2"])
def test_payloads_do_not_depend_on_the_hash_seed(tmp_path, seed):
    """Every committed baseline regenerates exactly whatever the string-hash
    seed, so no payload depends on set or dict iteration order."""
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "all", "--quick",
         "--out", str(tmp_path), "--compare",
         os.path.join(REPO, "benchmarks", "baselines")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
