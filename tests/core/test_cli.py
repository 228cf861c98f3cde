"""CLI surface: python -m repro <command>."""

import pytest

from repro.cli import main


def test_run_functional_verifies(capsys):
    assert main(["run", "matmul", "--cores", "16", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "spark overhead" in out


def test_run_modeled_paper_scale(capsys):
    assert main(["run", "gemm", "--modeled", "--cores", "256"]) == 0
    out = capsys.readouterr().out
    assert "modeled" in out
    assert "host-target communication" in out


def test_run_with_custom_size_and_density(capsys):
    assert main(["run", "syrk", "--size", "32", "--density", "0.05",
                 "--workers", "2"]) == 0
    assert "verified" in capsys.readouterr().out


def test_run_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_figures_subset(capsys):
    assert main(["figures", "collinear"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4h" in out and "Figure 5h" in out
    assert "OmpThread" in out


def test_figures_unknown_benchmark(capsys):
    assert main(["figures", "bogus"]) == 2


def test_headlines(capsys):
    assert main(["headlines"]) == 0
    out = capsys.readouterr().out
    assert "overhead_spark_16" in out
    assert "%" in out


def test_validate_all(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 8
    assert "FAILED" not in out


def test_config_writer(tmp_path, capsys):
    path = tmp_path / "cloud_rtl.ini"
    assert main(["config", str(path)]) == 0
    assert path.exists()
    from repro.core.config import load_config

    cfg = load_config(path)
    assert cfg.provider == "ec2"


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_run_json_output(capsys):
    assert main(["run", "matmul", "--cores", "16", "--workers", "2", "--json"]) == 0
    out = capsys.readouterr().out
    import json

    payload = json.loads(out[out.index("{"):])
    assert payload["region"] == "matmul"
    assert payload["tasks_run"] >= 1
    assert "figure5_stack" in payload


def test_run_gantt_output(capsys):
    assert main(["run", "matmul", "--cores", "16", "--workers", "2",
                 "--gantt"]) == 0
    out = capsys.readouterr().out
    assert "legend:" in out


def test_figures_csv_export(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(["figures", "collinear", "--csv", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("workload,cores")
    # 6 core counts x 2 densities + header
    assert len(text.strip().splitlines()) == 13


def test_calibration_listing(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "core_flops" in out
    assert "contention_ceiling" in out


def test_modeled_run_respects_density(capsys):
    assert main(["run", "gemm", "--modeled", "--cores", "64",
                 "--density", "0.05"]) == 0
    sparse_out = capsys.readouterr().out
    assert main(["run", "gemm", "--modeled", "--cores", "64",
                 "--density", "1.0"]) == 0
    dense_out = capsys.readouterr().out

    def wire_mb(text):
        line = next(l for l in text.splitlines() if "wire" in l)
        return float(line.split("->")[1].split("MB")[0])

    assert wire_mb(sparse_out) < wire_mb(dense_out) / 2


def test_profile_applies_the_inferred_what_if(capsys):
    """``profile``'s inferred-minimal estimate is the wall clock of the same
    offload rerun with ``infer_maps=True``, in the JSON and the text view."""
    import json

    from repro.obs.bench import _config, _offload
    from repro.obs.profile import profile_report
    from repro.workloads import WORKLOADS

    assert main(["profile", "gemm", "--quick", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["tool"] == "profile" and report["ok"]
    (item,) = report["items"]
    estimate = {w["name"]: w["estimate_s"] for w in item["what_if"]}
    spec = WORKLOADS["gemm"]
    _, twin = _offload(spec.build_region("CLOUD"),
                       spec.scalars(spec.test_size),
                       _config(16, manage_instances=True), 1.0,
                       infer_maps=True, physical_cores=32)
    assert estimate["inferred_minimal_upload"] == profile_report(twin).wall_s

    assert main(["profile", "gemm", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "inferred_minimal_upload" in out


def test_graph_chained_3mm_shows_fused_plan(capsys):
    assert main(["graph", "chained_3mm"]) == 0
    out = capsys.readouterr().out
    assert "task graph: chained_3mm" in out
    assert "managed env" in out
    assert "FUSED" in out
    assert "3mm_e" in out and "3mm_g" in out


def test_graph_chained_3mm_json_shape(capsys):
    import json

    assert main(["graph", "chained_3mm", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["tool"] == "graph" and report["ok"]
    (payload,) = report["items"]
    assert payload["managed"] is True
    assert [node["region"] for node in payload["nodes"]] == [
        "3mm_e", "3mm_f", "3mm_g"]
    assert {e["kind"] for e in payload["edges"]} <= {"depend", "dataflow"}
    (group,) = payload["groups"]
    assert group["fused"] and sorted(group["elided"]) == ["E", "F"]
    assert group["bytes_saved"] > 0
    assert payload["rejected"] == []


def test_graph_unmanaged_reports_rejection(capsys):
    import json

    assert main(["graph", "chained_3mm", "--unmanaged", "--json"]) == 0
    out = capsys.readouterr().out
    (payload,) = json.loads(out[out.index("{"):])["items"]
    assert payload["managed"] is False
    assert len(payload["groups"]) == 3
    assert not any(g["fused"] for g in payload["groups"])
    assert len(payload["waves"]) == 2
    assert any(r["reason"] == "intermediate-not-resident"
               for r in payload["rejected"])


def test_graph_single_region_benchmark(capsys):
    assert main(["graph", "matmul"]) == 0
    out = capsys.readouterr().out
    assert "task graph: matmul" in out
    assert "(none)" in out  # a single node has no edges


def test_graph_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["graph", "nope"])
