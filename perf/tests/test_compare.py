"""``compare`` verdicts on hand-made result pairs."""

import json

from perf import report

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.20},
    ],
}


def m(value, samples=None, unit="s"):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def tight(value):
    return m(value, [value * f for f in (0.99, 1.0, 1.0, 1.01, 1.0)])


def noisy(value):
    return m(value, [value * f for f in (0.7, 0.9, 1.0, 1.1, 1.3)])


def test_within_bound_is_ok_and_beyond_it_is_regressed():
    assert report.verdict(tight(1.0), tight(1.05), "lower", 0.10)[0] == "ok"
    assert report.verdict(tight(1.0), tight(1.15), "lower", 0.10)[0] == "regressed"
    assert report.verdict(tight(1.0), tight(0.80), "lower", 0.10)[0] == "improved"


def test_higher_is_better_flips_the_direction():
    assert report.verdict(tight(100.0), tight(85.0), "higher", 0.10)[0] == "regressed"
    assert report.verdict(tight(100.0), tight(120.0), "higher", 0.10)[0] == "improved"


def test_wide_own_spread_is_unresolved_not_unchanged():
    assert report.verdict(noisy(1.0), tight(1.02), "lower", 0.10)[0] == "unresolved"
    assert report.verdict(tight(1.0), noisy(1.02), "lower", 0.10)[0] == "unresolved"
    # ...unless every run of B reads better than every run of A.
    assert report.verdict(noisy(1.0), tight(0.5), "lower", 0.10)[0] == "improved"
    # A worsening beyond the bound is a regression whatever the spread.
    assert report.verdict(noisy(1.0), noisy(1.5), "lower", 0.10)[0] == "regressed"


def test_single_sample_metrics_have_no_spread_and_missing_ones_no_verdict():
    assert report.verdict(m(100.0), m(104.0), "lower", 0.10)[0] == "ok"
    assert report.verdict(noisy(1.0), tight(1.02), "lower", 0.10,
                          spread_rule=False)[0] == "ok"
    assert report.verdict(None, None, "lower", 0.20)[0] == "n/a"


def result(wall, fail_ratio=0.0, tasks=100, digest=7):
    return {"workloads": {"w": {
        "end_to_end": {"wall_s": tight(wall),
                       "work_per_s": tight(10.0 / wall)},
        "fail_ratio": fail_ratio,
        "per_layer": {"count.tasks_run": m(tasks, unit="count"),
                      "sim_digest": m(digest, unit="id"),
                      "scheduler.self_s": m(wall / 2)},
    }}}


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return report.compare(SPEC, str(pa), str(pb))


def test_compare_exits_zero_when_two_runs_agree(tmp_path, capsys):
    assert _compare(tmp_path, result(1.0), result(1.03)) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out and "unresolved" not in out and "WARNING" not in out
    # One row per workload x metric, fail_ratio included.
    assert out.count("\n") == len(SPEC["end_to_end"]) + 1


def test_compare_exits_nonzero_on_regression_or_more_failures(tmp_path, capsys):
    assert _compare(tmp_path, result(1.0), result(1.3)) == 1
    assert "regressed" in capsys.readouterr().out
    assert _compare(tmp_path, result(1.0), result(1.0, fail_ratio=0.01)) == 1


def test_compare_warns_when_a_simulated_statistic_moved(tmp_path, capsys):
    assert _compare(tmp_path, result(1.0), result(1.0, tasks=101, digest=8)) == 0
    out = capsys.readouterr().out
    assert "WARNING w: count.tasks_run differs" in out
    assert "WARNING w: sim_digest differs" in out
    assert "scheduler.self_s" not in out
