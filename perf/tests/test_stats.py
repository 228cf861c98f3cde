"""The percentile-emission rule and the statistics behind ``compare``."""

import json
import statistics

import pytest

from perf import run, stats


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert stats.percentile([10.0, 20.0], 90) == pytest.approx(19.0)
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert not stats.p90_emitted(99)
    assert stats.p90_emitted(100)
    assert not stats.p90_emitted(13)


def test_quartile_spread_matches_the_drivers_definition():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([1.0]) is None


def _children(ops_per_pass, passes, setups=(0.5,)):
    return [{"setup_s": setup,
             "wall_s": [1.0 + 0.01 * i for i in range(passes)],
             "cpu_s": [0.9] * passes,
             "op_s": [[0.001 * (j + 1) for j in range(ops_per_pass)]] * passes,
             "work": 50.0, "unit": "things", "peak_rss_mb": 123.0}
            for setup in setups]


def test_p90_is_emitted_only_with_a_hundred_op_samples():
    few = run.end_to_end(_children(2, 3, setups=(0.5, 0.4, 0.6)))
    assert "op_ms_p90" not in few
    assert few["setup_s"]["value"] == 0.5 and len(few["wall_s"]["samples"]) == 9
    assert few["work_per_s"]["unit"] == "things/s"
    many = run.end_to_end(_children(ops_per_pass=20, passes=5))
    assert many["op_ms_p90"]["value"] == pytest.approx(
        stats.percentile([float(j + 1) for j in range(20)] * 5, 90))


def test_contract_line_reports_the_median_where_p90_is_not_emitted():
    spec = run.load_spec()
    e2e = run.end_to_end(_children(2, 3, setups=(0.5, 0.4, 0.6)))
    line = json.loads(run.contract_line(
        {"end_to_end": e2e, "attempted": 18, "failed": 0},
        spec["end_to_end"], trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert line["metrics"]["op_ms_p90"] == line["metrics"]["op_ms_p50"]
    assert line["metrics"]["work_per_s"]["unit"] == "1/s"
    assert line["correct"] is True
