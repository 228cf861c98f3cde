"""Network model: link math, parallel streams, broadcast costs."""

import pytest

from repro.cloud.network import Link, NetworkModel
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.spark.cluster import SparkCluster


@pytest.fixture
def wan() -> Link:
    return Link(capacity_bps=100.0, latency_s=1.0, stream_cap_bps=25.0)


def test_transfer_time_is_latency_plus_serialization(wan):
    assert wan.transfer_time(100) == pytest.approx(1.0 + 100 / 25.0)


def test_zero_bytes_costs_only_latency(wan):
    assert wan.transfer_time(0) == pytest.approx(1.0)


def test_negative_bytes_rejected(wan):
    with pytest.raises(ValueError):
        wan.transfer_time(-1)


def test_stream_cap_limits_single_stream(wan):
    # One stream: 25 B/s, not the 100 B/s capacity.
    assert wan.effective_bandwidth(1) == 25.0


def test_streams_aggregate_up_to_capacity(wan):
    assert wan.effective_bandwidth(2) == 50.0
    assert wan.effective_bandwidth(4) == 100.0
    assert wan.effective_bandwidth(8) == 100.0  # capacity-bound


def test_no_stream_cap_gives_full_capacity():
    link = Link(capacity_bps=100.0, latency_s=0.0)
    assert link.effective_bandwidth(1) == 100.0


def test_parallel_beats_serial_for_multiple_buffers(wan):
    sizes = [100, 100, 100, 100]
    assert wan.parallel_transfer_time(sizes) < wan.serial_transfer_time(sizes)


def test_parallel_equal_sizes_matches_closed_form(wan):
    # 4 equal buffers saturate capacity: total bytes / capacity + latency.
    t = wan.parallel_transfer_time([100] * 4)
    assert t == pytest.approx(1.0 + 400 / 100.0)


def test_parallel_single_buffer_matches_transfer_time(wan):
    assert wan.parallel_transfer_time([100]) == pytest.approx(wan.transfer_time(100))


def test_parallel_empty_list_is_free(wan):
    assert wan.parallel_transfer_time([]) == 0.0


def test_parallel_progressive_filling_speeds_up_survivors():
    # 2 streams, capacity lets both run at cap; after the short one drains,
    # the long one keeps its cap rate (stream-bound, no speed-up) — check
    # the total equals the hand-computed piecewise schedule.
    link = Link(capacity_bps=100.0, latency_s=0.0, stream_cap_bps=30.0)
    t = link.parallel_transfer_time([30, 90])
    # Phase 1: both at 30 B/s for 1 s (short one drains 30 B; long drains 30).
    # Phase 2: survivor at 30 B/s for 60/30 = 2 s.
    assert t == pytest.approx(3.0)


def test_capacity_shared_when_streams_exceed_it():
    link = Link(capacity_bps=40.0, latency_s=0.0, stream_cap_bps=30.0)
    # 2 streams share 40 B/s -> 20 each; short (20 B) drains at t=1, then the
    # survivor runs at min(30, 40) = 30 B/s for remaining 40 B.
    t = link.parallel_transfer_time([20, 60])
    assert t == pytest.approx(1.0 + 40 / 30.0)


def test_invalid_link_parameters():
    with pytest.raises(ValueError):
        Link(capacity_bps=0.0, latency_s=0.0)
    with pytest.raises(ValueError):
        Link(capacity_bps=1.0, latency_s=-1.0)
    with pytest.raises(ValueError):
        Link(capacity_bps=1.0, latency_s=0.0, stream_cap_bps=0.0)


def test_zero_streams_rejected(wan):
    with pytest.raises(ValueError):
        wan.effective_bandwidth(0)


# ---------------------------------------------------------------- NetworkModel
@pytest.fixture
def net() -> NetworkModel:
    return NetworkModel(
        wan=Link(capacity_bps=100.0, latency_s=0.0, stream_cap_bps=50.0),
        lan=Link(capacity_bps=1000.0, latency_s=0.01),
    )


def test_bittorrent_broadcast_scales_logarithmically(net):
    t4 = net.broadcast_time(1000, 4)
    t16 = net.broadcast_time(1000, 16)
    # Going 4 -> 16 nodes adds only latency depth, not 4x data time.
    assert t16 < 4 * t4
    assert t16 > t4


def test_naive_broadcast_scales_linearly(net):
    t1 = net.broadcast_time(1000, 1, bittorrent=False)
    t8 = net.broadcast_time(1000, 8, bittorrent=False)
    assert t8 == pytest.approx(8 * t1)


def test_bittorrent_cheaper_than_naive_for_many_nodes(net):
    assert net.broadcast_time(10_000, 16) < net.broadcast_time(10_000, 16, bittorrent=False)


def test_broadcast_zero_bytes_free(net):
    assert net.broadcast_time(0, 8) == 0.0


def test_invalid_node_counts(net):
    with pytest.raises(ValueError):
        net.broadcast_time(10, 0)


def test_default_links_are_sane():
    """A cluster built without a network falls back to the calibrated
    links, the ones a cloud device prices its transfers with."""
    net = SparkCluster(n_workers=1).network
    assert net.wan == DEFAULT_CALIBRATION.wan_link()
    assert net.lan == DEFAULT_CALIBRATION.lan_link()
    assert net.lan.capacity_bps > net.wan.capacity_bps
    assert net.lan.latency_s < net.wan.latency_s
