"""Compute model and the host-communication price."""

import pytest

from repro.core.buffers import Buffer
from repro.core.transfer import StagingCodec
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compression import DENSE_MODEL
from repro.perfmodel.compute import ComputeModel


@pytest.fixture
def cm():
    return ComputeModel(DEFAULT_CALIBRATION)


# ------------------------------------------------------------------- compute
def test_sequential_time_linear_in_flops(cm):
    assert cm.sequential_time(2e9) == pytest.approx(2 * cm.sequential_time(1e9))
    with pytest.raises(ValueError):
        cm.sequential_time(-1)


def test_contention_grows_with_co_runners(cm):
    solo = cm.contention_factor(1, 16, 1.0)
    full = cm.contention_factor(16, 16, 1.0)
    assert solo == 1.0
    assert full == pytest.approx(1.0 + DEFAULT_CALIBRATION.contention_ceiling)


def test_contention_scaled_by_intensity(cm):
    light = cm.contention_factor(16, 16, 0.05)
    heavy = cm.contention_factor(16, 16, 1.0)
    assert light < heavy
    assert cm.contention_factor(16, 16, 0.0) == 1.0


def test_contention_validation(cm):
    with pytest.raises(ValueError):
        cm.contention_factor(0, 16, 1.0)
    with pytest.raises(ValueError):
        cm.contention_factor(4, 16, 1.5)


def test_task_timing_includes_jni(cm):
    t = cm.task_timing(1e9, tasks_on_node=1, slots_per_node=16, intensity=0.0,
                       jni_calls=1)
    base = cm.sequential_time(1e9)
    assert t.compute_s > base  # JNI efficiency loss applied
    assert t.jni_s == pytest.approx(DEFAULT_CALIBRATION.jni_call_s)
    assert t.total_s == t.compute_s + t.jni_s


def test_straggler_noise_is_deterministic(cm):
    a = cm.task_timing(1e9, 16, 16, 1.0, task_index=7)
    b = cm.task_timing(1e9, 16, 16, 1.0, task_index=7)
    c = cm.task_timing(1e9, 16, 16, 1.0, task_index=8)
    assert a.compute_s == b.compute_s
    assert a.compute_s != c.compute_s


def test_straggler_noise_is_small():
    cm = ComputeModel(DEFAULT_CALIBRATION)
    base = cm.task_timing(1e9, 1, 16, 0.0, task_index=0).compute_s
    for idx in range(100):
        t = cm.task_timing(1e9, 1, 16, 0.0, task_index=idx).compute_s
        assert abs(t / base - 1.0) < 0.12


def test_no_noise_when_sigma_zero():
    cal = Calibration(straggler_sigma=0.0)
    cm = ComputeModel(cal)
    assert cm._straggler_noise(3) == 1.0


def test_omp_thread_speedup_bends_with_contention(cm):
    s8 = cm.omp_thread_speedup(8, 1.0)
    s16 = cm.omp_thread_speedup(16, 1.0)
    assert 5.0 < s8 < 8.0
    assert 8.5 < s16 < 12.0  # the paper's OmpThread-16 is far below 16x
    assert s16 > s8


def test_compute_bound_threads_scale_nearly_linearly(cm):
    s16 = cm.omp_thread_speedup(16, 0.05)
    assert s16 > 14.0


def test_omp_thread_validation(cm):
    with pytest.raises(ValueError):
        cm.omp_thread_time(1e9, 0, 1.0)


# --------------------------------------------------------------------- comm
# The host hop's one price, as the cloud device charges it: the staging codec
# decides and times the gzip, the calibrated WAN link moves the wire bytes.
WAN = DEFAULT_CALIBRATION.wan_link()


def _buffers(nbytes=100 * 2**20, density=1.0, k=2):
    return [Buffer(f"b{i}", length=nbytes // 4, density=density)
            for i in range(k)]


def _codec(enabled=True):
    return StagingCodec(enabled, 1 << 20)  # the device's default threshold


def _upload_s(codec, buffers):
    """Slowest buffer's deflate (one thread each), then one stream each."""
    return (max(codec.seconds(b, up=True) for b in buffers)
            + WAN.parallel_transfer_time([codec.wire_size(b) for b in buffers]))


def test_upload_compresses_then_transfers():
    codec, buffers = _codec(), _buffers()
    wire = [codec.wire_size(b) for b in buffers]
    assert all(codec.seconds(b, up=True) > 0 for b in buffers)
    assert WAN.parallel_transfer_time(wire) > 0
    assert sum(wire) < sum(b.nbytes for b in buffers)


def test_download_mirrors_upload():
    codec = _codec()
    for b in _buffers():
        assert 0 < codec.seconds(b, up=False) < codec.seconds(b, up=True)


def test_sparse_data_cheaper_than_dense():
    codec = _codec()
    dense, sparse = _buffers(density=1.0), _buffers(density=0.05)
    assert _upload_s(codec, sparse) < _upload_s(codec, dense) / 2
    assert (sum(codec.wire_size(b) for b in sparse)
            < sum(codec.wire_size(b) for b in dense))


def test_compression_disabled_sends_raw():
    codec = _codec(enabled=False)
    for b in _buffers():
        assert codec.wire_size(b) == b.nbytes
        assert codec.seconds(b, up=True) == 0.0


def test_parallel_streams_beat_serial():
    codec = _codec()
    wire = [codec.wire_size(b) for b in _buffers(k=4)]
    assert WAN.parallel_transfer_time(wire) < WAN.serial_transfer_time(wire)


def test_small_buffers_skip_the_codec():
    codec = _codec()
    tiny = Buffer("t", length=256)
    assert codec.wire_size(tiny) == 1024
    assert codec.seconds(tiny, up=True) == 0.0
    assert codec.key("in/t", tiny.nbytes) == "in/t.bin"


def test_empty_upload_is_free():
    assert WAN.parallel_transfer_time([]) == 0.0


def test_negative_plan_rejected():
    with pytest.raises(ValueError):
        Buffer("x", length=-1)


def test_compression_ratio_property():
    codec, buffers = _codec(), _buffers()
    wire = sum(codec.wire_size(b) for b in buffers)
    assert wire / sum(b.nbytes for b in buffers) == pytest.approx(
        DENSE_MODEL.ratio, rel=0.01)
