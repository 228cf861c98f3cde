"""Compression: real zlib round-trips and the analytic model."""

import numpy as np
import pytest

from repro.core.buffers import Buffer
from repro.core.transfer import StagingCodec
from repro.perfmodel.compression import (
    DENSE_MODEL,
    SPARSE_MODEL,
    CompressionModel,
    fit_model_from_sample,
    gzip_compress,
    gzip_decompress,
    measure_ratio,
    model_for_density,
)


def test_roundtrip_identity():
    data = bytes(range(256)) * 100
    assert gzip_decompress(gzip_compress(data)) == data


def test_sparse_float32_compresses_much_better_than_dense():
    rng = np.random.default_rng(0)
    dense = rng.uniform(-1, 1, 100_000).astype(np.float32)
    sparse = np.zeros(100_000, dtype=np.float32)
    idx = rng.choice(100_000, size=5_000, replace=False)
    sparse[idx] = rng.uniform(-1, 1, 5_000).astype(np.float32)
    r_dense = measure_ratio(dense.tobytes())
    r_sparse = measure_ratio(sparse.tobytes())
    assert r_sparse < 0.35
    assert r_dense > 0.8
    assert r_sparse < r_dense / 2


def test_measured_ratios_justify_model_constants():
    """The fitted DENSE/SPARSE models should bracket real zlib behaviour."""
    rng = np.random.default_rng(1)
    dense = rng.uniform(-1, 1, 200_000).astype(np.float32)
    assert abs(measure_ratio(dense.tobytes()) - DENSE_MODEL.ratio) < 0.1


def test_empty_input_ratio_is_one():
    assert measure_ratio(b"") == 1.0


def test_model_threshold_sends_small_buffers_raw():
    """The staging codec holds the one threshold: below it a buffer is
    stored raw and pays no codec time."""
    codec, small = StagingCodec(True, 1000), Buffer("s", length=25)
    assert codec.wire_size(small) == 100
    assert codec.seconds(small, up=True) == 0.0
    assert codec.seconds(small, up=False) == 0.0


def test_model_compresses_above_threshold():
    m = CompressionModel("half", ratio=0.5, compress_bps=100.0, decompress_bps=200.0)
    assert m.compressed_size(1000) == 500
    assert m.compress_time(1000) == pytest.approx(10.0)
    assert m.decompress_time(1000) == pytest.approx(5.0)
    codec, large = StagingCodec(True, 10), Buffer("l", length=250)
    assert codec.wire_size(large) == DENSE_MODEL.compressed_size(1000)
    assert codec.seconds(large, up=True) == DENSE_MODEL.compress_time(1000)


def test_model_validation():
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=0.0, compress_bps=1.0, decompress_bps=1.0)
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=1.5, compress_bps=1.0, decompress_bps=1.0)
    with pytest.raises(ValueError):
        CompressionModel("bad", ratio=0.5, compress_bps=0.0, decompress_bps=1.0)
    with pytest.raises(ValueError):
        DENSE_MODEL.compressed_size(-1)


def test_model_for_density_endpoints():
    assert model_for_density(1.0).ratio == pytest.approx(DENSE_MODEL.ratio)
    assert model_for_density(0.05).ratio == pytest.approx(SPARSE_MODEL.ratio)
    assert model_for_density(0.0).ratio == pytest.approx(SPARSE_MODEL.ratio)


def test_model_for_density_monotone():
    ratios = [model_for_density(d).ratio for d in (0.05, 0.2, 0.5, 0.8, 1.0)]
    assert ratios == sorted(ratios)
    with pytest.raises(ValueError):
        model_for_density(1.5)


def test_sparse_model_faster_and_smaller():
    assert SPARSE_MODEL.ratio < DENSE_MODEL.ratio
    assert SPARSE_MODEL.compress_bps > DENSE_MODEL.compress_bps


def test_fit_model_from_sample_tracks_data():
    rng = np.random.default_rng(2)
    dense = rng.uniform(-1, 1, 50_000).astype(np.float32)
    zeros = np.zeros(50_000, dtype=np.float32)
    assert fit_model_from_sample(dense).ratio > 0.7
    assert fit_model_from_sample(zeros).ratio < 0.05
