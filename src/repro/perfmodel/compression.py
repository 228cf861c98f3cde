"""gzip compression: the real thing and the analytic model.

The OmpCloud plugin compresses each mapped buffer before upload "if the data
size is larger than a predefined minimal compression size", and the paper's
sparse/dense experiment shows compressibility dominating the communication
phases.  Functional runs use real zlib (gzip's deflate); modeled runs at
1 GB scale use :class:`CompressionModel`, whose dense/sparse instances were
fitted by running zlib on synthetic float32 matrices.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: gzip level the plugin uses: fast, streaming-friendly.
GZIP_LEVEL = 1


def gzip_compress(data: bytes, level: int = GZIP_LEVEL) -> bytes:
    """Deflate ``data`` (zlib container; the 'gzip' of the paper's plugin)."""
    return zlib.compress(data, level)


def gzip_decompress(data: bytes) -> bytes:
    return zlib.decompress(data)


def measure_ratio(data: bytes, level: int = GZIP_LEVEL) -> float:
    """Compressed/raw size ratio of ``data`` (1.0 for empty input)."""
    if not data:
        return 1.0
    return len(gzip_compress(data, level)) / len(data)


@dataclass(frozen=True)
class CompressionModel:
    """Analytic stand-in for gzip on one class of data.

    ``ratio`` is compressed/raw; throughputs are raw bytes per second on one
    core.  Which buffers are gzip'd at all is the staging codec's
    minimal-compression-size rule (:class:`repro.core.transfer.StagingCodec`).
    """

    name: str
    ratio: float
    compress_bps: float
    decompress_bps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio!r}")
        if self.compress_bps <= 0 or self.decompress_bps <= 0:
            raise ValueError("throughputs must be positive")

    def compressed_size(self, nbytes: int) -> int:
        """Wire size of an ``nbytes`` buffer once gzip'd."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes!r}")
        return int(round(nbytes * self.ratio))

    def compress_time(self, nbytes: int) -> float:
        """Seconds to compress ``nbytes`` on one core."""
        return nbytes / self.compress_bps

    def decompress_time(self, nbytes: int) -> float:
        return nbytes / self.decompress_bps


#: Fitted on np.float32 uniform noise: deflate-1 barely dents it.
DENSE_MODEL = CompressionModel("dense", ratio=0.92, compress_bps=60e6, decompress_bps=250e6)
#: Fitted on 95%-zero float32 matrices: long zero runs deflate beautifully.
SPARSE_MODEL = CompressionModel("sparse", ratio=0.08, compress_bps=200e6, decompress_bps=500e6)


def model_for_density(density: float) -> CompressionModel:
    """Interpolate between the sparse and dense fits by nonzero density.

    ``density`` is the fraction of nonzero elements; the paper's two regimes
    are density ~1.0 (dense) and ~0.05 (sparse).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density!r}")
    lo, hi = SPARSE_MODEL, DENSE_MODEL
    # Piecewise-linear in density anchored at the two fitted points.
    lo_d, hi_d = 0.05, 1.0
    w = min(1.0, max(0.0, (density - lo_d) / (hi_d - lo_d)))
    return CompressionModel(
        name=f"density-{density:.2f}",
        ratio=lo.ratio + w * (hi.ratio - lo.ratio),
        compress_bps=lo.compress_bps + w * (hi.compress_bps - lo.compress_bps),
        decompress_bps=lo.decompress_bps + w * (hi.decompress_bps - lo.decompress_bps),
    )


def fit_model_from_sample(arr: np.ndarray, name: str = "fitted") -> CompressionModel:
    """Fit a model's *ratio* by actually deflating (a sample of) ``arr``.

    Throughputs stay at the calibrated dense values — wall-clock measurements
    on the test machine would not transfer to the paper's hardware.
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    sample = flat[: min(flat.size, 1 << 20)]
    ratio = measure_ratio(sample.tobytes())
    return CompressionModel(
        name=name,
        ratio=max(1e-6, min(1.0, ratio)),
        compress_bps=DENSE_MODEL.compress_bps,
        decompress_bps=DENSE_MODEL.decompress_bps,
    )
