"""Network cost models: host<->cloud WAN, intra-cluster LAN, broadcast.

The paper's experiments place the host laptop "far away from the cloud
data-center", so the WAN link is slow and high-latency, while the cluster's
internal 10 GbE fabric is fast.  Two effects the paper leans on are modelled
explicitly:

* **Parallel upload streams** — the cloud plugin spawns one thread per mapped
  buffer.  A single TCP stream over a long fat network rarely saturates the
  path (window/RTT limits), so per-stream throughput is capped; ``k`` parallel
  streams achieve ``min(k * stream_cap, capacity)``.
* **BitTorrent broadcast** — Spark's TorrentBroadcast splits a variable into
  chunks that workers re-seed to each other, so broadcast time grows
  logarithmically with the number of nodes instead of linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    """A point-to-point link with a fluid-flow cost model.

    ``capacity_bps`` is the total usable bandwidth in *bytes* per second;
    ``latency_s`` is the one-way setup cost charged once per transfer;
    ``stream_cap_bps`` caps what one TCP stream can extract from the path.
    """

    capacity_bps: float
    latency_s: float
    stream_cap_bps: float | None = None

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bps!r}")
        if self.latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_s!r}")
        if self.stream_cap_bps is not None and self.stream_cap_bps <= 0:
            raise ValueError(f"stream cap must be positive, got {self.stream_cap_bps!r}")

    def effective_bandwidth(self, streams: int = 1) -> float:
        """Aggregate throughput achieved by ``streams`` concurrent streams."""
        if streams < 1:
            raise ValueError(f"need at least one stream, got {streams}")
        if self.stream_cap_bps is None:
            return self.capacity_bps
        return min(streams * self.stream_cap_bps, self.capacity_bps)

    def transfer_time(self, nbytes: int, streams: int = 1) -> float:
        """Seconds to move ``nbytes`` split evenly over ``streams`` streams."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if nbytes == 0:
            return self.latency_s
        return self.latency_s + nbytes / self.effective_bandwidth(streams)

    def serial_transfer_time(self, sizes: list[int]) -> float:
        """Seconds to move each buffer one after the other on a single stream."""
        return sum(self.transfer_time(n, streams=1) for n in sizes)

    def parallel_transfer_time(self, sizes: list[int]) -> float:
        """Seconds to move all buffers concurrently, one stream per buffer.

        Uses progressive filling: while ``k`` streams are active each runs at
        ``effective_bandwidth(k)/k``; as short transfers finish, the survivors
        speed up (if the path, not the stream cap, was the bottleneck).
        """
        remaining = sorted(float(n) for n in sizes if n > 0)
        if not remaining:
            return self.latency_s if sizes else 0.0
        t = self.latency_s
        while remaining:
            k = len(remaining)
            per_stream = self.effective_bandwidth(k) / k
            # Time until the smallest remaining transfer drains.
            dt = remaining[0] / per_stream
            t += dt
            drained = per_stream * dt
            remaining = [r - drained for r in remaining[1:] if r - drained > 1e-9]
        return t


class NetworkModel:
    """The two links of an offload run plus collective-operation costs."""

    def __init__(self, wan: Link, lan: Link) -> None:
        self.wan = wan
        self.lan = lan
        # (nbytes, streams) -> seconds.  Link.transfer_time is pure, and the
        # scheduler asks for the same handful of payload sizes millions of
        # times per large job; bounded so pathological size diversity cannot
        # grow it without limit.
        self._lan_memo: dict[tuple[int, int], float] = {}

    def lan_transfer_time(self, nbytes: int, streams: int = 1) -> float:
        """Point-to-point transfer inside the cluster."""
        memo = self._lan_memo
        key = (nbytes, streams)
        t = memo.get(key)
        if t is None:
            if len(memo) >= 4096:
                memo.clear()
            t = memo[key] = self.lan.transfer_time(nbytes, streams=streams)
        return t

    def broadcast_time(self, nbytes: int, n_nodes: int, bittorrent: bool = True) -> float:
        """Send one ``nbytes`` variable to every node.

        With BitTorrent-style re-seeding the pipeline cost is one data
        traversal plus a log-depth start-up; the naive fallback pays one full
        copy per node out of the driver.
        """
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        if nbytes == 0:
            return 0.0
        if bittorrent:
            depth = math.ceil(math.log2(n_nodes + 1))
            return depth * self.lan.latency_s + nbytes / self.lan.capacity_bps
        return n_nodes * (self.lan.latency_s + nbytes / self.lan.capacity_bps)
