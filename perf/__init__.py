"""Host-time benchmark of the offloading stack (see perf/README.md)."""
