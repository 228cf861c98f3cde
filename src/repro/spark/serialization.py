"""The JVM array ceiling.

Spark ships data between driver and executors as byte arrays; OmpCloud loads
each mapped buffer "as ByteArray objects".  Java arrays are indexed by
``int``, so a single array tops out just below 2^31 elements — the paper hits
exactly this wall: "we were limited by the maximal size of the arrays
supported by the Java Virtual Machine".  :func:`check_jvm_array_limit` makes
that failure mode explicit in the reproduction.
"""

from __future__ import annotations

#: Largest byte[] a HotSpot JVM will allocate (Integer.MAX_VALUE - 8 header words).
JVM_MAX_ARRAY_BYTES = 2**31 - 16


class JavaArrayLimitError(Exception):
    """A single buffer exceeds what a JVM byte[] can hold."""


def check_jvm_array_limit(nbytes: int, what: str = "buffer") -> None:
    """Raise :class:`JavaArrayLimitError` if ``nbytes`` exceeds the JVM cap."""
    if nbytes > JVM_MAX_ARRAY_BYTES:
        raise JavaArrayLimitError(
            f"{what} is {nbytes} bytes; the JVM cannot allocate arrays over "
            f"{JVM_MAX_ARRAY_BYTES} bytes (the paper's experiments hit the same limit)"
        )
