"""Unit conversion helpers.

The paper quotes object bandwidths in megabits per second (Mb/s) but all of
its equations use megabytes per second (MB/s), track sizes in kilobytes, and
timings in milliseconds.  Mixing these silently is the single easiest way to
get every downstream number wrong, so this module provides one tiny, explicit
vocabulary used throughout the package:

* canonical data unit: **megabyte (MB)**, decimal (1 MB = 1000 KB), matching
  the paper's arithmetic (B = 50 KB = 0.05 MB).
* canonical time unit: **second**.
* canonical rate unit: **MB/s**.

Example
-------
>>> mbits_per_sec(1.5)
0.1875
>>> kilobytes(50)
0.05
"""

from __future__ import annotations

BITS_PER_BYTE = 8

#: Hours in a (non-leap) year; used by the paper's reliability numbers
#: (e.g. 2.25e8 hours -> 25,684.9 years).
HOURS_PER_YEAR = 8760.0


def mbits_per_sec(value_mbps: float) -> float:
    """Convert megabits/second to megabytes/second.

    >>> mbits_per_sec(4.5)
    0.5625
    """
    return value_mbps / BITS_PER_BYTE


def kilobytes(value_kb: float) -> float:
    """Convert (decimal) kilobytes to megabytes.

    The paper uses decimal units: 50 KB tracks are 0.05 MB.
    """
    return value_kb / 1000.0


def megabytes(value_mb: float) -> float:
    """Identity helper so call sites can name their unit explicitly."""
    return float(value_mb)


def mb_to_bytes(value_mb: float) -> int:
    """Convert (decimal) megabytes to whole bytes.

    >>> mb_to_bytes(0.05)
    50000
    """
    return int(round(value_mb * 1_000_000))


def bytes_to_mb(value_bytes: float) -> float:
    """Convert whole bytes to (decimal) megabytes.

    >>> bytes_to_mb(50000)
    0.05
    """
    return value_bytes / 1_000_000


def gigabytes(value_gb: float) -> float:
    """Convert (decimal) gigabytes to megabytes."""
    return value_gb * 1000.0


def milliseconds(value_ms: float) -> float:
    """Convert milliseconds to seconds.

    >>> milliseconds(25)
    0.025
    """
    return value_ms / 1000.0


def seconds(value_s: float) -> float:
    """Identity helper so call sites can name their unit explicitly."""
    return float(value_s)


def minutes(value_min: float) -> float:
    """Convert minutes to seconds."""
    return value_min * 60.0


def hours(value_h: float) -> float:
    """Convert hours to seconds."""
    return value_h * 3600.0


def seconds_to_microseconds(value_s: float) -> float:
    """Convert seconds to microseconds (per-cycle timing reports).

    >>> seconds_to_microseconds(0.002)
    2000.0
    """
    return value_s * 1_000_000


def seconds_to_hours(value_s: float) -> float:
    """Convert seconds to hours (for human-facing report lines).

    >>> seconds_to_hours(7200)
    2.0
    """
    return value_s / 3600.0


def hours_to_years(value_h: float) -> float:
    """Convert hours to years, as the paper's reliability tables do.

    >>> round(hours_to_years(2.25e8), 1)
    25684.9
    """
    return value_h / HOURS_PER_YEAR


def years_to_hours(value_y: float) -> float:
    """Convert years to hours."""
    return value_y * HOURS_PER_YEAR
