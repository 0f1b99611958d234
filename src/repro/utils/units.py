"""Unit helpers: byte sizes, time, area, and formatting for reports."""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MBPS = 1e6 / 8.0  # megabits/s expressed in bytes/s
GBPS = 1e9 / 8.0  # gigabits/s expressed in bytes/s


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (binary units)."""
    for unit, width in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if abs(n) >= width:
            return f"{n / width:.2f} {unit}"
    return f"{n:.0f} B"


def fmt_seconds(t: float) -> str:
    """Human-readable duration."""
    if t >= 1.0:
        return f"{t:.3f} s"
    if t >= 1e-3:
        return f"{t * 1e3:.2f} ms"
    if t >= 1e-6:
        return f"{t * 1e6:.2f} us"
    return f"{t * 1e9:.1f} ns"


def fmt_ratio(x: float) -> str:
    """Render a speedup like the paper (e.g. '39.26x')."""
    return f"{x:.2f}x"
