"""Small, dependency-free process-measurement helpers.

One fact lives here so every consumer agrees on it: how to read this
process's peak resident-set size.  :func:`peak_rss_bytes` is what the scale
benchmark's bytes-per-net ceiling and :class:`repro.api.report.RunInfo`'s
``peak_rss_bytes`` field share, instead of re-deriving the platform rules.

On Linux it reads ``VmHWM`` from ``/proc/self/status``.  That high-water mark
belongs to one address space and starts over at exec.  ``ru_maxrss`` does
not: Linux carries it from a parent into a child across fork+exec, so a
benchmark child spawned by a large test runner would report the runner's
peak, not its own.  Where ``/proc`` does not exist, the fallback is
``resource.getrusage(RUSAGE_SELF).ru_maxrss``, which is in kilobytes
everywhere except macOS, where it is in bytes.  The ``resource`` module does
not exist on Windows.

Peak RSS is still a process-lifetime high-water mark: it only ever grows, so
a measurement inside a long-lived process (a test runner, a session) reflects
everything that ran before it.  Callers that need the footprint of one
workload should measure a baseline first and report the delta, or, like the
scale benchmark, run the workload in a fresh subprocess.
"""

from __future__ import annotations

import sys
from typing import Optional

__all__ = ["peak_rss_bytes"]


def _vm_hwm_bytes() -> Optional[int]:
    """``VmHWM`` of this process in bytes, or None without ``/proc``."""
    try:
        with open("/proc/self/status", "rb") as status:
            data = status.read()
    except OSError:
        return None
    start = data.find(b"VmHWM:")
    if start < 0:
        return None
    return int(data[start + 6:data.index(b"kB", start)]) * 1024


def peak_rss_bytes() -> Optional[int]:
    """The process's peak resident-set size in bytes, or None when unknown.

    Reads ``VmHWM`` from ``/proc/self/status`` where it exists (Linux).
    Elsewhere it falls back to ``resource.getrusage(RUSAGE_SELF).ru_maxrss``
    with the platform-correct unit (kilobytes, except macOS where the kernel
    reports bytes), and returns None on platforms without the ``resource``
    module (Windows) instead of raising.
    """
    peak = _vm_hwm_bytes()
    if peak is not None:
        return peak
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(peak)
    return int(peak) * 1024
