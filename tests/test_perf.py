"""repro.perf: the peak-RSS reading belongs to one process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import peak_rss_bytes

SRC_DIRECTORY = Path(__file__).resolve().parents[1] / "src"

#: Size of the buffer the test process holds while it spawns the child.
PARENT_BYTES = 256 * 2**20


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM needs /proc (Linux)")
def test_child_does_not_inherit_the_parents_peak():
    # ru_maxrss survives fork+exec on Linux, so a child spawned by a large
    # parent would report the parent's peak; VmHWM starts over at exec.
    held = b"\x01" * PARENT_BYTES  # every page written, so it is resident
    try:
        assert peak_rss_bytes() >= PARENT_BYTES
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(SRC_DIRECTORY) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.perf import peak_rss_bytes; print(peak_rss_bytes())"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
    finally:
        del held
    child_peak = int(result.stdout.strip())
    assert 0 < child_peak < PARENT_BYTES
