"""Self-check: the benchmark's peak-RSS reading follows a known allocation.

    python3 perfbench/memcheck.py

Two fresh child processes read ``VmHWM`` the way every workload does
(:func:`workloads.vm_hwm_mb`):

1. a child that allocates and writes a ``BLOCK_MB`` block must see its
   reading grow by at least 90% of the block;
2. a child started by this process while it holds a ``PARENT_MB`` block, and
   allocating nothing itself, must read well under that block.  ``ru_maxrss``
   carries the parent's high-water mark across fork+exec on Linux, which is
   why the benchmark does not use it; its value is printed for comparison.

Exits 0 when both hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLOCK_MB = 128
PARENT_MB = 256

CHILD = """
import json, resource, sys
sys.path.insert(0, {here!r})
from workloads import vm_hwm_mb
before = vm_hwm_mb()
block = b"\\x01" * ({mb} * 2**20)
print(json.dumps({{"before": before, "after": vm_hwm_mb(),
                  "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def child(mb: int) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD.format(here=str(HERE), mb=mb)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    grown = child(BLOCK_MB)
    moved = grown["after"] - grown["before"]
    print(f"child allocating {BLOCK_MB} MB: VmHWM {grown['before']:.1f} -> "
          f"{grown['after']:.1f} MB (+{moved:.1f})")
    parent_block = b"\x01" * (PARENT_MB * 2**20)
    idle = child(0)
    print(f"idle child of a parent holding {len(parent_block) >> 20} MB: VmHWM "
          f"{idle['after']:.1f} MB, ru_maxrss {idle['ru_maxrss_mb']:.1f} MB")
    ok = moved >= 0.9 * BLOCK_MB and idle["after"] < PARENT_MB / 2
    print("memory self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
