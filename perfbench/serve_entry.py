"""Start ``repro serve`` on a free local port, optionally traced.

    python3 perfbench/serve_entry.py [--trace]

The serve_2k workload starts its daemon through this file so that a traced
run can install the benchmark's span wrappers in the daemon process too.  The
daemon prints ``serving on http://127.0.0.1:<port>`` once it listens; with
``--trace`` it prints one ``SPANS <json>`` line after ``POST /shutdown``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    tracer = None
    if "--trace" in sys.argv[1:]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.api.cli import main as cli_main

    code = cli_main(["serve", "--port", "0"])
    if tracer is not None:
        print("SPANS " + tracer.dump(), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
