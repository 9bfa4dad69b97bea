"""Regenerate ``pinned.json``: the values the output checks compare against.

    python3 perfbench/make_pinned.py

* ``reference``: the stages of the first ``REFERENCE_CHAINS`` chains of one
  ``cold_solve`` pass drawn from the fixed ``REFERENCE_SEED`` (never from
  ``--seed``), with the far-end 50% delay and 10-90% slew of each stage from
  :class:`repro.experiments.ReferenceSimulator`.  That simulator is the
  repository's own transistor-level simulation of the driver, the pi-segment
  line ladder and the load; it stands in for the HSPICE runs of the paper.
  Input slews are the ones the program solved each stage at.
* ``soc100k``: the worst endpoint arrival and the critical path of the 100k
  SoC, which every clock the seed draws shares.

Takes about a minute; the reference simulations dominate.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

REFERENCE_SEED = 2003
REFERENCE_CHAINS = 4


def reference_stages():
    from repro.api import TimingSession
    from repro.experiments import ReferenceSimulator
    from workloads import STAGES_PER_CHAIN, cold_pass_graph

    graph = cold_pass_graph(random.Random(REFERENCE_SEED))
    simulator = ReferenceSimulator()
    stages = []
    with TimingSession() as session:
        report = session.time(graph)
    for c in range(REFERENCE_CHAINS):
        for s in range(STAGES_PER_CHAIN):
            net = graph.nets[f"c{c}s{s}"]
            (event,) = report.events[net.name].values()
            result = simulator.simulate(net.driver_size, event.input_slew, net.line,
                                        event.load_capacitance,
                                        transition=event.output_transition)
            stages.append({
                "net": net.name, "driver_size": net.driver_size,
                "input_slew": event.input_slew, "resistance": net.line.resistance,
                "inductance": net.line.inductance,
                "capacitance": net.line.capacitance, "length": net.line.length,
                "load_capacitance": event.load_capacitance,
                "transition": event.output_transition,
                "far_delay": result.far_delay(), "far_slew": result.far_slew(),
            })
            print(f"  {net.name}: {net.driver_size:g}X {net.line.length * 1e3:.3f} mm "
                  f"far delay {result.far_delay() * 1e12:.2f} ps", file=sys.stderr)
    return stages


def soc_pins():
    from repro.api import TimingSession
    from repro.experiments import soc_graph
    from repro.units import ps
    from workloads import Soc100k

    clock = ps(700.0)
    graph = soc_graph(Soc100k.nets)
    graph.set_clock_period(clock)
    with TimingSession() as session:
        report = session.time(graph)
        return {
            "nets": Soc100k.nets,
            "worst_arrival": clock - report.worst_slack,
            "critical_path": [[e.net, e.input_transition]
                              for e in report.critical_events()],
        }


def main() -> None:
    pinned = {
        "reference": {
            "seed": REFERENCE_SEED,
            "simulator": "repro.experiments.ReferenceSimulator: transistor-level "
                         "driver + pi-segment ladder, standing in for HSPICE",
            "stages": reference_stages(),
        },
        "soc100k": soc_pins(),
    }
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
