"""The four benchmark workloads.

Each workload is closed loop: one caller issues its next operation only after
the previous one returned.  Inputs come from ``random.Random(seed)``; the
program sees only the generated designs, edits and requests.  A workload
object is built fresh for every set-up, so each set-up starts from the same
seed and the same state.

* ``soc100k``: warm full re-analysis of the 100k-net SoC plus the answers a
  user reads.  ``repro.sta.compiled`` does nearly all the work; the solver
  answers ~32 memo hits per pass.
* ``cold_solve``: small repeatered-chain designs, each timed in a fresh
  session, so nearly every stage is a distinct solve.  The solver layers
  (moments, far-end kernels, Ceff) do nearly all the work.
* ``eco100k``: what-if edits on the attached 100k SoC through
  ``TimingSession.update``: dirty-cone re-timing, in-place patching and
  report reuse, with a continuous-load edit one trial in five that forces
  fresh solves.
* ``serve_2k``: a ``repro serve`` daemon in its own process with the 2k-net
  SoC attached, driven over one keep-alive connection by mostly reads and a
  few resize-and-revert edit batches.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Clock periods drawn per seed [ps]: below the SoC's ~834 ps worst arrival,
#: so WNS is negative and every read of it carries information.
CLOCK_PS = (600.0, 800.0)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` [MB].

    ``VmHWM`` belongs to one address space and starts over at exec, unlike
    ``ru_maxrss``, which a child inherits from its parent across fork+exec.
    ``ru_maxrss`` is the fallback only where ``/proc`` does not exist.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        import resource

        who = resource.RUSAGE_SELF if pid == "self" else resource.RUSAGE_CHILDREN
        peak = resource.getrusage(who).ru_maxrss
        return peak / 2**20 if sys.platform == "darwin" else peak / 1024
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


class Workload:
    """Set-up, one closed-loop operation at a time, then output checks."""

    name = ""
    #: Printed names of this workload's throughput and latency figures.
    throughput_name = ""
    latency_name = ""

    def __init__(self, seed: "int | str", tracer: Optional[Tracer] = None) -> None:
        self.rng = random.Random(seed)
        self.tracer = tracer
        #: (start, seconds, work, is a latency sample, label) per operation
        self.timed: List[Tuple[float, float, float, bool, str]] = []
        self.checks_run = 0
        self.checks_failed = 0
        self.canaries: Dict[str, bool] = {}
        self.remote_spans: List[list] = []
        self.remote_counts: List[list] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def check(self, ok: bool) -> None:
        self.checks_run += 1
        self.checks_failed += not ok

    def record(self, started: float, work: float, sample: bool = True,
               label: str = "") -> None:
        """Log one operation that began at ``started`` and ends now."""
        self.timed.append((started, time.perf_counter() - started, work, sample,
                           label))

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Run the output checks and their canaries (after the timed window)."""

    def close(self) -> None:
        pass

    @property
    def library(self):
        raise NotImplementedError


def _fresh_session():
    """A session that loads the shipped cell library itself (set-up cost)."""
    from repro.api import TimingSession
    from repro.characterization.library import shipped_data_directory

    return TimingSession(library_dir=shipped_data_directory(),
                         use_characterization_cache=False)


class Soc100k(Workload):
    name = "soc100k"
    throughput_name = "sweep_nets_per_s"
    latency_name = "analyze"
    nets = 100_000
    table_rows = (10, 50)

    def setup(self) -> None:
        from repro.experiments import soc_graph
        from repro.units import ps

        self.pinned = checks.load_pinned()["soc100k"]
        self.clock = ps(self.rng.uniform(*CLOCK_PS))
        self.session = _fresh_session()
        self.graph = soc_graph(self.nets)
        self.graph.set_clock_period(self.clock)
        self._answers(self.session.time(self.graph), 1)

    def _answers(self, report, rows: int):
        with self.span("api.report.query"):
            return (report.worst_slack, report.wns,
                    [(e.net, e.slack) for e in report.endpoint_slacks()[:rows]],
                    [(e.net, e.input_transition) for e in report.critical_events()])

    @property
    def library(self):
        return self.session.library

    def step(self) -> None:
        rows = self.rng.randint(*self.table_rows)
        started = time.perf_counter()
        self.answers = self._answers(self.session.time(self.graph), rows)
        self.record(started, len(self.graph))
        self.check(checks.soc_answers_match(self.clock, *self.answers, self.pinned))

    def finish(self) -> None:
        self.canaries.update(checks.soc_canaries(self.clock, *self.answers,
                                                 self.pinned))

    def close(self) -> None:
        self.session.close()
        self.graph = self.session = None


# --- cold_solve ----------------------------------------------------------------------

#: The cold_solve generator: repeatered chains in the paper's regime.
CHAINS_PER_PASS = 4
STAGES_PER_CHAIN = 3
LENGTH_MM = (1.0, 4.0)
DRIVER_SIZES = (75.0, 100.0, 125.0)
ROOT_SLEW_PS = (50.0, 200.0)
RECEIVER_SIZE = 50.0


def line_of_length(length_mm: float):
    """A global wire of ``length_mm`` with the 1 mm standard flavor's R/L/C per mm."""
    from repro.interconnect.rlc_line import RLCLine
    from repro.units import mm, nH, pF

    return RLCLine(resistance=20.0 * length_mm, inductance=nH(1.05 * length_mm),
                   capacitance=pF(0.22 * length_mm), length=mm(length_mm))


def cold_pass_graph(rng: random.Random, chains: int = CHAINS_PER_PASS):
    """One pass's design: ``chains`` chains of distinct stages.

    Line lengths are stratified over ``LENGTH_MM`` (one draw per equal-width
    bin, shuffled), so every pass carries the same mix of short and long
    lines and pass cost depends little on the seed.
    """
    from repro.sta.graph import GraphNet, PrimaryInput, TimingGraph
    from repro.units import ps

    n = chains * STAGES_PER_CHAIN
    lo, hi = LENGTH_MM
    lengths = [round(lo + (hi - lo) * (k + rng.random()) / n, 4) for k in range(n)]
    rng.shuffle(lengths)
    nets, inputs = [], {}
    for c in range(chains):
        names = [f"c{c}s{s}" for s in range(STAGES_PER_CHAIN)]
        for s, name in enumerate(names):
            last = s == STAGES_PER_CHAIN - 1
            nets.append(GraphNet(
                name, rng.choice(DRIVER_SIZES),
                line_of_length(lengths[c * STAGES_PER_CHAIN + s]),
                fanout=() if last else (names[s + 1],),
                receiver_size=RECEIVER_SIZE if last else None))
        inputs[names[0]] = PrimaryInput(slew=ps(rng.uniform(*ROOT_SLEW_PS)),
                                        transition=rng.choice(("rise", "fall")))
    return TimingGraph(nets, inputs)


def lane_of(event) -> Dict[str, float]:
    return {name: getattr(event, name) for name in checks.LANE_FIELDS}


class ColdSolve(Workload):
    name = "cold_solve"
    throughput_name = "solves_per_s"
    latency_name = "cold_pass"

    def setup(self) -> None:
        from repro.api import TimingSession
        from repro.characterization.library import default_library

        self._library = default_library()
        self.sampled: List[tuple] = []  #: (design, one solved event) per pass
        # One chain of a fixed design finishes the solver's lazy imports and
        # first-use costs before timing; the seed's stream is untouched.
        with TimingSession() as session:
            session.time(cold_pass_graph(random.Random(0), chains=1))

    @property
    def library(self):
        return self._library

    def step(self) -> None:
        from repro.api import TimingSession

        rng = self.rng
        graph = cold_pass_graph(rng)
        pick = rng.random()
        started = time.perf_counter()
        with TimingSession() as session:
            report = session.time(graph)
            with self.span("api.report.query"):
                worst = report.worst_event()
                events = sorted((e for per_net in report.events.values()
                                 for e in per_net.values()),
                                key=lambda e: (e.net, e.input_transition))
        self.record(started, report.meta.computed)
        self.check(worst.output_arrival > 0)
        self.sampled.append((graph, events[int(pick * len(events))]))

    def _oracle_lane(self, graph, event):
        """(batched lane, scalar ``solve_stage`` oracle) for one solved event."""
        from repro.core.driver_model import ModelingOptions
        from repro.core.stage_solver import solve_stage

        net = graph.nets[event.net]
        oracle = solve_stage(self._library.get(net.driver_size), event.input_slew,
                             net.line, event.load_capacitance,
                             options=ModelingOptions(transition=event.output_transition))
        return lane_of(event), lane_of(oracle)

    def finish(self) -> None:
        """Each pass's sampled lane against the scalar oracle (after the window)."""
        for graph, event in self.sampled:
            lane = self._oracle_lane(graph, event)
            self.check(checks.lane_matches(*lane))
        self.canaries.update(checks.lane_canaries(*lane))


# --- eco100k -------------------------------------------------------------------------

#: Discrete what-if trials a run draws from (``resize_driver`` or
#: ``set_line``).  Set-up applies and reverts each once, so timed ones find
#: their solves memoized: they are sweep-bound.
ECO_VOCABULARY = 4
#: Every fifth trial instead sets a continuous extra load on a fresh seeded
#: net, which forces fresh solves: those trials are solver-bound.
TRIALS_PER_EXTRA_LOAD = 5
EXTRA_LOAD_FF = (1.0, 40.0)


class Eco100k(Workload):
    name = "eco100k"
    throughput_name = "edits_per_s"
    latency_name = "edit"
    nets = 100_000

    def setup(self) -> None:
        from repro.experiments import soc_graph, standard_lines
        from repro.units import ps

        self.clock = ps(self.rng.uniform(*CLOCK_PS))
        self.lines = standard_lines()
        self.block: List[tuple] = []
        self.stages: List[int] = []
        self.session = _fresh_session()
        self.graph = soc_graph(self.nets)
        self.graph.set_clock_period(self.clock)
        self.report = self.session.update(self.graph)
        self._read(self.report, "k0c0s0")
        self.vocabulary = [self._discrete_trial(kind) for kind in
                           ("resize_driver", "set_line") * (ECO_VOCABULARY // 2)]
        for operation, name, value, original in self.vocabulary:
            for target in (value, original):
                getattr(self.graph, operation)(name, target)
                self.report = self.session.update()

    def _read(self, report, name: str) -> None:
        with self.span("api.report.query"):
            report.wns
            report.slack(name)

    @property
    def library(self):
        return self.session.library

    def _chain_net(self):
        """A seeded chain net; stages are dealt evenly from shuffled decks."""
        rng = self.rng
        if not self.stages:
            self.stages = list(range(6))
            rng.shuffle(self.stages)
        name = (f"k{rng.randrange(len(self.graph) // 125)}"
                f"c{rng.randrange(16)}s{self.stages.pop()}")
        return name, self.graph.nets[name]

    def _discrete_trial(self, operation: str):
        """(operation, net, new value, original value) from the discrete vocabulary."""
        name, net = self._chain_net()
        if operation == "resize_driver":
            sizes = [s for s in DRIVER_SIZES if s != net.driver_size]
            return operation, name, self.rng.choice(sizes), net.driver_size
        lines = [line for line in self.lines if line != net.line]
        return operation, name, self.rng.choice(lines), net.line

    def _extra_load_trial(self):
        from repro.units import fF

        name, net = self._chain_net()
        return ("set_extra_load", name, fF(self.rng.uniform(*EXTRA_LOAD_FF)),
                net.extra_load)

    def _draw_edit(self):
        if not self.block:
            self.block = [None] + [self.rng.choice(self.vocabulary)
                                   for _ in range(TRIALS_PER_EXTRA_LOAD - 1)]
            self.rng.shuffle(self.block)
        trial = self.block.pop()
        return trial if trial is not None else self._extra_load_trial()

    def step(self) -> None:
        operation, name, value, original = self._draw_edit()
        for target in (value, original):
            started = time.perf_counter()
            getattr(self.graph, operation)(name, target)
            report = self.session.update()
            self._read(report, name)
            self.record(started, 1)
            self.report = report

    def finish(self) -> None:
        """The incremental state against a fresh full analysis, three times.

        Once after the trials, then after one more seeded edit and after its
        revert, so a cone the update failed to re-time shows even where the
        revert would restore the stale values.
        """
        planes = self._compare(self.report)
        operation, name, value, original = self._extra_load_trial()
        for target in (value, original):
            getattr(self.graph, operation)(name, target)
            planes = self._compare(self.session.update())
        self.canaries.update(checks.eco_canaries(*planes))

    def _compare(self, report):
        incremental = checks.analysis_planes(report.analysis)
        reference = checks.analysis_planes(
            self.session.time(self.graph, compiled=True).analysis)
        self.check(checks.planes_identical(incremental, reference))
        return incremental, reference

    def close(self) -> None:
        self.session.close()
        self.graph = self.session = self.report = None


# --- serve_2k ------------------------------------------------------------------------

SERVE_NETS = 2000
#: One block of requests, shuffled per block so every run carries the same
#: mix: 4% edit batches (alternately apply and revert), 96% reads.
REQUEST_BLOCK = ("edits",) * 2 + ("wns",) * 19 + ("slack",) * 15 + ("events",) * 14
SLACK_LIMITS = (5, 10, 20, 50)
#: Resize-and-revert batches a run draws its edits from.  Set-up applies and
#: reverts each once, so timed edits find their stage solves memoized and
#: the write path costs the same however many edits a window holds.
EDIT_VOCABULARY = 4


class Serve2k(Workload):
    name = "serve_2k"
    throughput_name = "serve_qps"
    latency_name = "serve_read"

    def setup(self) -> None:
        command = [sys.executable, str(HERE / "serve_entry.py")]
        if self.tracer is not None:
            command.append("--trace")
        self.clock_ps = self.rng.uniform(*CLOCK_PS)
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                       cwd=HERE.parent)
        banner = self.server.stdout.readline()
        if not banner.startswith("serving on "):
            self.server.kill()
            self.server.wait()
            raise RuntimeError(f"serve daemon did not start: {banner!r}")
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", int(banner.rsplit(":", 1)[1]), timeout=60)
        status, _ = self._request("POST", "/designs", {
            "name": "soc", "case": "soc", "nets": SERVE_NETS,
            "clock_ps": self.clock_ps})
        if status != 201:
            self.close()
            raise RuntimeError(f"attach answered HTTP {status}")
        self.chain_nets = [f"k{k}c{j}s{s}" for k in range(SERVE_NETS // 125)
                           for j in range(16) for s in range(6)]
        self.pending: Optional[List[dict]] = None
        self.block: List[str] = []
        self.edits_sent: List[List[dict]] = []
        self.log: List[dict] = []
        self.vocabulary = [self._draw_batch() for _ in range(EDIT_VOCABULARY)]
        for batch in self.vocabulary:
            for edits in batch:
                self._exchange("edits", "POST", "/designs/soc/edits", {"edits": edits})

    def _draw_batch(self):
        """(apply, revert) edit lists resizing one or two chain nets."""
        rng = self.rng
        nets = rng.sample(self.chain_nets, rng.randint(1, 2))
        # Chain stages alternate 100X/75X along the chain.
        sizes = [(100.0, 75.0)[int(net[-1]) % 2] for net in nets]
        apply = [{"op": "resize_driver", "net": net,
                  "driver_size": rng.choice([s for s in DRIVER_SIZES if s != size])}
                 for net, size in zip(nets, sizes)]
        revert = [{"op": "resize_driver", "net": net, "driver_size": size}
                  for net, size in zip(nets, sizes)]
        return apply, revert

    def _request(self, method: str, path: str, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def _exchange(self, kind: str, method: str, path: str, payload=None) -> None:
        """One logged request: the log feeds the ``seq`` and replay checks."""
        status, body = self._request(method, path, payload)
        entry = {"kind": kind, "status": status, "seq": body.get("seq")}
        if kind == "edits":
            self.edits_sent.append(payload["edits"])
            entry.update(wns=body.get("wns"), worst_slack=body.get("worst_slack"))
        self.log.append(entry)
        self.check(200 <= status < 300)

    def _next_request(self):
        rng = self.rng
        if not self.block:
            self.block = list(REQUEST_BLOCK)
            rng.shuffle(self.block)
        kind = self.block.pop()
        if kind == "edits":
            if self.pending is None:
                edits, self.pending = rng.choice(self.vocabulary)
            else:
                edits, self.pending = self.pending, None
            return kind, "POST", "/designs/soc/edits", {"edits": edits}
        if kind == "slack":
            return kind, "GET", f"/designs/soc/slack?limit={rng.choice(SLACK_LIMITS)}", None
        if kind == "events":
            return kind, "GET", f"/designs/soc/events/{rng.choice(self.chain_nets)}", None
        return kind, "GET", "/designs/soc/wns", None

    def step(self) -> None:
        kind, method, path, payload = self._next_request()
        started = time.perf_counter()
        with self.span(f"serve.route.{kind}"):
            self._exchange(kind, method, path, payload)
        self.record(started, 1, sample=kind != "edits", label=kind)

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def _replay(self) -> List[dict]:
        """In-process values after each edit batch sent, in order.

        Every batch either applies one vocabulary entry to the attached state
        or reverts it, so the stream only ever visits the attached state and
        one state per entry: an in-process session visits each of those once
        (applying and reverting in turn) and the stream's values are read
        from them.
        """
        from repro.api import SessionConfig, TimingSession
        from repro.serve.codec import AttachRequest, EditRequest

        graph = AttachRequest(name="soc", case="soc", nets=SERVE_NETS,
                              clock_ps=self.clock_ps).build_graph()
        after = {}
        with TimingSession(SessionConfig.from_env()) as session:
            session.update(graph)
            for batch in self.vocabulary:
                for edits in batch:
                    for verb in EditRequest.from_payload({"edits": edits}).edits:
                        verb.apply(graph)
                    report = session.update(graph)
                    after[json.dumps(edits)] = {"wns": report.wns,
                                                "worst_slack": report.worst_slack}
        return [after[json.dumps(edits)] for edits in self.edits_sent]

    def finish(self) -> None:
        self.server_rss_mb = vm_hwm_mb(self.server.pid)
        self._shutdown()
        replay = self._replay()
        self.check(checks.serve_log_consistent(self.log, replay))
        self.canaries.update(checks.serve_canaries(self.log, replay))

    def _shutdown(self) -> None:
        """Stop the daemon and collect the spans it printed on exit."""
        if self.server.poll() is None:
            try:
                self._request("POST", "/shutdown", {})
            except (OSError, http.client.HTTPException):
                self.server.terminate()
        out, _ = self.server.communicate(timeout=60)
        self.connection.close()
        for line in out.splitlines():
            if line.startswith("SPANS "):
                payload = json.loads(line[len("SPANS "):])
                self.remote_spans.append(payload["spans"])
                self.remote_counts.append(payload["counts"])

    def close(self) -> None:
        if self.server.returncode is None:
            try:
                self._shutdown()
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()

    @property
    def library(self):
        from repro.characterization.library import default_library

        return default_library()


WORKLOADS = {cls.name: cls for cls in (Soc100k, ColdSolve, Eco100k, Serve2k)}
