"""Output checks, their canaries, and the pinned accuracy reference.

Every check is a pure function of the data it judges, so its canary can hand
it a perturbed copy of a real result and confirm that it trips.  A run is
correct only when every check passes on the real data and every canary trips.

The accuracy reference in ``pinned.json`` is the repository's own
transistor-level simulator (:class:`repro.experiments.ReferenceSimulator`),
standing in for the HSPICE runs of the paper.  ``make_pinned.py`` regenerates
it; runs never call the ~1 s/stage simulator.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: Relative tolerance of the value checks.
RTOL = 1e-9


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def nudge(value: float) -> float:
    """A perturbed copy of ``value``, well outside :data:`RTOL`."""
    return value * (1.0 + 1e-6) if value else 1e-15


# --- soc100k -------------------------------------------------------------------------

def soc_answers_match(clock: float, worst_slack: float, wns: float,
                      table: Sequence[Tuple[str, float]],
                      path: Sequence[Tuple[str, str]], pinned: dict) -> bool:
    """WNS, the slack table head and the critical path against the pinned run.

    Every endpoint shares the clock constraint, so ``clock - worst_slack`` is
    the pinned worst endpoint arrival whatever clock the seed drew.
    """
    return (close(clock - worst_slack, pinned["worst_arrival"])
            and wns == min(worst_slack, 0.0)
            and bool(table) and table[0][1] == worst_slack
            and all(a[1] <= b[1] for a, b in zip(table, table[1:]))
            and [list(ref) for ref in path] == pinned["critical_path"])


def soc_canaries(clock, worst_slack, wns, table, path, pinned) -> Dict[str, bool]:
    """name -> True when the check rejected the perturbed answer."""
    head = [(table[0][0], nudge(table[0][1]))] + list(table[1:])
    return {
        "soc.worst_slack": not soc_answers_match(
            clock, nudge(worst_slack), wns, table, path, pinned),
        "soc.table_head": not soc_answers_match(
            clock, worst_slack, wns, head, path, pinned),
        "soc.critical_path": not soc_answers_match(
            clock, worst_slack, wns, table, list(path)[:-1], pinned),
    }


# --- eco100k -------------------------------------------------------------------------

#: Per-event planes compared bit for bit.  ``sol_idx`` indexes the producing
#: engine's own solution list, so solutions are compared by fingerprint.
PLANES = ("exists", "in_arr", "early_in", "merged_slew", "in_slew", "src",
          "early_src", "out_arr", "early_out", "delay", "prop_slew")


def analysis_planes(analysis) -> List[np.ndarray]:
    """Every array a compiled analysis answers timing queries from."""
    state = analysis.state
    solved = np.flatnonzero(state.exists)
    fingerprints = np.array([analysis.solutions[i].fingerprint
                             for i in state.sol_idx[solved].tolist()])
    return ([getattr(state, name) for name in PLANES] + [fingerprints]
            + [plane if plane is not None else np.empty(0)
               for plane in (analysis.required, analysis.hold_required)])


def planes_identical(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    """Bit-identity of two plane lists (NaN equals NaN)."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and np.array_equal(x.view(np.uint8), y.view(np.uint8))
        for x, y in zip(a, b))


def eco_canaries(incremental: Sequence[np.ndarray],
                 full: Sequence[np.ndarray]) -> Dict[str, bool]:
    perturbed = [plane.copy() for plane in incremental]
    for plane in perturbed:
        if plane.dtype.kind == "f":
            finite = np.flatnonzero(np.isfinite(plane) & (plane != 0))
            if finite.size:
                index = finite[finite.size // 2]
                plane[index] = np.nextafter(plane[index], np.inf)
                break
    return {"eco.one_ulp": not planes_identical(perturbed, full)}


# --- cold_solve ----------------------------------------------------------------------

LANE_FIELDS = ("gate_delay", "interconnect_delay", "far_slew")


def lane_matches(lane: Dict[str, float], oracle: Dict[str, float]) -> bool:
    """One batched stage solve against the scalar ``solve_stage`` oracle."""
    return all(close(lane[name], oracle[name]) for name in LANE_FIELDS)


def lane_canaries(lane, oracle) -> Dict[str, bool]:
    return {f"cold.{name}": not lane_matches(
        lane, dict(oracle, **{name: nudge(oracle[name])})) for name in LANE_FIELDS}


# --- serve_2k ------------------------------------------------------------------------

def serve_log_consistent(log: Sequence[dict], replay: Sequence[dict]) -> bool:
    """Every response 2xx, ``seq`` consistent, edit WNS equal to the replay.

    ``log`` holds one entry per request: ``status``, ``kind`` and ``seq`` (and
    ``wns``/``worst_slack`` for edits); ``replay`` the in-process session's
    values after each edit batch of the same stream.
    """
    seq = 0
    edits = []
    for entry in log:
        if not 200 <= entry["status"] < 300:
            return False
        if entry["kind"] == "edits":
            seq += 1
            edits.append(entry)
        if entry["seq"] != seq:
            return False
    return len(edits) == len(replay) and all(
        e["wns"] == r["wns"] and e["worst_slack"] == r["worst_slack"]
        for e, r in zip(edits, replay))


def serve_canaries(log, replay) -> Dict[str, bool]:
    bumped = [dict(entry) for entry in log]
    bumped[-1]["seq"] += 1
    failed = [dict(entry) for entry in log]
    failed[len(failed) // 2]["status"] = 500
    shifted = [dict(entry) for entry in replay]
    if shifted:
        shifted[-1]["wns"] = nudge(shifted[-1]["wns"] or -1e-12)
    return {
        "serve.seq": not serve_log_consistent(bumped, replay),
        "serve.status": not serve_log_consistent(failed, replay),
        "serve.final_wns": not serve_log_consistent(log, shifted) if replay else True,
    }


# --- accuracy against the pinned reference -------------------------------------------

def reference_line(stage: dict):
    from repro.interconnect.rlc_line import RLCLine

    return RLCLine(resistance=stage["resistance"], inductance=stage["inductance"],
                   capacitance=stage["capacitance"], length=stage["length"])


def model_accuracy(library, pinned: dict) -> Tuple[float, float]:
    """Worst far-end delay and slew error [%] of the model on the pinned stages.

    The stages are solved the way timing runs solve them: one
    :meth:`StageSolver.solve_batch` array pass.
    """
    from repro.core.driver_model import ModelingOptions
    from repro.core.stage_solver import StageRequest, StageSolver

    stages = pinned["reference"]["stages"]
    requests = [StageRequest(
        cell=library.get(stage["driver_size"]), input_slew=stage["input_slew"],
        line=reference_line(stage), load_capacitance=stage["load_capacitance"],
        options=ModelingOptions(transition=stage["transition"]))
        for stage in stages]
    solved = StageSolver().solve_batch(requests)
    delay_err = max(abs(s.stage_delay - stage["far_delay"]) / stage["far_delay"]
                    for s, stage in zip(solved, stages))
    slew_err = max(abs(s.far_slew - stage["far_slew"]) / stage["far_slew"]
                   for s, stage in zip(solved, stages))
    return 100.0 * delay_err, 100.0 * slew_err
