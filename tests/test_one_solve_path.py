"""One solve path: scalar entry points are one-lane batches, the scalar flow an oracle.

The production entry points of the stage flow must run the array-batched code
bit for bit, and the per-lane scalar flow must stay reachable only as the
independent oracle behind ``solve_stage``: the package imports it from one
module, and the oracle itself imports no batch function.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core import (ModelingOptions, StageRequest, StageSolver,
                        model_driver_output, model_driver_output_batch,
                        solve_stage_batch)
from repro.interconnect import RLCLine
from repro.units import fF, mm, nH, pF, ps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
ORACLE = "repro.core.scalar_oracle"
BATCH_NAMES = {"AdmittanceBatch", "_fixed_point_batch"}


def imported_modules(path: Path):
    """``(absolute module, imported names)`` for every import statement in ``path``."""
    package = ".".join(("repro",) + path.relative_to(PACKAGE).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            names = [alias.name for alias in node.names]
            yield module, names
            for name in names:  # ``from .core import scalar_oracle``
                yield f"{module}.{name}", []


class TestImportBoundary:
    def test_only_the_stage_solver_imports_the_oracle(self):
        importers = sorted(
            str(path.relative_to(PACKAGE))
            for path in PACKAGE.rglob("*.py")
            if any(module == ORACLE for module, _ in imported_modules(path)))
        assert importers == ["core/stage_solver.py"]

    def test_oracle_imports_no_batch_function(self):
        path = PACKAGE / "core" / "scalar_oracle.py"
        names = [name for _, imported in imported_modules(path) for name in imported]
        assert names  # the walk sees the oracle's imports at all
        offending = [name for name in names
                     if name.endswith("_batch") or name in BATCH_NAMES]
        assert offending == []


#: (cell size, line, load, options): a single ramp, a two ramp and forced options.
CASES = {
    "single-ramp": (25.0, RLCLine(38.0, nH(2.1), pF(0.42), mm(2)), 0.0,
                    ModelingOptions()),
    "two-ramp": (75.0, RLCLine(72.44, nH(5.14), pF(1.10), mm(5)), fF(20),
                 ModelingOptions()),
    "forced-two": (25.0, RLCLine(38.0, nH(2.1), pF(0.42), mm(2)), 0.0,
                   ModelingOptions(force_two_ramp=True, transition="fall")),
    "forced-half": (75.0, RLCLine(72.44, nH(5.14), pF(1.10), mm(5)), 0.0,
                    ModelingOptions(force_single_ramp=True,
                                    ceff_charge_fraction=0.5)),
    "fit-options": (100.0, RLCLine(72.44, nH(5.14), pF(1.10), mm(5)), fF(10),
                    ModelingOptions(admittance_order=6, moment_segments=37,
                                    plateau_correction=False)),
}


@pytest.fixture(params=sorted(CASES))
def case(request, library):
    size, line, load, options = CASES[request.param]
    return request.param, library.get(size), line, load, options


class TestOneLaneIdentity:
    def test_model_driver_output_is_the_one_lane_batch(self, case):
        kind, cell, line, load, options = case
        single = model_driver_output(cell, ps(90), line, load, options=options)
        lane = model_driver_output_batch([(cell, ps(90), line, load, options)])[0]
        assert single == lane
        if kind in ("single-ramp", "two-ramp"):
            assert single.kind == kind

    def test_solver_solve_is_the_one_request_batch(self, case):
        _, cell, line, load, options = case
        solved = StageSolver().solve(cell, ps(90), line, load, options=options,
                                     need_waveforms=True)
        request = StageRequest(cell, ps(90), line, load, options=options)
        for batched in (StageSolver().solve_batch([request])[0],
                        solve_stage_batch([request])[0]):
            assert solved == batched
            assert solved.model == batched.model
            assert np.array_equal(solved.far_end.far.values,
                                  batched.far_end.far.values)
