"""The traced benchmark run still finds every name it wraps.

``perfbench/layers.py`` patches module attributes of ``stlmpc.mpc``,
``stlmpc.cli`` and ``stlmpc.scheduling`` from outside the package.  A
refactor that drops or stops calling one of them breaks ``--trace 1`` without
failing any other test, so this test runs the real patching on a tiny closed
loop and checks that each layer's spans nest where the metrics expect them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stlmpc import LtiSystem, SamplingGrid, mpc, parse
from stlmpc.qp_builder import ControlConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # layers imports its siblings by name
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_nest_under_mpc_run(layers):
    system = LtiSystem(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1), SamplingGrid(1.0))
    phi, table = parse("G[0,inf](F[0,2](x1 >= 0.5))", n_states=1)
    # u <= 0.2 keeps x1 below 0.4, so no plan can satisfy and every step relaxes
    config = mpc.RunConfig(control=ControlConfig(horizon=3, u_min=0, u_max=0.2), sim_steps=4)
    originals = {name: getattr(mpc, name) for name in ("run", "solve", "eval_bool")}

    tracer = layers.Tracer()
    layers.patch_all(tracer)
    try:
        trace = mpc.run(system, phi, table, config)
    finally:
        tracer.unpatch()

    assert {name: getattr(mpc, name) for name in originals} == originals
    assert trace.readout.dsasr is not None
    runs = [s for s in tracer.spans if s.name == "mpc.run"]
    assert len(runs) == 1
    inside = [s for s in tracer.spans if s.parent == runs[0].id]
    names = [s.name for s in inside]
    assert {"qp_builder.build_problem", "qp_builder.add_slack_relaxation", "qp_solver.solve",
            "scheduling.compute_schedule", "stl.to_pnf", "stl.validate_windows"} <= set(names)
    assert {f"semantics.{r}" for r in layers.READOUTS} <= set(names)
    # one solve per built branch and per relaxed branch
    branches = sum(len(s.attrs["sizes"]) for s in inside if s.name == "qp_builder.build_problem")
    assert names.count("qp_solver.solve") == branches + names.count(
        "qp_builder.add_slack_relaxation")
    steps = layers._steps(runs[0], layers.children_of(tracer.spans))
    assert len(steps) == config.sim_steps       # every step of this loop solves
