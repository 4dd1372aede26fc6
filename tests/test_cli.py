"""Configuration ingestion, trace files, presets, and command behavior."""

import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from stlmpc import SamplingGrid, Trace
from stlmpc.cli import (
    ScenarioConfig,
    emit_trace,
    main,
    preset_path,
    read_trace,
    run_scenario,
)
from stlmpc.semantics import RobustnessReadout

MINI_CONFIG = """
[system]
a = 0.5
b = 1
x0 = 0
sample_time = 1

[formula]
text = G[0,inf](G[0,3](x1 >= 0))

[control]
horizon = 4
u_min = 0
u_max = 1

[simulation]
duration = 6

[output]
trace = {trace}
"""


def write_mini(tmp_path: Path, **overrides) -> Path:
    cfg = tmp_path / "mini.ini"
    cfg.write_text(MINI_CONFIG.format(trace=tmp_path / "mini.csv"))
    return cfg


def make_trace(rng=None) -> Trace:
    rng = rng or np.random.default_rng(0)
    states = rng.normal(size=(4, 2)) * math.pi
    return Trace(states=states, inputs=rng.normal(size=(4, 1)),
                 noises=rng.normal(size=(4, 2)),
                 statuses=("optimal", "optimal", "relaxed", "final"),
                 objectives=np.array([1.0, 2.0, 3.0, math.nan]),
                 grid=SamplingGrid(12.0), snr_db=11.5,
                 readout=RobustnessReadout(satisfied=True, sr=0.1, dasr=0.5,
                                           dsasr=0.4, prd=3.25, rd=0.1))


class TestTraceFiles:
    def test_shape_and_header(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(make_trace(), path)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        header, *rows = lines
        assert header == "k,t,x1,x2,u1,v1,v2,status,objective"
        assert len(rows) == 4
        assert all(len(r.split(",")) == 9 for r in rows)

    def test_states_round_trip_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = make_trace()
        emit_trace(trace, path)
        states, inputs, noises, statuses, _ = read_trace(path)
        assert np.array_equal(states, trace.states)
        assert np.array_equal(inputs, trace.inputs)
        assert np.array_equal(noises, trace.noises)
        assert statuses == trace.statuses

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_round_trip_is_byte_identical(self, tmp_path, rows):
        # two states, two inputs, NaN objectives and signed zeros
        rng = np.random.default_rng(rows)
        states = rng.normal(size=(rows, 2)) * 1e3
        states[::2, 1] = -0.0
        inputs = rng.normal(size=(rows, 2)) * 1e-300
        inputs[1::2, 0] = -0.0
        noises = rng.normal(size=(rows, 2))
        objectives = np.where(np.arange(rows) % 2 == 0, math.nan, -0.0)
        statuses = tuple(("optimal", "relaxed", "idle")[k % 3] for k in range(rows))
        trace = Trace(states=states, inputs=inputs, noises=noises, statuses=statuses,
                      objectives=objectives, grid=SamplingGrid(0.1), snr_db=math.nan,
                      readout=RobustnessReadout())
        path = tmp_path / "t.csv"
        emit_trace(trace, path)
        got = read_trace(path)
        if rows == 0:
            # a header-only file reads back as flat empty arrays
            expect = (np.array([]),) * 3 + ((), np.array([]))
        else:
            expect = (states, inputs, noises, statuses, objectives)
        assert got[3] == expect[3]
        for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    def test_empty_file_reads_as_empty_arrays(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        states, inputs, noises, statuses, objectives = read_trace(path)
        assert statuses == ()
        for a in (states, inputs, noises, objectives):
            assert a.shape == (0,) and a.dtype == np.float64

    def test_summary_lines_are_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(make_trace(), path)
        tail = [l for l in path.read_text().splitlines() if l.startswith("#")]
        assert tail and all(l.startswith("# ") for l in tail)
        assert any("snr_db" in l for l in tail)
        assert any("satisfied = true" in l for l in tail)

    def test_plot_script_emission(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(make_trace(), path, plot_script=True)
        script = path.with_suffix(".gnuplot")
        assert script.exists()
        assert "plot" in script.read_text()


class TestScenarioConfig:
    def test_mini_config_parses(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_mini(tmp_path))
        assert cfg.system.n == 1 and cfg.system.m == 1
        assert cfg.run_config.sim_steps == 6
        assert cfg.control.horizon == 4

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ScenarioConfig.from_file("/nonexistent/scenario.ini")

    def test_presets_resolve(self):
        for name in ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3",
                     "example2_dasr", "example2_sr",
                     "two_tank_phi1_noisy", "two_tank_phi2_noisy", "two_tank_phi3_noisy"):
            cfg = ScenarioConfig.from_file(preset_path(name))
            assert cfg.system.n == 2

    def test_unknown_preset(self):
        with pytest.raises(FileNotFoundError):
            preset_path("no_such_preset")


class TestCommands:
    def test_run_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", str(write_mini(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied = true" in out
        assert (tmp_path / "mini.csv").exists()

    def test_identical_config_identical_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_mini(tmp_path)
        assert run_scenario(cfg) == 0
        first = (tmp_path / "mini.csv").read_bytes()
        assert run_scenario(cfg) == 0
        assert (tmp_path / "mini.csv").read_bytes() == first

    def test_malformed_formula_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINI_CONFIG.format(trace=tmp_path / "x.csv").replace(
            "G[0,3](x1 >= 0)", "G[0,3](x1 >>= 0)"))
        code = main(["run", str(cfg)])
        assert code == 2
        assert "column" in capsys.readouterr().err

    def test_check_reports_schedule_and_sizes(self, capsys):
        code = main(["check", "two_tank_phi2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "h_d = 20" in out
        assert "delta = 11" in out
        assert "variables" in out

    @pytest.mark.parametrize("preset", sorted(
        p.name.removesuffix(".ini") for p in resources.files("stlmpc").joinpath("presets").iterdir()
        if p.name.endswith(".ini")))
    def test_check_every_preset(self, preset, capsys):
        # event-triggered presets compile at their event step, like `run`
        assert main(["check", preset]) == 0
        out = capsys.readouterr().out
        assert "branch 0:" in out
        assert ("first solved step" in out) == preset.startswith(("two_tank_phi1", "example2"))

    def test_monitor_recorded_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_mini(tmp_path)
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["monitor", str(cfg), str(tmp_path / "mini.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied = true" in out
        assert "prd" in out

    @pytest.mark.parametrize("preset", ["two_tank_phi1", "example2_dasr"])
    def test_monitor_prints_run_readouts(self, preset, tmp_path, capsys, monkeypatch):
        # two_tank_phi1 has an eventually witness, example2_dasr none
        monkeypatch.chdir(tmp_path)
        assert main(["run", preset]) == 0
        ran = capsys.readouterr().out.splitlines()
        assert ran[1].startswith("snr_db = ")
        assert main(["monitor", preset, f"{preset}_trace.csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ran[2:]

    def test_monitor_short_trace_is_unverifiable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_mini(tmp_path)
        assert main(["run", str(cfg)]) == 0
        csv = tmp_path / "mini.csv"
        csv.write_text("\n".join(csv.read_text().splitlines()[:3]) + "\n")  # x(0), x(1)
        capsys.readouterr()
        assert main(["monitor", str(cfg), str(csv)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} = unverifiable" for name in ("satisfied", "sr", "dasr", "dsasr", "prd", "rd")]

    def test_unknown_config_exits_two(self, capsys):
        assert main(["run", "definitely_missing.ini"]) == 2


class TestPresetRuns:
    def test_two_tank_phi2_trace_shape(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_scenario(preset_path("two_tank_phi2")) == 0
        csv = tmp_path / "two_tank_phi2_trace.csv"
        lines = [l for l in csv.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) - 1 == 51        # 600 s at T=12 plus the initial state
        comments = [l for l in csv.read_text().splitlines() if l.startswith("#")]
        assert any("satisfied = true" in l for l in comments)

    def test_example2_dasr_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_scenario(preset_path("example2_dasr")) == 0
        out = capsys.readouterr().out
        prd_line = next(l for l in out.splitlines() if l.startswith("prd"))
        assert float(prd_line.split("=")[1]) == pytest.approx(5.12, abs=0.1)
