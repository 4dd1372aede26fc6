"""Configuration ingestion, trace files, presets, and command behavior."""

import configparser
import itertools
import math
import re
import tempfile
import textwrap
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import trace_reference
from stlmpc import (
    NoiseModel,
    SamplingGrid,
    Signal,
    Trace,
    cli,
    collect_event_ops,
    compute_schedule,
    mpc,
    run,
)
from stlmpc.cli import (
    ScenarioConfig,
    emit_trace,
    main,
    preset_path,
    read_trace,
    run_scenario,
)
from stlmpc.mpc import readouts
from stlmpc.semantics import RobustnessReadout

PRESETS = sorted(p.name.removesuffix(".ini")
                 for p in resources.files("stlmpc").joinpath("presets").iterdir()
                 if p.name.endswith(".ini"))
STATUSES = ("optimal", "relaxed", "iteration-limit", "idle", "planned", "final")
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308)
HEADER = "k,t,x1,x2,u1,v1,v2,status,objective"

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
        expect = (states, inputs, noises, statuses, objectives)
        assert got[3] == expect[3]
        for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    def test_empty_file_reads_as_empty_arrays(self, tmp_path):
        # an empty file has not even the header, so it reads as no arrays at all
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv: the header has 1 columns, fewer than"):
            read_trace(path)

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


def numeric_trace(values: np.ndarray, n: int, m: int, statuses) -> Trace:
    """A trace whose states, inputs, noises and objectives are the columns of `values`."""
    return Trace(states=values[:, :n], inputs=values[:, n:n + m],
                 noises=values[:, n + m:2 * n + m], statuses=tuple(statuses),
                 objectives=values[:, -1], grid=SamplingGrid(12.0), snr_db=math.nan,
                 readout=RobustnessReadout())


def recording(rows: int, seed: int = 0) -> Trace:
    """Two states and one input over 600 decades of magnitude, with every
    special value placed throughout the columns."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-320, 300, size=(rows, 6))
    values.flat[::5] = np.resize(SPECIAL, values.flat[::5].size)
    return numeric_trace(values, 2, 1, np.resize(STATUSES, rows))


def assert_reads_like_reference(path: Path) -> None:
    got, expect = read_trace(path), trace_reference.read_trace(path)
    assert got[3] == expect[3]
    for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


def _blank_and_comment_lines(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:3] + ["", "# between rows", "  ", *lines[3:6], "#", *lines[6:]])


def _extra_column(text: str) -> str:
    return "\n".join(line if not line or line.startswith("#") else line + ",note"
                     for line in text.split("\n"))


class TestTraceReaderOracle:
    """The flat reader against the row-by-row reference reader, bit for bit."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_run_trace_of_every_preset(self, preset, tmp_path):
        cfg = ScenarioConfig.from_file(preset_path(preset))
        path = tmp_path / "run.csv"
        emit_trace(run(cfg.system, cfg.formula, cfg.table, cfg.run_config, cfg.noise), path)
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("rows", [0, 1, 51, 3001])
    def test_generated_recordings(self, rows, tmp_path):
        path = tmp_path / "rec.csv"
        emit_trace(recording(rows, seed=rows), path)
        assert_reads_like_reference(path)

    def test_every_special_value_in_every_column(self, tmp_path):
        values = np.array([np.roll(SPECIAL, -k) for k in range(len(SPECIAL))])
        path = tmp_path / "special.csv"
        emit_trace(numeric_trace(values, 2, 1, STATUSES), path)
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("edit", [_crlf, _blank_and_comment_lines, _extra_column,
                                      lambda text: _crlf(_extra_column(text))])
    def test_format_variants(self, edit, tmp_path):
        plain, path = tmp_path / "plain.csv", tmp_path / "edited.csv"
        emit_trace(recording(51), plain)
        path.write_bytes(edit(plain.read_text()).encode())
        assert_reads_like_reference(path)
        got, expect = read_trace(path), read_trace(plain)
        assert got[3] == expect[3]
        for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
            assert a.tobytes() == b.tobytes()

    def test_long_and_spaced_statuses_come_back_verbatim(self, tmp_path):
        statuses = ("s" * 40, "relaxed after 3 tries", "two  spaces", "idle")
        path = tmp_path / "statuses.csv"
        emit_trace(numeric_trace(np.ones((4, 6)), 2, 1, statuses), path)
        assert read_trace(path)[3] == statuses
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("names", [["xnote"], ["xnote", "unote", "x3", "u2"]])
    def test_trailing_columns_named_like_states_or_inputs(self, names, tmp_path):
        plain, path = tmp_path / "plain.csv", tmp_path / "trailing.csv"
        emit_trace(recording(51), plain)
        header, *rest = plain.read_text().split("\n")
        path.write_text("\n".join(
            [",".join([header, *names])]
            + [line if not line or line.startswith("#") else ",".join([line, *["idle"] * len(names)])
               for line in rest]))
        got, expect = read_trace(path), read_trace(plain)
        assert got[3] == expect[3]
        for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 3), rows=st.integers(1, 8))
    def test_emit_then_read_round_trips(self, data, n, m, rows):
        values = data.draw(arrays(np.float64, (rows, 2 * n + m + 1), elements=st.floats()))
        statuses = data.draw(st.lists(st.sampled_from(STATUSES), min_size=rows, max_size=rows))
        trace = numeric_trace(values, n, m, statuses)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            emit_trace(trace, path)
            got = read_trace(path)
        assert got[3] == trace.statuses
        expect = (trace.states, trace.inputs, trace.noises, trace.objectives)
        for a, b in zip(got[:3] + got[4:], expect):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            # %.17g drops the sign and payload of a NaN: it only reads back as NaN
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            assert a[~nan].tobytes() == b[~nan].tobytes()


MALFORMED = {
    # what an interrupted write leaves: the file stops inside its last row
    "truncated": (f"{HEADER}\n0,0,1,2,3,4,5,idle,nan\n1,12,1,2,3,4,5,idle,nan\n2,24,1,2",
                  "data row 3 has 4 fields, the header has 9"),
    "extra field": (f"{HEADER}\n0,0,1,2,3,4,5,idle,nan\n1,12,1,2,3,4,5,idle,nan,7\n",
                    "data row 2 has 10 fields, the header has 9"),
    # same total field count as a well-formed file
    "long then short": (f"{HEADER}\n0,0,1,2,3,4,5,idle,nan,7\n1,12,1,2,3,4,idle,nan\n",
                        "data row 1 has 10 fields, the header has 9"),
    "header without objective": ("k,t,x1,x2,u1,v1,v2,status\n0,0,1,2,3,4,5,idle\n",
                                 "the header has 8 columns, fewer than the 9"),
}


class TestMalformedTraces:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_read_trace_rejects(self, case, tmp_path):
        text, message = MALFORMED[case]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace(path)

    # "1_5" is rejected on purpose: float() would read it as 15
    @pytest.mark.parametrize("field", ["abc", "1_5", ""])
    @pytest.mark.parametrize("column", [2, 8], ids=["state", "objective"])
    def test_read_trace_rejects_a_non_number(self, field, column, tmp_path):
        row = "1,12,1,2,3,4,5,idle,nan".split(",")
        row[column] = field
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n0,0,1,2,3,4,5,idle,nan\n{','.join(row)}\n")
        name = HEADER.split(",")[column]
        with pytest.raises(ValueError, match=f"bad.csv: data row 2 has '{field}' in column "
                                             f"{name}, not a number"):
            read_trace(path)

    @pytest.mark.parametrize("case", ["truncated", "extra field"])
    def test_monitor_names_the_row(self, case, tmp_path, capsys):
        text, message = MALFORMED[case]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["monitor", "two_tank_phi3", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_monitor_rejects_state_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "one_state.csv"
        emit_trace(numeric_trace(np.ones((40, 4)), 1, 1, ("idle",) * 40), path)
        assert main(["monitor", "two_tank_phi3", str(path)]) == 2
        assert "1 state columns, the scenario has n = 2 states" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [HEADER, "k,t,x1,u1,v1,status,objective"])
    def test_monitor_header_only_is_unverifiable(self, header, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        if header != HEADER:
            # a header of another state count is rejected, rows or not
            assert main(["monitor", "two_tank_phi3", str(path)]) == 2
            assert "1 state columns, the scenario has n = 2 states" in capsys.readouterr().err
            return
        assert main(["monitor", "two_tank_phi3", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} = unverifiable" for name in ("satisfied", "sr", "dasr", "dsasr", "prd", "rd")]

    @pytest.mark.parametrize("text", [HEADER + "\n", ""], ids=["header only", "empty file"])
    def test_monitor_no_rows_against_a_length_zero_formula(self, text, tmp_path, capsys):
        # x1 >= 2 is read at step 0 alone, a sample a trace without rows lacks
        cfg = phi3_copy(tmp_path, "atomic", "x1 >= 2")
        path = tmp_path / "empty.csv"
        path.write_text(text)
        if not text:
            # an empty file lacks the header
            assert main(["monitor", str(cfg), str(path)]) == 2
            assert "the header has 1 columns" in capsys.readouterr().err
            return
        assert main(["monitor", str(cfg), str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} = unverifiable" for name in ("satisfied", "sr", "dasr", "dsasr", "prd", "rd")]


def _whitespace_lines(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:2] + ["   ", "\t"] + lines[2:5] + [" \t "] + lines[5:])


def _indented_comments(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:2] + ["   # indented", "\t#"] + lines[2:5] + ["  #x,1,2"] + lines[5:])


def _no_final_newline(text: str) -> str:
    return text.rstrip("\n")


def _note_after_objective(text: str) -> str:
    header, *rest = text.split("\n")
    return "\n".join([header] + [line if not line or line.startswith("#") else line + " # note"
                                  for line in rest])


def assert_reads_alike(path: Path, other: Path) -> None:
    got, expect = read_trace(path), read_trace(other)
    assert got[3] == expect[3]
    for a, b in zip(got[:3] + got[4:], expect[:3] + expect[4:]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


class TestCommentsAndHandEdits:
    """``#`` starts a comment anywhere; hand-edited files read like the reference."""

    @pytest.mark.parametrize("rows", [51, 3001])
    @pytest.mark.parametrize("edit", [_whitespace_lines, _indented_comments, _crlf,
                                      _no_final_newline])
    def test_hand_edits_read_like_the_reference(self, edit, rows, tmp_path):
        plain, path = tmp_path / "plain.csv", tmp_path / "edited.csv"
        emit_trace(recording(rows, seed=rows), plain)
        path.write_bytes(edit(plain.read_text()).encode())
        assert_reads_like_reference(path)
        assert_reads_alike(path, plain)

    def test_note_after_the_objective_is_ignored(self, tmp_path):
        plain, path = tmp_path / "plain.csv", tmp_path / "noted.csv"
        emit_trace(recording(51), plain)
        path.write_text(_note_after_objective(plain.read_text()))
        assert_reads_alike(path, plain)

    def test_status_holding_a_hash_is_a_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{HEADER}\n# kept\n0,0,1,2,3,4,5,idle,nan\n\n  # edited\n"
                        "1,12,1,2,3,4,5,idle,nan\n2,24,1,2,3,4,5,id#le,nan\n")
        with pytest.raises(ValueError, match="bad.csv: data row 3 has 8 fields, the header has 9"):
            read_trace(path)

    @pytest.mark.parametrize("text", [HEADER + "\n", HEADER,
                                      HEADER + "\n# only\n  # comments\n\n \t \n# snr_db = 1\n"],
                                 ids=["header", "header without newline", "comments"])
    def test_no_data_reads_empty_without_a_warning(self, text, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, inputs, noises, statuses, objectives = read_trace(path)
        # the header's 2 states, 1 input and 2 noises, no rows
        assert statuses == ()
        for a, shape in zip((states, inputs, noises, objectives), ((0, 2), (0, 1), (0, 2), (0,))):
            assert a.shape == shape and a.dtype == np.float64

    @pytest.mark.parametrize("status", ["a,b", "#", "note # here", "two\nlines", "cr\r"])
    def test_emit_refuses_a_status_it_could_not_read_back(self, status, tmp_path):
        statuses = ("idle", "idle", status, "final")
        with pytest.raises(ValueError, match=re.escape(f"status {status!r} at step 2 holds")):
            emit_trace(numeric_trace(np.ones((4, 6)), 2, 1, statuses), tmp_path / "t.csv")


class TestScenarioConfig:
    def test_mini_config_parses(self, tmp_path):
        cfg = ScenarioConfig.from_file(write_mini(tmp_path))
        assert cfg.system.n == 1 and cfg.system.m == 1
        assert cfg.run_config.sim_steps == 6
        assert cfg.control.horizon == 4

    def test_duration_defaults_to_the_formula_length(self, tmp_path):
        path = write_mini(tmp_path)
        path.write_text(path.read_text().replace("duration = 6\n", ""))
        assert ScenarioConfig.from_file(path).run_config.sim_steps == 3

    @pytest.mark.parametrize("text", ["G[0,inf](G[0,0](x1 >= 0))", "G[0,inf](F[0,0](x1 >= 1))"])
    def test_horizon_defaults_to_one_step_for_a_length_zero_formula(self, text, tmp_path,
                                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_mini(tmp_path)
        path.write_text(path.read_text().replace("horizon = 4\n", "").replace(
            "G[0,inf](G[0,3](x1 >= 0))", text))
        assert ScenarioConfig.from_file(path).control.horizon == 1
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "mini.csv").exists()

    def test_duration_defaults_to_one_step_without_temporal_operators(self, tmp_path, capsys):
        path = write_mini(tmp_path)
        path.write_text(path.read_text().replace("duration = 6\n", "").replace(
            "G[0,inf](G[0,3](x1 >= 0))", "x1 >= 0"))
        assert ScenarioConfig.from_file(path).run_config.sim_steps == 1
        trace = tmp_path / "two_rows.csv"
        trace.write_text("k,t,x1,u1,v1,status,objective\n0,0,0.5,0,0,optimal,0\n"
                         "1,1,-1,0,0,final,nan\n")
        assert main(["monitor", str(path), str(trace)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "satisfied = true", "sr = 0.5", "dasr = 0.5"]

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ScenarioConfig.from_file("/nonexistent/scenario.ini")

    def test_one_row_b_is_a_column(self, tmp_path):
        path = preset_copy(tmp_path, lambda text: text.replace("b = 0.281; 0.0296",
                                                               "b = 0.281 0.0296"))
        edited = ScenarioConfig.from_file(path).system.B
        np.testing.assert_array_equal(edited, np.array([[0.281], [0.0296]]))
        np.testing.assert_array_equal(
            edited, ScenarioConfig.from_file(preset_path("two_tank_phi2")).system.B)

    @pytest.mark.parametrize("text, penalty", [
        ("0.5", [[0.5, 0.0], [0.0, 0.5]]),
        ("1 0.25; 0.25 2", [[1.0, 0.25], [0.25, 2.0]]),
    ])
    def test_input_penalty_is_a_scalar_or_a_matrix(self, text, penalty, tmp_path, capsys,
                                                   monkeypatch):
        # two inputs: a one-row b of a one-state plant stays a row
        monkeypatch.chdir(tmp_path)
        path = write_mini(tmp_path)
        path.write_text(path.read_text().replace("b = 1\n", "b = 1 0.5\n").replace(
            "u_max = 1\n", f"u_max = 1\ninput_penalty = {text}\n"))
        cfg = ScenarioConfig.from_file(path)
        assert cfg.system.m == 2
        np.testing.assert_array_equal(cfg.control.input_penalty, penalty)
        assert main(["check", str(path)]) == 0
        assert "branch 0: QP with" in capsys.readouterr().out
        assert main(["run", str(path)]) == 0
        assert "satisfied = true" in capsys.readouterr().out
        assert np.array_equal(read_trace(tmp_path / "mini.csv")[1],
                              run(cfg.system, cfg.formula, cfg.table, cfg.run_config).inputs)

    def test_presets_resolve(self):
        for name in ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3",
                     "example2_dasr", "example2_sr",
                     "two_tank_phi1_noisy", "two_tank_phi2_noisy", "two_tank_phi3_noisy"):
            cfg = ScenarioConfig.from_file(preset_path(name))
            assert cfg.system.n == 2

    def test_unknown_preset(self):
        with pytest.raises(FileNotFoundError):
            preset_path("no_such_preset")

    @pytest.mark.parametrize("key, section, read", [
        ("slack", "control", lambda cfg: cfg.run_config.slack_enabled),
        ("resolve_each_step", "control", lambda cfg: cfg.run_config.resolve_each_step),
        ("plot_script", "output", lambda cfg: cfg.plot_script),
    ])
    def test_boolean_keys(self, key, section, read, tmp_path):
        def load(word):
            path = write_mini(tmp_path)
            text = path.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {word}\n")
            path.write_text(text)
            return ScenarioConfig.from_file(path)

        for word, value in (("1", True), ("YES", True), ("True", True), ("on", True),
                            ("0", False), ("No", False), ("FALSE", False), ("off", False)):
            assert read(load(word)) is value
        for word in ("onn", "yse", "2", "enabled"):
            with pytest.raises(ValueError, match=f"{key} = '{word}' is not a boolean"):
                load(word)


# what `check` prints for each preset
CHECK_OUTPUT = {
    "example2_dasr": (
        "formula length: h_d = 37 steps (444 s)\n"
        "prediction horizon: N = 37\n"
        "witness schedule: not needed (no eventually/until operators)\n"
        "first solved step: k = 0 (event)\n"
        "branch 0: LP with 38 variables, 91 inequalities, 511 nonzeros\n"),
    "example2_sr": (
        "formula length: h_d = 37 steps (444 s)\n"
        "prediction horizon: N = 37\n"
        "witness schedule: not needed (no eventually/until operators)\n"
        "first solved step: k = 0 (event)\n"
        "branch 0: LP with 38 variables, 89 inequalities, 468 nonzeros\n"),
    "two_tank_phi1": (
        "formula length: h_d = 20 steps (240 s)\n"
        "prediction horizon: N = 20\n"
        "witness schedule: delta = 11, eta = 11, baselines = [10]\n"
        "first solved step: k = 10 (event)\n"
        "branch 0: LP with 20 variables, 41 inequalities, 51 nonzeros\n"),
    "two_tank_phi1_noisy": (
        "formula length: h_d = 20 steps (240 s)\n"
        "prediction horizon: N = 20\n"
        "witness schedule: delta = 11, eta = 11, baselines = [10]\n"
        "first solved step: k = 10 (event)\n"
        "branch 0: LP with 20 variables, 41 inequalities, 51 nonzeros\n"),
    "two_tank_phi2": (
        "formula length: h_d = 20 steps (240 s)\n"
        "prediction horizon: N = 20\n"
        "witness schedule: delta = 11, eta = 11, baselines = [10]\n"
        "branch 0: LP with 20 variables, 51 inequalities, 105 nonzeros\n"),
    "two_tank_phi2_noisy": (
        "formula length: h_d = 20 steps (240 s)\n"
        "prediction horizon: N = 20\n"
        "witness schedule: delta = 11, eta = 11, baselines = [10]\n"
        "branch 0: LP with 20 variables, 51 inequalities, 105 nonzeros\n"),
    "two_tank_phi3": (
        "formula length: h_d = 35 steps (420 s)\n"
        "prediction horizon: N = 35\n"
        "witness schedule: delta = 11, eta = 5, baselines = [10, 15]\n"
        "branch 0: LP with 36 variables, 89 inequalities, 242 nonzeros\n"),
    "two_tank_phi3_noisy": (
        "formula length: h_d = 35 steps (420 s)\n"
        "prediction horizon: N = 35\n"
        "witness schedule: delta = 11, eta = 5, baselines = [10, 15]\n"
        "branch 0: LP with 36 variables, 89 inequalities, 242 nonzeros\n"),
}


def preset_copy(tmp_path: Path, edit) -> Path:
    """A copy of the two_tank_phi2 preset with ``edit`` applied to its text."""
    text = preset_path("two_tank_phi2").read_text()
    assert edit(text) != text
    path = tmp_path / "edited.ini"
    path.write_text(edit(text))
    return path


# (edit, section, key) of a scenario holding a section or key the schema lacks
UNKNOWN = {
    "misspelled_key": (lambda text: text.replace("u_max = 6", "u_mx = 6"), "[control]", "u_mx"),
    "budget_end": (lambda text: text.replace("slack = on", "slack = on\nbudget_end = 300"),
                   "[control]", "budget_end"),
    "slack_weight": (lambda text: text.replace("slack = on", "slack = on\nslack_weight = 50"),
                     "[control]", "slack_weight"),
    "misspelled_section": (lambda text: text.replace("[control]", "[contrl]"), "[contrl]",
                           "horizon"),
}


# edits of two_tank_phi2 that set one number to NaN, by the key the error names
NAN = {
    "u_min": lambda text: text.replace("u_min = 0", "u_min = nan"),
    "u_max": lambda text: text.replace("u_max = 6", "u_max = nan"),
    "constraint_margin": lambda text: text.replace("slack = on",
                                                   "slack = on\nconstraint_margin = nan"),
    "budget": lambda text: text.replace("slack = on", "slack = on\nbudget = nan"),
    "noise_std": lambda text: text.replace("noise = none", "noise = gaussian\nnoise_std = 0.1 nan"),
    "x0": lambda text: text.replace("x0 = 0 0", "x0 = 0 nan"),
}

# edits of two_tank_phi2 whose input box is empty though u_min > u_max is false,
# by the key the error names
EMPTY_BOX = {
    "u_min": lambda text: text.replace("u_min = 0", "u_min = inf").replace("u_max = 6",
                                                                          "u_max = inf"),
    "u_max": lambda text: text.replace("u_min = 0", "u_min = -inf").replace("u_max = 6",
                                                                           "u_max = -inf"),
}


# edits of two_tank_phi2 whose numbers parse but leave nothing to run, by the key
# the error names
UNRUNNABLE = {
    "constraint_margin": lambda text: text.replace("slack = on",
                                                   "slack = on\nconstraint_margin = inf"),
    "budget": lambda text: text.replace("slack = on", "slack = on\nbudget = -inf"),
    "seed": lambda text: text.replace("noise = none",
                                      "noise = gaussian\nnoise_std = 0.1\nseed = -1"),
}


class TestSchema:
    def test_docstring_example_lists_every_accepted_key(self):
        lines = cli.__doc__.split("::\n", 1)[1].splitlines()
        example = itertools.takewhile(lambda line: not line or line.startswith("    "), lines)
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.read_string(textwrap.dedent("\n".join(example)))
        assert ({section: sorted(cp.options(section)) for section in cp.sections()}
                == {section: sorted(keys) for section, keys in cli._KEYS.items()})

    @pytest.mark.parametrize("case", sorted(UNKNOWN))
    def test_unknown_section_or_key_is_an_error(self, case, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        edit, section, key = UNKNOWN[case]
        path = preset_copy(tmp_path, edit)
        with pytest.raises(configparser.Error):
            ScenarioConfig.from_file(path)
        for argv in (["run", str(path)], ["check", str(path)],
                     ["monitor", str(path), "trace.csv"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert str(path) in err and section in err and key in err
        assert not (tmp_path / "two_tank_phi2_trace.csv").exists()

    def test_default_section_is_an_error(self, tmp_path, capsys):
        path = preset_copy(tmp_path, lambda text: "[DEFAULT]\nhorizon = 20\n" + text)
        with pytest.raises(configparser.Error, match=r"unknown section \[DEFAULT\]"):
            ScenarioConfig.from_file(path)
        assert main(["check", str(path)]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(NAN))
    def test_nan_number_is_an_error(self, key, tmp_path, capsys, monkeypatch):
        # a scenario error, so check rejects it too and no run is attempted
        monkeypatch.chdir(tmp_path)
        path = preset_copy(tmp_path, NAN[key])
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "two_tank_phi2_trace.csv").exists()

    @pytest.mark.parametrize("key", sorted(EMPTY_BOX))
    def test_infinite_empty_input_box_is_an_error(self, key, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = preset_copy(tmp_path, EMPTY_BOX[key])
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert f"{key} is" in capsys.readouterr().err
        assert not (tmp_path / "two_tank_phi2_trace.csv").exists()

    @pytest.mark.parametrize("key", sorted(UNRUNNABLE))
    def test_unrunnable_number_is_an_error(self, key, tmp_path, capsys, monkeypatch):
        # check rejects what run would fail on, naming the key
        monkeypatch.chdir(tmp_path)
        path = preset_copy(tmp_path, UNRUNNABLE[key])
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "two_tank_phi2_trace.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "-12"])
    @pytest.mark.parametrize("key", ["sample_time", "event_time", "duration"])
    def test_time_that_is_not_a_finite_number_of_seconds_is_an_error(
            self, key, value, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "edited.ini"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                               preset_path("two_tank_phi1").read_text(), flags=re.M))
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert (f"{key} = {value} is not a finite, non-negative number of seconds"
                    in capsys.readouterr().err)
        assert not (tmp_path / "two_tank_phi1_trace.csv").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("system", "sample_time", "abc"), ("control", "u_max", "abc"),
        ("system", "x0", "0 zero"), ("control", "horizon", "2.5"),
        ("simulation", "seed", "x")])
    def test_number_that_does_not_parse_names_file_section_and_key(
            self, section, key, value, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = preset_path("two_tank_phi1").read_text()
        if key == "seed":
            text = text.replace("noise = none", "noise = none\nseed = 0")
        path = tmp_path / "edited.ini"
        path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
        with pytest.raises(ValueError, match=re.escape(f"{path}: [{section}] {key} = {value}: ")):
            ScenarioConfig.from_file(path)
        for command in ("check", "run"):
            assert main([command, str(path)]) == 2
            assert f"{path}: [{section}] {key} = {value}: " in capsys.readouterr().err
        assert not (tmp_path / "two_tank_phi1_trace.csv").exists()

    def test_infinite_budget_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = preset_copy(tmp_path, lambda text: text.replace("slack = on",
                                                               "slack = on\nbudget = inf"))
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path)]) == 0
        assert "satisfied = true" in capsys.readouterr().out

    def test_noise_std_holds_one_value_or_one_per_state(self, tmp_path, capsys):
        def noisy(std):
            return lambda text: text.replace("noise = none", f"noise = gaussian\nnoise_std = {std}")

        for std in ("0.3", "0.3 0.4"):
            ScenarioConfig.from_file(preset_copy(tmp_path, noisy(std)))
        path = preset_copy(tmp_path, noisy("0.3 0.4 0.5"))
        message = "noise_std holds 3 values; the system has 2 states"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_file(path)
        assert main(["check", str(path)]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(ValueError, match=message):
            NoiseModel("gaussian", np.array([0.3, 0.4, 0.5])).samples(4, 2)


class TestCommands:
    def test_run_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", str(write_mini(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied = true" in out
        assert (tmp_path / "mini.csv").exists()

    def test_failed_run_exits_one(self, tmp_path, capsys, monkeypatch):
        # no input in [0, 1] lifts x1 to 5, and relaxing is off
        monkeypatch.chdir(tmp_path)
        path = write_mini(tmp_path)
        path.write_text(path.read_text().replace("x1 >= 0", "x1 >= 5").replace(
            "u_max = 1\n", "u_max = 1\nslack = off\n"))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: all branches infeasible at step 0 and slack relaxation is off\n")
        assert not (tmp_path / "mini.csv").exists()

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

    @pytest.mark.parametrize("preset", PRESETS)
    def test_check_every_preset(self, preset, capsys):
        # event-triggered presets compile at their event step, like `run`
        assert main(["check", preset]) == 0
        out = capsys.readouterr().out
        assert "branch 0:" in out
        assert ("first solved step" in out) == preset.startswith(("two_tank_phi1", "example2"))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_check_compiles_once(self, preset, capsys, monkeypatch):
        # an event-triggered scenario's idle history is rolled forward, not run
        compiled, histories = [], []
        for module in (cli, mpc):
            def counted(*args, _compile=module.compile_run, **kwargs):
                compiled.append(_compile(*args, **kwargs))
                return compiled[-1]
            monkeypatch.setattr(module, "compile_run", counted)
        for name in ("build_problem", "build_sr_baseline"):
            def record(run, _build=getattr(cli, name), **history):
                histories.append(history)
                return _build(run, **history)
            monkeypatch.setattr(cli, name, record)
        assert main(["check", preset]) == 0
        assert capsys.readouterr().out == CHECK_OUTPUT[preset]
        assert len(compiled) == 1
        [history] = histories
        k0 = compiled[0].k_event
        if k0:
            cfg = ScenarioConfig.from_file(preset_path(preset))
            idle = run(cfg.system, cfg.formula, cfg.table, replace(cfg.run_config, sim_steps=k0))
            np.testing.assert_array_equal(history["state_history"], idle.states, strict=True)
            assert history["input_history"].shape == (k0, cfg.system.m)
            assert not history["input_history"].any()
        else:
            assert history == {}

    @pytest.mark.parametrize("preset", PRESETS)
    def test_check_counts_nonzeros(self, preset, capsys, monkeypatch):
        # each branch's printed nonzeros are those of its dense constraint matrix
        built = []
        for name in ("build_problem", "build_sr_baseline"):
            def record(*args, _build=getattr(cli, name), **kwargs):
                problems = _build(*args, **kwargs)
                built.extend(problems if isinstance(problems, list) else [problems])
                return problems
            monkeypatch.setattr(cli, name, record)
        assert main(["check", preset]) == 0
        counts = [int(c) for c in re.findall(r"(\d+) nonzeros", capsys.readouterr().out)]
        assert counts == [np.count_nonzero(p.A_ub) for p in built]
        assert all(count > 0 for count in counts)

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


def phi3_copy(tmp_path: Path, name: str, text: str, horizon: int = 35) -> Path:
    """A copy of the two_tank_phi3 preset with another formula and horizon."""
    lines = preset_path("two_tank_phi3").read_text().splitlines()
    edits = {"text": text, "horizon": str(horizon), "trace": f"{name}.csv"}
    path = tmp_path / f"{name}.ini"
    path.write_text("\n".join(
        f"{key} = {edits[key]}" if (key := line.partition(" = ")[0]) in edits else line
        for line in lines) + "\n")
    return path


NESTED = "G[0,inf](G[0,60](F[0,36](x1 >= 2)) & ((x1 <= 4) U[180,420] F[0,24](x2 <= 2.5)))"
PHI3 = "G[0,inf](F[120,240](x1 >= 2) & (x1 <= 4) U[180,420] (x2 <= 2.5) & {})"


class TestNestedFormulas:
    """``monitor`` reads bounded STL; ``run`` and ``check`` take the control fragment."""

    @pytest.fixture
    def phi3_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "two_tank_phi3"]) == 0
        capsys.readouterr()
        return tmp_path / "two_tank_phi3_trace.csv"

    @pytest.mark.parametrize("horizon", [35, 40])  # h_d = 37
    def test_monitor_prints_the_readouts(self, horizon, phi3_trace, tmp_path, capsys):
        cfg_path = phi3_copy(tmp_path, "nested", NESTED, horizon)
        assert main(["monitor", str(cfg_path), str(phi3_trace)]) == 0
        cfg = ScenarioConfig.from_file(cfg_path)
        grid = cfg.system.grid
        sched = compute_schedule(collect_event_ops(cfg.formula), grid)
        r = readouts(Signal(read_trace(phi3_trace)[0], grid), cfg.formula, cfg.table, sched)
        out = capsys.readouterr().out.splitlines()
        assert out == [line[2:] for line in cli._readout_lines(r)]
        assert out[-1] == "rd = unverifiable" and r.sr is not None

    @pytest.mark.parametrize("horizon", [35, 40])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_run_and_check_reject_it(self, command, horizon, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = phi3_copy(tmp_path, "nested", NESTED, horizon)
        assert main([command, str(cfg_path)]) == 2
        assert "always-operand must be a predicate, got Eventually" in capsys.readouterr().err
        assert not (tmp_path / "nested.csv").exists()

    def test_negated_temporal_conjunct_is_its_pnf(self, phi3_trace, tmp_path, capsys):
        negated = phi3_copy(tmp_path, "negated", PHI3.format("!G[0,24](x1 <= 1)"))
        positive = phi3_copy(tmp_path, "positive", PHI3.format("F[0,24](x1 >= 1)"))
        assert main(["check", str(negated)]) == 0
        assert main(["run", str(negated)]) == 0
        capsys.readouterr()
        printed = []
        for path in (negated, positive):
            assert main(["monitor", str(path), str(phi3_trace)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


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
