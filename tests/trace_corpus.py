"""Print one SHA-256 digest per closed-loop trace of a fixed corpus.

Run from the repository root:

    PYTHONPATH=src python tests/trace_corpus.py > digests.txt

and diff the output of two checkouts to show that a change keeps every
trace bit-identical, or compare with a saved list in one step:

    PYTHONPATH=src python tests/trace_corpus.py --against digests.txt

which prints each label whose digest differs from the saved one or is
missing on either side, and exits 1 if there is any.  Each digest covers
the states, inputs, noises, statuses and objectives of one ``mpc.run`` and
its six readouts at ``%.17g``, and the same five arrays after a
``cli.emit_trace`` then ``cli.read_trace`` round trip, so it covers the
trace reader too.  The corpus is built once and run twice in one process:
the ``cold`` pass meets each scenario for the first time, the ``warm`` pass
repeats it with the same ``RunConfig`` objects, so it meets the compiled runs
``mpc.run`` kept on them, and reuse is covered both ways.  BLAS runs on one
thread.

The corpus: the five noise-free presets; the three noisy presets at noise
seeds 0-15; ``two_tank_phi3`` under an input penalty of 0.01 I;
``two_tank_phi3`` under a total input budget of 40 (which binds); and
``two_tank_phi3_noisy`` at noise seeds 0-3 with its formula in a disjunction
(``+or``), so each step solves two branches: one with epigraph rows and one
whose cost is a vector only.

The closed-loop traces are 51 samples long, so each pass also prints one
``monitor@`` digest of the six readouts (``mpc.readouts`` at ``%.17g``, with
the schedule ``stlmpc monitor`` computes) per formula of the ``monitor_long``
benchmark workload and of three nested formulas (``nested_phi3``: eventually
operators inside an always and inside an until; ``nested_until``: an until
inside an always; ``nested_until_left``: an eventually as an until's left
operand), per generated recording: 1001 and 3001 samples of the
two-tank plant under piecewise-constant inputs and small noise, each as is,
with ``-0.0`` samples and samples on the predicate thresholds (``+zeros``), and
with NaN samples besides (``+nan``).  A readout of an all-time formula is a
mean or minimum over up to 3000 anchors, which can absorb a last-bit change
at one anchor; ``tests/test_semantics.py::TestLongSignals`` compares the
evaluators with the reference anchor by anchor.

Each pass also prints one ``read@3001[+edit]`` digest of the five arrays
``cli.read_trace`` returns for the 3001-sample ``+nan`` recording written by
``cli.emit_trace``: as written, with CRLF line ends (``+crlf``), with blank
and whitespace-only lines (``+blank``), with indented comment lines
(``+comments``) and with a trailing column (``+column``).

Each pass also prints one ``parse@`` digest per packaged preset's formula
text and the disjunction's, parsed as written with the default
``n_states``, and one per nested formula above, pretty-printed over its
table and parsed back.  A ``parse@`` digest covers the formula's ``repr``
and the table's ``C`` and ``c`` at ``%.17g`` and its names.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import configparser  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from stlmpc import cli, compute_schedule, mpc, parser, semantics, stl  # noqa: E402

NOISE_FREE = ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3", "example2_dasr", "example2_sr")
NOISY = ("two_tank_phi1_noisy", "two_tank_phi2_noisy", "two_tank_phi3_noisy")
SEEDS = range(16)
# two_tank_phi3_noisy's formula or an always: a two-conjunct and a one-conjunct branch
DISJUNCTION = ("G[0,inf](F[120,240](x1 >= 2) & (x1 <= 4) U[180,420] (x2 <= 2.5)"
               " | G[0,60](x1 <= 1.5))")
DISJUNCTION_SEEDS = range(4)
MONITOR = ("two_tank_phi1", "two_tank_phi2", "two_tank_phi3", "example2_dasr")
MONITOR_SAMPLES = (1001, 3001)
THRESHOLDS = ((0, (0.0, 1.0, 2.0, 4.0, 5.0)), (1, (2.5,)))     # (state, values)
# nested formulas over the two-tank states, built from nodes so that a checkout
# whose parser rejects nesting computes their digests too; the predicates are
# x1 >= 2, x1 <= 4, x2 <= 2.5, x1 >= 2.5, x2 >= 0.5 and x1 <= 3
NESTED_TABLE = stl.PredicateTable([[1, 0], [-1, 0], [0, -1], [1, 0], [0, 1], [-1, 0]],
                                  [-2, 4, 2.5, -2.5, -0.5, 3])
_P = [stl.Pred(i) for i in range(NESTED_TABLE.size)]
NESTED = {
    # G[0,inf](G[0,60](F[0,36](x1 >= 2)) & ((x1 <= 4) U[180,420] F[0,24](x2 <= 2.5)))
    "nested_phi3": stl.AllTime(stl.And((
        stl.Always(stl.Eventually(_P[0], 0.0, 36.0), 0.0, 60.0),
        stl.Until(_P[1], stl.Eventually(_P[2], 0.0, 24.0), 180.0, 420.0)))),
    # G[0,inf](G[0,48]((x1 >= 2.5) U[0,36] (x2 >= 0.5)) | F[0,24](x1 <= 3))
    "nested_until": stl.AllTime(stl.Or((
        stl.Always(stl.Until(_P[3], _P[4], 0.0, 36.0), 0.0, 48.0),
        stl.Eventually(_P[5], 0.0, 24.0)))),
    # G[0,inf](F[0,24](x1 >= 2) U[180,420] (x2 <= 2.5))
    "nested_until_left": stl.AllTime(stl.Until(stl.Eventually(_P[0], 0.0, 24.0), _P[2],
                                               180.0, 420.0)),
}


def corpus():
    """(label, scenario, run config, noise) of every run."""
    for name in NOISE_FREE:
        cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
        yield name, cfg, cfg.run_config, cfg.noise
    for name in NOISY:
        cfg = cli.ScenarioConfig.from_file(cli.preset_path(name))
        for seed in SEEDS:
            yield f"{name}@{seed}", cfg, cfg.run_config, dataclasses.replace(cfg.noise, seed=seed)
    cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi3"))
    variants = {
        "two_tank_phi3+penalty": dict(input_penalty=0.01 * np.eye(cfg.system.m)),
        "two_tank_phi3+budget": dict(budget_total=40.0),
    }
    for label, change in variants.items():
        control = dataclasses.replace(cfg.run_config.control, **change)
        yield label, cfg, dataclasses.replace(cfg.run_config, control=control), cfg.noise
    cfg = cli.ScenarioConfig.from_file(cli.preset_path("two_tank_phi3_noisy"))
    formula, table = stl.to_pnf(*parser.parse(DISJUNCTION, n_states=cfg.system.n))
    cfg = dataclasses.replace(cfg, formula=formula, table=table)
    for seed in DISJUNCTION_SEEDS:
        yield (f"two_tank_phi3_noisy+or@{seed}", cfg, cfg.run_config,
               dataclasses.replace(cfg.noise, seed=seed))


def _update(h, arrays, statuses) -> None:
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(" ".join(statuses).encode())


def _update_readout(h, r: semantics.RobustnessReadout) -> None:
    h.update(" ".join(repr(v) if v is None or isinstance(v, bool) else "%.17g" % v
                      for v in (r.satisfied, r.sr, r.dasr, r.dsasr, r.prd, r.rd)).encode())


def digest(trace: mpc.Trace, csv: Path) -> str:
    """Digest of a run and of its trace written to ``csv`` and read back."""
    h = hashlib.sha256()
    _update(h, (trace.states, trace.inputs, trace.noises, trace.objectives), trace.statuses)
    _update_readout(h, trace.readout)
    cli.emit_trace(trace, csv)
    states, inputs, noises, statuses, objectives = cli.read_trace(csv)
    _update(h, (states, inputs, noises, objectives), statuses)
    return h.hexdigest()


def recording(system: mpc.LtiSystem, samples: int, variant: str) -> mpc.Trace:
    """A generated recording; its states are the same for every formula."""
    rng = np.random.default_rng(samples)
    K = samples - 1
    u = np.zeros((samples, 1))
    u[:K] = np.repeat(rng.uniform(1.6, 2.6, size=K // 10 + 1), 10)[:K, None]
    x, v = np.zeros((samples, system.n)), np.zeros((samples, system.n))
    x[0] = np.linalg.solve(np.eye(system.n) - system.A, system.B @ u[0])
    for k in range(K):
        v[k] = 0.02 * rng.standard_normal(system.n)
        x[k + 1] = system.step(x[k], u[k], v[k])
    if variant in ("+zeros", "+nan"):
        x[rng.choice(samples, samples // 20, replace=False)] = -0.0
        for state, values in THRESHOLDS:
            x[rng.choice(samples, samples // 10, replace=False), state] = rng.choice(
                values, samples // 10)
    if variant == "+nan":
        x[rng.choice(samples, 3, replace=False), rng.integers(system.n, size=3)] = np.nan
    statuses = tuple(np.resize(("optimal", "relaxed", "iteration-limit", "idle"), K)) + ("final",)
    return mpc.Trace(states=x, inputs=u, noises=v, statuses=statuses, objectives=np.cumsum(v),
                     grid=system.grid, snr_db=0.0, readout=semantics.RobustnessReadout())


def _data_lines(text: str, edit) -> str:
    """The text with ``edit`` applied to every line after the header that is not a comment."""
    header, *rest = text.split("\n")
    return "\n".join([header] + [edit(line) if line and not line.startswith("#") else line
                                  for line in rest])


# hand edits the reader must see through; each keeps the data bit for bit
EDITS = {
    "": lambda text: text,
    "+crlf": lambda text: text.replace("\n", "\r\n"),
    "+blank": lambda text: _data_lines(text, lambda line: line + "\n\n  \t "),
    "+comments": lambda text: _data_lines(text, lambda line: "  # note\n\t#\n" + line),
    "+column": lambda text: _data_lines(text, lambda line: line + ",note").replace(
        "objective\n", "objective,note\n", 1),
}


def read_digests(csv: Path):
    """(label, digest) of the five arrays read back from hand-edited copies of
    the longest generated recording."""
    cfg = cli.ScenarioConfig.from_file(cli.preset_path(MONITOR[0]))
    cli.emit_trace(recording(cfg.system, MONITOR_SAMPLES[-1], "+nan"), csv)
    text = csv.read_text()
    for name, edit in EDITS.items():
        csv.write_bytes(edit(text).encode())
        states, inputs, noises, statuses, objectives = cli.read_trace(csv)
        h = hashlib.sha256()
        _update(h, (states, inputs, noises, objectives), statuses)
        yield f"read@{MONITOR_SAMPLES[-1]}{name}", h.hexdigest()


def monitor_digests():
    """(label, digest) of the readouts of every monitored recording."""
    cfgs = [cli.ScenarioConfig.from_file(cli.preset_path(name)) for name in MONITOR]
    system = cfgs[0].system
    formulas = [(name, cfg.formula, cfg.table) for name, cfg in zip(MONITOR, cfgs)]
    formulas += [(name, phi, NESTED_TABLE) for name, phi in NESTED.items()]
    for samples in MONITOR_SAMPLES:
        for variant in ("", "+zeros", "+nan"):
            states = recording(system, samples, variant).states
            for name, phi, table in formulas:
                windows = stl.collect_event_ops(stl.unwrap(phi))
                sched = compute_schedule(windows, system.grid) if windows else None
                r = mpc.readouts(semantics.Signal(states, system.grid), phi, table, sched)
                h = hashlib.sha256()
                _update_readout(h, r)
                yield f"monitor@{name}@{samples}{variant}", h.hexdigest()


def _parse_digest(text: str, event_time=None) -> str:
    formula, table = parser.parse(text, event_time=event_time)
    h = hashlib.sha256(repr(formula).encode())
    h.update(" ".join("%.17g" % v for v in (*table.C.ravel(), *table.c)).encode())
    h.update("\n".join(table.names).encode())
    return h.hexdigest()


def parse_digests():
    """(label, digest) of the formula and table that every preset's formula
    text and every pretty-printed nested formula parse to."""
    for path in sorted(cli.preset_path("two_tank_phi1").parent.glob("*.ini")):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.read(path)
        sec = cp["formula"]
        yield f"parse@{path.stem}", _parse_digest(sec["text"], sec.getfloat("event_time"))
    yield "parse@two_tank_phi3_noisy+or", _parse_digest(DISJUNCTION)
    for name, phi in NESTED.items():
        yield f"parse@{name}", _parse_digest(parser.pretty_print(phi, NESTED_TABLE))


def digests():
    """(pass, label, digest) of every run, cold pass first."""
    runs = list(corpus())
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "trace.csv"
        for pass_name in ("cold", "warm"):
            for label, cfg, config, noise in runs:
                trace = mpc.run(cfg.system, cfg.formula, cfg.table, config, noise)
                yield pass_name, label, digest(trace, csv)
            for label, d in monitor_digests():
                yield pass_name, label, d
            for label, d in read_digests(csv):
                yield pass_name, label, d
            for label, d in parse_digests():
                yield pass_name, label, d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a saved digest list instead of printing the digests")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in digests():
            print(*line, flush=True)
        return 0
    with open(args.against) as f:
        saved = {(p, label): d for p, label, d in (line.split() for line in f if line.strip())}
    got = {(p, label): d for p, label, d in digests()}
    keys = sorted(saved.keys() | got.keys())
    bad = 0
    for key in keys:
        if key not in got or key not in saved:
            print("missing", *key, "here" if key not in got else "in " + args.against)
        elif got[key] != saved[key]:
            print("differs", *key)
        else:
            continue
        bad += 1
    print(f"{len(keys) - bad} of {len(keys)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
