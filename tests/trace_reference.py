"""Row-by-row reference reader for trace CSV files.

This is the reader :func:`stlmpc.cli.read_trace` replaced: one list of fields
per row, converted by ``np.array`` from nested lists of strings.  It is the
oracle the package's reader must reproduce bit for bit on well-formed
files: the same dtypes, shapes and bytes, and the same statuses.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def read_trace(path: str | Path):
    """Read an emitted CSV back into (states, inputs, noises, statuses, objectives)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    rows = [line.split(",") for raw in body.split("\n")
            if (line := raw.strip()) and not line.startswith("#")]
    if not rows:
        return np.empty((0, n)), np.empty((0, m)), np.empty((0, n)), (), np.empty(0)
    status = 2 + 2 * n + m
    statuses = tuple(r[status] for r in rows)
    # states, inputs, noises, objective: every numeric column after k and t
    values = np.array([r[2:status] + r[status + 1:status + 2] for r in rows], dtype=float)
    return (values[:, :n].copy(), values[:, n:n + m].copy(), values[:, n + m:status - 2].copy(),
            statuses, values[:, status - 2].copy())
