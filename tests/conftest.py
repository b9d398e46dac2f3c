"""Fixtures shared by the test modules."""

import collections
import types

import numpy as np
import pytest

from sipcert import linsolve, solver


@pytest.fixture
def lp_counts(monkeypatch):
    """Calls of `linsolve._elastic_fit`, the one LP behind every cone query,
    counted by their ``what`` label: "cone feasibility", "hull feasibility",
    "margin" or "slater cut"."""
    counts = collections.Counter()
    fit = linsolve._elastic_fit

    def counting(F, G, H, v, what, cost=None):
        counts[what] += 1
        return fit(F, G, H, v, what, cost)

    monkeypatch.setattr(linsolve, "_elastic_fit", counting)
    return counts


@pytest.fixture
def polish_steps(monkeypatch):
    """One record per `solver._polish` call, in call order: its ``inputs``
    (instance, working set, x), its ``steps`` and its ``result``. A Newton step
    is one `np.linalg.solve` for a direction, whether a damped trial along it
    is accepted or not."""
    records, running = [], []
    polish, linalg_solve = solver._polish, np.linalg.solve

    def counting_solve(*args, **kwargs):
        if running:
            running[-1].steps += 1
        return linalg_solve(*args, **kwargs)

    def counting_polish(inst, working, x):
        record = types.SimpleNamespace(inputs=(inst, list(working), x.copy()), steps=0, result=None)
        records.append(record)
        running.append(record)
        try:
            record.result = polish(inst, working, x)
        finally:
            running.pop()
        return record.result

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(solver, "_polish", counting_polish)
    return records
