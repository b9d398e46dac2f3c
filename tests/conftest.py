"""Fixtures shared by the test modules."""

import collections

import pytest

from sipcert import linsolve


@pytest.fixture
def lp_counts(monkeypatch):
    """Calls of `linsolve._elastic_fit`, the one LP behind every cone query,
    counted by their ``what`` label: "cone feasibility", "hull feasibility"
    or "margin"."""
    counts = collections.Counter()
    fit = linsolve._elastic_fit

    def counting(F, G, H, v, what):
        counts[what] += 1
        return fit(F, G, H, v, what)

    monkeypatch.setattr(linsolve, "_elastic_fit", counting)
    return counts
