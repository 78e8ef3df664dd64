"""Every paper table and figure, one parametrised bench.

Regenerates each artifact of ``figures.ALL_EXPERIMENTS`` at the scale
selected by CHECKMATE_SCALE (quick / default / full), checks its
qualitative shape claims and emits ``results/<registry name>.txt`` — the
file EXPERIMENTS.md is assembled from.  Select one with ``-k <name>``.
"""

import pytest

from repro.experiments import figures

from benchmarks._common import checks_pass, emit


@pytest.mark.parametrize("name", list(figures.ALL_EXPERIMENTS))
def test_figure(benchmark, name):
    out = benchmark.pedantic(figures.ALL_EXPERIMENTS[name], rounds=1, iterations=1)
    emit(name, out["text"])
    assert out["rows"], "experiment produced no data"
    assert checks_pass(out), "a paper shape claim failed - see the emitted table"
