"""Every artifact of the spec table, one parametrised bench.

Regenerates each entry of ``figures.ALL_EXPERIMENTS`` — paper tables and
figures, extension sweeps, ablations — at the scale selected by
CHECKMATE_SCALE (quick / default / full), checks its qualitative shape
claims, prints the paper-vs-measured block (bypassing pytest's capture so
``pytest benchmarks/ | tee`` records it) and saves it as
``results/<registry name>.txt`` — the file EXPERIMENTS.md is assembled
from.  Select one with ``-k <name>``.
"""

import pathlib
import sys

import pytest

from repro.experiments import figures

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("name", list(figures.ALL_EXPERIMENTS))
def test_figure(benchmark, name):
    out = benchmark.pedantic(figures.ALL_EXPERIMENTS[name], rounds=1, iterations=1)
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write(f"\n{out['text']}\n")
    stream.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(out["text"] + "\n", encoding="utf-8")
    assert out["rows"], "experiment produced no data"
    assert all(ok for _, ok in out["checks"]), (
        "a paper shape claim failed - see the emitted table")
