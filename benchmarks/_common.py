"""Shared helpers for the benchmark harness.

Every bench regenerates one paper table or figure via
:mod:`repro.experiments.figures`, prints the paper-vs-measured text block
(bypassing pytest's capture so ``pytest benchmarks/ | tee`` records it),
and saves the block under ``results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def emit(name: str, text: str) -> None:
    """Print to the real stdout and persist to results/<name>.txt."""
    stream = getattr(sys, "__stdout__", sys.stdout) or sys.stdout
    stream.write(f"\n{text}\n")
    stream.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def checks_pass(out: dict) -> bool:
    return all(ok for _, ok in out["checks"])
