"""Experiment harness: one entry point per paper table and figure.

See :mod:`repro.experiments.figures` for the spec table and its one
driver, ``run_figure(spec, scale, runner)``, and DESIGN.md section 5 for
the experiment index.  The scale (quick / default / full parameter
grids, :mod:`repro.experiments.config`) and the runner are arguments:
``repro run|all --scale`` picks the one, ``--jobs`` / ``--cache-dir``
build the other.
"""

from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_query

__all__ = ["ExperimentScale", "run_query"]
