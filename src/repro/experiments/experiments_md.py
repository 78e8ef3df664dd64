"""Assemble EXPERIMENTS.md from the rendered result blocks.

``python -m repro all`` writes one text block per artifact into its
``--out`` directory, then stitches them through :func:`assemble` into
the EXPERIMENTS.md deliverable next to them: paper-vs-measured for every
table and figure plus the extension sweeps and ablations — one section
per entry of the spec table, in its order.
"""

from __future__ import annotations

import pathlib
from datetime import date

from repro.experiments import figures

_HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (Section VII),
regenerated by this repository's figure harness
(`python -m repro all --scale <scale> --out <dir>` writes this file).

Absolute numbers are simulation-scale (the substrate is a discrete-event
simulator, not the authors' cluster — see DESIGN.md section 2); the
comparisons that matter are the *shapes*: who wins, by what factor, and
where the crossovers sit.  Each block below ends with the shape claims
checked programmatically against the measured data ([PASS]/[FAIL]).

Scale: `{scale}`.  Generated: {generated}.
"""


def assemble(results_dir: str = "results", scale: str = "default") -> str:
    """Stitch the rendered result blocks into the EXPERIMENTS.md text."""
    directory = pathlib.Path(results_dir)
    # repro-lint: disable=RL003 -- document timestamp for the reader; runs post-simulation, never on simulated time
    parts = [_HEADER.format(scale=scale, generated=date.today().isoformat())]
    for spec in figures.SPECS.values():
        path = directory / f"{spec.name}.txt"
        parts.append(f"\n## {spec.heading}\n")
        parts.append(f"{spec.note}\n")
        if path.exists():
            parts.append("```\n" + path.read_text(encoding="utf-8").rstrip()
                         + "\n```\n")
        else:
            parts.append("_(not regenerated in the latest run)_\n")
    return "\n".join(parts)

