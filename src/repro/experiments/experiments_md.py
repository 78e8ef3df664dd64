"""Assemble EXPERIMENTS.md from the rendered result blocks.

``python -m repro all`` (or the benchmark harness) writes one text block
per artifact into ``results/``; this module stitches them into the
EXPERIMENTS.md deliverable, recording paper-vs-measured for every table
and figure plus the extension sweeps and ablations — one section per
entry of the spec table, in its order.
"""

from __future__ import annotations

import pathlib
from datetime import date

from repro.experiments.figures import SPECS

_HEADER = """# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (Section VII),
regenerated by this repository's benchmark harness
(`pytest benchmarks/bench_*.py --benchmark-only`, or `python -m repro all`).

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
    for spec in SPECS.values():
        path = directory / f"{spec.name}.txt"
        parts.append(f"\n## {spec.heading}\n")
        parts.append(f"{spec.note}\n")
        if path.exists():
            parts.append("```\n" + path.read_text(encoding="utf-8").rstrip()
                         + "\n```\n")
        else:
            parts.append("_(not regenerated in the latest run)_\n")
    return "\n".join(parts)


def write(results_dir: str = "results", output: str = "EXPERIMENTS.md",
          scale: str = "default") -> pathlib.Path:
    """Assemble and write EXPERIMENTS.md; returns the output path."""
    path = pathlib.Path(output)
    path.write_text(assemble(results_dir, scale), encoding="utf-8")
    return path


if __name__ == "__main__":  # pragma: no cover
    import sys

    target = write(scale=sys.argv[1] if len(sys.argv) > 1 else "default")
    print(f"wrote {target}")
