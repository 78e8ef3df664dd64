"""Tests for the EXPERIMENTS.md assembler."""

import pathlib
import re
from dataclasses import replace

from repro.cli import main
from repro.experiments import figures
from repro.experiments.experiments_md import assemble
from repro.experiments.parallel import RunRequest


def test_assemble_includes_available_blocks(tmp_path):
    (tmp_path / "fig7.txt").write_text("FIG7 CONTENT [PASS] x\n")
    text = assemble(results_dir=str(tmp_path), scale="quick")
    assert "FIG7 CONTENT" in text
    assert "Figure 7" in text
    assert "_(not regenerated in the latest run)_" in text  # missing blocks
    assert "Scale: `quick`" in text


def test_assemble_mentions_every_paper_artifact(tmp_path):
    text = assemble(results_dir=str(tmp_path))
    for title in ["Figure 7", "Table II", "Figure 8", "Figure 9", "Figure 10",
                  "Figure 11", "Table III", "Figure 12", "Figure 13",
                  "Table IV"]:
        assert title in text


#: every section EXPERIMENTS.md carries, in document order
SECTION_NAMES = list(figures.SPECS)
GOLDEN = pathlib.Path(__file__).parent / "data" / "experiments_md_golden.md"


def _assemble_over_fixture_dir(directory: pathlib.Path) -> str:
    """``assemble`` over one block per section (two left out, so the
    not-regenerated branch is covered), with the date line blanked."""
    for name in SECTION_NAMES:
        if name not in ("fig13", "ablation_logging"):
            (directory / f"{name}.txt").write_text(
                f"{name} block\n  [PASS] a claim about {name}\n")
    text = assemble(results_dir=str(directory), scale="quick")
    return re.sub(r"Generated: \S+", "Generated: DATE.", text)


def test_assemble_matches_the_recorded_document(tmp_path):
    """Titles, notes, order and layout are pinned to the document the
    hand-written section table produced (recorded before the notes moved
    into the figure specs; re-recorded once when the ablations became
    specs: their five notes and the participation heading)."""
    assert _assemble_over_fixture_dir(tmp_path) == GOLDEN.read_text()


def _one_run_spec(name: str) -> figures.FigureSpec:
    """A one-cell spec: the sink records of a two-second q1 run."""
    return figures.FigureSpec(
        name=name, heading=f"{name} heading", note=f"{name} note",
        title=f"{name} table", headers=("sink records",),
        cells=lambda scale: [()],
        point=lambda scale: RunRequest("q1", "none", 2, 100.0, duration=2.0,
                                       warmup=1.0, seed=scale.seed),
        measure=lambda result, scale: sum(result.metrics.sink_counts.values()),
        row=lambda entry, result, scale: [entry],
        checks=lambda measured, scale, results: [
            ("the run reaches the sink", measured[()] > 0)])


def test_bench_emits_the_files_assemble_reads(tmp_path, monkeypatch):
    """``repro all`` is the one driver: every spec's block lands in
    ``--out`` as ``<name>.txt``, the name ``assemble`` reads, and
    EXPERIMENTS.md next to them carries each of them."""
    monkeypatch.setattr(figures, "SPECS", {
        name: _one_run_spec(name) for name in ("alpha", "beta")})
    assert main(["all", "--scale", "quick", "--out", str(tmp_path)]) == 0
    document = (tmp_path / "EXPERIMENTS.md").read_text()
    for name in ("alpha", "beta"):
        block = (tmp_path / f"{name}.txt").read_text()
        assert f"```\n{block.rstrip()}\n```" in document
    assert "not regenerated" not in document


def test_write_creates_file(tmp_path, monkeypatch):
    """``repro all`` creates EXPERIMENTS.md in a fresh ``--out``
    directory, stamped with the scale the sweep ran at."""
    monkeypatch.setattr(figures, "SPECS", {"gamma": _one_run_spec("gamma")})
    out = tmp_path / "results"
    assert main(["all", "--scale", "quick", "--out", str(out)]) == 0
    path = out / "EXPERIMENTS.md"
    assert path.exists()
    document = path.read_text()
    assert "gamma heading" in document
    assert (out / "gamma.txt").read_text().rstrip() in document
    assert "Scale: `quick`" in document


def test_a_figure_that_fails_shows_no_earlier_sweeps_block(tmp_path,
                                                          monkeypatch):
    """A figure that raises in this sweep reads "not regenerated", never
    the block an earlier sweep left in ``--out``."""

    def broken(scale):
        raise RuntimeError("cells broke")

    spec = replace(_one_run_spec("delta"), cells=broken)
    monkeypatch.setattr(figures, "SPECS", {"delta": spec})
    (tmp_path / "delta.txt").write_text("AN EARLIER SWEEP'S BLOCK\n")
    assert main(["all", "--scale", "quick", "--out", str(tmp_path)]) == 1
    document = (tmp_path / "EXPERIMENTS.md").read_text()
    assert "AN EARLIER SWEEP'S BLOCK" not in document
    assert "_(not regenerated in the latest run)_" in document
    assert not (tmp_path / "delta.txt").exists()
