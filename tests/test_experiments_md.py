"""Tests for the EXPERIMENTS.md assembler."""

import pathlib
import re

from repro.experiments import figures
from repro.experiments.experiments_md import assemble, write


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


def test_write_creates_file(tmp_path):
    (tmp_path / "table4.txt").write_text("TAB4\n")
    out = tmp_path / "EXPERIMENTS.md"
    path = write(results_dir=str(tmp_path), output=str(out), scale="quick")
    assert path.exists()
    assert "TAB4" in path.read_text()


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


def test_bench_emits_the_files_assemble_reads(tmp_path, monkeypatch):
    """``pytest benchmarks/`` feeds EXPERIMENTS.md: for every registry
    name, the block the figure bench writes is the block ``assemble``
    reads (the per-figure benches used to write ``fig07_mst.txt`` & co.,
    which nothing read)."""
    from benchmarks import bench_figures

    class Once:
        """Stands in for the ``benchmark`` fixture: one plain call."""

        @staticmethod
        def pedantic(fn, rounds, iterations):
            return fn()

    monkeypatch.setattr(bench_figures, "RESULTS_DIR", tmp_path)
    for name in figures.ALL_EXPERIMENTS:
        monkeypatch.setitem(
            figures.ALL_EXPERIMENTS, name,
            lambda name=name: {"rows": [[name]], "checks": [],
                               "text": f"{name} block"})
        bench_figures.test_figure(Once, name)
    text = assemble(results_dir=str(tmp_path))
    for name in figures.ALL_EXPERIMENTS:
        assert f"```\n{name} block\n```" in text
    assert "_(not regenerated in the latest run)_" not in text
