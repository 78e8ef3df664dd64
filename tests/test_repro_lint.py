"""Self-tests for the repro-lint analyzer.

Each rule gets fixture-driven fire / no-fire coverage (the fixtures in
``tests/lint_fixtures/`` are analyzer inputs, excluded from ruff and
never imported), the suppression pragma is exercised in both its
justified and unjustified forms, and the shipped baseline is asserted to
match a fresh scan of ``src/repro`` — the gate cannot rot silently.
"""

import ast
import pathlib

import pytest

from tools.analysis_common import SourceFile
from tools.repro_lint import (
    DEFAULT_BASELINE,
    RULES,
    default_config,
    fixture_config,
    load_baseline,
    scan_file,
    scan_paths,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
CONFIG = fixture_config(FIXTURES.as_posix())

ALL_CODES = [code for code, _name, _check in RULES]


def fixture_findings(name: str):
    src = SourceFile.load(FIXTURES / name)
    return scan_file(src, CONFIG)


# --------------------------------------------------------------------- #
# Per-rule fire / no-fire
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_fires_on_its_fixture(code):
    name = f"{code.lower()}_fire.py"
    codes = {f.code for f in fixture_findings(name)}
    assert code in codes, f"{name} did not trip {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_quiet_on_clean_fixture(code):
    name = f"{code.lower()}_clean.py"
    codes = {f.code for f in fixture_findings(name)}
    assert code not in codes, f"{name} unexpectedly tripped {code}"


def test_fire_fixtures_report_every_seeded_violation():
    """Spot-check finding counts, not just presence."""
    assert len([f for f in fixture_findings("rl001_fire.py")
                if f.code == "RL001"]) == 2  # hash() and id()
    assert len([f for f in fixture_findings("rl004_fire.py")
                if f.code == "RL004"]) == 4  # comp, for, tuple(), list(keys())
    assert len([f for f in fixture_findings("rl008_fire.py")
                if f.code == "RL008"]) == 2  # except Exception and bare except


# --------------------------------------------------------------------- #
# Suppression pragma
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", ["rl001_suppressed.py", "rl006_suppressed.py"])
def test_justified_suppression_silences_the_finding(name):
    assert fixture_findings(name) == []


def test_unjustified_suppression_reports_rl000():
    findings = fixture_findings("rl000_unjustified.py")
    assert [f.code for f in findings] == ["RL000"]
    assert "justification" in findings[0].message


def test_pragma_covers_only_its_target_line():
    """A pragma for one line must not blanket the rest of the file."""
    src = SourceFile.load(FIXTURES / "rl001_suppressed.py")
    text = src.text + "\n\ndef second(key: str) -> int:\n    return hash(key)\n"
    patched = SourceFile(path=src.path, rel=src.rel, text=text,
                         lines=text.splitlines(), tree=ast.parse(text))
    codes = [f.code for f in scan_file(patched, CONFIG)]
    assert codes == ["RL001"]  # only the new, uncovered call


def test_pragma_disables_multiple_codes_at_once():
    text = (
        "import random  # repro-lint: disable=RL002,RL001 -- fixture: multi-code pragma\n"
    )
    patched = SourceFile(path=FIXTURES / "inline.py",
                         rel=(FIXTURES / "inline.py").as_posix(), text=text,
                         lines=text.splitlines(), tree=ast.parse(text))
    assert scan_file(patched, CONFIG) == []


# --------------------------------------------------------------------- #
# Scopes and the shipped gate
# --------------------------------------------------------------------- #

def test_default_scopes_exempt_the_allowlisted_files():
    config = default_config()
    assert not config.scope_for("RL002").matches("src/repro/sim/rng.py")
    assert config.scope_for("RL002").matches("src/repro/sim/failure.py")
    assert not config.scope_for("RL003").matches("src/repro/cli.py")
    assert not config.scope_for("RL003").matches(
        "src/repro/experiments/parallel.py")
    assert config.scope_for("RL003").matches("src/repro/experiments/figures.py")


def test_event_model_is_held_to_slotted_dataclasses():
    """``rows_from_columns`` fills the NexMark event classes through their
    slot descriptors, so ``model.py`` is a hot-path module: the shipped
    file is clean, the same file without ``slots=True`` trips RL005."""
    rel = "src/repro/workloads/nexmark/model.py"
    text = (REPO / rel).read_text(encoding="utf-8")
    assert "slots=True" in text

    def rl005(source: str) -> list:
        src = SourceFile(path=REPO / rel, rel=rel, text=source,
                         lines=source.splitlines(), tree=ast.parse(source))
        return [f for f in scan_file(src, default_config())
                if f.code == "RL005"]

    assert rl005(text) == []
    assert len(rl005(text.replace(", slots=True", ""))) == 3


def test_shipped_tree_is_clean_and_baseline_matches_fresh_scan(monkeypatch):
    """`python -m tools.repro_lint src/repro` must exit 0 on the shipped
    tree, and the checked-in baseline must equal a fresh scan (empty)."""
    monkeypatch.chdir(REPO)
    findings = scan_paths([pathlib.Path("src/repro")])
    baseline = load_baseline(DEFAULT_BASELINE)
    assert {f.key for f in findings} == baseline
    assert baseline == set(), (
        "the shipped baseline is expected to stay empty — fix or justify "
        "new findings instead of baselining them"
    )
