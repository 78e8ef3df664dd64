"""The prose is held to the code where the two can drift.

Links: every ``DESIGN.md#…`` anchor that README or a source file points
at must resolve to a heading of DESIGN.md, so a section can be rewritten
or renamed without leaving a dead link behind.  Grammars: DESIGN
sections 12 and 17 each state their spec grammar once, as a table, and
that table is the one in ``src``; every spec string the prose spells
after a flag still parses.
"""

import pathlib
import re

import pytest

from repro.sim.failure import SCENARIOS, parse_scenario
from repro.sim.specs import usage
from repro.workloads.arrivals import ARRIVALS, check_arrival

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _slug(heading: str) -> str:
    """GitHub's anchor of a heading: lower case, punctuation dropped,
    spaces to hyphens."""
    kept = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return kept.replace(" ", "-")


def test_every_design_anchor_linked_from_readme_and_source_resolves():
    anchors = {_slug(match.group(1))
               for match in re.finditer(r"^#+ (.+)$", DESIGN, re.MULTILINE)}
    linking = [ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py"))]
    links = [(path.relative_to(ROOT), anchor)
             for path in linking
             for anchor in re.findall(r"DESIGN\.md#([\w\-]+)",
                                      path.read_text(encoding="utf-8"))]
    assert len(links) >= 20  # README's layer table alone links a dozen
    dead = [f"{path}: #{anchor}" for path, anchor in links
            if anchor not in anchors]
    assert not dead, "links to DESIGN.md headings that do not exist: " \
        + "; ".join(dead)


@pytest.mark.parametrize("number, kinds", [(12, SCENARIOS), (17, ARRIVALS)])
def test_design_states_each_grammar_once_as_the_source_table(number, kinds):
    """Kinds, parameter names and defaults: the first column of the
    section's table is ``usage()`` of the table the parser reads."""
    section = DESIGN[DESIGN.index(f"\n## {number}. "):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert rows == usage(kinds)


def test_every_spec_string_the_prose_spells_parses():
    prose = README + DESIGN
    scenarios = re.findall(r"--failure-scenario '([^']+)'", prose)
    arrivals = re.findall(r"--arrival '?([^'\s`]+)", prose)
    assert len(scenarios) >= 5 and len(arrivals) >= 6
    for spec in scenarios:
        parse_scenario(spec)
    for spec in arrivals:
        check_arrival(spec)  # README's trace path is an example, not a file
