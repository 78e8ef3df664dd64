"""The prose is held to the code where the two can drift.

Links: every ``DESIGN.md#…`` anchor that README or a source file points
at, and every section number that README, CI or a source, tool or test
file cites (``DESIGN.md section N``, ``sections N, M and K``, ``§N``),
must resolve to a heading of DESIGN.md, so a section can be rewritten,
renamed or renumbered without leaving a dead reference behind.  Grammars: DESIGN
sections 12 and 17 each state their spec grammar once, as a table, and
that table is the one in ``src``; every spec string the prose spells
after a flag still parses.
"""

import ast
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


#: one citation of DESIGN sections by number: ``DESIGN.md section 8``,
#: ``DESIGN sections 19, 20 and 22``, ``sections 19-21``, ``§23``, ``§5–6``
_CITATION = re.compile(
    r"DESIGN(?:\.md)?,? sections? (\d+(?:[–-]\d+)?"
    r"(?:(?:, | and |, and )\d+(?:[–-]\d+)?)*)"
    r"|§ ?(\d+(?:[–-]\d+)?)")


def _cited_sections(text: str) -> list[int]:
    """Every section number ``text`` cites; a range cites each number in
    it.  Line breaks and the comment leaders after them are read as one
    space, since a citation wraps where its line does."""
    text = re.sub(r"\s*\n\s*(?:#:?\s*)?", " ", text)
    numbers = []
    for match in _CITATION.finditer(text):
        for low, high in re.findall(r"(\d+)(?:[–-](\d+))?",
                                    match.group(1) or match.group(2)):
            numbers.extend(range(int(low), int(high or low) + 1))
    return numbers


def test_every_numbered_design_citation_resolves():
    sections = {int(number) for number
                in re.findall(r"^## (\d+)\. ", DESIGN, re.MULTILINE)}
    citing = [ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml",
              *sorted(path for top in ("src", "tools", "tests")
                      for path in (ROOT / top).rglob("*")
                      if path.suffix in (".py", ".md"))]
    cites = [(path.relative_to(ROOT), number) for path in citing
             for number in _cited_sections(path.read_text(encoding="utf-8"))]
    assert len(cites) >= 200  # src, tools, tests, CI and README cite ~230
    dead = sorted({f"{path}: {number}" for path, number in cites
                   if number not in sections})
    assert not dead, "citations of DESIGN.md sections that do not exist: " \
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


def _members() -> dict[str, set[str]]:
    """Every ``src/repro`` class by name, with what it or a base defines:
    methods, class attributes, fields and ``self.x`` assignments."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                ast.unparse(base).split(".")[-1] for base in cls.bases)
            for node in ast.walk(cls):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                               ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    names.add(node.attr)

    def inherited(name: str, seen: frozenset = frozenset()) -> set[str]:
        found = set(own[name])
        for base in bases[name] - seen:
            # a base outside src/repro (an Enum, an Exception) may define
            # anything: nothing is checked against it
            found |= inherited(base, seen | {name}) if base in own else {None}
        return found

    return {name: inherited(name) for name in own}


def test_every_class_member_the_prose_names_exists():
    """A backticked ``Class.member`` (or ``Class.member(...)``) in DESIGN
    or README names a member that the ``src/repro`` class, or one of its
    bases, defines; a method that moved leaves no stale name behind."""
    members = _members()
    cited = re.findall(r"`([A-Z]\w*)\.(\w+)(?:\([^`]*\))?`", README + DESIGN)
    checked = [(cls, name) for cls, name in cited if cls in members]
    assert len(checked) >= 100  # the prose names ~110 of them
    stale = sorted({f"{cls}.{name}" for cls, name in checked
                    if name not in members[cls] and None not in members[cls]})
    assert not stale, "members the prose names that do not exist: " \
        + "; ".join(stale)
