"""The prose is held to the code where the two can drift.

Links first: every ``DESIGN.md#…`` anchor that README or a source file
points at must resolve to a heading of DESIGN.md, so a section can be
rewritten or renamed without leaving a dead link behind.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text(encoding="utf-8")


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
