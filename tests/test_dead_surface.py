"""No definition in ``src/repro`` that only tests can reach.

Every function, method and class defined under ``src/repro`` must be
used somewhere in ``src``, ``perfbench``, ``examples`` or ``tools``
outside its own definition.  What counts as a use is read off the
syntax tree, never off raw text, so a comment, a docstring or a word in
an f-string's literal part names nothing:

* a method or property (a definition in a class body) is used only as
  an attribute, ``x.name``, or through a string constant that is
  exactly its name (``getattr(x, "name")``, an ``__all__`` entry);
* any other definition is used as well through a bare name or an
  import (``from m import name``, ``import m.name``).

Dunder methods are called by the language and are exempt.  A name that
only a test calls is weight the program carries for nothing; the test
should read what the system itself reads instead.

Blind spot: an attribute is matched by its name alone, not by the type
it is read on, so a method whose name another type also uses as an
attribute passes — a ``Simulator.stop`` would pass on the strength of
``range(...).stop``.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "perfbench", "examples", "tools")

#: kept on purpose, though nothing outside tests names them
ALLOWED = {
    # the consistency predicate the recovery-line oracle work builds on
    "line_is_consistent",
    # run_until's contract: what a caller reads to see the queue drained
    "pending_events",
    # the protocol feature table of core/features.py
    "feature_table",
}


def _uses(tree: ast.AST):
    """``(kind, name, line)`` of every use in one module: ``kind`` is
    ``"attr"`` for an attribute or an identifier string, ``"name"`` for
    a bare name or an imported one."""
    #: the literal parts of f-strings: text, not names
    literal = {id(part) for node in ast.walk(tree)
               if isinstance(node, ast.JoinedStr) for part in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield "attr", node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in literal:
            yield "attr", node.value, node.lineno
        elif isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield "name", part, node.lineno


def _definitions(tree: ast.AST):
    """``(node, in_class)`` of every function and class definition."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node, isinstance(parent, ast.ClassDef)


def test_every_definition_is_named_outside_tests():
    #: (kind, name) -> every (file, line) it is used at
    used = defaultdict(list)
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for kind, name, line in _uses(tree):
                used[kind, name].append((path, line))
    unreached = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, in_class in _definitions(tree):
            name = node.name
            if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            sites = used["attr", name]
            if not in_class:
                sites = sites + used["name", name]
            own = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in own for other, line in sites):
                unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreached, "named only in tests:\n" + "\n".join(sorted(unreached))
