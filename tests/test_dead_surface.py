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

The same holds for state: every dataclass field, class attribute and
``self.x`` assigned in ``__init__`` of a ``src/repro`` class must be
*read* somewhere in the same four trees, as an attribute load
(``x.name``, not ``x.name = ...`` or ``x.name += ...``) or through an
identifier string (``getattr``, ``attrgetter``, a payload key).  A
``__slots__`` entry declares a name and reads nothing.  A field that is
written and never read is work every instance pays for nothing.  A
``dataclasses.replace`` copy is no read either: it hands the value to
another instance of the same class.

Blind spot: an attribute is matched by its name alone, not by the type
it is read on, so a method whose name another type also uses as an
attribute passes — a ``Simulator.stop`` would pass on the strength of
``range(...).stop``, and a field passes the same way.  A class whose
fields a generic walk reads (``asdict`` into a cache key) would need an
``ALLOWED`` entry per field; none does today.
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
    # the event schema: fields no query happens to read
    "Auction.initial_bid",
    "JoinPair.link_src",
    # the row view: a poll reads records by position, a test by offset
    "LogRecord.offset",
    # bytes_written - bytes_deleted == total_bytes(), the blob-accounting
    # invariant of ROADMAP item 1's audit
    "BlobStore.bytes_written",
    "BlobStore.bytes_deleted",
    # what the error reports beside its message
    "RepeatedRidError.distinct",
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


def _reads(tree: ast.AST):
    """Every attribute name one module reads: attribute loads and
    identifier strings outside ``__slots__`` and f-string literals."""
    skipped = {id(part) for node in ast.walk(tree)
               if isinstance(node, ast.JoinedStr) for part in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            skipped.update(id(part) for part in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in skipped:
            yield node.value


def _fields(tree: ast.AST):
    """``(class, name, line)`` of every field, class attribute and
    ``self.x`` that ``__init__`` assigns."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield cls.name, name.id, node.lineno
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for step in ast.walk(node):
                    if isinstance(step, ast.Assign):
                        targets = step.targets
                    elif isinstance(step, ast.AnnAssign):
                        targets = [step.target]
                    else:
                        continue
                    for target in targets:
                        for attr in ast.walk(target):
                            if isinstance(attr, ast.Attribute) \
                                    and isinstance(attr.value, ast.Name) \
                                    and attr.value.id == "self":
                                yield cls.name, attr.attr, step.lineno


def test_every_field_is_read_outside_tests():
    read = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            read.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    unread = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, name, line in _fields(tree):
            if name in read or f"{cls}.{name}" in ALLOWED \
                    or (name.startswith("__") and name.endswith("__")):
                continue
            unread.add(f"{path.relative_to(ROOT)}:{line} {cls}.{name}")
    assert not unread, "written, never read:\n" + "\n".join(sorted(unread))
