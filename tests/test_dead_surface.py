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

And the same holds for settings: every defaulted parameter of a
``src/repro`` function and every defaulted dataclass field must receive
a value somewhere in the four trees, by keyword, by position, through
``*`` / ``**`` or ``dataclasses.replace``, or as an identifier string
outside its own definition (the spec-grammar tables name constructor
parameters so).  A setting nothing but a test sets is a constant spelled
as a knob, with the validation and the tests its other values need.
Not settings: a field built by ``default_factory`` or assigned through
an attribute anywhere (state), and the parameters of a function or
class used as a value (a callback, a factory, a spec's ``point``), whose
callers the syntax tree cannot see.  A call reaches a function by its
name: ``f(...)``, ``x.f(...)``, ``C(...)`` for ``C.__init__``.

Blind spot: an attribute is matched by its name alone, not by the type
it is read on, so a method whose name another type also uses as an
attribute passes — a ``Simulator.stop`` would pass on the strength of
``range(...).stop`` (``Simulator.run`` passed on ``ParallelRunner.run``
until a census of every entry point found it), and a field passes the
same way; a setting passes when a call of another function of the same
name sets it.  A class whose
fields a generic walk reads (``asdict`` into a cache key) would need an
``ALLOWED`` entry per field; none does today.  And a name is all this
sees: a branch of a used function that only a test reaches passes.  The
line census, ``python -m tools.census --check`` (DESIGN.md section 14),
sees those: it runs every entry point under a line tracer and fails on
an unexecuted range of ``core/``, ``dataflow/`` or ``storage/`` that
``tools/census_allow.txt`` does not list with its reason.
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
    # the probe runner: every program search uses a serial runner, and
    # tests stub it to script each probe's verdict
    "find_mst(runner)",
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



def _annotation_nodes(tree: ast.AST) -> set[int]:
    """``id`` of every node inside an annotation: a type names no value."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            roots.append(node.returns)
    return {id(part) for root in roots for part in ast.walk(root)}


class _Settings(ast.NodeVisitor):
    """What the scanned trees do with names: every call by the name it
    reaches its function by, every name used as a value, every attribute
    stored to, and every identifier string."""

    def __init__(self):
        #: ``f(...)`` and ``x.f(...)`` under ``f``; ``cls(...)`` in a class
        #: body under the class
        self.calls = defaultdict(list)
        #: names used as a value (an argument, an element, a right-hand
        #: side), never as a callee, a receiver or in an annotation
        self.values = set()
        #: ``x.name = ...`` and ``x.name += ...``
        self.stored = set()
        #: identifier string -> every (file, line) it appears at
        self.strings = defaultdict(list)

    def scan(self, path, tree):
        self._path = path
        self._classes = []
        self._skip = _annotation_nodes(tree)
        self._skip.update(id(part) for node in ast.walk(tree)
                          if isinstance(node, ast.JoinedStr)
                          for part in node.values)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._skip.add(id(node.func))
            elif isinstance(node, ast.Attribute):
                self._skip.add(id(node.value))
        self.visit(tree)

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            self.calls[func.attr].append(node)
        elif isinstance(func, ast.Name):
            cls = func.id == "cls" and self._classes
            self.calls[self._classes[-1] if cls else func.id].append(node)
        self.generic_visit(node)

    def _reference(self, node, name):
        if isinstance(node.ctx, ast.Store):
            if isinstance(node, ast.Attribute):
                self.stored.add(name)
        elif id(node) not in self._skip:
            self.values.add(name)

    def visit_Name(self, node):
        self._reference(node, node.id)

    def visit_Attribute(self, node):
        self._reference(node, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier() \
                and id(node) not in self._skip:
            self.strings[node.value].append((self._path, node.lineno))


def _settings(tree: ast.AST):
    """``(label, owner, callees, name, position, line, own)`` of every
    defaulted parameter and defaulted dataclass field: the definition
    that owns it, the names a call reaches it by, its positional index
    (``None`` if keyword-only or not a parameter), and its own
    definition's lines."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).split("(")[0].endswith("dataclass")
                for d in cls.decorator_list):
            continue
        own = range(cls.lineno, cls.end_lineno + 1)
        position = 0
        for node in cls.body:
            if not isinstance(node, ast.AnnAssign) \
                    or "ClassVar" in ast.unparse(node.annotation):
                continue
            factory = isinstance(node.value, ast.Call) and any(
                k.arg == "default_factory" for k in node.value.keywords)
            if node.value is not None and not factory:
                yield (f"{cls.name}.{node.target.id}", cls.name,
                       (cls.name, "replace"), node.target.id, position,
                       node.lineno, own)
            position += 1
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_class = isinstance(parent, ast.ClassDef)
            if in_class and node.name == "__init__":
                label = owner = parent.name
                callees = (parent.name, "__init__")
            else:
                label = f"{parent.name}.{node.name}" if in_class else node.name
                owner, callees = node.name, (node.name,)
            args = node.args
            positional = args.posonlyargs + args.args
            bound = in_class and not any(
                ast.unparse(d) == "staticmethod" for d in node.decorator_list)
            own = range(node.lineno, node.end_lineno + 1)
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield (f"{label}({arg.arg})", owner, callees, arg.arg,
                       index - bound, node.lineno, own)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield (f"{label}({arg.arg})", owner, callees, arg.arg,
                           None, node.lineno, own)


def _receives(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` hands ``name`` a value: by keyword, by position,
    or through ``*`` / ``**``."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and index <= position
        if index == position:
            return True
    return False


def test_every_setting_is_set_outside_tests():
    seen = _Settings()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            seen.scan(path, ast.parse(path.read_text(encoding="utf-8")))
    unset = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, owner, callees, name, position, line, own \
                in _settings(tree):
            is_field = "(" not in label
            if label in ALLOWED or owner in ALLOWED or owner in seen.values \
                    or (is_field and name in seen.stored):
                continue
            if any(_receives(call, name,
                             # replace(obj, **changes): keywords only
                             None if callee == "replace" else position)
                   for callee in callees for call in seen.calls[callee]):
                continue
            if any(other != path or at not in own
                   for other, at in seen.strings[name]):
                continue
            unset.append(f"{path.relative_to(ROOT)}:{line} {label}")
    assert not unset, "set by no caller outside tests:\n" + "\n".join(
        sorted(unset))
