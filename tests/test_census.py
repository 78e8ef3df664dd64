"""Every entry of ``tools/census_allow.txt`` names live code and a reason.

The census (``python -m tools.census --check``, its own CI job) traces
every entry point for minutes and fails on an unlisted range or on an
entry whose range now executes.  This reads the list statically, in well
under a second: each entry names a module of ``core/``, ``dataflow/`` or
``storage/``, a qualified function name in it whose source holds the
range's first line, and one of the five reasons with the evidence that
reason needs (DESIGN.md section 14).
"""

import ast
import re

from tools.census import EXCLUDED, PACKAGE, ROOT, SCOPE, _functions, load_allow

REASONS = ("guard", "reference", "analysis", "mechanism", "bug")


def _test_functions(path: str) -> set[str]:
    """``file::name`` and ``file::Class::name`` of every test in a file."""
    tree = ast.parse((ROOT / path).read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            found.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef):
            found.update(f"{path}::{node.name}::{item.name}"
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name.startswith("test"))
    return found


def _function_lines(module: str) -> dict[str, set[str]]:
    """Qualified name -> the stripped source lines of every function of
    that name in ``module`` (comprehensions of one function share one)."""
    path = PACKAGE / module
    text = path.read_text()
    lines = text.splitlines()
    found: dict[str, set[str]] = {}
    for code in _functions(compile(text, str(path), "exec")):
        last = max(line for _, _, line in code.co_lines() if line is not None)
        found.setdefault(code.co_qualname, set()).update(
            line.strip() for line in lines[code.co_firstlineno - 1:last])
    return found


def test_every_allow_entry_names_live_code_and_a_reason():
    entries = load_allow()
    assert entries
    functions: dict[str, dict[str, set[str]]] = {}
    for (module, qualname, first), (reason, evidence) in entries.items():
        where = f"{module} {qualname}: {first}"
        assert module.split("/")[0] in SCOPE and module not in EXCLUDED, where
        if module not in functions:
            functions[module] = _function_lines(module)
        assert qualname in functions[module], f"no such function: {where}"
        assert first in functions[module][qualname], \
            f"first line not in the function: {where}"
        assert reason in REASONS, f"unknown reason {reason!r}: {where}"
        if reason in ("guard", "reference"):
            path = evidence.partition("::")[0]
            assert evidence in _test_functions(path), \
                f"no test {evidence!r}: {where}"
        elif reason == "mechanism":
            assert evidence.startswith("repro "), where
        elif reason == "bug":
            assert re.search(r"ROADMAP items? \d+", evidence), where
        else:
            assert evidence, where


def test_the_cic_z_path_signal_is_listed_as_a_bug_until_it_runs():
    """C2 of HMNR (ROADMAP item 6) never fires on a real run; item 16's
    fix makes it run, and the census's stale check then drops it."""
    bugs = {(module, qualname, first)
            for (module, qualname, first), (reason, evidence)
            in load_allow().items()
            if reason == "bug" and "6" in evidence and "16" in evidence}
    assert {module for module, _, _ in bugs} == {"core/cic.py"}
    assert {qualname for _, qualname, _ in bugs} \
        == {"CommunicationInducedProtocol._must_force",
           "CommunicationInducedProtocol._merge"}
