"""No definition in ``src/repro`` that only tests can reach.

Every function, method and class defined under ``src/repro`` must be
named, as a whole word, somewhere in ``src``, ``perfbench``, ``examples``
or ``tools`` outside its own definition (a package's ``__all__`` entry
is such a word).  Dunder methods are called by the language and are
exempt.  A name that only a test calls is weight the program carries for
nothing; the test should read what the system itself reads instead.
"""

import ast
import pathlib
import re
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


def test_every_definition_is_named_outside_tests():
    #: word -> every (file, line) it appears at
    named = defaultdict(list)
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                for word in re.findall(r"\w+", line):
                    named[word].append((path, number))
    unreached = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(other == path and line in own for other, line in named[name]):
                unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreached, "named only in tests:\n" + "\n".join(unreached)
