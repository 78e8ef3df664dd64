"""Line census: the code in core/, dataflow/ and storage/ no entry point runs.

Prints each unexecuted line range of a function there with its reason from
``tools/census_allow.txt``; ``--check`` exits 1 on an unlisted range or a
listed one that now runs (DESIGN.md section 14).
"""

import contextlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
from itertools import groupby
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCOPE = ("core", "dataflow", "storage")
EXCLUDED = {"core/features.py"}  # the protocol table docs and tests read
PROTOCOLS = ("coor", "coor-unaligned", "unc", "cic")
NEXMARK = ("q1", "q3", "q5", "q8", "q12")
STATEFUL = [f"{p} --state-backend {b}" for p in PROTOCOLS for b in ("full", "changelog")]
KILLS = " --parallelism 3 --duration 12 --warmup 2 --checkpoint-interval 2"
TRACE = KILLS + " --failure-scenario trace:5@0;9@1"
QUERIES = (  # CI's two query runs, then kills at a 2 s interval that restore chains
    ["q12 --protocol unc --warmup 2 --parallelism 2 --rate 200 --duration 12 --shards 2"
     " --jobs 1 --failure-scenario trace:3@0;7@1", "q12 --protocol unc --warmup 2"
     " --parallelism 4 --rate 300 --duration 20 --failure-scenario trace:3@0;9@1;15@2"]
    + [f"{q} --protocol {p}{TRACE}" for q in NEXMARK for p in ("none", *STATEFUL)]
    + [f"reachability --protocol {p}{TRACE}" for p in STATEFUL[4:]]  # unc, cic: no COOR
    + [f"q12 --protocol {p} --rescale-to {n}{TRACE}" for p in PROTOCOLS for n in (2, 5)]
    + [f"q12 --protocol {p} --rate 504 --hot-ratio 0.3 --channel-capacity 1024{TRACE}"
       for p in PROTOCOLS]  # 0.8 x capacity: senders park
    + [f"q12 --protocol {p} --interval-policy adaptive{KILLS} --failure-scenario poisson:mtbf=3"
       for p in ("coor", "unc")])
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}  # part of their function in 3.12
MODULES = {str(path): path.relative_to(PACKAGE).as_posix()  # traced file -> module
           for part in SCOPE for path in sorted((PACKAGE / part).glob("*.py"))
           if path.relative_to(PACKAGE).as_posix() not in EXCLUDED}


def _lines(code: CodeType) -> set[int]:
    """The body lines of ``code``; its first line runs at import or call."""
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}


def _functions(code: CodeType):
    """Every function code object nested in ``code``, depth first."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & 1 and const.co_name not in INLINED:
                yield const  # CO_OPTIMIZED: a function, no module, class or TYPE_CHECKING body
            yield from _functions(const)


def child(part: int) -> None:
    """Print as JSON the (file, line) pairs ``repro all --scale quick --jobs 1``
    (part 0) or the examples, perfbench cases and ``QUERIES`` (part 1) run;
    a function's tracing stops once all its lines ran, so hot code is fast."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    left: dict[int, tuple[CodeType, set[int]]] = {}  # the code keeps its id alive

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in MODULES:
            return None
        if id(code) not in left:
            left[id(code)] = (code, _lines(code))
        todo = left[id(code)][1]  # the lines not yet run

        def on_line(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
            return on_line
        return on_line if todo else None

    sys.settrace(on_call)
    from repro.cli import main  # imported traced, as the examples are
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        if part:
            for example in sorted((ROOT / "examples").glob("*.py")):
                runpy.run_path(str(example), run_name="__main__")
            from perfbench import workloads
            for build in (workloads.build_paper, workloads.build_dense, workloads.build_inputs):
                for case in build(7, Path(tmp)):
                    case.inspect(case.run())
        for argv in (["query " + query for query in QUERIES] if part
                     else [f"all --scale quick --jobs 1 --out {tmp}"]):
            assert main(argv.split()) == 0, argv
    sys.settrace(None)
    print(json.dumps(sorted((code.co_filename, line) for code, todo in left.values()
                            for line in _lines(code) - todo)))


def ranges(ran: set[tuple[str, int]]) -> list[tuple[str, str, str, int, int, int]]:
    """(module, qualified name, first source line, first, last, lines) of
    every unexecuted range, in source order."""
    found = []
    for filename, module in MODULES.items():
        text = Path(filename).read_text()
        lines = text.splitlines()
        for code in _functions(compile(text, filename, "exec")):
            for hit, group in groupby(sorted(_lines(code)),
                                      key=lambda line: (filename, line) in ran):
                if not hit:
                    run = list(group)
                    found.append((module, code.co_qualname, lines[run[0] - 1].strip(),
                                  run[0], run[-1], len(run)))
    return sorted(found, key=lambda r: (r[0], r[3]))


def load_allow() -> dict[tuple[str, str, str], tuple[str, str]]:
    """(module, qualified name, first source line) -> (reason, evidence)."""
    text = (ROOT / "tools" / "census_allow.txt").read_text()
    rows = (raw.split(" | ", 4) for raw in text.splitlines()
            if raw.strip() and not raw.startswith("#"))
    return {(module, qualname, first): (reason, evidence)
            for module, qualname, reason, evidence, first in rows}


def main(argv: list[str]) -> int:
    """Run both halves, print the report; ``--check`` gates on the list."""
    if argv not in ([], ["--check"]):
        sys.exit("usage: python -m tools.census [--check]")
    halves = [subprocess.Popen(
        [sys.executable, "-c", f"from tools.census import child; child({part})"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True) for part in (0, 1)]
    outs = [half.communicate()[0] for half in halves]  # both end before any exit
    if any(half.returncode for half in halves):
        sys.exit("census: an entry point failed")
    ran = {tuple(pair) for out in outs for pair in json.loads(out)}
    allow, found = load_allow(), ranges(ran)
    for module, qualname, first, start, end, _ in found:
        reason = allow.get((module, qualname, first), ("UNLISTED",))[0]
        print(f"{module}:{start}-{end}  {qualname}  [{reason}]  {first}")
    keys = {r[:3] for r in found}
    unlisted, stale = keys - set(allow), sorted(set(allow) - keys)
    for module, qualname, first in stale:
        print(f"stale: {module} {qualname} now runs: {first}")
    print(f"{len(found)} ranges, {sum(r[5] for r in found)} lines;"
          f" {len(unlisted)} unlisted, {len(stale)} stale")
    return 1 if argv and (unlisted or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
