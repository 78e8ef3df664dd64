"""Every figure and table, pinned at quick scale.

``tests/data/figures_golden.json`` holds, per ``ALL_EXPERIMENTS`` name,
what the figure must produce at quick scale: the rendered ``text``, the
measured mapping (``repr`` of its canonically sorted items), the
``(claim, verdict)`` list and the sorted set of ``request_key``s the
figure asked its runner for.  It was recorded from the hand-written
builders this harness used to consist of, in the commit before they were
replaced, so it is the reference the figure harness is held to.

All figures run through one recording runner whose memo is shared across
the module, so every distinct simulation is paid for once.  Regenerate
after an *intentional* change of a figure with

    PYTHONPATH=src python -m tests.test_figures_golden

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import pytest

from repro.experiments import figures
from repro.experiments.config import scale_by_name
from repro.experiments.parallel import ParallelRunner, request_key

FIXTURE = Path(__file__).parent / "data" / "figures_golden.json"
QUICK = scale_by_name("quick")


class RecordingRunner(ParallelRunner):
    """Serial runner that logs the key of every request a figure issues.

    Only requests the harness itself hands over are logged: the probe
    runs an MST search routes back through :meth:`run` happen one level
    down and are skipped, so the log does not depend on which searches
    the shared memo already holds.
    """

    def __init__(self) -> None:
        super().__init__(jobs=1)
        self.issued: list[str] = []
        self._depth = 0

    def run(self, request):
        """Log ``request`` when a figure (not an MST search) asked."""
        if self._depth == 0:
            self.issued.append(request_key(request))
        self._depth += 1
        try:
            return super().run(request)
        finally:
            self._depth -= 1


def _canonical(value):
    """Order-independent form of a measured value (dicts become sorted
    item lists, recursively) whose ``repr`` is stable."""
    if isinstance(value, dict):
        return sorted((_canonical(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def snapshot(name: str, runner: RecordingRunner) -> dict:
    """Run figure ``name`` at quick scale; what the fixture pins of it."""
    figures.clear_cache()
    runner.issued.clear()
    out = figures.ALL_EXPERIMENTS[name](QUICK)
    measured = next(out[k] for k in ("measured", "normalized", "series")
                    if k in out)
    return {
        "text": out["text"],
        "measured": repr(_canonical(measured)),
        "checks": [[claim, bool(ok)] for claim, ok in out.get("checks", [])],
        "request_keys": sorted(set(runner.issued)),
    }


@pytest.fixture(scope="module")
def recorder():
    """One recording runner installed for the whole module."""
    runner = RecordingRunner()
    figures.set_runner(runner)
    yield runner
    figures.set_runner(None)


def test_golden_fixture_lists_exactly_the_registered_figures():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(figures.ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", list(figures.ALL_EXPERIMENTS))
def test_figure_matches_golden(name, recorder):
    expected = json.loads(FIXTURE.read_text())[name]
    actual = snapshot(name, recorder)
    if actual["text"] != expected["text"]:
        diff = "\n".join(difflib.unified_diff(
            expected["text"].splitlines(), actual["text"].splitlines(),
            "golden", "actual", lineterm=""))
        pytest.fail(f"{name}: rendered text moved off the fixture\n{diff}")
    for field in ("measured", "checks", "request_keys"):
        assert actual[field] == expected[field], f"{name}: {field} moved"
    assert all(ok for _, ok in actual["checks"]), f"{name}: a shape check fails"


def record() -> None:
    """Re-record the fixture from the current code."""
    runner = RecordingRunner()
    figures.set_runner(runner)
    try:
        golden = {name: snapshot(name, runner)
                  for name in figures.ALL_EXPERIMENTS}
    finally:
        figures.set_runner(None)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    checks = sum(len(entry["checks"]) for entry in golden.values())
    print(f"recorded {len(golden)} figures, {checks} checks -> {FIXTURE}")


if __name__ == "__main__":
    record()
