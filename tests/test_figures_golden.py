"""Every figure and table, pinned at quick scale.

``tests/data/figures_golden.json`` holds, per ``SPECS`` name,
what the figure must produce at quick scale: the rendered ``text``, the
measured mapping (``repr`` of its canonically sorted items), the
``(claim, verdict)`` list and the sorted set of ``request_key``s the
figure asked its runner for.  It was recorded from the hand-written
builders this harness used to consist of, in the commit before the
``FigureSpec`` table replaced them, so it is the reference the specs and
their one driver are held to (the five ablations: ``text`` and verdicts
from the stand-alone bench scripts they used to be, in the commit before
they joined the table).  Below it: the spec-table invariants that
hand-written code could break silently (a prefetch list drifting from its
collection loop, an empty grid, two cells on one request).

All figures run through one recording runner that adopts the memo of
the session's ``harness_runner``, so every distinct simulation is paid
for once per session, whichever test module asks first.  Regenerate
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

from tests.test_scheduler_determinism import InterleavedRunner

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
    runner.issued.clear()
    out = figures.run_figure(figures.SPECS[name], QUICK, runner)
    return {
        "text": out["text"],
        "measured": repr(_canonical(out["measured"])),
        "checks": [[claim, bool(ok)] for claim, ok in out["checks"]],
        "request_keys": sorted(set(runner.issued)),
    }


@pytest.fixture(scope="module")
def recorder(harness_runner):
    """One recording runner for the whole module."""
    runner = RecordingRunner()
    # adopt the session memo: what other modules already simulated is a
    # hit here, and what this module simulates serves the tests after it
    runner._memory = harness_runner._memory
    return runner


def test_golden_fixture_lists_exactly_the_registered_figures():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(figures.SPECS)


@pytest.mark.parametrize("name", list(figures.SPECS))
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


# --------------------------------------------------------------------- #
# Spec-table invariants
# --------------------------------------------------------------------- #


class PrefetchRecorder(InterleavedRunner):
    """Two-worker runner on a synchronous fake pool that logs what the
    driver maps ahead of time and what it then fetches."""

    def __init__(self) -> None:
        super().__init__(picks=(), jobs=2)
        self.submitted: set[str] = set()
        self.fetched: set[str] = set()

    def map(self, requests):
        """Log a prefetched batch."""
        self.submitted.update(map(request_key, requests))
        return super().map(requests)

    def run(self, request):
        """Log a collected request."""
        self.fetched.add(request_key(request))
        return super().run(request)


@pytest.mark.parametrize("name", ["table4", "rescale"])
def test_every_fetched_key_was_prefetched(name, recorder):
    """With workers to fan out to, collection only reads what prefetch
    submitted — otherwise ``--jobs N`` silently degrades to serial."""
    runner = PrefetchRecorder()
    runner._memory = recorder._memory
    figures.run_figure(figures.SPECS[name], QUICK, runner)
    assert runner.fetched and runner.fetched <= runner.submitted


@pytest.mark.parametrize("name", list(figures.SPECS))
def test_every_spec_has_cells_at_every_scale(name):
    for scale in ("quick", "default", "full"):
        assert list(figures.SPECS[name].cells(scale_by_name(scale))), scale


@pytest.mark.parametrize("name", list(figures.SPECS))
def test_every_cell_runs_at_its_own_request(name, recorder):
    """No two cells of a figure share an operating point (the MSTs the
    rates derive from are memoised by the golden test above)."""
    spec = figures.SPECS[name]
    keys = []
    for cell in spec.cells(QUICK):
        point = spec.point(QUICK, *cell)
        group = point if isinstance(point, tuple) else (point,)
        keys.append(tuple(request_key(figures._resolve(p, QUICK, recorder))
                          for p in group))
    assert len(set(keys)) == len(keys) > 0


def record() -> None:
    """Re-record the fixture from the current code."""
    runner = RecordingRunner()
    golden = {name: snapshot(name, runner) for name in figures.SPECS}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    checks = sum(len(entry["checks"]) for entry in golden.values())
    print(f"recorded {len(golden)} figures, {checks} checks -> {FIXTURE}")


if __name__ == "__main__":
    record()
