"""MST bracket-search edge cases and probe-config cloning.

The seed code had two silent-wrongness bugs here: an exhausted bracket
(every probe unsustainable) reported the last *unvalidated* rate as the
MST, and probe runs rebuilt their RuntimeConfig from a hand-maintained
field list that dropped any newer knob (schedules, semantics, ...).
Probe configs now flow through ``RunRequest.effective_config`` — a
``dataclasses.replace`` copy — from the one ``probe_request`` builder.
"""

from dataclasses import fields

import pytest

import repro.metrics.mst as mst
from repro.experiments.parallel import RunRequest
from repro.metrics.mst import find_mst, probe_run
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES


class _StubResult:
    def __init__(self, ok: bool):
        self._ok = ok

    def sustainable(self, rate: float, latency_cap: float = 1.0) -> bool:
        return self._ok


def test_exhausted_bracket_reports_zero_not_a_guess(monkeypatch):
    """Seed bug: all-unsustainable brackets returned the last probed rate."""
    monkeypatch.setattr(mst, "probe_run", lambda *a, **k: _StubResult(False))
    result = find_mst(QUERIES["q1"], "unc", 2, iterations=2)
    assert result.bracket_exhausted
    assert result.mst == 0.0
    assert result.probes and all(not ok for _, ok in result.probes)


def test_exhausted_bracket_keeps_shrinking_before_giving_up(monkeypatch):
    monkeypatch.setattr(mst, "probe_run", lambda *a, **k: _StubResult(False))
    result = find_mst(QUERIES["q1"], "unc", 2, iterations=2)
    rates = [rate for rate, _ in result.probes]
    assert len(rates) == mst.MAX_BRACKET_PROBES
    assert min(rates) < rates[0] / 4  # kept descending well below the hint


def test_returned_mst_was_probed_sustainable(monkeypatch):
    """The reported MST must be a rate that an actual probe validated —
    just above the capacity hint, and far above a low one: the bracket
    keeps expanding instead of capping the MST near the hint."""
    hint = mst.estimate_capacity(QUERIES["q1"], 2)
    for boundary, floor in ((hint * 1.1, hint), (hint * 3.0, hint * 1.8)):
        monkeypatch.setattr(
            mst, "probe_run",
            lambda spec, protocol, parallelism, rate, **kwargs:
                _StubResult(rate <= boundary))
        result = find_mst(QUERIES["q1"], "unc", 2, iterations=3)
        assert not result.bracket_exhausted
        sustainable = [rate for rate, ok in result.probes if ok]
        assert result.mst in sustainable
        assert floor <= result.mst <= boundary


def test_effective_config_preserves_every_field():
    """The probe-config mechanism is a dataclasses.replace copy — a new
    RuntimeConfig knob can never be silently dropped by probe runs."""
    base = RuntimeConfig(
        checkpoint_interval=2.5,
        changelog_max_chain=2,
        unc_checkpoint_stateless=False,
        per_operator_schedules={"count": (2.0, 1.0)},
        unc_semantics="at-least-once",
        duration=99.0,
        warmup=33.0,
        failure_at=5.0,
        failure_worker=1,
        seed=11,
    )
    request = RunRequest(
        query="q1", protocol="unc", parallelism=2, rate=100.0,
        duration=5.0, warmup=2.0, failure_at=None,
        checkpoint_interval=base.checkpoint_interval,
        failure_worker=base.failure_worker,
        seed=base.seed, config=base,
    )
    clone = request.effective_config()
    overridden = {"duration": 5.0, "warmup": 2.0, "failure_at": None}
    for field in fields(RuntimeConfig):
        expected = overridden.get(field.name, getattr(base, field.name))
        assert getattr(clone, field.name) == expected, field.name


def test_probe_run_does_not_mutate_caller_config():
    """Seed bug: probe_run wrote duration/warmup into the caller's config."""
    config = RuntimeConfig(duration=60.0, warmup=10.0, failure_at=7.0)
    probe_run(QUERIES["q1"], "none", 2, rate=200.0,
              duration=4.0, warmup=1.0, config=config)
    assert config.duration == 60.0
    assert config.warmup == 10.0
    assert config.failure_at == 7.0


def test_find_mst_still_brackets_normally():
    result = find_mst(QUERIES["q1"], "none", 2, probe_duration=5.0,
                      warmup=2.0, iterations=2)
    assert result.mst > 0
    assert not result.bracket_exhausted


def test_probe_requests_preserve_config_knobs(monkeypatch):
    """The RunRequest a probe ships must carry the caller's config —
    interval, failure worker and the long tail — on every path."""
    import repro.experiments.parallel as parallel

    captured = []

    def spy(spec, request):
        captured.append(request)
        return _StubResult(False)

    monkeypatch.setattr(parallel, "run_with_spec", spy)
    config = RuntimeConfig(checkpoint_interval=2.0, failure_worker=1,
                           unc_semantics="at-least-once")
    probe_run(QUERIES["q1"], "unc", 2, rate=100.0,
              duration=4.0, warmup=1.0, seed=11, config=config)
    effective = captured[0].effective_config()
    assert effective.checkpoint_interval == 2.0
    assert effective.failure_worker == 1
    assert effective.unc_semantics == "at-least-once"
    assert effective.duration == 4.0
    assert effective.warmup == 1.0
    assert effective.failure_at is None
    assert effective.seed == 11


def test_get_mst_raises_clearly_on_exhausted_bracket(monkeypatch):
    """An exhausted MST must not reach the figures as rate=0.0."""
    from repro.experiments import figures
    from repro.experiments.config import scale_by_name
    from repro.experiments.parallel import ParallelRunner
    from repro.metrics import mst
    from repro.metrics.mst import MstResult

    # the runner executes a missed MstRequest through find_mst
    monkeypatch.setattr(
        mst, "find_mst",
        lambda *a, **k: MstResult(query="q1", protocol="unc", parallelism=2,
                                  mst=0.0, bracket_exhausted=True),
    )
    figures.set_runner(ParallelRunner(jobs=1))  # nothing memoised yet
    try:
        with pytest.raises(RuntimeError, match="exhausted its bracket") as err:
            figures.get_mst("q1", "unc", 2, scale_by_name("quick"))
    finally:
        figures.set_runner(None)
    assert "q1/unc/p=2" in str(err.value)
