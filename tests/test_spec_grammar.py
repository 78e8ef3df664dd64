"""Grammar fuzz over ``--failure-scenario`` and ``--arrival``.

The strategies are built from the grammar tables in ``src``
(``SCENARIOS``, ``ARRIVALS``), not from a second copy: kinds, parameter
subsets, duplicates, unknown names, empty segments, stray separators and
``nan`` / ``inf`` / negative / huge / non-numeric values.  Every string
either is refused with the one error frame, or builds an object that
describes itself and generates a finite schedule — no traceback, no
silent no-op.
"""

import inspect
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import RunRequest, request_key
from repro.sim.failure import SCENARIOS, parse_scenario
from repro.sim.rng import RngRegistry
from repro.sim.specs import REQUIRED
from repro.workloads.arrivals import ARRIVALS, check_arrival, parse_arrival

FIXTURE_TRACE = str(pathlib.Path(__file__).parent / "data" / "arrival_trace.csv")

SENSIBLE = st.sampled_from(["0", "1", "2", "2.5", "4", "12", "0.5", "3;9"])
NASTY = st.sampled_from([
    "nan", "inf", "-inf", "-1", "-0.5", "1e100", "1e999",
    "123456789012345678901234567890", "x", "", " ", "1.5", "2@1", "=", "0x10",
])
VALUES = st.one_of(SENSIBLE, SENSIBLE, NASTY)
BODIES = st.one_of(
    st.sampled_from([FIXTURE_TRACE, "", " ", "/nonexistent/trace.csv"]),
    st.lists(st.one_of(VALUES, st.builds("{}@{}".format, VALUES, VALUES)),
             max_size=3).map(";".join),
)


def spec_strings(kinds):
    """Spec strings over the table ``kinds``, well-formed and not."""
    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(sorted(kinds)))
        _, grammar = kinds[kind]
        if isinstance(grammar, tuple):
            body = draw(BODIES)
        else:
            required = [n for n, (_, d) in grammar.items() if d is REQUIRED]
            names = draw(st.permutations(
                draw(st.sampled_from([required, required, []]))
                + draw(st.lists(st.sampled_from(sorted(grammar) + ["bogus", ""]),
                                max_size=3))))
            separator = draw(st.sampled_from([",", ",", ",", ",,", " , ", ";"]))
            body = separator.join(
                f"{name}{draw(st.sampled_from(['=', '=', '=', '', '==']))}"
                f"{draw(VALUES)}" for name in names)
        kind = draw(st.sampled_from([kind, kind, kind.upper(), f" {kind} ",
                                     kind + "s", ""]))
        return draw(st.sampled_from([f"{kind}:{body}", f"{kind}:{body}",
                                     f"{kind}:{body},", kind]))
    return build()


def _stream():
    return RngRegistry(11).stream("grammar.fuzz")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=spec_strings(SCENARIOS))
def test_a_scenario_spec_is_refused_in_the_frame_or_generates_a_schedule(spec):
    try:
        scenario = parse_scenario(spec)
    except ValueError as exc:
        assert str(exc).startswith(f"malformed failure scenario {spec!r}: ")
        return
    assert scenario.describe()
    for event in scenario.events(2.0, 26.0, _stream()):
        assert math.isfinite(event.at)
        assert math.isfinite(event.detection_delay_factor)
        assert all(type(i) is int and i >= 0 for i in event.worker_indices)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=spec_strings(ARRIVALS))
def test_an_arrival_spec_is_refused_in_the_frame_or_generates_a_profile(spec):
    try:
        process = parse_arrival(spec)
    except ValueError as exc:
        assert str(exc).startswith(f"malformed arrival process {spec!r}: ")
        if not spec.strip().lower().startswith("trace"):  # a file is read later
            with pytest.raises(ValueError):
                request_key(RunRequest("q1", "coor", 2, 100.0, arrival=spec))
        return
    check_arrival(spec)  # the request-time check agrees
    assert process.describe()
    for segment in process.segments(100.0, 20.0, _stream()):
        assert all(math.isfinite(x) for x in
                   (segment.t0, segment.t1, segment.r0, segment.r1))


def test_the_fuzz_reaches_both_verdicts():
    """A strategy that only ever produced rejects would pass vacuously."""
    for kinds, parse in ((SCENARIOS, parse_scenario), (ARRIVALS, parse_arrival)):
        verdicts = {kind: set() for kind in kinds}
        strategy = spec_strings(kinds)

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(spec=strategy)
        def collect(spec):
            try:
                verdicts[parse(spec).kind].add(True)
            except ValueError:
                kind = spec.partition(":")[0].strip().lower()
                if kind in verdicts:
                    verdicts[kind].add(False)

        collect()
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts


@pytest.mark.parametrize("kinds", [SCENARIOS, ARRIVALS])
def test_a_table_default_is_the_constructors_default(kinds):
    for kind, (build, grammar) in kinds.items():
        if isinstance(grammar, tuple):
            continue
        signature = inspect.signature(build).parameters
        for name, (_, default) in grammar.items():
            declared = signature[name].default
            if declared is not inspect.Parameter.empty:
                assert default == declared, (kind, name)
