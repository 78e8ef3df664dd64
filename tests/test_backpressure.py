"""Differential suite: credits change timing, never semantics.

The acceptance property of bounded channels (DESIGN.md section 13): for
every protocol and every state backend, a capacity-bounded run must end
in **byte-identical final operator state** to the unbounded run of the
same configuration once all queues drain — credit exhaustion delays and
reorders work across channels, but loses nothing, duplicates nothing and
corrupts nothing.  The suite runs the predictable counting pipeline with
a mid-run failure (and once with a rescaled recovery) and compares
canonicalized state snapshots, plus the exactly-once audit against the
input log so both runs are checked against ground truth, not just
against each other.

The ``backpressure`` figure's quick-scale shape checks are enforced here
too — the same checks CI's cached smoke run gates on.
"""

import pytest

from repro.experiments import figures
from repro.experiments.config import scale_by_name

from tests.conftest import canonical_state_bytes, run_count_job
from tests.test_exactly_once import expected_counts, measured_counts

BACKENDS = ["full", "changelog"]
ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]
#: tight enough that batches park (one ~1.3 kB batch in flight saturates)
TIGHT = 1500


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_capacity_differential_state_equivalence(protocol, state_backend):
    """Bounded vs unbounded runs end byte-identical, for every protocol
    and backend, across a failure + recovery."""
    job_open, _ = run_count_job(protocol, duration=20.0, failure_at=6.0,
                                state_backend=state_backend)
    job_tight, res_tight = run_count_job(protocol, duration=20.0,
                                         failure_at=6.0,
                                         state_backend=state_backend,
                                         channel_capacity_bytes=TIGHT)
    # the bound must actually engage, or the test proves nothing
    assert res_tight.metrics.sends_parked > 0
    assert canonical_state_bytes(job_open) == canonical_state_bytes(job_tight)
    assert measured_counts(job_tight) == expected_counts(job_tight)
    assert measured_counts(job_open) == expected_counts(job_open)


def test_capacity_differential_without_failure():
    """Failure-free: saturation-driven parks alone must stay semantics-free.

    The rate sits near the hot worker's capacity so batches genuinely
    park mid-run; the long drain window (input ends 10 s before the run)
    lets the bounded run's backlog clear before the comparison.
    """
    for protocol in ("coor", "unc"):
        job_open, _ = run_count_job(protocol, rate=900.0, duration=24.0,
                                    input_until=14.0, failure_at=None)
        job_tight, res = run_count_job(protocol, rate=900.0, duration=24.0,
                                       input_until=14.0, failure_at=None,
                                       channel_capacity_bytes=800)
        assert res.metrics.sends_parked > 0
        assert (canonical_state_bytes(job_open)
                == canonical_state_bytes(job_tight))
        assert measured_counts(job_tight) == expected_counts(job_tight)


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_capacity_differential_across_rescale(protocol):
    """A rescaled recovery under credit pressure matches the unbounded
    rescaled run key-for-key."""
    job_open, _ = run_count_job(protocol, duration=22.0, failure_at=6.0,
                                rescale_to=4)
    job_tight, res = run_count_job(protocol, duration=22.0, failure_at=6.0,
                                   rescale_to=4,
                                   channel_capacity_bytes=TIGHT)
    assert res.final_parallelism == 4
    assert measured_counts(job_tight) == expected_counts(job_tight)
    assert measured_counts(job_open) == measured_counts(job_tight)


def test_capacity_is_part_of_the_cache_key():
    """Two requests differing only in channel capacity must not collide."""
    from repro.experiments.parallel import RunRequest, request_key

    base = RunRequest(query="q1", protocol="unc", parallelism=2, rate=100.0)
    bounded = RunRequest(query="q1", protocol="unc", parallelism=2,
                         rate=100.0, channel_capacity_bytes=TIGHT)
    assert request_key(base) != request_key(bounded)


def test_backpressure_figure_structure(harness_runner):
    out = figures.run_figure(figures.BACKPRESSURE, scale_by_name("quick"),
                             harness_runner)
    protocols = {p for (p, _, _) in out["measured"]}
    assert protocols == {"coor", "coor-unaligned", "unc"}
    labels = {label for (_, label, _) in out["measured"]}
    assert labels == {"unbounded", "tight"}
    # the acceptance checks of the backpressure figure must hold at smoke
    # scale — COOR's alignment-attributed blocked time dwarfing the
    # unaligned variant's and UNC's is the headline claim
    assert all(ok for _, ok in out["checks"]), out["checks"]
    tight_coor = out["measured"][("coor", "tight", 0.3)]
    assert tight_coor["aligned_s"] > 1.0
    for proto in ("coor-unaligned", "unc"):
        assert out["measured"][(proto, "tight", 0.3)]["aligned_s"] < 0.1
