"""Rule scopes for :mod:`tools.repro_lint`.

Every rule runs only where its invariant is meant to hold.  Scopes are
path prefixes relative to the repo root (the gates are invoked from
there, like ruff and the docstring gate).  A rule fires on a file when
the file matches one of its ``include`` prefixes and none of its
``exclude`` prefixes.

The allowlists below are *honest*: every exclusion names a file that is
deliberately exempt, not one that merely happens to violate the rule.

* **RL002** — only :mod:`repro.sim.rng` may touch the ``random`` module;
  every other draw flows through ``RngRegistry`` streams.  Annotation-only
  uses import ``random`` under ``TYPE_CHECKING`` (not flagged).
* **RL003** — ``repro.cli`` and ``repro.experiments.parallel`` report
  *host* wall-clock (sweep progress, worker scheduling); everything else
  lives on simulated time.  Benchmarks sit outside ``src/repro`` and are
  never scanned.
* **RL004** — ordered iteration covers the deterministic layers plus
  ``repro.workloads``: generators and arrival processes feed the
  byte-identical-inputs guarantee, so their iteration order is part of
  the determinism contract too.
* **RL005** — the non-slotted-dataclass half applies to the hot-path
  modules named in ``HOT_PATH``; the mutable-default half applies
  everywhere.
* **RL006** — the epoch-guard invariant is specific to the engine and
  lifecycle layers, where callbacks can outlive a recovery epoch or a
  rescaled redeploy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RuleScope:
    """Where one rule applies: include prefixes minus exclude prefixes."""

    include: tuple[str, ...]
    exclude: tuple[str, ...] = ()

    def matches(self, rel: str) -> bool:
        """Does ``rel`` (posix path from repo root) fall in this scope?"""
        if not any(rel.startswith(prefix) for prefix in self.include):
            return False
        return not any(rel.startswith(prefix) for prefix in self.exclude)


#: hot-path modules where RL005 additionally demands slotted dataclasses
#: (records and messages are allocated per event; attribute dicts there
#: cost measurable simulator throughput — `python3 -m perfbench --trace 1`
#: shows it under dataflow.batch / dataflow.transport).  The NexMark event
#: model is here for a second reason: ``rows_from_columns`` fills its
#: classes slot by slot through their member descriptors, which only a
#: slotted class has.  The generator modules are not: their config
#: dataclasses are built once per run and are deliberately plain
HOT_PATH = (
    "src/repro/dataflow/records.py",
    "src/repro/dataflow/batch.py",
    "src/repro/dataflow/channels.py",
    "src/repro/dataflow/transport.py",
    "src/repro/dataflow/state.py",
    "src/repro/dataflow/operators.py",
    "src/repro/sim/events.py",
    "src/repro/sim/simulator.py",
    "src/repro/storage/kafka.py",
    "src/repro/workloads/nexmark/model.py",
)

_DETERMINISTIC_LAYERS = (
    "src/repro/dataflow",
    "src/repro/sim",
    "src/repro/core",
    "src/repro/workloads",
)


@dataclass(frozen=True)
class LintConfig:
    """Per-rule scopes; tests override this to point rules at fixtures."""

    scopes: dict[str, RuleScope] = field(default_factory=dict)
    #: extra scope for RL005's slotted-dataclass check
    hot_path: tuple[str, ...] = HOT_PATH

    def scope_for(self, code: str) -> RuleScope:
        """The configured scope for ``code`` (empty scope if unknown)."""
        return self.scopes.get(code, RuleScope(include=()))


def default_config() -> LintConfig:
    """The repo's shipped scopes (see module docstring for the rationale)."""
    return LintConfig(scopes={
        "RL001": RuleScope(include=_DETERMINISTIC_LAYERS),
        "RL002": RuleScope(
            include=("src/repro",),
            exclude=("src/repro/sim/rng.py",),
        ),
        "RL003": RuleScope(
            include=("src/repro",),
            exclude=(
                "src/repro/cli.py",
                "src/repro/experiments/parallel.py",
            ),
        ),
        "RL004": RuleScope(include=(
            "src/repro/dataflow",
            "src/repro/sim",
            "src/repro/core",
            "src/repro/workloads",
        )),
        "RL005": RuleScope(include=("src/repro",)),
        "RL006": RuleScope(include=(
            "src/repro/dataflow/lifecycle.py",
            "src/repro/dataflow/runtime.py",
        )),
        "RL007": RuleScope(include=(
            "src/repro/metrics",
            "src/repro/experiments/figures.py",
        )),
        "RL008": RuleScope(include=(
            "src/repro/dataflow",
            "src/repro/core",
            "src/repro/storage",
        )),
    })


def fixture_config(prefix: str) -> LintConfig:
    """A config that points every rule (and the hot path) at ``prefix``.

    Used by the self-tests to run each rule against its fixture files.
    """
    scope = RuleScope(include=(prefix,))
    return LintConfig(
        scopes={f"RL00{i}": scope for i in range(1, 9)},
        hot_path=(prefix,),
    )
