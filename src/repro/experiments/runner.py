"""Run one configuration against an explicit spec object.

A run is said once, as a :class:`~repro.experiments.parallel.RunRequest`;
``run_query`` is the by-spec entry point for callers holding a
:class:`~repro.workloads.spec.QuerySpec` (the examples, ad-hoc test
pipelines not in the name registry).  It executes through the same code
path the parallel executor uses, so a serial run and a ``--jobs N`` run
of the same configuration are byte-identical.
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.results import RunResult
from repro.experiments.parallel import RunRequest, run_with_spec
from repro.workloads.spec import QuerySpec


def run_query(spec: QuerySpec, protocol: str, parallelism: int, rate: float,
              **request_fields: Any) -> RunResult:
    """Deploy ``spec`` under ``protocol`` and execute one measured run.

    ``rate`` is the aggregate input rate (records/second across all source
    partitions); input logs are pre-generated to cover the full run plus a
    safety margin so sources never starve artificially.
    ``request_fields`` are :class:`RunRequest` fields by name (``duration``,
    ``failure_at``, ``arrival``, ``config``, ...; an unknown one is a
    ``TypeError``).
    """
    return run_with_spec(spec, RunRequest(
        query=spec.name, protocol=protocol, parallelism=parallelism,
        rate=rate, **request_fields))
