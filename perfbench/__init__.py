"""perfbench: the host-time benchmark of the CheckMate simulator.

The repo replaces the paper's cluster with a deterministic simulator, so
what its users pay is *host* time and memory to simulate a run, and what
must never move is the *simulated* statistics the figures are built from.
This package measures the first and pins the second::

    python3 -m perfbench [--workload NAME]... [--seed S] [--seconds T]
                         [--trace 0|1] [--out FILE] [--rebless]
    python3 -m perfbench compare A.json B.json

See ``perfbench/README.md`` for the metrics, the four workloads and the
measurement method.  Only the documented public surface of ``repro`` is
called, and nothing here is imported by ``src/``, ``tests/`` or
``benchmarks/``.
"""
