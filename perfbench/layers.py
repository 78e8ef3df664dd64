"""Layer attribution of a ``cProfile`` table.

Layers are path prefixes below the ``repro`` package, first match wins; a
``repro`` module no prefix covers lands in ``other`` (a new module is never
an error).  Code outside ``repro`` — built-ins, the standard library, the
benchmark's own lambdas — has no layer of its own: its self time and calls
are charged to whichever layer called it, through the profile's callers
map, so ``Σ layers == profile total`` exactly.
"""

from __future__ import annotations

#: (layer, path prefixes relative to ``repro/``), first match wins
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim", ("sim/",)),
    ("storage", ("storage/",)),
    ("dataflow.transport", ("dataflow/transport", "dataflow/channels")),
    ("dataflow.batch", ("dataflow/batch", "dataflow/records")),
    ("dataflow.operators", ("dataflow/operators",)),
    ("dataflow.state", ("dataflow/state",)),
    ("dataflow.lifecycle", ("dataflow/lifecycle",)),
    ("metrics", ("metrics/", "dataflow/results")),
    ("dataflow.engine", ("dataflow/",)),
    ("core", ("core/",)),
    ("workloads.queries", ("workloads/nexmark/queries",
                           "workloads/nexmark/model",
                           "workloads/cyclic/reachability")),
    ("workloads.generators", ("workloads/",)),
    ("experiments", ("experiments/",)),
)
OTHER = "other"
LAYER_NAMES: tuple[str, ...] = tuple(name for name, _ in LAYERS) + (OTHER,)

Func = tuple[str, int, str]


def layer_of(filename: str) -> str | None:
    """The layer of a source file; ``None`` for code outside ``repro``."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    relative = path[marker + len("/repro/"):]
    for name, prefixes in LAYERS:
        if relative.startswith(prefixes):
            return name
    return OTHER


def attribute(stats: dict[Func, tuple]) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from a ``pstats.Stats(...).stats`` dict.

    Each entry is ``func -> (cc, nc, tt, ct, callers)`` with ``callers``
    mapping ``caller -> (nc, cc, tt, ct)``: the per-edge ``tt`` is the self
    time ``func`` spent when called from ``caller``.
    """
    native = {func: layer_of(func[0]) for func in stats}
    shares: dict[Func, dict[str, float]] = {}
    active: set[Func] = set()

    def share(func: Func) -> dict[str, float]:
        """The layers a caller stands for, as fractions summing to 1.

        A ``repro`` function stands for its own layer; foreign code for
        the layers that called *it*, by call count.  Empty only while the
        function is being resolved further up the stack: recursion through
        foreign code adds no evidence.
        """
        layer = native.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in active:
            return {}
        active.add(func)
        split: dict[str, float] = {}
        weight = 0.0
        for caller, edge in (stats[func][4] if func in stats else {}).items():
            calls = edge[0]
            parts = share(caller)
            for name, part in parts.items():
                split[name] = split.get(name, 0.0) + calls * part
            if parts:
                weight += calls
        active.discard(func)
        shares[func] = ({name: value / weight for name, value in split.items()}
                        if weight else {OTHER: 1.0})
        return shares[func]

    totals = {name: {"self_s": 0.0, "calls": 0.0} for name in LAYER_NAMES}

    def charge(split: dict[str, float], self_s: float, calls: float) -> None:
        for name, part in split.items():
            totals[name]["self_s"] += self_s * part
            totals[name]["calls"] += calls * part

    for func, (_, n_calls, self_s, _, callers) in stats.items():
        layer = native[func]
        if layer is not None:
            charge({layer: 1.0}, self_s, n_calls)
            continue
        edge_self = edge_calls = 0.0
        for caller, edge in callers.items():
            calls, _, tt, _ = edge
            charge(share(caller), tt, calls)
            edge_self += tt
            edge_calls += calls
        # calls made with no profiled parent frame have no edge
        charge({OTHER: 1.0}, self_s - edge_self, n_calls - edge_calls)
    return totals


def calls_named(stats: dict[Func, tuple], path_part: str, name: str) -> int:
    """Total calls of functions called ``name`` in files containing ``path_part``."""
    return sum(entry[1] for func, entry in stats.items()
               if func[2] == name and path_part in func[0].replace("\\", "/"))
