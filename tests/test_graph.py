"""Unit tests for logical dataflow graphs."""

import pytest

from repro.dataflow.graph import (
    GraphError,
    LogicalGraph,
    Partitioning,
)
from repro.dataflow.operators import MapOperator, SinkOperator, SourceOperator


def simple_graph() -> LogicalGraph:
    g = LogicalGraph("g")
    g.add_source("src", "topic", SourceOperator)
    g.add_operator("map", lambda: MapOperator(lambda x: x))
    g.add_operator("sink", SinkOperator)
    g.connect("src", "map")
    g.connect("map", "sink")
    return g


def test_builder_chains_and_registers():
    g = simple_graph()
    assert set(g.operators) == {"src", "map", "sink"}
    assert len(g.edges) == 2


def test_duplicate_operator_rejected():
    g = LogicalGraph()
    g.add_operator("x", SinkOperator)
    with pytest.raises(GraphError):
        g.add_operator("x", SinkOperator)


def test_source_requires_topic():
    from repro.dataflow.graph import OperatorSpec

    with pytest.raises(GraphError):
        OperatorSpec("s", SourceOperator, is_source=True, source_topic=None)


def test_connect_unknown_operator_rejected():
    g = LogicalGraph()
    g.add_operator("a", SinkOperator)
    with pytest.raises(GraphError):
        g.connect("a", "missing")


def test_connect_into_source_rejected():
    g = LogicalGraph()
    g.add_source("s", "t", SourceOperator)
    g.add_operator("a", SinkOperator)
    with pytest.raises(GraphError):
        g.connect("a", "s")


def test_key_partitioning_requires_key_fn():
    g = LogicalGraph()
    g.add_source("s", "t", SourceOperator)
    g.add_operator("a", SinkOperator)
    with pytest.raises(GraphError):
        g.connect("s", "a", Partitioning.KEY)


def test_out_and_in_edges():
    g = simple_graph()
    assert [e.dst for e in g.out_edges("src")] == ["map"]
    assert [e.src for e in g.in_edges("sink")] == ["map"]


def test_sources_and_sinks():
    g = simple_graph()
    assert [s.name for s in g.sources()] == ["src"]
    assert [name for name in g.operators if not g.out_edges(name)] == ["sink"]


def test_operator_order_is_insertion_order():
    g = simple_graph()
    assert g.operator_order() == ["src", "map", "sink"]


def test_acyclic_graph_has_no_cycle():
    assert not simple_graph().has_cycle()


def test_cycle_detection():
    g = LogicalGraph()
    g.add_source("s", "t", SourceOperator)
    g.add_operator("a", lambda: MapOperator(lambda x: x))
    g.add_operator("b", lambda: MapOperator(lambda x: x))
    g.connect("s", "a")
    g.connect("a", "b")
    g.connect("b", "a")  # feedback
    assert g.has_cycle()


def test_validate_requires_source():
    g = LogicalGraph()
    g.add_operator("a", SinkOperator)
    with pytest.raises(GraphError):
        g.validate()


def test_validate_rejects_unreachable_operator():
    g = LogicalGraph()
    g.add_source("s", "t", SourceOperator)
    g.add_operator("orphan", SinkOperator)
    with pytest.raises(GraphError):
        g.validate()


def test_validate_empty_graph():
    with pytest.raises(GraphError):
        LogicalGraph().validate()


def test_edge_ids_unique_and_sequential():
    g = simple_graph()
    assert [e.edge_id for e in g.edges] == [0, 1]


def test_describe_mentions_operators_and_edges():
    text = simple_graph().describe()
    assert "src" in text and "map -> sink" in text


def test_multi_input_ports():
    g = LogicalGraph()
    g.add_source("l", "left", SourceOperator)
    g.add_source("r", "right", SourceOperator)
    g.add_operator("join", SinkOperator)
    g.connect("l", "join", Partitioning.KEY, key_fn=lambda x: x, port="left")
    g.connect("r", "join", Partitioning.KEY, key_fn=lambda x: x, port="right")
    ports = {e.port for e in g.in_edges("join")}
    assert ports == {"left", "right"}
